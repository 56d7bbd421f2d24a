"""Command-line interface: flags, exit codes, and output formats."""

import argparse
import csv
import hashlib
import json

import pytest

from teleroute import cli, tele_routing
from teleroute.cli import main, perm_from_json, perm_to_json
from teleroute.graphs import (
    FAMILY_PARAMS,
    PERMUTATION_PARAMS,
    ArchGraph,
    Permutation,
    generate_graph,
    generate_permutation,
    graph_to_json,
)
from teleroute.schedule import DepthModel, Schedule, SwapEdge
from teleroute.swap_routing import route_generic
from teleroute.tele_routing import advantage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- graph ---------------------------------------------------------------

def test_graph_json(capsys):
    code, out, err = run(capsys, "graph", "--family", "ladder", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 15
    assert "15 vertices" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--family", "path", "--n", "7",
                       "--dot")
    assert code == 0
    assert out.startswith("graph ")
    assert "--" in out


def test_graph_budget_flag(capsys):
    code, out, _ = run(capsys, "graph", "--family", "path", "--n", "3",
                       "--budget", "2")
    assert code == 0
    assert json.loads(out)["ancilla_budget"] == 2


def test_graph_missing_params(capsys):
    code, _, err = run(capsys, "graph", "--family", "grid", "--n", "5")
    assert code == 2
    assert "error" in err


def test_graph_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--family", "moebius", "--n", "4"])
    assert exc.value.code == 2


def test_graph_output_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, _ = run(capsys, "graph", "--family", "path", "--n", "5",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 5


# -- graph files ---------------------------------------------------------

def write_graph(tmp_path, doc) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_graph_file_of_a_family_routes(tmp_path, capsys):
    g = generate_graph("grid", n=4, d=2)
    gf = write_graph(tmp_path, json.loads(graph_to_json(g)))
    code, out, _ = run(capsys, "route", "--model", "swap", "--graph-file",
                       gf, "--perm", "reflection")
    assert code == 0
    expect = route_generic(g, generate_permutation("reflection", g))
    assert out.strip() == expect.to_json(graph=g)


def test_graph_file_grid_without_labels(tmp_path, capsys):
    doc = json.loads(graph_to_json(generate_graph("grid", n=5, d=2)))
    del doc["labels"]
    gf = write_graph(tmp_path, doc)
    code, _, err = run(capsys, "bounds", "--no-exact", "--graph-file", gf)
    assert code == 2
    assert "'grid'" in err and len(err.strip().splitlines()) == 1


def test_graph_file_path_labelled_ladder(tmp_path, capsys):
    # a 7-vertex path claiming to be ladder n=3 (also 7 vertices)
    doc = json.loads(graph_to_json(generate_graph("path", n=7)))
    doc["family"], doc["params"] = "ladder", {"n": 3}
    gf = write_graph(tmp_path, doc)
    code, out, err = run(capsys, "route", "--model", "teleport",
                         "--graph-file", gf, "--perm", "reflection")
    assert code == 2 and out == ""
    assert "'ladder'" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("family", [["grid"], 7])
def test_graph_file_family_must_be_a_string(tmp_path, capsys, family):
    doc = json.loads(graph_to_json(generate_graph("path", n=4)))
    doc["family"] = family
    gf = write_graph(tmp_path, doc)
    code, _, err = run(capsys, "graph", "--graph-file", gf)
    assert code == 2
    assert "'family' must be a string" in err


def forged_family_file(tmp_path) -> str:
    # hypercube d=3's document with butterfly r=2's edges: 8 vertices and
    # the right labels, but a swap schedule for the family uses non-edges
    doc = json.loads(graph_to_json(generate_graph("hypercube", d=3)))
    doc["edges"] = [list(e) for e in generate_graph("butterfly", r=2).edges]
    return write_graph(tmp_path, doc)


def test_route_rejects_forged_family_file(tmp_path, capsys):
    gf = forged_family_file(tmp_path)
    code, out, err = run(capsys, "route", "--model", "swap", "--graph-file",
                         gf, "--perm", "reflection")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "family 'hypercube'" in lines[0]


def test_verify_rejects_forged_family_file(tmp_path, capsys):
    g = generate_graph("hypercube", d=3)
    pi = generate_permutation("reflection", g)
    sf, pf = tmp_path / "s.json", tmp_path / "p.json"
    sf.write_text(route_generic(g, pi).to_json())
    pf.write_text(perm_to_json(pi))
    gf = forged_family_file(tmp_path)
    code, out, err = run(capsys, "verify", str(sf), gf, str(pf))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "family 'hypercube'" in lines[0]


# -- bounds --------------------------------------------------------------

def test_bounds_hypercube(capsys):
    code, out, err = run(capsys, "bounds", "--family", "hypercube",
                         "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["c_upper"] == "3/4"
    assert doc["diam"] == 3
    assert abs(doc["lambda2"] - 2.0) < 1e-9
    assert "expansion" in err


def test_bounds_butterfly_within_two_thirds(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "butterfly", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    from fractions import Fraction
    assert Fraction(doc["c_upper"]) <= Fraction(2, 3)


def test_bounds_capacity_gate(capsys):
    code, _, err = run(capsys, "bounds", "--family", "grid", "--n", "5",
                       "--d", "2")
    assert code == 2
    assert "--no-exact" in err
    code, out, _ = run(capsys, "bounds", "--family", "grid", "--n", "5",
                       "--d", "2", "--no-exact")
    assert code == 0
    assert json.loads(out)["exact"] is False


# -- route ---------------------------------------------------------------

def test_route_teleport_diam_single_round(capsys):
    code, out, err = run(capsys, "route", "--model", "teleport",
                         "--family", "path", "--n", "31", "--perm", "diam")
    assert code == 0
    assert "1 timesteps" in err and "verified" in err
    sched = Schedule.from_json(out)
    assert sched.num_timesteps() == 1


def test_route_sparse_grid(capsys):
    code, _, err = run(capsys, "route", "--model", "sparse",
                       "--family", "grid", "--n", "5", "--d", "2",
                       "--perm", "random", "--k", "4", "--seed", "7")
    assert code == 0
    assert "verified" in err


def test_route_swap_identity_is_empty(capsys):
    code, out, err = run(capsys, "route", "--model", "swap",
                         "--family", "path", "--n", "9",
                         "--perm", "identity")
    assert code == 0
    assert "depth 0" in err
    assert Schedule.from_json(out).num_timesteps() == 0


def test_route_random_requires_seed(capsys):
    code, _, err = run(capsys, "route", "--model", "swap",
                       "--family", "path", "--n", "5", "--perm", "random")
    assert code == 2
    assert err == "error: random requires parameters ['seed']\n"


def test_route_never_emits_unverified(capsys, monkeypatch):
    monkeypatch.setitem(cli._ROUTERS, "swap",
                        lambda g, pi: Schedule([[SwapEdge(0, 1)]]))
    code, out, err = run(capsys, "route", "--model", "swap",
                         "--family", "path", "--n", "3",
                         "--perm", "identity")
    assert code == 1
    assert out == ""
    assert "FAILED" in err


def non_edge_swap(g, pi):
    return Schedule([[SwapEdge(0, 2)]])  # 0 and 2 are not adjacent on a path


def assert_one_verification_line(code, out, err, what):
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"verification FAILED: {what}: timestep 0")


def test_route_reports_an_invalid_schedule_in_one_line(capsys, monkeypatch):
    monkeypatch.setitem(cli._ROUTERS, "swap", non_edge_swap)
    code, out, err = run(capsys, "route", "--model", "swap",
                         "--family", "path", "--n", "5",
                         "--perm", "reflection")
    assert_one_verification_line(code, out, err, "swap schedule")


@pytest.mark.parametrize("flag, value, name", [
    ("--cost-swap", "-1", "swap_edge"),
    ("--cost-swap", "0", "swap_edge"),
    ("--cost-round", "0", "tele_round"),
    ("--cost-local", "-1", "swap_local"),
])
@pytest.mark.parametrize("command", [
    ("route", "--model", "swap", "--n", "7"),
    ("advantage", "--sizes", "7"),
])
def test_bad_cost_is_usage_error(capsys, command, flag, value, name):
    code, out, err = run(capsys, *command, "--family", "path",
                         "--perm", "diam", flag, value)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag}: ")
    assert f"{name!r} must be an integer" in lines[0]


def test_route_deterministic(capsys):
    args = ("route", "--model", "teleport", "--family", "grid",
            "--n", "4", "--d", "2", "--perm", "random", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# -- advantage -----------------------------------------------------------

def test_advantage_path_sweep(capsys):
    code, out, _ = run(capsys, "advantage", "--family", "path",
                       "--sizes", "7", "15", "31", "--perm", "diam")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,family,perm,swap_depth,tele_rounds,ratio,iso_lb,diam"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [7, 15, 31]
    ratios = [int(r[5]) for r in rows]
    assert ratios == sorted(ratios) and len(set(ratios)) == 3


def test_advantage_sizes_set_each_family_size_param(capsys):
    # a sweep varies the family's first param and keeps the other flags
    for family, fixed, sizes, ns in (("grid", ("--d", "3"), ("2", "3"),
                                      [8, 27]),
                                     ("hypercube", (), ("2", "3"), [4, 8]),
                                     ("butterfly", (), ("2", "3"), [8, 24])):
        code, out, _ = run(capsys, "advantage", "--family", family, *fixed,
                           "--budget", "3", "--sizes", *sizes,
                           "--perm", "reflection")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == ns


def test_advantage_label_lists_only_the_kind_params(capsys):
    code, out, _ = run(capsys, "advantage", "--family", "path", "--n", "9",
                       "--perm", "random", "--seed", "2", "--k", "3",
                       "--alpha", "0.5")
    assert code == 0
    assert list(csv.reader(out.splitlines()))[1][2] == "random[k=3,seed=2]"


def test_advantage_ladder_rounds_constant(capsys):
    code, out, _ = run(capsys, "advantage", "--family", "ladder",
                       "--sizes", "3", "4", "5", "--perm", "random",
                       "--seed", "11")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[4] == "1" for r in rows)
    assert all(int(r[3]) >= size - 1
               for r, size in zip(rows, (3, 4, 5)))


def test_advantage_identity_ratio_one(capsys):
    code, out, _ = run(capsys, "advantage", "--family", "path",
                       "--sizes", "6", "--perm", "identity")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "0" and row[4] == "0" and row[5] == "1"


def test_advantage_byte_identical(capsys):
    args = ("advantage", "--family", "path", "--sizes", "7", "15",
            "--perm", "diam")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# family, sizes, graph params, perm, perm params, depth model costs,
# sha256 of stdout
ADVANTAGE_GOLDEN = [
    ("path", (7, 15, 31), {}, "diam", {}, {},
     "d3ea5b09fcdfdc28ead468a796ad07eb7d01e5cbb439961beb4f9c361f8b76ec"),
    ("wheel", (8, 16), {}, "wheel", {"l": 2}, {},
     "ae4257eb766b26d1db3a1e058978c6f2bfadc089536110266e330a29277499dc"),
    ("ladder", (3, 4, 5), {}, "random", {"seed": 11}, {},
     "55de6e5f89037c4ae76299d44fc028dbae89915c2117f6477295accd621260f5"),
    ("grid", (3, 4), {"d": 2}, "reflection", {}, {},
     "352363ace1568cf47dd37db9e6965cd6c10480e5af31a8f57ab7d6b85997b2ab"),
    ("hypercube", (3, 4), {}, "reflection", {},
     {"tele_round": 3, "swap_local": 1},
     "1879cf8f58bcfc5c085bada82155d58de095b7c6cc9241b16ccacaadbbdca872"),
    ("butterfly", (2, 3), {}, "random", {"seed": 1}, {},
     "f0adfc4ec0e558d4e5f13cadea8d5487e0ad21987b5a1c6f483246aaddd59701"),
    ("complete", (5, 8), {"ancilla_budget": 3}, "random", {"seed": 2}, {},
     "41867c38d83cfbb7e88bc60c1900042bc03d7c401b9ae23e41d8e476a08b51a2"),
]

FLAG = {"ancilla_budget": "--budget", "swap_edge": "--cost-swap",
        "swap_local": "--cost-local", "tele_round": "--cost-round"}


def as_flags(params: dict) -> list[str]:
    return [a for k, v in params.items()
            for a in (FLAG.get(k, f"--{k}"), str(v))]


@pytest.mark.parametrize(
    "family, sizes, gparams, perm, pparams, costs, sha", ADVANTAGE_GOLDEN,
    ids=[case[0] for case in ADVANTAGE_GOLDEN])
def test_advantage_golden(capsys, family, sizes, gparams, perm, pparams,
                          costs, sha):
    code, out, _ = run(capsys, "advantage", "--family", family,
                       "--sizes", *map(str, sizes), *as_flags(gparams),
                       "--perm", perm, *as_flags(pparams), *as_flags(costs))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    # each row prints the comparison record for its size
    model = DepthModel(**costs)
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == len(sizes)
    for row, size in zip(rows, sizes):
        g = generate_graph(family, **{FAMILY_PARAMS[family][0]: size},
                           **gparams)
        adv = advantage(g, generate_permutation(perm, g, **pparams), model)
        assert row[0] == str(g.n) and row[1] == family
        assert row[3:6] == [str(adv.swap_depth), str(adv.tele_depth),
                            str(adv.ratio)]


@pytest.mark.parametrize("flag", ["--graph-file", "--perm-file"])
def test_advantage_takes_no_files(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["advantage", "--family", "path", "--sizes", "7",
              "--perm", "diam", flag, "x.json"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_advantage_reports_an_invalid_schedule_in_one_line(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(tele_routing, "route_generic", non_edge_swap)
    code, out, err = run(capsys, "advantage", "--family", "path",
                         "--sizes", "5", "7", "--perm", "reflection")
    assert_one_verification_line(code, out, err,
                                 "swap schedule on path size 5")


def test_advantage_requires_sizes(capsys):
    code, _, err = run(capsys, "advantage", "--family", "path",
                       "--perm", "diam")
    assert code == 2
    assert "sizes" in err


# -- verify --------------------------------------------------------------

@pytest.fixture
def triple(tmp_path, capsys):
    g = generate_graph("grid", n=4, d=2)
    pi = generate_permutation("random", g, seed=5, k=4)
    gf = tmp_path / "g.json"
    pf = tmp_path / "p.json"
    sf = tmp_path / "s.json"
    run(capsys, "graph", "--family", "grid", "--n", "4", "--d", "2",
        "-o", str(gf))
    pf.write_text(perm_to_json(pi))
    run(capsys, "route", "--model", "teleport", "--family", "grid",
        "--n", "4", "--d", "2", "--perm", "random", "--seed", "5",
        "--k", "4", "-o", str(sf))
    return sf, gf, pf


def test_verify_good_triple(triple, capsys):
    sf, gf, pf = triple
    code, _, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 0
    assert "verified" in err


def test_verify_tampered_schedule(triple, capsys):
    sf, gf, pf = triple
    doc = json.loads(sf.read_text())
    doc["timesteps"] = doc["timesteps"][:-1]
    sf.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 1
    assert "FAILED" in err


_TAMPERED_ROUND = (
    "FAILED: timestep 0, TeleRound TeleRound(transfers=("
    "Transfer(path={}, kind='move'), "
    "Transfer(path=(12, 8, 9, 10, 11), kind='move'), "
    "Transfer(path=(11, 10, 9, 8), kind='move'), "
    "Transfer(path=(8, 4, 5), kind='move'){})): {}")


@pytest.mark.parametrize("path, extra, message", [
    # 6-8 is not an edge of the 4x4 grid
    ([5, 6, 8, 12], None, "path step (6,8) is not an edge"),
    ([5, 4, 8, 16], None, "vertex 16 out of range"),
    # vertex 8 already holds 6 pair halves, the budget
    ([5, 4, 8, 12], [9, 8], "vertex 8 holds 7 pair halves, budget is 6"),
])
def test_verify_tampered_round_names_the_fault(triple, capsys, path, extra,
                                               message):
    sf, gf, pf = triple
    doc = json.loads(sf.read_text())
    (rnd,) = doc["timesteps"][0]
    assert rnd["transfers"][0]["path"] == [5, 4, 8, 12]
    rnd["transfers"][0]["path"] = path
    if extra is not None:
        rnd["transfers"].append({"kind": "move", "path": extra})
    sf.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 1
    assert out == ""
    more = "" if extra is None else f", Transfer(path={tuple(extra)}, kind='move')"
    assert err == _TAMPERED_ROUND.format(tuple(path), more, message) + "\n"


def test_verify_wrong_permutation(triple, capsys):
    sf, gf, pf = triple
    pi = perm_from_json(pf.read_text())
    image = list(pi.image)
    image[0], image[1] = image[1], image[0]
    pf.write_text(perm_to_json(Permutation(tuple(image))))
    code, _, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 1
    assert "first diff" in err


def test_verify_missing_file(triple, capsys):
    _, gf, pf = triple
    code, _, err = run(capsys, "verify", "no-such-file.json", str(gf),
                       str(pf))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text, needle", [
    ('{"timesteps": [[{"type": "swap_edge", "u": "a", "v": 1}]]}', "integer"),
    ("[1, 2]", "object"),
    ('{"graph_ref": null}', "timesteps"),
    ('{"timesteps": [], "graph_ref": 5}', "graph_ref"),
    ('{"timesteps": [], "graph_ref": 0}', "graph_ref"),
    ('{"timesteps": [], "graph_ref": []}', "graph_ref"),
    ('{"timesteps": [], "graph_ref": false}', "graph_ref"),
])
def test_verify_malformed_schedule_is_usage_error(triple, capsys, text,
                                                  needle):
    sf, gf, pf = triple
    sf.write_text(text)
    code, out, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]


@pytest.mark.parametrize("text, needle", [
    ("[1, 2]", "object"),
    ('{"n": 8}', "edges"),
    ('{"edges": []}', "'n'"),
    ('{"n": "x", "edges": []}', "integer"),
    ('{"n": 3, "edges": [[0, 1, 2]]}', "pairs"),
    ('{"n": 3, "edges": [[0, "a"], [1, 2]]}', "pairs"),
    ('{"n": 3, "edges": {"0": 1}}', "pairs"),
    ('{"n": 2, "edges": [[0, 1]], "params": {"n": "x"}}', "params"),
])
def test_verify_malformed_graph_is_usage_error(triple, capsys, text, needle):
    sf, gf, pf = triple
    gf.write_text(text)
    code, out, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]


@pytest.mark.parametrize("text, needle", [
    ("[1, 2]", "object"),
    ('{"n": 2}', "image"),
    ('{"image": [0, "1"]}', "image"),
    ('{"image": 3}', "image"),
])
def test_verify_malformed_permutation_is_usage_error(triple, capsys, text,
                                                     needle):
    sf, gf, pf = triple
    pf.write_text(text)
    code, out, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]


def test_verify_graph_mismatch(triple, tmp_path, capsys, monkeypatch):
    sf, _, pf = triple
    other = tmp_path / "other.json"
    run(capsys, "graph", "--family", "grid", "--n", "4", "--d", "2",
        "--budget", "4", "-o", str(other))
    hashed = []
    real = ArchGraph.ref_hash

    def counted(g):
        hashed.append(real(g))
        return hashed[-1]

    monkeypatch.setattr(ArchGraph, "ref_hash", counted)
    code, _, err = run(capsys, "verify", str(sf), str(other), str(pf))
    assert code == 1
    want = json.loads(sf.read_text())["graph_ref"]
    assert len(hashed) == 1   # serialised and hashed once
    assert err == f"MISMATCH: schedule targets graph {want}, got {hashed[0]}\n"


def _set_graph_ref(sf, ref):
    doc = json.loads(sf.read_text())
    doc["graph_ref"] = ref
    sf.write_text(json.dumps(doc))


def test_verify_empty_graph_ref_is_a_mismatch(triple, capsys):
    sf, gf, pf = triple
    _set_graph_ref(sf, "")
    code, _, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 1
    assert "MISMATCH" in err


def test_verify_null_graph_ref_skips_the_check(triple, capsys):
    sf, gf, pf = triple
    _set_graph_ref(sf, None)
    code, _, err = run(capsys, "verify", str(sf), str(gf), str(pf))
    assert code == 0
    assert "verified" in err


# -- config file ---------------------------------------------------------

def test_config_mirrors_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path", "n": 9}))
    code, out, _ = run(capsys, "graph", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path", "n": 9}))
    code, out, _ = run(capsys, "graph", "--config", str(cfg), "--n", "5")
    assert code == 0
    assert json.loads(out)["n"] == 5


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    code, _, err = run(capsys, "graph", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("doc, key", [
    ({"family": "path", "n": "8"}, "n"),
    ({"family": "path", "n": 8.0}, "n"),
    ({"family": "path", "n": True}, "n"),
    ({"family": "path", "n": 8, "perm": "random", "seed": "x"}, "seed"),
    ({"family": "path", "n": 8, "perm": "rainbow", "alpha": "0.5"}, "alpha"),
    ({"family": "moebius", "n": 8}, "family"),
    ({"family": "path", "n": 8, "perm": ["random"], "seed": 1}, "perm"),
    ({"family": "path", "n": 8, "graph-file": 3}, "graph-file"),
    ({"family": "path", "n": 8, "model": "warp"}, "model"),
    ({"family": "path", "n": 8, "perm": "identity", "func": "x"}, "func"),
])
def test_config_rejects_wrong_value_types(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "route", "--model", "swap",
                         "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"config key {key!r}" in err
    assert len(err.strip().splitlines()) == 1


def test_config_value_types_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path", "perm": "rainbow",
                               "alpha": 1, "cost-swap": 2}))
    code, out, err = run(capsys, "route", "--model", "swap", "--n", "16",
                         "--config", str(cfg))
    assert code == 0 and json.loads(out)["timesteps"]
    cfg.write_text(json.dumps({"family": "path", "perm": "identity",
                               "sizes": [4, "8"]}))
    code, _, err = run(capsys, "advantage", "--config", str(cfg))
    assert code == 2 and "a non-empty list of integers" in err


def test_config_sets_store_true_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "grid", "n": 5, "d": 2,
                               "no-exact": True}))
    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["exact"] is False
    cfg.write_text(json.dumps({"family": "path", "n": 4, "dot": 1}))
    code, _, err = run(capsys, "graph", "--config", str(cfg))
    assert code == 2 and "true or false" in err


def test_config_does_not_outlive_its_call(tmp_path, capsys, monkeypatch):
    # main reuses one parser, so a value a config file sets must stay in
    # that call's namespace
    merged = []
    real = cli._merge_config

    def recorded(ns):
        real(ns)
        merged.append(ns)

    monkeypatch.setattr(cli, "_merge_config", recorded)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    argv = ["route", "--model", "sparse", "--family", "path", "--n", "8",
            "--perm", "random"]
    parser = cli._build_parser()
    assert run(capsys, *argv, "--config", str(cfg))[0] == 0
    code, _, err = run(capsys, *argv)
    assert code == 2 and "['seed']" in err
    assert [(ns.config, ns.seed) for ns in merged] == [(str(cfg), 3),
                                                      (None, None)]
    assert cli._build_parser() is parser


def test_perm_json_roundtrip():
    pi = Permutation((2, 0, 1, 3))
    assert perm_from_json(perm_to_json(pi)).image == pi.image
    with pytest.raises(ValueError, match="disagrees"):
        perm_from_json('{"n": 5, "image": [0, 1, 2]}')


# -- flag vocabulary ---------------------------------------------------------

def test_every_table_param_has_a_flag():
    # the flags are declared by hand; a family or permutation parameter
    # without one would crash every subcommand that reads the table
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    graph = set(cli._GRAPH_PARAMS)
    perm = {p for names in PERMUTATION_PARAMS.values() for p in names}
    reads = {"graph": graph, "bounds": graph, "route": graph | perm,
             "advantage": graph | perm, "verify": set()}
    assert set(subs) == set(reads)
    for name, wanted in reads.items():
        assert wanted <= {a.dest for a in subs[name]._actions}, name
