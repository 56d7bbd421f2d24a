"""Command-line interface: flags, exit codes, and output formats."""

import json

import pytest

from teleroute import cli
from teleroute.cli import main, perm_from_json, perm_to_json
from teleroute.graphs import Permutation, generate_graph, generate_permutation
from teleroute.schedule import Schedule, SwapEdge


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
    assert "seed" in err


def test_route_never_emits_unverified(capsys, monkeypatch):
    monkeypatch.setitem(cli._ROUTERS, "swap",
                        lambda g, pi: Schedule([[SwapEdge(0, 1)]]))
    code, out, err = run(capsys, "route", "--model", "swap",
                         "--family", "path", "--n", "3",
                         "--perm", "identity")
    assert code == 1
    assert out == ""
    assert "FAILED" in err


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


def test_verify_graph_mismatch(triple, tmp_path, capsys):
    sf, _, pf = triple
    other = tmp_path / "other.json"
    run(capsys, "graph", "--family", "grid", "--n", "4", "--d", "2",
        "--budget", "4", "-o", str(other))
    code, _, err = run(capsys, "verify", str(sf), str(other), str(pf))
    assert code == 1
    assert "MISMATCH" in err


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


def test_perm_json_roundtrip():
    pi = Permutation((2, 0, 1, 3))
    assert perm_from_json(perm_to_json(pi)).image == pi.image
    with pytest.raises(ValueError, match="disagrees"):
        perm_from_json('{"n": 5, "image": [0, 1, 2]}')
