"""Tests of the benchmark itself: result schema at a tiny scale, the
independent output check, span self-time accounting and the speed
samples taken during a timed region.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from calibrate import Speedometer  # noqa: E402
from replay import check_bounds, graph_edges, replay_schedule  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_schema(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# -- the independent output check ------------------------------------------

@pytest.fixture(scope="module")
def grid_outputs(tmp_path_factory):
    """A 3x3 grid, a random permutation, and the swap and teleport
    schedules `teleroute route` writes for it."""
    from teleroute import cli
    from teleroute.graphs import (generate_graph, generate_permutation,
                                  graph_to_json)
    tmp = tmp_path_factory.mktemp("grid")
    g = generate_graph("grid", n=3, d=2, ancilla_budget=2)
    pi = generate_permutation("random", g, seed=5)
    (tmp / "p.json").write_text(cli.perm_to_json(pi))
    docs = {}
    for model in ("swap", "teleport"):
        out = tmp / f"{model}.json"
        assert cli.main(["route", "--model", model, "--family", "grid",
                         "--n", "3", "--d", "2", "--budget", "2",
                         "--perm-file", str(tmp / "p.json"),
                         "-o", str(out)]) == 0
        docs[model] = json.loads(out.read_text())
    gdoc = json.loads(graph_to_json(g))
    return gdoc, pi.image, docs


def _replay(gdoc, image, doc):
    return replay_schedule(doc, gdoc["n"], graph_edges(gdoc),
                           gdoc["ancilla_budget"], image)[0]


def test_replay_accepts_program_output(grid_outputs):
    gdoc, image, docs = grid_outputs
    for doc in docs.values():
        assert _replay(gdoc, image, doc) == []


def test_replay_rejects_swap_on_non_edge(grid_outputs):
    gdoc, image, docs = grid_outputs
    doc = copy.deepcopy(docs["swap"])
    op = doc["timesteps"][0][0]
    op["u"], op["v"] = 0, 8   # opposite corners of the grid
    assert any("non-edge" in p for p in _replay(gdoc, image, doc))


def test_replay_rejects_round_over_budget(grid_outputs):
    gdoc, image, docs = grid_outputs
    doc = copy.deepcopy(docs["teleport"])
    rnd = next(op for step in doc["timesteps"] for op in step
               if op["type"] == "tele_round")
    # a long detour through the centre parks 2 halves at vertex 4 per
    # pass; three transfers through it exceed budget 2
    rnd["transfers"] = [{"path": [1, 4, 7], "kind": "move"},
                        {"path": [3, 4, 5], "kind": "move"},
                        {"path": [7, 4, 1], "kind": "move"}]
    assert any("budget" in p for p in _replay(gdoc, image, doc))


def test_replay_rejects_wrong_final_permutation(grid_outputs):
    gdoc, image, docs = grid_outputs
    doc = copy.deepcopy(docs["swap"])
    doc["timesteps"].pop()
    assert any("final placement" in p for p in _replay(gdoc, image, doc))


def test_check_bounds_recomputes_the_witness():
    # path 0-1-2-3: the cut {0, 1} has boundary {2}, so c = 1/2
    edges = {(0, 1), (1, 2), (2, 3)}
    doc = {"c_lower": "1/2", "c_upper": "1/2", "exact": True,
           "witness_cut": [0, 1]}
    assert check_bounds(doc, 4, edges) == []
    wrong = dict(doc, c_lower="1/3", c_upper="1/3")
    assert check_bounds(wrong, 4, edges)


# -- span accounting ---------------------------------------------------------

def test_self_times_account_for_the_root():
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("cli.main"):
            with tracer.span("a"):
                sum(range(20000))
            with tracer.span("b"):
                with tracer.span("c"):
                    sum(range(20000))
    selfs = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(tracer.total("job"))
    assert all(v >= 0 for v in selfs.values())


def test_speed_samples_are_taken_and_kept_out_of_spans():
    tracer = Tracer()
    meter = Speedometer(lambda start, end: tracer.record("calibrate",
                                                         start, end))
    with tracer.span("job"):
        with meter.sampling():
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                pass
    assert len(meter.samples) >= 1
    assert meter.spent == pytest.approx(sum(meter.samples))
    assert tracer.total("calibrate") == pytest.approx(meter.spent)
    assert tracer.self_times()["job"] == pytest.approx(
        tracer.total("job") - meter.spent)
