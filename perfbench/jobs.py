"""The benchmark's job lists and what each job runs and checks.

A job is prepared at set-up (graphs and permutation files written,
circuit schedules synthesized), then run inside the timed region
(``run``), then checked outside it (``check``).  Route and bounds jobs
enter through ``teleroute.cli.main`` exactly as the ``teleroute``
command would, writing machine output to a file with ``-o``; the
circuit jobs call the library functions that have no CLI.  Jobs look
the program's functions up on the loaded modules at call time, so the
traced passes see their patched versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from replay import check_bounds, graph_edges, replay_schedule

_SIZE_FLAGS = ("n", "d", "r")


@dataclass
class Outcome:
    """What a job's check found: problems (empty when its output is
    correct), a quality row, output fingerprints, and the depth of
    every schedule by model."""

    problems: list[str]
    row: dict
    fingerprints: dict[str, str] = field(default_factory=dict)
    depths: dict[str, int] = field(default_factory=dict)
    circuit: tuple[int, int] | None = None   # (layers, gates)


def _slug(family: str, params: dict) -> str:
    return family + "".join(f"-{k}{params[k]}" for k in _SIZE_FLAGS
                            if k in params)


def _flags(family: str, params: dict) -> list[str]:
    out = ["--family", family]
    for k in _SIZE_FLAGS:
        if k in params:
            out += [f"--{k}", str(params[k])]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _teleport_schedule(tr, g, pi):
    # the same ladder-or-greedy choice `teleroute route --model teleport`
    # makes
    if g.family == "ladder":
        try:
            return tr.tele_routing.ladder_schedule(g, pi)
        except ValueError:
            pass
    return tr.tele_routing.greedy_schedule(g, pi)


class RouteJob:
    """``teleroute route`` under each model, then optionally
    ``teleroute verify`` on the last model's output."""

    def __init__(self, family: str, params: dict, perm: str,
                 k: int | None = None, models=("swap", "teleport"),
                 verify: bool = True):
        self.family, self.params, self.perm, self.k = family, params, perm, k
        self.models, self.verify = models, verify
        label = perm if k is None else f"{perm}-k{k}"
        self.name = f"{_slug(family, params)}/{label}"
        self.image = None

    def prepare(self, tr, work: Path, seed: int):
        self.replayed = {}   # output sha256 -> replay verdict and shape
        g = self.g = tr.graphs.generate_graph(self.family, **self.params)
        base = work / self.name.replace("/", "_")
        self.graph_file = base.with_suffix(".graph.json")
        self.graph_file.write_text(tr.graphs.graph_to_json(g))
        self.perm_file = base.with_suffix(".perm.json")
        self.out = {m: base.with_suffix(f".{m}.json") for m in self.models}
        if self.perm == "random":
            # drawn from the workload seed at set-up, as a user's file
            pi = tr.graphs.generate_permutation("random", g, seed=seed,
                                                k=self.k)
            perm_args = ["--perm-file", str(self.perm_file)]
        else:
            # seedless kinds are built inside the job, where users pay
            pi = None
            perm_args = ["--perm", self.perm]
            if self.verify:
                # `verify` takes the permutation as a file
                pi = tr.graphs.generate_permutation(self.perm, g)
        self.image = pi.image if pi is not None else None
        if pi is not None:
            self.perm_file.write_text(tr.cli.perm_to_json(pi))
        self.argvs = [["route", "--model", m, *_flags(self.family, self.params),
                       *perm_args, "-o", str(self.out[m])]
                      for m in self.models]
        if self.verify:
            self.argvs.append(["verify", str(self.out[self.models[-1]]),
                               str(self.graph_file), str(self.perm_file)])

    def run(self, tr) -> list:
        return [tr.cli.main(argv) for argv in self.argvs]

    def check(self, tr, codes) -> Outcome:
        problems = [f"{argv[0]} exited {code}"
                    for argv, code in zip(self.argvs, codes) if code != 0]
        gdoc = json.loads(self.graph_file.read_text())
        n, budget = gdoc["n"], gdoc["ancilla_budget"]
        edges = graph_edges(gdoc)
        if self.image is None:
            self.image = tr.graphs.generate_permutation(self.perm,
                                                        self.g).image
        out = Outcome(problems, {"family": self.family, "N": n,
                                 "perm": self.name.split("/")[1]})
        for m in self.models:
            if not self.out[m].exists():
                problems.append(f"{m}: no output written")
                continue
            text = self.out[m].read_text()
            sha = out.fingerprints[m] = _sha(text)
            if sha not in self.replayed:
                # later passes usually repeat the bytes already checked
                self.replayed[sha] = replay_schedule(
                    json.loads(text), n, edges, budget, self.image)
            bad, shape = self.replayed[sha]
            problems += [f"{m}: {p}" for p in bad]
            out.depths[m] = shape["depth"]
            out.row[f"{m}_depth"] = shape["depth"]
            if m == "teleport":
                out.row.update(timesteps=shape["timesteps"],
                               rounds=shape["rounds"],
                               transfers=shape["transfers"])
            self.out[m].unlink()
        return out


class BoundsJob:
    """``teleroute bounds``, exact or with ``--no-exact``."""

    def __init__(self, family: str, params: dict, exact: bool):
        self.family, self.params, self.exact = family, params, exact
        self.name = f"{_slug(family, params)}/bounds" + (
            "" if exact else "-no-exact")

    def prepare(self, tr, work: Path, seed: int):
        g = tr.graphs.generate_graph(self.family, **self.params)
        self.n, self.edges = g.n, set(g.edges)
        self.out = work / (self.name.replace("/", "_") + ".json")
        self.argv = ["bounds", *_flags(self.family, self.params),
                     *([] if self.exact else ["--no-exact"]),
                     "-o", str(self.out)]

    def run(self, tr):
        return tr.cli.main(self.argv)

    def check(self, tr, code) -> Outcome:
        if code != 0 or not self.out.exists():
            return Outcome([f"bounds exited {code}"], {"family": self.family})
        text = self.out.read_text()
        self.out.unlink()
        doc = json.loads(text)
        problems = check_bounds(doc, self.n, self.edges)
        if doc["exact"] != self.exact:
            problems.append(f"exact is {doc['exact']}, expected {self.exact}")
        row = {"family": self.family, "N": self.n, "c": doc["c_upper"],
               "exact": doc["exact"], "diam": doc["diam"],
               "iso_lb": doc["iso_lb"]}
        return Outcome(problems, row, {"bounds": _sha(text)})


class CircuitJob:
    """``emit_circuit`` and ``CliffordCircuit.run`` on a schedule
    synthesized at set-up for a random permutation."""

    def __init__(self, family: str, params: dict, model: str):
        self.family, self.params, self.model = family, params, model
        self.name = f"{_slug(family, params)}/circuit-{model}"

    def prepare(self, tr, work: Path, seed: int):
        g = tr.graphs.generate_graph(self.family, **self.params)
        pi = tr.graphs.generate_permutation("random", g, seed=seed)
        if self.model == "teleport":
            sched = _teleport_schedule(tr, g, pi)
        else:
            sched = tr.swap_routing.route_generic(g, pi)
        self.g, self.sched, self.image = g, sched, pi.image
        self.replayed = None

    def run(self, tr):
        circuit = tr.teleport_circuit.emit_circuit(self.g, self.sched)
        _, records = circuit.run()
        return circuit, records

    def check(self, tr, result) -> Outcome:
        circuit, records = result
        g = self.g
        if self.replayed is None:   # the schedule is the same every pass
            self.replayed = replay_schedule(
                json.loads(self.sched.to_json(graph=g)), g.n, set(g.edges),
                g.ancilla_budget, self.image)
        problems, shape = self.replayed
        problems = list(problems)
        if any(r not in (0, 1) for r in records):
            problems.append("a measurement record was never set")
        if circuit.num_qubits != g.n * (1 + g.ancilla_budget):
            problems.append(f"circuit has {circuit.num_qubits} qubits")
        layers = len(circuit.layers)
        gates = sum(len(layer) for layer in circuit.layers)
        row = {"family": self.family, "N": g.n, "perm": "random",
               f"{self.model}_depth": shape["depth"],
               "qubits": circuit.num_qubits, "layers": layers,
               "gates": gates}
        return Outcome(problems, row, {"circuit": _sha(circuit.to_json())},
                       {self.model: shape["depth"]}, (layers, gates))


class TeleportJob:
    """``emit_teleport_circuit`` and ``verify_teleportation`` on a relay
    chain of ``d`` hops."""

    def __init__(self, d: int):
        self.d = d
        self.name = f"chain-d{d}/teleportation"

    def prepare(self, tr, work: Path, seed: int):
        pass

    def run(self, tr):
        tc = tr.teleport_circuit
        circuit = tc.emit_teleport_circuit(self.d)
        return circuit, tc.verify_teleportation(circuit, self.d)

    def check(self, tr, result) -> Outcome:
        circuit, ok = result
        problems = [] if ok is True else ["verify_teleportation rejected "
                                          "the circuit"]
        layers = len(circuit.layers)
        gates = sum(len(layer) for layer in circuit.layers)
        row = {"family": "chain", "N": self.d + 1, "perm": "teleport",
               "qubits": circuit.num_qubits, "layers": layers,
               "gates": gates}
        return Outcome(problems, row, {"circuit": _sha(circuit.to_json())},
                       circuit=(layers, gates))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

RR = ("random", "reflection")

# full: full-support permutations, N = 63..1024.  It holds the ROADMAP's
# named targets (path-1024 random, hypercube d=10) and its seed-1
# baseline instances (hypercube d=8, grid 16^2 and 8^2, path 64,
# butterfly r=4).  Path reflections at 64, 256 and 384 show the
# superlinear round packing; path-1024 reflection (greedy_schedule
# alone takes about 53 s) and path-512 reflection (about 7 s) are left
# out for run length only.
_FULL = {
    "bench": [
        ("path", {"n": 64}, RR), ("path", {"n": 256}, RR),
        ("path", {"n": 384}, ("reflection",)),
        ("path", {"n": 1024}, ("random",)),
        ("grid", {"n": 8, "d": 2}, RR), ("grid", {"n": 16, "d": 2}, RR),
        ("grid", {"n": 32, "d": 2}, ("random",)),
        ("hypercube", {"d": 6}, RR), ("hypercube", {"d": 8}, RR),
        ("hypercube", {"d": 10}, RR),
        ("butterfly", {"r": 4}, RR), ("butterfly", {"r": 6}, RR),
        ("wheel", {"n": 63}, RR), ("wheel", {"n": 255}, RR),
        ("ladder", {"n": 6}, RR), ("ladder", {"n": 8}, RR),
    ],
    "tiny": [
        ("path", {"n": 16}, RR), ("grid", {"n": 4, "d": 2}, RR),
        ("hypercube", {"d": 4}, RR), ("butterfly", {"r": 3}, RR),
        ("wheel", {"n": 15}, RR), ("ladder", {"n": 4}, RR),
    ],
}

# sparse: few moving tokens (random k-cycles, or one diametral swap) on
# N = 255..1024, so sparse_route and thousands of tiny verifier
# timesteps dominate.
_SPARSE = {
    "bench": [
        ("path", {"n": 1024}, (8,)), ("path", {"n": 256}, (2, 32, "diam")),
        ("grid", {"n": 32, "d": 2}, (8,)),
        ("grid", {"n": 16, "d": 2}, (2, 32, "diam")),
        ("hypercube", {"d": 10}, (8,)),
        ("hypercube", {"d": 8}, (2, 32, "diam")),
        ("butterfly", {"r": 7}, (8,)),
        ("butterfly", {"r": 6}, (2, 32, "diam")),
        ("wheel", {"n": 1023}, (8, "diam")), ("wheel", {"n": 255}, (2, 32)),
        ("ladder", {"n": 8}, (2, 32, "diam")),
    ],
    "tiny": [
        ("path", {"n": 16}, (2, 8)), ("grid", {"n": 4, "d": 2}, (2, "diam")),
        ("hypercube", {"d": 4}, (2, "diam")),
        ("butterfly", {"r": 3}, (2, "diam")),
        ("wheel", {"n": 15}, (2, "diam")), ("ladder", {"n": 4}, (2, "diam")),
    ],
}

# certify: the analysis layers -- exact expansion on n = 15..24, interval
# bounds at N ~ 1024, whole-schedule circuits on 448..1792 qubits, and
# relay-chain teleportation checks.
_CERTIFY = {
    "bench": {
        "exact": [("butterfly", {"r": 3}), ("wheel", {"n": 19}),
                  ("path", {"n": 20}), ("grid", {"n": 4, "d": 2}),
                  ("hypercube", {"d": 4}), ("ladder", {"n": 4})],
        "interval": [("path", {"n": 1024}), ("hypercube", {"d": 10}),
                     ("grid", {"n": 32, "d": 2}), ("butterfly", {"r": 7}),
                     ("wheel", {"n": 1023}), ("ladder", {"n": 8})],
        "circuit": [("grid", {"n": 8, "d": 2}, ("teleport", "swap")),
                    ("hypercube", {"d": 6}, ("teleport", "swap")),
                    ("butterfly", {"r": 4}, ("teleport", "swap")),
                    ("wheel", {"n": 63}, ("teleport", "swap")),
                    ("ladder", {"n": 6}, ("teleport", "swap")),
                    ("path", {"n": 64}, ("teleport", "swap")),
                    ("hypercube", {"d": 8}, ("teleport",)),
                    ("grid", {"n": 16, "d": 2}, ("swap",))],
        "chain": [16, 64, 128],
    },
    "tiny": {
        "exact": [("path", {"n": 8}), ("hypercube", {"d": 3})],
        "interval": [("path", {"n": 30}), ("grid", {"n": 6, "d": 2})],
        "circuit": [("grid", {"n": 3, "d": 2}, ("teleport", "swap")),
                    ("path", {"n": 8}, ("teleport", "swap")),
                    ("hypercube", {"d": 3}, ("teleport", "swap"))],
        "chain": [2, 4, 8],
    },
}

WORKLOADS = ("full", "sparse", "certify")
SCALES = ("bench", "tiny")


def build_jobs(workload: str, scale: str) -> list:
    if workload == "full":
        return [RouteJob(f, p, perm) for f, p, perms in _FULL[scale]
                for perm in perms]
    if workload == "sparse":
        return [RouteJob(f, p, "diam", models=("sparse", "teleport"),
                         verify=False) if kind == "diam" else
                RouteJob(f, p, "random", k=kind, models=("sparse", "teleport"),
                         verify=False)
                for f, p, kinds in _SPARSE[scale] for kind in kinds]
    if workload == "certify":
        spec = _CERTIFY[scale]
        return ([BoundsJob(f, p, True) for f, p in spec["exact"]]
                + [BoundsJob(f, p, False) for f, p in spec["interval"]]
                + [CircuitJob(f, p, m) for f, p, models in spec["circuit"]
                   for m in models]
                + [TeleportJob(d) for d in spec["chain"]])
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> list:
    """One tiny job of each kind the workload runs."""
    jobs = build_jobs(workload, "tiny")
    seen, out = set(), []
    for job in jobs:
        if type(job) not in seen:
            seen.add(type(job))
            out.append(job)
    return out
