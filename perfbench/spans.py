"""In-memory spans around the calls into teleroute's modules.

The traced passes patch, for their duration only, the public functions
that ``teleroute.cli`` calls (in the ``cli`` namespace, where it looks
them up), the ``Schedule`` and ``CliffordCircuit`` methods it and the
certify jobs use, and the circuit functions the certify jobs call.
Untraced passes run the unpatched program.

Each span records its name, start, end and parent; spans stay in
memory and are reduced to per-layer self times when the run ends.  A
span's self time is its duration minus its direct children's.  Counts
are taken from each call's arguments and result right after the span
closes; that bookkeeping is itself recorded as a child span of the
caller, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        # one factor per root span, in order, by which its tree's
        # durations are scaled when reduced (the calibration factor)
        self.root_scale: list[float] = []
        self._stack: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1]))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self._stack[-1])

    def record(self, name: str, start: float, end: float):
        """A finished span under whichever span is open."""
        self.spans.append((name, start, end, self._stack[-1]))

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, args,
        result)`` adds to the exact counters afterwards."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(BOOKKEEPING):
                    count(self.counts, args, result)
            return result

        return traced

    def _durations(self) -> list[float]:
        roots = iter(self.root_scale)
        scale: list[float] = []
        for name, start, end, parent in self.spans:
            # a parent is always recorded before its children
            scale.append(next(roots, 1.0) if parent < 0 else scale[parent])
        return [(end - start) * k
                for (_, start, end, _), k in zip(self.spans, scale)]

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        dur = self._durations()
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, dur):
            if parent >= 0:
                child[parent] += d
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _), d, c in zip(self.spans, dur, child):
            out[name] += d - c
        return dict(out)

    def total(self, name: str) -> float:
        return sum(d for (n, _, _, _), d in zip(self.spans, self._durations())
                   if n == name)


@contextmanager
def patched(targets):
    """Temporarily set attributes: ``targets`` is a list of
    (object, attribute, replacement) triples."""
    saved = [(obj, attr, obj.__dict__[attr] if isinstance(obj, type)
              else getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, new in targets:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


# ---------------------------------------------------------------------------
# what each layer counts
# ---------------------------------------------------------------------------

def _ops(sched) -> int:
    return sum(len(step) for step in sched.timesteps)


def _count_graph(c, args, g):
    c["graphs.edges"] += len(g.edges)


def _count_swap(c, args, sched):
    c["swap_routing.timesteps"] += sched.num_timesteps()
    c["swap_routing.swaps"] += sum(
        1 for op in sched.ops() if type(op).__name__ == "SwapEdge")


def _count_tele(c, args, sched):
    for op in sched.ops():
        kind = type(op).__name__
        if kind == "TeleRound":
            c["tele_routing.rounds"] += 1
            c["tele_routing.transfers"] += len(op.transfers)
        elif kind == "SwapLocal":
            # each chained cycle parks one token with exactly 3 local
            # swaps; chained_cycles is this count over 3
            c["tele_routing.local_swaps"] += 1


def _count_sparse(c, args, sched):
    c["sparse_routing.timesteps"] += sched.num_timesteps()
    c["sparse_routing.ops"] += _ops(sched)


def _count_executed(c, args, result):
    sched = args[1]
    c["execute.timesteps"] += sched.num_timesteps()
    c["execute.ops"] += _ops(sched)


def _count_to_json(c, args, text):
    c["schedule.json_bytes"] += len(text)


def _count_from_json(c, args, sched):
    c["schedule.json_bytes"] += len(args[0])


def _count_circuit(c, args, circuit):
    c["teleport_circuit.layers"] += len(circuit.layers)
    c["teleport_circuit.gates"] += sum(len(layer) for layer in circuit.layers)


def _count_run(c, args, result):
    circuit = args[0]
    c["stabilizer.qubits"] += circuit.num_qubits
    c["stabilizer.measurements"] += sum(
        1 for layer in circuit.layers for g in layer if g.kind == "measure")


def _count_bounds(c, args, rep):
    if rep.exact:
        c["bounds.exact_cuts"] += 2 ** (rep.n - 1) - 1


def _executor(tracer: Tracer, name: str, fn):
    """``tracer.wrap`` for an executor entry point, also counting calls
    that raise or return False as failures."""
    inner = tracer.wrap(name, fn, _count_executed)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            result = inner(*args, **kwargs)
        except Exception:
            tracer.counts["execute.failures"] += 1
            raise
        if result is False:
            tracer.counts["execute.failures"] += 1
        return result

    return traced


def instrument(tr, tracer: Tracer):
    """The (object, attribute, replacement) triples that trace one
    loaded copy of teleroute (``tr`` holds its modules)."""
    cli = tr.cli
    w = tracer.wrap
    route_generic = w("swap_routing.route_generic", cli.route_generic,
                      _count_swap)
    sparse_route = w("sparse_routing.sparse_route", cli.sparse_route,
                     _count_sparse)
    routers = dict(cli._ROUTERS, swap=route_generic, sparse=sparse_route)
    sched_cls = tr.schedule.Schedule
    circ_cls = tr.teleport_circuit.CliffordCircuit
    tc = tr.teleport_circuit
    return [
        (cli, "main", w("cli.main", cli.main)),
        (cli, "generate_graph", w("graphs.generate_graph",
                                  cli.generate_graph, _count_graph)),
        (cli, "generate_permutation", w("graphs.generate_permutation",
                                        cli.generate_permutation)),
        (cli, "graph_from_json", w("graphs.graph_from_json",
                                   cli.graph_from_json, _count_graph)),
        (cli, "route_generic", route_generic),
        (cli, "sparse_route", sparse_route),
        (cli, "_ROUTERS", routers),
        (cli, "greedy_schedule", w("tele_routing.greedy_schedule",
                                   cli.greedy_schedule, _count_tele)),
        (cli, "ladder_schedule", w("tele_routing.ladder_schedule",
                                   cli.ladder_schedule, _count_tele)),
        (cli, "verify_schedule", _executor(
            tracer, "execute.verify_schedule", cli.verify_schedule)),
        (cli, "apply_schedule", _executor(
            tracer, "execute.apply_schedule", cli.apply_schedule)),
        (cli, "achieved_permutation", w("execute.achieved_permutation",
                                        cli.achieved_permutation)),
        (cli, "bounds_report", w("bounds.bounds_report", cli.bounds_report,
                                 _count_bounds)),
        (sched_cls, "to_json", w("schedule.to_json", sched_cls.to_json,
                                 _count_to_json)),
        (sched_cls, "from_json", staticmethod(w(
            "schedule.from_json", sched_cls.from_json, _count_from_json))),
        (sched_cls, "depth", w("schedule.depth", sched_cls.depth)),
        (tc, "emit_circuit", w("teleport_circuit.emit_circuit",
                               tc.emit_circuit, _count_circuit)),
        (tc, "emit_teleport_circuit", w("teleport_circuit.emit_circuit",
                                        tc.emit_teleport_circuit,
                                        _count_circuit)),
        (tc, "verify_teleportation", w("teleport_circuit.verify_teleportation",
                                       tc.verify_teleportation)),
        (circ_cls, "run", w("stabilizer.run", circ_cls.run, _count_run)),
    ]
