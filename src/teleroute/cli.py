"""Command-line driver for graphs, bounds, routing, and advantage sweeps.

Subcommands: ``graph`` emits a connectivity graph as JSON or DOT;
``bounds`` reports expansion, spectral figures, and routing-time lower
bounds; ``route`` synthesizes a schedule under a chosen model and
verifies it before printing; ``advantage`` sweeps a graph family and
tabulates swap depth against teleportation rounds; ``verify`` replays a
schedule file against a graph and permutation.

Machine output (JSON/CSV) goes to stdout and human tables to stderr, so
pipelines stay clean.  Exit codes: 0 success, 1 verification failure,
2 usage or capacity error.  Every command is deterministic given its
full flag set; anything randomized requires --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .bounds import EXACT_EXPANSION_MAX_N, bounds_report
from .execute import (
    ScheduleError,
    achieved_permutation,
    apply_schedule,
    verify_schedule,
)
from .graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    generate_permutation,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
)
from .schedule import DepthModel, Schedule
from .sparse_routing import sparse_route
from .swap_routing import route_generic
from .tele_routing import greedy_schedule, ladder_schedule, teleport_schedule

__all__ = ["main"]

_SIZE_FLAG = {"hypercube": "d", "butterfly": "r"}
_PERM_KINDS = ("identity", "diam", "rainbow", "wheel", "reflection",
               "cyclic_shift", "random")
_PERM_REQUIRES = {
    "rainbow": ("alpha",),
    "wheel": ("l",),
    "cyclic_shift": ("s",),
    "random": ("seed",),
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_graph_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=sorted(
        ("path", "complete", "wheel", "ladder", "hypercube", "butterfly",
         "grid")), help="graph family to generate")
    p.add_argument("--n", type=int, help="size parameter n")
    p.add_argument("--d", type=int, help="dimension parameter d")
    p.add_argument("--r", type=int, help="rank parameter r")
    p.add_argument("--budget", type=int, help="ancilla slots per vertex")
    p.add_argument("--graph-file", metavar="FILE",
                   help="load the graph from a JSON file instead")


def _add_perm_args(p: argparse.ArgumentParser):
    p.add_argument("--perm", choices=_PERM_KINDS,
                   help="permutation workload")
    p.add_argument("--alpha", type=float, help="rainbow density exponent")
    p.add_argument("--l", type=int, help="wheel segment count")
    p.add_argument("--s", type=int, help="cyclic shift distance")
    p.add_argument("--k", type=int, help="random support size")
    p.add_argument("--seed", type=int, help="seed for randomized choices")
    p.add_argument("--perm-file", metavar="FILE",
                   help="load the permutation from a JSON file instead")


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--cost-swap", type=int,
                   help="depth charged per swap layer (default 1)")
    p.add_argument("--cost-local", type=int,
                   help="depth charged per local-slot swap (default 0)")
    p.add_argument("--cost-round", type=int,
                   help="depth charged per teleportation round (default 1)")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE",
                   help="JSON file whose keys mirror the long flags; "
                        "explicit flags win")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write machine output here instead of stdout")


def _merge_config(ns: argparse.Namespace):
    if not getattr(ns, "config", None):
        return
    with open(ns.config, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(ns, attr):
            raise ValueError(f"config key {key!r} matches no flag")
        if getattr(ns, attr) is None:
            setattr(ns, attr, value)


def _resolve_graph(ns) -> ArchGraph:
    if getattr(ns, "graph_file", None):
        with open(ns.graph_file, "r", encoding="utf-8") as f:
            return graph_from_json(f.read())
    if not ns.family:
        raise ValueError("either --family or --graph-file is required")
    params = {k: getattr(ns, k) for k in ("n", "d", "r")
              if getattr(ns, k, None) is not None}
    if ns.budget is not None:
        return generate_graph(ns.family, ancilla_budget=ns.budget, **params)
    return generate_graph(ns.family, **params)


def _perm_params(ns, kind: str) -> dict:
    for name in _PERM_REQUIRES.get(kind, ()):
        if getattr(ns, name, None) is None:
            raise ValueError(
                f"permutation kind {kind!r} requires --{name}")
    out = {}
    for name in ("alpha", "l", "s", "seed", "k"):
        value = getattr(ns, name, None)
        if value is not None:
            out[name] = value
    return out


def _resolve_perm(ns, g: ArchGraph) -> Permutation:
    if getattr(ns, "perm_file", None):
        with open(ns.perm_file, "r", encoding="utf-8") as f:
            return perm_from_json(f.read())
    if not ns.perm:
        raise ValueError("either --perm or --perm-file is required")
    return generate_permutation(ns.perm, g, **_perm_params(ns, ns.perm))


def _resolve_model(ns) -> DepthModel:
    return DepthModel(
        swap_edge=ns.cost_swap if ns.cost_swap is not None else 1,
        swap_local=ns.cost_local if ns.cost_local is not None else 0,
        tele_round=ns.cost_round if ns.cost_round is not None else 1,
    )


def _emit(ns, text: str):
    if getattr(ns, "output", None):
        with open(ns.output, "w", encoding="utf-8") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        print(text)


def _say(msg: str):
    print(msg, file=sys.stderr)


def perm_to_json(pi: Permutation) -> str:
    """Permutation file format: {"n": ..., "image": [...]}."""
    return json.dumps({"n": pi.n, "image": list(pi.image)}, sort_keys=True)


def perm_from_json(text: str) -> Permutation:
    """Parse :func:`perm_to_json` output.  Raises ValueError on JSON
    that is not a permutation document."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a permutation must be a JSON object, got "
                         f"{type(doc).__name__}")
    image = doc.get("image")
    if not isinstance(image, list) or any(type(v) is not int for v in image):
        raise ValueError("permutation 'image' must be a list of integers")
    if doc.get("n", len(image)) != len(image):
        raise ValueError("permutation file: n disagrees with image length")
    return Permutation(tuple(image))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(ns) -> int:
    g = _resolve_graph(ns)
    _emit(ns, graph_to_dot(g) if ns.dot else graph_to_json(g))
    _say(f"{g.family or 'graph'}: {g.n} vertices, {len(g.edges)} edges, "
         f"budget {g.ancilla_budget}")
    return 0


def cmd_bounds(ns) -> int:
    g = _resolve_graph(ns)
    if g.n > EXACT_EXPANSION_MAX_N and not ns.no_exact:
        raise ValueError(
            f"exact expansion enumerates cuts only up to "
            f"{EXACT_EXPANSION_MAX_N} vertices and this graph has {g.n}; "
            f"pass --no-exact for interval bounds")
    rep = bounds_report(g)
    doc = {
        "n": rep.n,
        "c_lower": str(rep.c_lower),
        "c_upper": str(rep.c_upper),
        "exact": rep.exact,
        "witness_cut": list(rep.witness_cut) if rep.witness_cut else None,
        "diam": rep.diam,
        "iso_lb": rep.iso_lb,
        "diam_lb": rep.diam_lb,
        "lambda2": rep.lambda2,
        "degree_ratio": str(rep.degree_ratio),
        "expander_figure": rep.expander_figure,
    }
    _emit(ns, json.dumps(doc, sort_keys=True))
    label = "c =" if rep.exact else "c <="
    _say(f"vertices          {rep.n}")
    _say(f"expansion         {label} {rep.c_upper}"
         + ("" if rep.exact else f"  (>= {rep.c_lower})"))
    _say(f"diameter          {rep.diam}")
    _say(f"iso lower bound   {rep.iso_lb}")
    _say(f"lambda2           {rep.lambda2:.6f}")
    return 0


def _teleport_schedule(g: ArchGraph, pi: Permutation) -> Schedule:
    # the schedulers are resolved in this module at call time, so a
    # tracer that patches the names cli calls (perfbench/spans.py) sees
    # them
    return teleport_schedule(g, pi, ladder=ladder_schedule,
                             greedy=greedy_schedule)


_ROUTERS = {
    "swap": route_generic,
    "sparse": sparse_route,
    "teleport": _teleport_schedule,
}


def cmd_route(ns) -> int:
    g = _resolve_graph(ns)
    pi = _resolve_perm(ns, g)
    model = _resolve_model(ns)
    try:
        sched = _ROUTERS[ns.model](g, pi)
        ok = verify_schedule(g, sched, pi)
    except ScheduleError as e:
        _say(f"verification FAILED: {e}")
        return 1
    if not ok:
        _say("verification FAILED: schedule achieves a different permutation")
        return 1
    _say(f"model {ns.model}: {sched.num_timesteps()} timesteps, "
         f"depth {sched.depth(model)}, verified")
    _emit(ns, sched.to_json(graph=g))
    return 0


def _perm_label(ns) -> str:
    used = [f"{name}={getattr(ns, name)}"
            for name in ("alpha", "l", "s", "k", "seed")
            if getattr(ns, name, None) is not None]
    return ns.perm + (f"[{','.join(used)}]" if used else "")


def cmd_advantage(ns) -> int:
    if not ns.family:
        raise ValueError("--family is required for a sweep")
    if not ns.perm:
        raise ValueError("--perm is required for a sweep")
    size_flag = _SIZE_FLAG.get(ns.family, "n")
    sizes = ns.sizes or [getattr(ns, size_flag)]
    if sizes == [None]:
        raise ValueError(f"give sweep sizes (--sizes) or --{size_flag}")
    model = _resolve_model(ns)
    label = _perm_label(ns)
    rows = []
    for size in sizes:
        params = {size_flag: size}
        if ns.family == "grid" and ns.d is not None:
            params["d"] = ns.d
        if ns.budget is not None:
            g = generate_graph(ns.family, ancilla_budget=ns.budget, **params)
        else:
            g = generate_graph(ns.family, **params)
        pi = generate_permutation(ns.perm, g, **_perm_params(ns, ns.perm))
        swap_sched = route_generic(g, pi)
        tele_sched = _teleport_schedule(g, pi)
        if not (verify_schedule(g, swap_sched, pi)
                and verify_schedule(g, tele_sched, pi)):
            _say(f"verification FAILED on {ns.family} size {size}")
            return 1
        swap_depth = swap_sched.depth(model)
        tele_rounds = tele_sched.depth(model)
        ratio = (Fraction(swap_depth, tele_rounds) if tele_rounds
                 else Fraction(1))
        rep = bounds_report(g)
        rows.append([g.n, ns.family, label, swap_depth, tele_rounds,
                     str(ratio), rep.iso_lb, rep.diam])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "family", "perm", "swap_depth", "tele_rounds",
                     "ratio", "iso_lb", "diam"])
    writer.writerows(rows)
    _emit(ns, buf.getvalue().rstrip("\n"))
    for row in rows:
        _say("  ".join(f"{cell}" for cell in row))
    return 0


def cmd_verify(ns) -> int:
    with open(ns.graph, "r", encoding="utf-8") as f:
        g = graph_from_json(f.read())
    with open(ns.schedule, "r", encoding="utf-8") as f:
        sched = Schedule.from_json(f.read())
    with open(ns.perm, "r", encoding="utf-8") as f:
        pi = perm_from_json(f.read())
    if pi.n != g.n:
        raise ValueError(f"permutation is over {pi.n} vertices but the "
                         f"graph has {g.n}")
    if sched.graph_ref and sched.graph_ref != g.ref_hash():
        _say(f"MISMATCH: schedule targets graph {sched.graph_ref}, "
             f"got {g.ref_hash()}")
        return 1
    try:
        final = apply_schedule(g, sched)
        achieved = achieved_permutation(g, final)
    except ScheduleError as e:
        _say(f"FAILED: {e}")
        return 1
    if achieved.image != pi.image:
        bad = [v for v in range(g.n) if achieved.image[v] != pi.image[v]]
        v = bad[0]
        _say(f"FAILED: {len(bad)} tokens misplaced; first diff: token {v} "
             f"ends at {achieved.image[v]}, expected {pi.image[v]}")
        return 1
    _say(f"verified: {g.n} tokens, {sched.num_timesteps()} timesteps")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="teleroute",
        description="Route qubit permutations with swaps, ancilla trains, "
                    "and teleportation rounds.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="emit a connectivity graph")
    _add_graph_args(p)
    p.add_argument("--dot", action="store_true", help="DOT instead of JSON")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("bounds", help="expansion and routing lower bounds")
    _add_graph_args(p)
    p.add_argument("--no-exact", action="store_true",
                   help="allow interval bounds beyond the exact-size cap")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("route", help="synthesize and verify a schedule")
    p.add_argument("--model", required=True, choices=sorted(_ROUTERS),
                   help="routing model")
    _add_graph_args(p)
    _add_perm_args(p)
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("advantage",
                       help="sweep swap depth against teleportation rounds")
    _add_graph_args(p)
    p.add_argument("--sizes", type=int, nargs="+",
                   help="family size values to sweep")
    _add_perm_args(p)
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("verify", help="replay a schedule file")
    p.add_argument("schedule", help="schedule JSON file")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("perm", help="permutation JSON file")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns)
        return ns.func(ns)
    except (ValueError, KeyError) as e:
        _say(f"error: {e}")
        return 2
    except OSError as e:
        _say(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
