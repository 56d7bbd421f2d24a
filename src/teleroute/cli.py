"""Command-line driver for graphs, bounds, routing, and advantage sweeps.

Subcommands: ``graph`` emits a connectivity graph as JSON or DOT;
``bounds`` reports expansion, spectral figures, and routing-time lower
bounds; ``route`` synthesizes a schedule under a chosen model and
verifies it before printing; ``advantage`` sweeps a graph family and
tabulates the swap-vs-teleport record of ``tele_routing.advantage``
after verifying both of its schedules; ``verify`` replays a schedule
file against a graph and permutation.

Family and permutation kinds, the parameters each one reads and a
sweep's size flag come from ``graphs.FAMILY_PARAMS`` and
``PERMUTATION_PARAMS``; the flags are declared by hand in
``_add_graph_args`` and ``_add_perm_args``, and a test checks that
they cover both tables.

Machine output (JSON/CSV) goes to stdout and human tables to stderr, so
pipelines stay clean.  Exit codes: 0 success, 1 verification failure,
2 usage or capacity error.  Every command is deterministic given its
full flag set; anything randomized requires --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bounds import EXACT_EXPANSION_MAX_N, bounds_report
from .execute import (
    ScheduleError,
    achieved_permutation,
    apply_schedule,
    verify_schedule,
)
from .graphs import (
    FAMILY_PARAMS,
    PERMUTATION_PARAMS,
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
from .tele_routing import (
    advantage,
    greedy_schedule,
    ladder_schedule,
    teleport_schedule,
)

__all__ = ["main"]

# every flag that sets a graph family's parameter
_GRAPH_PARAMS = sorted({p for names in FAMILY_PARAMS.values() for p in names})


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_graph_args(p: argparse.ArgumentParser, graph_file: bool = True):
    p.add_argument("--family", choices=sorted(FAMILY_PARAMS),
                   help="graph family to generate")
    p.add_argument("--n", type=int, help="size parameter n")
    p.add_argument("--d", type=int, help="dimension parameter d")
    p.add_argument("--r", type=int, help="rank parameter r")
    p.add_argument("--budget", type=int, help="ancilla slots per vertex")
    if graph_file:
        p.add_argument("--graph-file", metavar="FILE",
                       help="load the graph from a JSON file instead")


def _add_perm_args(p: argparse.ArgumentParser, perm_file: bool = True):
    p.add_argument("--perm", choices=list(PERMUTATION_PARAMS),
                   help="permutation workload")
    p.add_argument("--alpha", type=float, help="rainbow density exponent")
    p.add_argument("--l", type=int, help="wheel segment count")
    p.add_argument("--s", type=int, help="cyclic shift distance")
    p.add_argument("--k", type=int, help="random support size")
    p.add_argument("--seed", type=int, help="seed for randomized choices")
    if perm_file:
        p.add_argument("--perm-file", metavar="FILE",
                       help="load the permutation from a JSON file instead")


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--cost-swap", type=int,
                   help="depth charged per swap layer, at least 1 (default "
                        f"{DepthModel.swap_edge})")
    p.add_argument("--cost-local", type=int,
                   help="depth charged per local-slot swap, at least 0 "
                        f"(default {DepthModel.swap_local})")
    p.add_argument("--cost-round", type=int,
                   help="depth charged per teleportation round, at least 1 "
                        f"(default {DepthModel.tele_round})")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE",
                   help="JSON file whose keys mirror the long flags; "
                        "explicit flags win")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write machine output here instead of stdout")
    # called last, so this sees every flag of the subcommand
    p.set_defaults(config_flags={a.dest: a for a in p._actions
                                 if a.option_strings and a.dest != "help"})


# flag type -> (one value, several values, JSON types accepted)
_CONFIG_TYPES = {
    int: ("an integer", "integers", (int,)),
    float: ("a number", "numbers", (int, float)),
    None: ("a string", "strings", (str,)),
}


def _config_mismatch(action: argparse.Action, value) -> str | None:
    """None if a config ``value`` suits the flag of ``action``, else
    what the value must be."""
    if action.choices is not None:
        if isinstance(value, str) and value in action.choices:
            return None
        return "one of " + ", ".join(action.choices)
    if action.nargs == 0:  # store_true
        return None if type(value) is bool else "true or false"
    one, many, types = _CONFIG_TYPES[action.type]
    if action.nargs == "+":
        if (isinstance(value, list) and value
                and all(type(v) in types for v in value)):
            return None
        return f"a non-empty list of {many}"
    return None if type(value) in types else one


def _merge_config(ns: argparse.Namespace):
    if not getattr(ns, "config", None):
        return
    with open(ns.config, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in doc.items():
        action = ns.config_flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} matches no flag")
        what = _config_mismatch(action, value)
        if what is not None:
            raise ValueError(f"config key {key!r} must be {what}, "
                             f"got {json.dumps(value)}")
        if getattr(ns, action.dest) == action.default:
            setattr(ns, action.dest, value)


def _family_graph(ns, size: int | None = None) -> ArchGraph:
    """The ``--family`` graph from the parameter flags given; ``size``,
    when given, stands in for the family's size flag."""
    params = {k: getattr(ns, k) for k in _GRAPH_PARAMS
              if getattr(ns, k) is not None}
    if size is not None:
        params[FAMILY_PARAMS[ns.family][0]] = size
    if ns.budget is not None:
        params["ancilla_budget"] = ns.budget
    return generate_graph(ns.family, **params)


def _resolve_graph(ns) -> ArchGraph:
    if getattr(ns, "graph_file", None):
        with open(ns.graph_file, "r", encoding="utf-8") as f:
            return graph_from_json(f.read())
    if not ns.family:
        raise ValueError("either --family or --graph-file is required")
    return _family_graph(ns)


def _perm_params(ns) -> dict:
    """The flags given among the ``--perm`` kind's parameters;
    generate_permutation reports any it requires that are missing."""
    return {k: getattr(ns, k) for k in PERMUTATION_PARAMS[ns.perm]
            if getattr(ns, k) is not None}


def _resolve_perm(ns, g: ArchGraph) -> Permutation:
    if getattr(ns, "perm_file", None):
        with open(ns.perm_file, "r", encoding="utf-8") as f:
            return perm_from_json(f.read())
    if not ns.perm:
        raise ValueError("either --perm or --perm-file is required")
    return generate_permutation(ns.perm, g, **_perm_params(ns))


_COST_FLAGS = {"cost_swap": "swap_edge", "cost_local": "swap_local",
               "cost_round": "tele_round"}


def _resolve_model(ns) -> DepthModel:
    costs = {}
    for flag, field in _COST_FLAGS.items():
        if getattr(ns, flag) is not None:
            costs[field] = getattr(ns, flag)
            try:  # checked one flag at a time, so the error can name it
                DepthModel(**costs)
            except ValueError as e:
                raise ValueError(f"--{flag.replace('_', '-')}: {e}") from None
    return DepthModel(**costs)


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
    _emit(ns, json.dumps(rep.to_dict(), sort_keys=True))
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


def _check(g: ArchGraph, sched: Schedule, pi: Permutation, what: str):
    """Raise ScheduleError, naming ``what``, unless ``sched`` routes
    ``pi`` on ``g``; :func:`main` reports it as a verification failure."""
    try:
        ok = verify_schedule(g, sched, pi)
    except ScheduleError as e:
        raise ScheduleError(f"{what}: {e}") from None
    if not ok:
        raise ScheduleError(f"{what}: schedule achieves a different "
                            f"permutation")


def cmd_route(ns) -> int:
    g = _resolve_graph(ns)
    pi = _resolve_perm(ns, g)
    model = _resolve_model(ns)
    sched = _ROUTERS[ns.model](g, pi)
    _check(g, sched, pi, f"{ns.model} schedule")
    _say(f"model {ns.model}: {sched.num_timesteps()} timesteps, "
         f"depth {sched.depth(model)}, verified")
    _emit(ns, sched.to_json(graph=g))
    return 0


def _perm_label(ns) -> str:
    used = [f"{k}={v}" for k, v in sorted(_perm_params(ns).items())]
    return ns.perm + (f"[{','.join(used)}]" if used else "")


def cmd_advantage(ns) -> int:
    if not ns.family:
        raise ValueError("--family is required for a sweep")
    if not ns.perm:
        raise ValueError("--perm is required for a sweep")
    size_flag = FAMILY_PARAMS[ns.family][0]
    sizes = ns.sizes or [getattr(ns, size_flag)]
    if sizes == [None]:
        raise ValueError(f"give sweep sizes (--sizes) or --{size_flag}")
    model = _resolve_model(ns)
    label = _perm_label(ns)
    rows = []
    for size in sizes:
        g = _family_graph(ns, size)
        pi = generate_permutation(ns.perm, g, **_perm_params(ns))
        adv = advantage(g, pi, model)
        where = f"schedule on {ns.family} size {size}"
        _check(g, adv.swap, pi, f"swap {where}")
        _check(g, adv.teleport, pi, f"teleport {where}")
        rep = bounds_report(g)
        rows.append([g.n, ns.family, label, adv.swap_depth, adv.tele_depth,
                     str(adv.ratio), rep.iso_lb, rep.diam])
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
    if sched.graph_ref is not None:
        got = g.ref_hash()
        if sched.graph_ref != got:
            _say(f"MISMATCH: schedule targets graph {sched.graph_ref}, "
                 f"got {got}")
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``teleroute`` parser, built once per process: parsing keeps
    no state in it, and :func:`_merge_config` writes only the namespace
    (the shared ``config_flags`` table is only read)."""
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
    _add_graph_args(p, graph_file=False)
    p.add_argument("--sizes", type=int, nargs="+",
                   help="family size values to sweep")
    _add_perm_args(p, perm_file=False)
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
    except ScheduleError as e:
        _say(f"verification FAILED: {e}")
        return 1
    except (ValueError, KeyError, OSError) as e:
        _say(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
