"""The token executor against a brute-force reference on random rounds.

The reference recomputes every vertex's load straight from the
definition (each path edge consumes one entangled pair, one half parked
at each of its two ends; a swap transfer needs a pair per direction)
and applies the round rules to a plain copy of the slots.  On random
small connected graphs, with tokens parked in random ancilla slots, an
optional round and several swap primitives sharing the timestep (some
on non-edges, out of range or clashing on a slot), the executor must
accept exactly the timesteps the reference accepts, report the first
fault the reference finds, and leave the same slots behind.

Timesteps of one kind only (local swaps, edge swaps, or nothing), which
the executor checks whole, are drawn valid and with one fault each: a
vertex or slot out of range, a slot or vertex used twice, a non-edge,
or an entry of type float, bool or ``np.int64``.  There the executor
must also match a frozen copy of the primitive-by-primitive swap path,
error text included.
"""

from operator import index
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import execute
from teleroute.execute import ScheduleError, TokenState, apply_timestep
from teleroute.graphs import ArchGraph
from teleroute.schedule import SwapEdge, SwapLocal, TeleRound, Transfer


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ArchGraph(n, tuple(edges), ancilla_budget=draw(st.integers(1, 12)))


@st.composite
def simple_paths(draw, g):
    """A self-avoiding walk along edges or, now and then, a simple
    vertex sequence that need not follow edges."""
    if draw(st.integers(0, 19)) == 0:
        return tuple(draw(st.permutations(range(g.n)))[
            :draw(st.integers(2, g.n))])
    path = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(1, min(2, g.n - 1)))):
        options = [w for w in g.neighbors(path[-1]) if w not in path]
        if not options:
            break
        path.append(draw(st.sampled_from(options)))
    if len(path) < 2:
        path.append(g.neighbors(path[0])[0])
    return tuple(path)


@st.composite
def swap_ops(draw, g):
    """A SwapEdge or SwapLocal, now and then malformed: an edge swap
    between any two vertices (often not an edge) or with a vertex out of
    range, a local swap with its vertex or a slot out of range."""
    n, budget = g.n, g.ancilla_budget
    mode = draw(st.integers(0, 9))
    if mode <= 3:
        return SwapEdge(*draw(st.sampled_from(g.edges)))
    if mode <= 5:
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        return SwapEdge(u, v)
    if mode == 6:
        u, v = draw(st.lists(st.integers(-1, n), min_size=2, max_size=2,
                             unique=True))
        return SwapEdge(u, v)
    if mode <= 8:
        s1, s2 = draw(st.lists(st.integers(0, budget), min_size=2,
                               max_size=2, unique=True))
        return SwapLocal(draw(st.integers(0, n - 1)), s1, s2)
    s1, s2 = draw(st.lists(st.integers(-1, budget + 1), min_size=2,
                           max_size=2, unique=True))
    return SwapLocal(draw(st.integers(-1, n)), s1, s2)


def reference_load(g: ArchGraph, transfers, v: int) -> int:
    load = 0
    for tr in transfers:
        pairs = 2 if tr.kind == "swap" else 1
        for a, b in zip(tr.path, tr.path[1:]):
            load += pairs * ((a == v) + (b == v))
    return load


def reference_fault(g: ArchGraph, op) -> str | None:
    """The first static fault of one primitive, as a phrase of the
    executor's message, or None."""
    n, budget = g.n, g.ancilla_budget
    if isinstance(op, SwapEdge):
        if not (0 <= op.u < n and 0 <= op.v < n):
            return "vertex out of range"
        if (min(op.u, op.v), max(op.u, op.v)) not in set(g.edges):
            return "no such edge"
    elif isinstance(op, SwapLocal):
        if not 0 <= op.v < n:
            return "vertex out of range"
        if not (0 <= op.s1 <= budget and 0 <= op.s2 <= budget):
            return "slot out of range"
    else:
        for tr in op.transfers:
            if any((min(a, b), max(a, b)) not in set(g.edges)
                   for a, b in zip(tr.path, tr.path[1:])):
                return "not an edge"
        if any(reference_load(g, op.transfers, v) > budget
               for v in range(n)):
            return "budget"
        return None
    # a float entry is refused (bools and numpy ints act as their ints)
    if float in map(type, _fields(op)):
        return "not an integer"
    return None


def _fields(op) -> tuple:
    if isinstance(op, SwapEdge):
        return op.u, op.v
    return op.v, op.s1, op.s2


def reference_cells(g: ArchGraph, op) -> set:
    """Every (vertex, slot) the primitive occupies: a round takes all
    slots of every vertex on its paths."""
    if isinstance(op, SwapEdge):
        return {(op.u, 0), (op.v, 0)}
    if isinstance(op, SwapLocal):
        return {(op.v, op.s1), (op.v, op.s2)}
    return {(v, s) for tr in op.transfers for v in tr.path
            for s in range(g.ancilla_budget + 1)}


@st.composite
def scenarios(draw):
    """A graph, slot contents, an optional round and up to four swap
    primitives, in a random timestep order.  On graphs this small the
    swaps often share endpoints with each other and with the round.  In
    half the scenarios a swap is kept only if it is well formed and
    clashes with no slot taken before it, so that valid timesteps with
    several swaps (local swaps on ancillas of a swapping vertex
    included) are common too; there, the round's paths are disjoint.
    The slots start canonical, then up to three data tokens move into
    random empty ancilla slots anywhere, so a vertex may hold several
    parked tokens and an empty data slot."""
    g = draw(graphs())
    slots = [[v] + [None] * g.ancilla_budget for v in range(g.n)]
    for v, w, s in draw(st.lists(st.tuples(
            st.integers(0, g.n - 1), st.integers(0, g.n - 1),
            st.integers(1, g.ancilla_budget)), max_size=3)):
        if slots[v][0] is not None and slots[w][s] is None:
            slots[w][s], slots[v][0] = slots[v][0], None
    clean = draw(st.booleans())
    ops = []
    rnd = None
    if draw(st.integers(0, 3)):
        transfers = []
        for _ in range(draw(st.integers(1, 4))):
            tr = Transfer(draw(simple_paths(g)),
                          draw(st.sampled_from(["move", "swap", "swap"])))
            if not (clean and {v for t in transfers for v in t.path}
                    & set(tr.path)):
                transfers.append(tr)
        rnd = TeleRound(tuple(transfers))
        ops.append(rnd)
    used = set().union(*(reference_cells(g, op) for op in ops))
    for _ in range(draw(st.integers(0, 4)) * (2 if clean else 1)):
        op = draw(swap_ops(g))
        if clean:
            cells = reference_cells(g, op)
            if reference_fault(g, op) is not None or cells & used:
                continue
            used |= cells
        ops.append(op)
    if not ops:
        ops.append(draw(swap_ops(g)))
    return g, slots, rnd, draw(st.permutations(ops))


def reference_timestep(g: ArchGraph, slots, ops):
    """(slots after the timestep, None) if the reference accepts the
    timestep, else (None, reason).  Primitives are checked in order,
    each against the graph and then against the cells of those before
    it; the reason is a phrase the executor's error must contain.  It is
    empty for the round rules after the claim check, whose order of
    reporting is free."""
    budget = g.ancilla_budget
    used = set()
    for op in ops:
        fault = reference_fault(g, op)
        if fault is not None:
            return None, fault
        cells = reference_cells(g, op)
        if cells & used:
            return None, "already used"
        used |= cells
    out = [row[:] for row in slots]
    for op in ops:
        if isinstance(op, SwapEdge):
            out[op.u][0], out[op.v][0] = out[op.v][0], out[op.u][0]
        elif isinstance(op, SwapLocal):
            row = out[op.v]
            row[op.s1], row[op.s2] = row[op.s2], row[op.s1]
    rounds = [op for op in ops if isinstance(op, TeleRound)]
    if not rounds:
        return out, None
    transfers = rounds[0].transfers
    for v in range(g.n):
        if reference_load(g, transfers, v) > sum(
                slots[v][s] is None for s in range(1, budget + 1)):
            return None, ""
    sends = [(tr.source, tr.dest) for tr in transfers]
    sends += [(tr.dest, tr.source) for tr in transfers if tr.kind == "swap"]
    senders = [a for a, _ in sends]
    receivers = [b for _, b in sends]
    if len(set(senders)) < len(senders) or len(set(receivers)) < len(receivers):
        return None, ""
    if any(slots[a][0] is None for a in senders):
        return None, ""
    if any(slots[b][0] is not None and b not in senders for b in receivers):
        return None, ""
    for a in senders:
        out[a][0] = None
    for a, b in sends:
        out[b][0] = slots[a][0]
    return out, None


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_executor_matches_reference(scenario):
    g, slots, rnd, ops = scenario
    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    expected, reason = reference_timestep(g, slots, ops)
    try:
        apply_timestep(g, state, ops, 1)
    except ScheduleError as e:
        assert reason is not None and reason in str(e)
    else:
        assert reason is None
        assert state.slots == expected
    if rnd is not None:
        for v in range(g.n):
            assert rnd.load(v) == reference_load(g, rnd.transfers, v)
            assert rnd.loads().get(v, 0) == reference_load(g, rnd.transfers, v)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_executor_rejects_a_round_that_loses_a_token(scenario):
    """With the round's first transfer dropping its token on arrival,
    every timestep with a round that the reference accepts must fail
    the conservation check, whatever swaps share it."""
    g, slots, rnd, ops = scenario
    real = execute._apply_tele_round

    def lossy(state, op, t, loads):
        real(state, op, t, loads)
        state.slots[op.transfers[0].dest][0] = None

    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    accepted = reference_timestep(g, slots, ops)[1] is None
    with patch.object(execute, "_apply_tele_round", lossy):
        if rnd is not None and accepted:
            with pytest.raises(ScheduleError,
                               match=r"^timestep 1: tokens not conserved$"):
                apply_timestep(g, state, ops, 1)
        elif not accepted:
            with pytest.raises(ScheduleError):
                apply_timestep(g, state, ops, 1)


# -- timesteps of one kind ---------------------------------------------------


def _fail(t, op, msg):
    raise ScheduleError(f"timestep {t}, {type(op).__name__} {op}: {msg}")


def frozen_swaps(g: ArchGraph, state: TokenState, ops, t: int):
    """``apply_timestep`` on a list of swaps by the primitive-by-primitive
    path, as it stood before lists of one kind were checked whole."""
    n, adj, budget = g.n, g._adj, g.ancilla_budget
    taken = {}
    written = []
    for op in ops:
        if type(op) is SwapEdge:
            u, v = op.u, op.v
            if u < 0 or v >= n:
                _fail(t, op, "vertex out of range")
            try:
                if v not in adj[u]:
                    _fail(t, op, "no such edge")
                index(v)
            except TypeError:
                _fail(t, op, "vertex is not an integer")
            claims = [(u, 0), (v, 0)]
        else:
            if not 0 <= op.v < n:
                _fail(t, op, "vertex out of range")
            if not (0 <= op.s1 <= budget and 0 <= op.s2 <= budget):
                _fail(t, op, "slot out of range")
            try:
                index(op.v), index(op.s1), index(op.s2)
            except TypeError:
                _fail(t, op, "vertex or slot is not an integer")
            claims = [(op.v, op.s1), (op.v, op.s2)]
        for claim in claims:
            other = taken.get(claim)
            if other is not None:
                _fail(t, op, f"slot {claim} already used by "
                             f"{type(other).__name__} in this timestep")
            taken[claim] = op
        written += claims
    slots = state.slots
    before = sorted(tok for v, s in written
                    if (tok := slots[v][s]) is not None)
    for op in ops:
        if type(op) is SwapEdge:
            slots[op.u][0], slots[op.v][0] = slots[op.v][0], slots[op.u][0]
        else:
            row = slots[op.v]
            row[op.s1], row[op.s2] = row[op.s2], row[op.s1]
    after = sorted(tok for v, s in written
                   if (tok := slots[v][s]) is not None)
    if before != after:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


KIND_FAULTS = {
    "local": [None, "vertex range", "slot range", "twice", float, bool,
              np.int64],
    "edge": [None, "vertex range", "twice", "non-edge", float, bool,
             np.int64],
    "empty": [None],
}


@st.composite
def one_kind_steps(draw):
    """A graph, slot contents and a timestep of local swaps only, edge
    swaps only, or nothing.  The swaps are drawn valid and disjoint;
    then at most one fault goes in: a swap with a vertex or slot out of
    range or on a non-edge, a copy of a swap or a local swap sharing one
    slot with another, or one entry of a swap retyped (1 as ``1.0``,
    ``True`` or ``np.int64(1)``, which leaves every check but the
    integer check as it was)."""
    g, slots, _, _ = draw(scenarios())
    n, budget = g.n, g.ancilla_budget
    kind = draw(st.sampled_from(["local", "local", "edge", "edge", "empty"]))
    ops, used = [], set()
    for _ in range(draw(st.integers(1, 6)) if kind != "empty" else 0):
        if kind == "local":
            s1, s2 = draw(st.lists(st.integers(0, budget), min_size=2,
                                   max_size=2, unique=True))
            op = SwapLocal(draw(st.integers(0, n - 1)), s1, s2)
        else:
            op = SwapEdge(*draw(st.sampled_from(g.edges)))
        if not reference_cells(g, op) & used:
            used |= reference_cells(g, op)
            ops.append(op)
    fault = draw(st.sampled_from(KIND_FAULTS[kind]))
    if fault == "vertex range":
        bad = draw(st.sampled_from([-1, n]))
        if kind == "local":
            ops.append(SwapLocal(bad, 0, 1))
        else:
            ops.append(SwapEdge(bad, draw(st.integers(0, n - 1))))
    elif fault == "slot range":
        ops.append(SwapLocal(draw(st.integers(0, n - 1)),
                             draw(st.sampled_from([-1, budget + 1])),
                             draw(st.integers(0, budget))))
    elif fault == "twice":
        op = draw(st.sampled_from(ops))
        if kind == "local" and budget >= 2 and draw(st.booleans()):
            other = draw(st.sampled_from(
                [s for s in range(budget + 1) if s not in (op.s1, op.s2)]))
            op = SwapLocal(op.v, draw(st.sampled_from([op.s1, op.s2])), other)
        ops.append(op)
    elif fault == "non-edge":
        missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                   if b not in g.neighbors(a)]
        if missing:
            ops.append(SwapEdge(*draw(st.sampled_from(missing))))
    elif fault is not None:
        i = draw(st.integers(0, len(ops) - 1))
        fields = list(_fields(ops[i]))
        j = draw(st.integers(0, len(fields) - 1))
        if fault is not bool or fields[j] in (0, 1):
            fields[j] = fault(fields[j])
            ops[i] = type(ops[i])(*fields)
    return g, slots, draw(st.permutations(ops))


def _outcome(apply, g, slots, ops):
    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    try:
        apply(g, state, ops, 3)
    except ScheduleError as e:
        return str(e)
    return state.slots


@settings(max_examples=400, deadline=None)
@given(one_kind_steps())
def test_one_kind_timesteps_match_reference(step):
    g, slots, ops = step
    got = _outcome(apply_timestep, g, slots, ops)
    assert got == _outcome(frozen_swaps, g, slots, ops)
    expected, reason = reference_timestep(g, slots, ops)
    if reason is None:
        assert got == expected
    else:
        assert isinstance(got, str) and reason in got
