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
"""

from unittest.mock import patch

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
