"""The whole-schedule verifier against stepping ``apply_timestep``.

``apply_schedule`` checks a schedule of lone rounds, local swaps and
empty timesteps whole, if its rounds hold more than two path vertices
per graph vertex: every round's paths as one array, against each
vertex's occupied ancillas, which change only at local swaps.  Any
other schedule, and any that fails that check, is run timestep by
timestep through ``apply_timestep``.  Each case is run both by default
and with the arrays checking every such schedule, however few its path
vertices, and both must agree.  On random small graphs,
schedules are drawn timestep by timestep from the state they reach, so
that most of them run many steps before a fault, if any: local swaps
that park tokens in ancillas and fetch them back (some through a
``SwapLocal`` subclass, some in a tuple timestep, some with a slot past
the budget or a slot used twice), lone rounds that move a token into an
emptied vertex across parked ones, cycles of moves, swap transfers,
several transfers on disjoint or overlapping paths, paths through
vertices -1 and n or off the edges, and timesteps that mix a round or
an edge swap with local swaps.  ``apply_schedule``
must leave the same slots as ``apply_timestep`` stepped from a fresh
``TokenState``, or raise the same ``ScheduleError`` text.

Verifying chained greedy schedules must never count a slot row: a guard
records every ``_apply_tele_round`` call made while verifying, and none
may be handed loads to check against slot rows.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import execute
from teleroute.execute import (
    ScheduleError,
    TokenState,
    apply_schedule,
    apply_timestep,
    verify_schedule,
)
from teleroute.graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    generate_permutation,
)
from teleroute.schedule import (
    Schedule,
    SwapEdge,
    SwapLayer,
    SwapLocal,
    TeleRound,
    Transfer,
)
from teleroute.tele_routing import greedy_schedule


class Parking(SwapLocal):
    """A local swap by another type: its writes count as a SwapLocal's."""

    __slots__ = ()


# -- schedules ---------------------------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(3, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    budget = draw(st.sampled_from([1, 1, 2, 2, 2, 3, 4, 5]))
    return ArchGraph(n, tuple(edges), ancilla_budget=budget)


def shortest_path(g, a, b):
    prev, queue = {a: None}, [a]
    for v in queue:
        for w in g.neighbors(v):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(path[::-1])


@st.composite
def walk(draw, g):
    path = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(1, 4))):
        options = [w for w in g.neighbors(path[-1]) if w not in path]
        if not options:
            break
        path.append(draw(st.sampled_from(options)))
    if len(path) < 2:
        path.append(g.neighbors(path[0])[0])
    return tuple(path)


@st.composite
def parking(draw, g, state, clean, avoid=frozenset()):
    """Local swaps at distinct vertices, each a ``SwapLocal`` or a
    subclass: park a data token in an empty ancilla, or fetch a parked
    one back into an empty data slot.  Unless ``clean``, two slots at
    random instead, now and then one past the budget, now and then a
    slot used twice, and the vertices in ``avoid`` may be drawn."""
    ops, budget = [], g.ancilla_budget
    free = [v for v in range(g.n) if not clean or v not in avoid] or [0]
    for v in draw(st.lists(st.sampled_from(free), min_size=1, max_size=3,
                           unique=True)):
        row = state.slots[v]
        # the data slot and an ancilla that differs from it in emptiness
        other = [s for s in range(1, budget + 1)
                 if (row[s] is None) != (row[0] is None)]
        if other and (clean or draw(st.booleans())):
            s1, s2 = 0, draw(st.sampled_from(other))
        else:
            top = budget + (not clean and draw(st.integers(0, 4)) == 0)
            s1, s2 = draw(st.lists(st.integers(0, top), min_size=2,
                                   max_size=2, unique=True))
        ops.append(draw(st.sampled_from([SwapLocal, Parking]))(v, s1, s2))
    if not clean and draw(st.integers(0, 4)) == 0:
        ops.append(SwapLocal(ops[0].v, ops[0].s1, ops[0].s2))
    return ops


@st.composite
def lone_round(draw, g, state, clean):
    """One round.  Clean: a move into an emptied vertex by a shortest
    path, or a swap transfer across an edge.  Otherwise also a cycle of
    moves by shortest paths, a swap transfer by one, several walks,
    disjoint or not, or a path of vertices from -1..n that need not
    follow edges."""
    held = [v for v in range(g.n) if state.slots[v][0] is not None]
    empty = [v for v in range(g.n) if state.slots[v][0] is None]
    kinds = ["fill", "fill", "edge"]
    kind = draw(st.sampled_from(kinds if clean else kinds + [
        "cycle", "swap", "walks", "wild"]))
    if kind == "fill" and held and empty:
        a, b = draw(st.sampled_from(held)), draw(st.sampled_from(empty))
        return TeleRound((Transfer(shortest_path(g, a, b)),))
    if kind == "cycle" and len(held) >= 2:
        ring = draw(st.lists(st.sampled_from(held), min_size=2, max_size=3,
                             unique=True))
        return TeleRound(tuple(Transfer(shortest_path(g, a, b))
                               for a, b in zip(ring, ring[1:] + ring[:1])))
    if kind == "swap":
        a, b = draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                             max_size=2, unique=True))
        return TeleRound((Transfer(shortest_path(g, a, b), "swap"),))
    if kind == "wild":
        path = draw(st.lists(st.integers(-1, g.n), min_size=2, max_size=4,
                             unique=True))
        return TeleRound((Transfer(tuple(path)),))
    if kind == "walks":
        walks = draw(st.lists(walk(g), min_size=1, max_size=3))
        if draw(st.booleans()):   # keep them vertex-disjoint
            kept, used = [], set()
            for p in walks:
                if not used & set(p):
                    kept.append(p)
                    used |= set(p)
            walks = kept
        return TeleRound(tuple(
            Transfer(p, draw(st.sampled_from(["move", "swap"])))
            for p in walks))
    edges = [e for e in g.edges if set(e) <= set(held)] or g.edges
    return TeleRound((Transfer(draw(st.sampled_from(edges)), "swap"),))


@st.composite
def step(draw, g, state):
    """A timestep, clean four times in five: a lone round, local swaps,
    an edge swap (as a layer or a list) or nothing; or, faulty or not, a
    round or an edge swap sharing the timestep with local swaps."""
    clean = draw(st.integers(0, 4)) > 0
    kind = draw(st.sampled_from(["round", "round", "round", "park", "park",
                                 "mixed", "edges", "empty"]))
    if kind == "round" and clean and g.ancilla_budget == 1 and all(
            row[0] is not None for row in state.slots):
        kind = "park"   # only a move can fit, and nothing is empty
    if kind == "round":
        return [draw(lone_round(g, state, clean))]
    if kind == "park":   # as a list, or now and then a tuple
        ops = draw(parking(g, state, clean))
        return tuple(ops) if draw(st.integers(0, 4)) == 0 else ops
    if kind == "mixed":
        head = draw(st.one_of(lone_round(g, state, clean),
                              st.sampled_from(g.edges).map(
                                  lambda e: SwapEdge(*e))))
        used = (head.vertices() if type(head) is TeleRound
                else {head.u, head.v})
        return [head, *draw(parking(g, state, clean, used))]
    if kind == "edges":
        u, v = draw(st.sampled_from(g.edges))
        return SwapLayer([u], [v]) if draw(st.booleans()) else [SwapEdge(u, v)]
    return []


@st.composite
def schedules(draw):
    """A graph and a schedule drawn one timestep at a time from the
    state the steps so far reach; drawing ends after the first step that
    fails."""
    g = draw(graphs())
    state, steps = TokenState(g), []
    for t in range(draw(st.integers(2, 16))):
        steps.append(draw(step(g, state)))
        before = [row[:] for row in state.slots]
        try:
            apply_timestep(g, state, steps[-1], t)
        except ScheduleError:
            state.slots = before
            break
    return g, Schedule(steps)


def stepped(g, sched):
    state = TokenState(g)
    try:
        for t, step_ in enumerate(sched.timesteps):
            apply_timestep(g, state, step_, t)
    except ScheduleError as e:
        return str(e), None
    return None, state.slots


def whole(g, sched):
    """``apply_schedule``'s result, the same whether a schedule of lone
    rounds is stepped when its rounds hold few path vertices, as by
    default, or checked as arrays however few they hold."""
    def run():
        try:
            return None, apply_schedule(g, sched).slots
        except ScheduleError as e:
            return str(e), None

    got = run()
    with mock.patch.object(execute, "_ROUNDS_STEPPED_PER_VERTEX", 0):
        assert run() == got
    return got


@settings(max_examples=700, deadline=None)
@given(schedules())
def test_apply_schedule_matches_stepping(case):
    g, sched = case
    assert whole(g, sched) == stepped(g, sched)


def test_few_path_vertices_are_stepped_and_many_checked_as_arrays(
        monkeypatch):
    """The arrays check a schedule of lone rounds whose rounds hold more
    than two path vertices per graph vertex; a smaller one is stepped,
    with the same result.  On path 16, the swap of 0 and 1 is one round
    of 4 path vertices, reflection 7 rounds of 144."""
    batches = []
    real = execute._rounds_fit_as_arrays

    def counted(g, rounds):
        batches.append(len(rounds))
        return real(g, rounds)

    monkeypatch.setattr(execute, "_rounds_fit_as_arrays", counted)
    g = generate_graph("path", n=16)
    for pi, expected in ((Permutation.from_pairs(16, [(0, 1)]), []),
                         (generate_permutation("reflection", g), [7])):
        batches.clear()
        sched = greedy_schedule(g, pi)
        assert verify_schedule(g, sched, pi)
        assert batches == expected
        assert whole(g, sched) == stepped(g, sched)


# -- fixed cases -------------------------------------------------------------


P4 = ((0, 1), (1, 2), (2, 3))


@pytest.mark.parametrize("budget, local, phrase", [
    # the token parked at 1 leaves budget - 1 free ancillas there, and
    # the move 0 -> 2 parks 2 halves at 1
    (3, SwapLocal, None),
    (2, SwapLocal, "vertex 1 needs 2 free ancilla slots for its pair "
                   "halves but only 1 are empty"),
    (2, Parking, "vertex 1 needs 2 free ancilla slots for its pair "
                 "halves but only 1 are empty"),
])
def test_parked_tokens_count_against_later_rounds(budget, local, phrase):
    """The first round builds the counts before anything is parked, so
    only the update after the local swap can tell the last round that
    vertex 1 holds a parked token."""
    g = ArchGraph(4, ((0, 1), (1, 2), (2, 3)), ancilla_budget=budget)
    sched = Schedule([[TeleRound((Transfer((2, 3), "swap"),))],
                      [local(1, 0, 1)],
                      [TeleRound((Transfer((2, 1)),))],
                      [TeleRound((Transfer((0, 1, 2)),))]])
    got = whole(g, sched)
    assert got == stepped(g, sched)
    if phrase is None:
        assert got[0] is None
    else:
        assert got[0].startswith("timestep 3, TeleRound")
        assert got[0].endswith(phrase)


# -- the guard ---------------------------------------------------------------


@pytest.fixture
def row_counts(monkeypatch):
    """For each ``_apply_tele_round`` call, whether it was handed loads
    to check against free ancillas counted in slot rows."""
    calls = []
    real = execute._apply_tele_round

    def counted(state, op, t, loads):
        calls.append(bool(loads))
        return real(state, op, t, loads)

    monkeypatch.setattr(execute, "_apply_tele_round", counted)
    return calls


@pytest.mark.parametrize("budget", [2, 3, 6])
def test_chained_greedy_rounds_never_count_slot_rows(row_counts, budget):
    """Path 64 random chains its cycles, parking tokens with local swaps
    between rounds, and hypercube d=6 random packs one round before its
    chains.  At budget 2 a parked token leaves a vertex one free
    ancilla, so there the whole check must read the parked counts to
    pass the rounds.  Every round goes through ``_apply_tele_round``
    with no load map, its free ancillas checked whole.  A round stepped
    afterwards beside a local swap counts its slot rows, which shows
    that the guard sees the executor's calls."""
    for family, params in (("path", {"n": 64}), ("hypercube", {"d": 6})):
        g = generate_graph(family, ancilla_budget=budget, **params)
        pi = generate_permutation("random", g, seed=1)
        sched = greedy_schedule(g, pi)
        assert any(isinstance(op, SwapLocal) for op in sched.ops())
        row_counts.clear()
        assert verify_schedule(g, sched, pi)
        rounds = sum(isinstance(op, TeleRound) for op in sched.ops())
        assert row_counts == [False] * rounds
    assert rounds
    apply_timestep(g, TokenState(g), [TeleRound((Transfer((0, 1), "swap"),)),
                                      SwapLocal(5, 1, 2)])
    assert row_counts[-1] is True
