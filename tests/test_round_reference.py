"""A teleportation round alone in its timestep against a frozen copy of
the primitive-by-primitive round path.

The executor checks a timestep that holds one round whole, with
builtins over its paths, and falls back to the per-vertex path when a
check fails.  The frozen copy below is that per-vertex path as it stood
before the whole-round check existed: static checks one path vertex at
a time, loads summed from ``Transfer.halves``, free ancillas counted
row by row, then the transfer rules and the conservation check.  On
random small graphs, with tokens parked in ancillas up to and past the
budget boundary, the executor must leave the same slots or raise the
same ``ScheduleError`` text as the frozen copy, whether the round's
paths overlap or not, whatever mix of moves and swaps it holds, with
vertices -1 and n, steps off the edges, overloaded vertices, empty
sources, occupied destinations, two sends from one source and swap
destinations that also send.

Verifying greedy teleport schedules must never check a round through
the per-vertex ``_check_op``, nor verifying a sparse schedule any of its
local swaps: guard tests count its calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import execute
from teleroute.execute import (
    ScheduleError,
    TokenState,
    apply_timestep,
    verify_schedule,
)
from teleroute.graphs import ArchGraph, generate_graph, generate_permutation
from teleroute.schedule import SwapEdge, SwapLocal, TeleRound, Transfer
from teleroute.sparse_routing import sparse_route
from teleroute.tele_routing import greedy_schedule

# -- the frozen round path ---------------------------------------------------


def _fail(t, op, msg):
    raise ScheduleError(f"timestep {t}, {type(op).__name__} {op}: {msg}")


def frozen_loads(op):
    out = {}
    for tr in op.transfers:
        for v, h in tr.halves():
            out[v] = out.get(v, 0) + h
    return out


def frozen_apply_tele_round(state, op, t, loads):
    for v, need in loads.items():
        row = state.slots[v]
        free = row.count(None) - (row[0] is None)
        if free < need:
            _fail(t, op, f"vertex {v} needs {need} free ancilla slots "
                         f"for its pair halves but only {free} are empty")
    sources = {}
    for tr in op.transfers:
        if tr.source in sources:
            _fail(t, op, f"vertex {tr.source} is the source of two transfers")
        sources[tr.source] = tr
    for tr in op.transfers:
        if tr.kind == "swap" and tr.dest in sources:
            _fail(t, op, f"vertex {tr.dest} both swaps and sends")
    outgoing = {}
    for tr in op.transfers:
        tok = state.data(tr.source)
        if tok is None:
            _fail(t, op, f"transfer source {tr.source} holds no token")
        outgoing[tr.source] = tok
        if tr.kind == "swap":
            back = state.data(tr.dest)
            if back is None:
                _fail(t, op, f"swap endpoint {tr.dest} holds no token")
            outgoing[tr.dest] = back
    dests_written = set()
    for tr in op.transfers:
        if tr.kind == "swap":
            targets = [(tr.dest, tr.source), (tr.source, tr.dest)]
        else:
            targets = [(tr.dest, tr.source)]
        for dest, src in targets:
            if dest in dests_written:
                _fail(t, op, f"two transfers write vertex {dest}")
            if state.data(dest) is not None and dest not in outgoing:
                _fail(t, op, f"destination {dest} is occupied and sends nothing")
            dests_written.add(dest)
    for v in outgoing:
        state.slots[v][0] = None
    for tr in op.transfers:
        state.slots[tr.dest][0] = outgoing[tr.source]
        if tr.kind == "swap":
            state.slots[tr.source][0] = outgoing[tr.dest]


def frozen_lone_round(g, state, op, t):
    """``apply_timestep(g, state, [op], t)`` by the per-vertex path."""
    for tr in op.transfers:
        for v in tr.path:
            if not 0 <= v < g.n:
                _fail(t, op, f"vertex {v} out of range")
        for a, b in zip(tr.path, tr.path[1:]):
            if b not in g._adj[a]:
                _fail(t, op, f"path step ({a},{b}) is not an edge")
    loads = frozen_loads(op)
    for v, load in loads.items():
        if load > g.ancilla_budget:
            _fail(t, op, f"vertex {v} holds {load} pair halves, "
                         f"budget is {g.ancilla_budget}")
    written = list({(v, 0) for tr in op.transfers
                    for v in (tr.source, tr.dest)})
    slots = state.slots
    before = sorted(tok for v, s in written
                    if (tok := slots[v][s]) is not None)
    frozen_apply_tele_round(state, op, t, loads)
    after = sorted(tok for v, s in written
                   if (tok := slots[v][s]) is not None)
    if before != after:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


# -- scenarios ---------------------------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ArchGraph(n, tuple(edges), ancilla_budget=draw(st.integers(1, 8)))


@st.composite
def paths(draw, g, starts):
    """A self-avoiding walk along edges, in either direction, from or
    to a vertex some earlier transfer starts or ends at, now and then;
    or, now and then, distinct vertices from -1..n that need not follow
    edges."""
    if draw(st.integers(0, 7)) == 0:
        return tuple(draw(st.lists(st.integers(-1, g.n), min_size=2,
                                   max_size=4, unique=True)))
    if starts and draw(st.booleans()):
        path = [draw(st.sampled_from(starts))]
    else:
        path = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(1, 4))):
        options = [w for w in g.neighbors(path[-1]) if w not in path]
        if not options:
            break
        path.append(draw(st.sampled_from(options)))
    if len(path) < 2:
        path.append(g.neighbors(path[0])[0])
    return tuple(path[::-1] if draw(st.booleans()) else path)


def shortest_path(g, a, b):
    """A BFS path from a to b (the graphs drawn are connected)."""
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
def scenarios(draw):
    """A graph, one round and the slots it meets.  The round's paths
    are kept vertex-disjoint, or may share vertices, or route a chain or
    a cycle of two to four vertices by shortest paths, each transfer
    sending to the next one's source.  The slots start canonical; some data
    slots are emptied (move destinations, most often), and some path
    vertices get tokens parked in their ancillas so that their free
    slots sit one below, at or one above the round's load there."""
    g = draw(graphs())
    mode = draw(st.sampled_from(["disjoint", "overlap", "cycle"]))
    transfers, used = [], set()
    if mode == "cycle":
        ring = draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                             max_size=4, unique=True))
        if draw(st.booleans()):
            ring.append(ring[0])
        for a, b in zip(ring, ring[1:]):
            transfers.append(Transfer(
                shortest_path(g, a, b),
                draw(st.sampled_from(["move", "move", "swap"]))))
    for _ in range(draw(st.integers(1, 4)) if mode != "cycle" else 0):
        starts = sorted({v for tr in transfers for v in (tr.source, tr.dest)
                         if 0 <= v < g.n})
        path = draw(paths(g, [] if mode == "disjoint" else starts))
        if mode == "disjoint" and used & set(path):
            continue
        used |= set(path)
        transfers.append(Transfer(path, draw(st.sampled_from(["move",
                                                              "swap"]))))
    if not transfers:
        transfers.append(Transfer(g.edges[0]))
    rnd = TeleRound(tuple(transfers))
    budget = g.ancilla_budget
    slots = [[v] + [None] * budget for v in range(g.n)]
    empties = set(draw(st.lists(st.integers(0, g.n - 1), max_size=3)))
    if draw(st.integers(0, 3)):
        empties |= ({tr.dest for tr in transfers if tr.kind == "move"}
                    - {tr.source for tr in transfers})
    for v in empties:
        if 0 <= v < g.n:
            slots[v][0] = None
    loads = frozen_loads(rnd)
    parked = 100
    for v in draw(st.lists(st.sampled_from(sorted(loads)), max_size=3)):
        if not 0 <= v < g.n:
            continue
        free = budget - loads[v] + draw(st.integers(-1, 1))
        for s in range(1, budget + 1 - max(free, 0)):
            if slots[v][s] is None:
                slots[v][s] = parked
                parked += 1
    return g, slots, rnd


def outcome(run, g, slots, rnd):
    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    try:
        run(g, state, rnd)
    except (ScheduleError, TypeError) as e:
        return f"{type(e).__name__}: {e}", state.slots
    return None, state.slots


def executor(g, state, rnd):
    apply_timestep(g, state, [rnd], 4)


def frozen(g, state, rnd):
    frozen_lone_round(g, state, rnd, 4)


@settings(max_examples=600, deadline=None)
@given(scenarios())
def test_lone_round_matches_the_frozen_path(scenario):
    g, slots, rnd = scenario
    assert outcome(executor, g, slots, rnd) == outcome(frozen, g, slots, rnd)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_round_loads_sum_the_halves_in_path_order(scenario):
    _, _, rnd = scenario
    assert list(rnd.loads().items()) == list(frozen_loads(rnd).items())


# -- fixed cases -------------------------------------------------------------


def _path_slots(n, budget, parked_at=()):
    slots = [[v] + [None] * budget for v in range(n)]
    for v, k in parked_at:
        for s in range(1, k + 1):
            slots[v][s] = 100 + 10 * v + s
    return slots


@pytest.mark.parametrize("budget, transfers, empty, parked, phrase", [
    # a move 0 -> 3 parks 2 halves at 1 and 2; budget 2 holds them
    (2, [((0, 1, 2, 3), "move")], [3], [], None),
    # one parked token at vertex 1 leaves 1 free slot, 2 are needed
    (2, [((0, 1, 2, 3), "move")], [3], [(1, 1)], "vertex 1 needs 2 free"),
    # at an empty data slot every empty slot but one is an ancilla
    (2, [((0, 1), "move"), ((2, 3), "move")], [1, 3], [(1, 1)], None),
    (2, [((0, 1, 2), "swap")], [], [], "vertex 1 holds 4 pair halves"),
    (2, [((0, 1, 2), "move"), ((3, 2, 1), "move")], [], [],
     "vertex 1 holds 3 pair halves"),
    (2, [((0, 2), "move")], [2], [], "path step (0,2) is not an edge"),
    (2, [((3, 4), "move")], [], [], "vertex 4 out of range"),
    (2, [((0, -1), "move")], [], [], "vertex -1 out of range"),
    # a vertex that is not an integer is refused when the round is built
    (2, [((0, 1.5), "move")], [], [],
     "transfer path vertex 1.5 is not an integer"),
    (2, [((0, "1"), "move")], [], [],
     "transfer path vertex '1' is not an integer"),
    # vertex -1 would index vertex 3's neighbours, (2,), from the end
    (2, [((-1, 2), "move")], [2], [], "vertex -1 out of range"),
    (2, [((0, 1), "move")], [0, 1], [], "transfer source 0 holds no token"),
    (2, [((0, 1), "move")], [], [], "destination 1 is occupied"),
    (2, [((1, 0), "move"), ((1, 2), "move")], [0, 2], [],
     "vertex 1 is the source of two transfers"),
    (4, [((0, 1), "swap"), ((1, 2), "move")], [2], [],
     "vertex 1 both swaps and sends"),
    (4, [((1, 0), "move"), ((2, 3), "swap"), ((3, 2), "move")], [0], [],
     "vertex 3 both swaps and sends"),
    (4, [((0, 1), "move"), ((2, 1), "move")], [1], [],
     "two transfers write vertex 1"),
    (4, [((0, 1, 2), "swap")], [2], [], "swap endpoint 2 holds no token"),
    # a move into a swap's source, in either order
    (4, [((0, 1), "move"), ((1, 2), "swap")], [], [],
     "two transfers write vertex 1"),
    (4, [((1, 2), "swap"), ((0, 1), "move")], [], [],
     "two transfers write vertex 1"),
    # a cycle of moves 0 -> 1 -> 2 -> 0 conserves its tokens
    (4, [((0, 1), "move"), ((1, 2), "move"), ((2, 1, 0), "move")], [], [],
     None),
])
def test_lone_round_cases(budget, transfers, empty, parked, phrase):
    g = ArchGraph(4, ((0, 1), (1, 2), (2, 3)), ancilla_budget=budget)
    slots = _path_slots(4, budget, parked)
    for v in empty:
        slots[v][0] = None
    try:
        rnd = TeleRound(tuple(Transfer(p, k) for p, k in transfers))
    except ValueError as e:
        assert str(e) == phrase
        return
    got = outcome(executor, g, slots, rnd)
    assert got == outcome(frozen, g, slots, rnd)
    if phrase is None:
        assert got[0] is None
    else:
        assert phrase in got[0]


# -- the guard ---------------------------------------------------------------


@pytest.fixture
def check_op_calls(monkeypatch):
    """The types of the ops that reach ``execute._check_op``, in order."""
    calls = []
    real = execute._check_op

    def counted(g, op, t):
        calls.append(type(op))
        return real(g, op, t)

    monkeypatch.setattr(execute, "_check_op", counted)
    return calls


@pytest.mark.parametrize("family, params, perm, locals_", [
    ("path", {"n": 64}, {"kind": "random", "seed": 1}, True),
    ("grid", {"n": 8, "d": 2}, {"kind": "reflection"}, False),
])
def test_greedy_rounds_never_reach_the_per_vertex_check(check_op_calls, family,
                                                        params, perm,
                                                        locals_):
    """Every round of these schedules is alone in its timestep and
    valid, so each must pass the whole-round check.  Path 64 random also
    parks tokens with local swaps, whose lists pass the whole check for
    local swaps.  One faulty local swap afterwards must reach
    ``_check_op``, which shows that the counter sees the executor's
    calls."""
    g = generate_graph(family, **params)
    pi = generate_permutation(g=g, **perm)
    sched = greedy_schedule(g, pi)
    assert verify_schedule(g, sched, pi)
    assert check_op_calls == []
    assert any(isinstance(op, TeleRound) for op in sched.ops())
    assert any(isinstance(op, SwapLocal) for op in sched.ops()) == locals_
    with pytest.raises(ScheduleError, match="vertex out of range"):
        apply_timestep(g, TokenState(g), [SwapLocal(g.n, 0, 1)])
    assert check_op_calls == [SwapLocal]


def test_sparse_schedules_never_reach_the_per_vertex_check(check_op_calls):
    """A bench-shaped sparse schedule (path 256, a random 32-cycle)
    holds only lists of local swaps, lists of edge swaps, layers and
    empty timesteps, all valid: none may be checked op by op, while
    routing or while verifying."""
    g = generate_graph("path", n=256)
    pi = generate_permutation("random", g, seed=1, k=32)
    sched = sparse_route(g, pi)
    assert verify_schedule(g, sched, pi)
    assert check_op_calls == []
    assert {type(op) for op in sched.ops()} == {SwapEdge, SwapLocal}
