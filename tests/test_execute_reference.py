"""The token executor against a brute-force reference on random rounds.

The reference recomputes every vertex's load straight from the
definition (each path edge consumes one entangled pair, one half parked
at each of its two ends; a swap transfer needs a pair per direction)
and applies the round rules to a plain copy of the slots.  On random
small connected graphs, with tokens parked in random ancilla slots and
an optional swap primitive sharing the timestep, the executor must
accept exactly the timesteps the reference accepts and leave the same
slots behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
def scenarios(draw):
    """A graph, slot contents, a round, an optional swap primitive and
    the timestep holding both, in either order.
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
    transfers = tuple(
        Transfer(draw(simple_paths(g)), draw(st.sampled_from(["move", "swap"])))
        for _ in range(draw(st.integers(1, 4))))
    extra = draw(st.one_of(
        st.none(), st.none(), st.none(),
        st.sampled_from(g.edges).map(lambda e: SwapEdge(*e)),
        st.tuples(st.integers(0, g.n - 1),
                  st.lists(st.integers(0, g.ancilla_budget), min_size=2,
                           max_size=2, unique=True)
                  ).map(lambda a: SwapLocal(a[0], *a[1]))))
    rnd = TeleRound(transfers)
    if extra is None:
        return g, slots, rnd, extra, [rnd]
    return g, slots, rnd, extra, draw(st.permutations([rnd, extra]))


def reference_load(g: ArchGraph, transfers, v: int) -> int:
    load = 0
    for tr in transfers:
        pairs = 2 if tr.kind == "swap" else 1
        for a, b in zip(tr.path, tr.path[1:]):
            load += pairs * ((a == v) + (b == v))
    return load


def reference_timestep(g: ArchGraph, slots, rnd: TeleRound, extra):
    """(slots after the timestep, None) if the reference accepts the
    round and ``extra`` together, else (None, reason).  The reason is a
    phrase the executor's error must contain; it is empty for the
    rules after the claim check, whose order of reporting is free."""
    budget = g.ancilla_budget
    transfers = rnd.transfers
    for tr in transfers:
        if any(not g.has_edge(a, b) for a, b in zip(tr.path, tr.path[1:])):
            return None, "not an edge"
    loads = [reference_load(g, transfers, v) for v in range(g.n)]
    if max(loads) > budget:
        return None, "budget"
    on_paths = {v for tr in transfers for v in tr.path}
    if isinstance(extra, SwapEdge) and {extra.u, extra.v} & on_paths:
        return None, "already used"
    if isinstance(extra, SwapLocal) and extra.v in on_paths:
        return None, "already used"
    for v in range(g.n):
        if loads[v] > sum(slots[v][s] is None for s in range(1, budget + 1)):
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
    out = [row[:] for row in slots]
    for a in senders:
        out[a][0] = None
    for a, b in sends:
        out[b][0] = slots[a][0]
    if isinstance(extra, SwapEdge):
        out[extra.u][0], out[extra.v][0] = out[extra.v][0], out[extra.u][0]
    elif isinstance(extra, SwapLocal):
        row = out[extra.v]
        row[extra.s1], row[extra.s2] = row[extra.s2], row[extra.s1]
    return out, None


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_executor_matches_reference(scenario):
    g, slots, rnd, extra, ops = scenario
    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    expected, reason = reference_timestep(g, slots, rnd, extra)
    try:
        apply_timestep(g, state, ops, 1)
    except ScheduleError as e:
        assert reason is not None and reason in str(e)
    else:
        assert reason is None
        assert state.slots == expected
    for v in range(g.n):
        assert rnd.load(v) == reference_load(g, rnd.transfers, v)
        assert rnd.loads().get(v, 0) == reference_load(g, rnd.transfers, v)
