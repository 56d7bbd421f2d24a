"""The whole-schedule array check of swap-only schedules against the
timestep-by-timestep loop.

``apply_schedule`` checks and applies a schedule of ``SwapLayer``
timesteps only as arrays, and replays it one timestep at a time when a
check fails.  On random small connected graphs, multi-layer schedules
of disjoint edge swaps (some layers empty) are drawn clean or with one
fault at a random timestep: a non-edge, a vertex out of range, a vertex
shared within a layer, a duplicate pair, or a bool, float or
``np.int64`` endpoint.  ``apply_schedule`` must give the same final
slots as ``apply_timestep`` in a loop, or raise the same
``ScheduleError`` text; and a clean schedule must pass the array check
itself, so the comparison is not with the loop against itself.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleroute.execute import (
    ScheduleError,
    TokenState,
    _apply_layers,
    apply_schedule,
    apply_timestep,
)
from teleroute.graphs import ArchGraph
from teleroute.schedule import Schedule, SwapLayer

FAULTS = ("non-edge", "out of range", "shared vertex", "duplicate pair",
          "bool", "float", "np.int64")


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ArchGraph(n, tuple(sorted(edges)))


@st.composite
def layer_pairs(draw, g):
    """A layer's swaps as (u, v) pairs: a random matching of g, drawn
    greedily from shuffled edges, or nothing."""
    if draw(st.integers(0, 5)) == 0:
        return []
    pairs, used = [], set()
    for u, v in draw(st.permutations(g.edges)):
        if u not in used and v not in used and draw(st.booleans()):
            pairs.append((u, v))
            used |= {u, v}
    return pairs


@st.composite
def faulty(draw, g, pairs):
    """``pairs`` with one fault of a drawn kind; the endpoints may end
    in either order, as a hand-built layer could hold them."""
    kind = draw(st.sampled_from(FAULTS))
    pairs = list(pairs)
    n = g.n
    if kind == "non-edge":
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if v not in g.neighbors(u)]
        if non_edges:
            pairs.append(draw(st.sampled_from(non_edges)))
            return pairs
        kind = "out of range"   # a complete graph has no non-edge
    if kind == "out of range":
        # u*n + v past n can be the key of an edge: (a - 1, n + b) reads
        # as edge (a, b), so only the range check stops it
        aliased = [(a - 1, n + b) for a, b in g.edges if a]
        if aliased and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(aliased)))
        else:
            bad = draw(st.one_of(st.integers(-2 * n, -1),
                                 st.integers(n, 3 * n)))
            pairs.append((bad, draw(st.integers(0, n - 1))))
    elif kind in ("shared vertex", "duplicate pair"):
        if not pairs:
            pairs.append(draw(st.sampled_from(g.edges)))
        u, v = draw(st.sampled_from(pairs))
        if kind == "duplicate pair":
            pairs.append((u, v))
        else:
            w = draw(st.sampled_from(g.neighbors(u)))
            pairs.append((u, w))
    else:
        # an edge at vertex 0 or 1 (so a bool can stand for the vertex),
        # alone on its two vertices
        a = draw(st.sampled_from([0, 1]))
        b = draw(st.sampled_from(g.neighbors(a)))
        pairs = [p for p in pairs if not {a, b} & set(p)]
        if kind == "bool":
            a = bool(a)
        elif kind == "float":
            a = float(a)
        else:
            a = np.int64(a)
        pairs.insert(draw(st.integers(0, len(pairs))), (a, b))
    return pairs


@st.composite
def schedules(draw):
    g = draw(graphs())
    steps = draw(st.lists(layer_pairs(g), max_size=6))
    clean = not steps or draw(st.integers(0, 3)) == 3
    if not clean:
        t = draw(st.integers(0, len(steps) - 1))
        steps[t] = draw(faulty(g, steps[t]))
    layers = [SwapLayer([p[0] for p in pairs], [p[1] for p in pairs])
              for pairs in steps]
    return g, Schedule(layers), clean


def loop_outcome(g, sched):
    state = TokenState(g)
    try:
        for t, step in enumerate(sched.timesteps):
            apply_timestep(g, state, step, t)
    except ScheduleError as e:
        return str(e)
    return state.slots


def lib_outcome(g, sched):
    try:
        return apply_schedule(g, sched).slots
    except ScheduleError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(schedules())
@example((ArchGraph(3, ((0, 1), (1, 2))), Schedule([]), True))
@example((ArchGraph(3, ((0, 1), (1, 2))),
          Schedule([SwapLayer([], []), SwapLayer([0], [1]),
                    SwapLayer([], [])]), True))
@example((ArchGraph(4, ((0, 1), (1, 2), (2, 3))),
          Schedule([SwapLayer([0, 2], [1, 3]), SwapLayer([1, 1], [2, 2])]),
          False))
@example((ArchGraph(4, ((0, 1), (1, 2), (2, 3))),
          Schedule([SwapLayer([2], [3]), SwapLayer([0], [6])]), False))
@example((ArchGraph(4, ((0, 1), (1, 2), (2, 3))),
          Schedule([SwapLayer([0], [1]), SwapLayer([0, 2], [1, 3.0])]),
          False))
@example((ArchGraph(4, ((0, 1), (1, 2), (2, 3))),
          Schedule([SwapLayer([1], [2]), SwapLayer([0], [2])]), False))
@example((ArchGraph(4, ((0, 1), (1, 2), (2, 3))),
          Schedule([SwapLayer([np.int64(0), True], [1, np.int64(2)])]), False))
def test_array_check_matches_timestep_loop(case):
    g, sched, clean = case
    expected = loop_outcome(g, sched)
    assert lib_outcome(g, sched) == expected
    if clean:
        assert not isinstance(expected, str)
        assert _apply_layers(g, sched.timesteps).slots == expected
