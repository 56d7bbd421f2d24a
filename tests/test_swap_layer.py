"""A swap-only timestep as a ``SwapLayer`` against the same timestep as
a list of ``SwapEdge`` objects.

The executor, the depth, the canonical JSON and the circuit compiler
read a layer's endpoint lists directly, so on random small graphs each
must give what the object form gives: the same slots or the same
``ScheduleError`` text (non-edges, out-of-range vertices and shared
endpoints included), the same depth under any model, the same JSON
bytes and the same circuit.  ``from_json`` turns a timestep of
well-formed edge swaps into a layer and anything else into objects,
with the errors ``op_from_dict`` gives.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute.execute import ScheduleError, TokenState, apply_timestep
from teleroute.graphs import ArchGraph
from teleroute.schedule import (
    DepthModel,
    Schedule,
    SwapEdge,
    SwapLayer,
    SwapLocal,
    op_from_dict,
)
from teleroute.teleport_circuit import emit_circuit


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ArchGraph(n, tuple(edges), ancilla_budget=draw(st.integers(0, 2)))


@st.composite
def layers(draw, g, clean=None):
    """Up to five swaps: edges, often, and otherwise any two distinct
    vertices or a vertex out of range; endpoints are drawn in either
    order.  A clean layer keeps only edges sharing no endpoint."""
    if clean is None:
        clean = draw(st.booleans())
    us, vs, used = [], [], set()
    for _ in range(draw(st.integers(0, 5))):
        mode = draw(st.integers(0, 5 if not clean else 0))
        if mode == 0 or clean:
            u, v = draw(st.sampled_from(g.edges))
        else:
            lo = -1 if mode == 5 else 0
            hi = g.n if mode == 5 else g.n - 1
            u, v = draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2,
                                 unique=True))
        if clean and {u, v} & used:
            continue
        used |= {u, v}
        if draw(st.booleans()):
            u, v = v, u
        us.append(u)
        vs.append(v)
    return SwapLayer(us, vs)


@st.composite
def states(draw, g):
    """Slot contents: canonical, then up to three data tokens parked in
    random empty ancilla slots, leaving their data slots empty."""
    slots = [[v] + [None] * g.ancilla_budget for v in range(g.n)]
    if g.ancilla_budget:
        for v, w, s in draw(st.lists(st.tuples(
                st.integers(0, g.n - 1), st.integers(0, g.n - 1),
                st.integers(1, g.ancilla_budget)), max_size=3)):
            if slots[v][0] is not None and slots[w][s] is None:
                slots[w][s], slots[v][0] = slots[v][0], None
    return slots


def outcome(g, slots, step):
    state = TokenState(g)
    state.slots = [row[:] for row in slots]
    try:
        apply_timestep(g, state, step, 3)
    except ScheduleError as e:
        return str(e), state.slots
    return None, state.slots


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_layer_applies_like_its_objects(data):
    g = data.draw(graphs())
    slots = data.draw(states(g))
    layer = data.draw(layers(g))
    error, after = outcome(g, slots, layer)
    assert (error, after) == outcome(g, slots, list(layer))
    if error is not None:
        assert after == slots   # nothing moved before the check failed


@pytest.mark.parametrize("us, vs, phrase", [
    ([0], [2], "SwapEdge SwapEdge(u=0, v=2): no such edge"),
    ([3], [-1], "SwapEdge SwapEdge(u=-1, v=3): vertex out of range"),
    # vertex -1 would index vertex 2's neighbours, (1,), from the end
    ([-1], [1], "SwapEdge SwapEdge(u=-1, v=1): vertex out of range"),
    ([0, 1], [1, 2], "SwapEdge SwapEdge(u=1, v=2): slot (1, 0) already "
                     "used by SwapEdge in this timestep"),
    ([2], [3], "SwapEdge SwapEdge(u=2, v=3): vertex out of range"),
])
def test_layer_errors_name_the_first_bad_swap(us, vs, phrase):
    g = ArchGraph(3, ((0, 1), (1, 2)))
    error, _ = outcome(g, [[v, None] for v in range(3)], SwapLayer(us, vs))
    assert error == f"timestep 3, {phrase}"


def test_layer_normalises_and_yields_swap_edges():
    layer = SwapLayer((4, 1), [2, 7])
    assert (layer.us, layer.vs) == ([2, 1], [4, 7])
    assert list(layer) == [SwapEdge(2, 4), SwapEdge(1, 7)]
    assert len(layer) == 2 and not SwapLayer([], [])
    assert layer == SwapLayer([2, 1], [4, 7]) != SwapLayer([1, 2], [7, 4])
    with pytest.raises(ValueError, match="^swap_edge endpoints must differ$"):
        SwapLayer([1, 3], [2, 3])
    with pytest.raises(ValueError, match="differ in length"):
        SwapLayer([1], [])


MODELS = (DepthModel(), DepthModel(1, 1, 3),
          DepthModel(swap_edge=5, swap_local=2, tele_round=7))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layer_depth_and_json_match_objects(data):
    g = data.draw(graphs())
    steps = data.draw(st.lists(layers(g), max_size=4))
    as_layers = Schedule(steps)
    as_objects = Schedule([list(step) for step in steps])
    for model in MODELS:
        assert as_layers.depth(model) == as_objects.depth(model)
    text = as_layers.to_json(graph=g)
    assert text == as_objects.to_json(graph=g)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True)
    for step in doc["timesteps"]:   # ops sorted by their canonical text
        texts = [json.dumps(d, sort_keys=True) for d in step]
        assert texts == sorted(texts)
    back = Schedule.from_json(text)
    assert back.to_json() == text
    # empty steps are dropped and each step's swaps come back in JSON
    # text order
    assert all(type(step) is SwapLayer for step in back.timesteps)
    assert [sorted(zip(step.us, step.vs)) for step in back.timesteps] == [
        sorted(zip(step.us, step.vs)) for step in steps if step]


@pytest.mark.parametrize("us, vs", [
    ([True, 2], [3, 4]),
    ([0, 2.0], [1, 3.5]),
    ([np.int64(0), -3], [np.int64(1), 7]),
])
def test_layer_json_of_odd_endpoints_matches_objects(us, vs):
    """Endpoints that are not exact ints format as the object form
    formats them, and a float endpoint is refused by both forms alike."""
    def written(step):
        try:
            return Schedule([step]).to_json()
        except ValueError as e:
            return f"ValueError: {e}"

    layer = SwapLayer(us, vs)
    assert written(layer) == written(list(layer))
    assert written(layer).startswith("ValueError") == (float in map(
        type, us + vs))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_layer_circuit_matches_objects(data):
    g = data.draw(graphs())
    steps = data.draw(st.lists(layers(g, clean=True), max_size=3))
    as_layers = emit_circuit(g, Schedule(steps))
    as_objects = emit_circuit(g, Schedule([list(step) for step in steps]))
    assert as_layers.to_json() == as_objects.to_json()


def test_mixed_json_step_stays_a_list():
    text = json.dumps({"timesteps": [[
        {"type": "swap_edge", "u": 0, "v": 1},
        {"type": "swap_local", "v": 2, "s1": 0, "s2": 1}]]})
    step, = Schedule.from_json(text).timesteps
    assert step == [SwapEdge(0, 1), SwapLocal(2, 0, 1)]


@pytest.mark.parametrize("bad", [
    {"type": "swap_edge", "u": 2, "v": 2},
    {"type": "swap_edge", "u": True, "v": 2},
    {"type": "swap_edge", "u": 1, "v": False},
    {"type": "swap_edge", "u": 1},
    {"type": "swap_edge", "v": 1.0, "u": 0},
    {"type": "swap_edge", "u": "0", "v": 1},
    {"type": "swap_dge", "u": 0, "v": 1},
    [0, 1],
])
@pytest.mark.parametrize("where", [0, 1])
def test_malformed_swap_edge_keeps_its_error(bad, where):
    with pytest.raises(ValueError) as expected:
        op_from_dict(bad)
    step = [{"type": "swap_edge", "u": 3, "v": 4}]
    step.insert(where, bad)
    with pytest.raises(ValueError) as got:
        Schedule.from_json(json.dumps({"timesteps": [step]}))
    assert str(got.value) == str(expected.value)
