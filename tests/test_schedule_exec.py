"""Schedule serialization, cost models, and token-level execution."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import execute
from teleroute.execute import (
    ScheduleError,
    TokenState,
    achieved_permutation,
    apply_schedule,
    apply_timestep,
    verify_schedule,
)
from teleroute.graphs import Permutation, generate_graph
from teleroute.schedule import (
    DepthModel,
    Schedule,
    SwapEdge,
    SwapLayer,
    SwapLocal,
    TeleRound,
    Transfer,
    _op_json,
    op_from_dict,
    op_to_dict,
)


def test_op_normalization():
    assert SwapEdge(3, 1) == SwapEdge(1, 3)
    assert SwapLocal(0, 2, 1) == SwapLocal(0, 1, 2)
    with pytest.raises(ValueError):
        SwapEdge(2, 2)
    with pytest.raises(ValueError):
        SwapLocal(0, 1, 1)
    with pytest.raises(ValueError):
        Transfer((0,))
    with pytest.raises(ValueError):
        Transfer((0, 1, 0))
    with pytest.raises(ValueError):
        Transfer((0, 1), kind="flip")
    with pytest.raises(ValueError):
        TeleRound(())


def test_transfer_load():
    t = Transfer((0, 1, 2, 3))
    assert t.halves() == [(0, 1), (1, 2), (2, 2), (3, 1)]
    s = Transfer((0, 1, 2), kind="swap")
    assert s.halves() == [(0, 2), (1, 4), (2, 2)]
    rnd = TeleRound((Transfer((0, 1, 2)), Transfer((3, 1, 4))))
    assert rnd.load(1) == 4
    assert rnd.incidence(1) == 2 and rnd.incidence(0) == 1


def test_depth_model():
    m = DepthModel()
    assert (m.swap_edge, m.swap_local, m.tele_round) == (1, 0, 1)
    c = DepthModel(1, 1, 3)
    assert (c.swap_edge, c.swap_local, c.tele_round) == (1, 1, 3)
    sched = Schedule([
        [SwapEdge(0, 1), SwapLocal(2, 0, 1)],   # max(1, 0) = 1
        [SwapLocal(0, 0, 1)],                   # 0
        [TeleRound((Transfer((0, 1)),))],       # 1
    ])
    assert sched.depth() == 2
    assert sched.depth(c) == 1 + 1 + 3


def test_depth_costs_each_op_kind_as_the_model_does():
    """``depth`` looks a cost up once per kind of op; a subclass of a
    primitive still costs as its base, and a non-primitive raises the
    error ``DepthModel.cost`` gives for the first one in the step."""

    class Edge(SwapEdge):
        pass

    c = DepthModel(2, 1, 3)
    assert Schedule([[Edge(0, 1), SwapLocal(2, 0, 1)], []]).depth(c) == 2
    bad = [SwapEdge(0, 1), "x", 5]
    with pytest.raises(TypeError) as expected:
        max(map(c.cost, bad))
    with pytest.raises(TypeError) as got:
        Schedule([[SwapLocal(0, 0, 1)], bad]).depth(c)
    assert str(got.value) == str(expected.value) == "not a primitive: 'x'"


@pytest.mark.parametrize("costs, name", [
    ({"swap_edge": 0}, "swap_edge"),
    ({"swap_edge": -5}, "swap_edge"),
    ({"tele_round": 0}, "tele_round"),
    ({"swap_local": -1}, "swap_local"),
    ({"swap_edge": 1.0}, "swap_edge"),
    ({"tele_round": True}, "tele_round"),
])
def test_depth_model_rejects_bad_costs(costs, name):
    with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
        DepthModel(**costs)
    text = json.dumps({"timesteps": [], "depth_model": costs})
    with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
        Schedule.from_json(text)


def test_schedule_json_roundtrip_and_canonical():
    g = generate_graph("path", n=4)
    sched = Schedule([
        [SwapLocal(1, 0, 1), SwapEdge(2, 3)],
        [],
        [TeleRound((Transfer((0, 1, 2), "swap"),))],
    ])
    text = sched.to_json(g)
    doc = json.loads(text)
    assert doc["graph_ref"] == g.ref_hash()
    assert doc["depth_model"] == {"swap_edge": 1, "swap_local": 0, "tele_round": 1}
    assert len(doc["timesteps"]) == 2  # empty timestep dropped
    assert text == json.dumps(doc, sort_keys=True)
    back = Schedule.from_json(text)
    assert back.to_json(g) == text
    assert back.timesteps[1][0] == TeleRound((Transfer((0, 1, 2), "swap"),))


def test_schedule_json_matches_dumped_dict_form():
    sched = Schedule([
        [TeleRound((Transfer((4, 3), "move"), Transfer((0, 1, 2), "swap"))),
         SwapLocal(5, 2, 0), SwapEdge(7, 6)],
        [],
        [SwapEdge(1, 0), SwapLocal(2, 1, 3)],
    ], DepthModel(1, 1, 3))
    doc = {
        "graph_ref": None,
        "depth_model": DepthModel(1, 1, 3).to_dict(),
        "timesteps": [
            sorted((op_to_dict(op) for op in step),
                   key=lambda d: json.dumps(d, sort_keys=True))
            for step in sched.timesteps if step],
    }
    assert sched.graph_ref is None
    assert sched.to_json() == json.dumps(doc, sort_keys=True)
    assert Schedule([]).to_json() == json.dumps(
        {"graph_ref": None, "depth_model": DepthModel().to_dict(),
         "timesteps": []}, sort_keys=True)


ints = st.integers(-3, 2**40)
swap_edges = st.lists(ints, min_size=2, max_size=2, unique=True).map(
    lambda a: SwapEdge(*a))
swap_locals = st.tuples(ints, st.lists(ints, min_size=2, max_size=2,
                                       unique=True)).map(
    lambda a: SwapLocal(a[0], *a[1]))
transfers = st.builds(Transfer, st.lists(ints, min_size=2, max_size=6,
                                         unique=True).map(tuple),
                      st.sampled_from(["move", "swap"]))
tele_rounds = st.lists(transfers, min_size=1, max_size=4).map(
    lambda ts: TeleRound(tuple(ts)))
ops = st.one_of(swap_edges, swap_locals, tele_rounds)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_op_json_is_the_dumped_dict_form(op):
    assert _op_json(op) == json.dumps(op_to_dict(op), sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(ops, max_size=4), max_size=4),
       st.builds(DepthModel, st.integers(1, 3), st.integers(0, 3),
                 st.integers(1, 3)),
       st.one_of(st.none(), st.text(max_size=12)))
def test_random_schedule_json_matches_dumped_dict_form(steps, model, ref):
    sched = Schedule(steps, model, ref)
    doc = {
        "graph_ref": ref,
        "depth_model": model.to_dict(),
        "timesteps": [
            sorted((op_to_dict(op) for op in step),
                   key=lambda d: json.dumps(d, sort_keys=True))
            for step in steps if step],
    }
    text = sched.to_json()
    assert text == json.dumps(doc, sort_keys=True)
    assert Schedule.from_json(text).to_json() == text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.lists(swap_locals, min_size=1, max_size=30),
                          st.lists(swap_edges, min_size=1, max_size=30)),
                max_size=4))
def test_one_kind_steps_json_matches_dumped_dict_form(steps):
    """Lists of local swaps only are formatted inline; the text is
    still the dumped dict form, as it is for lists of edge swaps only."""
    doc = {"graph_ref": None, "depth_model": DepthModel().to_dict(),
           "timesteps": [sorted((op_to_dict(op) for op in step),
                                key=lambda d: json.dumps(d, sort_keys=True))
                         for step in steps]}
    assert Schedule(steps).to_json() == json.dumps(doc, sort_keys=True)


# a small vertex pool, so that vertices recur across rounds and steps
few = st.integers(-2, 12)
few_pairs = st.lists(few, min_size=2, max_size=2, unique=True)
few_rounds = st.lists(
    st.builds(Transfer, st.lists(few, min_size=2, max_size=7,
                                 unique=True).map(tuple),
              st.sampled_from(["move", "swap"])),
    min_size=1, max_size=4).map(lambda ts: TeleRound(tuple(ts)))
few_ops = st.one_of(few_rounds, few_rounds,
                    few_pairs.map(lambda a: SwapEdge(*a)),
                    st.tuples(few, few_pairs).map(
                        lambda a: SwapLocal(a[0], *a[1])))
few_layers = st.lists(few_pairs, max_size=5).map(
    lambda ps: SwapLayer([u for u, _ in ps], [v for _, v in ps]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.lists(few_rounds, min_size=1, max_size=1),
                          st.lists(few_ops, max_size=5), few_layers),
                min_size=1, max_size=8))
def test_multi_round_schedule_json_matches_dumped_dict_form(steps):
    """Round path vertices are formatted once per schedule and shared by
    every round, step and layer endpoint that names them; the text is
    still the dumped dict form."""
    doc = {"graph_ref": None, "depth_model": DepthModel().to_dict(),
           "timesteps": [sorted((op_to_dict(op) for op in step),
                                key=lambda d: json.dumps(d, sort_keys=True))
                         for step in steps if step]}
    assert Schedule(steps).to_json() == json.dumps(doc, sort_keys=True)


def test_round_path_vertices_are_written_as_integers():
    """A bool or numpy-int path vertex is written as ``%d`` writes it, as
    a swap endpoint is: True as 1, not True; and it shares the text of
    the int it equals."""
    sched = Schedule([[TeleRound((Transfer((0, 1)),))],
                      [TeleRound((Transfer((True, np.int64(2)), "swap"),
                                  Transfer((np.int32(3), False))))],
                      [SwapEdge(True, np.int64(3))]])
    assert sched.to_json() == (
        '{"depth_model": {"swap_edge": 1, "swap_local": 0, "tele_round": 1}, '
        '"graph_ref": null, "timesteps": ['
        '[{"transfers": [{"kind": "move", "path": [0, 1]}], '
        '"type": "tele_round"}], '
        '[{"transfers": [{"kind": "swap", "path": [1, 2]}, '
        '{"kind": "move", "path": [3, 0]}], "type": "tele_round"}], '
        '[{"type": "swap_edge", "u": 1, "v": 3}]]}')
    assert Schedule.from_json(sched.to_json()).timesteps[1] == [
        TeleRound((Transfer((1, 2), "swap"), Transfer((3, 0))))]


@pytest.mark.parametrize("op, what", [
    (SwapLocal(0, 0, 1.5), "slot 1.5"),
    (SwapLocal(0, 2.5, 1), "slot 2.5"),
    (SwapLocal(0.5, 0, 1), "vertex 0.5"),
])
def test_to_json_refuses_a_float_swap_local_field(op, what):
    """A local swap's vertex and slots are checked as a swap endpoint
    is, not written as a float's integer part."""
    with pytest.raises(ValueError, match=f"^{what} is not an integer$"):
        Schedule([[op]]).to_json()
    assert Schedule([[SwapLocal(np.int64(3), True, 2)]]).to_json().endswith(
        '[[{"s1": 1, "s2": 2, "type": "swap_local", "v": 3}]]}')


def test_schedule_from_json_rejects_malformed_documents():
    for text in ('[1, 2]', '"x"', '{"depth_model": {}}',
                 '{"timesteps": {}}', '{"timesteps": [{}]}',
                 '{"timesteps": [[7]]}',
                 '{"timesteps": [[{"type": "swap_edge", "u": "a", "v": 1}]]}',
                 '{"timesteps": [[{"type": "swap_edge", "u": true, "v": 1}]]}',
                 '{"timesteps": [[{"type": "swap_local", "v": 0, "s1": 1}]]}',
                 '{"timesteps": [[{"type": "tele_round", "transfers": 3}]]}',
                 '{"timesteps": [[{"type": "tele_round", '
                 '"transfers": [{"path": [0, 1.5]}]}]]}',
                 '{"timesteps": [[{"type": "tele_round", '
                 '"transfers": [{"path": 4}]}]]}',
                 '{"timesteps": [], "depth_model": [1]}',
                 '{"timesteps": [], "depth_model": {"swap_edge": "1"}}',
                 '{"timesteps": [], "depth_model": {"swap_edge": -5}}',
                 '{"timesteps": [], "depth_model": {"hop": 1}}'):
        with pytest.raises(ValueError):
            Schedule.from_json(text)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_transfer_path_entries_must_be_ints(bad, at):
    path = [0, 1, 2, 3]
    path[at] = bad
    d = {"type": "tele_round", "transfers": [{"path": [4, 5]},
                                             {"path": path}]}
    msg = f"transfer path must be a list of integers, got {path!r}"
    with pytest.raises(ValueError) as e:
        op_from_dict(d)
    assert str(e.value) == msg
    with pytest.raises(ValueError) as e:
        Schedule.from_json(json.dumps({"timesteps": [[d]]}))
    assert str(e.value) == msg


def test_transfer_path_of_ints_parses():
    d = {"type": "tele_round",
         "transfers": [{"path": [3, 1, 2], "kind": "swap"}]}
    assert op_from_dict(d) == TeleRound((Transfer((3, 1, 2), "swap"),))


def test_schedule_json_sorts_ops():
    a = Schedule([[SwapEdge(2, 3), SwapEdge(0, 1)]])
    b = Schedule([[SwapEdge(0, 1), SwapEdge(2, 3)]])
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_initial_state():
    g = generate_graph("path", n=3)
    st = TokenState(g)
    assert [st.data(v) for v in range(3)] == [0, 1, 2]
    assert st.get(1, 4) is None
    assert st.tokens() == [0, 1, 2]
    assert st.locate(2) == (2, 0)
    assert st.free_slot(0) == 1


def test_swap_edge_execution():
    g = generate_graph("path", n=3)
    sched = Schedule([[SwapEdge(0, 1)], [SwapEdge(1, 2)]])
    final = apply_schedule(g, sched)
    # token 0: 0 -> 1 -> 2; token 1 -> 0; token 2 -> 1
    assert achieved_permutation(g, final).image == (2, 0, 1)


def test_swap_local_execution():
    g = generate_graph("path", n=2)
    sched = Schedule([
        [SwapLocal(0, 0, 1)],   # park token 0
        [SwapEdge(0, 1)],       # token 1 moves to vertex 0's data
        [SwapLocal(0, 0, 2)],   # park token 1 in slot 2
        [SwapLocal(0, 0, 1)],   # restore token 0 to data
        [SwapEdge(0, 1)],       # token 0 -> vertex 1
        [SwapLocal(0, 0, 2)],   # token 1 -> vertex 0 data
    ])
    final = apply_schedule(g, sched)
    assert achieved_permutation(g, final).image == (1, 0)


def test_tele_move_and_swap():
    g = generate_graph("wheel", n=8)
    hub = 8
    # swap antipodal rim tokens through the hub
    rnd = TeleRound((Transfer((0, hub, 4), "swap"),))
    final = apply_schedule(g, Schedule([[rnd]]))
    p = achieved_permutation(g, final)
    assert p.image[0] == 4 and p.image[4] == 0 and p.image[1] == 1
    # a cyclic relay of moves: every dest is a source in the same round
    rnd = TeleRound((Transfer((0, 1), "move"),
                     Transfer((1, 2), "move"),
                     Transfer((2, 1, 0), "move")))
    final = apply_schedule(g, Schedule([[rnd]]))
    assert achieved_permutation(g, final).image == (1, 2, 0, 3, 4, 5, 6, 7, 8)


def test_tele_move_into_occupied_fails():
    g = generate_graph("path", n=3)
    rnd = TeleRound((Transfer((0, 1), "move"),))
    with pytest.raises(ScheduleError, match="timestep 0"):
        apply_schedule(g, Schedule([[rnd]]))


def test_tele_load_over_budget_fails():
    g = generate_graph("wheel", n=8, ancilla_budget=2)
    hub = 8
    # two swap paths through the hub: load 4 + 4 > 2
    rnd = TeleRound((Transfer((0, hub, 4), "swap"),
                     Transfer((1, hub, 5), "swap")))
    with pytest.raises(ScheduleError, match="budget"):
        apply_schedule(g, Schedule([[rnd]]))


def test_tele_path_must_follow_edges():
    g = generate_graph("path", n=4)
    rnd = TeleRound((Transfer((0, 3), "swap"),))
    with pytest.raises(ScheduleError, match="not an edge"):
        apply_schedule(g, Schedule([[rnd]]))


def test_slot_exclusivity():
    g = generate_graph("path", n=4)
    with pytest.raises(ScheduleError, match="already used"):
        apply_timestep(g, TokenState(g), [SwapEdge(0, 1), SwapEdge(1, 2)])
    with pytest.raises(ScheduleError, match="already used"):
        apply_timestep(g, TokenState(g),
                       [SwapEdge(0, 1), SwapLocal(1, 0, 2)])
    # a transfer round occupies every slot of its path vertices
    with pytest.raises(ScheduleError, match="already used"):
        apply_timestep(g, TokenState(g),
                       [TeleRound((Transfer((1, 2), "swap"),)),
                        SwapLocal(2, 3, 4)])
    # disjoint ops coexist
    st = TokenState(g)
    apply_timestep(g, st, [SwapEdge(0, 1), SwapEdge(2, 3),
                           SwapLocal(1, 1, 2)])
    assert st.data(0) == 1 and st.data(3) == 2


def test_bad_ops_name_timestep_and_primitive():
    g = generate_graph("path", n=3)
    with pytest.raises(ScheduleError, match=r"timestep 1, SwapEdge"):
        apply_schedule(g, Schedule([[SwapEdge(0, 1)], [SwapEdge(0, 2)]]))
    with pytest.raises(ScheduleError, match="slot out of range"):
        apply_schedule(g, Schedule([[SwapLocal(0, 0, 7)]]))
    with pytest.raises(ScheduleError, match="out of range"):
        apply_schedule(g, Schedule([[SwapEdge(2, 5)]]))


def test_swap_edge_error_messages():
    g = generate_graph("path", n=3)
    cases = [
        ([SwapEdge(2, 0)], "SwapEdge SwapEdge(u=0, v=2): no such edge"),
        ([SwapEdge(1, 3)], "SwapEdge SwapEdge(u=1, v=3): vertex out of range"),
        ([SwapEdge(-1, 0)],
         "SwapEdge SwapEdge(u=-1, v=0): vertex out of range"),
        ([SwapLocal(1, 0, 1), SwapEdge(0, 1)],
         "SwapEdge SwapEdge(u=0, v=1): slot (1, 0) already used by "
         "SwapLocal in this timestep"),
        ([SwapEdge(1, 2), SwapLocal(1, 1, 0)],
         "SwapLocal SwapLocal(v=1, s1=0, s2=1): slot (1, 0) already used by "
         "SwapEdge in this timestep"),
    ]
    for step, msg in cases:
        with pytest.raises(ScheduleError) as err:
            apply_schedule(g, Schedule([[SwapEdge(0, 1)], step]))
        assert str(err.value) == f"timestep 1, {msg}"


@pytest.mark.parametrize("op, msg", [
    (partial(TeleRound, (Transfer((0, 1.0)),)),
     "path vertex is not an integer"),
    (partial(TeleRound, (Transfer((1.0, 0)),)),
     "path vertex is not an integer"),
    (partial(TeleRound, (Transfer((0, 1.0, 2), "swap"),)),
     "path vertex is not an integer"),
    (partial(SwapLocal, 0, 0, 1.0), "vertex or slot is not an integer"),
    (partial(SwapLocal, 0.0, 0, 1), "vertex or slot is not an integer"),
])
def test_non_int_vertex_or_slot_names_timestep_and_primitive(op, msg):
    """A local swap's non-int vertex or slot, in range and on an edge,
    is caught by the executor's integer check alone.  A round's path
    vertex 1.0 never gets that far: the round refuses it when it builds
    its vertex list, with a one-line ValueError that names the vertex."""
    g = generate_graph("path", n=4)
    if msg.startswith("path"):
        with pytest.raises(ValueError) as err:
            op()
        assert str(err.value) == "transfer path vertex 1.0 is not an integer"
        return
    op = op()
    with pytest.raises(ScheduleError) as err:
        apply_schedule(g, Schedule([[SwapEdge(2, 3)], [op]]))
    assert str(err.value) == f"timestep 1, {type(op).__name__} {op}: {msg}"


@pytest.mark.parametrize("step", [
    [SwapEdge(0, 1.0)],
    SwapLayer([0], [1.0]),
    [SwapEdge(0.0, 1)],
    SwapLayer([0.0], [1]),
    SwapLayer([2, 0], [3, 1.0]),
], ids=["edge-v", "layer-v", "edge-u", "layer-u", "layer-second"])
def test_non_int_swap_endpoint_names_timestep_and_primitive(step):
    # 1.0 == 1 is in adj[0], so only the integer check can catch it;
    # a layer is re-checked swap by swap, before any slot changes
    g = generate_graph("path", n=4)
    state = TokenState(g)
    bad = [op for op in step if 1.0 in (op.u, op.v) and 0.0 in (op.u, op.v)]
    with pytest.raises(ScheduleError) as err:
        apply_timestep(g, state, step, 1)
    assert str(err.value) == (f"timestep 1, SwapEdge {bad[0]}: "
                              "vertex is not an integer")
    assert [state.data(v) for v in range(4)] == [0, 1, 2, 3]


def test_index_ints_still_execute():
    g = generate_graph("path", n=4)
    state = TokenState(g)
    i = np.int64
    apply_timestep(g, state, [SwapLocal(i(0), 0, i(1)),
                              TeleRound((Transfer((i(2), i(3)), "swap"),))])
    assert state.get(0, 1) == 0 and state.data(0) is None
    assert state.data(2) == 3 and state.data(3) == 2
    apply_timestep(g, state, SwapLayer([i(1)], [i(2)]))
    assert state.data(1) == 3 and state.data(2) == 1


def test_achieved_permutation_rejects_stranded_tokens():
    g = generate_graph("path", n=2)
    final = apply_schedule(g, Schedule([[SwapLocal(0, 0, 1)]]))
    with pytest.raises(ScheduleError, match="stranded"):
        achieved_permutation(g, final)


def test_achieved_permutation_names_the_first_fault():
    # tokens 1 and 3 stranded, so data slots 1 and 3 are empty too: the
    # first stranded (vertex, slot) is named, before any empty data slot
    g = generate_graph("path", n=5, ancilla_budget=2)
    final = apply_schedule(g, Schedule([[SwapLocal(3, 0, 1),
                                         SwapLocal(1, 0, 2)]]))
    with pytest.raises(ScheduleError, match=r"^token 1 stranded in "
                       r"ancilla slot 2 of vertex 1$"):
        achieved_permutation(g, final)
    final.slots[3][1] = None
    final.slots[1][0], final.slots[1][2] = 3, None
    final.slots[4][0] = None
    # ancillas empty, data slots 3 and 4 empty: the first is named
    with pytest.raises(ScheduleError,
                       match=r"^data slot of vertex 3 is empty$"):
        achieved_permutation(g, final)
    final.slots[3][0], final.slots[4][0] = 1, 4
    assert achieved_permutation(g, final).image == (0, 3, 2, 1, 4)


def test_verify_schedule():
    g = generate_graph("path", n=3)
    sched = Schedule([[SwapEdge(0, 1)], [SwapEdge(1, 2)]])
    assert verify_schedule(g, sched, Permutation((2, 0, 1)))
    assert not verify_schedule(g, sched, Permutation((1, 0, 2)))


# ---------------------------------------------------------------------------
# conservation and load boundaries
# ---------------------------------------------------------------------------

def _relay_schedule():
    """Three timesteps of swap rounds on a 6-vertex path."""
    rnd = TeleRound((Transfer((0, 1, 2), "swap"), Transfer((3, 4, 5), "swap")))
    return Schedule([[rnd], [SwapEdge(2, 3)], [rnd]])


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
@pytest.mark.parametrize("bad_t", [0, 2])
def test_conservation_catches_faulty_round(monkeypatch, fault, bad_t):
    g = generate_graph("path", n=6)
    sched = _relay_schedule()
    pi = Permutation((5, 1, 2, 3, 4, 0))
    assert verify_schedule(g, sched, pi)
    real = execute._apply_tele_round

    def faulty(state, op, t, *rest):
        real(state, op, t, *rest)
        if t == bad_t:
            tr = op.transfers[0]
            if fault == "drop":
                state.slots[tr.dest][0] = None
            else:
                state.slots[tr.dest][0] = state.slots[tr.source][0]

    monkeypatch.setattr(execute, "_apply_tele_round", faulty)
    with pytest.raises(ScheduleError,
                       match=rf"^timestep {bad_t}: tokens not conserved$"):
        verify_schedule(g, sched, pi)


def test_round_load_at_budget_boundary():
    rnd = TeleRound((Transfer((0, 1, 2), "swap"),))   # load 4 at vertex 1
    pi = Permutation((2, 1, 0))
    at_budget = generate_graph("path", n=3, ancilla_budget=4)
    assert verify_schedule(at_budget, Schedule([[rnd]]), pi)
    over = generate_graph("path", n=3, ancilla_budget=3)
    with pytest.raises(ScheduleError, match="budget"):
        verify_schedule(over, Schedule([[rnd]]), pi)
    # a token parked in an ancilla of vertex 1 takes one of its four slots
    parked = Schedule([[SwapLocal(1, 0, 3)], [rnd], [SwapLocal(1, 0, 3)]])
    with pytest.raises(ScheduleError, match="free ancilla slots"):
        verify_schedule(at_budget, parked, pi)
