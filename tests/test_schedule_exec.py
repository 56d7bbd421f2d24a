"""Schedule serialization, cost models, and token-level execution."""

import json

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
    SwapLocal,
    TeleRound,
    Transfer,
    _op_json,
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
    assert t.load(0) == 1 and t.load(3) == 1
    assert t.load(1) == 2 and t.load(2) == 2
    assert t.load(9) == 0
    s = Transfer((0, 1, 2), kind="swap")
    assert s.load(0) == 2 and s.load(1) == 4 and s.load(2) == 2
    rnd = TeleRound((Transfer((0, 1, 2)), Transfer((3, 1, 4))))
    assert rnd.load(1) == 4
    assert rnd.incidence(1) == 2 and rnd.incidence(0) == 1


def test_depth_model():
    m = DepthModel()
    assert (m.swap_edge, m.swap_local, m.tele_round) == (1, 0, 1)
    c = DepthModel.conservative()
    assert (c.swap_edge, c.swap_local, c.tele_round) == (1, 1, 3)
    sched = Schedule([
        [SwapEdge(0, 1), SwapLocal(2, 0, 1)],   # max(1, 0) = 1
        [SwapLocal(0, 0, 1)],                   # 0
        [TeleRound((Transfer((0, 1)),))],       # 1
    ])
    assert sched.depth() == 2
    assert sched.depth(c) == 1 + 1 + 3


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
    ], DepthModel.conservative())
    doc = {
        "graph_ref": None,
        "depth_model": DepthModel.conservative().to_dict(),
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
       st.builds(DepthModel, st.integers(0, 3), st.integers(0, 3),
                 st.integers(0, 3)),
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
                 '{"timesteps": [], "depth_model": {"hop": 1}}'):
        with pytest.raises(ValueError):
            Schedule.from_json(text)


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


def test_achieved_permutation_rejects_stranded_tokens():
    g = generate_graph("path", n=2)
    final = apply_schedule(g, Schedule([[SwapLocal(0, 0, 1)]]))
    with pytest.raises(ScheduleError, match="stranded"):
        achieved_permutation(g, final)


def test_verify_schedule():
    g = generate_graph("path", n=3)
    sched = Schedule([[SwapEdge(0, 1)], [SwapEdge(1, 2)]])
    assert verify_schedule(g, sched, Permutation((2, 0, 1)))
    assert not verify_schedule(g, sched, Permutation((1, 0, 2)))


def test_on_step_sees_every_timestep():
    g = generate_graph("path", n=4)
    seen = []
    apply_schedule(g, Schedule([[SwapEdge(0, 1)], [], [SwapEdge(2, 3)]]),
                   on_step=lambda t, st: seen.append((t, st.tokens())))
    assert [t for t, _ in seen] == [0, 1, 2]
    assert all(toks == [0, 1, 2, 3] for _, toks in seen)


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
