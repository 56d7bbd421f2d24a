"""A round held as flat lists against a frozen copy of the round held as
a tuple of ``Transfer`` objects.

A ``TeleRound`` keeps every transfer's path vertices in one int list,
with path offsets and a kind per transfer.  The frozen copy below is
the round as it was before: a frozen dataclass holding a tuple of
``Transfer`` objects, written by formatting each path vertex with
``%d``, read back one ``Transfer`` at a time, and executed primitive by
primitive (static checks one path vertex at a time, loads summed from
``Transfer.halves``, free ancillas counted row by row, then the
transfer rules and the conservation check).

On random small graphs both forms must give the same ``to_json``
bytes, the same ``from_json`` result (the same transfers, or the same
``ValueError`` text) and, through ``apply_schedule``, the same final
slots or the same ``ScheduleError`` text.  The schedules drawn hold
lone rounds of moves and swaps, on walks or on any vertices from -1 to
n (steps off the edges, overlaps past the budget), local swaps that
park tokens in ancillas, empty timesteps, and greedy schedules at
budgets 2 and 3, whose long cycles take the chain fallback; some
vertices are bools or numpy ints.  A float vertex, which the frozen
form wrote as its integer part, is refused when the round is built,
and a path through a vertex twice by ``Transfer`` in both forms.
"""

import json
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import execute
from teleroute.execute import (
    ScheduleError,
    TokenState,
    apply_schedule,
    apply_timestep,
)
from teleroute.graphs import ArchGraph, Permutation
from teleroute.schedule import (
    Schedule,
    SwapEdge,
    SwapLayer,
    SwapLocal,
    TeleRound,
    Transfer,
    op_from_dict,
)
from teleroute.tele_routing import greedy_schedule

from test_greedy_golden import GOLDEN, build

# -- the frozen round --------------------------------------------------------


@dataclass(frozen=True)
class FrozenRound:
    transfers: tuple

    def __post_init__(self):
        object.__setattr__(self, "transfers", tuple(self.transfers))
        if not self.transfers:
            raise ValueError("tele_round needs at least one transfer")


# its repr and its type's name read as the package's, as error texts do
FrozenRound.__name__ = FrozenRound.__qualname__ = "TeleRound"


def frozen_op_json(op) -> str:
    if isinstance(op, FrozenRound):
        return ('{"transfers": [%s], "type": "tele_round"}' % ", ".join(
            '{"kind": "%s", "path": [%s]}'
            % (t.kind, ", ".join("%d" % v for v in t.path))
            for t in op.transfers))
    if isinstance(op, SwapLocal):
        return ('{"s1": %d, "s2": %d, "type": "swap_local", "v": %d}'
                % (op.s1, op.s2, op.v))
    return '{"type": "swap_edge", "u": %d, "v": %d}' % (op.u, op.v)


def frozen_to_json(steps) -> str:
    body = ", ".join("[" + ", ".join(sorted(map(frozen_op_json, step))) + "]"
                     for step in steps if step)
    return ('{"depth_model": {"swap_edge": 1, "swap_local": 0, '
            '"tele_round": 1}, "graph_ref": null, "timesteps": [%s]}' % body)


def frozen_transfer_from_dict(d) -> Transfer:
    if not isinstance(d, dict):
        raise ValueError(f"a transfer must be an object, got {d!r}")
    path = d.get("path")
    if not isinstance(path, list) or not set(map(type, path)) <= {int}:
        raise ValueError(f"transfer path must be a list of integers, "
                         f"got {path!r}")
    return Transfer(tuple(path), d.get("kind", "move"))


def frozen_round_from_dict(d) -> FrozenRound:
    return FrozenRound(tuple(frozen_transfer_from_dict(t)
                             for t in d["transfers"]))


def _fail(t, op, msg):
    raise ScheduleError(f"timestep {t}, {type(op).__name__} {op}: {msg}")


def frozen_loads(op) -> dict:
    out = {}
    for tr in op.transfers:
        for v, h in tr.halves():
            out[v] = out.get(v, 0) + h
    return out


def frozen_round(g, state, op, t):
    """A lone round, checked and applied one path vertex at a time."""
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
    slots = state.slots
    for v, need in loads.items():
        free = slots[v].count(None) - (slots[v][0] is None)
        if free < need:
            _fail(t, op, f"vertex {v} needs {need} free ancilla slots "
                         f"for its pair halves but only {free} are empty")
    ends = {v for tr in op.transfers for v in (tr.source, tr.dest)}
    before = sorted(slots[v][0] for v in ends if slots[v][0] is not None)
    sources = set()
    for tr in op.transfers:
        if tr.source in sources:
            _fail(t, op, f"vertex {tr.source} is the source of two "
                         f"transfers")
        sources.add(tr.source)
    for tr in op.transfers:
        if tr.kind == "swap" and tr.dest in sources:
            _fail(t, op, f"vertex {tr.dest} both swaps and sends")
    outgoing = {}
    for tr in op.transfers:
        tok = slots[tr.source][0]
        if tok is None:
            _fail(t, op, f"transfer source {tr.source} holds no token")
        outgoing[tr.source] = tok
        if tr.kind == "swap":
            back = slots[tr.dest][0]
            if back is None:
                _fail(t, op, f"swap endpoint {tr.dest} holds no token")
            outgoing[tr.dest] = back
    written = set()
    for tr in op.transfers:
        dests = (tr.dest, tr.source) if tr.kind == "swap" else (tr.dest,)
        for dest in dests:
            if dest in written:
                _fail(t, op, f"two transfers write vertex {dest}")
            if slots[dest][0] is not None and dest not in outgoing:
                _fail(t, op, f"destination {dest} is occupied and sends "
                             f"nothing")
            written.add(dest)
    for v in outgoing:
        slots[v][0] = None
    for tr in op.transfers:
        slots[tr.dest][0] = outgoing[tr.source]
        if tr.kind == "swap":
            slots[tr.source][0] = outgoing[tr.dest]
    after = sorted(slots[v][0] for v in ends if slots[v][0] is not None)
    if before != after:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


def frozen_run(g, steps):
    """The frozen schedule stepped from the start: lone rounds by
    ``frozen_round``, other timesteps (which hold no round) by
    ``apply_timestep``."""
    state = TokenState(g)
    try:
        for t, step in enumerate(steps):
            if step and isinstance(step[0], FrozenRound):
                frozen_round(g, state, step[0], t)
            else:
                apply_timestep(g, state, step, t)
    except ScheduleError as e:
        return str(e), None
    return None, state.slots


def run(g, steps):
    """``apply_schedule``'s result, the same whether a schedule of lone
    rounds is stepped when its rounds hold few path vertices, as by
    default, or checked as arrays however few they hold."""
    def once():
        try:
            return None, apply_schedule(g, Schedule(steps)).slots
        except ScheduleError as e:
            return str(e), None

    got = once()
    with mock.patch.object(execute, "_ROUNDS_STEPPED_PER_VERTEX", 0):
        assert once() == got
    return got


def as_lists(steps):
    return [[TeleRound(step[0].transfers)]
            if step and isinstance(step[0], FrozenRound) else step
            for step in steps]


def as_frozen(steps):
    """Each round as a frozen one, and each layer as its swaps."""
    return [[FrozenRound(tuple(step[0].transfers))]
            if type(step) is list and step and type(step[0]) is TeleRound
            else list(step) for step in steps]


def assert_forms_agree(g, frozen_steps):
    steps = as_lists(frozen_steps)
    text = Schedule(steps).to_json()
    assert text == frozen_to_json(frozen_steps)
    back = Schedule.from_json(text)
    frozen_back = [[frozen_round_from_dict(d) if d["type"] == "tele_round"
                    else op_from_dict(d) for d in step]
                   for step in json.loads(text)["timesteps"]]
    assert as_frozen(back.timesteps) == frozen_back
    assert back.to_json() == text
    assert run(g, steps) == frozen_run(g, frozen_steps)


# -- drawing schedules -------------------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    budget = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 5, 6, 7]))
    return ArchGraph(n, tuple(edges), ancilla_budget=budget)


def retyped(draw, v):
    """``v``, or now and then the same vertex as a numpy int or a bool."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return np.int64(v)
    if kind == 1 and v in (0, 1):
        return bool(v)
    return v


@st.composite
def paths(draw, g, low=-1):
    """A self-avoiding walk along the edges or, now and then, distinct
    vertices that need not follow them, from 0..n-1 or from -1..n (or,
    with ``low`` 0, not)."""
    mode = draw(st.integers(0, 4))
    if mode <= -low:
        path = draw(st.lists(st.integers(-mode, g.n - 1 + mode), min_size=2,
                             max_size=4, unique=True))
    else:
        path = [draw(st.integers(0, g.n - 1))]
        for _ in range(draw(st.integers(1, 4))):
            options = [w for w in g.neighbors(path[-1]) if w not in path]
            if not options:
                break
            path.append(draw(st.sampled_from(options)))
        if len(path) < 2:
            path.append(g.neighbors(path[0])[0])
    return tuple(retyped(draw, v) for v in path)


@st.composite
def steps(draw, g):
    """A lone round of one to three transfers, moves or swaps, on paths
    that may overlap; a round of one or two swap transfers on distinct
    paths in range with distinct ends, which the tokens at their ends
    always allow, so that only the static checks (edges, loads over the
    budget) can fail it; local swaps between the data slot and an
    ancilla; an edge swap; or nothing."""
    kind = draw(st.sampled_from(["round", "round", "jump", "jump", "jump",
                                 "park", "park", "edge", "empty"]))
    if kind == "jump":
        transfers, ends = [], set()
        for _ in range(draw(st.integers(1, 2))):
            path = draw(paths(g, low=0))
            if not ends & {path[0], path[-1]}:
                ends |= {path[0], path[-1]}
                transfers.append(Transfer(tuple(path), "swap"))
        return [FrozenRound(tuple(transfers))]
    if kind == "round":
        return [FrozenRound(tuple(
            Transfer(draw(paths(g)), draw(st.sampled_from(["move", "swap"])))
            for _ in range(draw(st.integers(1, 3)))))]
    if kind == "park":
        vs = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2,
                           unique=True))
        return [SwapLocal(v, 0, draw(st.integers(1, g.ancilla_budget)))
                for v in vs]
    if kind == "edge":
        return [SwapEdge(*draw(st.sampled_from(g.edges)))]
    return []


@st.composite
def chains(draw):
    """A greedy schedule at budget 2 or 3 on a path or a cycle with
    chords, for a permutation of one or two long cycles; now and then
    one of its timesteps is swapped for a drawn one."""
    n = draw(st.integers(4, 9))
    edges = {(v, v + 1) for v in range(n - 1)}
    if draw(st.booleans()):
        edges.add((0, n - 1))
    g = ArchGraph(n, tuple(sorted(edges)),
                  ancilla_budget=draw(st.sampled_from([2, 3])))
    image = draw(st.permutations(range(n)))
    sched = greedy_schedule(g, Permutation(tuple(image)))
    frozen = as_frozen(sched.timesteps)
    if frozen and draw(st.integers(0, 2)) == 0:
        frozen[draw(st.integers(0, len(frozen) - 1))] = draw(steps(g))
    return g, frozen


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_drawn_schedules_agree_with_the_frozen_form(data):
    g = data.draw(graphs())
    frozen = data.draw(st.lists(steps(g), min_size=1, max_size=8))
    assert_forms_agree(g, frozen)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_chained_schedules_agree_with_the_frozen_form(case):
    g, frozen = case
    assert_forms_agree(g, frozen)


P5 = tuple((v, v + 1) for v in range(4))
SHARED = FrozenRound((Transfer((0, 1, 2), "swap"), Transfer((4, 3), "swap")))


@pytest.mark.parametrize("budget, steps, phrase", [
    # the round parks 4 halves at vertex 1
    (3, [[SHARED]], "vertex 1 holds 4 pair halves, budget is 3"),
    (4, [[SHARED]], None),
    # a token parked at vertex 1 leaves it 3 free ancillas
    (4, [[SwapLocal(1, 0, 2)], [SHARED]], "vertex 1 needs 4 free"),
    (5, [[SwapLocal(1, 0, 2)], [SHARED], [SwapLocal(1, 0, 2)]], None),
    # two tokens parked at vertex 2 leave 3 free ancillas of 5 there
    (5, [[SwapLocal(2, 0, 1)], [FrozenRound((Transfer((1, 2)),))],
         [SwapLocal(2, 0, 2)],
         [FrozenRound((Transfer((0, 1, 2, 3), "swap"),))]],
     "vertex 2 needs 4 free"),
    # a lone move
    (2, [[SwapLocal(1, 0, 1)], [FrozenRound((Transfer((0, 1)),))]], None),
    (2, [[FrozenRound((Transfer((0, 1)),))]], "destination 1 is occupied"),
    (2, [[SwapLocal(0, 0, 1)], [SwapLocal(1, 0, 1)],
         [FrozenRound((Transfer((0, 1)),))]],
     "transfer source 0 holds no token"),
    # a lone swap across three vertices parks 4 halves in the middle
    (3, [[FrozenRound((Transfer((2, 3, 4), "swap"),))]], "holds 4 pair"),
    (2, [[FrozenRound((Transfer((4, 3), "swap"),))]], None),
    (2, [[FrozenRound((Transfer((0, 2), "swap"),))]], "(0,2) is not an edge"),
    (4, [[FrozenRound((Transfer((4, 5), "swap"),))]], "vertex 5 out of range"),
    # a move whose ends are in range, into an emptied vertex, through a
    # vertex that is not: only the range check can fail it
    (2, [[SwapLocal(1, 0, 1)], [FrozenRound((Transfer((0, 5, 1)),))]],
     "vertex 5 out of range"),
    (2, [[SwapLocal(1, 0, 1)], [FrozenRound((Transfer((0, -1, 1)),))]],
     "vertex -1 out of range"),
])
def test_fixed_rounds_agree_with_the_frozen_form(budget, steps, phrase):
    g = ArchGraph(5, P5, ancilla_budget=budget)
    assert_forms_agree(g, steps)
    error, _ = run(g, as_lists(steps))
    assert (error is None) == (phrase is None)
    assert phrase is None or phrase in error


@st.composite
def transfer_dicts(draw):
    """JSON transfer lists, often well formed, otherwise with a fault:
    an entry that is not an object, a path that is not a list, holds a
    float, a bool or a string, has one vertex or visits one twice, a
    kind that is neither "move" nor "swap", or no transfer at all."""
    out = []
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4,
                             unique=True))
        fault = draw(st.sampled_from([None] * 6 + [
            "entry", "path", "float", "bool", "str", "short", "twice",
            "kind"]))
        d = {"path": path}
        if draw(st.booleans()) or fault == "kind":
            d["kind"] = ("teleport" if fault == "kind"
                         else draw(st.sampled_from(["move", "swap"])))
        if fault == "entry":
            d = path
        elif fault == "path":
            d["path"] = 7
        elif fault in ("float", "bool", "str"):
            path[-1] = {"float": 1.5, "bool": True, "str": "1"}[fault]
        elif fault == "short":
            del path[1:]
        elif fault == "twice":
            path.append(path[0])
        out.append(d)
    return {"type": "tele_round", "transfers": out}


def parsed(parse, d):
    try:
        return tuple(parse(d).transfers)
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=400, deadline=None)
@given(transfer_dicts())
def test_json_rounds_parse_as_the_frozen_form_parses(d):
    assert parsed(op_from_dict, d) == parsed(frozen_round_from_dict, d)


@pytest.mark.parametrize("budget, bad_t", [(4, 0), (2, 0)])
def test_whole_check_catches_a_round_that_loses_a_token(monkeypatch, budget,
                                                        bad_t):
    """A greedy schedule of packed rounds and, at budget 2, chains is
    checked whole; a round that drops a token must fail there as it
    fails stepped."""
    g = ArchGraph(10, tuple((v, v + 1) for v in range(9)),
                  ancilla_budget=budget)
    sched = greedy_schedule(g, Permutation((9, 0, 1, 2, 3, 4, 5, 6, 7, 8)
                                           if budget == 4 else
                                           (1, 0, 3, 2, 9, 5, 6, 7, 8, 4)))
    assert all(type(step[0]) in (TeleRound, SwapLocal)
               for step in sched.timesteps)
    assert any(type(step[0]) is SwapLocal for step in sched.timesteps) == (
        budget == 2)
    assert len(sched.timesteps[bad_t][0].transfers) > 1
    real = execute._apply_tele_round

    def lossy(state, op, t, loads):
        real(state, op, t, loads)
        if t == bad_t:
            state.slots[op.verts[-1]][0] = None

    monkeypatch.setattr(execute, "_apply_tele_round", lossy)
    monkeypatch.setattr(execute, "_ROUNDS_STEPPED_PER_VERTEX", 0)
    with pytest.raises(ScheduleError,
                       match=rf"^timestep {bad_t}: tokens not conserved$"):
        apply_schedule(g, sched)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_greedy_golden_schedules_read_back_to_their_bytes(name):
    g, pi = build(name)
    sched = greedy_schedule(g, pi)
    text = sched.to_json(graph=g)
    assert Schedule.from_json(text).to_json() == text
    # the router builds its rounds from lists unchecked; the array check
    # relies on their paths being simple, which Transfer checks
    for op in sched.ops():
        if isinstance(op, TeleRound):
            assert len(list(op.transfers)) == len(op.kinds)


# -- vertices that are not integers ------------------------------------------


def test_round_refuses_a_float_path_vertex():
    with pytest.raises(ValueError) as e:
        TeleRound((Transfer((0, 1)), Transfer((2, 1.5))))
    assert str(e.value) == "transfer path vertex 1.5 is not an integer"
    # what the frozen form wrote: a different, valid schedule
    frozen = [[FrozenRound((Transfer((0, 1.5)),))]]
    assert '"path": [0, 1]' in frozen_to_json(frozen)


@pytest.mark.parametrize("step", [
    [SwapEdge(0, 1.5)],
    [SwapEdge(0, 1.5), SwapLocal(2, 0, 1)],
], ids=["edge-list", "mixed"])
def test_to_json_refuses_a_float_swap_endpoint(step):
    """An edge swap in a list is written by its own format, whatever
    else the timestep holds."""
    with pytest.raises(ValueError) as e:
        Schedule([step]).to_json()
    assert str(e.value).endswith("1.5 is not an integer")
    assert "\n" not in str(e.value)


def test_to_json_refuses_a_float_layer_endpoint():
    with pytest.raises(ValueError) as e:
        Schedule([[SwapEdge(2, 3)], SwapLayer([0], [1.5])]).to_json()
    assert str(e.value) == "vertex 1.5 is not an integer"


def test_bool_and_numpy_vertices_still_write_as_ints():
    sched = Schedule([SwapLayer([True], [np.int64(2)]),
                      [TeleRound((Transfer((np.int64(3), False), "swap"),))]])
    assert Schedule.from_json(sched.to_json()).timesteps == [
        SwapLayer([1], [2]), [TeleRound((Transfer((3, 0), "swap"),))]]


def test_round_api_builds_transfers_only_when_read():
    rnd = TeleRound((Transfer((0, 1, 2)), Transfer((4, 3), "swap")))
    assert (rnd.verts, rnd.offsets, rnd.kinds) == (
        [0, 1, 2, 4, 3], [0, 3, 5], ["move", "swap"])
    assert len(rnd.transfers) == 2
    assert list(rnd.transfers) == [Transfer((0, 1, 2)),
                                   Transfer((4, 3), "swap")]
    assert rnd.transfers[-1] == Transfer((4, 3), "swap")
    assert rnd.loads() == {0: 1, 1: 2, 2: 1, 4: 2, 3: 2}
    assert [rnd.load(v) for v in range(6)] == [1, 2, 1, 2, 2, 0]
    assert rnd.vertices() == {0, 1, 2, 3, 4}
    assert rnd.incidence(1) == 1
    assert repr(rnd) == repr(FrozenRound(tuple(rnd.transfers)))
    assert rnd == TeleRound(list(rnd.transfers))
    # its lists are its own, so, like a layer, a round is not hashable
    with pytest.raises(TypeError):
        hash(rnd)
