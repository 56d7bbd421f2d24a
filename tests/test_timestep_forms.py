"""One form per timestep kind: the routers emit edge swaps only as
``SwapLayer`` timesteps, never as a list holding ``SwapEdge`` objects,
so the executor checks every routed edge-swap step in its layer form.
A list of ``SwapEdge`` comes only from hand-built or mixed JSON steps.

``simulate_round_with_swaps`` has no golden test elsewhere, so its
``to_json`` bytes on fixed rounds are pinned here by sha256, as written
before its ride steps became layers."""

import hashlib

import pytest

from teleroute.execute import TokenState, apply_timestep
from teleroute.graphs import generate_graph, generate_permutation
from teleroute.schedule import (
    SwapEdge,
    SwapLayer,
    SwapLocal,
    TeleRound,
    Transfer,
)
from teleroute.sparse_routing import Train, advance_train, sparse_route
from teleroute.tele_routing import (
    greedy_schedule,
    ladder_schedule,
    simulate_round_with_swaps,
)

# every built-in family, each with at least 33 vertices for k = 32
FAMILIES = [
    ("path", {"n": 64}),
    ("complete", {"n": 40}),
    ("wheel", {"n": 40}),
    ("ladder", {"n": 6}),
    ("hypercube", {"d": 6}),
    ("butterfly", {"r": 4}),
    ("grid", {"n": 7, "d": 2}),
]


def no_edge_list(sched) -> bool:
    """Whether no timestep is a list holding a ``SwapEdge``."""
    return not any(type(step) is list and SwapEdge in map(type, step)
                   for step in sched.timesteps)


def rounds_of(sched):
    return [op for step in sched.timesteps for op in step
            if type(op) is TeleRound]


@pytest.mark.parametrize("kind,params", FAMILIES)
@pytest.mark.parametrize("perm", ["k2", "k8", "k32", "diam"])
def test_sparse_route_emits_edge_swaps_as_layers(kind, params, perm):
    g = generate_graph(kind, **params)
    if perm == "diam":
        pi = generate_permutation("diam", g)
    else:
        k = int(perm[1:])
        pi = generate_permutation("random", g, seed=k, k=k)
    sched = sparse_route(g, pi)
    assert no_edge_list(sched)
    # the other steps hold local swaps only
    for step in sched.timesteps:
        assert type(step) is SwapLayer or {*map(type, step)} <= {SwapLocal}
    assert any(type(step) is SwapLayer and step for step in sched.timesteps)


def greedy_rounds():
    g = generate_graph("grid", n=5, d=2)
    for seed in range(6):
        pi = generate_permutation("random", g, seed=seed, k=6)
        for rnd in rounds_of(greedy_schedule(g, pi)):
            yield g, rnd
    g = generate_graph("wheel", n=8)
    for rnd in rounds_of(greedy_schedule(g, generate_permutation(
            "wheel", g, l=2))):
        yield g, rnd


def test_round_replay_emits_edge_swaps_as_layers():
    count = 0
    for g, rnd in greedy_rounds():
        sched = simulate_round_with_swaps(g, rnd)
        assert no_edge_list(sched)
        assert any(type(step) is SwapLayer for step in sched.timesteps)
        count += 1
    assert count >= 7
    # a transfer longer than ceil(sqrt(N)) edges goes through sparse_route
    g = generate_graph("path", n=31)
    rnd = TeleRound((Transfer(tuple(range(31)), kind="swap"),))
    assert no_edge_list(simulate_round_with_swaps(g, rnd))


def test_advance_train_steps_one_and_three_are_layers():
    g = generate_graph("path", n=8)
    state = TokenState(g)
    apply_timestep(g, state, [SwapLocal(v, 0, 1) for v in range(3, 8)])
    train = Train((0, 1, 2), 7)
    for _ in range(3):
        steps, train = advance_train(g, state, train)
        assert len(steps) == 5
        assert [type(s) for s in steps] == [list, SwapLayer, list,
                                            SwapLayer, list]
    assert [state.locate(t) for t in (0, 1, 2)] == [(3, 0), (4, 0), (5, 0)]


def _fixed_rounds():
    g = generate_graph("grid", n=5, d=2)
    for seed in (0, 1, 2):
        pi = generate_permutation("random", g, seed=seed, k=6)
        rnd = rounds_of(greedy_schedule(g, pi))[0]
        yield f"grid-5x5-k6-seed{seed}", g, rnd
    g = generate_graph("grid", n=8, d=2)
    pi = generate_permutation("random", g, seed=0, k=8)
    yield "grid-8x8-k8-seed0", g, rounds_of(greedy_schedule(g, pi))[0]
    g = generate_graph("wheel", n=8)
    pi = generate_permutation("wheel", g, l=2)
    yield "wheel-8-l2", g, rounds_of(greedy_schedule(g, pi))[0]
    g = generate_graph("ladder", n=4)
    pi = generate_permutation("random", g, seed=11)
    yield "ladder-4-seed11", g, rounds_of(ladder_schedule(g, pi))[0]
    g = generate_graph("path", n=31)
    yield ("path-31-long-swap", g,
           TeleRound((Transfer(tuple(range(31)), kind="swap"),)))


# name -> (sha256 of to_json, timesteps)
REPLAY_GOLDEN = {
    "grid-5x5-k6-seed0": (
        "97955073c53769c3d45f441fa80d98492c5175241a53646378a902820f964ef0",
        17),
    "grid-5x5-k6-seed1": (
        "c34b358810cbf2a4bdc972ca3793e887914259cb7f49c9f2a36c1d798b3a1e79",
        27),
    "grid-5x5-k6-seed2": (
        "b7cea5617896058e914074e62817374c93fca51f6d8e8db5117f75924f15bc70",
        23),
    "grid-8x8-k8-seed0": (
        "6c0a6b6343ddf7f076da73d5beb5d6fe2d7079726a9889b2202979f44f85e27b",
        39),
    "wheel-8-l2": (
        "cc7c35c908dd48261a232b0e9439bf439992d0d4fbf635dbc61b2dd6c067e834",
        14),
    "ladder-4-seed11": (
        "cc566d4f39d5a2e6bea8874320c087bfc6f94e5087daa24e2c91f5eebed9113b",
        12),
    "path-31-long-swap": (
        "d7ba08e0d41feb57fbf87d2265cf6ee50dba2cdc29a52b64263df64c8c7988c2",
        93),
}


def test_round_replay_bytes_are_pinned():
    seen = {}
    for name, g, rnd in _fixed_rounds():
        sched = simulate_round_with_swaps(g, rnd)
        seen[name] = (hashlib.sha256(sched.to_json().encode()).hexdigest(),
                      sched.num_timesteps())
    assert seen == REPLAY_GOLDEN


def _step_lists(sched):
    """Every list a schedule's timesteps hold: each step list, and each
    layer's endpoint lists."""
    for step in sched.timesteps:
        if type(step) is SwapLayer:
            yield step.us
            yield step.vs
        else:
            yield step


def assert_unshared(sched):
    """No two timesteps are one object or share a list, and emptying
    each step in turn leaves every other step as it was."""
    steps = sched.timesteps
    assert len({*map(id, steps)}) == len(steps)
    lists = list(_step_lists(sched))
    assert len({*map(id, lists)}) == len(lists)
    for t, step in enumerate(steps):
        before = [list(s) for s in steps]
        if type(step) is SwapLayer:
            step.us.clear()
            step.vs.clear()
        else:
            step.clear()
        assert [list(s) for s in steps[:t] + steps[t + 1:]] == (
            before[:t] + before[t + 1:])


def test_sparse_mirrored_steps_are_separate_objects():
    # the backward half replays the forward steps in reverse: the hide
    # step comes first and last, and clearing one keeps the other
    g = generate_graph("path", n=16)
    sched = sparse_route(g, generate_permutation("random", g, seed=1, k=4))
    first, last = sched.timesteps[0], sched.timesteps[-1]
    assert first == last and first
    assert sched.timesteps[4] == sched.timesteps[-5]
    assert type(sched.timesteps[-5]) is SwapLayer
    assert_unshared(sched)
    for kind, params in FAMILIES:
        g = generate_graph(kind, **params)
        assert_unshared(sparse_route(g, generate_permutation(
            "random", g, seed=8, k=8)))


def test_round_replay_steps_are_separate_objects():
    for _, g, rnd in _fixed_rounds():
        assert_unshared(simulate_round_with_swaps(g, rnd))
