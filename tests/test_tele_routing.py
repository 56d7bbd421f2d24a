"""Teleportation-scheduler tests: canonical relay paths on ladders, the
single-round ladder protocol with its incidence/load counting, greedy
cycle packing (including the buffered chain fallback at budget 2), the
swap-only replay of a round, and the advantage ratio."""

from fractions import Fraction

import pytest

from teleroute.execute import apply_schedule, verify_schedule
from teleroute.graphs import (
    ArchGraph,
    Permutation,
    diameter,
    generate_graph,
    generate_permutation,
)
from teleroute.schedule import Schedule, SwapLocal, TeleRound, Transfer
from teleroute.tele_routing import (
    advantage,
    canonical_path,
    greedy_schedule,
    ladder_schedule,
    relay_address,
    simulate_round_with_swaps,
    teleport_schedule,
)


def rounds_of(sched):
    return [op for step in sched.timesteps for op in step
            if isinstance(op, TeleRound)]


# ---------------------------------------------------------------------------
# relay addresses and canonical paths
# ---------------------------------------------------------------------------

def test_relay_address_examples():
    assert relay_address(5, 2) == 0b10101 == 21
    assert relay_address(2, 1) == 0b110 == 6


def test_relay_address_layer_shift():
    for u in range(1, 32):
        for i in range(1, 5):
            assert relay_address(u, i).bit_length() == u.bit_length() + i


def test_relay_address_rejects_bad_args():
    with pytest.raises(ValueError):
        relay_address(0, 1)
    with pytest.raises(ValueError):
        relay_address(3, 0)


def test_canonical_path_example():
    assert canonical_path(4, 2, 9) == (2, 6, 9)


def test_canonical_path_adjacent_layers_direct():
    assert canonical_path(3, 2, 3) == (2, 3)
    assert canonical_path(4, 3, 5) == (3, 5)
    assert canonical_path(4, 1, 3) == (1, 3)


def test_canonical_path_descending_is_reversed():
    assert canonical_path(4, 9, 2) == (9, 6, 2)
    for u, v in [(1, 12), (3, 14), (2, 15)]:
        assert canonical_path(4, v, u) == tuple(
            reversed(canonical_path(4, u, v)))


def test_canonical_path_edges_exist_on_ladder():
    g = generate_graph("ladder", n=4)
    for u in range(1, 16):
        for v in range(1, 16):
            if u == v:
                continue
            path = canonical_path(4, u, v)
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a - 1, b - 1)


def test_canonical_path_rejects_bad_addresses():
    with pytest.raises(ValueError):
        canonical_path(3, 0, 5)
    with pytest.raises(ValueError):
        canonical_path(3, 1, 8)
    with pytest.raises(ValueError):
        canonical_path(3, 4, 4)


# ---------------------------------------------------------------------------
# ladder_schedule
# ---------------------------------------------------------------------------

def test_ladder_random_permutations_single_round():
    g = generate_graph("ladder", n=4)
    for seed in range(20):
        pi = generate_permutation("random", g, seed=seed)
        sched = ladder_schedule(g, pi)
        assert len(sched.timesteps) == 1
        (rnd,) = rounds_of(sched)
        for v in rnd.vertices():
            assert rnd.incidence(v) <= 4
            assert rnd.load(v) <= 6
        assert verify_schedule(g, sched, pi)


def test_ladder_cyclic_shift_single_round():
    g = generate_graph("ladder", n=3)
    pi = generate_permutation("cyclic_shift", g, s=1)
    sched = ladder_schedule(g, pi)
    assert len(sched.timesteps) == 1
    assert verify_schedule(g, sched, pi)


def test_ladder_identity_empty():
    g = generate_graph("ladder", n=3)
    sched = ladder_schedule(g, Permutation.identity(g.n))
    assert len(sched.timesteps) == 0
    assert sched.depth() == 0


def test_ladder_small_budget_rejected():
    g = generate_graph("ladder", n=3, ancilla_budget=5)
    pi = generate_permutation("reflection", g)
    with pytest.raises(ValueError, match="6"):
        ladder_schedule(g, pi)


def test_ladder_schedule_rejects_other_families():
    g = generate_graph("path", n=7)
    with pytest.raises(ValueError):
        ladder_schedule(g, generate_permutation("diam", g))


# ---------------------------------------------------------------------------
# greedy_schedule
# ---------------------------------------------------------------------------

def test_greedy_path_diameter_single_round():
    g = generate_graph("path", n=31)
    pi = generate_permutation("diam", g)
    sched = greedy_schedule(g, pi)
    assert len(sched.timesteps) == 1
    assert verify_schedule(g, sched, pi)


@pytest.mark.parametrize("rim,l", [(8, 2), (8, 4), (16, 2), (16, 4)])
def test_greedy_wheel_segments_single_round(rim, l):
    g = generate_graph("wheel", n=rim)
    pi = generate_permutation("wheel", g, l=l)
    sched = greedy_schedule(g, pi)
    assert len(sched.timesteps) == 1
    assert verify_schedule(g, sched, pi)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_greedy_rainbow_round_band(n):
    g = generate_graph("path", n=n)
    pi = generate_permutation("rainbow", g, alpha=0.5)
    pairs = len(pi.support()) // 2
    sched = greedy_schedule(g, pi)
    count = len(rounds_of(sched))
    assert -(-pairs // 3) <= count <= pairs
    assert verify_schedule(g, sched, pi)


def test_greedy_round_loads_revalidate():
    g = generate_graph("grid", n=5, d=2)
    for seed in range(6):
        pi = generate_permutation("random", g, seed=seed)
        sched = greedy_schedule(g, pi)
        for rnd in rounds_of(sched):
            for v in rnd.vertices():
                assert rnd.load(v) <= g.ancilla_budget
        assert verify_schedule(g, sched, pi)


@pytest.mark.parametrize("kind,params", [
    ("complete", {"n": 8}),
    ("hypercube", {"d": 3}),
    ("grid", {"n": 4, "d": 2}),
    ("butterfly", {"r": 2}),
])
def test_greedy_random_families_verified(kind, params):
    g = generate_graph(kind, **params)
    for seed in range(4):
        pi = generate_permutation("random", g, seed=seed)
        assert verify_schedule(g, greedy_schedule(g, pi), pi)


def test_greedy_identity_empty():
    g = generate_graph("path", n=9)
    sched = greedy_schedule(g, Permutation.identity(9))
    assert len(sched.timesteps) == 0


def test_greedy_deterministic():
    g = generate_graph("grid", n=4, d=2)
    pi = generate_permutation("random", g, seed=3)
    a = greedy_schedule(g, pi)
    b = greedy_schedule(g, pi)
    assert a.to_json() == b.to_json()


def test_greedy_budget_validation():
    g = generate_graph("path", n=5)
    pi = generate_permutation("diam", g)
    with pytest.raises(ValueError):
        greedy_schedule(g, pi, budget=1)
    with pytest.raises(ValueError):
        greedy_schedule(g, pi, budget=7)


def test_greedy_chain_fallback_budget_two():
    g = generate_graph("path", n=5, ancilla_budget=2)
    pi = Permutation((2, 1, 4, 3, 0))  # the 3-cycle 0 -> 2 -> 4 -> 0
    sched = greedy_schedule(g, pi, budget=2)
    assert verify_schedule(g, sched, pi)
    assert any(isinstance(op, SwapLocal)
               for step in sched.timesteps for op in step)
    assert all(len(rnd.transfers) == 1 for rnd in rounds_of(sched))


def test_greedy_chain_through_hub_budget_two():
    g = ArchGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)), ancilla_budget=2)
    pi = Permutation((0, 2, 3, 1, 4))  # 3-cycle among the leaves
    sched = greedy_schedule(g, pi, budget=2)
    assert verify_schedule(g, sched, pi)


def test_greedy_long_cycle_chain_on_grid():
    g = generate_graph("grid", n=8, d=2)
    pi = generate_permutation("random", g, seed=0)  # one giant cycle mix
    sched = greedy_schedule(g, pi)
    assert verify_schedule(g, sched, pi)


# ---------------------------------------------------------------------------
# simulate_round_with_swaps
# ---------------------------------------------------------------------------

def round_for(g, pi):
    sched = greedy_schedule(g, pi)
    (rnd,) = rounds_of(sched)
    return rnd


def test_replay_matches_round_execution():
    g = generate_graph("grid", n=5, d=2)
    for seed in range(8):
        pi = generate_permutation("random", g, seed=seed, k=6)
        for rnd in rounds_of(greedy_schedule(g, pi)):
            replay = simulate_round_with_swaps(g, rnd)
            direct = apply_schedule(g, Schedule([[rnd]]))
            swapped = apply_schedule(g, replay)
            assert direct.slots == swapped.slots


def test_replay_wheel_round():
    g = generate_graph("wheel", n=8)
    pi = generate_permutation("wheel", g, l=2)
    replay = simulate_round_with_swaps(g, round_for(g, pi))
    assert verify_schedule(g, replay, pi)


def test_replay_ladder_round():
    g = generate_graph("ladder", n=4)
    pi = generate_permutation("random", g, seed=11)
    (rnd,) = rounds_of(ladder_schedule(g, pi))
    replay = simulate_round_with_swaps(g, rnd)
    assert verify_schedule(g, replay, pi)
    assert replay.depth() <= 20 * (4 + diameter(g))


def test_replay_long_swap_transfer_uses_sparse_gather():
    g = generate_graph("path", n=31)
    rnd = TeleRound((Transfer(tuple(range(31)), kind="swap"),))
    replay = simulate_round_with_swaps(g, rnd)
    pi = Permutation.from_pairs(31, [(0, 30)])
    assert verify_schedule(g, replay, pi)
    assert replay.depth() <= 20 * (diameter(g) + 2)


def test_replay_short_transfers_parallel_classes():
    g = generate_graph("grid", n=8, d=2)
    # four disjoint adjacent swaps: all corridors fit one class each
    pairs = [(0, 1), (16, 17), (34, 35), (60, 61)]
    rnd = TeleRound(tuple(
        Transfer((a, b), kind="swap") for a, b in pairs))
    replay = simulate_round_with_swaps(g, rnd)
    assert verify_schedule(g, replay, Permutation.from_pairs(64, pairs))


def test_replay_depth_within_grid_budget():
    g = generate_graph("grid", n=8, d=2)
    bound = 20 * (8 + diameter(g))
    for seed in range(6):
        pi = generate_permutation("random", g, seed=seed, k=8)
        for rnd in rounds_of(greedy_schedule(g, pi)):
            assert simulate_round_with_swaps(g, rnd).depth() <= bound


def test_replay_rejects_unbalanced_round():
    g = generate_graph("path", n=5)
    with pytest.raises(ValueError, match="self-contained"):
        simulate_round_with_swaps(g, TeleRound((Transfer((0, 1, 2)),)))


def test_replay_rejects_double_send():
    g = generate_graph("path", n=5)
    rnd = TeleRound((Transfer((0, 1), kind="swap"),
                     Transfer((0, 1, 2), kind="move")))
    with pytest.raises(ValueError, match="two tokens"):
        simulate_round_with_swaps(g, rnd)


# ---------------------------------------------------------------------------
# advantage
# ---------------------------------------------------------------------------

def test_advantage_path_diameter():
    g = generate_graph("path", n=31)
    adv = advantage(g, generate_permutation("diam", g))
    assert isinstance(adv, Fraction)
    assert 30 <= adv <= 93


def test_advantage_identity_is_one():
    g = generate_graph("path", n=9)
    assert advantage(g, Permutation.identity(9)) == Fraction(1)


def test_advantage_wheel_exceeds_one():
    g = generate_graph("wheel", n=8)
    assert advantage(g, generate_permutation("wheel", g, l=2)) > 1


def test_advantage_ladder_uses_single_round():
    g = generate_graph("ladder", n=4)
    pi = generate_permutation("random", g, seed=5)
    adv = advantage(g, pi)
    assert adv == Fraction(int(adv))  # denominator 1: one teleport round
    assert adv >= 1


def test_advantage_ladder_small_budget_falls_back():
    g = generate_graph("ladder", n=3, ancilla_budget=4)
    pi = generate_permutation("reflection", g)
    assert advantage(g, pi) >= 1


# ---------------------------------------------------------------------------
# teleport_schedule: the ladder-or-greedy dispatch
# ---------------------------------------------------------------------------

def test_teleport_schedule_dispatch():
    ladder = generate_graph("ladder", n=3)
    small = generate_graph("ladder", n=3, ancilla_budget=4)
    grid = generate_graph("grid", n=4, d=2)
    for g, expected in ((ladder, ladder_schedule), (small, greedy_schedule),
                        (grid, greedy_schedule)):
        pi = generate_permutation("reflection", g)
        assert teleport_schedule(g, pi).to_json() == expected(g, pi).to_json()
    with pytest.raises(ValueError, match="does not match"):
        teleport_schedule(ladder, Permutation.identity(3))
