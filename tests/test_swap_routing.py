"""Swap-router tests: every schedule is re-executed on the token
simulator and checked against the requested permutation, and each
router's depth contract is asserted on generated and adversarial
instances."""

import random

import pytest

from teleroute.execute import verify_schedule
from teleroute.graphs import (
    ArchGraph,
    Permutation,
    bfs_distances,
    cartesian_product,
    generate_graph,
    generate_permutation,
    spanning_tree,
)
from teleroute import swap_routing
from teleroute.schedule import Schedule
from teleroute.swap_routing import (
    route_complete,
    route_generic,
    route_product,
    route_tree,
)


def shuffled(n: int, seed: int) -> Permutation:
    img = list(range(n))
    random.Random(seed).shuffle(img)
    return Permutation(tuple(img))


def random_tree(n: int, seed: int) -> ArchGraph:
    rng = random.Random(seed)
    edges = sorted((rng.randrange(v), v) for v in range(1, n))
    return ArchGraph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_path_oet_random(n):
    g = generate_graph("path", n=n)
    for seed in range(20):
        pi = shuffled(n, 1000 * n + seed)
        sched = route_generic(g, pi)
        assert verify_schedule(g, sched, pi)
        assert sched.depth() <= n


def test_path_oet_endpoint_exchange_depths():
    # alternating transposition layers on an endpoint exchange
    expected = {2: 1, 3: 3, 4: 3, 5: 5}
    for m, depth in expected.items():
        g = generate_graph("path", n=m)
        img = list(range(m))
        img[0], img[m - 1] = m - 1, 0
        pi = Permutation(tuple(img))
        sched = route_generic(g, pi)
        assert verify_schedule(g, sched, pi)
        assert sched.depth() == depth


def test_path_oet_reflection():
    g = generate_graph("path", n=5)
    pi = generate_permutation("reflection", g)
    sched = route_generic(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() == 5


def test_path_oet_identity_empty():
    g = generate_graph("path", n=6)
    assert route_generic(g, Permutation.identity(6)).depth() == 0


# ---------------------------------------------------------------------------
# complete graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
def test_complete_random(n):
    g = generate_graph("complete", n=n)
    for seed in range(20):
        pi = shuffled(n, 2000 * n + seed)
        sched = route_complete(g, pi)
        assert verify_schedule(g, sched, pi)
        assert sched.depth() <= 2


def test_complete_transposition_single_layer():
    g = generate_graph("complete", n=5)
    pi = Permutation.from_pairs(5, [(1, 3)])
    sched = route_complete(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() == 1


def test_complete_rejects_non_complete():
    g = generate_graph("path", n=4)
    with pytest.raises(ValueError):
        route_complete(g, Permutation.identity(4))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def test_tree_star_leaf_exchange_three_swaps():
    g = ArchGraph(4, ((0, 1), (0, 2), (0, 3)))
    pi = Permutation((0, 2, 1, 3))
    sched = route_tree(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() == 3
    assert sum(len(step) for step in sched.timesteps) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 16, 25, 48])
def test_tree_random(n):
    for seed in range(12):
        g = random_tree(n, 3000 * n + seed)
        pi = shuffled(n, 4000 * n + seed)
        sched = route_tree(g, pi)
        assert verify_schedule(g, sched, pi)
        assert sched.depth() <= 3 * n


def balanced_binary(depth: int) -> ArchGraph:
    n = 2 ** depth - 1
    edges = [(v, 2 * v + 1) for v in range(n) if 2 * v + 1 < n]
    edges += [(v, 2 * v + 2) for v in range(n) if 2 * v + 2 < n]
    return ArchGraph(n, tuple(sorted(edges)))


def test_tree_balanced_binary_mirror():
    g = balanced_binary(4)

    def mirror(v: int) -> int:
        bits = []
        while v:
            bits.append((v - 1) % 2)
            v = (v - 1) // 2
        u = 0
        for b in reversed(bits):
            u = 2 * u + 2 - b
        return u

    pi = Permutation(tuple(mirror(v) for v in range(g.n)))
    sched = route_tree(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() <= 3 * g.n


def test_tree_caterpillar_reversal():
    spine = 10
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        edges.append((i, n))
        n += 1
    g = ArchGraph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))
    pi = Permutation(tuple(reversed(range(n))))
    sched = route_tree(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() <= 3 * n


def test_tree_double_star_cross_exchange():
    # two hubs, k leaves each, every leaf swaps sides: maximal
    # traffic through a single cut edge
    k = 10
    n = 2 * k + 2
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)]
    edges += [(1, 2 + k + i) for i in range(k)]
    g = ArchGraph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))
    img = list(range(n))
    for i in range(k):
        img[2 + i], img[2 + k + i] = 2 + k + i, 2 + i
    pi = Permutation(tuple(img))
    sched = route_tree(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() <= 3 * n


def test_tree_path_shaped_with_scrambled_indices():
    # a path whose vertex numbering is not the line order
    g = ArchGraph(5, ((0, 3), (1, 4), (2, 4), (0, 2)))  # 3-0-2-4-1
    pi = Permutation((1, 0, 2, 4, 3))
    sched = route_tree(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() <= 5


def test_tree_spanning_trees_of_dense_graphs():
    for kind, params in [("wheel", {"n": 12}), ("hypercube", {"d": 4}),
                         ("butterfly", {"r": 3})]:
        base = generate_graph(kind, **params)
        g = ArchGraph(base.n, tuple(sorted(spanning_tree(base, 0))))
        pi = Permutation(tuple(reversed(range(g.n))))
        sched = route_tree(g, pi)
        assert verify_schedule(g, sched, pi)
        assert sched.depth() <= 3 * g.n


def test_tree_rejects_non_tree():
    g = generate_graph("wheel", n=5)
    with pytest.raises(ValueError):
        route_tree(g, Permutation.identity(6))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_grid_random():
    p4 = generate_graph("path", n=4)
    grid = generate_graph("grid", n=4, d=2)
    for seed in range(20):
        pi = shuffled(16, 100 + seed)
        sched = route_product(p4, p4, pi)
        assert verify_schedule(grid, sched, pi)
        assert sched.depth() <= 2 * 4 + 4  # 2*D1 + D2 with OET factors


def test_product_grid_seed_one():
    p4 = generate_graph("path", n=4)
    grid = generate_graph("grid", n=4, d=2)
    pi = generate_permutation("random", grid, seed=1)
    sched = route_product(p4, p4, pi)
    assert verify_schedule(grid, sched, pi)
    assert sched.depth() <= 12


def test_product_within_one_row():
    # a permutation confined to one row costs at most one row phase
    p4 = generate_graph("path", n=4)
    grid = generate_graph("grid", n=4, d=2)
    img = list(range(16))
    img[0:4] = [2, 0, 3, 1]
    pi = Permutation(tuple(img))
    sched = route_product(p4, p4, pi)
    assert verify_schedule(grid, sched, pi)
    assert sched.depth() <= 4


def test_product_mixed_factors():
    g1 = generate_graph("complete", n=3)
    g2 = generate_graph("path", n=4)
    prod = cartesian_product(g1, g2)
    for seed in range(10):
        pi = shuffled(12, 900 + seed)
        sched = route_product(g1, g2, pi)
        assert verify_schedule(prod, sched, pi)
        assert sched.depth() <= 2 * 2 + 4


@pytest.mark.parametrize("phase", [0, 1, 2])
def test_product_self_check_replays_emitted_swaps(monkeypatch, phase):
    # drop the last layer of the sub-schedule routed for one image in
    # the given phase: every copy with that image now misses it, and
    # only a replay of the emitted swaps can notice.  On path(2) x
    # path(4), phases 0 and 2 route the four 2-vertex columns and phase
    # 1 the two 4-vertex rows.
    routed = swap_routing.route_generic
    images: list[list[tuple[int, ...]]] = [[], [], []]
    corrupted = []

    def corrupt(g, pi):
        k = 1 if g.n == 4 else 2 if images[1] else 0
        images[k].append(pi.image)
        sched = routed(g, pi)
        if k == phase and not corrupted and sched.timesteps:
            corrupted.append(pi.image)
            return Schedule(sched.timesteps[:-1])
        return sched

    monkeypatch.setattr(swap_routing, "route_generic", corrupt)
    p2, p4 = generate_graph("path", n=2), generate_graph("path", n=4)
    with pytest.raises(AssertionError, match="failed to place a token"):
        route_product(p2, p4, shuffled(8, 0))
    assert corrupted
    # the copies' images per phase are (0,1) (1,0) (0,1) (0,1), then
    # (0,3,1,2) (0,1,3,2), then (1,0) (1,0) (0,1) (0,1): one routing
    # per distinct image, 6 calls where one per copy would make 10
    assert [sorted(ims) for ims in images] == [
        [(0, 1), (1, 0)], [(0, 1, 3, 2), (0, 3, 1, 2)], [(0, 1), (1, 0)]]


@pytest.mark.parametrize("kind,params,factors", [
    ("hypercube", {"d": 6}, [("path", 2)] * 5 + [("hypercube", d)
                                                   for d in range(1, 6)]),
    ("grid", {"n": 3, "d": 4}, [("path", 3)] * 3 + [("grid", d)
                                                     for d in range(1, 4)]),
])
def test_generic_builds_each_product_factor_once(monkeypatch, kind, params,
                                                 factors):
    # every level splits off one path and one smaller graph of the
    # family, however many copies of it the level above routes
    built = []
    generate = swap_routing.generate_graph

    def counted(kind, ancilla_budget, **params):
        built.append((kind, params.get("d", params.get("n"))))
        return generate(kind, ancilla_budget, **params)

    monkeypatch.setattr(swap_routing, "generate_graph", counted)
    g = generate_graph(kind, **params)
    pi = generate_permutation("random", g, seed=1)
    assert verify_schedule(g, route_generic(g, pi), pi)
    assert sorted(built) == sorted(factors)


# ---------------------------------------------------------------------------
# generic dispatch
# ---------------------------------------------------------------------------

FAMILIES = [
    ("path", {"n": 9}),
    ("complete", {"n": 7}),
    ("wheel", {"n": 8}),
    ("ladder", {"n": 4}),
    ("hypercube", {"d": 3}),
    ("hypercube", {"d": 4}),
    ("butterfly", {"r": 2}),
    ("grid", {"n": 3, "d": 2}),
    ("grid", {"n": 5, "d": 2}),
    ("grid", {"n": 3, "d": 3}),
]


@pytest.mark.parametrize("kind,params", FAMILIES)
def test_generic_families(kind, params):
    g = generate_graph(kind, **params)
    for seed in range(10):
        pi = shuffled(g.n, 5000 + 37 * seed + g.n)
        sched = route_generic(g, pi)
        assert verify_schedule(g, sched, pi)
        depth = sched.depth()
        assert depth <= 3 * g.n
        displacement = max(bfs_distances(g, v)[pi(v)] for v in range(g.n))
        assert depth >= displacement


def test_generic_identity_is_empty():
    for kind, params in FAMILIES:
        g = generate_graph(kind, **params)
        assert route_generic(g, Permutation.identity(g.n)).depth() == 0


def test_generic_diameter_exchange_lower_bound():
    g = generate_graph("path", n=31)
    pi = generate_permutation("diam", g)
    sched = route_generic(g, pi)
    assert verify_schedule(g, sched, pi)
    assert sched.depth() >= 30


def test_generic_rejects_size_mismatch():
    g = generate_graph("path", n=4)
    with pytest.raises(ValueError):
        route_generic(g, Permutation.identity(5))
