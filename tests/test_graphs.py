"""Graph families, permutation workloads, and metric queries."""

import hashlib
import itertools
import json
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import graphs
from teleroute.graphs import (
    FAMILY_PARAMS,
    PERMUTATION_PARAMS,
    ArchGraph,
    Permutation,
    bfs_distances,
    cartesian_product,
    diameter,
    distance_rows,
    eccentricities,
    generate_graph,
    generate_permutation,
    graph_center,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    next_hop,
    shortest_path,
    spanning_tree,
    vertex_boundary,
)


def to_nx(g: ArchGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


FAMILY_SAMPLES = [
    ("path", {"n": 1}), ("path", {"n": 2}), ("path", {"n": 7}), ("path", {"n": 16}),
    ("complete", {"n": 2}), ("complete", {"n": 5}), ("complete", {"n": 9}),
    ("wheel", {"n": 3}), ("wheel", {"n": 8}), ("wheel", {"n": 16}),
    ("ladder", {"n": 1}), ("ladder", {"n": 2}), ("ladder", {"n": 3}), ("ladder", {"n": 4}),
    ("hypercube", {"d": 1}), ("hypercube", {"d": 3}), ("hypercube", {"d": 4}),
    ("butterfly", {"r": 2}), ("butterfly", {"r": 3}),
    ("grid", {"n": 3, "d": 2}), ("grid", {"n": 2, "d": 3}), ("grid", {"n": 5, "d": 1}),
]


# ---------------------------------------------------------------------------
# family structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
def test_families_simple_connected(kind, params):
    g = generate_graph(kind, **params)
    h = to_nx(g)
    assert nx.is_connected(h)
    assert all(u < v for u, v in g.edges)
    assert g.edges == tuple(sorted(g.edges))
    assert g.ancilla_budget == 6  # default


def test_family_sizes():
    assert generate_graph("path", n=7).n == 7
    assert generate_graph("complete", n=9).n == 9
    assert generate_graph("wheel", n=8).n == 9          # rim + hub
    assert generate_graph("ladder", n=4).n == 15        # 2^4 - 1
    assert generate_graph("hypercube", d=4).n == 16
    assert generate_graph("butterfly", r=3).n == 24     # r * 2^r
    assert generate_graph("grid", n=5, d=2).n == 25


def test_path_structure():
    g = generate_graph("path", n=5)
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_complete_structure():
    g = generate_graph("complete", n=4)
    assert len(g.edges) == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))


def test_wheel_structure():
    g = generate_graph("wheel", n=8)
    hub = 8
    assert g.degree(hub) == 8
    for i in range(8):
        assert g.has_edge(i, (i + 1) % 8)
        assert g.has_edge(i, hub)
        assert g.degree(i) == 3


def test_ladder_structure():
    # layers: sizes 1, 2, 4, 8; cliques within, complete joins between
    g = generate_graph("ladder", n=4)
    layer = {v: g.labels[v][0] for v in range(g.n)}
    assert [sum(1 for v in layer if layer[v] == r) for r in (1, 2, 3, 4)] == [1, 2, 4, 8]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == (abs(layer[u] - layer[v]) <= 1)
    # vertex index = address - 1: address 5 (binary 101) sits in layer 3,
    # second position (layer 3 covers addresses 4..7)
    assert g.labels[4] == (3, 2)
    assert g.labels[0] == (1, 1)


def test_hypercube_structure():
    g = generate_graph("hypercube", d=3)
    for u, v in g.edges:
        assert bin(u ^ v).count("1") == 1
    assert all(g.degree(v) == 3 for v in range(8))


def test_butterfly_structure():
    g = generate_graph("butterfly", r=3)
    # (w, i) ~ (v, i+1 mod r) iff v == w or v == w ^ (1 << i)
    for u, v in g.edges:
        wu, iu = g.labels[u]
        wv, iv = g.labels[v]
        assert (iv - iu) % 3 in (1, 2)
        lo, hi = (u, v) if (iv - iu) % 3 == 1 else (v, u)
        w, i = g.labels[lo]
        x, _ = g.labels[hi]
        assert x in (w, w ^ (1 << i))
    assert all(g.degree(v) == 4 for v in range(g.n))
    assert len(g.edges) == 3 * 8 * 2


def test_grid_matches_nx_grid():
    g = generate_graph("grid", n=4, d=2)
    h = nx.grid_2d_graph(4, 4)
    relabel = {(a, b): a * 4 + b for a, b in h.nodes}
    h = nx.relabel_nodes(h, relabel)
    assert set(g.edges) == {(min(u, v), max(u, v)) for u, v in h.edges}
    assert g.labels[7] == (1, 3)


def test_cartesian_product_matches_nx():
    g1 = generate_graph("path", n=3)
    g2 = generate_graph("complete", n=4)
    prod = cartesian_product(g1, g2)
    h = nx.cartesian_product(to_nx(g1), to_nx(g2))
    relabel = {(a, x): a * 4 + x for a, x in h.nodes}
    h = nx.relabel_nodes(h, relabel)
    assert set(prod.edges) == {(min(u, v), max(u, v)) for u, v in h.edges}


def test_graph_validation():
    with pytest.raises(ValueError, match=r"^graph must be connected$"):
        ArchGraph(3, ((0, 1),))
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        ArchGraph(2, ((0, 0),))
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        ArchGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match=r"^edge \(0,5\) out of range$"):
        ArchGraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        generate_graph("mystery", n=3)
    with pytest.raises(ValueError):
        generate_graph("path")  # missing n
    with pytest.raises(ValueError, match=r"^ancilla_budget must be >= 0$"):
        generate_graph("path", n=4, ancilla_budget=-1)


@pytest.mark.parametrize("name, value", [
    ("n", True), ("n", np.int64(4)), ("n", 3.0), ("n", "4"),
    ("ancilla_budget", False), ("ancilla_budget", np.int64(2)),
    ("ancilla_budget", 2.0),
])
def test_generate_graph_takes_exact_ints(name, value):
    # a bool was written to the file as true, which graph_from_json then
    # rejected; a numpy int built a graph graph_to_json could not write
    params = {"n": 4, name: value}
    with pytest.raises(ValueError, match=rf"^path parameter '{name}' must "
                       rf"be an integer, got {re.escape(repr(value))}$"):
        generate_graph("path", **params)


def _reference_json(g: ArchGraph) -> str:
    """graph_to_json as json.dumps of the document, edge by edge."""
    doc = {"n": g.n, "edges": [[u, v] for u, v in g.edges],
           "ancilla_budget": g.ancilla_budget}
    if g.labels is not None:
        doc["labels"] = [list(l) if isinstance(l, tuple) else l
                         for l in g.labels]
    if g.family is not None:
        doc["family"] = g.family
        doc["params"] = dict(g.params)
    return json.dumps(doc, sort_keys=True)


def _edge_forms(edges, seed):
    """The same edge set as a canonical tuple, a list, shuffled, with
    some pairs flipped, and as lists of lists."""
    rng = random.Random(seed)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled]
    yield "canonical", edges
    yield "list", list(edges)
    yield "shuffled", tuple(shuffled)
    yield "flipped", tuple(flipped)
    yield "lists", [[u, v] for u, v in flipped]


@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
def test_edge_input_forms_build_one_graph(kind, params):
    """A tuple of canonical int pairs is kept as given; any other form
    of the same edges is normalized to equal edges, sorted neighbour
    lists and the same JSON."""
    g = generate_graph(kind, **params)
    assert graph_to_json(g) == _reference_json(g)
    assert ArchGraph(g.n, g.edges).edges is g.edges
    adj = tuple(tuple(sorted(to_nx(g)[v])) for v in range(g.n))
    for name, edges in _edge_forms(g.edges, len(g.edges)):
        h = ArchGraph(g.n, edges, g.ancilla_budget, g.labels)
        assert (h.edges, h._adj) == (g.edges, adj), name
        assert graph_to_json(h) == _reference_json(h), name


def test_non_int_edges_become_ints():
    # bools and numpy ints are turned into exact ints, so their JSON is
    # the int graph's and reloads equal; any other endpoint is refused
    for edges in (((False, True), (1, 2)),
                  ((np.int64(0), np.int64(1)), (np.int32(1), 2))):
        g = ArchGraph(3, edges)
        assert {type(x) for e in g.edges for x in e} == {int}
        assert g._adj == ((1,), (0, 2), (1,))
        text = graph_to_json(g)
        assert '"edges": [[0, 1], [1, 2]]' in text
        assert graph_from_json(text) == g == ArchGraph(3, ((0, 1), (1, 2)))
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match="endpoint is not an integer"):
            ArchGraph(3, ((0, bad), (1, 2)))


# sha256 of graph_to_json for each family at its benchmark size (complete
# at n = 64), as written before the one-pass edge formatting
GRAPH_JSON_SHA256 = [
    ("ladder", {"n": 8},
     "c85091887f856ed902a427db3cd77876c6d52c442cfa207492cd85cccbb60c99"),
    ("hypercube", {"d": 10},
     "09de637344ebaff4af5aa78020b9baabd63a5de7f2615452219c0d0945fe6da2"),
    ("grid", {"n": 32, "d": 2},
     "1056ef729c9d737dc05f188976b799e55222b4cc6262edb279e62ec9f7b501d2"),
    ("butterfly", {"r": 7},
     "406502021cbc308b5d71b558d593efeaf66e5d131b56b86a17eae2d650b1a040"),
    ("wheel", {"n": 1023},
     "a41f985f92b53adbc96ac93923905df12594544bf0b60133c59ebd71d1397eec"),
    ("path", {"n": 1024},
     "264bb00e7d2ffe53974edb5b5688500122f45c5e446124bba51442d8245be2a9"),
    ("complete", {"n": 64},
     "4134919389b5c10b741c85a5d1188e52c15e418f2aafac595457ae8547091d15"),
]


@pytest.mark.parametrize("kind,params,digest", GRAPH_JSON_SHA256)
def test_graph_json_golden(kind, params, digest):
    g = generate_graph(kind, **params)
    text = graph_to_json(g)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert g.ref_hash() == digest[:16]
    assert text == json.dumps(json.loads(text), sort_keys=True)


# graph_to_json writes a graph with more than graphs._DENSE_DEGREE edges
# per vertex a vertex at a time; these sit on both sides of that rule
DENSE_RULE_SAMPLES = (
    [("ladder", {"n": n}) for n in range(1, 10)]
    + [("complete", {"n": n}) for n in range(1, 41)]
    + [("path", {"n": 64}), ("wheel", {"n": 63}), ("hypercube", {"d": 7}),
       ("butterfly", {"r": 4}), ("grid", {"n": 6, "d": 3})])


def test_graph_json_on_both_sides_of_the_dense_rule():
    sides = set()
    for kind, params in DENSE_RULE_SAMPLES:
        g = generate_graph(kind, **params)
        assert graph_to_json(g) == _reference_json(g), (kind, params)
        sides.add(len(g.edges) > graphs._DENSE_DEGREE * g.n)
        # the same edges through the constructor, with labels
        h = ArchGraph(g.n, list(g.edges), 3, tuple(range(g.n)))
        assert graph_to_json(h) == _reference_json(h), (kind, params)
    assert sides == {False, True}


@pytest.mark.parametrize("kind,params,ref", [
    ("ladder", {"n": 8}, "c85091887f856ed9"),
    ("complete", {"n": 40}, "6066530d2be9326b"),
])
def test_dense_ref_hash_is_pinned(kind, params, ref):
    assert generate_graph(kind, **params).ref_hash() == ref


def test_family_is_set_only_by_generate_graph():
    # a family that does not describe the edges made route_generic emit
    # swaps over non-edges, so the constructor takes no family at all
    edges = generate_graph("butterfly", r=2).edges
    with pytest.raises(TypeError):
        ArchGraph(8, edges, family="hypercube", params=(("d", 3),))
    g = generate_graph("grid", n=3, d=2)
    assert (g.family, g.params) == ("grid", (("d", 2), ("n", 3)))
    assert ArchGraph(g.n, g.edges, labels=g.labels).family is None


def test_family_params_name_each_generator_param():
    assert list(FAMILY_PARAMS) == [
        "path", "complete", "wheel", "ladder", "hypercube", "butterfly",
        "grid"]
    for kind, params in FAMILY_SAMPLES:
        assert set(params) == set(FAMILY_PARAMS[kind])
    assert FAMILY_PARAMS["grid"] == ("n", "d")  # the size flag comes first


# ---------------------------------------------------------------------------
# metrics, against networkx oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
def test_diameter_matches_nx(kind, params):
    g = generate_graph(kind, **params)
    assert diameter(g) == nx.diameter(to_nx(g))


def test_known_diameters():
    assert diameter(generate_graph("path", n=7)) == 6
    assert diameter(generate_graph("complete", n=9)) == 1
    assert diameter(generate_graph("wheel", n=8)) == 2
    assert diameter(generate_graph("ladder", n=4)) == 3      # layers - 1
    assert diameter(generate_graph("hypercube", d=4)) == 4
    assert diameter(generate_graph("grid", n=5, d=2)) == 8


def test_bfs_distances_match_nx():
    g = generate_graph("butterfly", r=3)
    h = to_nx(g)
    for src in (0, 5, 17):
        oracle = nx.single_source_shortest_path_length(h, src)
        got = bfs_distances(g, src)
        assert all(got[v] == oracle[v] for v in range(g.n))


def test_shortest_path_is_lex_smallest():
    g = generate_graph("wheel", n=8)
    # 0 -> 4: both rim arcs have length 4; through the hub (index 8) it's 2.
    assert shortest_path(g, 0, 4) == [0, 8, 4]
    # among all shortest paths, ours is lexicographically smallest
    h = to_nx(g)
    for u, v in [(0, 3), (2, 6), (1, 5)]:
        got = shortest_path(g, u, v)
        best = min(p for p in nx.all_shortest_paths(h, u, v))
        assert got == best
        assert len(got) - 1 == nx.shortest_path_length(h, u, v)


def test_next_hop_smallest_closer_neighbor():
    g = generate_graph("hypercube", d=3)
    dist = bfs_distances(g, 7)
    assert next_hop(g, dist, 0) == 1  # 1, 2 and 4 are all one step closer
    assert next_hop(g, dist, 6) == 7
    with pytest.raises(ValueError):
        next_hop(g, dist, 7)  # the target has no closer neighbor


def test_shortest_path_random_graphs():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randrange(5, 12)
        h = nx.gnp_random_graph(n, 0.45, seed=rng.randrange(10**6))
        if not nx.is_connected(h):
            continue
        g = ArchGraph(n, tuple((min(u, v), max(u, v)) for u, v in h.edges()))
        u, v = rng.sample(range(n), 2)
        got = shortest_path(g, u, v)
        assert got == min(nx.all_shortest_paths(h, u, v))


def test_vertex_boundary_brute_force():
    g = generate_graph("hypercube", d=3)
    for size in (1, 2, 3):
        for xs in itertools.combinations(range(g.n), size):
            want = {v for v in range(g.n)
                    if v not in xs and any(g.has_edge(v, u) for u in xs)}
            assert vertex_boundary(g, xs) == want


def test_vertex_boundary_known():
    p4 = generate_graph("path", n=4)
    assert vertex_boundary(p4, {0, 1}) == {2}
    assert vertex_boundary(p4, {1, 2}) == {0, 3}
    q3 = generate_graph("hypercube", d=3)
    assert vertex_boundary(q3, {0}) == {1, 2, 4}


@pytest.mark.parametrize("xs,bad", [({-1}, -1), ({0, 5}, 5),
                                    ({-2, 1, 7}, -2)])
def test_vertex_boundary_rejects_non_vertices(xs, bad):
    g = generate_graph("path", n=5)
    with pytest.raises(ValueError, match=rf"^vertex {bad} is not in range\(5\)$"):
        vertex_boundary(g, xs)


@pytest.mark.parametrize("bad", [-1, 5, 7])
def test_bfs_distances_rejects_non_vertices(bad):
    g = generate_graph("path", n=5)
    with pytest.raises(ValueError, match=rf"^vertex {bad} is not in range\(5\)$"):
        bfs_distances(g, bad)


@pytest.mark.parametrize("bad", [-1, 5])
def test_adjacency_queries_reject_non_vertices(bad):
    g = generate_graph("path", n=5)
    msg = rf"^vertex {bad} is not in range\(5\)$"
    for query in (lambda: g.neighbors(bad), lambda: g.degree(bad),
                  lambda: g.has_edge(bad, 3), lambda: g.has_edge(3, bad),
                  lambda: spanning_tree(g, bad),
                  lambda: distance_rows(g)[bad],
                  lambda: distance_rows(g).between([0, bad], [1, 2])):
        with pytest.raises(ValueError, match=msg):
            query()
    assert g.neighbors(4) == (3,) and g.degree(0) == 1
    assert g.has_edge(3, 4) and not g.has_edge(0, 4)


def check_distance_rows(g):
    rows = distance_rows(g)
    dists = [bfs_distances(g, t) for t in range(g.n)]
    for t in range(g.n):
        assert list(rows[t]) == dists[t]
    pairs = list(itertools.product(range(g.n), repeat=2))
    assert rows.between(*zip(*pairs)) == [dists[v][u] for u, v in pairs]


@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
def test_distance_rows_match_bfs_on_families(kind, params):
    check_distance_rows(generate_graph(kind, **params))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_distance_rows_match_bfs_on_random_graphs(n, seed, hub):
    # a random tree plus up to n/4 extra edges; with ``hub`` a vertex
    # joined to half the others, whose slots the sweep reduces in one
    # piece, where eccentricities must stay exact too
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2)))
              for _ in range(n // 4) if n > 1}
    if hub:
        edges |= {(0, v) for v in range(1, n, 2)}
    g = ArchGraph(n, tuple(edges))
    check_distance_rows(g)
    assert eccentricities(g) == [max(bfs_distances(g, v))
                                 for v in range(g.n)]


def test_spanning_tree():
    g = generate_graph("wheel", n=8)
    tree = spanning_tree(g, 8)  # rooted at the hub: a star
    assert sorted(tree) == [(8, i) for i in range(8)]
    for kind, params in FAMILY_SAMPLES:
        g = generate_graph(kind, **params)
        tree = spanning_tree(g, 0)
        assert len(tree) == g.n - 1
        h = nx.Graph(tree)
        h.add_node(0)
        assert nx.is_connected(h) and h.number_of_nodes() == g.n


def test_graph_center():
    assert graph_center(generate_graph("path", n=7)) == 3
    assert graph_center(generate_graph("wheel", n=8)) == 8
    assert graph_center(generate_graph("complete", n=5)) == 0  # tie -> lowest


def test_eccentricities_memory_stays_small():
    # 600*599 neighbour rows of 10 words would be a 27 MiB gather in one
    # piece; a gather of one neighbour slot is at most 600 rows
    g = generate_graph("complete", n=600)
    tracemalloc.start()
    try:
        ecc = eccentricities(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ecc == [1] * 600
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_basics():
    p = Permutation((1, 0, 2, 4, 3))
    assert p(0) == 1 and p(4) == 3
    assert p.support() == (0, 1, 3, 4)
    assert p.cycles() == [(0, 1), (3, 4)]
    assert Permutation.identity(4).is_identity()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_perm_identity_and_reflection():
    g = generate_graph("path", n=6)
    assert generate_permutation("identity", g).is_identity()
    refl = generate_permutation("reflection", g)
    assert refl.image == (5, 4, 3, 2, 1, 0)


def test_perm_diam():
    g = generate_graph("path", n=7)
    p = generate_permutation("diam", g)
    assert p.image[0] == 6 and p.image[6] == 0
    assert len(p.support()) == 2
    # lexicographically smallest diametral pair on the hypercube: (0, 7)
    q3 = generate_graph("hypercube", d=3)
    assert generate_permutation("diam", q3).support() == (0, 7)


def test_perm_rainbow():
    g = generate_graph("path", n=16)
    p = generate_permutation("rainbow", g, alpha=0.5)
    assert p.image[0] == 15 and p.image[15] == 0
    assert p.image[3] == 12 and p.image[12] == 3
    assert len(p.support()) == 8  # floor(16^0.5) = 4 pairs
    full = generate_permutation("rainbow", g, alpha=1.0)
    assert full.image == generate_permutation("reflection", g).image
    with pytest.raises(ValueError):
        generate_permutation("rainbow", generate_graph("complete", n=4), alpha=0.5)


def test_perm_wheel():
    g = generate_graph("wheel", n=8)
    p = generate_permutation("wheel", g, l=2)
    # segments of length 4: swap (0,3) and (4,7)
    assert p.image[0] == 3 and p.image[3] == 0
    assert p.image[4] == 7 and p.image[7] == 4
    assert p.image[8] == 8
    p4 = generate_permutation("wheel", g, l=4)
    assert p4.image[0] == 1 and p4.image[6] == 7
    with pytest.raises(ValueError):
        generate_permutation("wheel", g, l=3)  # 3 does not divide 8


def test_perm_cyclic_shift():
    g = generate_graph("path", n=5)
    p = generate_permutation("cyclic_shift", g, s=2)
    assert p.image == (2, 3, 4, 0, 1)


def test_perm_random_deterministic():
    g = generate_graph("grid", n=4, d=2)
    p1 = generate_permutation("random", g, seed=42)
    p2 = generate_permutation("random", g, seed=42)
    assert p1.image == p2.image
    p3 = generate_permutation("random", g, seed=43)
    assert p1.image != p3.image


@pytest.mark.parametrize("kind, params, needle", [
    ("rainbow", {}, "rainbow requires parameters ['alpha']"),
    ("random", {"k": 3}, "random requires parameters ['seed']"),
    ("reflection", {"seed": 1}, "reflection got unexpected parameters "
                                "['seed']"),
    ("random", {"seed": 1, "alpha": 0.5}, "random got unexpected "
                                          "parameters ['alpha']"),
    ("shuffle", {}, "unknown permutation kind 'shuffle'"),
])
def test_generate_permutation_checks_params(kind, params, needle):
    g = generate_graph("path", n=8)
    with pytest.raises(ValueError, match=re.escape(needle)):
        generate_permutation(kind, g, **params)


def test_permutation_params_table():
    assert list(PERMUTATION_PARAMS) == [
        "identity", "diam", "rainbow", "wheel", "reflection",
        "cyclic_shift", "random"]
    assert PERMUTATION_PARAMS["random"] == ("seed", "k")
    g = generate_graph("path", n=9)
    assert (generate_permutation("random", g, seed=4, k=None)
            == generate_permutation("random", g, seed=4))


def test_perm_random_support_k():
    g = generate_graph("grid", n=5, d=2)
    for seed in range(10):
        for k in (2, 4, 8):
            p = generate_permutation("random", g, seed=seed, k=k)
            assert len(p.support()) == k


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    for kind, params in FAMILY_SAMPLES:
        g = generate_graph(kind, **params)
        text = graph_to_json(g)
        doc = json.loads(text)
        assert set(doc) >= {"n", "edges", "ancilla_budget"}
        assert doc["edges"] == sorted(doc["edges"])
        assert all(u < v for u, v in doc["edges"])
        g2 = graph_from_json(text)
        assert g2.n == g.n and g2.edges == g.edges
        assert g2.ancilla_budget == g.ancilla_budget
        assert g2.labels == g.labels
        assert graph_to_json(g2) == text  # canonical: stable under reload


def test_json_family_must_build_the_file():
    # hypercube d=3's document carrying butterfly r=2's edges
    doc = json.loads(graph_to_json(generate_graph("hypercube", d=3)))
    doc["edges"] = [list(e) for e in generate_graph("butterfly", r=2).edges]
    with pytest.raises(ValueError, match="family 'hypercube'"):
        graph_from_json(json.dumps(doc))
    g = generate_graph("wheel", n=5)
    doc = json.loads(graph_to_json(g))
    # a hand-written file may list the edges in any order and direction
    doc["edges"] = [[v, u] for u, v in reversed(doc["edges"])]
    assert graph_from_json(json.dumps(doc)) == g
    doc["params"]["ancilla_budget"] = 2  # also a name generate_graph takes
    with pytest.raises(ValueError, match="unexpected parameters"):
        graph_from_json(json.dumps(doc))
    doc["family"] = "moebius"
    with pytest.raises(ValueError, match="unknown graph family 'moebius'"):
        graph_from_json(json.dumps(doc))
    del doc["family"]
    with pytest.raises(ValueError, match="without a 'family'"):
        graph_from_json(json.dumps(doc))


@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
def test_json_family_load_paths_agree(kind, params):
    """A family file whose stripped text is canonical is loaded by that
    text and keeps its hash; any other form of the same document is
    checked key by key.  Both give the graph generate_graph builds."""
    g = generate_graph(kind, **params)
    text = graph_to_json(g)
    doc = json.loads(text)
    doc["edges"] = [[v, u] for u, v in reversed(doc["edges"])]
    forms = [text, text + "\n", "  " + text + "\n\n",
             json.dumps(json.loads(text), indent=1), json.dumps(doc)]
    for form in forms:
        h = graph_from_json(form)
        assert h == g and h._adj == g._adj
        assert h.ref_hash() == g.ref_hash()
        assert ("_ref_hash" in vars(h)) == (form.strip() == text)


@pytest.mark.parametrize("kind,params", FAMILY_SAMPLES)
@pytest.mark.parametrize("budget", [0, 2, 6, 13])
def test_canonical_family_text_is_loaded_unparsed(monkeypatch, kind, params,
                                                  budget):
    """A canonical family text is matched with no ``json.loads``: the
    budget is read from its head and the family and params from its
    tail."""
    g = generate_graph(kind, ancilla_budget=budget, **params)
    text = graph_to_json(g) + "\n"
    loads = []
    monkeypatch.setattr(json, "loads", lambda *a, **k: loads.append(a))
    h = graph_from_json(text)
    assert loads == []
    assert h == g and h._adj == g._adj and vars(h)["_ref_hash"]


def _load_outcome(text):
    try:
        g = graph_from_json(text)
    except ValueError as e:
        return type(e).__name__, str(e)
    return g, g._adj, "_ref_hash" in vars(g)


def _near_canonical_forms(text):
    """Texts that differ from a canonical family text only where the
    unparsed reading of its head or tail could be fooled."""
    at = text.index('"params": ')
    return [
        text.replace('"ancilla_budget": 6', '"ancilla_budget": 06'),
        text.replace('"ancilla_budget": 6', '"ancilla_budget":6'),
        text.replace('"ancilla_budget": 6', '"ancilla_budget": 6.0'),
        text.replace('"family": "grid"', '"family": "gr\\u0069d"'),
        text.replace('"family": "grid"', '"family": "path"'),
        text[:at] + '"params": {"n": 3, "d": 2}}',
        text[:at] + '"params": {"d": 2, "n": 3.0}}',
        text[:at] + '"params": {"d": 2, "n": +3}}',
        text[:at] + '"params": {"d": 2, "n": 3, "r": 1}}',
        text[:at] + '"params": {}}',
        text + " }",
        text[:-1],
        text.replace('"edges": [', '"edges": [[0, 1], ', 1),
        text.replace('], "family"', '], "labels": [], "family"'),
        text.encode(),
    ]


def test_near_canonical_family_texts_are_parsed(monkeypatch):
    """Each near miss gives the graph, or the error text, that the
    key-by-key path gives it, and keeps no hash."""
    from teleroute import graphs

    text = graph_to_json(generate_graph("grid", n=3, d=2))
    got = [_load_outcome(form) for form in _near_canonical_forms(text)]
    monkeypatch.setattr(graphs, "_family_by_text", lambda text: None)
    want = [_load_outcome(form) for form in _near_canonical_forms(text)]
    assert got == want
    assert not any(o[2] for o in got if not isinstance(o[0], str))
    assert any(not isinstance(o[0], str) for o in got)   # some load


def test_json_is_canonical():
    g = generate_graph("path", n=4)
    text = graph_to_json(g)
    assert text == json.dumps(json.loads(text), sort_keys=True)


def test_ref_hash_stable():
    g1 = generate_graph("path", n=6)
    g2 = generate_graph("path", n=6)
    assert g1.ref_hash() == g2.ref_hash()
    assert g1.ref_hash() != generate_graph("path", n=7).ref_hash()


def test_dot_output():
    g = generate_graph("path", n=3)
    dot = graph_to_dot(g)
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert dot.rstrip().endswith("}")
