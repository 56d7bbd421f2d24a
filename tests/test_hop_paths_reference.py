"""The packer's hop paths against the load-aware BFS they replace.

The reference below is ``_load_aware_path`` as it stood when every hop
ran it: a level-by-level BFS from s over the vertices with room left
(load <= B - 2 inside, load < B at the ends), neighbours in sorted
order.  The packer now walks the shortest-path DAG toward t off trees
(and runs the BFS only when no admitted path of length d(s, t) exists)
and climbs to the lowest common ancestor on trees.  For every ordered
pair of vertices under random loads in 0..B both must return the same
path, or both None.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import tele_routing
from teleroute.graphs import (
    ArchGraph,
    bfs_distances,
    generate_graph,
    generate_permutation,
    shortest_path,
)
from teleroute.tele_routing import _dag_hops, _tree_hops, greedy_schedule


# ---------------------------------------------------------------------------
# the reference BFS (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_load_aware_path(g, s, t, load, budget):
    if load[s] >= budget or load[t] >= budget:
        return None
    adj = g._adj
    cap = budget - 2
    parent = [-1] * g.n
    parent[s] = s
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if parent[w] >= 0:
                    continue
                if w == t:
                    path = [t, v]
                    while v != s:
                        v = parent[v]
                        path.append(v)
                    path.reverse()
                    return tuple(path)
                if load[w] <= cap:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

@st.composite
def loaded_graphs(draw, tree):
    """A connected graph on at most 40 vertices (a random tree, plus
    random extra edges unless ``tree``), a budget in 2..6 and a load
    in 0..B at every vertex."""
    n = draw(st.integers(2, 40))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if not tree:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=2 * n)):
            if a != b:
                edges.add((min(a, b), max(a, b)))
    budget = draw(st.integers(2, 6))
    load = draw(st.lists(st.integers(0, budget), min_size=n, max_size=n))
    # hops run between permuted vertices; off trees a few of them take
    # a BFS each for their distances, more take the all-sources sweep
    targets = draw(st.one_of(st.just(range(n)),
                             st.sets(st.integers(0, n - 1), min_size=1,
                                     max_size=4)))
    return (ArchGraph(n, tuple(edges), ancilla_budget=budget), budget, load,
            sorted(targets))


def check_every_pair(g, budget, load, targets):
    if len(g.edges) == g.n - 1:
        hop, _ = _tree_hops(g, budget)
    else:
        hop, between = _dag_hops(g, budget, targets)
        assert between([0] * len(targets), targets) == \
            [bfs_distances(g, t)[0] for t in targets]
    for s in range(g.n):
        for t in targets:
            if s != t:
                assert hop(s, t, load) == \
                    ref_load_aware_path(g, s, t, load, budget), (s, t)


@settings(max_examples=80, deadline=None)
@given(loaded_graphs(tree=False))
def test_hops_match_bfs_on_graphs(instance):
    check_every_pair(*instance)


@settings(max_examples=60, deadline=None)
@given(loaded_graphs(tree=True))
def test_hops_match_bfs_on_trees(instance):
    check_every_pair(*instance)


# ---------------------------------------------------------------------------
# which paths need the BFS
# ---------------------------------------------------------------------------

@pytest.fixture
def bfs_calls(monkeypatch):
    """The (s, t) of every load-aware BFS the packer runs."""
    calls = []
    bfs = tele_routing._load_aware_path

    def counted(*args):
        calls.append(args[1:3])
        return bfs(*args)

    monkeypatch.setattr(tele_routing, "_load_aware_path", counted)
    return calls


def test_blocked_shortest_path_takes_the_bfs_detour(bfs_calls):
    # on the 5-cycle, 0-1-2 is the only shortest path; with vertex 1
    # full the BFS detours over 4 and 3
    g = ArchGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    for targets in ((2,), range(5)):    # one BFS row, or the sweep
        bfs_calls.clear()
        hop, between = _dag_hops(g, 6, targets)
        assert between([0], [2]) == [2]
        assert hop(0, 2, [0] * 5) == (0, 1, 2) and bfs_calls == []
        assert hop(0, 2, [0, 5, 0, 0, 0]) == (0, 4, 3, 2)
        assert bfs_calls == [(0, 2)]


def test_free_paths_are_shortest_paths():
    g = generate_graph("wheel", n=9)
    _, free = _tree_hops(generate_graph("path", n=9), 6)
    assert free(7, 2) == tuple(range(7, 1, -1))
    hop, between = _dag_hops(g, 6, range(g.n))
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                path = shortest_path(g, s, t)
                assert hop(s, t, [0] * g.n) == tuple(path)
                assert between([s], [t]) == [len(path) - 1]


def test_unloaded_fits_run_no_bfs(bfs_calls):
    # hypercube reflection pairs fit an empty round each, along their
    # free paths: no hop needs a detour
    for kind, params in (("hypercube", {"d": 6}), ("path", {"n": 64})):
        g = generate_graph(kind, **params)
        greedy_schedule(g, generate_permutation("reflection", g))
    assert bfs_calls == []
