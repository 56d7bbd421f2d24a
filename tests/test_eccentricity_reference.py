"""The all-sources eccentricity sweep against frozen per-source loops.

The reference below is how the library first answered eccentricity
questions: one FIFO BFS per vertex, and ``graph_center``, ``diameter``
and the ``diam`` permutation each looping over those BFS runs.  The
library now reads all three off :func:`eccentricities`, which takes
three BFS sweeps on a tree (the two ends of a diameter decide every
eccentricity) and a bit-parallel BFS over 64-bit words on any other
graph, so on random connected graphs every answer must be equal.  Paths
and stars exercise the tree rule; dense graphs and random trees with up
to n/4 extra edges (a tree when n < 4 or every extra edge is a loop or
a repeat) exercise the word sweep.  Vertex counts at the edges of a
word (1, 2, 63, 64, 65, 128, 129) are always tried.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute.graphs import (
    ArchGraph,
    diameter,
    eccentricities,
    generate_permutation,
    graph_center,
)


# ---------------------------------------------------------------------------
# the reference loops (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_bfs_distances(g, source):
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def ref_eccentricity(g, v):
    return max(ref_bfs_distances(g, v))


def ref_diameter(g):
    return max(ref_eccentricity(g, v) for v in range(g.n))


def ref_graph_center(g):
    best, best_e = 0, ref_eccentricity(g, 0)
    for v in range(1, g.n):
        e = ref_eccentricity(g, v)
        if e < best_e:
            best, best_e = v, e
    return best


def ref_perm_diam_support(g):
    best = None
    dmax = -1
    for u in range(g.n):
        dist = ref_bfs_distances(g, u)
        for v in range(u + 1, g.n):
            if dist[v] > dmax:
                dmax = dist[v]
                best = (u, v)
    return () if best is None else best


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

WORD_EDGES = (1, 2, 63, 64, 65, 128, 129)
SHAPES = ("path", "star", "dense", "tree")


def build(n, shape, seed):
    """A connected graph on n vertices with shuffled labels: a path, a
    star, a dense random graph (a spanning tree plus each other pair
    with probability 0.3..0.9) or a sparse one (a random tree plus up
    to n/4 extra edges)."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        if shape == "dense":
            p = rng.uniform(0.3, 0.9)
            pairs += [(u, v) for v in range(n) for u in range(v)
                      if rng.random() < p]
        else:
            pairs += [(rng.randrange(n), rng.randrange(n))
                      for _ in range(n // 4)]
    edges = {(min(label[a], label[b]), max(label[a], label[b]))
             for a, b in pairs if a != b}
    return ArchGraph(n, tuple(edges))


def check(g):
    ecc = eccentricities(g)
    assert ecc == [ref_eccentricity(g, v) for v in range(g.n)]
    assert graph_center(g) == ref_graph_center(g)
    assert diameter(g) == ref_diameter(g)
    assert generate_permutation("diam", g).support() == \
        ref_perm_diam_support(g)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", WORD_EDGES)
def test_word_edge_sizes_match_reference(n, shape):
    check(build(n, shape, seed=n))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 130)),
       st.sampled_from(SHAPES), st.integers(0, 2 ** 32 - 1))
def test_random_graphs_match_reference(n, shape, seed):
    check(build(n, shape, seed))
