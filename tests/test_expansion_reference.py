"""Exact vertex expansion on bitsets against the frozen float32 sweep.

The reference below is how the library first computed c(G): 0/1
membership rows for every mask, multiplied by the adjacency matrix in
float32, with boundaries counted from the product.  The library now
reads every boundary off a table of low-bit subset neighbourhoods with
popcounts.  Both must return the same ``(c, witness)``: the same value
and, through the tie rule (the smallest mask with the smallest ratio),
the same cut.

For n <= 16 the reference runs on random connected graphs with shuffled
labels, on stars and brooms and on K5 plus a pendant (where the minimum
sits on the large side), both in one block and with the block size
shrunk so that the sweep crosses many blocks.  For 17 <= n <= 24 the
reference takes seconds, so the answers it gave there are pinned as
literals.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import bounds
from teleroute.bounds import vertex_expansion_exact
from teleroute.graphs import ArchGraph, generate_graph, vertex_boundary


# ---------------------------------------------------------------------------
# the reference sweep (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_vertex_expansion_exact(g):
    n = g.n
    adj = np.zeros((n, n), dtype=np.float32)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=0)

    best = math.inf
    best_mask = None
    total = 1 << (n - 1)
    block = 1 << 18
    bits = np.arange(n, dtype=np.uint32)
    for start in range(1, total, block):
        stop = min(start + block, total)
        masks = np.arange(start, stop, dtype=np.uint32)
        member = ((masks[:, None] >> bits) & 1).astype(np.float32)
        inside = member @ adj
        bnd_s = ((inside > 0) & (member == 0)).sum(axis=1)
        bnd_c = ((inside < deg) & (member == 1)).sum(axis=1)
        size = member.sum(axis=1)
        small = np.minimum(size, n - size)
        ratio = np.minimum(bnd_s, bnd_c) / small
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            best_mask = int(masks[i])

    xs = {v for v in range(n) if best_mask >> v & 1}
    comp = set(range(n)) - xs
    b_s = len(vertex_boundary(g, xs))
    b_c = len(vertex_boundary(g, comp))
    witness = xs if b_s <= b_c else comp
    c = Fraction(min(b_s, b_c), min(len(xs), len(comp)))
    return c, tuple(sorted(witness))


@contextmanager
def block_bits(bits):
    saved = bounds._BLOCK_BITS
    bounds._BLOCK_BITS = bits
    try:
        yield
    finally:
        bounds._BLOCK_BITS = saved


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def relabel(n, pairs, rng):
    label = list(range(n))
    rng.shuffle(label)
    edges = {(min(label[a], label[b]), max(label[a], label[b]))
             for a, b in pairs if a != b}
    return ArchGraph(n, tuple(edges))


def random_graph(n, seed):
    """A random spanning tree plus each other pair with probability
    0..0.6, labels shuffled."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    p = rng.uniform(0.0, 0.6)
    pairs += [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return relabel(n, pairs, rng)


def broom(n, handle, seed):
    """A path of ``handle`` vertices whose last vertex is the centre of
    a star on the rest, labels shuffled (handle 1 is a star)."""
    pairs = [(i, i + 1) for i in range(handle - 1)]
    pairs += [(handle - 1, v) for v in range(handle, n)]
    return relabel(n, pairs, random.Random(seed))


def k5_pendant(seed):
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5)]
    return relabel(6, pairs, random.Random(seed))


def check(g, log_blocks):
    """Compare with the reference in one block and in up to
    2^log_blocks blocks."""
    want = ref_vertex_expansion_exact(g)
    for b in (16, max(1, g.n - 1 - log_blocks)):
        with block_bits(b):
            assert vertex_expansion_exact(g) == want


LOG_BLOCKS = st.integers(1, 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1), LOG_BLOCKS)
def test_random_graphs_match_reference(n, seed, log_blocks):
    check(random_graph(n, seed), log_blocks)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2 ** 32 - 1), LOG_BLOCKS)
def test_stars_and_brooms_match_reference(data, seed, log_blocks):
    n = data.draw(st.integers(3, 16))
    handle = data.draw(st.integers(1, n - 2))
    check(broom(n, handle, seed), log_blocks)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("log_blocks", (1, 2, 4))
def test_k5_pendant_large_side_matches_reference(seed, log_blocks):
    g = k5_pendant(seed)
    assert ref_vertex_expansion_exact(g)[0] == Fraction(1, 2)
    check(g, log_blocks)


# ---------------------------------------------------------------------------
# 17 <= n <= 24: answers of the reference sweep, pinned
# ---------------------------------------------------------------------------

def random_connected(n, seed):
    # the same generator as in test_bounds.py
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
    return ArchGraph(n, tuple(edges))


PINNED = [
    ("butterfly-3", lambda: generate_graph("butterfly", r=3),
     Fraction(7, 12), (0, 1, 2, 4, 5, 8, 9, 10, 11, 12, 16, 17)),
    ("wheel-19", lambda: generate_graph("wheel", n=19),
     Fraction(3, 10), tuple(range(10))),
    ("wheel-23", lambda: generate_graph("wheel", n=23),
     Fraction(1, 4), tuple(range(12))),
    ("path-20", lambda: generate_graph("path", n=20),
     Fraction(1, 10), tuple(range(10))),
    ("path-24", lambda: generate_graph("path", n=24),
     Fraction(1, 12), tuple(range(12))),
    ("complete-20", lambda: generate_graph("complete", n=20),
     Fraction(1), tuple(range(1, 20))),
    ("random-18", lambda: random_connected(18, 1),
     Fraction(2, 7), (6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17)),
    ("random-21", lambda: random_connected(21, 2),
     Fraction(3, 10), (2, 3, 4, 8, 11, 13, 14, 16, 17, 19, 20)),
]


@pytest.mark.parametrize("make,c,witness", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_large_graphs_match_pinned_reference(make, c, witness):
    g = make()
    assert 17 <= g.n <= 24
    assert vertex_expansion_exact(g) == (c, witness)
