"""Expansion, lower bounds, spectral figures."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from teleroute.bounds import (
    EXACT_EXPANSION_MAX_N,
    AdvantageBounds,
    advantage_upper_bounds,
    bounds_report,
    cut_value,
    diam_expansion_rhs,
    family_witness_cut,
    iso_lower_bound,
    spectral,
    vertex_expansion_bounds,
    vertex_expansion_exact,
)
from teleroute.graphs import ArchGraph, diameter, generate_graph, vertex_boundary


def brute_expansion(g):
    """Independent oracle: minimize |boundary(X)|/min(|X|,|V-X|) over
    every nonempty proper subset, straight from the definition."""
    best, best_x = None, None
    for size in range(1, g.n):
        for xs in itertools.combinations(range(g.n), size):
            val = Fraction(len(vertex_boundary(g, xs)),
                           min(len(xs), g.n - len(xs)))
            if best is None or val < best:
                best, best_x = val, xs
    return best, set(best_x)


SMALL_FAMILIES = [
    ("path", {"n": 4}), ("path", {"n": 7}),
    ("complete", {"n": 4}), ("complete", {"n": 6}),
    ("wheel", {"n": 5}), ("wheel", {"n": 8}),
    ("ladder", {"n": 2}), ("ladder", {"n": 3}),
    ("hypercube", {"d": 2}), ("hypercube", {"d": 3}),
    ("grid", {"n": 3, "d": 2}),
]


# ---------------------------------------------------------------------------
# exact expansion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,params", SMALL_FAMILIES)
def test_exact_matches_brute_force(kind, params):
    g = generate_graph(kind, **params)
    c, witness = vertex_expansion_exact(g)
    want, _ = brute_expansion(g)
    assert c == want
    # witness attains the reported ratio under the plain definition
    got = Fraction(len(vertex_boundary(g, witness)),
                   min(len(witness), g.n - len(witness)))
    assert got == c


def test_exact_on_random_graphs():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(4, 9)
        h = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(10**6))
        if not nx.is_connected(h):
            continue
        g = ArchGraph(n, tuple((min(u, v), max(u, v)) for u, v in h.edges()))
        c, _ = vertex_expansion_exact(g)
        assert c == brute_expansion(g)[0]


def test_exact_known_values():
    assert vertex_expansion_exact(generate_graph("path", n=4)) == \
        (Fraction(1, 2), (0, 1))
    c, _ = vertex_expansion_exact(generate_graph("complete", n=4))
    assert c == 1
    c, w = vertex_expansion_exact(generate_graph("hypercube", d=3))
    assert c == Fraction(3, 4)
    assert w == (0, 1, 2, 4)  # the radius-1 ball around vertex 0
    c, _ = vertex_expansion_exact(generate_graph("hypercube", d=4))
    assert c == Fraction(3, 4)


def test_exact_finds_large_side_minimum():
    # clique K_5 with a pendant hanging off vertex 4: the minimizing cut
    # is the 4-vertex clique side (boundary 1, small side 2), which no
    # small-side-only enumeration would see.
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5)]
    g = ArchGraph(6, tuple(edges))
    c, witness = vertex_expansion_exact(g)
    assert c == Fraction(1, 2)
    assert witness == (0, 1, 2, 3)
    assert brute_expansion(g)[0] == Fraction(1, 2)


def test_exact_range_invariant():
    for kind, params in SMALL_FAMILIES:
        g = generate_graph(kind, **params)
        c, _ = vertex_expansion_exact(g)
        assert Fraction(2, g.n) <= c <= 1


def test_exact_capacity_error():
    g = generate_graph("grid", n=5, d=2)  # 25 vertices
    with pytest.raises(ValueError, match="vertex_expansion_bounds"):
        vertex_expansion_exact(g)


def test_exact_memory_stays_small():
    # 2^23 cuts at n = 24 are swept in blocks of 2^16 uint32 masks
    g = generate_graph("butterfly", r=3)
    tracemalloc.start()
    try:
        c, _ = vertex_expansion_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == Fraction(7, 12)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("cut,bad", [({-1}, -1), ({7}, 7),
                                     ({0, 1, 2, 3, 4, 9}, 9)])
def test_cut_value_rejects_non_vertices(cut, bad):
    g = generate_graph("path", n=5)
    with pytest.raises(ValueError, match=rf"^cut vertex {bad} is not in range\(5\)$"):
        cut_value(g, cut)


# ---------------------------------------------------------------------------
# interval bounds and witness cuts
# ---------------------------------------------------------------------------

def test_bounds_collapse_when_small():
    g = generate_graph("hypercube", d=3)
    lo, hi = vertex_expansion_bounds(g)
    assert lo == hi == Fraction(3, 4)


def test_bounds_butterfly():
    g = generate_graph("butterfly", r=3)  # 24 vertices: exact regime
    c, _ = vertex_expansion_exact(g)
    cut = family_witness_cut(g)
    assert cut_value(g, cut) == Fraction(2, 3)
    assert len(cut) == g.n // 2
    assert c <= cut_value(g, cut)
    g = generate_graph("butterfly", r=4)  # 64 vertices: witness regime
    lo, hi = vertex_expansion_bounds(g)
    assert hi == cut_value(g, family_witness_cut(g)) == Fraction(1, 2)
    assert lo == Fraction(2, 64)


def test_bounds_grid_hyperplane():
    g = generate_graph("grid", n=5, d=2)  # 25 vertices
    lo, hi = vertex_expansion_bounds(g)
    assert hi <= Fraction(1, 2)  # a bisecting column of 5 vs 10 vertices
    assert lo == Fraction(2, 25)
    g4 = generate_graph("grid", n=4, d=2)
    _, hi4 = vertex_expansion_bounds(g4)
    assert hi4 <= Fraction(2, 4)


def test_bounds_generic_interval():
    for kind, params in SMALL_FAMILIES:
        g = generate_graph(kind, **params)
        lo, hi = vertex_expansion_bounds(g)
        assert Fraction(2, g.n) <= lo <= hi <= 1


def test_hypercube_ball_cut():
    g = generate_graph("hypercube", d=3)
    cut = family_witness_cut(g)
    assert cut == {0, 1, 2, 4}
    assert cut_value(g, cut) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def test_iso_lower_bound():
    assert iso_lower_bound(Fraction(1)) == 1
    assert iso_lower_bound(Fraction(2, 10)) == 9
    assert iso_lower_bound(Fraction(1, 2)) == 3
    assert iso_lower_bound(Fraction(3, 4)) == 2  # ceil(8/3 - 1) = ceil(5/3)
    for bad in (0, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            iso_lower_bound(bad)


def test_diam_expansion_rhs():
    assert diam_expansion_rhs(2, 1) == 2.0
    assert diam_expansion_rhs(16, 1) == pytest.approx(8.0)
    assert diam_expansion_rhs(16, Fraction(1, 2)) == \
        pytest.approx(2 * 3 / math.log2(1.5) + 2)
    with pytest.raises(ValueError):
        diam_expansion_rhs(1, 1)
    with pytest.raises(ValueError):
        diam_expansion_rhs(8, 0)


def test_diameter_bound_holds_on_families():
    for kind, params in SMALL_FAMILIES:
        g = generate_graph(kind, **params)
        c, _ = vertex_expansion_exact(g)
        assert diameter(g) <= diam_expansion_rhs(g.n, c) + 1e-9


# ---------------------------------------------------------------------------
# spectral figures
# ---------------------------------------------------------------------------

def test_spectral_complete():
    lam2, dstar, figure = spectral(generate_graph("complete", n=4))
    assert lam2 == pytest.approx(4.0, rel=1e-6)
    assert dstar == 1
    assert figure == pytest.approx(4.0 / 16.0)


def test_spectral_path():
    lam2, _, _ = spectral(generate_graph("path", n=4))
    assert lam2 == pytest.approx(2 * (1 - math.cos(math.pi / 4)), rel=1e-9)


def test_spectral_vs_networkx():
    for kind, params in SMALL_FAMILIES:
        g = generate_graph(kind, **params)
        h = nx.Graph(list(g.edges))
        lam2, _, _ = spectral(g)
        assert lam2 == pytest.approx(
            nx.algebraic_connectivity(h, method="lanczos"), abs=1e-6)
        assert lam2 > 0


def ref_lambda2(g):
    """Frozen dense reference: the second-smallest eigenvalue of the
    full Laplacian (do not optimize)."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return float(np.linalg.eigvalsh(lap)[1])


CLOSED_FORM_RANGE = (
    [("path", {"n": n}) for n in range(2, 201)]
    + [("grid", {"n": n, "d": d}) for d in (2, 3) for n in range(2, 14)
       if n ** d <= 800]
    + [("hypercube", {"d": d}) for d in range(1, 9)]
    + [("complete", {"n": n}) for n in range(2, 41)]
    + [("wheel", {"n": n}) for n in range(3, 201)]   # rim 3 is K4
)


@pytest.mark.parametrize("kind", sorted({k for k, _ in CLOSED_FORM_RANGE}))
def test_spectral_closed_forms_match_dense_reference(kind):
    for k, params in CLOSED_FORM_RANGE:
        if k == kind:
            g = generate_graph(kind, **params)
            lam2, ref = spectral(g)[0], ref_lambda2(g)
            assert abs(lam2 - ref) <= 1e-9 * max(1.0, ref), params


@pytest.mark.parametrize("kind, params", (
    [("butterfly", {"r": r}) for r in range(2, 8)]
    + [("ladder", {"n": n}) for n in range(2, 9)]),
    ids=lambda p: p if isinstance(p, str) else str(next(iter(p.values()))))
def test_butterfly_and_ladder_lambda2_match_dense_solver(kind, params):
    g = generate_graph(kind, **params)
    bare = ArchGraph(g.n, g.edges, labels=g.labels)
    assert bare.family is None
    assert abs(spectral(g)[0] - spectral(bare)[0]) <= 1e-9


def test_spectral_familyless_path_takes_dense_solver():
    g = ArchGraph(50, tuple((i, i + 1) for i in range(49)))
    assert g.family is None
    lam2 = spectral(g)[0]
    assert lam2 == ref_lambda2(g)
    assert lam2 == pytest.approx(spectral(generate_graph("path", n=50))[0],
                                 rel=1e-9)


def test_spectral_degree_ratio():
    _, dstar, _ = spectral(generate_graph("butterfly", r=3))
    assert dstar == 1  # 4-regular
    _, dstar, _ = spectral(generate_graph("wheel", n=8))
    assert dstar == Fraction(8, 3)


# ---------------------------------------------------------------------------
# advantage ceilings and the assembled report
# ---------------------------------------------------------------------------

def test_advantage_bounds_path16():
    g = generate_graph("path", n=16)
    b = advantage_upper_bounds(g)
    assert b.linear == pytest.approx(2.0)     # 16 * (1/8)
    assert b.sqrt_log == pytest.approx(4 + 4 / (1 / 8))
    assert b.minimum == pytest.approx(2.0)


def test_advantage_bounds_complete16():
    g = generate_graph("complete", n=16)
    b = advantage_upper_bounds(g)
    assert b.linear == pytest.approx(16.0)
    assert b.sqrt_log == pytest.approx(8.0)
    assert b.minimum == pytest.approx(8.0)  # dominated by the second figure
    assert b.minimum <= b.linear


def test_advantage_accepts_explicit_c():
    g = generate_graph("path", n=16)
    b = advantage_upper_bounds(g, c=Fraction(1, 8))
    assert b.linear == pytest.approx(2.0)


def test_advantage_bounds_interval_ladder8():
    # n = 255 > 24: c is only known to lie in [2/255, 1]
    g = generate_graph("ladder", n=8)
    b = advantage_upper_bounds(g)
    assert b.linear == pytest.approx(255.0)  # N * c_upper
    assert b.sqrt_log == pytest.approx(
        math.sqrt(255) + math.log2(255) / Fraction(2, 255))
    assert b.sqrt_log == pytest.approx(1035.25, abs=0.01)
    assert b.minimum == pytest.approx(255.0)


@pytest.mark.parametrize("kind,params", [("path", {"n": 1024}),
                                         ("hypercube", {"d": 10})])
def test_advantage_bounds_interval_dominate_either_end(kind, params):
    g = generate_graph(kind, **params)
    lo, hi = vertex_expansion_bounds(g)
    b = advantage_upper_bounds(g)
    for c in (lo, hi):
        at_c = advantage_upper_bounds(g, c=c)
        assert b.linear >= at_c.linear
        assert b.sqrt_log >= at_c.sqrt_log


def random_connected(n: int, seed: int) -> ArchGraph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
    return ArchGraph(n, tuple(edges))


@pytest.mark.parametrize("g", [
    generate_graph("path", n=17), generate_graph("wheel", n=18),
    generate_graph("complete", n=20), generate_graph("butterfly", r=3),
    random_connected(18, 1), random_connected(21, 2),
], ids=["path-17", "wheel-18", "complete-20", "butterfly-3", "random-18",
        "random-21"])
def test_advantage_bounds_interval_ends_never_below_exact(g):
    # 16 < n <= 24: the interval must hold exact c, and the figures
    # advantage_upper_bounds takes from the end that favours each must
    # not fall below exact c's
    assert 16 < g.n <= EXACT_EXPANSION_MAX_N
    c = vertex_expansion_exact(g)[0]
    lo, hi = vertex_expansion_bounds(g)
    assert lo <= c <= hi
    exact = advantage_upper_bounds(g)
    assert exact == advantage_upper_bounds(g, c=c)
    assert advantage_upper_bounds(g, c=hi).linear >= exact.linear
    assert advantage_upper_bounds(g, c=lo).sqrt_log >= exact.sqrt_log


def test_bounds_report_exact():
    g = generate_graph("hypercube", d=3)
    rep = bounds_report(g)
    assert rep.exact and rep.c_lower == rep.c_upper == Fraction(3, 4)
    assert rep.diam == rep.diam_lb == 3
    assert rep.iso_lb == iso_lower_bound(Fraction(3, 4)) == 2
    doc = rep.to_dict()
    assert doc["c_lower"] == doc["c_upper"] == "3/4"
    assert doc["degree_ratio"] == "1"
    assert doc["witness_cut"] == [0, 1, 2, 4]


def test_bounds_report_interval():
    g = generate_graph("grid", n=5, d=2)
    rep = bounds_report(g)
    assert not rep.exact
    assert rep.c_lower < rep.c_upper
    doc = rep.to_dict()
    assert Fraction(doc["c_lower"]) == rep.c_lower
    assert doc["c_upper"] == "1/2"
    assert rep.iso_lb == iso_lower_bound(rep.c_upper)


@pytest.mark.parametrize("kind,params", [
    ("path", {"n": 16}), ("path", {"n": 17}), ("path", {"n": 24}),
    ("path", {"n": 25}),
    ("wheel", {"n": 15}), ("wheel", {"n": 19}), ("wheel", {"n": 23}),
    ("wheel", {"n": 24}),
    ("complete", {"n": 16}), ("complete", {"n": 20}), ("complete", {"n": 24}),
    ("complete", {"n": 25}),
    ("butterfly", {"r": 2}), ("butterfly", {"r": 3}), ("butterfly", {"r": 4}),
    ("grid", {"n": 4, "d": 2}), ("grid", {"n": 5, "d": 2}),
    ("grid", {"n": 3, "d": 3}),
    ("hypercube", {"d": 4}), ("hypercube", {"d": 5}),
    ("ladder", {"n": 4}), ("ladder", {"n": 5}),
])
def test_expansion_bounds_agree_with_report(kind, params):
    # the library and `teleroute bounds` draw the same line between
    # the exact point and the witness interval
    g = generate_graph(kind, **params)
    rep = bounds_report(g)
    assert vertex_expansion_bounds(g) == (rep.c_lower, rep.c_upper)
    assert rep.exact == (g.n <= EXACT_EXPANSION_MAX_N)
    b = advantage_upper_bounds(g)
    assert b.linear == pytest.approx(g.n * float(rep.c_upper))
    assert b.sqrt_log == pytest.approx(
        math.sqrt(g.n) + math.log2(g.n) / float(rep.c_lower))
