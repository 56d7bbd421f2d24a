"""Closed-form family eccentricities against the BFS they replace.

:func:`eccentricities` answers a built-in family from its params alone.
The oracle is the same graph rebuilt with no family, which takes the
tree rule or the all-sources word sweep: every eccentricity, the
centre, the diameter and the ``diam`` permutation must agree, at
hypothesis-drawn sizes, at each family's smallest sizes and at every
size the benchmark builds.

A guard counts ``graphs._sweep_levels`` calls: the sparse router, the
``diam`` permutation and ``bounds_report`` must not sweep a family
graph, while the same graph without its family still does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import graphs
from teleroute.bounds import bounds_report
from teleroute.graphs import (
    FAMILY_PARAMS,
    ArchGraph,
    diameter,
    eccentricities,
    generate_graph,
    generate_permutation,
    graph_center,
)
from teleroute.sparse_routing import sparse_route


def plain(g):
    """``g`` with no family: its eccentricities come from a BFS."""
    return ArchGraph(g.n, g.edges, labels=g.labels)


def check(g):
    ref = plain(g)
    assert eccentricities(g) == eccentricities(ref)
    assert graph_center(g) == graph_center(ref)
    assert diameter(g) == diameter(ref)
    assert (generate_permutation("diam", g).image
            == generate_permutation("diam", ref).image)


# each family's sizes: the smallest it builds, then those of the benchmark
BOUNDARY = [
    ("path", {"n": 1}), ("path", {"n": 2}),
    ("complete", {"n": 1}), ("complete", {"n": 2}),
    ("wheel", {"n": 3}), ("wheel", {"n": 4}),
    ("ladder", {"n": 1}), ("ladder", {"n": 2}),
    ("hypercube", {"d": 1}),
    ("butterfly", {"r": 2}),
    ("grid", {"n": 1, "d": 1}), ("grid", {"n": 1, "d": 3}),
    ("grid", {"n": 5, "d": 1}),
]
BENCH = (
    [("path", {"n": n}) for n in (8, 16, 20, 30, 64, 256, 384, 1024)]
    + [("grid", {"n": n, "d": 2}) for n in (3, 4, 6, 8, 16, 32)]
    + [("hypercube", {"d": d}) for d in (3, 4, 6, 8, 10)]
    + [("butterfly", {"r": r}) for r in (3, 4, 6, 7)]
    + [("wheel", {"n": n}) for n in (15, 19, 63, 255, 1023)]
    + [("ladder", {"n": n}) for n in (4, 6, 8)]
    + [("complete", {"n": 64})]
)


@pytest.mark.parametrize("family, params", BOUNDARY + BENCH)
def test_fixed_sizes_match_the_sweep(family, params):
    check(generate_graph(family, **params))


SIZES = {
    "path": st.fixed_dictionaries({"n": st.integers(1, 200)}),
    "complete": st.fixed_dictionaries({"n": st.integers(1, 40)}),
    "wheel": st.fixed_dictionaries({"n": st.integers(3, 200)}),
    "ladder": st.fixed_dictionaries({"n": st.integers(1, 8)}),
    "hypercube": st.fixed_dictionaries({"d": st.integers(1, 9)}),
    "butterfly": st.fixed_dictionaries({"r": st.integers(2, 6)}),
    "grid": st.one_of(
        st.fixed_dictionaries({"n": st.integers(1, 40), "d": st.just(1)}),
        st.fixed_dictionaries({"n": st.integers(1, 20), "d": st.just(2)}),
        st.fixed_dictionaries({"n": st.integers(1, 7), "d": st.just(3)}),
        st.fixed_dictionaries({"n": st.integers(1, 4), "d": st.just(4)})),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SIZES)).flatmap(
    lambda f: st.tuples(st.just(f), SIZES[f])))
def test_drawn_sizes_match_the_sweep(case):
    family, params = case
    check(generate_graph(family, **params))


# -- the guard ---------------------------------------------------------------


@pytest.fixture
def sweeps(monkeypatch):
    """The graphs ``graphs._sweep_levels`` is called on, in order."""
    calls = []
    real = graphs._sweep_levels

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "_sweep_levels", counted)
    return calls


GUARDED = [("path", {"n": 12}), ("complete", {"n": 6}), ("wheel", {"n": 7}),
           ("ladder", {"n": 3}), ("hypercube", {"d": 3}),
           ("butterfly", {"r": 2}), ("grid", {"n": 3, "d": 2})]


def test_every_family_is_covered():
    for cases in (SIZES, dict(BOUNDARY), dict(GUARDED)):
        assert set(cases) == set(FAMILY_PARAMS)


@pytest.mark.parametrize("family, params", GUARDED)
def test_family_graphs_never_sweep(sweeps, family, params):
    g = generate_graph(family, **params)
    pi = generate_permutation("random", g, seed=1, k=4)
    sparse_route(g, pi)
    generate_permutation("diam", g)
    bounds_report(g)
    assert sweeps == []


def test_a_graph_without_family_still_sweeps(sweeps):
    ref = plain(generate_graph("grid", n=3, d=2))
    eccentricities(ref)
    assert sweeps == [ref]
