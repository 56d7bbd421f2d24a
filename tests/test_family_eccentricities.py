"""Closed-form family graphs and eccentricities against the checks and
BFS they replace.

:func:`generate_graph` builds a family's edges and neighbour lists in
closed form, skipping :class:`ArchGraph`'s checks, and
:func:`eccentricities` answers a built-in family from its params alone.
The oracle is the same graph rebuilt with no family by the checked
constructor, which takes the tree rule or the all-sources word sweep:
the edges, neighbour lists and labels, every eccentricity, the centre,
the diameter and the ``diam`` permutation must agree, at
hypothesis-drawn sizes, at each family's smallest sizes and at every
size the benchmark builds.

Two guards count calls.  The sparse router, the ``diam`` permutation
and ``bounds_report`` must not run ``graphs._sweep_levels`` on a family
graph, while the same graph without its family still does.  Building a
family graph, loading its canonical file and sizing its distance rows
must run neither the constructor's edge walk
(``graphs._canonical_adjacency``) nor a BFS from vertex 0, while the
family-less copy runs each check once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute import graphs, tele_routing
from teleroute.bounds import bounds_report
from teleroute.graphs import (
    FAMILY_PARAMS,
    ArchGraph,
    diameter,
    distance_rows,
    eccentricities,
    generate_graph,
    generate_permutation,
    graph_center,
    graph_from_json,
    graph_to_json,
)
from teleroute.sparse_routing import sparse_route


def plain(g):
    """``g`` with no family, through every check of the constructor:
    its eccentricities come from a BFS."""
    return ArchGraph(g.n, g.edges, g.ancilla_budget, g.labels)


def check(g):
    ref = plain(g)
    # canonical edges are kept as given, and the constructor found them
    # connected
    assert ref.edges is g.edges
    assert (ref._adj, ref.labels) == (g._adj, g.labels)
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


@pytest.fixture
def checks(monkeypatch):
    """The names of the graph checks called, in order: the
    constructor's canonical edge walk and every BFS, in ``graphs`` and
    in ``tele_routing``."""
    calls = []
    for mod, name in ((graphs, "_canonical_adjacency"),
                      (graphs, "bfs_distances"),
                      (tele_routing, "bfs_distances")):
        real = getattr(mod, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("family, params", GUARDED)
def test_family_graphs_are_not_checked_again(checks, family, params):
    g = generate_graph(family, **params)
    assert graph_from_json(graph_to_json(g) + "\n") == g
    distance_rows(g)
    # more targets than ecc(0), so the hops take the distance rows
    tele_routing._dag_hops(g, g.ancilla_budget, range(g.n))
    assert checks == []


def test_a_graph_without_family_is_checked(checks):
    g = generate_graph("grid", n=3, d=2)
    assert checks == []
    ref = plain(g)
    assert checks == ["_canonical_adjacency", "bfs_distances"]
    checks.clear()
    distance_rows(ref)
    assert checks == ["bfs_distances"]
    checks.clear()
    tele_routing._dag_hops(ref, ref.ancilla_budget, range(ref.n))
    assert checks == ["bfs_distances", "bfs_distances"]
