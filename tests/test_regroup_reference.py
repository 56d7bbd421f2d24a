"""``sparse_routing._regroup`` against a frozen copy of the all-pairs
version.

The frozen copy joins head-to-tail trains by restarting a scan of every
ordered pair of trains after each join, and clusters trains by testing
every pair of trains vertex by vertex.  The router's version makes one
pass with an index from tail vertex to train, and one union over each
train vertex's neighbours.  On random connected graphs and random
vertex-disjoint trains both must give the same clusters: the same
trains, in the same order, grouped the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute.graphs import ArchGraph, bfs_distances, generate_graph
from teleroute.sparse_routing import Train, _regroup


def frozen_regroup(g: ArchGraph, trains: list[Train], r: int,
                   dist: list[int]) -> list[tuple[Train, ...]]:
    adj = g._adj
    trains = list(trains)
    changed = True
    while changed:
        changed = False
        for i, t1 in enumerate(trains):
            for j, t2 in enumerate(trains):
                if i == j:
                    continue
                if (t2.tail in adj[t1.head]
                        and dist[t2.tail] == dist[t1.head] - 1):
                    trains[i] = Train(t1.vertices + t2.vertices, r)
                    del trains[j]
                    changed = True
                    break
            if changed:
                break

    labels = list(range(len(trains)))

    def find(a: int) -> int:
        while labels[a] != a:
            labels[a] = labels[labels[a]]
            a = labels[a]
        return a

    for i, t1 in enumerate(trains):
        for j in range(i + 1, len(trains)):
            t2 = trains[j]
            if any(v in adj[u] or u == v
                   for u in t1.vertices for v in t2.vertices):
                ra, rb = find(i), find(j)
                if ra != rb:
                    labels[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[Train]] = {}
    for i in range(len(trains)):
        groups.setdefault(find(i), []).append(trains[i])
    return [tuple(groups[root]) for root in sorted(groups)]


def both(g: ArchGraph, trains: list[Train], r: int):
    dist = bfs_distances(g, r)
    got = _regroup(g, trains, r, dist)
    assert got == frozen_regroup(g, trains, r, dist)
    return got


@st.composite
def instances(draw):
    """A connected graph on 1..14 vertices (a random tree plus extra
    edges), a centre r, and vertex-disjoint trains cut from a shuffled
    subset of the vertices, singletons often, so joins chain."""
    n = draw(st.integers(1, 14))
    edges = {tuple(sorted((v, draw(st.integers(0, v - 1)))))
             for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {tuple(sorted(e)) for e in draw(st.lists(pairs, max_size=20))
                  if e[0] != e[1]}
    g = ArchGraph(n, tuple(sorted(edges)))
    r = draw(st.integers(0, n - 1))
    verts = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    trains, at = [], 0
    while at < len(verts):
        size = draw(st.sampled_from((1, 1, 1, 2, 3)))
        trains.append(Train(tuple(verts[at:at + size]), r))
        at += size
    return g, trains, r


@settings(max_examples=200, deadline=None)
@given(instances())
def test_regroup_matches_frozen(case):
    g, trains, r = case
    both(g, trains, r)


def T(*vertices, r=0):
    return Train(vertices, r)


def test_chain_of_joins_in_either_order():
    # on a path toward r = 0, singletons join head to tail into one
    # train whether the partner comes after its train or before it
    g = generate_graph("path", n=8)
    assert both(g, [T(7), T(6), T(5), T(4)], 0) == [(T(7, 6, 5, 4),)]
    assert both(g, [T(4), T(5), T(6), T(7)], 0) == [(T(7, 6, 5, 4),)]
    # a gap splits the chain, and the two trains stay apart
    assert both(g, [T(2), T(7), T(3), T(6)], 0) == [(T(7, 6),), (T(3, 2),)]


def test_two_candidate_tails_lowest_index_wins():
    # 3's neighbours 1 and 2 are both one step closer to r = 0
    g = ArchGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert both(g, [T(3), T(2), T(1)], 0) == [(T(3, 2), T(1))]
    assert both(g, [T(3), T(1), T(2)], 0) == [(T(3, 1), T(2))]


def test_partner_before_its_train_shifts_the_index():
    # train 1 joins train 0, which precedes it; the old train 2 then
    # sits at index 1 and must still be reached, and joins train 3
    g = generate_graph("path", n=9)
    trains = [T(3), T(4), T(8, 7), T(6)]
    assert both(g, trains, 0) == [(T(4, 3),), (T(8, 7, 6),)]
