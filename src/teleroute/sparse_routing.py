"""Ancilla-assisted routing for sparse permutations.

A permutation moving only k of N tokens is routed in three phases:
hide the unmoved tokens in local ancilla slots, gather the k moving
tokens around a central vertex by advancing token trains, tree-route
the gathered tokens among themselves, then replay the hide/gather
timesteps in reverse (every timestep is an involution) to carry each
token from its gathered slot to its true destination.

A train is a directed path of occupied vertices that advances one
vertex toward its target per round; one round always costs exactly
five timesteps (two edge-swap layers, three ancilla layers), so a
gather that takes R rounds costs 5R timesteps and depth 2R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .execute import TokenState, achieved_permutation, apply_timestep
from .graphs import (
    ArchGraph,
    Permutation,
    bfs_distances,
    graph_center,
    next_hop,
    spanning_tree,
)
from .schedule import Schedule, SwapLayer, SwapLocal
from .swap_routing import route_tree

__all__ = ["Train", "advance_train", "sparse_route"]


@dataclass(frozen=True)
class Train:
    """A maximal path of token-occupied vertices, tail first, head
    last, advancing toward ``target``."""

    vertices: tuple[int, ...]
    target: int

    @property
    def head(self) -> int:
        return self.vertices[-1]

    @property
    def tail(self) -> int:
        return self.vertices[0]


def _advance_plan(g: ArchGraph, state: TokenState, train: Train,
                  nxt: int) -> list[list]:
    """Validate and build the five timesteps that advance ``train`` one
    vertex onto ``nxt`` without touching the state.  Steps 0, 2 and 4
    are lists of :class:`SwapLocal`; steps 1 and 3, the edge swaps, are
    ``[us, vs]``, their endpoint lists, which the callers join into one
    :class:`SwapLayer` per step."""
    p = list(train.vertices) + [nxt]
    l = len(train.vertices)
    if state.data(nxt) is not None:
        raise ValueError(
            f"advance_train: head blocked, vertex {nxt} already holds a "
            f"token in its data slot")
    slot: dict[int, int] = {}
    for j in range(1, l + 1, 2):   # odd positions, the new head too if odd
        s = state.free_slot(p[j])
        if s is None:
            raise ValueError(
                f"advance_train: no free ancilla slot at vertex {p[j]} "
                f"(budget {g.ancilla_budget} exhausted)")
        slot[j] = s
    park = [SwapLocal(p[j], 0, slot[j]) for j in range(1, l, 2)]
    # even positions step forward, then odd ones
    evens = [p[0:l:2], p[1:l + 1:2]]
    lands = [SwapLocal(p[i + 1], 0, slot[i + 1]) for i in range(0, l, 2)]
    odds = [p[1:l:2], p[2:l + 1:2]]
    unpark = [SwapLocal(p[j], 0, slot[j]) for j in range(1, l + 1, 2)]
    return [park, evens, lands, odds, unpark]


def advance_train(g: ArchGraph, state: TokenState,
                  train: Train) -> tuple[list[list | SwapLayer], Train]:
    """Advance ``train`` one vertex toward its target, mutating
    ``state``.  The head moves to its :func:`next_hop`, the
    smallest-index neighbor one step closer to the target, so a train
    follows the lexicographically smallest shortest path.  Always
    returns exactly five timesteps (some possibly empty) plus the
    shifted train.  Raises without touching the state if the vertex
    ahead is occupied or a needed ancilla slot is missing.  Steps 1 and
    3 are :class:`SwapLayer` edge swaps, the others lists of
    :class:`SwapLocal`."""
    head = train.head
    if head == train.target:
        raise ValueError("advance_train: train is already at its target")
    nxt = next_hop(g, bfs_distances(g, train.target), head)
    steps = _advance_plan(g, state, train, nxt)
    steps[1], steps[3] = SwapLayer(*steps[1]), SwapLayer(*steps[3])
    for ops in steps:
        apply_timestep(g, state, ops)
    return steps, Train(train.vertices[1:] + (nxt,), train.target)


def _regroup(g: ArchGraph, trains: list[Train], r: int,
             dist: list[int]) -> list[tuple[Train, ...]]:
    """Concatenate head-to-tail trains, then group trains into clusters
    (tuples of trains whose tokens span a connected set of vertices) by
    token adjacency.

    Train i joins train j (i's head then j's tail) when j's tail is a
    neighbour of i's head one step closer to ``r``, so train bodies stay
    monotone in distance; of several such j, the lowest index wins.  The
    joins are one pass over the trains with an index from tail vertex to
    train, re-checking a train after each join since its head moved.  A
    join changes only train i's head and removes train j's tail, so no
    earlier train gains a join, and the pass ends where repeatedly
    taking the first (i, j) in index order would.  The clusters come
    from one union over each train vertex's neighbours, through an index
    from vertex to train.  Both cost the degrees of the train heads and
    vertices, whatever the number of trains."""
    adj = g._adj  # train vertices are vertices of g
    # deleted trains leave None, so a train's position is its index
    # order among the live ones
    trains: list[Train | None] = list(trains)
    tail_at = {t.tail: j for j, t in enumerate(trains)}
    for i, t1 in enumerate(trains):
        while t1 is not None:
            step, own = dist[t1.head] - 1, t1.tail
            j = min((tail_at[w] for w in adj[t1.head]
                     if w in tail_at and w != own and dist[w] == step),
                    default=None)
            if j is None:
                break
            t2 = trains[j]
            t1 = trains[i] = Train(t1.vertices + t2.vertices, r)
            trains[j] = None
            del tail_at[t2.tail]
    trains = [t for t in trains if t is not None]

    labels = list(range(len(trains)))

    def find(a: int) -> int:
        while labels[a] != a:
            labels[a] = labels[labels[a]]
            a = labels[a]
        return a

    # trains are vertex-disjoint (a vertex holds one token), and each
    # component is rooted at its lowest index, whatever the union order
    owner = {u: i for i, t in enumerate(trains) for u in t.vertices}
    for i, t in enumerate(trains):
        for u in t.vertices:
            for v in adj[u]:
                j = owner.get(v)
                if j is not None and j > i:   # each pair once
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        labels[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[Train]] = {}
    for i in range(len(trains)):
        groups.setdefault(find(i), []).append(trains[i])
    return [tuple(groups[root]) for root in sorted(groups)]


def _step_clusters(g: ArchGraph, state: TokenState,
                   clusters: list[tuple[Train, ...]], dist: list[int]
                   ) -> tuple[list[list | SwapLayer],
                              list[tuple[Train, ...]]]:
    """One gathering round toward the centre r, given ``dist``, the BFS
    distances to r (``bfs_distances(g, r)``; r is where it is 0).  In
    every cluster the train with head closest to r advances one vertex
    (all clusters share the same five timesteps); clusters that become
    adjacent merge and head-to-tail trains concatenate.  Lower-index
    clusters win vertex conflicts.  A head moves to its
    :func:`next_hop` over ``dist``, so trains follow lexicographically
    smallest shortest paths to r.  Applies the five timesteps to
    ``state`` and returns them, edge swaps as one :class:`SwapLayer`
    per step, with the regrouped clusters."""
    r = dist.index(0)
    batch: list = [[], [[], []], [], [[], []], []]
    claimed: set[int] = set()
    new_trains: list[Train] = []
    for cluster in clusters:
        chosen = None
        for train in sorted(cluster, key=lambda t: (dist[t.head], t.head)):
            if dist[train.head] == 0:
                continue
            nxt = next_hop(g, dist, train.head)
            if state.data(nxt) is not None:
                continue
            footprint = set(train.vertices) | {nxt}
            if footprint & claimed:
                continue
            chosen = (train, nxt, footprint)
            break
        if chosen is None:
            new_trains.extend(cluster)
            continue
        train, nxt, footprint = chosen
        claimed |= footprint
        plan = _advance_plan(g, state, train, nxt)
        for t in (0, 2, 4):
            batch[t] += plan[t]
        for t in (1, 3):
            batch[t][0] += plan[t][0]
            batch[t][1] += plan[t][1]
        new_trains.append(Train(train.vertices[1:] + (nxt,), r))
        new_trains.extend(t for t in cluster if t is not train)
    batch[1], batch[3] = SwapLayer(*batch[1]), SwapLayer(*batch[3])
    for ops in batch:
        apply_timestep(g, state, ops)
    return batch, _regroup(g, new_trains, r, dist)


def sparse_route(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route a sparse permutation: hide fixed tokens, gather the moving
    ones around the graph center, tree-route them, and replay the
    gather in reverse.  Depth stays within 20 * (diameter + k)."""
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    if g.ancilla_budget < 1:
        raise ValueError("sparse_route requires at least one ancilla "
                         "slot per vertex")
    support = pi.support()
    if not support:
        return Schedule([])
    k = len(support)
    r = graph_center(g)
    state = TokenState(g)

    # phase 1: hide every fixed token, then gather the movers
    forward: list[list | SwapLayer] = []
    hide = []
    for v in range(g.n):
        if v not in support:
            s = state.free_slot(v)
            hide.append(SwapLocal(v, 0, s))
    apply_timestep(g, state, hide)
    forward.append(hide)

    dist = bfs_distances(g, r)
    trains = [Train((v,), r) for v in sorted(support)]
    clusters = _regroup(g, trains, r, dist)
    cap = 5 * (max(dist) + k) + 10
    rounds = 0
    while len(clusters) > 1:
        rounds += 1
        if rounds > cap:
            raise AssertionError("gathering failed to converge")
        batch, clusters = _step_clusters(g, state, clusters, dist)
        forward.extend(batch)

    # phase 2: tree-route the gathered tokens among themselves
    vertex_of = {row[0]: v for v, row in enumerate(state.slots)}
    gathered = sorted(vertex_of[tok] for tok in support)
    index_of = {v: i for i, v in enumerate(gathered)}
    sub_edges = tuple(sorted(
        (index_of[u], index_of[v])
        for i, u in enumerate(gathered) for v in gathered[i + 1:]
        if g.has_edge(u, v)))
    sub = ArchGraph(k, sub_edges, ancilla_budget=g.ancilla_budget)
    tree = ArchGraph(k, tuple(sorted(spanning_tree(sub, 0))),
                     ancilla_budget=g.ancilla_budget)
    image = [None] * k
    for tok in support:
        image[index_of[vertex_of[tok]]] = index_of[vertex_of[pi(tok)]]
    sub_pi = Permutation(tuple(image))
    # gathered is sorted, so mapping a layer through it keeps u < v
    middle: list[SwapLayer] = []
    vertex = gathered.__getitem__
    for step in route_tree(tree, sub_pi).timesteps:
        layer = SwapLayer(map(vertex, step.us), map(vertex, step.vs))
        apply_timestep(g, state, layer)
        middle.append(layer)

    # phase 3: the hide/gather timesteps are involutions; replaying
    # them in reverse carries each token from its gathered slot home.
    # Each replay is its own copy, so no two timesteps share an object.
    backward: list[list | SwapLayer] = []
    for ops in reversed(forward):
        ops = (SwapLayer(ops.us, ops.vs) if isinstance(ops, SwapLayer)
               else list(ops))
        apply_timestep(g, state, ops)
        backward.append(ops)

    if achieved_permutation(g, state).image != pi.image:
        raise AssertionError("sparse routing misplaced a token")
    return Schedule(forward + middle + backward)
