"""Swap-only schedule synthesis.

Routers for the standard situations: two-layer routing on complete
graphs, centroid-relay routing on trees (odd-even transposition on
path-shaped subtrees, so on whole paths too), three-phase routing on
Cartesian products, and a generic dispatcher with a spanning-tree
fallback.

All schedules consist purely of edge swaps (no ancilla use); every
timestep is a :class:`SwapLayer` of vertex-disjoint swaps along
existing edges, and every router assumes the canonical start state
(token v at vertex v).
"""

from __future__ import annotations

from collections import deque
from operator import eq

import numpy as np

from .graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    spanning_tree,
)
from .schedule import Schedule, SwapLayer

__all__ = [
    "route_complete",
    "route_tree",
    "route_product",
    "route_generic",
]


Steps = list[tuple[list[int], list[int]]]   # each step's (us, vs)


def _merge_timelines(timelines: list[Steps]) -> Steps:
    """Run schedules on disjoint vertex sets side by side.  Each timeline
    is a list of steps, each step a pair of endpoint lists ``(us, vs)``;
    timestep t holds every timeline's step t, in timeline order."""
    merged: Steps = [([], []) for _ in range(max(map(len, timelines),
                                                default=0))]
    for steps in timelines:
        for (us, vs), (step_us, step_vs) in zip(merged, steps):
            us += step_us
            vs += step_vs
    return merged


# ---------------------------------------------------------------------------
# odd-even transposition
# ---------------------------------------------------------------------------

# below this many vertices a phase is cheaper as a Python loop over its
# pairs than as numpy calls (a few microseconds each, whatever the
# size); measured on 2-vCPU x86-64, the two break even at m = 40-64 on
# random and reversed ranks, and numpy is 2x faster at m = 128 and 3-4x
# at m = 1024.  Grid factors, tree pieces and sparse_route's middle
# phase are nearly all shorter; whole paths are longer.
_OET_NUMPY_MIN = 64


def _oet_timesteps(order: list[int], rank_of_token, token_at: dict) -> Steps:
    """Odd-even transposition along ``order`` (consecutive vertices must
    be adjacent).  ``rank_of_token(tok)`` gives the position index each
    token must reach.  Mutates ``token_at``; returns the swap timesteps
    as endpoint pairs.

    Phase p swaps every pair (i, i+1), i = p mod 2, whose ranks are out
    of order, and the sort stops at the first phase that starts with
    every token at its rank.  A path of ``_OET_NUMPY_MIN`` vertices or
    more runs each phase as a few numpy calls (:func:`_oet_numpy`); a
    shorter one loops over the pairs.  Both emit the same steps, leave
    the same ``token_at`` and raise the same AssertionError after m + 1
    phases when the ranks never sort into place (duplicate or
    out-of-range ranks)."""
    m = len(order)
    if m >= _OET_NUMPY_MIN:
        return _oet_numpy(order, rank_of_token, token_at)
    arr = [rank_of_token(token_at[v]) for v in order]
    # positions whose token has not reached its rank; each swap updates it
    misplaced = sum(r != i for i, r in enumerate(arr))
    steps: Steps = []
    for phase in range(m + 1):
        if not misplaced:
            break
        # the pairs of one phase are disjoint, so each swaps in place
        us, vs = [], []
        for i in range(phase % 2, m - 1, 2):
            a, b = arr[i], arr[i + 1]
            if a > b:
                misplaced += (a == i) + (b == i + 1) - (b == i) - (a == i + 1)
                arr[i], arr[i + 1] = b, a
                u, v = order[i], order[i + 1]
                token_at[u], token_at[v] = token_at[v], token_at[u]
                us.append(u)
                vs.append(v)
        if us:
            steps.append((us, vs))
    else:
        raise AssertionError("transposition sort failed to converge")
    return steps


def _oet_numpy(order: list[int], rank_of_token, token_at: dict) -> Steps:
    """:func:`_oet_timesteps` with each phase as array operations: one
    compare of the phase's left and right ranks (strided views), then
    one fancy-index swap of the out-of-order pairs' ranks and of the
    start positions of their tokens.  A phase that swaps nothing is the
    only one that can start sorted, so only there is the whole rank
    array compared with the identity.  ``token_at`` is rewritten once at
    the end, also when the sort fails."""
    m = len(order)
    toks = [token_at[v] for v in order]
    ranks = np.array(list(map(rank_of_token, toks)), dtype=np.int64)
    home = np.arange(m)
    start = home.copy()   # start[i]: where the token now at i started
    verts = np.array(order, dtype=np.int64)
    # per parity, the left and right ends of its pairs in each array
    phases = []
    for p in (0, 1):
        end = p + (m - p) // 2 * 2
        phases.append([(a[p:end:2], a[p + 1:end:2])
                       for a in (ranks, start, verts)])
    steps: Steps = []
    try:
        for phase in range(m + 1):
            (ra, rb), (sa, sb), (va, vb) = phases[phase & 1]
            swap = np.flatnonzero(ra > rb)
            if swap.size:
                ra[swap], rb[swap] = rb[swap], ra[swap]
                sa[swap], sb[swap] = sb[swap], sa[swap]
                steps.append((va[swap].tolist(), vb[swap].tolist()))
            elif np.array_equal(ranks, home):
                break
        else:
            raise AssertionError("transposition sort failed to converge")
    finally:
        for v, i in zip(order, start.tolist()):
            token_at[v] = toks[i]
    return steps


# ---------------------------------------------------------------------------
# complete graphs
# ---------------------------------------------------------------------------

def route_complete(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route on a complete graph in <= 2 timesteps: each cycle
    (a_0 .. a_{m-1}) is the product of the two involutions i <-> -i and
    i <-> 1-i (indices mod m)."""
    if len(g.edges) != g.n * (g.n - 1) // 2:
        raise ValueError("graph is not complete")
    us1, vs1, us2, vs2 = [], [], [], []
    for cyc in pi.cycles():
        m = len(cyc)
        for i in range(1, m):
            j = (m - i) % m
            if i < j:
                us1.append(cyc[i])
                vs1.append(cyc[j])
        for i in range(m):
            j = (1 - i) % m
            if i < j:
                us2.append(cyc[i])
                vs2.append(cyc[j])
    layers = (SwapLayer(us1, vs1), SwapLayer(us2, vs2))
    return Schedule([layer for layer in layers if layer])


# ---------------------------------------------------------------------------
# trees: centroid relay with a staged conveyor
# ---------------------------------------------------------------------------
#
# At each recursion level the centroid c acts as a relay.  Tokens that
# must change component form an Eulerian demand multigraph over the
# components (plus a node for c itself); following an Euler circuit,
# one swap across the centroid both delivers the token in hand and
# picks up the next outgoing token, provided that token is staged at
# the component's gate.  A conveyor inside each component advances
# outgoing tokens toward the gate in consumption order, one
# vertex-disjoint swap layer per timestep, in parallel with the relay.
# Each step scans only the live gates, those whose queue still holds a
# token, in gate order; a gate drops out when its last token crosses,
# and a one-vertex component never has anything to advance.  Steps are
# kept as endpoint pairs (us, vs) down the recursion, and route_tree
# makes each merged timestep a SwapLayer once.

def _subtree_centroid(vertices: list[int], adj: dict[int, list[int]]) -> int:
    n = len(vertices)
    root = vertices[0]
    order, parent = [], {root: None}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    size = {v: 1 for v in vertices}
    for v in reversed(order):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    best, best_key = None, None
    for v in vertices:
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v] and parent.get(w) == v:
                heaviest = max(heaviest, size[w])
        key = (heaviest, v)
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


def _euler_circuit(start, out_edges: dict) -> list[tuple]:
    """Hierholzer walk over pre-sorted adjacency (edges popped in list
    order); returns the closed trail as a list of edge records
    (src_node, dst_node, token)."""
    stack = [(start, None)]
    trail = []
    while stack:
        node, via = stack[-1]
        if out_edges.get(node):
            edge = out_edges[node].pop(0)
            stack.append((edge[1], edge))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    trail.reverse()
    return trail


def _route_tree_rec(vertices: list[int], adj: dict[int, list[int]],
                    token_at: dict[int, int], target: dict[int, int]
                    ) -> Steps:
    m = len(vertices)
    if m <= 1 or all(target[token_at[v]] == v for v in vertices):
        return []

    # path-shaped subtrees sort directly
    if all(len(adj[v]) <= 2 for v in vertices):
        ends = [v for v in vertices if len(adj[v]) <= 1]
        cur, prev = min(ends), None
        order = [cur]
        while len(order) < m:
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
            order.append(cur)
        pos = {v: i for i, v in enumerate(order)}
        return _oet_timesteps(order, lambda tok: pos[target[tok]], token_at)

    c = _subtree_centroid(vertices, adj)
    CENTER = -1

    # one BFS per component of the tree minus c, from its gate (the
    # neighbor of c): component id, parent toward c, distance to gate.
    # comp_of maps c itself to CENTER, so it names every vertex's node.
    gates = list(adj[c])
    comps: list[list[int]] = []
    comp_of: dict[int, int] = {c: CENTER}
    parent: dict[int, int] = {}
    dist_to_gate: dict[int, int] = {}
    for cid, gate in enumerate(gates):
        comp = [gate]
        comp_of[gate], parent[gate], dist_to_gate[gate] = cid, c, 0
        for v in comp:  # grows as it is read: a FIFO queue
            for w in adj[v]:
                if w not in comp_of:
                    comp_of[w], parent[w] = cid, v
                    dist_to_gate[w] = dist_to_gate[v] + 1
                    comp.append(w)
        comps.append(comp)

    # demand edges, one per token that must change component
    out_edges: dict[int, list[tuple]] = {}
    for v in vertices:
        tok = token_at[v]
        a, b = comp_of[v], comp_of[target[tok]]
        if a != b:
            rank = dist_to_gate.get(v, 0)
            out_edges.setdefault(a, []).append((a, b, tok, rank))

    steps: Steps = []
    if out_edges:
        for edges in out_edges.values():
            edges.sort(key=lambda e: (e[3], e[2]))

        # relay plan: (gate vertex, token expected there).  As many
        # tokens enter each node as leave it, so one Euler circuit from
        # a node covers its whole weakly-connected demand component;
        # circuits run the centroid's component first, then by
        # smallest node.
        theta_c = next(token_at[v] for v in vertices
                       if target[token_at[v]] == c)
        actions: list[tuple[int, int]] = []
        for entry in sorted(out_edges):
            if not out_edges[entry]:
                continue  # covered by an earlier circuit
            trail = _euler_circuit(entry, out_edges)
            if entry != CENTER:
                actions.append((gates[entry], trail[0][2]))
            for k in range(len(trail) - 1):
                actions.append((gates[trail[k][1]], trail[k + 1][2]))
            if entry != CENTER:
                actions.append((gates[trail[-1][1]], theta_c))

        # conveyor bookkeeping: each gate's queue holds the tokens still
        # to cross there, in relay order, and ``live`` lists (component,
        # gate, queue) for the live gates
        queue_of: dict[int, deque[int]] = {}
        for gate_v, tok in actions:
            queue_of.setdefault(gate_v, deque()).append(tok)
        live = [(cid, gate, queue_of[gate])
                for cid, gate in enumerate(gates)
                if gate in queue_of and len(comps[cid]) > 1]
        pos_of = {token_at[v]: v for v in vertices}

        pending = deque(actions)
        guard = 0
        while pending:
            guard += 1
            if guard > (m + 5) * (m + 5):
                raise AssertionError("relay failed to make progress")
            gate_v, expected = pending[0]
            us: list[int] = []
            vs: list[int] = []
            claimed: set[int] = set()
            if token_at[gate_v] == expected:
                us.append(c)
                vs.append(gate_v)
                claimed.update((c, gate_v))
                pending.popleft()
                queue = queue_of[gate_v]
                queue.popleft()
                if not queue:
                    live = [entry for entry in live if entry[2]]
            for cid, gate, queue in live:
                head = queue[0]
                for tok in queue:
                    x = pos_of[tok]
                    if x == gate or x in claimed or comp_of[x] != cid:
                        continue
                    y = parent[x]
                    if y in claimed:
                        continue
                    if y == gate and tok != head:
                        continue  # don't squat on the gate out of turn
                    claimed.add(x)
                    claimed.add(y)
                    us.append(x)
                    vs.append(y)
            # the claimed pairs are disjoint, so each swaps in place
            for u, v in zip(us, vs):
                token_at[u], token_at[v] = token_at[v], token_at[u]
                pos_of[token_at[u]], pos_of[token_at[v]] = u, v
            steps.append((us, vs))

        if target[token_at[c]] != c:
            raise AssertionError("relay left a foreign token at the centroid")

    # recurse into components, running their timelines in parallel
    child_steps: list[Steps] = []
    for cid, verts in enumerate(comps):
        sub_adj = {v: [w for w in adj[v] if w != c] for v in verts}
        for v in verts:
            if comp_of[target[token_at[v]]] != cid:
                raise AssertionError("token stranded outside its component")
        child_steps.append(_route_tree_rec(verts, sub_adj, token_at, target))
    steps.extend(_merge_timelines(child_steps))
    return steps


def route_tree(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route on a tree by recursive centroid relay; depth <= 3|V| on
    every tested instance (the classic O(N) strategy)."""
    if len(g.edges) != g.n - 1:
        raise ValueError("graph is not a tree")
    adj = {v: list(g._adj[v]) for v in range(g.n)}
    token_at = {v: v for v in range(g.n)}
    target = dict(enumerate(pi.image))
    steps = _route_tree_rec(list(range(g.n)), adj, token_at, target)
    return Schedule([SwapLayer(us, vs) for us, vs in steps])


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------

def _perfect_matching(left_adj: dict[int, list[int]]) -> dict[int, int]:
    """Maximum bipartite matching by augmenting paths (Kuhn's), in
    deterministic vertex order; must be perfect for regular multigraphs."""
    match_r: dict[int, int] = {}
    match_l: dict[int, int] = {}

    def try_assign(u: int, banned: set[int]) -> bool:
        for v in left_adj[u]:
            if v in banned:
                continue
            banned.add(v)
            if v not in match_r or try_assign(match_r[v], banned):
                match_r[v] = u
                match_l[u] = v
                return True
        return False

    for u in sorted(left_adj):
        if not try_assign(u, set()):
            raise AssertionError("matching decomposition failed on a "
                                 "regular multigraph")
    return match_l


def route_product(g1: ArchGraph, g2: ArchGraph, pi: Permutation) -> Schedule:
    """Route on the Cartesian product of g1 and g2 (vertex (a, x) at
    index a*|g2| + x) in three phases: within g1-copies, within
    g2-copies, within g1-copies; depth <= 2*D1 + D2.  In each phase
    :func:`route_generic` routes each distinct copy image once, and the
    copies with that image share its routing, relabelled onto their
    own vertices."""
    n1, n2 = g1.n, g2.n
    if pi.n != n1 * n2:
        raise ValueError("permutation size does not match the product")
    img = pi.image

    # tokens per (current column, destination column)
    bucket: dict[tuple[int, int], list[int]] = {}
    for v in range(n1 * n2):
        bucket.setdefault((v % n2, img[v] % n2), []).append(v)

    # decompose the n1-regular column-to-column multigraph into n1
    # perfect matchings; after n1 - 1 of them what is left is 1-regular,
    # so its one perfect matching is read off, with no search
    mult = {(x, xd): len(toks) for (x, xd), toks in bucket.items()}
    keys = sorted(mult)
    matchings: list[dict[int, int]] = []
    for _ in range(n1 - 1):
        left_adj: dict[int, list[int]] = {x: [] for x in range(n2)}
        for x, xd in keys:
            if mult[(x, xd)] > 0:
                left_adj[x].append(xd)
        match = _perfect_matching(left_adj)
        matchings.append(match)
        for x, xd in match.items():
            mult[(x, xd)] -= 1
    matchings.append({x: xd for x, xd in keys if mult[(x, xd)]})

    # pair matchings with intermediate rows, preferring rows where the
    # matched tokens already sit (keeps easy instances shallow): token
    # r*n2 + x starts in row r, and the pair x -> xd of a matching counts
    # for row r if that token's destination column is xd
    col = [v % n2 for v in img]
    rows_left = set(range(n1))
    row_of_matching: list[int] = []
    for match in matchings:
        want = [match[x] for x in range(n2)]
        best_r, best_score = None, -1
        for r in sorted(rows_left):
            score = sum(map(eq, col[r * n2:(r + 1) * n2], want))
            if score > best_score:
                best_r, best_score = r, score
        row_of_matching.append(best_r)
        rows_left.discard(best_r)

    # assign each token an intermediate row, taking from each bucket
    # (ascending, as built) the token of the matching's row if it holds
    # it, else its first; the n1 matchings take every token once
    inter_row = [0] * (n1 * n2)
    for r, match in zip(row_of_matching, matchings):
        for x, xd in match.items():
            toks = bucket[(x, xd)]
            own = r * n2 + x
            pick = own if own in toks else toks[0]
            toks.remove(pick)
            inter_row[pick] = r

    # three phases: route every g1-copy (a column; tokens change row),
    # then every g2-copy (a row; tokens change column), then every
    # g1-copy again.  Copy c's i-th vertex is c * offset + i * stride,
    # and ``dest[token]`` is the token's index in its copy after the
    # phase; at[v] is the token at vertex v.  route_generic is
    # deterministic, so copies with the same image share one routing,
    # kept for the phase only.
    at = list(range(n1 * n2))
    steps: list[SwapLayer] = []
    for factor, copies, offset, stride, dest in (
            (g1, n2, 1, n2, inter_row),
            (g2, n1, n2, 1, col),
            (g1, n2, 1, n2, [v // n2 for v in img])):
        routed: dict[tuple[int, ...], list[SwapLayer]] = {}
        timelines = []
        for c in range(copies):
            cells = list(range(c * offset, c * offset + factor.n * stride,
                               stride))
            toks = list(map(at.__getitem__, cells))
            image = tuple(map(dest.__getitem__, toks))
            sub = routed.get(image)
            if sub is None:
                sub = routed[image] = route_generic(
                    factor, Permutation(image)).timesteps
            # cells increase with the index, so u < v is kept
            cell = cells.__getitem__
            timelines.append([(list(map(cell, step.us)),
                               list(map(cell, step.vs))) for step in sub])
            for t, i in zip(toks, image):
                at[cells[i]] = t
        steps += [SwapLayer(us, vs)
                  for us, vs in _merge_timelines(timelines)]

    # replay the emitted swaps: every token must land on its image
    at = list(range(n1 * n2))
    for step in steps:
        for u, v in zip(step.us, step.vs):
            at[u], at[v] = at[v], at[u]
    if any(img[t] != v for v, t in enumerate(at)):
        raise AssertionError("product routing failed to place a token")
    return Schedule(steps)


# ---------------------------------------------------------------------------
# generic dispatch
# ---------------------------------------------------------------------------

def _product_factors(g: ArchGraph) -> tuple[ArchGraph, ArchGraph]:
    """The factors of a grid or hypercube: path(n) x grid(n, d-1), or
    path(2) x hypercube(d-1).  Built once per graph and kept on it, so
    the copies ``route_product`` routes through one factor graph share
    that graph's factors instead of building them once per copy."""
    factors = g.__dict__.get("_factors")
    if factors is None:
        p, budget = g.param_dict, g.ancilla_budget
        factors = (generate_graph("path", n=p.get("n", 2),
                                  ancilla_budget=budget),
                   generate_graph(g.family, **{**p, "d": p["d"] - 1},
                                  ancilla_budget=budget))
        object.__setattr__(g, "_factors", factors)
    return factors


def route_generic(g: ArchGraph, pi: Permutation) -> Schedule:
    """Dispatch to a specialized router by structure: complete graphs,
    trees (a path sorts by odd-even transposition), grid/hypercube
    products; everything else routes on a BFS spanning tree.
    Depth <= 3N."""
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    if pi.is_identity():
        return Schedule([])
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return route_complete(g, pi)
    if len(g.edges) == g.n - 1:
        return route_tree(g, pi)
    if g.family in ("grid", "hypercube") and g.param_dict.get("d", 1) >= 2:
        return route_product(*_product_factors(g), pi)
    tree_edges = spanning_tree(g, 0)
    tree = ArchGraph(g.n, tuple(sorted(tree_edges)),
                     ancilla_budget=g.ancilla_budget)
    return route_tree(tree, pi)
