"""Swap-only schedule synthesis.

Routers for the standard situations: odd-even transposition on paths,
two-layer routing on complete graphs, centroid-relay routing on trees,
three-phase routing on Cartesian products, a generic dispatcher with a
spanning-tree fallback, and the hub-vs-rim wheel protocol.

All schedules consist purely of edge swaps (no ancilla use); every
timestep is a set of vertex-disjoint swaps along existing edges, and
every router assumes the canonical start state (token v at vertex v).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    generate_permutation,
    spanning_tree,
)
from .schedule import Schedule, SwapEdge

__all__ = [
    "route_path_oet",
    "route_complete",
    "route_tree",
    "route_product",
    "route_generic",
    "route_wheel",
    "WheelRoute",
]


def _merge_timelines(timelines: list[list[list]]) -> list[list]:
    """Run schedules on disjoint vertex sets side by side: timestep t
    holds every timeline's step t, in timeline order."""
    merged: list[list] = [
        [] for _ in range(max((len(steps) for steps in timelines), default=0))]
    for steps in timelines:
        for layer, step in zip(merged, steps):
            layer.extend(step)
    return merged


# ---------------------------------------------------------------------------
# odd-even transposition
# ---------------------------------------------------------------------------

def _oet_timesteps(order: list[int], rank_of_token, token_at: dict) -> list[list[SwapEdge]]:
    """Odd-even transposition along ``order`` (consecutive vertices must
    be adjacent).  ``rank_of_token(tok)`` gives the position index each
    token must reach.  Mutates ``token_at``; returns swap timesteps."""
    m = len(order)
    arr = [rank_of_token(token_at[v]) for v in order]
    # positions whose token has not reached its rank; each swap updates it
    misplaced = sum(r != i for i, r in enumerate(arr))
    steps: list[list[SwapEdge]] = []
    for phase in range(m + 1):
        if not misplaced:
            break
        # the pairs of one phase are disjoint, so each swaps in place
        step = []
        for i in range(phase % 2, m - 1, 2):
            a, b = arr[i], arr[i + 1]
            if a > b:
                misplaced += (a == i) + (b == i + 1) - (b == i) - (a == i + 1)
                arr[i], arr[i + 1] = b, a
                u, v = order[i], order[i + 1]
                token_at[u], token_at[v] = token_at[v], token_at[u]
                step.append(SwapEdge(u, v))
        if step:
            steps.append(step)
    else:
        raise AssertionError("transposition sort failed to converge")
    return steps


def route_path_oet(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route on a path (vertices in line order 0..n-1) by alternating
    odd/even adjacent-transposition layers; depth <= n."""
    want = tuple((i, i + 1) for i in range(g.n - 1))
    if g.edges != want:
        raise ValueError("graph is not a path with vertices in line order")
    token_at = {v: v for v in range(g.n)}
    steps = _oet_timesteps(list(range(g.n)), lambda tok: pi(tok), token_at)
    return Schedule(steps)


# ---------------------------------------------------------------------------
# complete graphs
# ---------------------------------------------------------------------------

def route_complete(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route on a complete graph in <= 2 timesteps: each cycle
    (a_0 .. a_{m-1}) is the product of the two involutions i <-> -i and
    i <-> 1-i (indices mod m)."""
    if len(g.edges) != g.n * (g.n - 1) // 2:
        raise ValueError("graph is not complete")
    layer1, layer2 = [], []
    for cyc in pi.cycles():
        m = len(cyc)
        for i in range(1, m):
            j = (m - i) % m
            if i < j:
                layer1.append(SwapEdge(cyc[i], cyc[j]))
        for i in range(m):
            j = (1 - i) % m
            if i < j:
                layer2.append(SwapEdge(cyc[i], cyc[j]))
    steps = [s for s in (layer1, layer2) if s]
    return Schedule(steps)


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
                    ) -> list[list[SwapEdge]]:
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

    comp_of: dict[int, int] = {}
    gates: list[int] = []
    for gate in adj[c]:
        if gate in comp_of:
            continue
        cid = len(gates)
        gates.append(gate)
        queue = deque([gate])
        comp_of[gate] = cid
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w != c and w not in comp_of:
                    comp_of[w] = cid
                    queue.append(w)

    CENTER = -1

    def node_of(v: int) -> int:
        return CENTER if v == c else comp_of[v]

    # demand edges, one per token that must change component
    out_edges: dict[int, list[tuple]] = {}
    demand_nodes: set[int] = set()
    dist_to_gate: dict[int, int] = {}
    for gate in gates:
        dq = deque([gate])
        dist_to_gate[gate] = 0
        while dq:
            v = dq.popleft()
            for w in adj[v]:
                if w != c and w not in dist_to_gate:
                    dist_to_gate[w] = dist_to_gate[v] + 1
                    dq.append(w)
    for v in vertices:
        tok = token_at[v]
        a, b = node_of(v), node_of(target[tok])
        if a != b:
            rank = dist_to_gate.get(v, 0)
            out_edges.setdefault(a, []).append((a, b, tok, rank))
            demand_nodes.add(a)
            demand_nodes.add(b)

    steps: list[list[SwapEdge]] = []
    if demand_nodes:
        for edges in out_edges.values():
            edges.sort(key=lambda e: (e[3], e[2]))

        # group demand nodes into weakly-connected circuits
        node_comp: dict[int, int] = {}
        for seed in sorted(demand_nodes):
            if seed in node_comp:
                continue
            label = seed
            dq = deque([seed])
            node_comp[seed] = label
            undirected: dict[int, set[int]] = {}
            for a, edges in out_edges.items():
                for _, b, _, _ in edges:
                    undirected.setdefault(a, set()).add(b)
                    undirected.setdefault(b, set()).add(a)
            while dq:
                x = dq.popleft()
                for y in undirected.get(x, ()):
                    if y not in node_comp:
                        node_comp[y] = label
                        dq.append(y)

        groups: dict[int, list[int]] = {}
        for node, label in node_comp.items():
            groups.setdefault(label, []).append(node)
        ordered_groups = sorted(
            groups.values(),
            key=lambda ns: (-1 if CENTER in ns else 0, min(ns)))

        # relay plan: (gate vertex, token expected there)
        theta_c = next(t for t in target if target[t] == c)
        actions: list[tuple[int, int]] = []
        for nodes in ordered_groups:
            if CENTER in nodes:
                trail = _euler_circuit(CENTER, out_edges)
                for k in range(len(trail) - 1):
                    _, dst, _, _ = trail[k]
                    nxt_tok = trail[k + 1][2]
                    actions.append((gates[dst], nxt_tok))
            else:
                entry = min(nodes)
                trail = _euler_circuit(entry, out_edges)
                actions.append((gates[entry], trail[0][2]))
                for k in range(len(trail) - 1):
                    _, dst, _, _ = trail[k]
                    actions.append((gates[dst], trail[k + 1][2]))
                actions.append((gates[trail[-1][1]], theta_c))

        # conveyor bookkeeping
        parent: dict[int, int] = {}
        for gate in gates:
            parent[gate] = c
            dq = deque([gate])
            while dq:
                v = dq.popleft()
                for w in adj[v]:
                    if w != c and w not in parent:
                        parent[w] = v
                        dq.append(w)
        queue_of: dict[int, list[int]] = {}
        for gate_v, tok in actions:
            queue_of.setdefault(gate_v, []).append(tok)
        pos_of = {tok: v for v, tok in token_at.items()}

        pending = deque(actions)
        guard = 0
        while pending:
            guard += 1
            if guard > (m + 5) * (m + 5):
                raise AssertionError("relay failed to make progress")
            gate_v, expected = pending[0]
            ops: list[SwapEdge] = []
            claimed: set[int] = set()
            if token_at[gate_v] == expected:
                ops.append(SwapEdge(c, gate_v))
                claimed.update((c, gate_v))
                pending.popleft()
                queue_of[gate_v].pop(0)
            for gate in gates:
                for tok in queue_of.get(gate, ()):
                    x = pos_of.get(tok)
                    if x is None or x == gate or node_of(x) != comp_of[gate]:
                        continue
                    y = parent[x]
                    if x in claimed or y in claimed:
                        continue
                    if y == gate and tok != queue_of[gate][0]:
                        continue  # don't squat on the gate out of turn
                    claimed.update((x, y))
                    ops.append(SwapEdge(x, y))
            for op in ops:
                u, v = op.u, op.v
                token_at[u], token_at[v] = token_at[v], token_at[u]
            for op in ops:
                for v in (op.u, op.v):
                    pos_of[token_at[v]] = v
            steps.append(ops)

        if target[token_at[c]] != c:
            raise AssertionError("relay left a foreign token at the centroid")

    # recurse into components, running their timelines in parallel
    child_steps: list[list[list[SwapEdge]]] = []
    for cid, gate in enumerate(gates):
        verts = [v for v in vertices if v != c and comp_of[v] == cid]
        sub_adj = {v: [w for w in adj[v] if w != c and comp_of.get(w) == cid]
                   for v in verts}
        for v in verts:
            if node_of(target[token_at[v]]) != cid:
                raise AssertionError("token stranded outside its component")
        child_steps.append(_route_tree_rec(verts, sub_adj, token_at, target))
    steps.extend(_merge_timelines(child_steps))
    return steps


def route_tree(g: ArchGraph, pi: Permutation) -> Schedule:
    """Route on a tree by recursive centroid relay; depth <= 3|V| on
    every tested instance (the classic O(N) strategy)."""
    if len(g.edges) != g.n - 1:
        raise ValueError("graph is not a tree")
    adj = {v: list(g.neighbors(v)) for v in range(g.n)}
    token_at = {v: v for v in range(g.n)}
    target = {tok: pi(tok) for tok in range(g.n)}
    steps = _route_tree_rec(list(range(g.n)), adj, token_at, target)
    return Schedule(steps)


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


def route_product(g1: ArchGraph, g2: ArchGraph, pi: Permutation,
                  factor_router=None) -> Schedule:
    """Route on the Cartesian product of g1 and g2 (vertex (a, x) at
    index a*|g2| + x) in three phases: within g1-copies, within
    g2-copies, within g1-copies; depth <= 2*D1 + D2."""
    if factor_router is None:
        factor_router = route_generic
    n1, n2 = g1.n, g2.n
    if pi.n != n1 * n2:
        raise ValueError("permutation size does not match the product")

    def split(v: int) -> tuple[int, int]:
        return divmod(v, n2)

    # tokens per (current column, destination column)
    bucket: dict[tuple[int, int], list[int]] = {}
    for v in range(n1 * n2):
        _, x = split(v)
        _, xd = split(pi(v))
        bucket.setdefault((x, xd), []).append(v)

    # decompose the n1-regular column-to-column multigraph into n1
    # perfect matchings
    mult = {(x, xd): len(toks) for (x, xd), toks in bucket.items()}
    keys = sorted(mult)
    matchings: list[dict[int, int]] = []
    for _ in range(n1):
        left_adj: dict[int, list[int]] = {x: [] for x in range(n2)}
        for x, xd in keys:
            if mult[(x, xd)] > 0:
                left_adj[x].append(xd)
        match = _perfect_matching(left_adj)
        matchings.append(match)
        for x, xd in match.items():
            mult[(x, xd)] -= 1

    # pair matchings with intermediate rows, preferring rows where the
    # matched tokens already sit (keeps easy instances shallow)
    rows_in = {key: {split(tok)[0] for tok in toks}
               for key, toks in bucket.items()}
    rows_left = set(range(n1))
    row_of_matching: dict[int, int] = {}
    for j, match in enumerate(matchings):
        best_r, best_score = None, -1
        for r in sorted(rows_left):
            score = sum(r in rows_in[key] for key in match.items())
            if score > best_score:
                best_r, best_score = r, score
        row_of_matching[j] = best_r
        rows_left.discard(best_r)

    # assign each token an intermediate row
    remaining = {key: sorted(toks) for key, toks in bucket.items()}
    inter_row: dict[int, int] = {}
    for j, match in enumerate(matchings):
        r = row_of_matching[j]
        for x, xd in match.items():
            toks = remaining[(x, xd)]
            pick = next((t for t in toks if split(t)[0] == r), toks[0])
            toks.remove(pick)
            inter_row[pick] = r

    # three phases, tracking pos[token] = (row, col) throughout
    pos = {v: split(v) for v in range(n1 * n2)}

    def phase(axis: int, dest) -> list[list[SwapEdge]]:
        """Route every copy of one factor in parallel: the g1-copies
        (columns, tokens change row) for axis 0, the g2-copies (rows,
        tokens change column) for axis 1.  ``dest(token)`` is the
        token's row or column at the end of the phase."""
        # copy c's i-th vertex is c * offset + i * stride
        factor, copies, offset, stride = ((g1, n2, 1, n2) if axis == 0
                                          else (g2, n1, n2, 1))
        images: list[list] = [[None] * factor.n for _ in range(copies)]
        for t, rc in pos.items():
            images[rc[1 - axis]][rc[axis]] = dest(t)
        timelines = []
        for c, image in enumerate(images):
            base = c * offset
            sub = factor_router(factor, Permutation(tuple(image)))
            timelines.append([[SwapEdge(base + op.u * stride,
                                        base + op.v * stride)
                               for op in step] for step in sub.timesteps])
        return _merge_timelines(timelines)

    def apply_steps(stepss: list[list[SwapEdge]]):
        inv = {rc: t for t, rc in pos.items()}
        for layer in stepss:
            for op in layer:
                pu, pv = split(op.u), split(op.v)
                tu, tv = inv.get(pu), inv.get(pv)
                if tu is not None:
                    pos[tu] = pv
                if tv is not None:
                    pos[tv] = pu
                inv[pu], inv[pv] = tv, tu

    steps: list[list[SwapEdge]] = []
    for axis, dest in ((0, lambda t: inter_row[t]),
                       (1, lambda t: split(pi(t))[1]),
                       (0, lambda t: split(pi(t))[0])):
        p = phase(axis, dest)
        apply_steps(p)
        steps.extend(p)
    for t, rc in pos.items():
        if rc != split(pi(t)):
            raise AssertionError("product routing failed to place a token")
    return Schedule(steps)


# ---------------------------------------------------------------------------
# generic dispatch and the wheel protocol
# ---------------------------------------------------------------------------

def _is_line_path(g: ArchGraph) -> bool:
    return g.edges == tuple((i, i + 1) for i in range(g.n - 1))


def route_generic(g: ArchGraph, pi: Permutation) -> Schedule:
    """Dispatch to a specialized router by structure: line paths,
    complete graphs, trees, grid/hypercube products; everything else
    routes on a BFS spanning tree.  Depth <= 3N."""
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    if pi.is_identity():
        return Schedule([])
    if _is_line_path(g):
        return route_path_oet(g, pi)
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return route_complete(g, pi)
    if len(g.edges) == g.n - 1:
        return route_tree(g, pi)
    params = g.param_dict
    if g.family == "grid" and params.get("d", 1) >= 2:
        n, d = params["n"], params["d"]
        g1 = generate_graph("path", n=n, ancilla_budget=g.ancilla_budget)
        g2 = generate_graph("grid", n=n, d=d - 1,
                            ancilla_budget=g.ancilla_budget)
        return route_product(g1, g2, pi)
    if g.family == "hypercube" and params.get("d", 1) >= 2:
        d = params["d"]
        g1 = generate_graph("path", n=2, ancilla_budget=g.ancilla_budget)
        g2 = generate_graph("hypercube", d=d - 1,
                            ancilla_budget=g.ancilla_budget)
        return route_product(g1, g2, pi)
    tree_edges = spanning_tree(g, 0)
    tree = ArchGraph(g.n, tuple(sorted(tree_edges)),
                     ancilla_budget=g.ancilla_budget)
    return route_tree(tree, pi)


@dataclass(frozen=True)
class WheelRoute:
    """Wheel protocol outcome: the emitted schedule, which branch won,
    both branch depths, and the reference floor min(2l, N/l - 1) on the
    optimum (recorded for comparison, not asserted of the schedule)."""

    schedule: Schedule
    branch: str
    hub_depth: int
    rim_depth: int
    optimum_floor: int


def route_wheel(g: ArchGraph, l: int) -> WheelRoute:
    """Route the l-segment endpoint exchange on a wheel: the cheaper of
    hub-sequential (3 swaps per pair, depth 3l) and rim-parallel
    (transposition sort inside each rim segment)."""
    if g.family != "wheel":
        raise ValueError("route_wheel requires a wheel graph")
    rim = g.param_dict["n"]
    if l < 1 or rim % l != 0:
        raise ValueError("segment count l must divide the rim size")
    hub = rim
    m = rim // l
    pi = generate_permutation("wheel", g, l=l)

    hub_steps: list[list[SwapEdge]] = []
    for j in range(l):
        a, b = j * m, (j + 1) * m - 1
        if a == b:
            continue
        hub_steps.append([SwapEdge(a, hub)])
        hub_steps.append([SwapEdge(b, hub)])
        hub_steps.append([SwapEdge(a, hub)])
    hub_sched = Schedule(hub_steps)

    segment_steps: list[list[list[SwapEdge]]] = []
    for j in range(l):
        order = list(range(j * m, (j + 1) * m))
        pos = {v: i for i, v in enumerate(order)}
        token_at = {v: v for v in order}
        segment_steps.append(
            _oet_timesteps(order, lambda tok: pos[pi(tok)], token_at))
    rim_sched = Schedule(_merge_timelines(segment_steps))

    hub_depth, rim_depth = hub_sched.depth(), rim_sched.depth()
    if rim_depth <= hub_depth:
        branch, sched = "rim", rim_sched
    else:
        branch, sched = "hub", hub_sched
    return WheelRoute(sched, branch, hub_depth, rim_depth,
                      min(2 * l, m - 1))
