"""The product and tree swap routers against frozen reference copies.

The references below are the routers as they were before two speed-ups:

* ``ref_route_product`` calls the generic router once per copy, reads
  each token's destination through ``pi(t)``, and merges one list of
  ``SwapLayer`` objects per copy.  It scores a row for a matching
  through per-bucket row sets and picks a bucket's token by scanning
  it.  The library routes each distinct copy image once per phase and
  relabels that routing onto every copy that shares the image; it
  scores rows from the tokens' destination columns and picks the
  token of the matching's row by its index.
* ``ref_route_tree_rec``'s conveyor visits every gate of the centroid
  on every step, through ``queue_of.get``.  The library scans only the
  gates whose queue still holds a token and whose component has more
  than one vertex.

``emit_circuit`` compiles a layer's swaps in emission order, and the
golden digests hash ``to_json``, which sorts each layer's swaps.  So
the check here is stronger: every layer's ``us`` and ``vs`` lists must
be equal, in order, on grids, hypercubes, path-by-path products, random
trees and the spanning trees of butterfly, wheel and ladder graphs.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleroute.graphs import (
    ArchGraph,
    Permutation,
    generate_graph,
    spanning_tree,
)
from teleroute.schedule import Schedule, SwapLayer
from teleroute.swap_routing import (
    _euler_circuit,
    _oet_timesteps,
    _perfect_matching,
    _product_factors,
    _subtree_centroid,
    route_complete,
    route_product,
    route_generic,
)


# ---------------------------------------------------------------------------
# the reference (frozen; do not optimize)
# ---------------------------------------------------------------------------

def ref_merge_timelines(timelines):
    merged = [([], []) for _ in range(max(map(len, timelines), default=0))]
    for steps in timelines:
        for (us, vs), step in zip(merged, steps):
            us += step.us
            vs += step.vs
    return [SwapLayer(us, vs) for us, vs in merged]


def ref_route_tree_rec(vertices, adj, token_at, target):
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
        return [SwapLayer(us, vs) for us, vs in
                _oet_timesteps(order, lambda tok: pos[target[tok]], token_at)]

    c = _subtree_centroid(vertices, adj)

    gates = list(adj[c])
    comps = []
    comp_of = {}
    parent = {}
    dist_to_gate = {}
    for cid, gate in enumerate(gates):
        comp = [gate]
        comp_of[gate], parent[gate], dist_to_gate[gate] = cid, c, 0
        for v in comp:
            for w in adj[v]:
                if w != c and w not in comp_of:
                    comp_of[w], parent[w] = cid, v
                    dist_to_gate[w] = dist_to_gate[v] + 1
                    comp.append(w)
        comps.append(comp)

    CENTER = -1

    def node_of(v):
        return CENTER if v == c else comp_of[v]

    out_edges = {}
    for v in vertices:
        tok = token_at[v]
        a, b = node_of(v), node_of(target[tok])
        if a != b:
            rank = dist_to_gate.get(v, 0)
            out_edges.setdefault(a, []).append((a, b, tok, rank))

    steps = []
    if out_edges:
        for edges in out_edges.values():
            edges.sort(key=lambda e: (e[3], e[2]))

        theta_c = next(token_at[v] for v in vertices
                       if target[token_at[v]] == c)
        actions = []
        for entry in sorted(out_edges):
            if not out_edges[entry]:
                continue
            trail = _euler_circuit(entry, out_edges)
            if entry != CENTER:
                actions.append((gates[entry], trail[0][2]))
            for k in range(len(trail) - 1):
                actions.append((gates[trail[k][1]], trail[k + 1][2]))
            if entry != CENTER:
                actions.append((gates[trail[-1][1]], theta_c))

        queue_of = {}
        for gate_v, tok in actions:
            queue_of.setdefault(gate_v, []).append(tok)
        pos_of = {token_at[v]: v for v in vertices}

        pending = deque(actions)
        guard = 0
        while pending:
            guard += 1
            if guard > (m + 5) * (m + 5):
                raise AssertionError("relay failed to make progress")
            gate_v, expected = pending[0]
            us = []
            vs = []
            claimed = set()
            if token_at[gate_v] == expected:
                us.append(c)
                vs.append(gate_v)
                claimed.update((c, gate_v))
                pending.popleft()
                queue_of[gate_v].pop(0)
            for gate in gates:
                for tok in queue_of.get(gate, ()):
                    x = pos_of[tok]
                    if x == gate or node_of(x) != comp_of[gate]:
                        continue
                    y = parent[x]
                    if x in claimed or y in claimed:
                        continue
                    if y == gate and tok != queue_of[gate][0]:
                        continue
                    claimed.update((x, y))
                    us.append(x)
                    vs.append(y)
            for u, v in zip(us, vs):
                token_at[u], token_at[v] = token_at[v], token_at[u]
                pos_of[token_at[u]], pos_of[token_at[v]] = u, v
            steps.append(SwapLayer(us, vs))

        if target[token_at[c]] != c:
            raise AssertionError("relay left a foreign token at the centroid")

    child_steps = []
    for cid, verts in enumerate(comps):
        sub_adj = {v: [w for w in adj[v] if w != c] for v in verts}
        for v in verts:
            if node_of(target[token_at[v]]) != cid:
                raise AssertionError("token stranded outside its component")
        child_steps.append(ref_route_tree_rec(verts, sub_adj, token_at, target))
    steps.extend(ref_merge_timelines(child_steps))
    return steps


def ref_route_tree(g, pi):
    adj = {v: list(g._adj[v]) for v in range(g.n)}
    token_at = {v: v for v in range(g.n)}
    target = {tok: pi(tok) for tok in range(g.n)}
    return Schedule(ref_route_tree_rec(list(range(g.n)), adj, token_at,
                                       target))


def ref_route_product(g1, g2, pi):
    n1, n2 = g1.n, g2.n

    bucket = {}
    for v in range(n1 * n2):
        bucket.setdefault((v % n2, pi(v) % n2), []).append(v)

    mult = {(x, xd): len(toks) for (x, xd), toks in bucket.items()}
    keys = sorted(mult)
    matchings = []
    for _ in range(n1):
        left_adj = {x: [] for x in range(n2)}
        for x, xd in keys:
            if mult[(x, xd)] > 0:
                left_adj[x].append(xd)
        match = _perfect_matching(left_adj)
        matchings.append(match)
        for x, xd in match.items():
            mult[(x, xd)] -= 1

    rows_in = {key: {tok // n2 for tok in toks}
               for key, toks in bucket.items()}
    rows_left = set(range(n1))
    row_of_matching = {}
    for j, match in enumerate(matchings):
        best_r, best_score = None, -1
        for r in sorted(rows_left):
            score = sum(r in rows_in[key] for key in match.items())
            if score > best_score:
                best_r, best_score = r, score
        row_of_matching[j] = best_r
        rows_left.discard(best_r)

    remaining = {key: sorted(toks) for key, toks in bucket.items()}
    inter_row = {}
    for j, match in enumerate(matchings):
        r = row_of_matching[j]
        for x, xd in match.items():
            toks = remaining[(x, xd)]
            pick = next((t for t in toks if t // n2 == r), toks[0])
            toks.remove(pick)
            inter_row[pick] = r

    at = list(range(n1 * n2))
    steps = []
    for factor, copies, offset, stride, dest in (
            (g1, n2, 1, n2, inter_row.__getitem__),
            (g2, n1, n2, 1, lambda t: pi(t) % n2),
            (g1, n2, 1, n2, lambda t: pi(t) // n2)):
        timelines = []
        for c in range(copies):
            cells = range(c * offset, c * offset + factor.n * stride, stride)
            toks = [at[v] for v in cells]
            image = [dest(t) for t in toks]
            sub = ref_route_generic(factor, Permutation(tuple(image)))
            cell = cells.__getitem__
            timelines.append([SwapLayer(map(cell, step.us), map(cell, step.vs))
                              for step in sub.timesteps])
            for t, i in zip(toks, image):
                at[cells[i]] = t
        steps.extend(ref_merge_timelines(timelines))

    at = list(range(n1 * n2))
    for step in steps:
        for u, v in zip(step.us, step.vs):
            at[u], at[v] = at[v], at[u]
    if any(pi(t) != v for v, t in enumerate(at)):
        raise AssertionError("product routing failed to place a token")
    return Schedule(steps)


def ref_route_generic(g, pi):
    if pi.is_identity():
        return Schedule([])
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return route_complete(g, pi)
    if len(g.edges) == g.n - 1:
        return ref_route_tree(g, pi)
    if g.family in ("grid", "hypercube") and g.param_dict.get("d", 1) >= 2:
        return ref_route_product(*_product_factors(g), pi)
    tree = ArchGraph(g.n, tuple(sorted(spanning_tree(g, 0))),
                     ancilla_budget=g.ancilla_budget)
    return ref_route_tree(tree, pi)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def layers(sched):
    """Each layer's endpoint lists, in emission order."""
    return [(step.us, step.vs) for step in sched.timesteps]


@st.composite
def product_perms(draw, n1, n2):
    """A permutation of the n1 x n2 product, vertex (a, x) at a*n2 + x:
    a uniform one, or now and then a product of a row and a column
    permutation, whose copies all share an image."""
    if draw(st.booleans()):
        return Permutation(tuple(draw(st.permutations(range(n1 * n2)))))
    rows = draw(st.permutations(range(n1)))
    cols = draw(st.permutations(range(n2)))
    return Permutation(tuple(rows[v // n2] * n2 + cols[v % n2]
                             for v in range(n1 * n2)))


@st.composite
def product_graphs(draw):
    """A grid with side <= 6 in 2 or 3 dimensions, or a hypercube of
    dimension 2..6, with a permutation of its vertices."""
    if draw(st.booleans()):
        n, d = draw(st.integers(2, 6)), draw(st.integers(2, 3))
        g = generate_graph("grid", n=n, d=d)
    else:
        g = generate_graph("hypercube", d=draw(st.integers(2, 6)))
    first, rest = _product_factors(g)
    return g, draw(product_perms(first.n, rest.n))


@settings(max_examples=60, deadline=None)
@given(product_graphs())
@example((generate_graph("hypercube", d=6),
          Permutation(tuple(63 - v for v in range(64)))))
@example((generate_graph("grid", n=6, d=2),
          Permutation(tuple(35 - v for v in range(36)))))
def test_product_graphs_match_reference(instance):
    g, pi = instance
    assert layers(route_generic(g, pi)) == layers(ref_route_generic(g, pi))


@st.composite
def path_products(draw):
    a, b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    return a, b, draw(product_perms(a, b))


@settings(max_examples=80, deadline=None)
@given(path_products())
@example((2, 4, Permutation((4, 1, 5, 2, 0, 3, 7, 6))))
def test_path_products_match_reference(instance):
    a, b, pi = instance
    pa, pb = generate_graph("path", n=a), generate_graph("path", n=b)
    assert layers(route_product(pa, pb, pi)) == layers(
        ref_route_product(pa, pb, pi))


@st.composite
def random_trees(draw):
    """A random recursive tree on 2..60 vertices with scrambled labels,
    and a permutation of its vertices."""
    n = draw(st.integers(2, 60))
    label = draw(st.permutations(range(n)))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = sorted(tuple(sorted((label[p], label[v])))
                   for v, p in zip(range(1, n), parents))
    pi = Permutation(tuple(draw(st.permutations(range(n)))))
    return ArchGraph(n, tuple(edges)), pi


@settings(max_examples=150, deadline=None)
@given(random_trees())
def test_random_trees_match_reference(instance):
    g, pi = instance
    assert layers(route_generic(g, pi)) == layers(ref_route_generic(g, pi))


@st.composite
def spanning_tree_graphs(draw):
    """A butterfly, wheel or ladder graph (routed on its BFS spanning
    tree) with a permutation of its vertices."""
    family, param, lo, hi = draw(st.sampled_from([
        ("butterfly", "r", 2, 4), ("wheel", "n", 4, 80),
        ("ladder", "n", 3, 6)]))
    g = generate_graph(family, **{param: draw(st.integers(lo, hi))})
    return g, Permutation(tuple(draw(st.permutations(range(g.n)))))


@settings(max_examples=80, deadline=None)
@given(spanning_tree_graphs())
def test_spanning_trees_match_reference(instance):
    g, pi = instance
    assert layers(route_generic(g, pi)) == layers(ref_route_generic(g, pi))
