"""Connectivity graphs, permutation workloads, and basic metric queries.

Vertices are integers ``0 .. n-1``.  Graphs are simple, undirected and
connected; every vertex carries one data slot and a uniform number of
ancilla slots (``ancilla_budget``).  The module provides the standard
benchmark families (path, complete, wheel, layered complete ladder,
hypercube, wrap-around butterfly, grid power of a path) plus the
permutation workloads used to exercise routers.

Both vocabularies are declared once, in ``FAMILY_PARAMS`` and
``PERMUTATION_PARAMS``.  Only :func:`generate_graph` sets a graph's
``family``; :func:`graph_from_json` builds a file's named family with
it and rejects a file whose edges or labels it does not reproduce.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, product, repeat
from operator import index

import numpy as np

__all__ = [
    "FAMILY_PARAMS",
    "PERMUTATION_PARAMS",
    "ArchGraph",
    "Permutation",
    "generate_graph",
    "generate_permutation",
    "cartesian_product",
    "bfs_distances",
    "check_vertices",
    "diameter",
    "distance_rows",
    "DistanceRows",
    "eccentricities",
    "graph_center",
    "next_hop",
    "shortest_path",
    "vertex_boundary",
    "spanning_tree",
    "graph_to_json",
    "graph_from_json",
    "graph_to_dot",
]

DEFAULT_ANCILLA_BUDGET = 6


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

def _canonical_adjacency(edges, n: int) -> list[list[int]] | None:
    """The neighbour lists of ``edges`` if it is already the tuple
    :class:`ArchGraph` keeps: int pairs ``(u, v)`` with
    ``0 <= u < v < n``, strictly increasing.  Otherwise None; an entry
    that is not an exact int (a bool, a numpy int) does not count.
    Sorted edges list each vertex's smaller neighbours in increasing
    order, then its larger ones, so no list needs a sort."""
    if type(edges) is not tuple or type(n) is not int:
        return None
    adj = [[] for _ in range(n)]
    prev = (0, 0)   # below every pair with 0 <= u < v
    for e in edges:
        if type(e) is not tuple or len(e) != 2:
            return None
        u, v = e
        if not (type(u) is int and type(v) is int and 0 <= u < v < n
                and prev < e):
            return None
        adj[u].append(v)
        adj[v].append(u)
        prev = e
    return adj


def _adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The neighbour lists of ``edges``, sorted pairs ``(u, v)`` with
    ``u < v`` already checked: one walk, in the order
    :func:`_canonical_adjacency` explains."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ArchGraph:
    """An interaction graph with per-vertex ancilla capacity.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : tuple of (int, int)
        Undirected edges, normalized to ``u < v``, sorted, with each
        endpoint an exact int (a bool or numpy int is converted by
        :func:`operator.index`; anything else raises ValueError).  A
        tuple of int pairs already in that form is kept as given.
    ancilla_budget : int
        Ancilla slots available at every vertex.
    labels : tuple or None
        Optional per-vertex labels (family coordinates).

    Attributes
    ----------
    family : str or None
        Generator family name, set only by :func:`generate_graph`:
        routers and bounds trust it to describe the edges.
    params : tuple
        Generator parameters as a sorted tuple of (name, value) pairs.

    The constructor checks its input: vertex count and budget, each
    edge, labels and connectivity.  A family graph from
    :func:`generate_graph` does not pass through it: its builder gives
    the sorted edges and neighbour lists in closed form, canonical and
    connected by construction, and only its params and budget are
    checked.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    ancilla_budget: int = DEFAULT_ANCILLA_BUDGET
    labels: tuple | None = None
    family: str | None = field(default=None, init=False)
    params: tuple = field(default=(), init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.ancilla_budget < 0:
            raise ValueError("ancilla_budget must be >= 0")
        adj = _canonical_adjacency(self.edges, self.n)
        if adj is None:
            norm = []
            seen = set()
            for u, v in self.edges:
                try:
                    u, v = index(u), index(v)
                except TypeError:
                    raise ValueError(f"edge ({u!r},{v!r}) endpoint is not an "
                                     f"integer") from None
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError(f"edge ({u},{v}) out of range")
                e = (u, v) if u < v else (v, u)
                if e in seen:
                    raise ValueError(f"duplicate edge {e}")
                seen.add(e)
                norm.append(e)
            object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")
        # the normalized edges are sorted too
        adj = (_adjacency(self.n, self.edges) if adj is None
               else tuple(map(tuple, adj)))
        object.__setattr__(self, "_adj", adj)
        if -1 in bfs_distances(self, 0):
            raise ValueError("graph must be connected")

    # the three queries below reject vertices outside range(n), which
    # would otherwise index the adjacency from its end; loops that have
    # checked their vertices read ``_adj`` directly

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        check_vertices(self, (v,))
        return self._adj[v]

    def degree(self, v: int) -> int:
        check_vertices(self, (v,))
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        check_vertices(self, (u, v))
        return v in self._adj[u]

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def ref_hash(self) -> str:
        """Stable short hash of the canonical JSON form.
        :func:`graph_from_json` keeps it on a graph it loaded by that
        text, so the graph is not serialized again."""
        kept = self.__dict__.get("_ref_hash")
        return kept if kept is not None else _text_hash(graph_to_json(self))


@dataclass(frozen=True)
class Permutation:
    """A permutation of vertices; ``image[v]`` is where v's token must go."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError("image is not a permutation of 0..n-1")
        object.__setattr__(self, "image", tuple(self.image))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

    @property
    def n(self) -> int:
        return len(self.image)

    def is_identity(self) -> bool:
        return all(self.image[v] == v for v in range(len(self.image)))

    def support(self) -> tuple[int, ...]:
        return tuple(v for v in range(len(self.image)) if self.image[v] != v)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen = set()
        out = []
        for v in range(len(self.image)):
            if v in seen or self.image[v] == v:
                continue
            cyc = [v]
            seen.add(v)
            w = self.image[v]
            while w != v:
                cyc.append(w)
                seen.add(w)
                w = self.image[w]
            out.append(tuple(cyc))
        return out

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_pairs(n: int, pairs) -> "Permutation":
        """Product of disjoint transpositions given as (u, v) pairs."""
        image = list(range(n))
        for u, v in pairs:
            if image[u] != u or image[v] != v:
                raise ValueError("pairs are not disjoint")
            image[u], image[v] = v, u
        return Permutation(tuple(image))


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

# A builder returns ``(n, edges, adj, labels)``: the sorted edges and
# the neighbour lists :class:`ArchGraph` would derive from them.  Each
# family is connected by construction.  A closed form slices its
# vertices from one list ``vs``, so that edges and neighbour lists share
# their int objects, as they do when the lists are walked off the edges.
# It makes every row a list before it makes any a tuple: tuples made
# between one row's temporaries and the next fragment the heap and
# raise peak RSS.

def _path(n: int):
    if n < 1:
        raise ValueError("path needs n >= 1")
    vs = list(range(n))
    edges = tuple(zip(vs, vs[1:]))
    adj = ((),) if n == 1 else ((vs[1],), *zip(vs, vs[2:]), (vs[-2],))
    return n, edges, adj, None


def _complete(n: int):
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    vs = list(range(n))
    edges = tuple(chain.from_iterable(zip(repeat(u), vs[u + 1:])
                                      for u in vs))
    adj = tuple(map(tuple, [vs[:u] + vs[u + 1:] for u in vs]))
    return n, edges, adj, None


def _wheel(n: int):
    """Rim cycle 0..n-1 plus a hub (index n) adjacent to every rim vertex."""
    if n < 3:
        raise ValueError("wheel needs rim size n >= 3")
    hub = n
    edges = ((0, 1), (0, n - 1), (0, hub),
             *chain.from_iterable(((u, u + 1), (u, hub))
                                  for u in range(1, n - 1)),
             (n - 1, hub))
    return n + 1, edges, _adjacency(n + 1, edges), (*range(n), "hub")


def _ladder(n: int):
    """Layered complete graph: layer r in 1..n is a clique on 2^(r-1)
    vertices, and consecutive layers are completely joined.

    Vertex indices follow the address order: the vertex with 1-based
    address a (binary, leading 1) has index a-1; layer(a) = bit length
    of a.  Labels are (layer, position-in-layer), both 1-based.  Layers
    are contiguous index ranges, so u in layer r neighbours the range
    from the first vertex of layer r - 1 up to the end of layer r + 1,
    less u itself.
    """
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    size = 2 ** n - 1
    vs = list(range(size))
    labels, edges, adj = [], [], []
    for r in range(1, n + 1):
        first, end = 2 ** (r - 1) - 1, 2 ** r - 1   # layer r's indices
        lo, hi = first >> 1, min(2 * end + 1, size)
        for u in vs[first:end]:
            edges += zip(repeat(u), vs[u + 1:hi])
            adj.append(vs[lo:u] + vs[u + 1:hi])
        labels += zip(repeat(r), range(1, end - first + 1))
    return size, tuple(edges), tuple(map(tuple, adj)), tuple(labels)


def _hypercube(d: int):
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    n = 2 ** d
    bits = [1 << b for b in range(d)]
    edges = tuple((u, u | s) for u in range(n) for s in bits if not u & s)
    labels = tuple(format(u, f"0{d}b") for u in range(n))
    return n, edges, _adjacency(n, edges), labels


def _butterfly(r: int):
    """Wrap-around butterfly: vertices (w, i) with w an r-bit word and
    i a level in 0..r-1; (w, i) ~ (v, i+1 mod r) iff v == w or v == w ^ (1<<i).
    """
    if r < 2:
        raise ValueError("butterfly needs r >= 2")
    words = 2 ** r
    edges = set()   # at r = 2 the two level pairs coincide
    for i in range(r):
        # (w, i) has index i * words + w
        base, up = i * words, (i + 1) % r * words
        for w in range(words):
            for v in (w, w ^ (1 << i)):
                a, b = base + w, up + v
                edges.add((a, b) if a < b else (b, a))
    edges = tuple(sorted(edges))
    labels = tuple((w, i) for i in range(r) for w in range(words))
    return r * words, edges, _adjacency(r * words, edges), labels


def cartesian_product(g1: ArchGraph, g2: ArchGraph) -> ArchGraph:
    """Cartesian product with ``g1``'s ancilla budget; vertex (a, x)
    maps to index a*|g2| + x."""
    n2 = g2.n
    n = g1.n * n2
    edges = []
    for a, b in g1.edges:
        edges += [(a * n2 + x, b * n2 + x) for x in range(n2)]
    for x, y in g2.edges:
        edges += [(a * n2 + x, a * n2 + y) for a in range(g1.n)]
    labels = None
    if g1.labels is not None or g2.labels is not None:
        l1 = g1.labels or tuple(range(g1.n))
        l2 = g2.labels or tuple(range(g2.n))
        labels = tuple((l1[a], l2[x]) for a in range(g1.n) for x in range(n2))
    return ArchGraph(n, tuple(sorted(edges)), g1.ancilla_budget,
                     labels=labels)


def _grid(n: int, d: int):
    """d-fold Cartesian power of the n-vertex path; labels are coordinate
    tuples in row-major order (first coordinate most significant)."""
    if n < 1 or d < 1:
        raise ValueError("grid needs n >= 1 and d >= 1")
    size = n ** d
    # v's coordinate of weight s steps by +1 unless it is already n - 1;
    # v's larger neighbours come in increasing s, so the edges are sorted
    strides = [n ** k for k in range(d)]
    edges = tuple((v, v + s) for v in range(size) for s in strides
                  if v // s % n < n - 1)
    labels = tuple(product(range(n), repeat=d))
    return size, edges, _adjacency(size, edges), labels


# kind -> (builder, required params, optional params); a family's first
# param is its size, the one an ``advantage`` sweep varies
_FAMILIES = {
    "path": (_path, ("n",), ()),
    "complete": (_complete, ("n",), ()),
    "wheel": (_wheel, ("n",), ()),
    "ladder": (_ladder, ("n",), ()),
    "hypercube": (_hypercube, ("d",), ()),
    "butterfly": (_butterfly, ("r",), ()),
    "grid": (_grid, ("n", "d"), ()),
}


def _lookup(table: dict, what: str, kind: str, params: dict):
    """The builder of ``kind`` in ``table``, once ``params`` names every
    required parameter of the kind and nothing else."""
    if kind not in table:
        raise ValueError(f"unknown {what} {kind!r}")
    fn, required, optional = table[kind]
    missing = [p for p in required if p not in params]
    if missing:
        raise ValueError(f"{kind} requires parameters {missing}")
    extra = [p for p in params if p not in required + optional]
    if extra:
        raise ValueError(f"{kind} got unexpected parameters {extra}")
    return fn


def generate_graph(kind: str, ancilla_budget: int = DEFAULT_ANCILLA_BUDGET,
                   **params) -> ArchGraph:
    """Build a named graph family, stamped with ``family`` and ``params``.

    Kinds and parameters: path(n), complete(n), wheel(n = rim size),
    ladder(n = layers), hypercube(d), butterfly(r), grid(n, d).
    """
    return _build_family(kind, ancilla_budget, params)


def _build_family(kind: str, budget: int, params: dict) -> ArchGraph:
    # params is checked before it is spread, so a name like
    # "ancilla_budget" in a file's params is rejected, not a TypeError
    build = _lookup(_FAMILIES, "graph family", kind, params)
    for name, value in (*params.items(), ("ancilla_budget", budget)):
        if type(value) is not int:
            raise ValueError(f"{kind} parameter {name!r} must be an "
                             f"integer, got {value!r}")
    if budget < 0:
        raise ValueError("ancilla_budget must be >= 0")
    n, edges, adj, labels = build(**params)
    # the builder's edges and neighbour lists are canonical and connected
    # by construction, and the checks above cover the rest of ArchGraph's,
    # so its constructor is skipped
    g = object.__new__(ArchGraph)
    vars(g).update(n=n, edges=edges, ancilla_budget=budget, labels=labels,
                   family=kind, params=tuple(sorted(params.items())),
                   _adj=adj)
    return g


# ---------------------------------------------------------------------------
# permutation workloads
# ---------------------------------------------------------------------------

def _perm_diam(g: ArchGraph) -> Permutation:
    """Exchange a diametral pair (lexicographically smallest one).

    u is the first vertex of eccentricity D, v the first vertex at
    distance D from u; every vertex below u has eccentricity < D, so
    v > u and no pair (u', v') with u' < u is diametral.
    """
    ecc = eccentricities(g)
    dmax = max(ecc)
    if dmax == 0:  # single vertex
        return Permutation.identity(g.n)
    u = ecc.index(dmax)
    return Permutation.from_pairs(g.n, [(u, bfs_distances(g, u).index(dmax))])


def _perm_rainbow(g: ArchGraph, alpha: float) -> Permutation:
    if g.family != "path":
        raise ValueError("rainbow permutation requires a path graph")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = g.n
    count = min(int(n ** alpha), n // 2)
    pairs = [(i, n - 1 - i) for i in range(count)]
    return Permutation.from_pairs(n, pairs)


def _perm_wheel(g: ArchGraph, l: int) -> Permutation:
    """Exchange the endpoints of l equal rim segments: 0-based pairs
    (j*(N/l), (j+1)*(N/l) - 1) for j = 0..l-1 on the rim of size N."""
    if g.family != "wheel":
        raise ValueError("wheel permutation requires a wheel graph")
    rim = g.param_dict["n"]
    if l < 1 or rim % l != 0:
        raise ValueError("segment count l must divide the rim size")
    m = rim // l
    pairs = [(j * m, (j + 1) * m - 1) for j in range(l)]
    pairs = [(a, b) for a, b in pairs if a != b]
    return Permutation.from_pairs(g.n, pairs)


def _perm_reflection(g: ArchGraph) -> Permutation:
    n = g.n
    return Permutation(tuple(n - 1 - v for v in range(n)))


def _perm_cyclic(g: ArchGraph, s: int) -> Permutation:
    n = g.n
    return Permutation(tuple((v + s) % n for v in range(n)))


def _perm_random(g: ArchGraph, seed: int, k: int | None = None) -> Permutation:
    rng = random.Random(seed)
    n = g.n
    if k is None:
        image = list(range(n))
        rng.shuffle(image)
        return Permutation(tuple(image))
    if not 2 <= k <= n:
        raise ValueError("support size k must lie in [2, n]")
    verts = rng.sample(range(n), k)
    rng.shuffle(verts)
    image = list(range(n))
    for i, v in enumerate(verts):  # one k-cycle: support is exactly k
        image[v] = verts[(i + 1) % k]
    return Permutation(tuple(image))


# kind -> (builder, required params, optional params)
_PERMUTATIONS = {
    "identity": (lambda g: Permutation.identity(g.n), (), ()),
    "diam": (_perm_diam, (), ()),
    "rainbow": (_perm_rainbow, ("alpha",), ()),
    "wheel": (_perm_wheel, ("l",), ()),
    "reflection": (_perm_reflection, (), ()),
    "cyclic_shift": (_perm_cyclic, ("s",), ()),
    "random": (_perm_random, ("seed",), ("k",)),
}

# kind -> its parameter names, required first
FAMILY_PARAMS = {kind: req + opt for kind, (_, req, opt) in _FAMILIES.items()}
PERMUTATION_PARAMS = {kind: req + opt
                      for kind, (_, req, opt) in _PERMUTATIONS.items()}


def generate_permutation(kind: str, g: ArchGraph, **params) -> Permutation:
    """Build a named permutation workload on ``g``.

    Kinds: identity, diam, rainbow(alpha), wheel(l), reflection,
    cyclic_shift(s), random(seed, k=None).  Parameters are checked like
    :func:`generate_graph`'s.
    """
    return _lookup(_PERMUTATIONS, "permutation kind", kind, params)(
        g, **params)


# ---------------------------------------------------------------------------
# metric queries
# ---------------------------------------------------------------------------

def check_vertices(g: ArchGraph, vs, what: str = "vertex") -> None:
    """Raise ValueError naming the smallest of ``vs`` outside
    ``range(g.n)``; negative vertices would otherwise index from the
    end."""
    outside = [v for v in vs if not 0 <= v < g.n]
    if outside:
        raise ValueError(f"{what} {min(outside)} is not in range({g.n})")


def bfs_distances(g: ArchGraph, source: int) -> list[int]:
    """BFS distance from ``source`` to every vertex."""
    check_vertices(g, (source,))
    adj = g._adj
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _sweep_levels(g: ArchGraph):
    """The all-sources BFS behind :func:`eccentricities` and
    :func:`distance_rows`: ``(row, levels)``, where ``row[t]`` is the
    row of vertex t and ``levels`` yields, for L = 1, 2, ... up to the
    diameter, the n x ceil(n/64) matrix of 64-bit words whose row
    ``row[t]`` has bit v set exactly when d(v, t) = L.  Each yielded
    matrix is overwritten by the next level.

    It is the level-synchronous BFS from all n sources at once of Then
    et al., "The More the Merrier" (VLDB 2014): each vertex holds a
    bitset of the sources that have reached it.  One level ORs the
    frontier bitsets of each vertex's neighbours and keeps the bits the
    vertex has not seen.  Rows are the vertices by decreasing degree,
    so slot j (every vertex's j-th neighbour) is one gather into a
    prefix of the rows, no larger than the frontier itself.  Gathers
    stop at the slot J that minimises J plus the number of rows of
    degree above J; each such row ORs its remaining neighbours in one
    reduction, so a hub costs one call per level, not one gather per
    neighbour slot.  A level costs O(m·n/64) word operations.
    """
    n, adj = g.n, g._adj
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    row = [0] * n
    for i, v in enumerate(order):
        row[v] = i
    tops = []  # tops[j]: the number of rows with a j-th neighbour
    k = n
    for j in count():
        while k and len(adj[order[k - 1]]) <= j:
            k -= 1
        if not k:
            break
        tops.append(k)
    tops.append(0)
    cut = min(range(len(tops)), key=lambda j: j + tops[j])
    slots = [(top, np.array([row[adj[v][j]] for v in order[:top]],
                            dtype=np.intp))
             for j, top in enumerate(tops[:cut])]
    tail = [(i, np.array([row[w] for w in adj[v][cut:]], dtype=np.intp))
            for i, v in enumerate(order[:tops[cut]])]

    def levels():
        src = np.array(order, dtype="<u8")
        frontier = np.zeros((n, (n + 63) // 64), dtype="<u8")
        frontier[np.arange(n), src >> 6] = np.uint64(1) << (src & 63)
        unseen, nxt = ~frontier, np.empty_like(frontier)
        while True:
            nxt.fill(0)
            for top, nb in slots:
                nxt[:top] |= frontier[nb]
            for i, nb in tail:
                nxt[i] |= np.bitwise_or.reduce(frontier[nb], axis=0)
            nxt &= unseen
            if not nxt.any():
                return
            yield nxt
            unseen ^= nxt
            frontier, nxt = nxt, frontier

    return row, levels()


def _grid_eccentricities(n: int, d: int) -> list[int]:
    # a Cartesian product's eccentricity is the sum of its factors'
    ecc, path = [0], [max(x, n - 1 - x) for x in range(n)]
    for _ in range(d):
        ecc = [e + p for e in ecc for p in path]
    return ecc


# family -> its eccentricities from its params, in vertex order
_ECCENTRICITIES = {
    "path": lambda n: [max(v, n - 1 - v) for v in range(n)],
    "complete": lambda n: [min(n - 1, 1)] * n,
    # rim vertices, then the hub
    "wheel": lambda n: [1 if n == 3 else 2] * n + [1],
    # layer r holds 2^(r-1) vertices and lies |r - s| from layer s
    "ladder": lambda n: [max(r - 1, n - r) for r in range(1, n + 1)
                         for _ in range(2 ** (r - 1))],
    "hypercube": lambda d: [d] * 2 ** d,
    "grid": _grid_eccentricities,
    "butterfly": lambda r: [3 * r // 2] * (r * 2 ** r),
}


def eccentricities(g: ArchGraph) -> list[int]:
    """BFS eccentricity of every vertex.

    A built-in family takes them in closed form from ``g.params``
    (``_ECCENTRICITIES``), without a BFS:

    - path n: max(v, n-1-v);
    - complete n: 1, or 0 when n = 1;
    - wheel with rim n: 2 on the rim (1 when n = 3), 1 at the hub;
    - ladder n: max(r-1, n-r) in layer r, the bit length of v + 1;
    - hypercube d: d;
    - grid (n, d): the sum of max(x, n-1-x) over v's coordinates;
    - butterfly r: floor(3r/2), the same at every vertex, since the
      wrapped butterfly is vertex-transitive.

    The table trusts ``g.family`` as the routers and ``bounds`` do:
    only :func:`generate_graph` sets it, and :func:`graph_from_json`
    rejects a file whose edges its family does not rebuild.

    A graph with no family that is a tree (n - 1 edges) takes three
    BFS sweeps: a is a farthest vertex from vertex 0, b a farthest
    vertex from a, and ecc(v) = max(d(v, a), d(v, b)).  Both steps
    follow from the four-point condition of tree metrics,
    d(v, w) + d(p, q) <= max(d(v, p) + d(w, q), d(v, q) + d(w, p)).
    With (p, q) a diametral pair and w = a, v = 0 (so d(0, p), d(0, q)
    <= d(0, a)), it gives D <= max(d(a, p), d(a, q)) <= ecc(a), so a-b
    is a diameter.  With (p, q) = (a, b), every distance from a or b is
    at most D = d(a, b), so d(v, w) <= max(d(v, a), d(v, b)) for every w.

    Any other graph takes the all-sources word sweep that
    :func:`distance_rows` also runs (see ``_sweep_levels``): a
    source's eccentricity is the last level at which it reached a new
    vertex.  There are D + 1 levels, so the sweep costs O(D·m·n/64)
    word operations against O(n·m) for one BFS per source: a large win
    at small diameter.  Paths and brooms, where it grows like n³, are
    trees and never reach it.
    """
    closed = _ECCENTRICITIES.get(g.family)
    if closed is not None:
        return closed(**g.param_dict)
    if len(g.edges) == g.n - 1:
        far = bfs_distances(g, 0)
        da = bfs_distances(g, far.index(max(far)))
        db = bfs_distances(g, da.index(max(da)))
        return [max(x, y) for x, y in zip(da, db)]
    n = g.n
    ecc = np.zeros(n, dtype=np.int64)
    for level, nxt in enumerate(_sweep_levels(g)[1], 1):
        reached = np.bitwise_or.reduce(nxt, axis=0)
        ecc[np.unpackbits(reached.view(np.uint8), count=n,
                          bitorder="little").view(bool)] = level
    return ecc.tolist()


def _ecc0(g: ArchGraph) -> int:
    """The eccentricity of vertex 0, which sizes distance work: a
    family's closed form, or else one BFS (never the all-sources sweep
    that it sizes)."""
    closed = _ECCENTRICITIES.get(g.family)
    if closed is not None:
        return closed(**g.param_dict)[0]
    return max(bfs_distances(g, 0))


class DistanceRows:
    """BFS distances between all pairs of vertices, bit-sliced: bit b
    of d(v, t) is bit v of row ``row[t]`` in plane b, an n x ceil(n/64)
    matrix of 64-bit words.  :func:`distance_rows` builds one plane
    per bit of 2·ecc(0), which bounds the diameter: grid 32² (N = 1024,
    diameter 62) takes 7 x 128 KiB."""

    def __init__(self, n: int, row: list[int], planes: np.ndarray):
        self.n = n
        self._row = row
        self._planes = planes
        # plane b's bits move up by b, as a column against (planes, n)
        self._shifts = np.arange(len(planes), dtype=np.uint16)[:, None]

    def __getitem__(self, t: int) -> memoryview:
        """d(v, t) for every vertex v, unpacked into a uint16
        memoryview (indexing it gives ints)."""
        check_vertices(self, (t,))
        words = self._planes[:, self._row[t]]
        bits = np.unpackbits(words.view(np.uint8), axis=1, count=self.n,
                             bitorder="little").astype(np.uint16)
        bits <<= self._shifts
        return memoryview(np.bitwise_or.reduce(bits, axis=0))

    def between(self, us, vs) -> list[int]:
        """d(u, v) for each pair of equal-length sequences ``us`` and
        ``vs``, read off the planes without unpacking a row."""
        check_vertices(self, chain(us, vs))
        u = np.asarray(us, dtype=np.intp)
        rows = np.array([self._row[v] for v in vs], dtype=np.intp)
        words = self._planes[:, rows, u >> 6]
        bits = (words >> (u & 63).astype(np.uint64)) & np.uint64(1)
        bits <<= self._shifts.astype(np.uint64)
        return np.bitwise_or.reduce(bits, axis=0).tolist()


def distance_rows(g: ArchGraph) -> DistanceRows:
    """Every BFS distance of ``g`` from one all-sources word sweep
    (the one :func:`eccentricities` runs off trees), kept packed: level
    L ORs its matrix into the planes of the bits set in L.  Rows are
    unpacked only when asked for.

    The diameter is at most 2·ecc(0), so ecc(0) sizes the planes
    before the sweep, with at most one plane to spare: a family reads
    it from ``_ECCENTRICITIES``, any other graph takes one BFS."""
    row, levels = _sweep_levels(g)
    planes = np.zeros(((2 * _ecc0(g)).bit_length(), g.n,
                       (g.n + 63) // 64), dtype="<u8")
    for level, nxt in enumerate(levels, 1):
        for b in range(level.bit_length()):
            if level >> b & 1:
                planes[b] |= nxt
    return DistanceRows(g.n, row, planes)


def diameter(g: ArchGraph) -> int:
    """Largest BFS eccentricity over all sources, read off
    :func:`eccentricities`: for a built-in family, the closed forms of
    ``_ECCENTRICITIES``, which trust ``g.family`` to describe its
    edges."""
    return max(eccentricities(g))


def graph_center(g: ArchGraph) -> int:
    """Lowest-index vertex of minimum eccentricity, read off
    :func:`eccentricities`: for a built-in family, the closed forms of
    ``_ECCENTRICITIES``, which trust ``g.family`` to describe its
    edges."""
    ecc = eccentricities(g)
    return ecc.index(min(ecc))


def next_hop(g: ArchGraph, dist: list[int], v: int) -> int:
    """The smallest neighbor ``w`` of ``v`` with ``dist[w] == dist[v] - 1``.

    With ``dist`` the BFS distances to a target t, repeated next hops
    from v trace the lexicographically smallest shortest path to t.
    """
    d = dist[v] - 1
    for w in g._adj[v]:  # sorted, so the first match is the smallest
        if dist[w] == d:
            return w
    raise ValueError(f"vertex {v} has no neighbor one step closer")


def shortest_path(g: ArchGraph, u: int, v: int) -> list[int]:
    """Lexicographically smallest shortest path from u to v.

    Walks from u by :func:`next_hop` over the BFS distances to v: each
    step takes the smallest-index neighbor one step closer to v.
    """
    dist = bfs_distances(g, v)
    if dist[u] < 0:
        raise ValueError("vertices are disconnected")
    path = [u]
    while path[-1] != v:
        path.append(next_hop(g, dist, path[-1]))
    return path


def vertex_boundary(g: ArchGraph, xs) -> set[int]:
    """Vertices outside ``xs`` adjacent to at least one vertex of ``xs``."""
    xs = set(xs)
    check_vertices(g, xs)
    out = set()
    for u in xs:
        for w in g._adj[u]:
            if w not in xs:
                out.add(w)
    return out


def spanning_tree(g: ArchGraph, root: int) -> list[tuple[int, int]]:
    """BFS spanning tree edges (parent, child), discovered in sorted
    neighbor order; deterministic."""
    check_vertices(g, (root,))
    adj = g._adj
    seen = {root}
    queue = deque([root])
    edges = []
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                edges.append((u, w))
                queue.append(w)
    if len(seen) != g.n:
        raise ValueError("graph is disconnected")
    return edges


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _label_to_json(lab):
    if isinstance(lab, tuple):
        return list(lab)
    return lab


# edges per vertex above which graph_to_json writes a vertex at a time
_DENSE_DEGREE = 8


def graph_to_json(g: ArchGraph) -> str:
    """Canonical JSON: {"n", "edges" (sorted, u < v), "ancilla_budget",
    "labels" (optional)}.  Every edge endpoint is an int (the
    constructor makes it one), so the edges are written straight to the
    text ``json.dumps`` gives them.  A sparse graph formats them by one
    ``%`` over the flattened pairs.  A dense one, above
    ``_DENSE_DEGREE`` edges per vertex, joins each vertex's larger
    neighbours (its sorted neighbour list past itself) from texts of
    the vertices made once, as ``[u, v1], [u, v2], ...``.  That order
    is the order of ``edges`` only because every graph's neighbour
    lists are sorted and match its edges, as the constructor and the
    family builders make them.  Measured, the joins take about a third
    of the time of one ``%`` on ladder n=8 (85 edges per vertex) and
    half on complete n=40 (19.5), and four times as long on path 1024
    (1 per vertex).  They tie at 5 to 6 edges per vertex (ladder n=4,
    hypercube d=10, complete n=11 and n=13, a random 512-vertex graph)
    and win by 8-16 % at 8 (complete n=17, random 512-vertex), so the
    rule switches there."""
    doc = {"n": g.n}
    if g.labels is not None:
        doc["labels"] = [_label_to_json(l) for l in g.labels]
    if g.family is not None:
        doc["family"] = g.family
        doc["params"] = {k: v for k, v in g.params}
    if len(g.edges) > _DENSE_DEGREE * g.n:
        text = list(map(str, range(g.n)))
        rows = []
        for u, nb in enumerate(g._adj):
            above = nb[bisect_right(nb, u):]
            if above:
                head = f"[{u}, "
                rows.append(head + ("], " + head).join(
                    map(text.__getitem__, above)) + "]")
        edges = "[" + ", ".join(rows) + "]"
    else:
        edges = ("[%s]" % ", ".join(("[%d, %d]",) * len(g.edges))
                 % tuple(chain.from_iterable(g.edges)))
    # the prefix writes the two keys that sort first; a new key in doc
    # must sort after them, or the text is no longer canonical
    assert min(doc) > "edges", f"{min(doc)!r} sorts before 'edges'"
    return (f'{{"ancilla_budget": {json.dumps(g.ancilla_budget)}, '
            f'"edges": {edges}, {json.dumps(doc, sort_keys=True)[1:]}')


def _family_by_text(text: str) -> ArchGraph | None:
    """The family graph, keeping its ``ref_hash``, whose text is
    ``text``, or None.  Budget, family and params are read unparsed from
    the text's head and tail; their graph's text must then be ``text``."""
    head = '{"ancilla_budget": '
    try:   # a bytes text raises TypeError
        fam = text.rfind('], "family": "') + 14
        at = text.rfind('"params": {') + 11
        if not (text.startswith(head) and text.endswith("}}")
                and 14 <= fam < at):
            return None
        budget = int(text[len(head):text.index(",")])
        params = {}
        for item in filter(None, text[at:-2].split(", ")):
            name, value = item.split(": ")
            params[name[1:-1]] = int(value)
        g = _build_family(text[fam:text.index('"', fam)], budget, params)
    except (TypeError, ValueError):
        return None
    canon = graph_to_json(g)
    if text != canon:
        return None
    object.__setattr__(g, "_ref_hash", _text_hash(canon))
    return g


def graph_from_json(text: str) -> ArchGraph:
    """Parse :func:`graph_to_json` output.  Raises ValueError on JSON
    that is not a graph document.  A document that names a family is
    built with :func:`generate_graph` and must have exactly that graph's
    vertices, edges and labels.

    A text that, stripped of surrounding whitespace, is a family graph's
    :func:`graph_to_json` is matched first, unparsed
    (:func:`_family_by_text`), and keeps its ``ref_hash``.  Any other
    text (edges reordered or flipped, other spacing, a malformed
    document) is parsed and checked key by key as below."""
    g = _family_by_text(text.strip())
    if g is not None:
        return g
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a graph must be a JSON object, got "
                         f"{type(doc).__name__}")
    for key in ("n", "edges"):
        if key not in doc:
            raise ValueError(f"graph JSON has no {key!r} key")
    budget = doc.get("ancilla_budget", DEFAULT_ANCILLA_BUDGET)
    if type(doc["n"]) is not int or type(budget) is not int:
        raise ValueError("graph 'n' and 'ancilla_budget' must be integers")
    try:
        edges = tuple((u, v) for u, v in doc["edges"])
    except (TypeError, ValueError):
        edges = None
    if (not isinstance(doc["edges"], list) or edges is None
            or not set(map(type, chain.from_iterable(edges))) <= {int}):
        raise ValueError("graph 'edges' must be a list of [u, v] integer "
                         "pairs")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ValueError("graph 'labels' must be a list")
        labels = tuple(tuple(l) if isinstance(l, list) else l for l in labels)
    params = doc.get("params", {})
    if not isinstance(params, dict) or any(
            type(v) is not int for v in params.values()):
        raise ValueError("graph 'params' must map names to integers")
    family = doc.get("family")
    if family is None:
        if params:
            raise ValueError("graph 'params' given without a 'family'")
        return ArchGraph(doc["n"], edges, budget, labels)
    # routers and bounds trust a family's structure, so its name and
    # params must describe exactly these edges and labels
    if not isinstance(family, str):
        raise ValueError("graph 'family' must be a string")
    g = _build_family(family, budget, params)
    # graph_to_json writes the edges sorted with u < v, as g holds them
    if ((doc["n"], labels) == (g.n, g.labels)
            and (edges == g.edges or ArchGraph(g.n, edges).edges == g.edges)):
        return g
    raise ValueError(f"graph file's vertices, edges or labels are not those "
                     f"of family {family!r} with params {g.param_dict}")


def graph_to_dot(g: ArchGraph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append(f'  {v} [label="{g.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
