"""Connectivity graphs, permutation workloads, and basic metric queries.

Vertices are integers ``0 .. n-1``.  Graphs are simple, undirected and
connected; every vertex carries one data slot and a uniform number of
ancilla slots (``ancilla_budget``).  The module provides the standard
benchmark families (path, complete, wheel, layered complete ladder,
hypercube, wrap-around butterfly, grid power of a path) plus the
permutation workloads used to exercise routers.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain

__all__ = [
    "ArchGraph",
    "Permutation",
    "generate_graph",
    "generate_permutation",
    "cartesian_product",
    "bfs_distances",
    "diameter",
    "eccentricity",
    "graph_center",
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

@dataclass(frozen=True)
class ArchGraph:
    """An interaction graph with per-vertex ancilla capacity.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : tuple of (int, int)
        Undirected edges, normalized to ``u < v``, sorted.
    ancilla_budget : int
        Ancilla slots available at every vertex.
    labels : tuple or None
        Optional per-vertex labels (family coordinates).
    family : str or None
        Generator family name, when built by :func:`generate_graph`.
    params : tuple
        Generator parameters as a sorted tuple of (name, value) pairs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    ancilla_budget: int = DEFAULT_ANCILLA_BUDGET
    labels: tuple | None = None
    family: str | None = None
    params: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.ancilla_budget < 0:
            raise ValueError("ancilla_budget must be >= 0")
        norm = []
        seen = set()
        for u, v in self.edges:
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
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        if self.n > 1 and not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def ref_hash(self) -> str:
        """Stable short hash of the canonical JSON form."""
        blob = graph_to_json(self).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


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

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for v, w in enumerate(self.image):
            inv[w] = v
        return Permutation(tuple(inv))

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

def _path(n: int, budget: int) -> ArchGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    edges = tuple((i, i + 1) for i in range(n - 1))
    return ArchGraph(n, edges, budget, family="path", params=(("n", n),))


def _complete(n: int, budget: int) -> ArchGraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return ArchGraph(n, edges, budget, family="complete", params=(("n", n),))


def _wheel(n: int, budget: int) -> ArchGraph:
    """Rim cycle 0..n-1 plus a hub (index n) adjacent to every rim vertex."""
    if n < 3:
        raise ValueError("wheel needs rim size n >= 3")
    hub = n
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, hub) for i in range(n)]
    labels = tuple(list(range(n)) + ["hub"])
    return ArchGraph(n + 1, tuple(edges), budget, labels=labels,
                     family="wheel", params=(("n", n),))


def _ladder(n: int, budget: int) -> ArchGraph:
    """Layered complete graph: layer r in 1..n is a clique on 2^(r-1)
    vertices, and consecutive layers are completely joined.

    Vertex indices follow the address order: the vertex with 1-based
    address a (binary, leading 1) has index a-1; layer(a) = bit length
    of a.  Labels are (layer, position-in-layer), both 1-based.
    """
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    size = 2 ** n - 1
    layer_of = [0] * size
    labels = []
    for idx in range(size):
        addr = idx + 1
        r = addr.bit_length()
        layer_of[idx] = r
        labels.append((r, addr - 2 ** (r - 1) + 1))
    edges = []
    for u in range(size):
        for v in range(u + 1, size):
            if abs(layer_of[u] - layer_of[v]) <= 1:
                edges.append((u, v))
    return ArchGraph(size, tuple(edges), budget, labels=tuple(labels),
                     family="ladder", params=(("n", n),))


def _hypercube(d: int, budget: int) -> ArchGraph:
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    n = 2 ** d
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]
    labels = tuple(format(u, f"0{d}b") for u in range(n))
    return ArchGraph(n, tuple(sorted(edges)), budget, labels=labels,
                     family="hypercube", params=(("d", d),))


def _butterfly(r: int, budget: int) -> ArchGraph:
    """Wrap-around butterfly: vertices (w, i) with w an r-bit word and
    i a level in 0..r-1; (w, i) ~ (v, i+1 mod r) iff v == w or v == w ^ (1<<i).
    """
    if r < 2:
        raise ValueError("butterfly needs r >= 2")
    words = 2 ** r

    def idx(w: int, i: int) -> int:
        return i * words + w

    edges = set()
    for i in range(r):
        j = (i + 1) % r
        for w in range(words):
            for v in (w, w ^ (1 << i)):
                a, b = idx(w, i), idx(v, j)
                edges.add((a, b) if a < b else (b, a))
    labels = tuple((w, i) for i in range(r) for w in range(words))
    return ArchGraph(r * words, tuple(sorted(edges)), budget, labels=labels,
                     family="butterfly", params=(("r", r),))


def cartesian_product(g1: ArchGraph, g2: ArchGraph,
                      budget: int | None = None) -> ArchGraph:
    """Cartesian product; vertex (a, x) maps to index a*|g2| + x."""
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
    if budget is None:
        budget = g1.ancilla_budget
    return ArchGraph(n, tuple(sorted(edges)), budget, labels=labels)


def _grid(n: int, d: int, budget: int) -> ArchGraph:
    """d-fold Cartesian power of the n-vertex path; labels are coordinate
    tuples in row-major order (first coordinate most significant)."""
    if n < 1 or d < 1:
        raise ValueError("grid needs n >= 1 and d >= 1")
    g = _path(n, budget)
    prod = g
    for _ in range(d - 1):
        prod = cartesian_product(prod, g, budget)
    size = n ** d
    labels = []
    for idx in range(size):
        coord = []
        rem = idx
        for k in range(d - 1, -1, -1):
            coord.append(rem // n ** k)
            rem %= n ** k
        labels.append(tuple(coord))
    return ArchGraph(size, prod.edges, budget, labels=tuple(labels),
                     family="grid", params=(("d", d), ("n", n)))


_FAMILIES = {
    "path": (_path, ("n",)),
    "complete": (_complete, ("n",)),
    "wheel": (_wheel, ("n",)),
    "ladder": (_ladder, ("n",)),
    "hypercube": (_hypercube, ("d",)),
    "butterfly": (_butterfly, ("r",)),
    "grid": (_grid, ("n", "d")),
}


def generate_graph(kind: str, ancilla_budget: int = DEFAULT_ANCILLA_BUDGET,
                   **params) -> ArchGraph:
    """Build a named graph family.

    Kinds and parameters: path(n), complete(n), wheel(n = rim size),
    ladder(n = layers), hypercube(d), butterfly(r), grid(n, d).
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown graph family {kind!r}")
    fn, names = _FAMILIES[kind]
    missing = [p for p in names if p not in params]
    if missing:
        raise ValueError(f"{kind} requires parameters {missing}")
    extra = [p for p in params if p not in names]
    if extra:
        raise ValueError(f"{kind} got unexpected parameters {extra}")
    args = [params[p] for p in names]
    return fn(*args, ancilla_budget)


# ---------------------------------------------------------------------------
# permutation workloads
# ---------------------------------------------------------------------------

def _perm_diam(g: ArchGraph) -> Permutation:
    """Exchange a diametral pair (lexicographically smallest one)."""
    best = None
    dmax = -1
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(u + 1, g.n):
            if dist[v] > dmax:
                dmax = dist[v]
                best = (u, v)
    if best is None:  # single vertex
        return Permutation.identity(g.n)
    return Permutation.from_pairs(g.n, [best])


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


def generate_permutation(kind: str, g: ArchGraph, **params) -> Permutation:
    """Build a named permutation workload on ``g``.

    Kinds: identity, diam, rainbow(alpha), wheel(l), reflection,
    cyclic_shift(s), random(seed, k=None).
    """
    if kind == "identity":
        return Permutation.identity(g.n)
    if kind == "diam":
        return _perm_diam(g)
    if kind == "rainbow":
        return _perm_rainbow(g, params["alpha"])
    if kind == "wheel":
        return _perm_wheel(g, params["l"])
    if kind == "reflection":
        return _perm_reflection(g)
    if kind == "cyclic_shift":
        return _perm_cyclic(g, params["s"])
    if kind == "random":
        if "seed" not in params:
            raise ValueError("random permutation requires a seed")
        return _perm_random(g, params["seed"], params.get("k"))
    raise ValueError(f"unknown permutation kind {kind!r}")


# ---------------------------------------------------------------------------
# metric queries
# ---------------------------------------------------------------------------

def bfs_distances(g: ArchGraph, source: int) -> list[int]:
    """BFS distance from ``source`` to every vertex."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def eccentricity(g: ArchGraph, v: int) -> int:
    return max(bfs_distances(g, v))


def diameter(g: ArchGraph) -> int:
    """Largest BFS eccentricity over all sources."""
    return max(eccentricity(g, v) for v in range(g.n))


def graph_center(g: ArchGraph) -> int:
    """Lowest-index vertex of minimum eccentricity."""
    best, best_e = 0, eccentricity(g, 0)
    for v in range(1, g.n):
        e = eccentricity(g, v)
        if e < best_e:
            best, best_e = v, e
    return best


def shortest_path(g: ArchGraph, u: int, v: int) -> list[int]:
    """Lexicographically smallest shortest path from u to v.

    Walks greedily from u, always taking the smallest-index neighbor
    that still lies on some shortest path to v.
    """
    dist = bfs_distances(g, v)
    if dist[u] < 0:
        raise ValueError("vertices are disconnected")
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.neighbors(cur) if dist[w] == dist[cur] - 1)
        path.append(cur)
    return path


def vertex_boundary(g: ArchGraph, xs) -> set[int]:
    """Vertices outside ``xs`` adjacent to at least one vertex of ``xs``."""
    xs = set(xs)
    out = set()
    for u in xs:
        for w in g.neighbors(u):
            if w not in xs:
                out.add(w)
    return out


def spanning_tree(g: ArchGraph, root: int) -> list[tuple[int, int]]:
    """BFS spanning tree edges (parent, child), discovered in sorted
    neighbor order; deterministic."""
    seen = {root}
    queue = deque([root])
    edges = []
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
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


def graph_to_json(g: ArchGraph) -> str:
    """Canonical JSON: {"n", "edges" (sorted, u < v), "ancilla_budget",
    "labels" (optional)}."""
    doc = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "ancilla_budget": g.ancilla_budget,
    }
    if g.labels is not None:
        doc["labels"] = [_label_to_json(l) for l in g.labels]
    if g.family is not None:
        doc["family"] = g.family
        doc["params"] = {k: v for k, v in g.params}
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> ArchGraph:
    """Parse :func:`graph_to_json` output.  Raises ValueError on JSON
    that is not a graph document."""
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
    return ArchGraph(
        n=doc["n"],
        edges=edges,
        ancilla_budget=budget,
        labels=labels,
        family=doc.get("family"),
        params=tuple(sorted(params.items())),
    )


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
