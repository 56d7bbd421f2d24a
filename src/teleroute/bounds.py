"""Expansion, spectral quantities, and routing-time lower bounds.

Vertex expansion here is

    c(G) = min over nonempty proper X of |boundary(X)| / min(|X|, |V-X|),

an exact rational computed by exhaustive subset enumeration for small
graphs.  From it come two routing-time lower bounds (the isoperimetric
bound ceil(2/c - 1) and the diameter), the diameter-vs-expansion
inequality, and spectral figures of merit (Laplacian algebraic
connectivity, degree ratio).

Enumeration visits one representative per complement pair {X, V-X} and
scores the pair by the smaller of the two boundaries: the minimum can
be attained only on the large side, so enumerating small sides alone
would overestimate c on lopsided graphs.  Subsets are uint32 bitsets;
a table of the neighbourhoods of all low-bit subsets, built by
doubling, gives every boundary as a popcount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (
    ArchGraph,
    bfs_distances,
    check_vertices,
    diameter,
    vertex_boundary,
)

__all__ = [
    "EXACT_EXPANSION_MAX_N",
    "AdvantageBounds",
    "BoundsReport",
    "cut_value",
    "vertex_expansion_exact",
    "vertex_expansion_bounds",
    "family_witness_cut",
    "iso_lower_bound",
    "diam_expansion_rhs",
    "spectral",
    "advantage_upper_bounds",
    "bounds_report",
]

EXACT_EXPANSION_MAX_N = 24


def cut_value(g: ArchGraph, xs) -> Fraction:
    """Score of the complement pair {X, V-X}: the smaller boundary over
    the smaller side.  Equals min over the two sides of
    |boundary| / min(|X|, |V-X|)."""
    xs = set(xs)
    check_vertices(g, xs, "cut vertex")
    if not xs or len(xs) >= g.n:
        raise ValueError("cut must be a nonempty proper subset")
    comp = set(range(g.n)) - xs
    b1 = len(vertex_boundary(g, xs))
    b2 = len(vertex_boundary(g, comp))
    return Fraction(min(b1, b2), min(len(xs), len(comp)))


_BLOCK_BITS = 16  # low mask bits per block of vertex_expansion_exact


def vertex_expansion_exact(g: ArchGraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact vertex expansion and an argmin cut, by exhaustive search.

    Enumerates one subset S per complement pair: every nonempty subset
    of vertices 0..n-2, as a uint32 bitset, so vertex n-1 always lies
    in the complement C.  Masks are split into b = min(16, n-1) low
    bits and the high rest.  One table holds N(L), the neighbourhood of
    every low-bit subset L, built by doubling (the subsets with bit k
    set are those without it, ORed with vertex k's neighbours).  A block
    is the 2^b masks sharing one high part H: N(S) is the table ORed
    with the scalar N(H), and N(C) is the table reversed (the low part
    of C is the complement of L) ORed with N of C's high part, which
    holds vertex n-1.  Then |boundary(S)| = popcount(N(S) & ~S),
    |boundary(C)| = popcount(N(C) & S), and |S| = popcount(S): a few
    word operations per cut, 2^(n-1) cuts, in blocks of at most 2^16.

    Ties go to the smallest mask: argmin within a block, and a strict
    exact comparison (integer cross-multiplication) across blocks,
    which run in increasing mask order.  Capacity-limited to n <= 24;
    larger graphs get an explicit error pointing at
    vertex_expansion_bounds.
    """
    n = g.n
    if n < 2:
        raise ValueError("expansion needs at least two vertices")
    if n > EXACT_EXPANSION_MAX_N:
        raise ValueError(
            f"exact expansion is capped at {EXACT_EXPANSION_MAX_N} vertices "
            f"(got {n}); use vertex_expansion_bounds instead")

    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def nbhd(mask: int) -> int:
        out = 0
        for v in range(n):
            if mask >> v & 1:
                out |= adj[v]
        return out

    b = min(_BLOCK_BITS, n - 1)
    low = np.arange(1 << b, dtype=np.uint32)
    nb_low = np.zeros(1 << b, dtype=np.uint32)
    for k in range(b):
        nb_low[1 << k:2 << k] = nb_low[:1 << k] | np.uint32(adj[k])
    nb_comp = nb_low[::-1]
    high_all = ((1 << n) - 1) ^ ((1 << b) - 1)

    best_num, best_den, best_mask = 1, 0, None   # 1/0: above any ratio
    for hi in range(0, 1 << (n - 1), 1 << b):
        s = low | np.uint32(hi)
        bnd_s = np.bitwise_count((nb_low | np.uint32(nbhd(hi))) & ~s)
        bnd_c = np.bitwise_count((nb_comp | np.uint32(nbhd(high_all ^ hi))) & s)
        size = np.bitwise_count(s)
        num = np.minimum(bnd_s, bnd_c)
        den = np.minimum(size, n - size)
        first = 1 if hi == 0 else 0          # skip the empty set
        i = first + int(np.argmin(num[first:] / den[first:]))
        if int(num[i]) * best_den < best_num * int(den[i]):
            best_num, best_den, best_mask = int(num[i]), int(den[i]), hi | i

    xs = {v for v in range(n) if best_mask >> v & 1}
    comp = set(range(n)) - xs
    b_s = len(vertex_boundary(g, xs))
    b_c = len(vertex_boundary(g, comp))
    witness = xs if b_s <= b_c else comp
    c = Fraction(min(b_s, b_c), min(len(xs), len(comp)))
    assert c == Fraction(best_num, best_den)
    return c, tuple(sorted(witness))


def _hyperplane_cut(g: ArchGraph) -> set[int]:
    # half-grid: first coordinate below the median layer
    n = g.param_dict["n"]
    return {v for v in range(g.n) if g.labels[v][0] < n // 2}


def _best_ball_cut(g: ArchGraph) -> set[int]:
    # best Hamming ball around vertex 0, over all radii
    d = g.param_dict["d"]
    dist = bfs_distances(g, 0)
    best, best_cut = None, None
    for r in range(d):
        cut = {v for v in range(g.n) if dist[v] <= r}
        val = cut_value(g, cut)
        if best is None or val < best:
            best, best_cut = val, cut
    return best_cut


def _bit_fixing_cut(g: ArchGraph) -> set[int]:
    # all butterfly rows whose word has bit 0 clear
    return {v for v in range(g.n) if g.labels[v][0] & 1 == 0}


def family_witness_cut(g: ArchGraph) -> set[int] | None:
    """A named witness cut for families with one: grid/path hyperplane,
    hypercube Hamming ball, butterfly bit-fixing rows.  None otherwise."""
    if g.family == "grid":
        return _hyperplane_cut(g)
    if g.family == "path" and g.n >= 2:
        return set(range(g.n // 2))
    if g.family == "hypercube" and g.n >= 2:
        return _best_ball_cut(g)
    if g.family == "butterfly":
        return _bit_fixing_cut(g)
    return None


def _expansion(g: ArchGraph):
    """What is known of c(G): ``(lower, upper, witness cut, exact)``.

    Exact search up to EXACT_EXPANSION_MAX_N vertices, a point with its
    argmin cut.  Beyond, the interval [2/N, u] with u the score of the
    family witness cut (at most 1), or 1 for a family without one.
    """
    if g.n <= EXACT_EXPANSION_MAX_N:
        c, witness = vertex_expansion_exact(g)
        return c, c, witness, True
    lower = Fraction(2, g.n)
    cut = family_witness_cut(g)
    if cut is None:
        return lower, Fraction(1), None, False
    upper = max(lower, min(Fraction(1), cut_value(g, cut)))
    return lower, upper, tuple(sorted(cut)), False


def vertex_expansion_bounds(g: ArchGraph) -> tuple[Fraction, Fraction]:
    """An interval [lower, upper] certainly containing c(G): the point
    c(G) by exact search up to EXACT_EXPANSION_MAX_N (24) vertices,
    else [2/N, 1] with the upper end lowered to the score of any family
    witness cut.  ``bounds_report`` and ``advantage_upper_bounds`` use
    the same interval."""
    lower, upper, _, _ = _expansion(g)
    return lower, upper


def iso_lower_bound(c: Fraction) -> int:
    """Isoperimetric routing-time lower bound ceil(2/c - 1)."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("expansion must lie in (0, 1]")
    return math.ceil(Fraction(2) / c - 1)


def diam_expansion_rhs(n: int, c) -> float:
    """Right-hand side of the diameter bound: 2*log2(N/2)/log2(1+c) + 2."""
    if n < 2:
        raise ValueError("need at least two vertices")
    c = float(c)
    if not 0 < c <= 1:
        raise ValueError("expansion must lie in (0, 1]")
    if n == 2:
        return 2.0
    return 2.0 * math.log2(n / 2) / math.log2(1.0 + c) + 2.0


def _ladder_lambda2(n: int) -> float:
    # layer r holds m_r = 2^(r-1) vertices; see _LAMBDA2
    m = [0] + [2 ** r for r in range(n)] + [0]
    off = [-math.sqrt(m[r] * m[r + 1]) for r in range(1, n)]
    quot = (np.diag([float(m[r - 1] + m[r + 1]) for r in range(1, n + 1)])
            + np.diag(off, 1) + np.diag(off, -1))
    return float(np.linalg.eigvalsh(quot)[1])


# family -> lambda2 from its params (Fiedler, "Algebraic connectivity of
# graphs", 1973): the path's spectrum is 4·sin²(πk/2n), k < n; a
# Cartesian product's lambda2 is its factors' least (grid = path^d,
# hypercube = K2^d); joining the hub to the rim cycle (4·sin²(πk/n))
# adds 1 to each nonzero rim eigenvalue and the eigenvalue n + 1.
#
# Butterfly r: XOR by any word is an automorphism, so the characters
# χ_s(w) = (-1)^(s·w) split the Laplacian into r×r blocks 4I − A_s over
# the levels, A_s the level cycle whose link i → i+1 weighs
# 1 + χ_s(2^i) ∈ {0, 2}.  s = 0 keeps every link (least nonzero
# eigenvalue 8·sin²(π/r)); one set bit cuts one link and leaves a
# weight-2 path on r levels, least eigenvalue 4 − 4·cos(π/(r+1)) =
# 8·sin²(π/(2r+2)), and more bits only cut it shorter.  At r = 2 the
# doubled links merge (K_{4,4} less a perfect matching) and λ2 = 2 still.
#
# Ladder n: a vector summing to zero inside one layer r, zero elsewhere,
# has eigenvalue m_{r-1} + m_r + m_{r+1} (m_r = 2^(r-1), m_0 = m_{n+1}
# = 0), at least 6 from n = 3 on.  The rest of the spectrum is that of
# the layer quotient, symmetrised to diagonal m_{r-1} + m_{r+1} and
# off-diagonal −√(m_r·m_{r+1}), whose least eigenvalue is 0.  The root
# has degree 2, so λ2 <= 2 (Fiedler, for n >= 3) and the quotient's
# second eigenvalue is λ2; at n = 2 (K3) both give 3.
_LAMBDA2 = {
    "path": lambda n: 4 * math.sin(math.pi / (2 * n)) ** 2,
    "grid": lambda n, d: 4 * math.sin(math.pi / (2 * n)) ** 2,
    "hypercube": lambda d: 2.0,
    "complete": lambda n: float(n),
    "wheel": lambda n: min(1 + 4 * math.sin(math.pi / n) ** 2, n + 1.0),
    "butterfly": lambda r: 8 * math.sin(math.pi / (2 * r + 2)) ** 2,
    "ladder": _ladder_lambda2,
}


def spectral(g: ArchGraph) -> tuple[float, Fraction, float]:
    """(lambda2, degree ratio, figure of merit d*·log2(N)^2/lambda2^2).

    lambda2 is the second-smallest Laplacian eigenvalue.  Families whose
    spectrum is known take it in closed form:

    - path n and grid (n, d): 4·sin²(π/2n);
    - hypercube: 2;
    - complete n: n;
    - wheel with rim n: min(1 + 4·sin²(π/n), n + 1);
    - butterfly r: 8·sin²(π/(2r+2));
    - ladder n: the second eigenvalue of its n×n layer quotient.

    Graphs without a family build the dense Laplacian and take its
    whole spectrum from a symmetric eigensolver, O(N³).
    """
    n = g.n
    if n < 2:
        raise ValueError("spectral quantities need at least two vertices")
    closed = _LAMBDA2.get(g.family)
    if closed is not None:
        lam2 = closed(**g.param_dict)
    else:
        lap = np.zeros((n, n))
        for u, v in g.edges:
            lap[u, v] = lap[v, u] = -1.0
            lap[u, u] += 1.0
            lap[v, v] += 1.0
        lam2 = float(np.linalg.eigvalsh(lap)[1])
    degs = [len(a) for a in g._adj]
    dstar = Fraction(max(degs), min(degs))
    figure = float(dstar) * math.log2(n) ** 2 / lam2 ** 2
    return lam2, dstar, figure


@dataclass(frozen=True)
class AdvantageBounds:
    """Up-to-constant ceilings on the swap-vs-transfer depth ratio."""

    linear: float        # N * c
    sqrt_log: float      # sqrt(N) + log2(N) / c
    minimum: float


def advantage_upper_bounds(g: ArchGraph, c=None) -> AdvantageBounds:
    """Two ceilings on the achievable routing advantage and their min.

    Uses ``c`` when given, else vertex_expansion_bounds' interval (a
    point up to 24 vertices).  Each figure takes the end that makes it
    largest, so it stays a valid up-to-constant ceiling: ``linear`` =
    N·c grows with c and takes the upper end; ``sqrt_log`` =
    √N + log2 N / c shrinks as c grows and takes the lower end.
    """
    n = g.n
    if c is not None:
        lo = hi = c
    else:
        lo, hi, _, _ = _expansion(g)
    linear = n * float(hi)
    sqrt_log = math.sqrt(n) + (math.log2(n) / float(lo) if n > 1 else 0.0)
    return AdvantageBounds(linear, sqrt_log, min(linear, sqrt_log))


@dataclass(frozen=True)
class BoundsReport:
    """Everything the bound calculators know about one graph."""

    n: int
    c_lower: Fraction
    c_upper: Fraction
    exact: bool
    witness_cut: tuple[int, ...] | None
    diam: int
    iso_lb: int
    diam_lb: int
    lambda2: float
    degree_ratio: Fraction
    expander_figure: float

    def to_dict(self) -> dict:
        """The document ``teleroute bounds`` prints: fractions as
        strings such as ``"3/4"``, ``witness_cut`` a list or null."""
        return {
            "n": self.n,
            "c_lower": str(self.c_lower),
            "c_upper": str(self.c_upper),
            "exact": self.exact,
            "witness_cut": list(self.witness_cut) if self.witness_cut else None,
            "diam": self.diam,
            "iso_lb": self.iso_lb,
            "diam_lb": self.diam_lb,
            "lambda2": self.lambda2,
            "degree_ratio": str(self.degree_ratio),
            "expander_figure": self.expander_figure,
        }


def bounds_report(g: ArchGraph) -> BoundsReport:
    """Assemble expansion, lower bounds, and spectral figures for ``g``.

    Expansion is exact up to 24 vertices; beyond that an interval with
    any family witness cut.  iso_lb uses the upper end of the interval,
    which keeps it a valid routing-time lower bound.
    """
    lo, hi, witness, exact = _expansion(g)
    d = diameter(g)
    lam2, dstar, figure = spectral(g)
    return BoundsReport(
        n=g.n,
        c_lower=lo,
        c_upper=hi,
        exact=exact,
        witness_cut=witness,
        diam=d,
        iso_lb=iso_lower_bound(hi),
        diam_lb=d,
        lambda2=lam2,
        degree_ratio=dstar,
        expander_figure=figure,
    )
