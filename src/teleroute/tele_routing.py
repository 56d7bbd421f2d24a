"""Teleportation-round scheduling and the swap-vs-teleport comparison.

Teleportation rounds move tokens along vertex paths whose interior
vertices lend ancilla capacity: a transfer over d edges consumes one
entangled pair per edge, so interiors park two pair halves and
endpoints one.  On layered ladder graphs every pair of vertices is
joined by a canonical relay path and any permutation fits in a single
round; on general graphs a greedy packer fills rounds cycle by cycle
under the per-vertex budget, falling back to one-transfer-per-round
chains for cycles too congested to share a round even alone.

The packer places each cycle in the first round it fits, but tries
only rounds that can take it: per-vertex bitsets over the open rounds
record where a vertex's load already rules a cycle out (above B - 2
at a cycle element; above B - 4 inside a hop path on a tree), and an
OR of the bitsets a cycle needs leaves the rounds worth a load-aware
BFS.  Loads only rise, so the rounds it skips are rounds the fit would
reject, and the schedule is the one plain first-fit builds.

Every hop takes the path a load-aware BFS would, but the BFS runs only
for detours.  Off trees a walk down the shortest-path DAG, over the
distances of one all-sources word sweep, finds the BFS's path whenever
an admitted path of length d(s, t) exists; on a tree the unique path
comes from climbing a rooted BFS tree to the lowest common ancestor.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import itemgetter

from .execute import TokenState, apply_timestep
from .graphs import (
    ArchGraph,
    Permutation,
    _ecc0,
    bfs_distances,
    distance_rows,
    spanning_tree,
)
from .schedule import (
    DepthModel,
    Schedule,
    SwapLayer,
    SwapLocal,
    TeleRound,
)
from .sparse_routing import sparse_route
from .swap_routing import route_generic

__all__ = [
    "relay_address",
    "canonical_path",
    "ladder_schedule",
    "greedy_schedule",
    "teleport_schedule",
    "simulate_round_with_swaps",
    "Advantage",
    "advantage",
]


# ---------------------------------------------------------------------------
# ladder graphs: canonical relay paths
# ---------------------------------------------------------------------------

def relay_address(u: int, i: int) -> int:
    """The i-th relay for address u: binary ``1 0^(i-1) b(u)``, an
    address exactly i layers below u."""
    if u < 1 or i < 1:
        raise ValueError("relay_address needs u >= 1 and i >= 1")
    return (1 << (i - 1 + u.bit_length())) | u


def canonical_path(n: int, u: int, v: int) -> tuple[int, ...]:
    """Canonical path between addresses u and v on the n-layer ladder
    (addresses 1 .. 2^n - 1), in travel order from u to v.

    With d the layer difference, the ascending path is u, r(u, 1), ...,
    r(u, d-1), v (adjacent-layer hops are direct edges); descending
    paths are the reverse.  Distinct start addresses use disjoint relay
    sets, which is what lets a full permutation share one round.
    """
    top = (1 << n) - 1
    if not (1 <= u <= top and 1 <= v <= top):
        raise ValueError(f"addresses must lie in [1, {top}]")
    if u == v:
        raise ValueError("canonical_path needs distinct addresses")
    if u > v:
        return tuple(reversed(canonical_path(n, v, u)))
    d = v.bit_length() - u.bit_length()
    if d <= 1:
        return (u, v)
    relays = tuple(relay_address(u, i) for i in range(1, d))
    return (u,) + relays + (v,)


def ladder_schedule(g: ArchGraph, pi: Permutation) -> Schedule:
    """Any permutation on a ladder in one teleportation round, each
    moving token following its canonical relay path.

    Every address is the relay of at most one source, so a vertex sees
    at most two transits (one ascending from it as low endpoint, one
    descending to it) plus its own send and receive: incidence at most
    4 and load at most 6, checked before returning.
    """
    if g.family != "ladder":
        raise ValueError("ladder_schedule requires a ladder graph")
    if g.ancilla_budget < 6:
        raise ValueError("ladder routing needs an ancilla budget of at "
                         "least 6 (canonical paths share vertices)")
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    n = g.param_dict["n"]
    verts, offsets = [], [0]
    for u in range(g.n):
        if pi(u) == u:
            continue
        verts += [a - 1 for a in canonical_path(n, u + 1, pi(u) + 1)]
        offsets.append(len(verts))
    if not verts:
        return Schedule([])
    # every moving vertex ends two paths (one as source, one as
    # destination) and every other path vertex none, so the load at v
    # is twice its incidence less 2 if v moves
    for v, incidence in Counter(verts).items():
        if incidence > 4:
            raise RuntimeError(
                f"canonical paths exceed incidence 4 at vertex {v}")
        if 2 * incidence - 2 * (pi(v) != v) > 6:
            raise RuntimeError(
                f"canonical paths exceed load 6 at vertex {v}")
    moves = ["move"] * (len(offsets) - 1)
    return Schedule([[TeleRound._from_lists(verts, offsets, moves)]])


# ---------------------------------------------------------------------------
# general graphs: greedy cycle packing
# ---------------------------------------------------------------------------

def _load_aware_path(g: ArchGraph, s: int, t: int, load: list[int],
                     budget: int) -> tuple[int, ...] | None:
    """Shortest s-t path through vertices with room left: interiors
    must absorb two more pair halves, endpoints one.  None if no such
    path exists.

    The BFS runs level by level and each vertex scans its neighbours in
    sorted order, so every vertex's parent is the first one that
    reaches it, as in a FIFO queue; it stops as soon as t is reached.
    The path it returns is the lexicographically smallest shortest
    admitted path: level L lists its vertices in the lexicographic
    order of their tree paths (it is sorted by parent, then by index),
    so the first vertex of level L - 1 that reaches a vertex, the one
    with the smallest tree path, is its parent.  ``_dag_hops`` relies
    on this.
    """
    if load[s] >= budget or load[t] >= budget:
        return None
    adj = g._adj
    cap = budget - 2
    parent = [-1] * g.n
    parent[s] = s
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if parent[w] >= 0:
                    continue
                if w == t:
                    path = [t, v]
                    while v != s:
                        v = parent[v]
                        path.append(v)
                    path.reverse()
                    return tuple(path)
                if load[w] <= cap:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def _dag_path(adj, s: int, t: int, dist, load: list[int],
              cap: int) -> tuple[int, ...] | None:
    """The lexicographically smallest s-t path of length d(s, t) whose
    interiors have load <= ``cap``, or None.  ``dist`` holds the
    distances to t.

    A depth-first walk down the shortest-path DAG toward t, taking
    neighbours one step closer in sorted order: the first path it
    completes is the smallest.  A vertex it backs out of reaches t by
    no admitted DAG path, whatever led to it, so it is marked dead and
    never entered again; each DAG edge is scanned at most once.
    """
    path = [s]
    scans = [iter(adj[s])]
    dead = set()
    while scans:
        k = dist[path[-1]] - 1
        for w in scans[-1]:
            if dist[w] == k:
                if w == t:
                    path.append(t)
                    return tuple(path)
                if load[w] <= cap and w not in dead:
                    path.append(w)
                    scans.append(iter(adj[w]))
                    break
        else:
            dead.add(path.pop())
            scans.pop()
    return None


def _dag_hops(g: ArchGraph, budget: int, targets):
    """``(hop, between)`` off trees, for hops into ``targets``:
    ``between(us, vs)`` lists the distances d(u, v), and
    ``hop(s, t, load)`` returns what ``_load_aware_path(g, s, t, load,
    budget)`` does, but runs that BFS only when no admitted path of
    length d(s, t) exists.

    ``hop`` takes the distances to t and walks the shortest-path DAG
    (``_dag_path``).  This is the BFS's answer whenever the walk finds
    a path.  The BFS explores the admitted vertices (load <= B - 2,
    plus s and t), so it reaches t at level d(s, t) exactly when some
    admitted path has that length, and it returns the lexicographically
    smallest of the shortest ones (see ``_load_aware_path``): the path
    the walk finds.  Only when the walk fails does the BFS run, for a
    detour or for None.  With no load every vertex is admitted, so the
    walk takes the smallest closer neighbour at every step: the free
    path is :func:`shortest_path`.

    The distances come from one all-sources sweep
    (:func:`distance_rows`), or from one BFS per target when there are
    no more targets than ecc(0): the sweep runs at least ecc(0) levels,
    and up to N = 1024 a level costs about as much as a BFS.  A family
    reads ecc(0) from its closed form; any other graph takes one BFS.
    """
    adj, cap = g._adj, budget - 2
    if len(targets) <= _ecc0(g):
        rows = {t: array("H", bfs_distances(g, t)) for t in targets}

        def between(us, vs):
            return [rows[v][u] for u, v in zip(us, vs)]
    else:
        rows = distance_rows(g)
        between = rows.between

    def hop(s, t, load):
        if load[s] >= budget or load[t] >= budget:
            return None
        return (_dag_path(adj, s, t, rows[t], load, cap)
                or _load_aware_path(g, s, t, load, budget))

    return hop, between


def _tree_hops(g: ArchGraph, budget: int):
    """``(hop, free)`` on a tree: ``free(s, t)`` is the s-t path and
    ``hop(s, t, load)`` is ``_load_aware_path(g, s, t, load, budget)``.

    The s-t path is unique, so the BFS returns it when its interiors
    are admitted and None otherwise.  A BFS tree rooted at vertex 0
    gives every vertex's parent and depth, and ``free`` climbs from s
    and t to their lowest common ancestor, once per (s, t): the sort key
    and every later ``hop`` share the path.
    """
    depth = bfs_distances(g, 0)
    parent = [0] * g.n
    for p, c in spanning_tree(g, 0):
        parent[c] = p
    cap = budget - 2
    paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def free(s, t):
        path = paths.get((s, t))
        if path is not None:
            return path
        key = s, t
        up, down = [s], [t]
        while depth[s] > depth[t]:
            s = parent[s]
            up.append(s)
        while depth[t] > depth[s]:
            t = parent[t]
            down.append(t)
        while s != t:
            s, t = parent[s], parent[t]
            up.append(s)
            down.append(t)
        path = paths[key] = tuple(up + down[-2::-1])
        return path

    def hop(s, t, load):
        if load[s] >= budget or load[t] >= budget:
            return None
        path = free(s, t)
        if len(path) == 2 or max(map(load.__getitem__, path[1:-1])) <= cap:
            return path
        return None

    return hop, free


def _add_load(load: list[int], path: tuple[int, ...], sign: int) -> None:
    """Add (sign 1) or take back (-1) the halves a move along ``path``
    parks: ``Transfer.halves``' load rule, restated inline for the
    packer's hot loop.  A test holds the two equal."""
    load[path[0]] += sign
    load[path[-1]] += sign
    for v in path[1:-1]:
        load[v] += 2 * sign


def _fit_cycle(hop, cyc: tuple[int, ...],
               load: list[int]) -> list[tuple[int, ...]] | None:
    """Try to place every hop of a cycle into a round with current
    ``load``, each on the path ``hop(s, t, load)`` gives.  All hops fit
    (rerouting around saturated vertices where possible) or none do; on
    failure the hops placed so far are taken back out, leaving ``load``
    as it was."""
    paths = []
    m = len(cyc)
    for i in range(m):
        p = hop(cyc[i], cyc[(i + 1) % m], load)
        if p is None:
            for q in paths:
                _add_load(load, q, -1)
            return None
        _add_load(load, p, 1)
        paths.append(p)
    return paths


def _lone_move(path: tuple[int, ...]) -> TeleRound:
    """A round of one move along ``path``."""
    return TeleRound._from_lists(list(path), [0, len(path)], ["move"])


def _chain_timesteps(hop, cyc: tuple[int, ...], n: int,
                     budget: int) -> list[list]:
    """Realize one cycle as single-transfer rounds: park one vertex's
    token in an ancilla, deliver the others in reverse cycle order,
    then route the parked token and unpark.

    The parked token occupies an ancilla slot for the whole chain, so
    hop paths must leave the parking vertex its remaining capacity;
    some rotation of the cycle always allows this from budget 2 up
    (rotate until the parking vertex separates no other two elements).
    """
    m = len(cyc)
    parked = [0] * n
    for r in range(m):
        rot = cyc[r:] + cyc[:r]
        parked[rot[0]] = 1
        paths = []
        for i in range(m - 1, 0, -1):
            p = hop(rot[i], rot[(i + 1) % m], parked)
            if p is None:
                break
            paths.append(p)
        else:
            final = hop(rot[0], rot[1], parked)
            if final is not None:
                park = SwapLocal(rot[0], 0, 1)
                steps: list[list] = [[park]]
                steps.extend([_lone_move(p)] for p in paths)
                steps.append([park])
                steps.append([_lone_move(final)])
                steps.append([park])
                return steps
        parked[rot[0]] = 0
    raise RuntimeError(f"no rotation of cycle {cyc} can be chained "
                       f"within ancilla budget {budget}")


def greedy_schedule(g: ArchGraph, pi: Permutation) -> Schedule:
    """Pack permutation cycles into teleportation rounds greedily.

    Cycles are taken longest hop first: by decreasing maximum BFS
    distance between consecutive elements, ties by smallest element.
    Each joins the first round, in the order rounds were opened, where
    all its transfers fit under the per-vertex load budget B, else
    opens a new round; cycles too congested even for an empty round
    are realized as buffered chains after all rounds.  Every transfer
    takes the path a load-aware BFS would (``_load_aware_path``), but
    the BFS runs only for detours: hop distances come from one
    all-sources sweep or, for a few targets, one BFS each
    (``_dag_hops``), and on a tree from one rooted BFS (``_tree_hops``).

    First-fit does not try the rounds a cycle cannot fit.  Every vertex
    keeps two bitsets over the open rounds: bit r of ``over`` is set
    once round r's load at the vertex exceeds B - 2, and bit r of
    ``over_inner`` once it exceeds B - 4.  A fit leaves every load it
    touches at most B, so a cycle needs

    * load <= B - 2 at each of its elements, which end two hops each;
    * on a tree, load <= B - 4 inside each hop path.  The path is
      unique (the free path the sort key climbs), and a vertex inside
      it separates the hop's ends, so the cycle passes it twice:
      inside two hops, or inside one and as an element.

    For a 2-cycle on a tree these conditions are also sufficient; for
    longer cycles, and off trees, they are only necessary.  The OR of
    the bitsets of the vertices a cycle needs marks the rounds it
    cannot fit; ``_fit_cycle`` runs on the others, lowest first, and a
    fit sets bits only at the vertices it loaded.  Loads in a round
    only rise, so a set bit stays true: the filter skips only rounds
    where ``_fit_cycle`` would fail, and first-fit picks the same round
    as trying every round in turn.
    """
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    budget = g.ancilla_budget
    if budget < 2:
        raise ValueError("teleportation scheduling needs an ancilla "
                         "budget of at least 2")
    cycles = pi.cycles()
    if not cycles:
        return Schedule([])

    # both hops of a 2-cycle have the same length on an undirected graph
    hops = [[(cyc[i], cyc[(i + 1) % len(cyc)])
             for i in range(1 if len(cyc) == 2 else len(cyc))]
            for cyc in cycles]
    # (sort key, cycle, the vertices inside its hop paths on a tree)
    entries = []
    if len(g.edges) == g.n - 1:  # a tree, as an ArchGraph is connected
        hop, free = _tree_hops(g, budget)
        for cyc, pairs in zip(cycles, hops):
            paths = [free(u, v) for u, v in pairs]
            inner = set().union(*(p[1:-1] for p in paths))
            entries.append(((-max(map(len, paths)), cyc[0]), cyc, inner))
    else:
        hop, between = _dag_hops(g, budget, pi.support())
        dist = iter(between(*zip(*(uv for pairs in hops for uv in pairs))))
        for cyc, pairs in zip(cycles, hops):
            longest = max(next(dist) for _ in pairs)
            entries.append(((-longest, cyc[0]), cyc, ()))
    entries.sort(key=itemgetter(0))

    # below B = 4 a load of 0 also exceeds B - 4 and sets no bit; no
    # cycle with a vertex inside a hop fits a tree then, and all such
    # cycles (longest hop >= 2) come before any round is opened
    over = [0] * g.n
    over_inner = [0] * g.n
    # per open round: its path vertices, path offsets and load
    rounds: list[tuple[list[int], list[int], list[int]]] = []
    chained: list[tuple[int, ...]] = []
    for _, cyc, inner in entries:
        blocked = 0
        for v in cyc:
            blocked |= over[v]
        for v in inner:
            blocked |= over_inner[v]
        candidates = ((1 << len(rounds)) - 1) & ~blocked
        while candidates:
            r = (candidates & -candidates).bit_length() - 1
            paths = _fit_cycle(hop, cyc, rounds[r][2])
            if paths is not None:
                break
            candidates &= candidates - 1
        else:  # no open round takes the cycle
            r = len(rounds)
            load = [0] * g.n
            paths = _fit_cycle(hop, cyc, load)
            if paths is None:
                chained.append(cyc)
                continue
            rounds.append(([], [0], load))
        verts, offsets, load = rounds[r]
        bit = 1 << r
        for p in paths:
            verts += p
            offsets.append(len(verts))
            for v in p:
                if load[v] > budget - 4:
                    over_inner[v] |= bit
                    if load[v] > budget - 2:
                        over[v] |= bit

    timesteps: list[list] = [
        [TeleRound._from_lists(verts, offsets,
                               ["move"] * (len(offsets) - 1))]
        for verts, offsets, _ in rounds]
    for cyc in chained:
        timesteps.extend(_chain_timesteps(hop, cyc, g.n, budget))
    return Schedule(timesteps)


def teleport_schedule(g: ArchGraph, pi: Permutation, *,
                      ladder=ladder_schedule,
                      greedy=greedy_schedule) -> Schedule:
    """The teleportation schedule for ``pi`` on ``g``: a single ladder
    round on ladder graphs whose budget allows it, the greedy packer
    everywhere else.  ``ladder`` and ``greedy`` replace the two
    schedulers, for callers that resolve them in their own namespace."""
    if g.family == "ladder":
        try:
            return ladder(g, pi)
        except ValueError:
            pass
    return greedy(g, pi)


# ---------------------------------------------------------------------------
# replaying a round with swaps only
# ---------------------------------------------------------------------------

def simulate_round_with_swaps(g: ArchGraph, rnd: TeleRound) -> Schedule:
    """A swap-only schedule realizing the same permutation as one
    self-contained teleportation round (one whose destinations are all
    sources, as in any round executed from a fully occupied state).

    Transfers whose declared path fits in ceil(sqrt(N)) edges ride as
    hidden-corridor swap chains packed into vertex-disjoint parallel
    classes; cycles containing any longer transfer are delegated to
    the sparse router, which gathers them instead of dragging tokens
    across the graph one edge at a time.
    """
    n = g.n
    threshold = isqrt(n - 1) + 1 if n > 1 else 1

    moves: dict[int, tuple[int, tuple[int, ...]]] = {}

    def add_move(src: int, dst: int, path: tuple[int, ...]) -> None:
        if src in moves:
            raise ValueError(f"vertex {src} sends two tokens")
        moves[src] = (dst, path)

    verts, offsets = rnd.verts, rnd.offsets
    for a, b, kind in zip(offsets, offsets[1:], rnd.kinds):
        path = tuple(verts[a:b])
        add_move(path[0], path[-1], path)
        if kind == "swap":
            add_move(path[-1], path[0], path[::-1])
    image = list(range(n))
    received: set[int] = set()
    for src, (dst, _) in moves.items():
        if dst not in moves:
            raise ValueError(
                f"round is not self-contained: vertex {dst} receives "
                f"a token but sends none")
        if dst in received:
            raise ValueError(f"vertex {dst} receives two tokens")
        received.add(dst)
        image[src] = dst

    # split the movement permutation into cycles; a cycle is long if
    # any of its declared paths exceeds the threshold
    short_cycles: list[tuple[int, ...]] = []
    long_support: list[int] = []
    for cyc in Permutation(tuple(image)).cycles():
        if any(len(moves[u][1]) - 1 > threshold for u in cyc):
            long_support.extend(cyc)
        else:
            short_cycles.append(cyc)

    state = TokenState(g)
    steps: list[list | SwapLayer] = []

    def emit(ops: list | SwapLayer) -> None:
        if ops:
            apply_timestep(g, state, ops)
            steps.append(ops)

    def claim_slot(v: int) -> int:
        s = state.free_slot(v)
        if s is None:
            raise ValueError(f"replaying the round needs a free ancilla "
                             f"slot at vertex {v} but all "
                             f"{g.ancilla_budget} are full")
        return s

    if long_support:
        image = list(range(n))
        for u in long_support:
            image[u] = moves[u][0]
        for ops in sparse_route(g, Permutation(tuple(image))).timesteps:
            emit(ops)

    short = [moves[u][1] for cyc in short_cycles for u in cyc]
    if short:
        # greedy vertex-disjoint parallel classes, longest path first
        short.sort(key=lambda p: (-len(p), p[0]))
        classes: list[tuple[list[tuple[int, ...]], set[int]]] = []
        for path in short:
            for paths, used in classes:
                if not (used & set(path)):
                    paths.append(path)
                    used.update(path)
                    break
            else:
                classes.append(([path], set(path)))

        # park every rider at once so each destination's data slot is
        # clear before anything arrives
        park_slot: dict[int, int] = {}
        stage = []
        for path in short:
            park_slot[path[0]] = claim_slot(path[0])
            stage.append(SwapLocal(path[0], 0, park_slot[path[0]]))
        emit(stage)

        for paths, _ in classes:
            # unpark this class's riders; hide any token sitting on a
            # corridor interior (delivered earlier, or a bystander)
            pre: list[SwapLocal] = []
            parked: list[tuple[int, int]] = []
            for path in paths:
                pre.append(SwapLocal(path[0], 0, park_slot[path[0]]))
                parked.append((path[0], park_slot[path[0]]))
                for v in path[1:-1]:
                    if state.data(v) is not None:
                        s = claim_slot(v)
                        pre.append(SwapLocal(v, 0, s))
                        parked.append((v, s))
            emit(pre)
            # ride all corridors in lockstep over empty data slots
            for j in range(max(len(p) - 1 for p in paths)):
                riders = [p for p in paths if j < len(p) - 1]
                emit(SwapLayer([p[j] for p in riders],
                               [p[j + 1] for p in riders]))
            # whatever this class displaced goes back into data slots
            emit([SwapLocal(v, 0, s) for v, s in parked
                  if state.get(v, s) is not None])

    for src, (dst, _) in moves.items():
        if state.slots[dst][0] != src:
            raise AssertionError("swap replay misplaced a token")
    return Schedule(steps)


# ---------------------------------------------------------------------------
# the headline comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Advantage:
    """Swap routing next to teleportation routing for one permutation:
    both schedules and their depths under one depth model."""

    swap: Schedule
    teleport: Schedule
    swap_depth: int
    tele_depth: int

    @property
    def ratio(self) -> Fraction:
        """Swap depth over teleportation depth, exactly; 1 when the
        teleportation depth is 0, as for the identity."""
        if self.tele_depth == 0:
            return Fraction(1)
        return Fraction(self.swap_depth, self.tele_depth)


def advantage(g: ArchGraph, pi: Permutation,
              model: DepthModel | None = None) -> Advantage:
    """The generic swap-only schedule (:func:`route_generic`) against
    the teleportation schedule (:func:`teleport_schedule`), with both
    depths under ``model``, or under each schedule's own model when
    ``model`` is None.  The schedules are returned unverified."""
    swap = route_generic(g, pi)
    tele = teleport_schedule(g, pi)
    return Advantage(swap, tele, swap.depth(model), tele.depth(model))
