"""Teleportation-round scheduling and the swap-vs-teleport comparison.

Teleportation rounds move tokens along vertex paths whose interior
vertices lend ancilla capacity: a transfer over d edges consumes one
entangled pair per edge, so interiors park two pair halves and
endpoints one.  On layered ladder graphs every pair of vertices is
joined by a canonical relay path and any permutation fits in a single
round; on general graphs a greedy packer fills rounds cycle by cycle
under the per-vertex budget, falling back to one-transfer-per-round
chains for cycles too congested to share a round even alone.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt

from .execute import TokenState, apply_timestep
from .graphs import ArchGraph, Permutation
from .schedule import Schedule, SwapEdge, SwapLocal, TeleRound, Transfer
from .sparse_routing import sparse_route
from .swap_routing import route_generic

__all__ = [
    "relay_address",
    "canonical_path",
    "ladder_schedule",
    "greedy_schedule",
    "teleport_schedule",
    "simulate_round_with_swaps",
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
    transfers = []
    for u in range(g.n):
        if pi(u) == u:
            continue
        path = canonical_path(n, u + 1, pi(u) + 1)
        transfers.append(Transfer(tuple(a - 1 for a in path)))
    if not transfers:
        return Schedule([])
    rnd = TeleRound(tuple(transfers))
    incidence = Counter(v for tr in transfers for v in tr.path)
    for v, load in rnd.loads().items():
        if incidence[v] > 4:
            raise RuntimeError(
                f"canonical paths exceed incidence 4 at vertex {v}")
        if load > 6:
            raise RuntimeError(
                f"canonical paths exceed load 6 at vertex {v}")
    return Schedule([[rnd]])


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


def _add_load(load: list[int], path: tuple[int, ...], sign: int) -> None:
    load[path[0]] += sign
    load[path[-1]] += sign
    for v in path[1:-1]:
        load[v] += 2 * sign


def _fit_cycle(g: ArchGraph, cyc: tuple[int, ...], load: list[int],
               budget: int) -> list[tuple[int, ...]] | None:
    """Try to place every hop of a cycle into a round with current
    ``load``.  All hops fit (rerouting around saturated vertices where
    possible) or none do; on failure the hops placed so far are taken
    back out, leaving ``load`` as it was."""
    paths = []
    m = len(cyc)
    for i in range(m):
        p = _load_aware_path(g, cyc[i], cyc[(i + 1) % m], load, budget)
        if p is None:
            for q in paths:
                _add_load(load, q, -1)
            return None
        _add_load(load, p, 1)
        paths.append(p)
    return paths


def _chain_timesteps(g: ArchGraph, cyc: tuple[int, ...],
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
    parked = [0] * g.n
    for r in range(m):
        rot = cyc[r:] + cyc[:r]
        parked[rot[0]] = 1
        paths = []
        for i in range(m - 1, 0, -1):
            p = _load_aware_path(g, rot[i], rot[(i + 1) % m], parked, budget)
            if p is None:
                break
            paths.append(p)
        else:
            final = _load_aware_path(g, rot[0], rot[1], parked, budget)
            if final is not None:
                park = SwapLocal(rot[0], 0, 1)
                steps: list[list] = [[park]]
                steps.extend([TeleRound((Transfer(p),))] for p in paths)
                steps.append([park])
                steps.append([TeleRound((Transfer(final),))])
                steps.append([park])
                return steps
        parked[rot[0]] = 0
    raise RuntimeError(f"no rotation of cycle {cyc} can be chained "
                       f"within ancilla budget {budget}")


def greedy_schedule(g: ArchGraph, pi: Permutation,
                    budget: int | None = None) -> Schedule:
    """Pack permutation cycles into teleportation rounds greedily.

    Cycles are taken longest hop first: by decreasing maximum BFS
    distance between consecutive elements, ties by smallest element.
    Each joins the first round, in the order rounds were opened, where
    all its transfers fit under the per-vertex load budget, else opens
    a new round; cycles too congested even for an empty round are
    realized as buffered chains after all rounds.
    """
    if pi.n != g.n:
        raise ValueError("permutation size does not match the graph")
    if budget is None:
        budget = g.ancilla_budget
    if budget < 2:
        raise ValueError("teleportation scheduling needs an ancilla "
                         "budget of at least 2")
    if budget > g.ancilla_budget:
        raise ValueError(f"budget {budget} exceeds the graph's ancilla "
                         f"budget {g.ancilla_budget}")

    # with no load every vertex is admitted, so these are BFS distances;
    # both hops of a 2-cycle have the same length on an undirected graph
    free = [0] * g.n

    def hop(u: int, v: int) -> int:
        return len(_load_aware_path(g, u, v, free, budget)) - 1

    def max_hop(cyc: tuple[int, ...]) -> int:
        if len(cyc) == 2:
            return hop(*cyc)
        return max(hop(cyc[i], cyc[(i + 1) % len(cyc)])
                   for i in range(len(cyc)))

    cycles = sorted(pi.cycles(), key=lambda c: (-max_hop(c), c[0]))
    rounds: list[tuple[list[Transfer], list[int]]] = []
    chained: list[tuple[int, ...]] = []
    for cyc in cycles:
        for transfers, load in rounds:
            paths = _fit_cycle(g, cyc, load, budget)
            if paths is not None:
                transfers.extend(Transfer(p) for p in paths)
                break
        else:
            load = [0] * g.n
            paths = _fit_cycle(g, cyc, load, budget)
            if paths is not None:
                rounds.append(([Transfer(p) for p in paths], load))
            else:
                chained.append(cyc)

    timesteps: list[list] = [[TeleRound(tuple(transfers))]
                             for transfers, _ in rounds]
    for cyc in chained:
        timesteps.extend(_chain_timesteps(g, cyc, budget))
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

    for tr in rnd.transfers:
        add_move(tr.path[0], tr.path[-1], tr.path)
        if tr.kind == "swap":
            add_move(tr.path[-1], tr.path[0], tuple(reversed(tr.path)))
    for src, (dst, _) in moves.items():
        if dst not in moves:
            raise ValueError(
                f"round is not self-contained: vertex {dst} receives "
                f"a token but sends none")

    # split the movement permutation into cycles; a cycle is long if
    # any of its declared paths exceeds the threshold
    seen: set[int] = set()
    short_cycles: list[list[int]] = []
    long_support: list[int] = []
    for start in sorted(moves):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        v = moves[start][0]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = moves[v][0]
        if any(len(moves[u][1]) - 1 > threshold for u in cyc):
            long_support.extend(cyc)
        else:
            short_cycles.append(cyc)

    state = TokenState(g)
    steps: list[list] = []

    def emit(ops: list) -> None:
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
            emit(list(ops))

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
                emit([SwapEdge(p[j], p[j + 1])
                      for p in paths if j < len(p) - 1])
            # whatever this class displaced goes back into data slots
            emit([SwapLocal(v, 0, s) for v, s in parked
                  if state.get(v, s) is not None])

    for src, (dst, _) in moves.items():
        if state.locate(src) != (dst, 0):
            raise AssertionError("swap replay misplaced a token")
    return Schedule(steps)


# ---------------------------------------------------------------------------
# the headline comparison
# ---------------------------------------------------------------------------

def advantage(g: ArchGraph, pi: Permutation) -> Fraction:
    """Depth of the generic swap-only schedule divided by the depth of
    the teleportation schedule (:func:`teleport_schedule`), as an
    exact rational; 1 for the identity."""
    tele = teleport_schedule(g, pi)
    swap = route_generic(g, pi)
    dt = tele.depth()
    if dt == 0:
        return Fraction(1)
    return Fraction(swap.depth(), dt)
