"""Token-level execution and verification of schedules.

Each vertex carries one data slot (slot 0) and ``ancilla_budget``
ancilla slots (1..B).  Tokens are integers; token ``v`` starts in the
data slot of vertex ``v`` and ancillas start empty.  Executing a
schedule moves tokens around; the executor enforces physical
realizability (edges exist, slots are touched at most once per
timestep, transfer loads fit in the free ancilla slots), checks that
every timestep conserves tokens, and reports the permutation a valid
schedule achieves.

Three kinds of timestep are checked whole by :func:`apply_timestep`,
with no call, claim map or sort per primitive: a :class:`SwapLayer`
(int endpoints in range, on edges, no vertex twice) and a list of
:class:`SwapLocal` only (int vertex and slots in range, no slot twice),
each in one loop over its swaps, and an empty layer or list.  Every
other timestep is checked primitive by primitive: a round, which the
teleport routers emit alone in its step, and a list holding a
:class:`SwapEdge`, which only hand-built or JSON input holds.  So is a
layer or a list of local swaps whose whole check fails, which raises
the error there; so either way a fault gets the same message.

:func:`apply_schedule` checks two kinds of schedule whole, with numpy
array passes: one of :class:`SwapLayer` timesteps only, which is what
every swap router emits and what a swap file reads back as, and one of
lone rounds, local-swap lists and empty timesteps, which is what the
teleport routers emit, when its rounds hold more than two path vertices
per graph vertex (a smaller one is stepped, which costs less).  The
first applies all its swaps to one array of data tokens.  The second
moves tokens one round at a time, reads each vertex's occupied
ancillas, which only local swaps change, from counts it keeps at the
vertices they touched, and checks the rounds' path vertices as arrays
(range, edges, loads), a batch of rounds at a time.  If a whole check
fails, the schedule is run again timestep by timestep from the start,
so a fault gets the same message there too.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, index, is_, is_not, itemgetter

import numpy as np

from .graphs import ArchGraph, Permutation
from .schedule import Schedule, SwapEdge, SwapLayer, SwapLocal, TeleRound

__all__ = [
    "TokenState",
    "ScheduleError",
    "apply_timestep",
    "apply_schedule",
    "achieved_permutation",
    "verify_schedule",
]


_data = itemgetter(0)   # the data slot of a vertex's slot row
_present = partial(is_not, None)


class ScheduleError(Exception):
    """A schedule is malformed or physically unrealizable.

    Messages name the offending timestep and primitive.
    """


def _fail(t: int, op, msg: str):
    raise ScheduleError(f"timestep {t}, {type(op).__name__} {op}: {msg}")


class TokenState:
    """Slot contents of every vertex: slots[v][0] is the data slot,
    slots[v][1..B] the ancillas; ``None`` marks an empty slot."""

    def __init__(self, g: ArchGraph):
        self.n = g.n
        self.budget = g.ancilla_budget
        self.slots: list[list[int | None]] = [
            [v] + [None] * g.ancilla_budget for v in range(g.n)
        ]

    def data(self, v: int) -> int | None:
        return self.slots[v][0]

    def get(self, v: int, s: int) -> int | None:
        return self.slots[v][s]

    def tokens(self) -> list[int]:
        """All tokens present, sorted; conservation means this always
        equals list(range(n))."""
        out = [tok for row in self.slots for tok in row if tok is not None]
        return sorted(out)

    def locate(self, token: int) -> tuple[int, int]:
        for v, row in enumerate(self.slots):
            for s, tok in enumerate(row):
                if tok == token:
                    return v, s
        raise KeyError(f"token {token} not present")

    def free_slot(self, v: int) -> int | None:
        """Lowest empty ancilla slot at ``v``, or None."""
        for s in range(1, self.budget + 1):
            if self.slots[v][s] is None:
                return s
        return None


def _check_op(g: ArchGraph, op, t: int) -> dict[int, int] | None:
    """Static checks of a :class:`SwapLocal` or a :class:`TeleRound`
    against the graph, one path vertex at a time; the primitive-by-
    primitive path of :func:`apply_timestep` calls it (a
    :class:`SwapEdge` is checked inline there, and a timestep that
    passes its whole check never comes here).  A vertex or slot in range
    that :func:`operator.index` rejects (``1.0``, not ``np.int64``)
    fails before anything indexes with it; a round holds no such path
    vertex, since it refuses one when it is built.  For a round,
    returns its per-vertex load map (see :meth:`TeleRound.loads`)."""
    if isinstance(op, SwapLocal):
        if not 0 <= op.v < g.n:
            _fail(t, op, "vertex out of range")
        if not (0 <= op.s1 <= g.ancilla_budget and 0 <= op.s2 <= g.ancilla_budget):
            _fail(t, op, "slot out of range")
        try:
            index(op.v), index(op.s1), index(op.s2)
        except TypeError:
            _fail(t, op, "vertex or slot is not an integer")
    elif isinstance(op, TeleRound):
        verts, offsets = op.verts, op.offsets
        for lo, hi in zip(offsets, offsets[1:]):
            path = verts[lo:hi]
            for v in path:
                if not 0 <= v < g.n:
                    _fail(t, op, f"vertex {v} out of range")
            for a, b in zip(path, path[1:]):
                if b not in g._adj[a]:
                    _fail(t, op, f"path step ({a},{b}) is not an edge")
        loads = op.loads()
        for v, load in loads.items():
            if load > g.ancilla_budget:
                _fail(t, op, f"vertex {v} holds {load} pair halves, "
                             f"budget is {g.ancilla_budget}")
        return loads
    else:
        _fail(t, op, "unknown primitive")
    return None


def _round_ends(rnd: TeleRound) -> set:
    """The vertices a round's transfers start or end at."""
    verts, offsets = rnd.verts, rnd.offsets
    return {verts[i] for a, b in zip(offsets, offsets[1:]) for i in (a, b - 1)}


def _slots_written(op) -> list[tuple[int, int]]:
    """(vertex, slot) pairs whose contents a :class:`SwapLocal` or a
    round can change: a round rewrites only the data slots of its
    transfer endpoints."""
    if isinstance(op, SwapLocal):
        return [(op.v, op.s1), (op.v, op.s2)]
    return [(v, 0) for v in _round_ends(op)]


def _layer_fits(g: ArchGraph, us: list, vs: list) -> bool:
    """Whether every swap ``(us[i], vs[i])`` of a layer joins two int
    vertices in range that are adjacent, and no two swaps share a
    vertex.  An endpoint that is not an exact int (a bool, a numpy int,
    ``1.0``) fails, and the layer is checked swap by swap."""
    n, adj = g.n, g._adj
    for u, v in zip(us, vs):
        # u < v, so 0 <= u and v < n put both in range
        if not (type(u) is int and type(v) is int and 0 <= u and v < n
                and v in adj[u]):
            return False
    return len({*us, *vs}) == 2 * len(us)


def _locals_fit(g: ArchGraph, ops: list) -> bool:
    """Whether every op of a list is a :class:`SwapLocal` with an int
    vertex and int slots in range, and no two claim the same (vertex,
    slot).  As for a layer, anything but an exact int fails, and the
    list is checked primitive by primitive."""
    n, top = g.n, g.ancilla_budget
    cells = set()
    for op in ops:
        if type(op) is not SwapLocal:
            return False
        v, s1, s2 = op.v, op.s1, op.s2
        # s1 < s2, so 0 <= s1 and s2 <= top put both in range
        if not (type(v) is int and type(s1) is int and type(s2) is int
                and 0 <= v < n and 0 <= s1 and s2 <= top):
            return False
        cells.add((v, s1))
        cells.add((v, s2))
    return len(cells) == 2 * len(ops)


def apply_timestep(g: ArchGraph, state: TokenState, ops, t: int = 0):
    """Apply one timestep's primitives simultaneously, in place.

    ``ops`` is a list of primitives or a :class:`SwapLayer`.  Raises
    :class:`ScheduleError` if a primitive is malformed or unrealizable,
    if two primitives share a slot (a round occupies every slot of
    every vertex on its paths), or if the step does not conserve
    tokens.  Only the slots the primitives write can change, so the
    conservation check compares the tokens in those slots before and
    after the step; the cost is linear in the size of the timestep.

    A layer and a list of local swaps only are checked whole before any
    slot changes, with no object or claim map per swap, and an empty one
    returns at once.  Any other timestep, and either of those if its
    whole check fails, is checked primitive by primitive (a layer as its
    ``SwapEdge`` objects), so the error names the same primitive, with
    the same text, either way.
    """
    if type(ops) is SwapLayer:
        if not ops.us:
            return
        if _layer_fits(g, ops.us, ops.vs):
            _apply_swap_layer(state, ops.us, ops.vs, t)
            return
        ops = list(ops)
    elif type(ops) is list:
        if not ops:
            return
        if type(ops[0]) is SwapLocal and _locals_fit(g, ops):
            _apply_locals(state, ops, t)
            return
    # a SwapEdge/SwapLocal claims the (v, s) slots it writes; a round
    # claims (v, None), all of v, for each vertex on its paths.  ``users``
    # maps a vertex to the first primitive claiming any of its slots.
    n, adj = g.n, g._adj
    taken: dict[tuple[int, int | None], object] = {}
    users: dict[int, object] = {}
    rounds: list[tuple[TeleRound, dict[int, int]]] = []
    written: list[tuple[int, int]] = []
    for op in ops:
        if type(op) is SwapEdge:
            u, v = op.u, op.v    # u < v
            if u < 0 or v >= n:
                _fail(t, op, "vertex out of range")
            # indexing adj checks u as index() would, but 1.0 is in adj[u]
            # whenever 1 is, so v needs its own check
            try:
                if v not in adj[u]:
                    _fail(t, op, "no such edge")
                index(v)
            except TypeError:
                _fail(t, op, "vertex is not an integer")
            claims = ((u, 0), (v, 0))
        else:
            loads = _check_op(g, op, t)
            if loads is not None:
                for v in loads:
                    other = users.get(v)
                    if other is not None:
                        _fail(t, op, f"vertex {v} already used by "
                                     f"{type(other).__name__} in this timestep")
                    taken[v, None] = users[v] = op
                rounds.append((op, loads))
                written += _slots_written(op)
                continue
            claims = _slots_written(op)
        for claim in claims:
            other = taken.get(claim, taken.get((claim[0], None)))
            if other is not None:
                _fail(t, op, f"slot {claim} already used by "
                             f"{type(other).__name__} in this timestep")
            taken[claim] = op
            users.setdefault(claim[0], op)
        written += claims

    slots = state.slots
    before = sorted(tok for v, s in written
                    if (tok := slots[v][s]) is not None)
    for op in ops:
        if type(op) is SwapEdge:
            su, sv = slots[op.u], slots[op.v]
            su[0], sv[0] = sv[0], su[0]
        elif isinstance(op, SwapLocal):
            row = slots[op.v]
            row[op.s1], row[op.s2] = row[op.s2], row[op.s1]
    # claims are disjoint, so rounds may follow the swaps
    for op, loads in rounds:
        _apply_tele_round(state, op, t, loads)
    after = sorted(tok for v, s in written
                   if (tok := slots[v][s]) is not None)
    if before != after:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


def _apply_swap_layer(state: TokenState, us: list, vs: list, t: int):
    """Exchange the data tokens of each pair ``(us[i], vs[i])`` of a
    layer that :func:`_layer_fits` accepted, then check that the
    endpoints' data slots hold their starting tokens with each pair's
    two exchanged, which conserves them with no sort."""
    slots = state.slots
    before = []
    for u, v in zip(us, vs):
        su, sv = slots[u], slots[v]
        before += su[0], sv[0]
        su[0], sv[0] = sv[0], su[0]
    after = []
    for u, v in zip(us, vs):
        after += slots[v][0], slots[u][0]
    if after != before:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


def _apply_locals(state: TokenState, ops: list, t: int):
    """Exchange the two slots of each local swap of a list that
    :func:`_locals_fit` accepted, then check, as for a layer, that the
    swapped slots hold their starting tokens, each swap's two
    exchanged."""
    slots = state.slots
    before = []
    for op in ops:
        row, s1, s2 = slots[op.v], op.s1, op.s2
        before += row[s1], row[s2]
        row[s1], row[s2] = row[s2], row[s1]
    after = []
    for op in ops:
        row = slots[op.v]
        after += row[op.s2], row[op.s1]
    if after != before:
        raise ScheduleError(f"timestep {t}: tokens not conserved")


def _apply_tele_round(state: TokenState, op: TeleRound, t: int,
                      loads: dict[int, int]):
    """Check a round's transfers against the slots and move its tokens.
    ``loads`` maps each vertex whose free ancillas are still to be
    checked to the halves the round parks there."""
    # pair halves live in ancilla slots, so slots holding parked tokens
    # are not available to the round
    for v, need in loads.items():
        row = state.slots[v]
        free = row.count(None) - (row[0] is None)
        if free < need:
            _fail(t, op, f"vertex {v} needs {need} free ancilla slots "
                         f"for its pair halves but only {free} are empty")

    # all transfers in a round act simultaneously: read sources first
    slots = state.slots
    verts, offsets = op.verts, op.offsets
    ends = [(verts[a], verts[b - 1], kind == "swap")
            for a, b, kind in zip(offsets, offsets[1:], op.kinds)]
    sources = set()
    for src, _, _ in ends:
        if src in sources:
            _fail(t, op, f"vertex {src} is the source of two transfers")
        sources.add(src)
    for _, dst, swap in ends:
        if swap and dst in sources:
            _fail(t, op, f"vertex {dst} both swaps and sends")

    outgoing = {}
    for src, dst, swap in ends:
        tok = slots[src][0]
        if tok is None:
            _fail(t, op, f"transfer source {src} holds no token")
        outgoing[src] = tok
        if swap:
            back = slots[dst][0]
            if back is None:
                _fail(t, op, f"swap endpoint {dst} holds no token")
            outgoing[dst] = back

    dests_written = set()
    for src, dst, swap in ends:
        for dest in (dst, src) if swap else (dst,):
            if dest in dests_written:
                _fail(t, op, f"two transfers write vertex {dest}")
            if slots[dest][0] is not None and dest not in outgoing:
                _fail(t, op, f"destination {dest} is occupied and sends nothing")
            dests_written.add(dest)
    # sources whose token leaves and nothing arrives become empty
    for v in outgoing:
        slots[v][0] = None
    for src, dst, swap in ends:
        slots[dst][0] = outgoing[src]
        if swap:
            slots[src][0] = outgoing[dst]


def _on_edges(g: ArchGraph, us, vs) -> bool:
    """Whether every pair ``(us[i], vs[i])`` of int arrays, in range, is
    an edge: its key ``u*n + v`` is searched for (``searchsorted``) in
    the keys of the edges at the distinct ``us``, which come out sorted,
    as each neighbour list is.  Only the rows of the used ``us`` are
    read, so a small schedule on a large graph reads few edges."""
    n, adj = g.n, g._adj
    used = np.zeros(n, dtype=bool)
    used[us] = True
    rows = np.flatnonzero(used)
    nbrs = [adj[u] for u in rows.tolist()]
    sizes = list(map(len, nbrs))
    edge_keys = np.repeat(rows * n, sizes)
    edge_keys += np.fromiter(chain.from_iterable(nbrs), np.int64,
                             len(edge_keys))
    keys = us * n + vs
    at = np.searchsorted(edge_keys, keys)
    return not ((at == len(edge_keys)).any()
                or (edge_keys[at] != keys).any())


def _apply_layers(g: ArchGraph, layers: list) -> TokenState | None:
    """The final state of a schedule of :class:`SwapLayer` timesteps
    only, checked and applied as arrays, or None if a check fails.

    All endpoints go into one numpy array.  It must come out with an
    integer dtype: a float, a string or an int beyond int64 makes it
    float or object, and fails.  Bools and numpy ints pass, as they do
    one timestep at a time, where a swap indexes with them.  Then one
    pass each checks that every endpoint is in range, that every swap
    lies on an edge (:func:`_on_edges`) and, over keys ``t*n + v`` of
    vertex v in timestep t, that no vertex appears twice in a timestep.
    Each timestep then swaps the data tokens of its pairs in one int
    array; its swaps are disjoint, so it conserves them."""
    n, sizes = g.n, list(map(len, layers))
    flat: list = []   # every u, then every v
    for layer in layers:
        flat += layer.us
    for layer in layers:
        flat += layer.vs
    data = np.arange(n)
    if flat:
        ends = np.array(flat)
        if ends.dtype.kind != "i" or ends.min() < 0 or ends.max() >= n:
            return None
        half = len(ends) // 2
        us, vs = ends[:half], ends[half:]
        if not _on_edges(g, us, vs):
            return None
        step_of = np.repeat(np.arange(len(layers)) * n, sizes)
        seen = np.concatenate((step_of + us, step_of + vs))
        seen.sort()
        if (seen[1:] == seen[:-1]).any():
            return None
        bounds = list(accumulate(sizes, initial=0))
        for a, b in zip(bounds, bounds[1:]):
            u, v = us[a:b], vs[a:b]
            data[u], data[v] = data[v], data[u]
        if not np.array_equal(np.sort(data), np.arange(n)):
            return None
    state = TokenState(g)
    for row, tok in zip(state.slots, data.tolist()):
        row[0] = tok
    return state


def _rounds_fit_as_arrays(g: ArchGraph, rounds: list) -> bool:
    """Whether rounds pass every static check of :func:`_check_op`,
    checked as arrays: all their path vertices, in one array, must be in
    range and every path step on an edge (:func:`_on_edges`).  A path
    parks h pair halves at each vertex, 2w inside and w at an end (w = 2
    for a swap, 1 for a move), and each round's halves at a vertex must
    not exceed the budget.  A round of one path parks its halves at
    distinct vertices, since a path is simple; otherwise one sort of the
    keys ``(r*n + v)*8 + h``, for vertex v of the r-th round, puts each
    (round, vertex)'s halves side by side for a sum."""
    n, budget = g.n, g.ancilla_budget
    verts, offsets, swaps, round_of = [], [0], [], []
    for r, rnd in enumerate(rounds):
        offsets += map(add, rnd.offsets[1:], repeat(len(verts)))
        verts += rnd.verts
        swaps += map("swap".__eq__, rnd.kinds)
        round_of += repeat(r, len(rnd.kinds))
    try:
        at = np.fromiter(verts, np.int64, len(verts))
    except OverflowError:
        return False
    if at.min() < 0 or at.max() >= n:
        return False
    offsets = np.array(offsets)
    inner = np.ones(len(at) - 1, dtype=bool)
    inner[offsets[1:-1] - 1] = False   # from one path's end to the next
    if not _on_edges(g, at[:-1][inner], at[1:][inner]):
        return False
    sizes = np.diff(offsets)
    w = np.array(swaps, dtype=np.int64) + 1
    halves = np.repeat(2 * w, sizes)
    halves[offsets[:-1]] -= w
    halves[offsets[1:] - 1] -= w
    if len(swaps) == len(rounds):
        return bool(halves.max() <= budget)
    keys = np.repeat(np.array(round_of, dtype=np.int64) * n, sizes)
    keys += at
    keys *= 8
    keys += halves
    keys.sort()
    pairs = keys >> 3
    lasts = np.append(np.flatnonzero(pairs[1:] != pairs[:-1]), len(keys) - 1)
    return bool((np.diff(np.cumsum(keys & 7)[lasts], prepend=0)
                 <= budget).all())


def _batches(rounds: list):
    """Runs of consecutive rounds holding at most 2**16 path vertices in
    all, or one round that holds more, so that the arrays checking a
    run stay small."""
    batch, size = [], 0
    for rnd in rounds:
        if batch and size + len(rnd.verts) > 1 << 16:
            yield batch
            batch, size = [], 0
        batch.append(rnd)
        size += len(rnd.verts)
    if batch:
        yield batch


# A schedule whose rounds hold at most this many path vertices per graph
# vertex is stepped: there the array check's fixed cost, some fifty
# numpy calls and a pass over the neighbour lists it reads, is more than
# what stepping spends on the rounds, one primitive at a time.
_ROUNDS_STEPPED_PER_VERTEX = 2


def _apply_rounds(g: ArchGraph, steps: list) -> TokenState | None:
    """The final state of a schedule whose every timestep holds one
    :class:`TeleRound` alone, :class:`SwapLocal` objects only or
    nothing, as the teleport routers emit; None if a timestep is of
    another kind, if its rounds hold too few path vertices for the
    arrays to pay (``_ROUNDS_STEPPED_PER_VERTEX``), or if any check
    fails.

    One pass moves the tokens: a round through :func:`_apply_tele_round`
    and a list of local swaps that :func:`_locals_fit` accepts through
    :func:`_apply_locals`.  Only local swaps write ancillas, so the pass
    counts the occupied ancillas of each vertex they touch and checks a
    round's loads (:meth:`TeleRound.loads`) only where that count is not
    0 and leaves less room than the round could need.  Then the rounds'
    static checks, :func:`_rounds_fit_as_arrays`, run on the rounds in
    batches (whatever the pass did with a vertex out of range), and the
    final slots must hold every token once."""
    size = 0   # path vertices of the rounds
    for step in steps:
        if type(step) is not list or step and not (
                type(step[0]) is SwapLocal
                or type(step[0]) is TeleRound and len(step) == 1):
            return None
        if step and type(step[0]) is TeleRound:
            size += len(step[0].verts)
    if size <= _ROUNDS_STEPPED_PER_VERTEX * g.n:
        return None
    budget = g.ancilla_budget
    state = TokenState(g)
    slots = state.slots
    rounds = []
    occupied: dict[int, int] = {}   # vertex -> occupied ancillas, if any
    try:
        for t, step in enumerate(steps):
            if not step:
                continue
            rnd = step[0]
            if type(rnd) is TeleRound:
                rounds.append(rnd)
                # a transfer parks at most 4 halves at a vertex
                room = budget - 4 * len(rnd.kinds)
                tight = [(v, c) for v, c in occupied.items() if c > room]
                if tight:
                    loads = rnd.loads()
                    if any(loads.get(v, 0) > budget - c for v, c in tight):
                        return None
                _apply_tele_round(state, rnd, t, {})
                continue
            if not _locals_fit(g, step):
                return None
            _apply_locals(state, step, t)
            for op in step:
                row = slots[op.v]
                c = budget - row.count(None) + (row[0] is None)
                if c:
                    occupied[op.v] = c
                else:
                    occupied.pop(op.v, None)
    except (ScheduleError, IndexError):   # IndexError: a vertex >= n
        return None
    if not all(map(partial(_rounds_fit_as_arrays, g), _batches(rounds))):
        return None
    # a round writes data slots only, and local swaps conserve their
    # tokens, so if every round conserved its tokens, the data slots and
    # the ancillas of the vertices in ``occupied`` hold each token once
    tokens = list(filter(_present, map(_data, slots)))
    for v in occupied:
        tokens += filter(_present, slots[v][1:])
    if sorted(tokens) != list(range(g.n)):
        return None
    return state


def apply_schedule(g: ArchGraph, schedule: Schedule) -> TokenState:
    """Execute a schedule from the canonical start state and return the
    final state.  Raises :class:`ScheduleError` on any malformed or
    conflicting primitive, naming the timestep and primitive, and on
    any timestep that does not conserve tokens; to inspect the state
    between timesteps, call :func:`apply_timestep` in a loop.

    Two kinds of schedule are checked whole, as arrays: one whose every
    timestep is a :class:`SwapLayer`, as every swap router emits and
    ``Schedule.from_json`` reads a swap file (:func:`_apply_layers`),
    and one of lone rounds, local swaps and empty timesteps, as the
    teleport routers emit (:func:`_apply_rounds`), if its rounds hold
    enough path vertices.  If a whole check fails, or the schedule is of
    neither kind or small, it is run timestep by timestep from the
    start, which raises any error, so a fault gets the same message
    either way.
    """
    steps = schedule.timesteps
    if all(map(is_, map(type, steps), repeat(SwapLayer))):
        state = _apply_layers(g, steps)
    else:
        state = _apply_rounds(g, steps)
    if state is not None:
        return state
    state = TokenState(g)
    for t, step in enumerate(steps):
        apply_timestep(g, state, step, t)
    return state


def achieved_permutation(g: ArchGraph, state: TokenState) -> Permutation:
    """The permutation realized by a final state: token i sits in the
    data slot of vertex image[i].  Requires every ancilla empty and
    every data slot occupied.

    Each row is read whole: its ancillas are compared with an empty row
    of B slots, and its data slot is collected.  A fault names the
    stranded token first in (vertex, slot) order or, with none, the
    first empty data slot."""
    empty = [None] * g.ancilla_budget
    for v, row in enumerate(state.slots):
        if row[1:] != empty:
            s = next(s for s in range(1, len(row)) if row[s] is not None)
            raise ScheduleError(
                f"token {row[s]} stranded in ancilla slot {s} of vertex {v}")
    data = list(map(_data, state.slots))
    if None in data:
        raise ScheduleError(
            f"data slot of vertex {data.index(None)} is empty")
    image = [None] * g.n
    for v, tok in enumerate(data):
        image[tok] = v
    return Permutation(tuple(image))


def verify_schedule(g: ArchGraph, schedule: Schedule,
                    pi: Permutation) -> bool:
    """Whether a valid schedule achieves exactly ``pi``.

    Raises :class:`ScheduleError` if the schedule is malformed or
    physically unrealizable, if some timestep does not conserve tokens,
    or if it ends with a token stranded in an ancilla or a data slot
    empty.  Returns False only when the schedule executes cleanly but
    the permutation it achieves differs from ``pi``.
    """
    final = apply_schedule(g, schedule)
    return achieved_permutation(g, final).image == pi.image
