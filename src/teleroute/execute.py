"""Token-level execution and verification of schedules.

Each vertex carries one data slot (slot 0) and ``ancilla_budget``
ancilla slots (1..B).  Tokens are integers; token ``v`` starts in the
data slot of vertex ``v`` and ancillas start empty.  Executing a
schedule moves tokens around; the executor enforces physical
realizability (edges exist, slots are touched at most once per
timestep, transfer loads fit in the free ancilla slots), checks that
every timestep conserves tokens, and reports the permutation a valid
schedule achieves.
"""

from __future__ import annotations

from .graphs import ArchGraph, Permutation
from .schedule import Schedule, SwapEdge, SwapLocal, TeleRound

__all__ = [
    "TokenState",
    "ScheduleError",
    "apply_timestep",
    "apply_schedule",
    "achieved_permutation",
    "verify_schedule",
]


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

    def copy(self) -> "TokenState":
        other = object.__new__(TokenState)
        other.n = self.n
        other.budget = self.budget
        other.slots = [row[:] for row in self.slots]
        return other


def _check_op(g: ArchGraph, op, t: int) -> dict[int, int] | None:
    """Static checks of a primitive other than a :class:`SwapEdge`
    (which :func:`apply_timestep` checks inline) against the graph.
    For a round, returns its per-vertex load map (see
    :meth:`TeleRound.loads`)."""
    if isinstance(op, SwapLocal):
        if not 0 <= op.v < g.n:
            _fail(t, op, "vertex out of range")
        if not (0 <= op.s1 <= g.ancilla_budget and 0 <= op.s2 <= g.ancilla_budget):
            _fail(t, op, "slot out of range")
    elif isinstance(op, TeleRound):
        for tr in op.transfers:
            for v in tr.path:
                if not 0 <= v < g.n:
                    _fail(t, op, f"vertex {v} out of range")
            for a, b in zip(tr.path, tr.path[1:]):
                if not g.has_edge(a, b):
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


def _slots_written(op) -> list[tuple[int, int]]:
    """(vertex, slot) pairs whose contents a :class:`SwapLocal` or a
    round can change: a round rewrites only the data slots of its
    transfer endpoints."""
    if isinstance(op, SwapLocal):
        return [(op.v, op.s1), (op.v, op.s2)]
    return list({(v, 0) for tr in op.transfers for v in (tr.source, tr.dest)})


def apply_timestep(g: ArchGraph, state: TokenState, ops, t: int = 0):
    """Apply one timestep's primitives simultaneously, in place.

    Raises :class:`ScheduleError` if a primitive is malformed or
    unrealizable, if two primitives share a slot (a round occupies every
    slot of every vertex on its paths), or if the step does not conserve
    tokens.  Only the slots the primitives write can change, so the
    conservation check compares the tokens in those slots before and
    after the step; the cost is linear in the size of the timestep.
    """
    # a SwapEdge/SwapLocal claims the (v, s) slots it writes; a round
    # claims (v, None), all of v, for each vertex on its paths.  ``users``
    # maps a vertex to the first primitive claiming any of its slots.
    # Edge swaps, nearly every op of a swap schedule, are checked here.
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
            if v not in adj[u]:
                _fail(t, op, "no such edge")
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


def _apply_tele_round(state: TokenState, op: TeleRound, t: int,
                      loads: dict[int, int]):
    # pair halves live in ancilla slots, so slots holding parked tokens
    # are not available to the round
    for v, need in loads.items():
        row = state.slots[v]
        free = row.count(None) - (row[0] is None)
        if free < need:
            _fail(t, op, f"vertex {v} needs {need} free ancilla slots "
                         f"for its pair halves but only {free} are empty")

    # all transfers in a round act simultaneously: read sources first
    sources = {}
    for tr in op.transfers:
        if tr.source in sources:
            _fail(t, op, f"vertex {tr.source} is the source of two transfers")
        sources[tr.source] = tr
    for tr in op.transfers:
        if tr.kind == "swap" and tr.dest in sources:
            _fail(t, op, f"vertex {tr.dest} both swaps and sends")

    outgoing = {}
    for tr in op.transfers:
        tok = state.data(tr.source)
        if tok is None:
            _fail(t, op, f"transfer source {tr.source} holds no token")
        outgoing[tr.source] = tok
        if tr.kind == "swap":
            back = state.data(tr.dest)
            if back is None:
                _fail(t, op, f"swap endpoint {tr.dest} holds no token")
            outgoing[tr.dest] = back

    dests_written = set()
    for tr in op.transfers:
        if tr.kind == "swap":
            targets = [(tr.dest, tr.source), (tr.source, tr.dest)]
        else:
            targets = [(tr.dest, tr.source)]
        for dest, src in targets:
            if dest in dests_written:
                _fail(t, op, f"two transfers write vertex {dest}")
            if state.data(dest) is not None and dest not in outgoing:
                _fail(t, op, f"destination {dest} is occupied and sends nothing")
            dests_written.add(dest)
    # sources whose token leaves and nothing arrives become empty
    for v in outgoing:
        state.slots[v][0] = None
    for tr in op.transfers:
        state.slots[tr.dest][0] = outgoing[tr.source]
        if tr.kind == "swap":
            state.slots[tr.source][0] = outgoing[tr.dest]


def apply_schedule(g: ArchGraph, schedule: Schedule,
                   on_step=None) -> TokenState:
    """Execute a schedule from the canonical start state.

    ``on_step(t, state)`` is called after each timestep, if given.
    Raises :class:`ScheduleError` on any malformed or conflicting
    primitive, naming the timestep and primitive, and on any timestep
    that does not conserve tokens.
    """
    state = TokenState(g)
    for t, step in enumerate(schedule.timesteps):
        apply_timestep(g, state, step, t)
        if on_step is not None:
            on_step(t, state)
    return state


def achieved_permutation(g: ArchGraph, state: TokenState) -> Permutation:
    """The permutation realized by a final state: token i sits in the
    data slot of vertex image[i].  Requires every ancilla empty and
    every data slot occupied."""
    for v in range(g.n):
        for s in range(1, g.ancilla_budget + 1):
            if state.slots[v][s] is not None:
                raise ScheduleError(
                    f"token {state.slots[v][s]} stranded in ancilla "
                    f"slot {s} of vertex {v}")
    image = [None] * g.n
    for v in range(g.n):
        tok = state.data(v)
        if tok is None:
            raise ScheduleError(f"data slot of vertex {v} is empty")
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
