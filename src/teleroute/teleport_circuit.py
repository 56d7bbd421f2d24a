"""Layered Clifford circuits and the constant-depth teleportation block.

A circuit is a list of layers of gates on disjoint qubits: H, S, CNOT,
X, Z, Z-basis measurement into a numbered classical record, and X/Z
corrections controlled by the parity of a record subset.  The
teleportation emitter produces the repeater-style block for a path of
any length in a fixed number of layers: Bell pairs across every hop,
simultaneous Bell measurements at the source and every junction, and
two parity-controlled corrections at the destination.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from .execute import TokenState, apply_timestep
from .graphs import ArchGraph
from .schedule import Schedule, SwapEdge, SwapLocal, TeleRound
from .stabilizer import Tableau

__all__ = [
    "Gate",
    "CliffordCircuit",
    "emit_teleport_circuit",
    "verify_teleportation",
    "emit_circuit",
]

_KINDS = ("h", "s", "x", "z", "cnot", "measure", "parity_x", "parity_z")


@dataclass(frozen=True)
class Gate:
    """One gate: ``kind`` with its qubits, plus a record index for
    measurements and record indices whose parity controls a
    parity_x/parity_z correction."""

    kind: str
    qubits: tuple[int, ...]
    record: int | None = None
    controls: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "cnot" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if self.kind == "cnot" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cnot needs distinct qubits")
        if (self.record is not None) != (self.kind == "measure"):
            raise ValueError("record is for measure gates only")
        if self.controls and self.kind not in ("parity_x", "parity_z"):
            raise ValueError("controls are for parity gates only")
        if self.kind in ("parity_x", "parity_z") and not self.controls:
            raise ValueError("parity gates need at least one control record")


@dataclass
class CliffordCircuit:
    """Gate layers over ``num_qubits`` qubits writing ``num_records``
    measurement records."""

    num_qubits: int
    layers: list[list[Gate]] = field(default_factory=list)
    num_records: int = 0

    def validate(self):
        """Check layer qubit-disjointness, qubit/record ranges, single
        assignment per record, and no record read before it is set."""
        assigned: set[int] = set()
        for t, layer in enumerate(self.layers):
            seen: set[int] = set()
            for gate in layer:
                for a in gate.qubits:
                    if not 0 <= a < self.num_qubits:
                        raise ValueError(f"layer {t}: qubit {a} out of range")
                    if a in seen:
                        raise ValueError(
                            f"layer {t}: qubit {a} used twice")
                    seen.add(a)
                for c in gate.controls:
                    if c not in assigned:
                        raise ValueError(
                            f"layer {t}: record {c} read before assignment")
            for gate in layer:
                if gate.kind == "measure":
                    if not 0 <= gate.record < self.num_records:
                        raise ValueError(
                            f"layer {t}: record {gate.record} out of range")
                    if gate.record in assigned:
                        raise ValueError(
                            f"layer {t}: record {gate.record} written twice")
                    assigned.add(gate.record)

    def run(self, tableau: Tableau | None = None, rng=None,
            forced=None) -> tuple[Tableau, list[int | None]]:
        """Execute on ``tableau`` (default: fresh |0...0>).

        Random measurement outcomes consume bits from ``forced`` when
        given, else draw from ``rng`` (default: seed-0 PRNG).  Returns
        the final tableau and the record values.
        """
        self.validate()
        tab = Tableau(self.num_qubits) if tableau is None else tableau
        if rng is None and forced is None:
            rng = random.Random(0)
        feed = iter(forced) if forced is not None else None
        records: list[int | None] = [None] * self.num_records
        for layer in self.layers:
            for gate in layer:
                if gate.kind == "h":
                    tab.h(gate.qubits[0])
                elif gate.kind == "s":
                    tab.s(gate.qubits[0])
                elif gate.kind == "x":
                    tab.x_gate(gate.qubits[0])
                elif gate.kind == "z":
                    tab.z_gate(gate.qubits[0])
                elif gate.kind == "cnot":
                    tab.cnot(*gate.qubits)
                elif gate.kind == "measure":
                    a = gate.qubits[0]
                    if feed is not None and tab.is_random(a):
                        try:
                            out = next(feed)
                        except StopIteration:
                            raise ValueError(
                                "forced branch vector exhausted") from None
                        records[gate.record] = tab.measure(a, outcome=out)
                    else:
                        records[gate.record] = tab.measure(a, rng=rng)
                else:
                    parity = 0
                    for c in gate.controls:
                        parity = parity ^ records[c]
                    if gate.kind == "parity_x":
                        tab.x_if(gate.qubits[0], parity)
                    else:
                        tab.z_if(gate.qubits[0], parity)
        return tab, records

    def to_json(self) -> str:
        doc = {
            "num_qubits": self.num_qubits,
            "num_records": self.num_records,
            "layers": [
                [
                    {
                        "kind": g.kind,
                        "qubits": list(g.qubits),
                        **({"record": g.record} if g.record is not None
                           else {}),
                        **({"controls": list(g.controls)} if g.controls
                           else {}),
                    }
                    for g in sorted(layer, key=lambda g: g.qubits)
                ]
                for layer in self.layers
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the constant-depth teleportation block
# ---------------------------------------------------------------------------

def emit_teleport_circuit(d: int) -> CliffordCircuit:
    """Teleport qubit 0 to qubit 2d across d hops in 7 layers.

    Qubits: 0 is the source; hop i (1-based) owns the fresh pair
    (2i-1, 2i); qubit 2d is the destination.  Layers: create a Bell
    pair across every hop (H, then CNOT); Bell-measure source with the
    first pair half and each junction's arriving half with the next
    departing half (CNOT, H, measure twice); finally apply X controlled
    by the parity of the CNOT-target records and Z by the parity of the
    H-side records.  The layer count never depends on d.
    """
    if d < 1:
        raise ValueError("teleportation needs at least one hop")
    c = CliffordCircuit(num_qubits=1 + 2 * d, num_records=2 * d)
    c.layers.append([Gate("h", (2 * i - 1,)) for i in range(1, d + 1)])
    c.layers.append([Gate("cnot", (2 * i - 1, 2 * i))
                     for i in range(1, d + 1)])
    bell = [(0, 1)] + [(2 * i, 2 * i + 1) for i in range(1, d)]
    c.layers.append([Gate("cnot", (a, b)) for a, b in bell])
    c.layers.append([Gate("h", (a,)) for a, _ in bell])
    measures = []
    for k, (a, b) in enumerate(bell):
        measures.append(Gate("measure", (a,), record=2 * k))
        measures.append(Gate("measure", (b,), record=2 * k + 1))
    c.layers.append(measures)
    dest = 2 * d
    c.layers.append([Gate("parity_x", (dest,),
                          controls=tuple(range(1, 2 * d, 2)))])
    c.layers.append([Gate("parity_z", (dest,),
                          controls=tuple(range(0, 2 * d, 2)))])
    c.validate()
    return c


_PREPS = (
    ("Z", 1, ()),
    ("Z", -1, ("x",)),
    ("X", 1, ("h",)),
    ("X", -1, ("h", "z")),
    ("Y", 1, ("h", "s")),
    ("Y", -1, ("h", "s", "z")),
)


def verify_teleportation(circuit: CliffordCircuit, d: int,
                         branches: int = 20, seed: int = 0) -> bool:
    """True iff the circuit teleports every Pauli eigenstate from
    qubit 0 to qubit 2d unchanged on every branch tried.

    Each of the six eigenstates is prepared on the source and the
    circuit run with forced measurement outcomes: exhaustively over all
    branch vectors when there are at most 10 random measurements, else
    over ``branches`` seeded random vectors.  All branch vectors of one
    state ride a single batched tableau pass.  The destination must end
    up stabilized by the same signed Pauli every time.
    """
    bits = 2 * d
    if bits <= 10:
        vectors = np.array(list(itertools.product((0, 1), repeat=bits)),
                           dtype=np.uint8).T
    else:
        rng = random.Random(seed)
        vectors = np.array([[rng.randrange(2) for _ in range(branches)]
                            for _ in range(bits)], dtype=np.uint8)
    for pauli, sign, prep in _PREPS:
        tab = Tableau(circuit.num_qubits, batch=vectors.shape[1])
        for kind in prep:
            getattr(tab, kind if kind in ("h", "s") else kind + "_gate")(0)
        tab, _ = circuit.run(tab, forced=vectors)
        got = tab.stabilized_sign(2 * d, pauli)
        if got is None or not np.all(got == sign):
            return False
    return True


# ---------------------------------------------------------------------------
# whole-schedule gate-level export
# ---------------------------------------------------------------------------

def _swap_layers(pairs: list[tuple[int, int]]) -> list[list[Gate]]:
    """Three CNOT layers exchanging each qubit pair."""
    return [
        [Gate("cnot", (a, b)) for a, b in pairs],
        [Gate("cnot", (b, a)) for a, b in pairs],
        [Gate("cnot", (a, b)) for a, b in pairs],
    ]


def emit_circuit(g: ArchGraph, schedule: Schedule) -> CliffordCircuit:
    """Gate-level export of a schedule: qubit v*(1+B)+s is slot s of
    vertex v; swaps become 3 CNOTs; every transfer of a teleportation
    round becomes one teleportation block over ancilla slots allocated
    along its path, followed by measured-qubit resets (X controlled by
    the qubit's own record) and a local swap of the delivered state
    into the destination's data slot."""
    width = 1 + g.ancilla_budget
    c = CliffordCircuit(num_qubits=g.n * width)

    def slot(v: int, s: int) -> int:
        return v * width + s

    state = TokenState(g)
    for t, step in enumerate(schedule.timesteps):
        swap_pairs: list[tuple[int, int]] = []
        rounds: list[TeleRound] = []
        for op in step:
            if isinstance(op, SwapEdge):
                swap_pairs.append((slot(op.u, 0), slot(op.v, 0)))
            elif isinstance(op, SwapLocal):
                swap_pairs.append((slot(op.v, op.s1), slot(op.v, op.s2)))
            else:
                rounds.append(op)
        if swap_pairs:
            c.layers.extend(_swap_layers(swap_pairs))
        if rounds:
            _emit_rounds(c, g, rounds, slot, state)
        apply_timestep(g, state, step, t)
    c.validate()
    return c


def _emit_rounds(c: CliffordCircuit, g: ArchGraph, rounds: list[TeleRound],
                 slot, state: TokenState) -> None:
    used: set[tuple[int, int]] = set()

    def take(v: int) -> int:
        for s in range(1, g.ancilla_budget + 1):
            if state.slots[v][s] is None and (v, s) not in used:
                used.add((v, s))
                return slot(v, s)
        raise ValueError(f"vertex {v} has no free ancilla slot left for "
                         f"its share of the round")

    chains = []
    for rnd in rounds:
        for tr in rnd.transfers:
            legs = [tr.path] if tr.kind == "move" else [
                tr.path, tuple(reversed(tr.path))]
            for path in legs:
                halves = []
                for u, v in zip(path, path[1:]):
                    halves.append((take(u), take(v)))
                chains.append((slot(path[0], 0), halves, slot(path[-1], 0)))

    pair_h, pair_cnot, bell_cnot, bell_h = [], [], [], []
    meas, resets, fixes, deliver = [], [], [], []
    rec = c.num_records
    for source, halves, dest_data in chains:
        for a, b in halves:
            pair_h.append(Gate("h", (a,)))
            pair_cnot.append(Gate("cnot", (a, b)))
        senders = [source] + [b for _, b in halves[:-1]]
        targets = [a for a, _ in halves]
        x_records, z_records = [], []
        for s_q, t_q in zip(senders, targets):
            bell_cnot.append(Gate("cnot", (s_q, t_q)))
            bell_h.append(Gate("h", (s_q,)))
            meas.append(Gate("measure", (s_q,), record=rec))
            z_records.append(rec)
            meas.append(Gate("measure", (t_q,), record=rec + 1))
            x_records.append(rec + 1)
            rec += 2
        for gate in meas[-2 * len(senders):]:
            resets.append(Gate("parity_x", gate.qubits,
                               controls=(gate.record,)))
        arrived = halves[-1][1]
        fixes.append(Gate("parity_x", (arrived,), controls=tuple(x_records)))
        fixes.append(Gate("parity_z", (arrived,), controls=tuple(z_records)))
        deliver.append((arrived, dest_data))

    c.num_records = rec
    for layer in (pair_h, pair_cnot, bell_cnot, bell_h, meas, resets):
        c.layers.append(layer)
    c.layers.append([g_ for g_ in fixes if g_.kind == "parity_x"])
    c.layers.append([g_ for g_ in fixes if g_.kind == "parity_z"])
    c.layers.extend(_swap_layers(deliver))
