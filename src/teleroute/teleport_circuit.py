"""Layered Clifford circuits and the constant-depth teleportation block.

A circuit is a list of layers of gates on disjoint qubits: H, S, CNOT,
X, Z, Z-basis measurement into a numbered classical record, and X/Z
corrections controlled by the parity of a record subset.  One builder
makes the repeater-style teleportation block for relay chains of any
length in a fixed number of layers: Bell pairs across every hop,
simultaneous Bell measurements at the source and every junction, and
two parity-controlled corrections at the destination.  It is both the
one-chain circuit that ``verify_teleportation`` checks and what
``emit_circuit`` compiles every teleportation round to.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from .execute import TokenState, apply_timestep
from .graphs import ArchGraph
from .schedule import Schedule, SwapEdge, SwapLayer, SwapLocal, TeleRound
from .stabilizer import Tableau

__all__ = [
    "Gate",
    "CliffordCircuit",
    "emit_teleport_circuit",
    "verify_teleportation",
    "emit_circuit",
]

# gate kind -> the Tableau method applying it, by name, so that run()
# drives any tableau with Tableau's interface; a parity gate passes the
# parity of its control records as the method's mask
_METHODS = {"h": "h", "s": "s", "x": "x_gate", "z": "z_gate",
            "cnot": "cnot", "parity_x": "x_if", "parity_z": "z_if"}
_KINDS = (*_METHODS, "measure")


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
                if gate.kind == "measure":
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
                elif gate.controls:
                    parity = 0
                    for c in gate.controls:
                        parity = parity ^ records[c]
                    getattr(tab, _METHODS[gate.kind])(gate.qubits[0], parity)
                else:
                    getattr(tab, _METHODS[gate.kind])(*gate.qubits)
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

def _relay_block(chains, rec: int):
    """The teleportation block for relay chains run side by side.

    A chain is ``(source, hops)``, hop i the fresh qubit pair (a, b)
    whose b arrives where hop i+1 departs; the state lands on the last
    b.  Layers: create a Bell pair across every hop (H, then CNOT);
    Bell-measure the source with the first a and each arriving b with
    the next a (CNOT, H, measure the H side into one record and the
    CNOT target into the next, counting from ``rec``); finally apply X
    controlled by the parity of the chain's CNOT-target records and Z
    by that of its H-side records.  The layer count never depends on
    the hop count.  Returns the seven layers, the resets (X on each
    measured qubit controlled by its own record) and the next record.
    """
    pair_h, pair_cnot, bell_cnot, bell_h = [], [], [], []
    meas, resets, fix_x, fix_z = [], [], [], []
    for source, hops in chains:
        first = rec
        senders = [source] + [b for _, b in hops[:-1]]
        for (a, b), sender in zip(hops, senders):
            pair_h.append(Gate("h", (a,)))
            pair_cnot.append(Gate("cnot", (a, b)))
            bell_cnot.append(Gate("cnot", (sender, a)))
            bell_h.append(Gate("h", (sender,)))
            for q, r in ((sender, rec), (a, rec + 1)):
                meas.append(Gate("measure", (q,), record=r))
                resets.append(Gate("parity_x", (q,), controls=(r,)))
            rec += 2
        landed = hops[-1][1]
        fix_x.append(Gate("parity_x", (landed,),
                          controls=tuple(range(first + 1, rec, 2))))
        fix_z.append(Gate("parity_z", (landed,),
                          controls=tuple(range(first, rec, 2))))
    layers = [pair_h, pair_cnot, bell_cnot, bell_h, meas, fix_x, fix_z]
    return layers, resets, rec


def emit_teleport_circuit(d: int) -> CliffordCircuit:
    """Teleport qubit 0 to qubit 2d across d hops in 7 layers: the
    ``_relay_block`` that ``emit_circuit`` compiles every round to, for
    the one chain whose hop i (1-based) is the fresh pair (2i-1, 2i).
    X is controlled by the odd records, Z by the even ones."""
    if d < 1:
        raise ValueError("teleportation needs at least one hop")
    layers, _, records = _relay_block(
        [(0, [(2 * i - 1, 2 * i) for i in range(1, d + 1)])], 0)
    c = CliffordCircuit(num_qubits=1 + 2 * d, layers=layers,
                        num_records=records)
    c.validate()
    return c


def verify_teleportation(circuit: CliffordCircuit, d: int) -> bool:
    """True iff the circuit teleports qubit 0 to qubit 2d as the
    identity map on every branch tried.

    One batched run checks the map through its Choi state (Aaronson and
    Gottesman, quant-ph/0406196): a reference qubit, appended as qubit
    ``circuit.num_qubits``, starts Bell-paired with qubit 0, and must
    end Bell-paired with qubit 2d, stabilized by +X_ref X_2d and by
    +Z_ref Z_2d.  A state with both stabilizers holds that Bell pair in
    product with the other qubits, so the branch's map is the identity
    on every input, not only on the six Pauli eigenstates.
    Measurement outcomes are forced, one branch vector per sign column:
    every vector when there are at most 10 random measurements, else 20
    random vectors from seed 0.  ``circuit`` must be a d-hop chain on
    2d + 1 qubits.
    """
    if d < 1 or circuit.num_qubits != 2 * d + 1:
        raise ValueError(f"a relay chain of d >= 1 hops has 2d + 1 qubits; "
                         f"got d = {d} and {circuit.num_qubits} qubits")
    bits = 2 * d
    if bits <= 10:
        vectors = np.array(list(itertools.product((0, 1), repeat=bits)),
                           dtype=np.uint8).T
    else:
        rng = random.Random(0)
        vectors = np.array([[rng.randrange(2) for _ in range(20)]
                            for _ in range(bits)], dtype=np.uint8)
    ref = circuit.num_qubits
    tab = Tableau(ref + 1, batch=vectors.shape[1])
    tab.h(ref)
    tab.cnot(ref, 0)
    tab, _ = circuit.run(tab, forced=vectors)
    for pauli in ("XX", "ZZ"):
        got = tab.stabilized_sign((ref, 2 * d), pauli)
        if got is None or not np.all(got == 1):
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
    vertex v; swaps become 3 CNOTs.  A timestep's teleportation rounds
    become one ``_relay_block`` with a chain per transfer (one each way
    for a "swap" transfer) over ancilla slots allocated along its path,
    its resets as a layer between measurements and corrections, then a
    local swap of each delivered state into its destination's data
    slot: 11 layers."""
    width = 1 + g.ancilla_budget
    c = CliffordCircuit(num_qubits=g.n * width)

    def slot(v: int, s: int) -> int:
        return v * width + s

    state = TokenState(g)
    for t, step in enumerate(schedule.timesteps):
        swap_pairs: list[tuple[int, int]] = []
        rounds: list[TeleRound] = []
        if type(step) is SwapLayer:
            swap_pairs = [(slot(u, 0), slot(v, 0))
                          for u, v in zip(step.us, step.vs)]
        else:
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

    chains, deliver = [], []
    for rnd in rounds:
        verts, offsets = rnd.verts, rnd.offsets
        for a, b, kind in zip(offsets, offsets[1:], rnd.kinds):
            path = verts[a:b]
            for leg in (path,) if kind == "move" else (path, path[::-1]):
                hops = [(take(u), take(v)) for u, v in zip(leg, leg[1:])]
                chains.append((slot(leg[0], 0), hops))
                deliver.append((hops[-1][1], slot(leg[-1], 0)))
    block, resets, c.num_records = _relay_block(chains, c.num_records)
    c.layers.extend(block[:5])
    c.layers.append(resets)
    c.layers.extend(block[5:])
    c.layers.extend(_swap_layers(deliver))
