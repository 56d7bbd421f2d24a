"""The one-run Choi check of ``verify_teleportation`` against the
six-eigenstate check it replaced.

The reference below is how the library first verified a relay chain:
prepare each of the six Pauli eigenstates on qubit 0, run the circuit
on every branch vector, and require the destination to carry the same
signed Pauli every time.  The library now runs the circuit once, with a
reference qubit Bell-paired to the source, and asks for the Bell pair
between the reference and the destination.  Both must agree on the
chains d = 1..5, where every branch is tried, and on broken chains.
"""

import itertools
import random

import numpy as np
import pytest

from teleroute.stabilizer import Tableau
from teleroute.teleport_circuit import (
    Gate,
    emit_teleport_circuit,
    verify_teleportation,
)

# ---------------------------------------------------------------------------
# the six-eigenstate reference (frozen; do not optimize)
# ---------------------------------------------------------------------------

_PREPS = (
    ("Z", 1, ()),
    ("Z", -1, ("x_gate",)),
    ("X", 1, ("h",)),
    ("X", -1, ("h", "z_gate")),
    ("Y", 1, ("h", "s")),
    ("Y", -1, ("h", "s", "z_gate")),
)


def ref_verify_teleportation(circuit, d):
    bits = 2 * d
    if bits <= 10:
        vectors = np.array(list(itertools.product((0, 1), repeat=bits)),
                           dtype=np.uint8).T
    else:
        rng = random.Random(0)
        vectors = np.array([[rng.randrange(2) for _ in range(20)]
                            for _ in range(bits)], dtype=np.uint8)
    for pauli, sign, prep in _PREPS:
        tab = Tableau(circuit.num_qubits, batch=vectors.shape[1])
        for kind in prep:
            getattr(tab, kind)(0)
        tab, _ = circuit.run(tab, forced=vectors)
        got = tab.stabilized_sign(2 * d, pauli)
        if got is None or not np.all(got == sign):
            return False
    return True


# ---------------------------------------------------------------------------
# broken chains
# ---------------------------------------------------------------------------

FIX_X, FIX_Z = 5, 6   # layer indices of the two corrections


def no_z_fix(c, d):
    c.layers = c.layers[:FIX_Z]


def no_x_fix(c, d):
    c.layers = c.layers[:FIX_X] + c.layers[FIX_Z:]


def crosswired(c, d):
    px, pz = c.layers[FIX_X][0], c.layers[FIX_Z][0]
    c.layers[FIX_X] = [Gate("parity_x", px.qubits, controls=pz.controls)]
    c.layers[FIX_Z] = [Gate("parity_z", pz.qubits, controls=px.controls)]


def gate_before_fixes(kind):
    def mutate(c, d):
        c.layers.insert(FIX_X, [Gate(kind, (2 * d,))])
    mutate.__name__ = f"{kind}_before_fixes"
    return mutate


def x_controls_shifted(c, d):
    px = c.layers[FIX_X][0]
    c.layers[FIX_X] = [Gate("parity_x", px.qubits,
                            controls=tuple(r - 1 for r in px.controls))]


def destination_pair_unmade(c, d):
    # the hop into the destination never gets its H, so no Bell pair
    c.layers[0] = [g for g in c.layers[0] if g.qubits != (2 * d - 1,)]


MUTANTS = (no_z_fix, no_x_fix, crosswired, gate_before_fixes("h"),
           gate_before_fixes("s"), x_controls_shifted,
           destination_pair_unmade)


@pytest.mark.parametrize("d", range(1, 6))
def test_intact_chains_agree(d):
    c = emit_teleport_circuit(d)
    assert verify_teleportation(c, d) is True
    assert ref_verify_teleportation(c, d) is True


@pytest.mark.parametrize("mutate", MUTANTS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("d", (1, 2, 3, 5, 7))
def test_broken_chains_agree(mutate, d):
    c = emit_teleport_circuit(d)
    mutate(c, d)
    c.validate()
    assert ref_verify_teleportation(c, d) is False
    assert verify_teleportation(c, d) is False


def test_long_chains_verify():
    for d in (6, 16, 64, 128):
        assert verify_teleportation(emit_teleport_circuit(d), d) is True


@pytest.mark.parametrize("d", (0, -1, 1, 3))
def test_wrong_chain_length_raises_one_line(d):
    c = emit_teleport_circuit(2)
    with pytest.raises(ValueError) as err:
        verify_teleportation(c, d)
    msg = str(err.value)
    assert "\n" not in msg
    assert f"d = {d}" in msg and "5 qubits" in msg
