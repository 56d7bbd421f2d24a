"""Multi-qubit ``Tableau.stabilized_sign`` against a dense state vector.

The reference keeps all 2^q amplitudes (q <= 4), one axis per qubit,
and applies every gate as a matrix.  A stabilizer state's expectation
of a Pauli string is +1, -1 or 0: +-1 means the string (or its
negative) stabilizes the state, 0 that measuring it would be random.
Hypothesis draws H/S/CNOT/measure programs; after each one, every
string on one to three distinct qubits must give the same answer from
the tableau (batch 1) as from the state vector.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute.stabilizer import Tableau

PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.diag([1, -1]).astype(complex)}
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j])


# ---------------------------------------------------------------------------
# the dense reference (frozen; do not optimize)
# ---------------------------------------------------------------------------

def apply1(psi, u, a):
    return np.moveaxis(np.tensordot(u, psi, axes=([1], [a])), 0, a)


def apply_cnot(psi, a, b):
    psi = psi.copy()
    on = [slice(None)] * psi.ndim
    on[a] = 1
    sub = psi[tuple(on)]
    psi[tuple(on)] = np.flip(sub, axis=b if b < a else b - 1)
    return psi


def project(psi, a, outcome):
    """Collapse qubit ``a`` onto ``outcome``; the outcome's probability
    must be nonzero."""
    keep = [slice(None)] * psi.ndim
    keep[a] = outcome
    out = np.zeros_like(psi)
    out[tuple(keep)] = psi[tuple(keep)]
    norm = np.linalg.norm(out)
    assert norm > 1e-9, "the tableau chose an impossible outcome"
    return out / norm


def expectation(psi, qubits, letters):
    phi = psi
    for a, p in zip(qubits, letters):
        phi = apply1(phi, PAULI[p], a)
    return np.vdot(psi, phi)


def dense_sign(psi, qubits, letters):
    e = expectation(psi, qubits, letters)
    assert abs(e.imag) < 1e-9
    if abs(e.real) < 1e-9:
        return None
    assert abs(abs(e.real) - 1) < 1e-9, "not a stabilizer state"
    return 1 if e.real > 0 else -1


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------

@st.composite
def programs(draw):
    q = draw(st.integers(1, 4))
    qubit = st.integers(0, q - 1)
    gates = [st.tuples(st.just("h"), qubit), st.tuples(st.just("s"), qubit),
             st.tuples(st.just("measure"), qubit, st.integers(0, 1))]
    if q > 1:
        gates.append(st.tuples(st.just("cnot"), qubit, qubit)
                     .filter(lambda op: op[1] != op[2]))
    return q, draw(st.lists(st.one_of(gates), max_size=30))


def strings(q):
    """Every X/Y/Z string on one to three distinct qubits of ``q``."""
    for k in range(1, min(q, 3) + 1):
        for qubits in itertools.combinations(range(q), k):
            for letters in itertools.product("XYZ", repeat=k):
                yield qubits, "".join(letters)


@settings(max_examples=120, deadline=None)
@given(programs())
def test_pauli_strings_match_state_vector(program):
    q, ops = program
    t = Tableau(q)
    psi = np.zeros((2,) * q, dtype=complex)
    psi[(0,) * q] = 1
    for op in ops:
        kind, a = op[0], op[1]
        if kind == "h":
            t.h(a)
            psi = apply1(psi, H, a)
        elif kind == "s":
            t.s(a)
            psi = apply1(psi, S, a)
        elif kind == "cnot":
            t.cnot(a, op[2])
            psi = apply_cnot(psi, a, op[2])
        else:
            out = t.measure(a, outcome=op[2] if t.is_random(a) else None)
            psi = project(psi, a, out)
    for qubits, letters in strings(q):
        want = dense_sign(psi, qubits, letters)
        got = t.stabilized_sign(qubits, letters)
        assert got == want, (qubits, letters)
        assert type(got) is (int if want is not None else type(None))
        # the order the qubits are named in does not matter
        assert t.stabilized_sign(qubits[::-1], letters[::-1]) == want
        if len(qubits) == 1:
            assert t.stabilized_sign(qubits[0], letters) == want


def test_bell_pair_strings():
    t = Tableau(3)
    t.h(0)
    t.cnot(0, 2)
    assert t.stabilized_sign((0, 2), "XX") == 1
    assert t.stabilized_sign((0, 2), "ZZ") == 1
    assert t.stabilized_sign((0, 2), "YY") == -1
    assert t.stabilized_sign((0, 2), "XZ") is None
    assert t.stabilized_sign((0, 1, 2), "XZX") == 1
    t.z_gate(2)
    assert t.stabilized_sign((2, 0), "XX") == -1
    assert t.stabilized_sign((0, 2), "ZZ") == 1


def test_batched_strings_follow_branches():
    t = Tableau(2, batch=3)
    t.h(0)
    t.cnot(0, 1)
    t.z_if(1, np.array([1, 0, 1], dtype=np.uint8))
    assert list(t.stabilized_sign((0, 1), "XX")) == [-1, 1, -1]
    assert list(t.stabilized_sign((0, 1), "ZZ")) == [1, 1, 1]


@pytest.mark.parametrize("qubits, pauli, match", [
    ((0, 1), "X", r"2 qubits \(0, 1\) but 1 Pauli letters 'X'"),
    ((0,), "XZ", r"1 qubits \(0,\) but 2 Pauli letters 'XZ'"),
    ((), "", "at least one qubit"),
    ((1, 1), "XX", r"repeated qubit in \(1, 1\)"),
    ((0, 1), "XW", "unknown Pauli 'W'"),
    ((0, 1), "xz", "unknown Pauli 'x'"),
    ((0, 3), "XX", "qubit 3 out of range"),
    ((-1, 0), "ZZ", "qubit -1 out of range"),
    (0, "XY", "unknown Pauli 'XY'"),
    (3, "Z", "qubit 3 out of range"),
])
def test_bad_strings_raise_one_line(qubits, pauli, match):
    t = Tableau(3)
    with pytest.raises(ValueError, match=match) as err:
        t.stabilized_sign(qubits, pauli)
    assert "\n" not in str(err.value)
