"""Tableau simulator: gate algebra, measurement, and self-checks."""

import random

import numpy as np
import pytest

from teleroute.stabilizer import _G, Tableau


def random_tableau(q, seed, gates=60):
    """A tableau scrambled by a seeded random Clifford circuit."""
    rng = random.Random(seed)
    t = Tableau(q)
    for _ in range(gates):
        kind = rng.choice(("h", "s", "cnot"))
        if kind == "cnot":
            a, b = rng.sample(range(q), 2)
            t.cnot(a, b)
        else:
            getattr(t, kind)(rng.randrange(q))
    return t


def snapshot(t):
    return tuple(part.copy() for part in t.row_view())


def same_state(t, snap):
    return all(np.array_equal(now, then)
               for now, then in zip(t.row_view(), snap))


PAULIS = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
          (0, 1): np.diag([1, -1]), (1, 1): np.array([[0, -1j], [1j, 0]])}


def test_phase_table_matches_pauli_matrices():
    # P1 P2 = i^g P3 with P3 the Pauli of the XORed bits.  A rowsum only
    # ever needs g mod 4 summed over commuting rows, which is even and
    # blind to g's sign, so the table is checked here directly.
    for (x1, z1), p1 in PAULIS.items():
        for (x2, z2), p2 in PAULIS.items():
            p3 = PAULIS[x1 ^ x2, z1 ^ z2]
            g = int(_G[8 * x1 + 4 * z1 + 2 * x2 + z2])
            assert np.allclose(p1 @ p2, 1j ** g * p3)


def test_construction_errors():
    with pytest.raises(ValueError):
        Tableau(0)
    with pytest.raises(ValueError):
        Tableau(3, batch=0)
    t = Tableau(2)
    with pytest.raises(ValueError):
        t.h(2)
    with pytest.raises(ValueError):
        t.cnot(1, 1)


def test_fresh_state_measures_zero():
    t = Tableau(3)
    assert not t.is_random(1)
    assert t.measure(1) == 0
    assert t.stabilized_sign(0) == 1


def test_pauli_eigenstates():
    t = Tableau(1)
    t.x_gate(0)
    assert t.stabilized_sign(0, "Z") == -1
    assert t.measure(0) == 1

    t = Tableau(1)
    t.h(0)
    assert t.stabilized_sign(0, "X") == 1
    assert t.stabilized_sign(0, "Z") is None
    t.z_gate(0)
    assert t.stabilized_sign(0, "X") == -1

    t = Tableau(1)
    t.h(0)
    t.s(0)
    assert t.stabilized_sign(0, "Y") == 1
    t.z_gate(0)
    assert t.stabilized_sign(0, "Y") == -1


def test_bell_pair_correlations():
    for forced in (0, 1):
        t = Tableau(2)
        t.h(0)
        t.cnot(0, 1)
        assert t.is_random(0) and t.is_random(1)
        assert t.measure(0, outcome=forced) == forced
        assert not t.is_random(1)
        assert t.measure(1) == forced


def test_ghz_outcomes_agree():
    t = Tableau(3)
    t.h(0)
    t.cnot(0, 1)
    t.cnot(0, 2)
    t.check_invariants()
    assert t.measure(0, outcome=1) == 1
    assert t.measure(1) == 1
    assert t.measure(2) == 1


def test_gate_involutions_on_random_tableaus():
    for seed in range(4):
        t = random_tableau(5, seed)
        before = snapshot(t)
        t.h(2)
        t.h(2)
        assert same_state(t, before)
        t.cnot(0, 3)
        t.cnot(0, 3)
        assert same_state(t, before)
        t.x_gate(1)
        t.x_gate(1)
        assert same_state(t, before)
        for _ in range(4):
            t.s(4)
        assert same_state(t, before)


def test_invariants_hold_through_random_circuits():
    for seed in range(3):
        rng = random.Random(seed)
        t = Tableau(6)
        for _ in range(120):
            kind = rng.choice(("h", "s", "cnot", "x", "z", "m"))
            if kind == "cnot":
                t.cnot(*rng.sample(range(6), 2))
            elif kind == "m":
                t.measure(rng.randrange(6), rng=rng)
            elif kind in ("x", "z"):
                getattr(t, kind + "_gate")(rng.randrange(6))
            else:
                getattr(t, kind)(rng.randrange(6))
            t.check_invariants()


def test_determined_measurement_is_repeatable():
    for seed in range(4):
        t = random_tableau(4, seed)
        rng = random.Random(seed + 100)
        first = t.measure(2, rng=rng)
        before = snapshot(t)
        assert t.measure(2) == first
        assert same_state(t, before)


def test_measurement_collapse():
    t = Tableau(2)
    t.h(0)
    t.cnot(0, 1)
    t.measure(0, outcome=1)
    assert not t.is_random(0) and not t.is_random(1)
    assert t.stabilized_sign(0) == -1
    assert t.stabilized_sign(1) == -1


def test_forced_contradiction_rejected():
    t = Tableau(1)
    with pytest.raises(ValueError, match="contradicts"):
        t.measure(0, outcome=1)


def test_seeded_rng_reproducible():
    outs1 = []
    outs2 = []
    for outs, seed in ((outs1, 9), (outs2, 9)):
        t = Tableau(3)
        rng = random.Random(seed)
        for q in range(3):
            t.h(q)
        for q in range(3):
            outs.append(t.measure(q, rng=rng))
    assert outs1 == outs2


def test_copy_is_independent():
    t = random_tableau(4, 1)
    c = t.copy()
    before = snapshot(t)
    c.h(0)
    c.measure(1, rng=random.Random(0))
    assert same_state(t, before)


def test_batched_signs_follow_branches():
    t = Tableau(2, batch=4)
    t.h(0)
    t.cnot(0, 1)
    out = t.measure(0, outcome=[0, 1, 0, 1])
    assert list(out) == [0, 1, 0, 1]
    # partner qubit is now determined per branch
    assert list(t.measure(1)) == [0, 1, 0, 1]
    signs = t.stabilized_sign(1)
    assert list(signs) == [1, -1, 1, -1]


def test_batched_masked_flip():
    t = Tableau(1, batch=3)
    t.x_if(0, [1, 0, 1])
    assert list(t.stabilized_sign(0)) == [-1, 1, -1]
    t.z_if(0, [1, 1, 0])  # Z on |0>/|1> leaves Z-sign alone
    assert list(t.stabilized_sign(0)) == [-1, 1, -1]


def test_batched_determined_contradiction():
    t = Tableau(1, batch=2)
    t.x_if(0, [0, 1])
    with pytest.raises(ValueError, match="contradicts"):
        t.measure(0, outcome=[0, 0])
    assert list(t.measure(0, outcome=[0, 1])) == [0, 1]


def test_invariants_catch_corruption():
    t = Tableau(3)
    before = snapshot(t)
    for part in t.row_view():
        part ^= 1  # row_view returns copies
    assert same_state(t, before)
    t.check_invariants()
    for a in range(3):
        t._x[a] ^= 1 << 3  # clobber a stabilizer row in the bitsets
    t._s[3] = 0b111        # with a support that covers it
    with pytest.raises(AssertionError, match="commutation"):
        t.check_invariants()
    t = Tableau(3)
    t._s[4] = 0  # a support that misses its row's qubit
    with pytest.raises(AssertionError, match="support"):
        t.check_invariants()


def test_row_view_is_row_major():
    t = Tableau(3, batch=2)
    t.h(1)
    t.x_if(2, [0, 1])
    x, z, r = t.row_view()
    assert x.shape == z.shape == (6, 3) and r.shape == (6, 2)
    # destabilizer 1 became Z_1, stabilizer 1 became X_1
    assert list(x[1]) == [0, 0, 0] and list(z[1]) == [0, 1, 0]
    assert list(x[4]) == [0, 1, 0] and list(z[4]) == [0, 0, 0]
    assert list(r[5]) == [0, 1]


def test_stabilized_sign_leaves_state_untouched():
    for seed in range(4):
        rng = random.Random(seed)
        t = random_tableau(5, seed)
        for _ in range(3):
            t.measure(rng.randrange(5), rng=rng)
        for a in range(5):
            for pauli in "XYZ":
                before = snapshot(t)
                t.stabilized_sign(a, pauli)
                assert same_state(t, before)


def test_stabilized_sign_of_each_pauli_on_a_bell_pair():
    # (|00> + |11>)/sqrt2 is stabilized by XX, -YY and ZZ: after Z_0 is
    # measured, qubit 1 is a Z eigenstate and X/Y on it are random
    t = Tableau(2)
    t.h(0)
    t.cnot(0, 1)
    assert [t.stabilized_sign(1, p) for p in "XYZ"] == [None] * 3
    t.measure(0, outcome=1)
    assert [t.stabilized_sign(1, p) for p in "XYZ"] == [None, None, -1]
    t.h(1)
    t.s(1)
    assert [t.stabilized_sign(1, p) for p in "XYZ"] == [None, -1, None]


@pytest.mark.parametrize("bad", [2, -1, 256, np.int8(-1), 1.0, "1", [0, 1],
                                 [[1]], 2**70])
def test_out_of_range_masks_rejected(bad):
    t = Tableau(2)
    t.h(0)
    before = snapshot(t)
    for op in (t.x_if, t.z_if):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            op(0, bad)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        t.measure(0, outcome=bad)
    assert same_state(t, before)


@pytest.mark.parametrize("bad", [[0, 1], [0, 1, 2, 0], [0, 1, -1],
                                 [0, 1, 256], [1, 0, -255],
                                 np.array([1, 0, 3], dtype=np.uint8)])
def test_out_of_range_per_column_values_rejected(bad):
    t = Tableau(2, batch=3)
    t.h(0)
    for op in (t.x_if, t.z_if):
        with pytest.raises(ValueError, match="one value per sign column"):
            op(0, bad)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        t.measure(0, outcome=bad)
    # a determined measurement checks the outcome before comparing it
    with pytest.raises(ValueError, match="must be 0 or 1"):
        t.measure(1, outcome=bad)


def test_valid_masks_of_every_integer_kind():
    t = Tableau(1, batch=3)
    t.x_if(0, True)
    t.x_if(0, np.uint8(1))
    t.x_if(0, np.array([1, 0, 1], dtype=np.int64))
    t.z_if(0, [False, True, False])
    assert list(t.measure(0, outcome=np.array([1, 0, 1]))) == [1, 0, 1]
