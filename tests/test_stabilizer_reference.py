"""The bitset tableau against the frozen row-major one.

The reference below is how the library first simulated stabilizer
circuits: X and Z bits stored row-major, every gate a strided column
update, a random measurement's rowsum over all q qubits and a
determined measurement built in a scratch row by one rowsum per flagged
stabilizer.  The library now keeps each qubit's X and Z bits of all
rows as one Python int, with a support superset per row: a rowsum
visits the pivot's support only, and a determined outcome is one
product formula of popcounts.  Both must return the same outcome for
every measurement, draw from a seeded rng in the same order, end in
the same (x, z, r) state and agree on ``stabilized_sign`` for X, Y and
Z on every qubit.

Random gate sequences cover q = 1..12 with one and three sign columns,
random and determined measurements, forced outcomes (scalar and per
column) and seeded draws; the same sequences check the tableau's
invariants, supports included, after every measurement.  Compiled
circuits pin the records of ``emit_circuit(...).run()`` on grid 3x3
and path 8, compare measurement-heavy teleport circuits on 112..196
qubits, whose rowsums reuse rows that earlier ones widened, and run
the relay teleportation blocks for d = 1..6 over the batches
``verify_teleportation`` uses.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleroute.graphs import generate_graph, generate_permutation
from teleroute.stabilizer import Tableau
from teleroute.swap_routing import route_generic
from teleroute.tele_routing import teleport_schedule
from teleroute.teleport_circuit import (
    emit_circuit,
    emit_teleport_circuit,
    verify_teleportation,
)


# ---------------------------------------------------------------------------
# the reference tableau (frozen; do not optimize)
# ---------------------------------------------------------------------------

class RefTableau:
    def __init__(self, q, batch=1):
        self.q = q
        self.batch = batch
        rows = 2 * q + 1
        self.x = np.zeros((rows, q), dtype=np.uint8)
        self.z = np.zeros((rows, q), dtype=np.uint8)
        self.r = np.zeros((rows, batch), dtype=np.uint8)
        idx = np.arange(q)
        self.x[idx, idx] = 1
        self.z[q + idx, idx] = 1

    def copy(self):
        other = object.__new__(RefTableau)
        other.q = self.q
        other.batch = self.batch
        other.x = self.x.copy()
        other.z = self.z.copy()
        other.r = self.r.copy()
        return other

    def _out(self, vec):
        return int(vec[0]) if self.batch == 1 else vec.copy()

    def h(self, a):
        self.r ^= (self.x[:, a] & self.z[:, a])[:, None]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def s(self, a):
        self.r ^= (self.x[:, a] & self.z[:, a])[:, None]
        self.z[:, a] ^= self.x[:, a]

    def cnot(self, a, b):
        self.r ^= (self.x[:, a] & self.z[:, b]
                   & (self.x[:, b] ^ self.z[:, a] ^ 1))[:, None]
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def x_if(self, a, m):
        self.r ^= self.z[:, a][:, None] & np.asarray(m, dtype=np.uint8)

    def z_if(self, a, m):
        self.r ^= self.x[:, a][:, None] & np.asarray(m, dtype=np.uint8)

    def x_gate(self, a):
        self.x_if(a, 1)

    def z_gate(self, a):
        self.z_if(a, 1)

    def _phase_exponents(self, src, rows):
        x1 = self.x[src].astype(np.int16)
        z1 = self.z[src].astype(np.int16)
        x2 = self.x[rows].astype(np.int16)
        z2 = self.z[rows].astype(np.int16)
        g = (x1 * z1 * (z2 - x2)
             + x1 * (1 - z1) * (z2 * (2 * x2 - 1))
             + (1 - x1) * z1 * (x2 * (1 - 2 * z2)))
        return g.sum(axis=1)

    def _accumulate(self, rows, src):
        rows = np.asarray(rows)
        g = np.mod(self._phase_exponents(src, rows), 4)
        if np.any((g & 1) & (rows >= self.q)):
            raise AssertionError("tableau rows produced an imaginary sign")
        self.r[rows] ^= self.r[src][None, :] ^ (g // 2).astype(np.uint8)[:, None]
        self.x[rows] ^= self.x[src]
        self.z[rows] ^= self.z[src]

    def is_random(self, a):
        return bool(self.x[self.q:2 * self.q, a].any())

    def measure(self, a, outcome=None, rng=None):
        q = self.q
        stab = self.x[q:2 * q, a].nonzero()[0]
        if stab.size == 0:
            scratch = 2 * q
            self.x[scratch] = 0
            self.z[scratch] = 0
            self.r[scratch] = 0
            for i in self.x[:q, a].nonzero()[0]:
                self._accumulate(np.array([scratch]), q + i)
            out = self.r[scratch]
            if outcome is not None and np.any(
                    np.asarray(outcome, dtype=np.uint8) != out):
                raise ValueError(
                    f"forced outcome contradicts the determined "
                    f"measurement of qubit {a}")
            return self._out(out)
        p = q + int(stab[0])
        if outcome is not None:
            out = np.broadcast_to(
                np.asarray(outcome, dtype=np.uint8), (self.batch,))
        elif rng is not None:
            out = np.array([rng.randrange(2) for _ in range(self.batch)],
                           dtype=np.uint8)
        else:
            out = np.zeros(self.batch, dtype=np.uint8)
        others = self.x[:2 * q, a].nonzero()[0]
        others = others[others != p]
        if others.size:
            self._accumulate(others, p)
        self.x[p - q] = self.x[p]
        self.z[p - q] = self.z[p]
        self.r[p - q] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, a] = 1
        self.r[p] = out
        return self._out(out)

    def stabilized_sign(self, a, pauli="Z"):
        t = self.copy()
        if pauli == "X":
            t.h(a)
        elif pauli == "Y":
            t.s(a)
            t.s(a)
            t.s(a)
            t.h(a)
        if t.is_random(a):
            return None
        out = t.measure(a)
        if self.batch == 1:
            return -1 if out else 1
        return 1 - 2 * out.astype(np.int8)


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def assert_same_state(t, ref):
    k = 2 * t.q
    x, z, r = t.row_view()
    assert np.array_equal(x, ref.x[:k])
    assert np.array_equal(z, ref.z[:k])
    assert np.array_equal(r, ref.r[:k])


def assert_same_value(got, want):
    if want is None or isinstance(want, int):
        assert got == want
    else:
        assert np.array_equal(got, want)


def assert_same_signs(t, ref):
    for a in range(t.q):
        for pauli in "XYZ":
            assert_same_value(t.stabilized_sign(a, pauli),
                              ref.stabilized_sign(a, pauli))


# ---------------------------------------------------------------------------
# random gate sequences
# ---------------------------------------------------------------------------

@st.composite
def programs(draw):
    q = draw(st.integers(1, 12))
    batch = draw(st.sampled_from((1, 3)))
    qubit = st.integers(0, q - 1)
    bit = st.integers(0, 1)
    column_bits = st.lists(bit, min_size=batch, max_size=batch)
    gates = [st.tuples(st.just("h"), qubit), st.tuples(st.just("s"), qubit),
             st.tuples(st.just("x_if"), qubit, st.one_of(bit, column_bits)),
             st.tuples(st.just("z_if"), qubit, st.one_of(bit, column_bits)),
             st.tuples(st.just("measure"), qubit,
                       st.one_of(st.none(), bit, column_bits))]
    if q > 1:
        gates.append(st.tuples(st.just("cnot"), qubit, qubit)
                     .filter(lambda op: op[1] != op[2]))
    ops = draw(st.lists(st.one_of(gates), max_size=80))
    seed = draw(st.integers(0, 2**16))
    return q, batch, ops, seed


@settings(max_examples=300, deadline=None)
@given(programs())
def test_random_programs_match_reference(program):
    q, batch, ops, seed = program
    t, ref = Tableau(q, batch), RefTableau(q, batch)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for op in ops:
        kind = op[0]
        if kind == "measure":
            a, forced = op[1], op[2]
            assert t.is_random(a) == ref.is_random(a)
            if forced is None:
                assert_same_value(t.measure(a, rng=rng),
                                  ref.measure(a, rng=ref_rng))
                continue
            try:
                want = ref.measure(a, outcome=forced)
            except ValueError:
                with pytest.raises(ValueError, match="contradicts"):
                    t.measure(a, outcome=forced)
            else:
                assert_same_value(t.measure(a, outcome=forced), want)
        else:
            getattr(t, kind)(*op[1:])
            getattr(ref, kind)(*op[1:])
    assert_same_state(t, ref)
    assert_same_signs(t, ref)
    assert_same_state(t, ref)
    t.check_invariants()


@settings(max_examples=150, deadline=None)
@given(programs())
def test_invariants_hold_after_every_measurement(program):
    # kept supports only grow between resets, so check that they still
    # cover every row, along with the commutation structure
    q, batch, ops, seed = program
    t = Tableau(q, batch)
    rng = random.Random(seed)
    for kind, *args in ops:
        if kind != "measure":
            getattr(t, kind)(*args)
            continue
        a, forced = args
        try:
            t.measure(a, outcome=forced, rng=rng)
        except ValueError:
            assert forced is not None and not t.is_random(a)
        t.check_invariants()


def test_determined_products_of_many_stabilizers():
    # GHZ-like states make a determined measurement multiply many
    # stabilizers, with Y factors that exercise the product's phase
    for q, seed in itertools.product((5, 9, 12), range(6)):
        rng = random.Random(seed)
        t, ref = Tableau(q), RefTableau(q)
        for tab in (t, ref):
            tab.h(0)
            for b in range(1, q):
                tab.cnot(0, b)
        for _ in range(40):
            a, b = rng.sample(range(q), 2)
            kind = rng.choice(("h", "s", "cnot"))
            args = (a, b) if kind == "cnot" else (a,)
            getattr(t, kind)(*args)
            getattr(ref, kind)(*args)
        draws, ref_draws = random.Random(seed), random.Random(seed)
        for a in rng.sample(range(q), q):
            assert_same_value(t.measure(a, rng=draws),
                              ref.measure(a, rng=ref_draws))
            assert_same_state(t, ref)
        assert_same_signs(t, ref)


# ---------------------------------------------------------------------------
# compiled circuits
# ---------------------------------------------------------------------------

# records of emit_circuit(g, teleport_schedule(g, pi)).run(), random pi
# with seed 1, as the row-major tableau gave them
PINNED_RECORDS = {
    "grid": "1101111110010010100110111011100010110100",
    "path": "1101111110010010100110111011100010110100000100110110",
}

GRAPHS = {"grid": dict(n=3, d=2), "path": dict(n=8)}


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("model", ("teleport", "swap"))
def test_schedule_circuits_match_reference(family, model):
    g = generate_graph(family, **GRAPHS[family])
    pi = generate_permutation("random", g, seed=1)
    sched = (teleport_schedule(g, pi) if model == "teleport"
             else route_generic(g, pi))
    c = emit_circuit(g, sched)
    _, records = c.run()
    want = PINNED_RECORDS[family] if model == "teleport" else ""
    assert "".join(map(str, records)) == want

    # a nontrivial input: some data qubits flipped, some in |+>
    width = 1 + g.ancilla_budget
    t, ref = Tableau(c.num_qubits), RefTableau(c.num_qubits)
    for tab in (t, ref):
        for v in (0, 2, 5):
            tab.x_gate(v * width)
        for v in (1, 4):
            tab.h(v * width)
    t, records = c.run(t, rng=random.Random(3))
    ref, ref_records = c.run(ref, rng=random.Random(3))
    assert records == ref_records
    assert_same_state(t, ref)
    for v in range(g.n):
        for pauli in "XZ":
            assert_same_value(t.stabilized_sign(v * width, pauli),
                              ref.stabilized_sign(v * width, pauli))


# teleport schedules whose circuits measure 76..520 times on 112..196
# qubits; a nontrivial input makes the signs matter
LARGE = [("path", dict(n=16), 1), ("path", dict(n=24), 2),
         ("path", dict(n=28), 3), ("grid", dict(n=4, d=2), 1),
         ("grid", dict(n=4, d=2), 2)]


@pytest.mark.parametrize("family, params, seed", LARGE)
def test_large_teleport_circuits_match_reference(family, params, seed):
    g = generate_graph(family, **params)
    pi = generate_permutation("random", g, seed=seed)
    c = emit_circuit(g, teleport_schedule(g, pi))
    width = 1 + g.ancilla_budget
    t, ref = Tableau(c.num_qubits), RefTableau(c.num_qubits)
    for tab in (t, ref):
        for v in range(0, g.n, 3):
            tab.h(v * width)
        for v in range(1, g.n, 3):
            tab.x_gate(v * width)
    t, records = c.run(t, rng=random.Random(seed))
    ref, ref_records = c.run(ref, rng=random.Random(seed))
    assert records == ref_records
    assert_same_state(t, ref)
    t.check_invariants()
    for v in range(g.n):
        for pauli in "XZ":
            assert_same_value(t.stabilized_sign(v * width, pauli),
                              ref.stabilized_sign(v * width, pauli))


PREPS = ((), ("x_gate",), ("h",), ("h", "z_gate"), ("h", "s"),
         ("h", "s", "z_gate"))


@pytest.mark.parametrize("d", range(1, 7))
def test_relay_teleportation_matches_reference(d):
    c = emit_teleport_circuit(d)
    assert verify_teleportation(c, d)
    bits = 2 * d
    if bits <= 10:
        vectors = np.array(list(itertools.product((0, 1), repeat=bits)),
                           dtype=np.uint8).T
    else:
        rng = random.Random(0)
        vectors = np.array([[rng.randrange(2) for _ in range(20)]
                            for _ in range(bits)], dtype=np.uint8)
    for prep in PREPS:
        t = Tableau(c.num_qubits, batch=vectors.shape[1])
        ref = RefTableau(c.num_qubits, batch=vectors.shape[1])
        for tab in (t, ref):
            for gate in prep:
                getattr(tab, gate)(0)
        t, records = c.run(t, forced=vectors)
        ref, ref_records = c.run(ref, forced=vectors)
        for got, want in zip(records, ref_records):
            assert np.array_equal(got, want)
        assert_same_state(t, ref)
        assert_same_signs(t, ref)
