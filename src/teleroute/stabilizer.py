"""Stabilizer tableau simulator for Clifford circuits.

The tableau of Aaronson and Gottesman (quant-ph/0406196) with sign
tracking: rows 0..q-1 hold the destabilizers and rows q..2q-1 the
stabilizer generators, each a signed Pauli string.  Supports H, S,
CNOT, X, Z, and Z-basis measurement with seeded or forced outcome
selection, which is all that routing-circuit verification needs.

The bits are stored qubit-major, as Stim stores them (Gidney,
arXiv:2103.02202): ``_x[a]`` and ``_z[a]`` are qubit ``a``'s X and Z
bits of all 2q rows, one uint8 per bit, contiguous; ``_r[i]`` holds row
i's sign in every column.  ``row_view`` gives the usual row-major
picture.  What each operation costs:

* a gate is a few operations on the contiguous rows of its one or two
  qubits, O(q) bytes each, plus the sign update;
* a random measurement gathers the pivot stabilizer's row and writes
  it over its destabilizer (one strided pass over q bytes each), and
  multiplies it into the k rows that anticommute with Z_a.  Where the
  pivot has identity those rows are unchanged and gain no phase, so the
  rowsum works on the |support| x k submatrix only, with a 16-entry
  table of the phase function g;
* a determined measurement, or ``stabilized_sign``, multiplies the k
  stabilizers flagged by the destabilizers in one vectorized product
  over a q x k gather.  It needs no scratch row and leaves the tableau
  untouched.  A Pauli string on several qubits flags the XOR of their
  anticommuting rows and costs the same product.

The X/Z bit matrices evolve independently of measurement outcomes;
only the sign column depends on them.  A tableau therefore carries a
``batch`` of sign columns sharing one bit matrix, which lets a caller
follow every measurement branch of a circuit in a single pass: forced
outcomes, record values, and ``stabilized_sign`` become per-branch
vectors when ``batch > 1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tableau"]

# g(x1, z1, x2, z2) mod 4: the power of i picked up by the Pauli
# (x1, z1) times the Pauli (x2, z2) on one qubit, at index
# 8*x1 + 4*z1 + 2*x2 + z2; 3 stands for -1
_G = np.array([0, 0, 0, 0,        # I * anything
               0, 0, 1, 3,        # Z * (I, Z, X, Y)
               0, 3, 0, 1,        # X * (I, Z, X, Y)
               0, 1, 3, 0],       # Y * (I, Z, X, Y)
              dtype=np.uint8)


class Tableau:
    """Stabilizer state of ``q`` qubits, initially |0...0>.

    ``batch`` independent sign columns share the bit matrix; the
    default single column gives plain scalar semantics.
    """

    def __init__(self, q: int, batch: int = 1):
        if q < 1:
            raise ValueError("tableau needs at least one qubit")
        if batch < 1:
            raise ValueError("tableau needs at least one sign column")
        self.q = q
        self.batch = batch
        self._x = np.zeros((q, 2 * q), dtype=np.uint8)
        self._z = np.zeros((q, 2 * q), dtype=np.uint8)
        self._r = np.zeros((2 * q, batch), dtype=np.uint8)
        idx = np.arange(q)
        self._x[idx, idx] = 1          # destabilizer i = X_i
        self._z[idx, q + idx] = 1      # stabilizer i = Z_i

    def copy(self) -> "Tableau":
        other = object.__new__(Tableau)
        other.q = self.q
        other.batch = self.batch
        other._x = self._x.copy()
        other._z = self._z.copy()
        other._r = self._r.copy()
        return other

    def row_view(self):
        """``(x, z, r)`` row-major: ``x[i, a]`` and ``z[i, a]`` are row
        i's bits on qubit ``a``, ``r[i]`` its sign per column.  These
        are views: writing to them writes to the tableau."""
        return self._x.T, self._z.T, self._r

    def _check(self, a: int):
        if not 0 <= a < self.q:
            raise ValueError(f"qubit {a} out of range")

    def _bits(self, m, what: str):
        """``m`` checked to be 0/1: an int for a scalar, else a uint8
        array with one value per sign column."""
        if m.__class__ is int and 0 <= m <= 1:
            return m
        v = np.asarray(m)
        if v.dtype.kind in "biu" and v.shape in ((), (self.batch,)):
            u = v.astype(np.uint8, copy=False)
            # the cast wraps out-of-range values unless v has one byte
            if u.max() <= 1 and (v.dtype.itemsize == 1 or (u == v).all()):
                return int(u) if u.ndim == 0 else u
        raise ValueError(
            f"{what} must be 0 or 1, as a scalar or one value per "
            f"sign column ({self.batch})")

    def _out(self, vec: np.ndarray):
        return int(vec[0]) if self.batch == 1 else vec.copy()

    # -- gates ----------------------------------------------------------

    def h(self, a: int):
        self._check(a)
        xa, za = self._x[a], self._z[a]
        self._r ^= (xa & za)[:, None]
        xa ^= za    # swap the two rows in place
        za ^= xa
        xa ^= za

    def s(self, a: int):
        self._check(a)
        xa, za = self._x[a], self._z[a]
        self._r ^= (xa & za)[:, None]
        za ^= xa

    def cnot(self, a: int, b: int):
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError("cnot needs distinct qubits")
        xa, za, xb, zb = self._x[a], self._z[a], self._x[b], self._z[b]
        self._r ^= (xa & zb & (xb ^ za ^ 1))[:, None]
        xb ^= xa
        za ^= zb

    def _flip(self, m, rows: np.ndarray):
        """XOR ``rows`` into the signs of the columns where the 0/1
        mask ``m`` is set."""
        m = self._bits(m, "mask")
        if m.__class__ is not int:
            self._r ^= rows[:, None] & m
        elif m:
            self._r ^= rows[:, None]

    def x_if(self, a: int, m):
        """Apply X to ``a`` where the 0/1 mask ``m`` is set (scalar or
        one value per sign column)."""
        self._check(a)
        self._flip(m, self._z[a])

    def z_if(self, a: int, m):
        """Apply Z to ``a`` where the 0/1 mask ``m`` is set."""
        self._check(a)
        self._flip(m, self._x[a])

    def x_gate(self, a: int):
        self.x_if(a, 1)

    def z_gate(self, a: int):
        self.z_if(a, 1)

    # -- measurement ------------------------------------------------------

    def _product_sign(self, flags: np.ndarray) -> np.ndarray:
        """Sign bits, per column, of the product of the stabilizers
        q + i for every set ``flags[i]``.

        Stabilizers commute, so the order does not matter; taking them
        in index order, each row (x_j, z_j) is i^(x_j.z_j) X^x_j Z^z_j.
        Moving every X^x_l left past the Z^z_j with j < l costs
        (-1)^(z_j.x_l), so the product is i^e P(X, Z) with X and Z the
        XOR of all rows and e = sum_j x_j.z_j + 2 sum_l zpre_l.x_l - X.Z,
        where zpre_l is the XOR of z_j over j < l.  e is even for
        commuting rows; an odd e means the tableau is broken.
        """
        rows = self.q + flags.nonzero()[0]
        xs = self._x[:, rows]
        zs = self._z[:, rows]
        zpre = np.bitwise_xor.accumulate(zs, axis=1)
        e = (np.count_nonzero(xs & zs)
             + 2 * np.count_nonzero(zpre[:, :-1] & xs[:, 1:])
             - np.count_nonzero(np.bitwise_xor.reduce(xs, axis=1)
                                & np.bitwise_xor.reduce(zs, axis=1)))
        if e & 1:
            raise AssertionError("tableau rows produced an imaginary sign")
        return np.bitwise_xor.reduce(self._r[rows], axis=0) ^ ((e >> 1) & 1)

    def is_random(self, a: int) -> bool:
        """True when a Z measurement of ``a`` has an undetermined
        outcome (some stabilizer anticommutes with Z_a)."""
        self._check(a)
        return bool(self._x[a, self.q:].any())

    def measure(self, a: int, outcome=None, rng=None):
        """Measure qubit ``a`` in the Z basis and return the outcome:
        an int, or one value per sign column when batched.

        Random outcomes take ``outcome`` when forced (scalar or
        per-column), else draw from ``rng``, else default to 0.  Forcing
        an outcome on a determined measurement is an error unless it
        agrees.
        """
        self._check(a)
        if outcome is not None:
            outcome = self._bits(outcome, "outcome")
        q = self.q
        xa = self._x[a]
        first = int(xa[q:].argmax())
        if not xa[q + first]:
            # determined: Z_a is the product of the stabilizers flagged
            # by destabilizer X-entries
            out = self._product_sign(xa[:q])
            if outcome is not None and np.any(outcome != out):
                raise ValueError(
                    f"forced outcome contradicts the determined "
                    f"measurement of qubit {a}")
            return self._out(out)
        p = q + first
        if outcome is not None:
            out = outcome
        elif rng is not None:
            out = np.array([rng.randrange(2) for _ in range(self.batch)],
                           dtype=np.uint8)
        else:
            out = 0
        # rowsum: multiply the pivot row p into every row that
        # anticommutes with Z_a, on the pivot's support only.  p itself
        # is among them: p * p is the identity with no phase, which
        # clears p's bits for the new stabilizer +-Z_a.
        xp = self._x[:, p].copy()
        zp = self._z[:, p].copy()
        rp = self._r[p].copy()
        rows = xa.nonzero()[0]
        supp = (xp | zp).nonzero()[0][:, None]  # a column: supp x rows
        xs, zs = xp[supp], zp[supp]
        x2, z2 = self._x[supp, rows], self._z[supp, rows]
        # summed in uint8: wrapping mod 256 keeps the value mod 4
        g = _G.take((xs << 3) + (zs << 2) + (x2 << 1) + z2).sum(
            axis=0, dtype=np.uint8) & 3
        if (g[rows.searchsorted(q):] & 1).any():
            raise AssertionError("tableau rows produced an imaginary sign")
        self._r[rows] ^= (g >> 1)[:, None] ^ rp
        self._x[supp, rows] = x2 ^ xs
        self._z[supp, rows] = z2 ^ zs
        # the old pivot becomes the destabilizer of the new stabilizer
        self._x[:, p - q] = xp
        self._z[:, p - q] = zp
        self._r[p - q] = rp
        self._z[a, p] = 1
        self._r[p] = out
        return self._out(self._r[p])

    def stabilized_sign(self, a, pauli: str = "Z"):
        """+1/-1 when the state is stabilized by +/- that Pauli on
        qubit ``a`` (per sign column when batched); None when the
        measurement would be random.  ``a`` may also be a tuple of
        distinct qubits with one letter of ``pauli`` each, as in
        ``stabilized_sign((0, 5), "XX")`` for X_0 X_5.  Reads the
        tableau, never changes it."""
        if isinstance(a, tuple):
            qubits, letters = a, tuple(pauli)
            if not qubits:
                raise ValueError("a Pauli string needs at least one qubit")
            if len(letters) != len(qubits):
                raise ValueError(f"{len(qubits)} qubits {qubits} but "
                                 f"{len(letters)} Pauli letters {pauli!r}")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"repeated qubit in {qubits}")
        else:
            qubits, letters = (a,), (pauli,)
        # the rows that anticommute with the Pauli: per qubit, X bit for
        # Z, Z bit for X, exactly one of them for Y; XORed over qubits
        anti = None
        for b, p in zip(qubits, letters):
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli {p!r}")
            self._check(b)
            if p == "Z":
                row = self._x[b]
            elif p == "X":
                row = self._z[b]
            else:
                row = self._x[b] ^ self._z[b]
            anti = row if anti is None else anti ^ row
        if anti[self.q:].any():
            return None
        out = self._product_sign(anti[:self.q])
        if self.batch == 1:
            return -1 if out[0] else 1
        return 1 - 2 * out.astype(np.int8)

    # -- self-checks ------------------------------------------------------

    def check_invariants(self):
        """Raise AssertionError unless rows form a valid tableau: full
        rank, stabilizers mutually commuting, destabilizer i
        anticommuting with stabilizer i alone."""
        q = self.q
        x, z, _ = self.row_view()
        sym = (x @ z.T ^ z @ x.T) & 1
        want = np.zeros((2 * q, 2 * q), dtype=np.uint8)
        idx = np.arange(q)
        want[idx, q + idx] = 1
        want[q + idx, idx] = 1
        if not np.array_equal(sym, want):
            raise AssertionError("tableau commutation structure broken")
        m = np.concatenate([x, z], axis=1)
        rank = 0
        for col in range(2 * q):
            rows = m[rank:, col].nonzero()[0]
            if rows.size == 0:
                continue
            pivot = rank + rows[0]
            m[[rank, pivot]] = m[[pivot, rank]]
            mask = m[:, col].copy()
            mask[rank] = 0
            m[mask.nonzero()[0]] ^= m[rank]
            rank += 1
        if rank != 2 * q:
            raise AssertionError("tableau rows are linearly dependent")
