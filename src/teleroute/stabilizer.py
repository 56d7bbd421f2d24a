"""Stabilizer tableau simulator for Clifford circuits.

The tableau of Aaronson and Gottesman (quant-ph/0406196) with sign
tracking: rows 0..q-1 hold the destabilizers and rows q..2q-1 the
stabilizer generators, each a signed Pauli string.  Supports H, S,
CNOT, X, Z, and Z-basis measurement with seeded or forced outcome
selection, which is all that routing-circuit verification needs.

The bits are stored qubit-major, as Stim stores them (Gidney,
arXiv:2103.02202), in Python ints used as bitsets: ``_x[a]`` and
``_z[a]`` hold qubit ``a``'s X and Z bits, bit i for row i; ``_r[i]``
holds row i's signs, bit c for sign column c; ``_s[i]`` holds a
superset of the qubits row i touches, which CNOTs and rowsums only add
to and which is made exact whenever the row is read as a pivot or a
product factor, or overwritten.  So an operation costs in proportion
to the Pauli supports it touches, not to q:

* a gate: a few int operations, and a sign flip per row set in a mask
  such as ``xa & za``;
* a random measurement: clear the destabilizer it overwrites over its
  support, then multiply the pivot into the k rows anticommuting with
  Z_a, per pivot qubit one XOR of the row mask and a few int operations
  adding its phase mod 4, bit-sliced, into two row masks;
* a determined measurement, or ``stabilized_sign``: one product of the
  flagged stabilizers, popcounts per qubit of their supports.

The X/Z bits never depend on measurement outcomes, so ``batch`` sign
columns follow every branch of a circuit in one pass, with per-branch
forced outcomes, records and ``stabilized_sign`` values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tableau"]

# g(x1, z1, x2, z2) mod 4: the power of i picked up by the Pauli
# (x1, z1) times the Pauli (x2, z2) on one qubit, at index
# 8*x1 + 4*z1 + 2*x2 + z2; 3 stands for -1
_G = (0, 0, 0, 0,        # I * anything
      0, 0, 1, 3,        # Z * (I, Z, X, Y)
      0, 3, 0, 1,        # X * (I, Z, X, Y)
      0, 1, 3, 0)        # Y * (I, Z, X, Y)


def _ones(m: int):
    """The set bits of ``m``, highest first."""
    while m:
        i = m.bit_length() - 1
        yield i
        m ^= 1 << i


def _unpack(ints, width: int) -> np.ndarray:
    """A uint8 matrix whose row j holds bits 0..width-1 of ``ints[j]``."""
    nbytes = (width + 7) >> 3
    buf = b"".join([v.to_bytes(nbytes, "little") for v in ints])
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(ints), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :width]


class Tableau:
    """Stabilizer state of ``q`` qubits, initially |0...0>, with
    ``batch`` sign columns (one gives plain scalar semantics)."""

    def __init__(self, q: int, batch: int = 1):
        if q < 1:
            raise ValueError("tableau needs at least one qubit")
        if batch < 1:
            raise ValueError("tableau needs at least one sign column")
        self.q, self.batch, self._full = q, batch, (1 << batch) - 1
        self._x = [1 << a for a in range(q)]          # destabilizer a = X_a
        self._z = [1 << (q + a) for a in range(q)]    # stabilizer a = Z_a
        self._r, self._s = [0] * (2 * q), [1 << a for a in range(q)] * 2

    def copy(self) -> "Tableau":
        other = object.__new__(Tableau)
        other.__dict__ = {k: v.copy() if type(v) is list else v
                          for k, v in self.__dict__.items()}
        return other

    def row_view(self):
        """``(x, z, r)`` row-major uint8 copies: ``x[i, a]`` and
        ``z[i, a]`` are row i's bits on qubit ``a``, ``r[i]`` its sign
        per column.  Writing to them leaves the tableau unchanged."""
        rows = 2 * self.q
        return (_unpack(self._x, rows).T.copy(),
                _unpack(self._z, rows).T.copy(),
                _unpack(self._r, self.batch))

    def _check(self, a: int):
        if not 0 <= a < self.q:
            raise ValueError(f"qubit {a} out of range")

    def _mask(self, m, what: str) -> int:
        """``m`` checked to be 0/1, a scalar or one value per sign
        column, as a bitset over the sign columns."""
        if m.__class__ is int and 0 <= m <= 1:
            return self._full if m else 0
        v = np.asarray(m)
        if v.dtype.kind in "biu" and v.shape in ((), (self.batch,)):
            u = v.astype(np.uint8, copy=False)
            # the cast wraps out-of-range values unless v has one byte
            if u.max() <= 1 and (v.dtype.itemsize == 1 or (u == v).all()):
                if u.ndim == 0:
                    return self._full if u else 0
                return int.from_bytes(
                    np.packbits(u, bitorder="little").tobytes(), "little")
        raise ValueError(
            f"{what} must be 0 or 1, as a scalar or one value per "
            f"sign column ({self.batch})")

    def _out(self, signs: int):
        return signs if self.batch == 1 else _unpack([signs], self.batch)[0]

    def _negate(self, rows: int, signs: int):
        """XOR ``signs`` into the signs of every row set in ``rows``."""
        r = self._r
        while rows and signs:
            i = rows.bit_length() - 1
            r[i] ^= signs
            rows ^= 1 << i

    def h(self, a: int):
        self._check(a)
        x, z = self._x, self._z
        self._negate(x[a] & z[a], self._full)
        x[a], z[a] = z[a], x[a]

    def s(self, a: int):
        self._check(a)
        xa = self._x[a]
        self._negate(xa & self._z[a], self._full)
        self._z[a] ^= xa

    def cnot(self, a: int, b: int):
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError("cnot needs distinct qubits")
        x, z, s = self._x, self._z, self._s
        xa, za, xb, zb = x[a], z[a], x[b], z[b]
        self._negate(xa & zb & ~(xb ^ za), self._full)
        x[b] = xb ^ xa
        z[a] = za ^ zb
        # rows that start to touch b (X from a) or a (Z from b)
        for rows, bit in ((xa & ~(xb | zb), 1 << b),
                          (zb & ~(xa | za), 1 << a)):
            while rows:
                i = rows.bit_length() - 1
                s[i] |= bit
                rows ^= 1 << i

    def x_if(self, a: int, m=1):
        """Apply X to ``a`` where the 0/1 mask ``m`` is set (scalar or
        one value per sign column); everywhere by default."""
        self._check(a)
        self._negate(self._z[a], self._mask(m, "mask"))

    def z_if(self, a: int, m=1):
        """Apply Z to ``a`` where the 0/1 mask ``m`` is set."""
        self._check(a)
        self._negate(self._x[a], self._mask(m, "mask"))

    x_gate, z_gate = x_if, z_if

    def _product_sign(self, flags: int) -> int:
        """Sign bits, per column, of the product of the stabilizers
        q + i for every bit i set in ``flags``.  In index order, row j
        is i^(x_j.z_j) X^x_j Z^z_j, and moving X^x_l left past Z^z_j for
        j < l costs (-1)^(z_j.x_l): the product is i^e P(X, Z), with X, Z
        the XOR of the rows and e = sum_j x_j.z_j + 2 sum_{j<l} z_j.x_l
        - X.Z, counted per qubit by popcounts.  Odd e: a broken tableau."""
        x, z, r, s = self._x, self._z, self._r, self._s
        rows = flags << self.q
        signs = supp = 0
        for j in _ones(rows):
            signs ^= r[j]
            s[j] = exact = sum(1 << b for b in _ones(s[j])
                               if (x[b] | z[b]) >> j & 1)
            supp |= exact
        e = 0
        for b in _ones(supp):
            xs, zs = x[b] & rows, z[b] & rows
            if xs and zs:       # else the qubit adds nothing to e
                e += (xs & zs).bit_count() - (
                    xs.bit_count() & zs.bit_count() & 1)
                for j in _ones(zs):
                    e += 2 * (xs >> j >> 1).bit_count()
        if e & 1:
            raise AssertionError("tableau rows produced an imaginary sign")
        return signs ^ self._full if e & 2 else signs

    def is_random(self, a: int) -> bool:
        """True when some stabilizer anticommutes with Z_a."""
        self._check(a)
        return bool(self._x[a] >> self.q)

    def measure(self, a: int, outcome=None, rng=None):
        """Measure qubit ``a`` in the Z basis and return the outcome,
        per sign column when batched.  A random outcome is ``outcome``
        when forced (scalar or per column), else drawn from ``rng``, else
        0; forcing a determined one is an error unless it agrees."""
        self._check(a)
        if outcome is not None:
            outcome = self._mask(outcome, "outcome")
        q, x, z, r, s = self.q, self._x, self._z, self._r, self._s
        rows = x[a]
        if not rows >> q:
            # determined: Z_a is the product of the flagged stabilizers
            out = self._product_sign(rows)
            if outcome is not None and outcome != out:
                raise ValueError(
                    f"forced outcome contradicts the determined "
                    f"measurement of qubit {a}")
            return self._out(out)
        p = (rows >> q & -(rows >> q)).bit_length() - 1 + q
        if outcome is None:
            outcome = 0 if rng is None else sum(
                rng.randrange(2) << c for c in range(self.batch))
        # the destabilizer paired with p is cleared, to become p below
        d = p - q
        bit = 1 << d
        m = s[d]
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b
            if x[b] & bit:
                x[b] ^= bit
            if z[b] & bit:
                z[b] ^= bit
        rows = x[a]
        # the pivot row p: (qubit, x, z) over its exact support sp
        pivot = []
        m = s[p]
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b
            xb, zb = x[b] >> p & 1, z[b] >> p & 1
            if xb or zb:
                pivot.append((b, xb, zb))
        sp = sum(1 << b for b, _, _ in pivot)
        # rowsum: multiply the pivot into the rows anticommuting with Z_a
        # (p * p clears p for +-Z_a) and write it into d; lo + 2 hi sums
        # g mod 4 per row, ``minus`` marks the rows gaining 3 (see _G)
        lo = hi = 0
        both = rows | bit
        for b, xb, zb in pivot:
            xr, zr = x[b] & rows, z[b] & rows
            if xb and zb:           # Y: X rows gain 3, Z rows 1
                anti, minus = xr ^ zr, xr
            elif xb:                # X: Z rows gain 3, Y rows 1
                anti, minus = zr, ~xr
            else:                   # Z: Y rows gain 3, X rows 1
                anti, minus = xr, zr
            hi ^= anti & (lo ^ minus)
            lo ^= anti
            if xb:
                x[b] ^= both
            if zb:
                z[b] ^= both
        if lo >> q:
            raise AssertionError("tableau rows produced an imaginary sign")
        self._negate(hi, self._full)
        rp = r[p]
        m = rows
        while m:
            i = m.bit_length() - 1
            r[i] ^= rp
            s[i] |= sp
            m ^= 1 << i
        r[d], s[d] = rp, sp
        z[a] |= 1 << p
        r[p], s[p] = outcome, 1 << a
        return self._out(outcome)

    def stabilized_sign(self, a, pauli: str = "Z"):
        """+1/-1 when the state is stabilized by +/- that Pauli on
        qubit ``a`` (per sign column when batched); None when the
        measurement would be random.  ``a`` may also be a tuple of
        distinct qubits with one letter of ``pauli`` each, as in
        ``stabilized_sign((0, 5), "XX")`` for X_0 X_5.  Read-only."""
        qubits, letters = ((a, tuple(pauli)) if isinstance(a, tuple)
                           else ((a,), (pauli,)))
        if not qubits:
            raise ValueError("a Pauli string needs at least one qubit")
        if len(letters) != len(qubits):
            raise ValueError(f"{len(qubits)} qubits {qubits} but "
                             f"{len(letters)} Pauli letters {pauli!r}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {qubits}")
        # the rows that anticommute with the Pauli: per qubit, X bit for
        # Z, Z bit for X, exactly one of them for Y; XORed over qubits
        anti = 0
        for b, p in zip(qubits, letters):
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli {p!r}")
            self._check(b)
            if p != "X":
                anti ^= self._x[b]
            if p != "Z":
                anti ^= self._z[b]
        if anti >> self.q:
            return None
        out = self._product_sign(anti)
        if self.batch == 1:
            return -1 if out else 1
        return 1 - 2 * self._out(out).astype(np.int8)

    def check_invariants(self):
        """Raise AssertionError unless each kept support covers its row
        and the rows commute as a tableau's must (destabilizer i
        anticommutes with stabilizer i alone), which implies full rank."""
        q = self.q
        x, z, _ = self.row_view()
        if ((x | z) > _unpack(self._s, q)).any():
            raise AssertionError("a row touches a qubit outside its support")
        want = np.roll(np.eye(2 * q, dtype=np.uint8), q, axis=1)
        if not np.array_equal((x @ z.T ^ z @ x.T) & 1, want):
            raise AssertionError("tableau commutation structure broken")
