"""Exact arithmetic in GF(p^e) with vectorized numpy element operations.

Elements are encoded as integers in [0, q): the coefficient vector
(c_0, ..., c_{e-1}) of the residue class modulo the field modulus is packed
in mixed radix as sum(c_i * p^i).  All bulk operations act on numpy int64
arrays of such codes.

Fields with q = p^e <= 2^20 are supported.  Extension-field multiplication
goes through a full table or through discrete log/antilog tables (see
Field).  Those tables are built from a primitive modulus, so the canonical
modulus for each (p, e) is the first *primitive* monic polynomial in a fixed
enumeration order.  For e = 1 the enumeration meets the constant term p - g
first, so the modulus is X - g with g the *largest* primitive root mod p
(GF(7) gets X + 2, g = 5).  The canonical ordering of field elements is
0, 1, g, g^2, ... for the field generator g, the smallest code that
generates GF(q)*: the search starts at p when e > 1 (a constant cannot
generate), so g is X for a primitive modulus, and at 2 when e = 1, so g is
the smallest primitive root mod p (3 for GF(7)).

Field.get keeps one Field per description, keyed by (p, e, modulus) with
the canonical modulus filled in, so GF(q) and the field read back from its
to_json() are the same object.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

MAX_ORDER = 1 << 20
# extension fields up to this order multiply through a flat q*q table
# (512 KB of int64 at q = 2^8); larger ones go through log/exp
MUL_TABLE_MAX_ORDER = 1 << 8


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients as python tuples (low to high)
# ---------------------------------------------------------------------------

def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pmulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _prem(out, mod, p)


def _prem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return _ptrim(a)


def _ppowmod(a, n, mod, p):
    result = (1,)
    base = _prem(a, mod, p)
    while n:
        if n & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        n >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _prem(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, smallest first ([] when n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _code_digits(code: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of an element code, lowest first: its
    coefficients over GF(p)."""
    return tuple(code // p ** i % p for i in range(e))


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    f = _ptrim(coeffs)
    e = len(f) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    x = (0, 1)
    # x^(p^e) == x mod f
    t = x
    for _ in range(e):
        t = _ppowmod(t, p, f, p)
    if t != x:
        return False
    for ell in _prime_factors(e):
        t = x
        for _ in range(e // ell):
            t = _ppowmod(t, p, f, p)
        diff = list(t) + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(diff, f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _is_primitive(a, f, p, q) -> bool:
    """Whether the residue a (GF(p) coefficients, low to high) has order
    q - 1 mod the degree-e monic f, q = p^e: a^(q-1) = 1 and a^((q-1)/l) != 1
    for every prime l | q - 1.  Then the q - 1 powers of a are distinct
    units, so every nonzero residue is a unit and f is irreducible."""
    return _ppowmod(a, q - 1, f, p) == (1,) and \
        all(_ppowmod(a, (q - 1) // ell, f, p) != (1,) for ell in _prime_factors(q - 1))


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """First primitive monic degree-e polynomial over GF(p), in a fixed
    enumeration of the non-leading coefficient vector (mixed-radix order).
    X of order q - 1 proves f irreducible (see _is_primitive)."""
    q = p ** e
    for code in range(q):
        f = _code_digits(code, p, e) + (1,)
        if f[0] == 0:
            continue  # divisible by X
        if _is_primitive((0, 1), f, p, q):
            return f
    raise RuntimeError(f"no primitive polynomial found for GF({p}^{e})")


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple, "Field"] = {}


def _check_order(p: int, e: int) -> int:
    """q = p^e, once e >= 1, q <= MAX_ORDER and p is a prime, tested in that
    order so that no test runs on a huge number (e < 21 bounds p ** e)."""
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        raise ValueError(f"field order {p}^{e} exceeds supported bound 2^20")
    if not _is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p ** e


class Field:
    """The finite field GF(p^e), with vectorized arithmetic on element codes.

    Every field keeps a q-entry inverse table, so ``inv`` is one zero check
    and one gather, and (q - 1)-entry exp and q-entry log tables.  Prime
    fields multiply as ``(a * b) % p``.  Extension fields also keep int32
    zero-sentinel log/exp tables: log 0 is z = 2q - 3, past every sum of two
    nonzero logs, and exp is 0 at z, so a product is one add and one
    clipped gather with no branch on zero.  Fields with q <=
    MUL_TABLE_MAX_ORDER (2^8) fill a flat q*q table, ``table[a * q + b]``
    (at most 512 KB), through that body and multiply through the table;
    larger ones multiply through the sentinel tables.  Odd extension fields
    also keep a q-entry negation table, so ``neg`` is one gather and
    ``sub`` two where the addition table exists.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None):
        q = _check_order(p, e)
        if modulus is None:
            modulus = canonical_modulus(p, e)
        else:
            modulus = _ptrim(modulus)
            if len(modulus) - 1 != e or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not all(0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over GF(p)")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._powers = np.array([p ** i for i in range(e)], dtype=np.int64)
        if p == 2:
            self._modmask = sum(c << i for i, c in enumerate(modulus))
        self._build_tables()

    # construction ---------------------------------------------------------

    @staticmethod
    def of_order(q: int) -> "Field":
        """GF(q) with the canonical modulus; q any prime power <= 2^20."""
        if q < 2:
            raise ValueError("q must be >= 2")
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds supported bound 2^20")
        factors = _prime_factors(q)
        if len(factors) > 1:
            raise ValueError(f"{q} is not a prime power")
        p, e = factors[0], 1
        while p ** e < q:
            e += 1
        return Field.get(p, e)

    @staticmethod
    def get(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> "Field":
        """The one field of each (p, e, modulus); None names the canonical
        modulus, which is then not tested again."""
        if modulus is None:
            _check_order(p, e)
            key = (p, e, canonical_modulus(p, e))
        else:
            key = (p, e, _ptrim(modulus))
        if key not in _FIELD_CACHE:
            _FIELD_CACHE[key] = Field(p, e, modulus)
        return _FIELD_CACHE[key]

    @staticmethod
    def from_json(doc) -> "Field":
        """The field of a serialized {"p", "e", "modulus"} description; a
        malformed one raises ValueError before any table is built."""
        f = doc if isinstance(doc, dict) else {}
        p, e, modulus = f.get("p"), f.get("e"), f.get("modulus")
        # type(...) is int: JSON true/false are not integers here
        if not (type(p) is int and type(e) is int and isinstance(modulus, list)
                and all(type(c) is int for c in modulus)):
            raise ValueError(f"field must be {{p: int, e: int, modulus: [int]}}, got {doc!r}")
        return Field.get(p, e, modulus)

    def to_json(self) -> dict:
        """The {p, e, modulus} description that from_json reads back."""
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def _mul_const(self, a: np.ndarray, c: int) -> np.ndarray:
        """Table-free product of an array of element codes by the code c
        (used to build the tables)."""
        p, e = self.p, self.e
        if e == 1:
            return a * c % p
        if p == 2:
            # shift and XOR: a * X^j, reduced, enters once per set bit j of c
            out = np.zeros_like(a)
            a = a.copy()
            while c:
                if c & 1:
                    out ^= a
                c >>= 1
                a <<= 1
                a ^= (a >> e & 1) * self._modmask
            return out
        # row i of M holds the digits of X^i * c, each row the one before
        # times X: a shift, with X^e = -(f_0 + ... + f_{e-1} X^{e-1}) mod f;
        # digits(a) @ M are the digits of a * c before reduction mod p
        low = np.array(self.modulus[:-1], dtype=np.int64)
        M = [self._digits(c)]
        for _ in range(e - 1):
            M.append((np.concatenate(([0], M[-1][:-1])) - M[-1][-1] * low) % p)
        return self._undigits(self._digits(a) @ np.array(M) % p)

    def _find_generator(self) -> int:
        """The smallest code generating GF(q)*; below p the codes are
        constants, whose order divides p - 1, so the search starts at p
        when e > 1 (X when the modulus is primitive)."""
        p, e, q = self.p, self.e, self.q
        if q == 2:
            return 1
        for code in range(2 if e == 1 else p, q):
            if _is_primitive(_code_digits(code, p, e), self.modulus, p, q):
                return code
        raise RuntimeError("no multiplicative generator found")

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        self._gen = self._find_generator()
        # exp by doubling: with g^0 .. g^(k-1) in exp[:k], exp[k:2k-1] =
        # exp[1:k] * g^(k-1), one array-by-constant multiply per step (GF(2)
        # has no slot for g^1); log is the inverse permutation of exp
        exp = np.ones(q - 1, dtype=np.int64)
        exp[1:2] = self._gen
        k = 2
        while k < q - 1:
            m = min(k - 1, q - 1 - k)
            exp[k:k + m] = self._mul_const(exp[1:m + 1], int(exp[k - 1]))
            k += m
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self._exp = exp
        self._log = log
        # _inv[0] is a placeholder: inv rejects zero before the gather
        self._inv = np.zeros(q, dtype=np.int64)
        self._inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        if e > 1:
            # mul's zero-sentinel tables (see the class docstring): two
            # nonzero logs sum to at most 2q - 4 < z, a sum with a zero
            # operand is at least z, and no sum reaches 2^31 since q <= 2^20
            self._zlog = log.astype(np.int32)
            self._zlog[0] = 2 * q - 3
            self._zexp = np.concatenate((exp, exp[:-1], [0])).astype(np.int32)
        self._mul_table = None
        if e > 1 and q <= MUL_TABLE_MAX_ORDER:
            codes = np.arange(q, dtype=np.int64)
            self._mul_table = self.mul(codes[:, None], codes[None, :]).ravel()
        self._add_table = None
        self._neg = None
        if p != 2 and e > 1:
            # digit-wise addition of every pair and negation of every code,
            # one digit at a time; the table is filled in blocks of rows, so
            # the scratch beside it holds at most 2^20 entries
            codes = np.arange(q, dtype=np.int64)
            if q <= 1 << 12:
                self._add_table = np.zeros((q, q), dtype=np.int64)
                rows = max(1, (1 << 20) // q)
                for r in range(0, q, rows):
                    for pw in self._powers:
                        s = np.add.outer(codes[r:r + rows] // pw % p, codes // pw % p)
                        self._add_table[r:r + rows] += s % p * pw
            self._neg = np.zeros(q, dtype=np.int64)
            for pw in self._powers:
                self._neg += (-(codes // pw) % p) * pw

    # scalar conveniences ----------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    @property
    def generator(self) -> int:
        return self._gen

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def element_order(self) -> np.ndarray:
        """Canonical point ordering 0, 1, g, g^2, ... (length q)."""
        return np.concatenate(([0], self._exp[: self.q - 1]))

    # vectorized arithmetic on int64 code arrays -----------------------------

    def _digits(self, a: np.ndarray) -> np.ndarray:
        """The e digits of each code, on a new last axis (lowest first), by
        one divmod by the scalar p per digit."""
        r = np.asarray(a, dtype=np.int64)
        out = np.empty(r.shape + (self.e,), dtype=np.int64)
        for i in range(self.e - 1):
            r = np.divmod(r, self.p, out=(None, out[..., i]))[0]
        out[..., -1] = r
        return out

    def _undigits(self, d: np.ndarray) -> np.ndarray:
        return (d * self._powers).sum(axis=-1)

    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._undigits((self._digits(a) + self._digits(b)) % self.p)

    def sum(self, a, axis: int = -1):
        """Field sum of the entries of a along axis (0 when there are none)."""
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if self.e == 1:
            return a.sum(axis=axis) % self.p
        # the digit axis goes last, so a normalized axis still names the same one
        return self._undigits(self._digits(a).sum(axis=axis % a.ndim) % self.p)

    def prod(self, a, axis: int = -1):
        """Field product of the entries of a along axis (1 when there are
        none): a sum of discrete logs, and 0 wherever a factor is 0."""
        lg = self._log[np.asarray(a, dtype=np.int64)]
        out = self._exp[lg.sum(axis=axis) % (self.q - 1)]
        return np.where((lg < 0).any(axis=axis), 0, out)

    def neg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a, b):
        if self.p == 2:
            return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return np.take(self._zexp, self._zlog[a] + self._zlog[b], mode="clip").astype(np.int64)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if not a.all():
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, k):
        """Elementwise a**k for integer k >= 0 (0**0 == 1)."""
        a = np.asarray(a, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        if np.any(k < 0):
            raise ValueError("negative exponent")
        la = self._log[a]
        idx = (np.maximum(la, 0) * (k % (self.q - 1) if self.q > 2 else 0)) % max(self.q - 1, 1)
        out = self._exp[idx]
        out = np.where((la < 0) & (k > 0), 0, out)
        out = np.where(k == 0, 1, out)
        return out

    def frobenius(self, a):
        return self.power(a, self.p)

    def trace(self, a):
        """Trace to the prime subfield, the sum of the Frobenius powers
        a^(p^i) for i < e; result codes lie in [0, p)."""
        a = np.asarray(a, dtype=np.int64)
        return self.sum(self.power(a[..., None], self.p ** np.arange(self.e)))

    def random(self, rng: np.random.Generator, shape=None, nonzero: bool = False):
        lo = 1 if nonzero else 0
        return rng.integers(lo, self.q, size=shape, dtype=np.int64)


def GF(q: int) -> Field:
    """Shorthand for the canonical field of order q."""
    return Field.of_order(q)
