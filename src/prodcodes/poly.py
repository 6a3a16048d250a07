"""Sparse multivariate and dense univariate polynomials over a Field.

The sparse type stores an exponent-tuple -> nonzero-coefficient map and is
used wherever exponent-set bookkeeping matters.  The dense univariate
helpers operate on numpy coefficient arrays (index = degree) and back the
Euclidean algorithm and fast many-point evaluation.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .gf import Field

# ---------------------------------------------------------------------------
# dense univariate helpers
# ---------------------------------------------------------------------------


def uni_trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.int64)
    nz = np.nonzero(c)[0]
    return c[: int(nz[-1]) + 1] if nz.size else c[:0]


def uni_mul(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = uni_trim(a), uni_trim(b)
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i in range(a.size):
        if a[i]:
            out[i:i + b.size] = F.add(out[i:i + b.size], F.mul(a[i], b))
    return out


def uni_divmod(F: Field, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = uni_trim(a).copy(), uni_trim(b)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if a.size < b.size:
        return np.zeros(0, dtype=np.int64), a
    q = np.zeros(a.size - b.size + 1, dtype=np.int64)
    inv_lead = F.inv(b[-1])
    for shift in range(a.size - b.size, -1, -1):
        coef = F.mul(a[shift + b.size - 1], inv_lead)
        if coef:
            q[shift] = coef
            a[shift:shift + b.size] = F.sub(a[shift:shift + b.size], F.mul(coef, b))
    return q, uni_trim(a)


def uni_monic(F: Field, a: np.ndarray) -> np.ndarray:
    a = uni_trim(a)
    if a.size == 0 or a[-1] == 1:
        return a
    return F.mul(a, F.inv(a[-1]))


def uni_gcd(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monic gcd via Euclid; gcd(f, 0) = monic(f).  Both zero is an error."""
    a, b = uni_trim(a), uni_trim(b)
    if a.size == 0 and b.size == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b.size:
        a, b = b, uni_divmod(F, a, b)[1]
    return uni_monic(F, a)


def uni_ext_gcd(F: Field, a: np.ndarray, b: np.ndarray):
    """(g, u, v) with u*a + v*b = g = monic gcd."""
    r0, r1 = uni_trim(a), uni_trim(b)
    one = np.array([1], dtype=np.int64)
    zero = np.zeros(0, dtype=np.int64)
    s0, s1, t0, t1 = one, zero, zero, one
    while r1.size:
        q, r = uni_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _uni_sub(F, s0, uni_mul(F, q, s1))
        t0, t1 = t1, _uni_sub(F, t0, uni_mul(F, q, t1))
    if r0.size == 0:
        raise ValueError("gcd(0, 0) is undefined")
    lead_inv = F.inv(r0[-1])
    return F.mul(r0, lead_inv), F.mul(s0, lead_inv), F.mul(t0, lead_inv)


def _uni_sub(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(a.size, b.size)
    aa = np.zeros(n, dtype=np.int64)
    bb = np.zeros(n, dtype=np.int64)
    aa[: a.size] = a
    bb[: b.size] = b
    return uni_trim(F.sub(aa, bb))


def uni_eval(F: Field, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Horner evaluation of one polynomial at many points."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    points = np.asarray(points, dtype=np.int64)
    acc = np.zeros_like(points)
    for c in coeffs[::-1]:
        acc = F.add(F.mul(acc, points), np.int64(c))
    return acc


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Sparse polynomial in `vars` variables; zero coefficients never stored."""

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("arity must be >= 1")
        self.field = field
        self.vars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for expo, coef in (terms or {}).items():
            expo = tuple(int(x) for x in expo)
            if len(expo) != nvars or any(x < 0 for x in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            coef = int(coef)
            if coef:
                clean[expo] = coef
        self.terms = clean

    # constructors -----------------------------------------------------------

    @staticmethod
    def zero(field: Field, nvars: int = 1) -> "Poly":
        return Poly(field, nvars)

    @staticmethod
    def monomial(field: Field, expo: Iterable[int], coef: int = 1) -> "Poly":
        expo = tuple(expo)
        return Poly(field, len(expo), {expo: coef})

    @staticmethod
    def from_univariate(field: Field, coeffs: np.ndarray) -> "Poly":
        coeffs = uni_trim(coeffs)
        return Poly(field, 1, {(i,): int(c) for i, c in enumerate(coeffs) if c})

    # queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def to_univariate(self) -> np.ndarray:
        if self.vars != 1:
            raise ValueError("not univariate")
        d = max((e[0] for e in self.terms), default=-1)
        out = np.zeros(d + 1, dtype=np.int64)
        for (i,), c in self.terms.items():
            out[i] = c
        return out

    # arithmetic ---------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field != other.field or self.vars != other.vars:
            raise ValueError("polynomial domain mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = int(F.add(out.get(e, 0), c))
        return Poly(F, self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = int(F.sub(out.get(e, 0), c))
        return Poly(F, self.vars, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = int(F.add(out.get(e, 0), F.mul(c1, c2)))
        return Poly(F, self.vars, out)

    def scale(self, coef: int) -> "Poly":
        F = self.field
        return Poly(F, self.vars, {e: int(F.mul(c, coef)) for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.vars == other.vars and self.terms == other.terms)

    def __call__(self, point: Iterable[int]) -> int:
        return self.eval(point)

    def eval(self, point: Iterable[int]) -> int:
        """Horner-style evaluation: recurse on the first variable."""
        point = tuple(int(x) for x in point)
        if len(point) != self.vars:
            raise ValueError(f"point arity {len(point)} != {self.vars}")
        return int(self._eval_rec(self.terms, point))

    def _eval_rec(self, terms: Mapping[tuple[int, ...], int], point: tuple[int, ...]) -> int:
        F = self.field
        if not terms:
            return 0
        if len(point) == 0:
            # only the empty exponent remains
            return terms.get((), 0)
        by_deg: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in terms.items():
            by_deg.setdefault(e[0], {})[e[1:]] = c
        x = point[0]
        acc = 0
        for d in range(max(by_deg), -1, -1):
            acc = int(F.mul(acc, x))
            if d in by_deg:
                acc = int(F.add(acc, self._eval_rec(by_deg[d], point[1:])))
        return acc

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at many points (rows of shape (N, vars))."""
        F = self.field
        points = np.atleast_2d(np.asarray(points, dtype=np.int64))
        out = np.zeros(points.shape[0], dtype=np.int64)
        for e, c in sorted(self.terms.items()):
            term = np.full(points.shape[0], c, dtype=np.int64)
            for j, d in enumerate(e):
                if d:
                    term = F.mul(term, F.power(points[:, j], d))
            out = F.add(out, term)
        return out

    def gcd(self, other: "Poly") -> "Poly":
        """Monic univariate gcd."""
        self._check(other)
        if self.vars != 1:
            raise ValueError("gcd implemented for univariate polynomials")
        g = uni_gcd(self.field, self.to_univariate(), other.to_univariate())
        return Poly.from_univariate(self.field, g)

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c}*X^{e}" for e, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(parts) + ")"
