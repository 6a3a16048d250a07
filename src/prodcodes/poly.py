"""Dense univariate polynomials over a Field.

A polynomial is a numpy coefficient array (index = degree).  The helpers
multiply, divide and take (extended) gcds; in the package only stage 1 of
the decoder uses them now, for its line gcds (uni_gcd, through uni_divmod).
Evaluation goes through Vandermonde matrices (codes.vandermonde), not
through this module.
"""

from __future__ import annotations

import numpy as np

from .gf import Field

# ---------------------------------------------------------------------------
# dense univariate helpers
# ---------------------------------------------------------------------------


def uni_trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.int64)
    nz = c.nonzero()[0]
    return c[: int(nz[-1]) + 1] if nz.size else c[:0]


def uni_mul(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = uni_trim(a), uni_trim(b)
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    # the outer product a_i b_j, padded to width w + 1 and reread at width w:
    # row i then sits shifted right by i, so column d sums the anti-diagonal
    # i + j = d
    w = a.size + b.size - 1
    rows = np.zeros((a.size, w + 1), dtype=np.int64)
    rows[:, :b.size] = F.mul(a[:, None], b[None, :])
    return F.sum(rows.ravel()[: a.size * w].reshape(a.size, w), axis=0)


def uni_divmod(F: Field, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) of a by b.  Each quotient coefficient is
    exp[log lead - log b_lead] on Python ints; each step then adds it times
    -b with one F.mul and one F.add."""
    a, b = uni_trim(a).copy(), uni_trim(b)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if a.size < b.size:
        return np.zeros(0, dtype=np.int64), a
    q = np.zeros(a.size - b.size + 1, dtype=np.int64)
    neg, log_lead = F.neg(b), F._log.item(b[-1])
    for shift in range(a.size - b.size, -1, -1):
        lead = a.item(shift + b.size - 1)
        if lead:
            q[shift] = coef = F._exp.item((F._log.item(lead) - log_lead) % (F.q - 1))
            a[shift:shift + b.size] = F.add(a[shift:shift + b.size], F.mul(coef, neg))
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

