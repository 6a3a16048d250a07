"""Approximation decoder for dual tensor products of two Reed-Solomon codes.

The decoder runs three subroutines: an error-locator stage that lands in a
slightly enlarged code (dec_init), a degree-reduction stage that strips the
extra coefficient rows and columns with per-stripe Reed-Solomon decoding
(dec_close), and a greedy peeling stage that minimizes the final coset
representative (dec_finish).  berlekamp_welch backs both stripe decoding
and peeling; it decodes RS syndromes within the unique radius by Prony's
method, as the Peterson-Gorenstein-Zierler decoder does.

All constants derive from one scale parameter gamma: the reference analysis
sets gamma = 1000, and the desk-scale "scaled-constants" mode lowers gamma so
that the promise radius d0 = (rho*eps*n/gamma)^2 is nontrivial at small n.
Every derived quantity is recomputed from gamma and surfaced on the
instance.  Reports carry gamma in the instance document they record; they do
not flag gamma != 1000 (beyond the reference analysis) by themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .gf import Field
from . import linalg as la
from .codes import (ReedSolomon, canonical_points, error_vector, lagrange_weights, rs_code,
                    vandermonde, vandermonde_inverse)
from .poly import uni_gcd, uni_trim


class PromiseViolation(RuntimeError):
    """An internal linear solve or stripe decode failed: the input was
    outside the decoding promise."""


# ---------------------------------------------------------------------------
# Reed-Solomon decoding within the unique radius
# ---------------------------------------------------------------------------


class Decoded(NamedTuple):
    """berlekamp_welch results for a batch of B words: ok[b] says whether
    word b decoded, and words[b] holds its codeword (zero where it did not)."""

    ok: np.ndarray
    words: np.ndarray

    def any(self) -> bool:
        """Whether some returned codeword is nonzero, i.e. whether the batch
        has anything to subtract (the question perfbench's tracing hook asks
        of a result, as of a single codeword array)."""
        return bool(self.words.any())


def _grs_parity_check(F: Field, points: np.ndarray, k: int) -> np.ndarray:
    """(n - k) x n parity check of RS_points(k) in closed form:
    H = V_{n-k}(points)^T diag(u) with u = codes.lagrange_weights(points),
    because sum_i u_i f(x_i) = 0 for every f of degree <= n - 2.  Built once
    per (field, points, k) and returned read-only."""
    return _grs_parity_check_of(F, np.asarray(points, dtype=np.int64).tobytes(), k)


@lru_cache(maxsize=256)
def _grs_parity_check_of(F: Field, points: bytes, k: int) -> np.ndarray:
    x = np.frombuffer(points, dtype=np.int64)
    H = F.mul(vandermonde(F, x, x.size - k).T, lagrange_weights(F, x)[None, :])
    H.flags.writeable = False
    return H


def _correct(F: Field, H: np.ndarray, word: np.ndarray, s: np.ndarray,
             t: int) -> np.ndarray | None:
    """word - e for the e of weight <= t with H e = s, or None (Prony's method).

    s_j = sum_i u_i e_i x_i^j, so a monic P of degree t solving the Hankel
    system sum_l s_{j+l} P_l = 0 (j < n - k - t, at least t >= |supp e|
    equations) has u_i e_i P(x_i) = 0: P vanishes on supp e.  Its <= t roots
    R are the zeros of (H[:t+1]^T P)_i = u_i P(x_i), and t <= (n - k) / 2
    columns of H are independent, so H[:, R] e_R = s has at most one
    solution."""
    hank = s[np.arange(s.size - t)[:, None] + np.arange(t + 1)]
    p = la.solve_right(F, hank[:, :t], F.neg(hank[:, t]))
    if p is None:
        return None
    roots = np.nonzero(la.matvec(F, H[:t + 1].T, np.append(p, 1)) == 0)[0]
    e = la.solve_right(F, H[:, roots], s)
    if e is None:
        return None
    out = word.copy()
    out[roots] = F.sub(word[roots], e)
    return out


def berlekamp_welch(F: Field, points: np.ndarray, k: int, words: np.ndarray,
                    max_errors: int) -> Decoded:
    """Unique decoding of a (B, n) batch of words in RS_points(k) on
    distinct points: for each word, the codeword within max_errors = t of it,
    or a failure when there is none.  Requires k + 2t <= n, where that
    codeword is unique (ValueError otherwise); a negative t, or k outside
    [0, n], fails every word.  One matmul with the closed-form parity check
    gives every syndrome, and each nonzero one goes through _correct.
    """
    points = np.asarray(points, dtype=np.int64)
    words = np.asarray(words, dtype=np.int64)
    n = points.size
    t = int(max_errors)
    ok = np.zeros(words.shape[0], dtype=bool)
    out = np.zeros_like(words)
    if t < 0 or k < 0 or k > n:
        return Decoded(ok, out)
    if k + 2 * t > n:
        raise ValueError(f"k + 2t = {k + 2 * t} exceeds n = {n}: beyond unique decoding")
    H = _grs_parity_check(F, points, k)
    syn = la.matmul(F, words, H.T)
    code = ~syn.any(axis=1)
    ok[code] = True
    out[code] = words[code]
    for b in np.nonzero(~code)[0]:
        cw = _correct(F, H, words[b], syn[b], t)
        if cw is not None:
            ok[b] = True
            out[b] = cw
    return Decoded(ok, out)


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------


@dataclass
class DualTensorInstance:
    """Everything fixed about one decoding family: the two RS codes, the rate
    slack eps, the configured product-expansion rho, and the constant scale."""

    field: Field
    n: int
    k1: int
    k2: int
    E1: np.ndarray
    E2: np.ndarray
    eps: Fraction
    rho: Fraction = Fraction(1, 8)
    gamma: int = 1000

    def __post_init__(self):
        for name, v in (("n", self.n), ("k1", self.k1), ("k2", self.k2)):
            # type(...) is int: JSON true/false are not integers here
            if type(v) is not int or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not all(isinstance(pts, (list, np.ndarray)) for pts in (self.E1, self.E2)):
            raise ValueError("E1 and E2 must be lists of field elements")
        if self.k1 + self.k2 > (1 - self.eps) * self.n:
            raise ValueError("rates must satisfy k1 + k2 <= (1 - eps) n")
        self.E1 = np.asarray(self.E1, dtype=np.int64)
        self.E2 = np.asarray(self.E2, dtype=np.int64)
        if self.E1.size != self.n or self.E2.size != self.n:
            raise ValueError("evaluation sets must have size n")
        for name, pts in (("E1", self.E1), ("E2", self.E2)):
            if np.any((pts < 0) | (pts >= self.field.q)) or np.unique(pts).size != pts.size:
                raise ValueError(f"{name} must hold n distinct elements of GF({self.field.q})")
        if self.s >= self.n:
            # stage 1 evaluates locators of degree s in each variable through
            # the first s + 1 columns of the n x n Vandermonde matrices
            raise ValueError("the locator degree s must stay below n")

    @staticmethod
    def build(F: Field, n: int, k1: int, k2: int, eps: Fraction,
              rho: Fraction = Fraction(1, 8), gamma: int = 1000) -> "DualTensorInstance":
        """The instance on the canonical points of F on both axes."""
        pts = canonical_points(F, n)
        return DualTensorInstance(F, n, k1, k2, pts, pts, eps, rho, gamma)

    # derived constants ------------------------------------------------------

    @property
    def unit(self) -> Fraction:
        return self.rho * self.eps * self.n / self.gamma

    @property
    def s(self) -> int:
        return max(1, math.ceil(self.unit))

    @property
    def d0(self) -> Fraction:
        return self.unit ** 2

    @property
    def alpha(self) -> Fraction:
        return (Fraction(self.gamma) / (self.rho * self.eps)) ** 2

    @property
    def stage1_bound(self) -> Fraction:
        # rho*eps*n^2/50 at the reference gamma = 1000
        return Fraction(20, self.gamma) * self.rho * self.eps * self.n ** 2

    @property
    def stripe_bound(self) -> Fraction:
        # eps*n/25 at the reference gamma = 1000
        return Fraction(40, self.gamma) * self.eps * self.n

    def stripe_radius(self, kdim: int) -> int:
        cap = (self.n - kdim) // 2
        return min(int(self.stripe_bound), cap)

    @property
    def peel_radius(self) -> int:
        return math.ceil(self.eps * self.n / 2) - 1

    # codes -------------------------------------------------------------------

    @cached_property
    def C1(self) -> ReedSolomon:
        return rs_code(self.field, self.n, self.k1, self.E1)

    @cached_property
    def C2(self) -> ReedSolomon:
        return rs_code(self.field, self.n, self.k2, self.E2)

    @cached_property
    def C1p(self) -> ReedSolomon:
        return rs_code(self.field, self.n, self.k1 + self.s, self.E1)

    @cached_property
    def C2p(self) -> ReedSolomon:
        return rs_code(self.field, self.n, self.k2 + self.s, self.E2)

    @cached_property
    def V1(self) -> np.ndarray:
        """n x n Vandermonde matrix of E1: entry (x1, j) = E1[x1]^j."""
        return vandermonde(self.field, self.E1, self.n)

    @cached_property
    def V2(self) -> np.ndarray:
        return vandermonde(self.field, self.E2, self.n)

    @cached_property
    def V1_inv(self) -> np.ndarray:
        """Interpolation matrix: V1_inv @ v holds the X1 coefficients of the
        polynomial of degree < n that takes the values v on E1: V1^-1 as a
        table of Lagrange coefficients, with no elimination."""
        return vandermonde_inverse(self.field, self.E1)

    @cached_property
    def V2_inv(self) -> np.ndarray:
        return vandermonde_inverse(self.field, self.E2)

    def member(self, c: np.ndarray) -> bool:
        return self._in_sum(self.C1, self.C2, c)

    def member_enlarged(self, c: np.ndarray) -> bool:
        return self._in_sum(self.C1p, self.C2p, c)

    def _in_sum(self, C1: ReedSolomon, C2: ReedSolomon, c: np.ndarray) -> bool:
        """c in C1 [+] C2: H1 c H2^T = 0."""
        H1c = la.matmul(self.field, C1.parity_check(), c)
        return not np.any(la.matmul(self.field, H1c, C2.parity_check().T))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n, "k1": self.k1, "k2": self.k2,
            "E1": [int(x) for x in self.E1], "E2": [int(x) for x in self.E2],
            "eps": [self.eps.numerator, self.eps.denominator],
            "rho": [self.rho.numerator, self.rho.denominator],
            "gamma": self.gamma,
        }

    @staticmethod
    def from_json(doc: dict) -> "DualTensorInstance":
        F = Field.from_json(doc["field"])
        return DualTensorInstance(F, doc["n"], doc["k1"], doc["k2"], doc["E1"], doc["E2"],
                                  *params_from_json(doc))


def params_from_json(doc: dict) -> tuple[Fraction, Fraction, int]:
    """(eps, rho, gamma) of an instance document, where eps and rho are
    [numerator, denominator] pairs of a positive fraction and gamma is an
    integer >= 1; anything else raises ValueError."""
    eps, rho, gamma = doc["eps"], doc["rho"], doc["gamma"]
    for name, frac in (("eps", eps), ("rho", rho)):
        if not (isinstance(frac, list) and len(frac) == 2
                and all(type(x) is int and x > 0 for x in frac)):
            raise ValueError(f"{name} must be [numerator, denominator] of a positive fraction")
    if type(gamma) is not int or gamma < 1:
        raise ValueError("gamma must be an integer >= 1")
    return Fraction(*eps), Fraction(*rho), gamma


# ---------------------------------------------------------------------------
# stage 1: error-locator stage
# ---------------------------------------------------------------------------


def _locator_matrix(inst: DualTensorInstance, c: np.ndarray) -> np.ndarray:
    """K: the (m1*m2) x (s+1)^2 matrix whose column (a, b) flattens the
    syndrome H1'(x1^a x2^b c)H2'^T, so K u is the syndrome of e*c for the
    locator e with coefficients u."""
    F = inst.field
    H1p = inst.C1p.parity_check()
    H2p = inst.C2p.parity_check()
    V1s = inst.V1[:, :inst.s + 1]
    V2s = inst.V2[:, :inst.s + 1]
    cols = []
    for a in range(inst.s + 1):
        Ca = la.matmul(F, F.mul(H1p, V1s[None, :, a]), c)
        for b in range(inst.s + 1):
            cols.append(la.matmul(F, Ca, F.mul(H2p, V2s[None, :, b]).T).ravel())
    return np.stack(cols, axis=1)


def _off_cell_columns(inst: DualTensorInstance, T: np.ndarray) -> np.ndarray:
    """A_off: the (m1*m2) x |off T| matrix whose column for the cell (x1, x2)
    outside T (row-major order) flattens H1'[:, x1] (x) H2'[:, x2]."""
    F = inst.field
    H1p = inst.C1p.parity_check()
    H2p = inst.C2p.parity_check()
    off = np.argwhere(~T)
    cols = F.mul(H1p[:, None, off[:, 0]], H2p[None, :, off[:, 1]])
    return cols.reshape(H1p.shape[0] * H2p.shape[0], off.shape[0])


def _eliminate(inst: DualTensorInstance, K: np.ndarray, c: np.ndarray,
               T: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The locators admissible on the cell set T, and the erasure fill of
    the a = |off T| cells off T, both read off R = rref([A_off | K]).

    R = P [A_off | K] with P invertible; its first r rows hold the pivots
    among the A_off columns, and rows r.. vanish on them.  So K u lies in
    colspan(A_off) exactly when R[r:, a:] u = 0, a block in rref whose
    kernel is the canonical free-column basis.  Column a of R is P times
    K's column (0, 0), the syndrome of c, which is that of c|T plus
    A_off c[~T]: A_off v = -syndrome of c|T is solvable exactly when
    R[r:, a] = 0 (else the fill is None), and solve_right's solution then
    takes R[:r, :a] c[~T] - R[:r, a] on the pivot cells and 0 elsewhere."""
    F, a = inst.field, int(np.count_nonzero(~T))
    R, piv = la.rref(F, np.concatenate([_off_cell_columns(inst, T), K], axis=1))
    r = sum(p < a for p in piv)
    basis = la.rref_kernel(F, R[r:, a:], [p - a for p in piv[r:]])
    if R[r:, a].any():
        return basis, None
    fill = np.zeros(a, dtype=np.int64)
    fill[piv[:r]] = F.sub(la.matvec(F, R[:r, :a], c[~T]), R[:r, a])
    return basis, fill


def _line_polys(inst: DualTensorInstance, basis: np.ndarray) -> np.ndarray:
    """The locators of the basis rows, each the flattened (s+1) x (s+1)
    coefficient matrix U_b, restricted to every line: a (2, n, r, s+1)
    array whose [0, x1, b] holds the X2 coefficients of e_b(x1, X2) and
    [1, x2, b] the X1 coefficients of e_b(X1, x2).  Each axis is one matmul
    with the blocks U_b (or U_b^T) side by side."""
    F, n, t = inst.field, inst.n, inst.s + 1
    U = basis.reshape(-1, t, t)
    rows = la.matmul(F, inst.V1[:, :t], U.transpose(1, 0, 2).reshape(t, -1))
    cols = la.matmul(F, inst.V2[:, :t], U.transpose(2, 0, 1).reshape(t, -1))
    return np.stack([rows, cols]).reshape(2, n, -1, t)


def _grid_values(inst: DualTensorInstance, basis: np.ndarray) -> np.ndarray:
    """The locators of the basis rows on the grid: an (n, r, n) array whose
    [x1, b, x2] is e_b(E1[x1], E2[x2]): the x1 line polynomials of
    _line_polys times the Vandermonde columns of E2."""
    t = inst.s + 1
    rows = _line_polys(inst, basis)[0].reshape(-1, t)
    return la.matmul(inst.field, rows, inst.V2[:, :t].T).reshape(inst.n, -1, inst.n)


def _gcd_over(F: Field, coeff_rows: np.ndarray) -> np.ndarray:
    """A gcd of the univariate polynomials in the rows of coeff_rows, up to
    a unit: a nonzero constant exactly when they are coprime; the all-zero
    set gives the zero polynomial (empty coefficient array)."""
    g = np.zeros(0, dtype=np.int64)
    for cr in coeff_rows:
        cr = uni_trim(cr)
        if cr.size == 0:
            continue
        g = cr if g.size == 0 else uni_gcd(F, g, cr)
        if g.size == 1:  # a nonzero constant: coprime already
            return g
    return g


def dec_init(inst: DualTensorInstance, c: np.ndarray) -> np.ndarray:
    """Stage 1: returns c' in C1' [+] C2' close to c (error-locator stage).

    The locator e0 spans the first kernel row of K (e0*c in C1' [+] C2').
    The locators admissible on a cell set T and the erasure fill off the
    final T are read off one elimination of [A_off | K] (_eliminate).  T
    only shrinks, and is eliminated again only when it changed.  alive[0]
    holds the live x1 and alive[1] the live x2.

    The gcd of a line's locator polynomials vanishes at a point exactly when
    every one of them does, so the cells on which some line gcd vanishes are
    the cells on which every admissible locator is zero: one grid evaluation
    finds them, and the test is the same for both axes.
    """
    F, n = inst.field, inst.n
    c = np.asarray(c, dtype=np.int64).reshape(n, n)
    K = _locator_matrix(inst, c)
    ker = la.right_kernel(F, K)
    if ker.shape[0] == 0:
        raise PromiseViolation("no nonzero error locator e0 exists")
    supp = _grid_values(inst, ker[:1])[:, 0] != 0
    # a line polynomial of e0 has degree <= s < n, so it is nonzero exactly
    # when it is nonzero at one of the n points of its line
    alive = np.stack([supp.any(axis=1), supp.any(axis=0)])
    last = [None, None]  # the last cell set eliminated, and what it gave

    def eliminated() -> tuple[np.ndarray, np.ndarray | None]:
        T = supp & np.outer(*alive)
        if not np.array_equal(last[0], T):
            last[:] = T, _eliminate(inst, K, c, T)
        return last[1]

    # while every admissible locator vanishes on a live cell, remove the
    # first such cell in row-major order with its row and column
    zero = ~_grid_values(inst, eliminated()[0]).any(axis=1)
    while (hit := np.argwhere(zero & np.outer(*alive))).size:
        alive[0, hit[0, 0]] = alive[1, hit[0, 1]] = False

    # keep the live lines whose gcd over the shrunken support is a nonzero
    # constant, whatever its scale: a gcd of higher degree may have no root
    # in GF(q), which grid values cannot see
    lines = _line_polys(inst, eliminated()[0])
    for axis, x in np.argwhere(alive):
        alive[axis, x] = _gcd_over(F, lines[axis, x]).size == 1

    # erasure fill: any c' in C1' [+] C2' agreeing with c on the final cells
    T = supp & np.outer(*alive)
    cp = np.where(T, c, 0)
    if not T.all():
        fill = eliminated()[1]
        if fill is None:
            raise PromiseViolation("erasure fill infeasible")
        cp[~T] = fill
    if not inst.member_enlarged(cp):
        raise PromiseViolation("stage-1 output escaped the enlarged code")
    return cp


# ---------------------------------------------------------------------------
# stage 2: degree reduction
# ---------------------------------------------------------------------------


def clean_stripes(F: Field, word: np.ndarray, interp: np.ndarray, basis: np.ndarray,
                  points: np.ndarray, k: int, radius: int, failure) -> np.ndarray:
    """The residue that per-stripe RS decoding strips off word.

    The stripe words interp @ word decode in one berlekamp_welch batch
    against RS_points(k) within radius, and their residues enter the word
    through basis: the result is basis @ (stripes - codewords).  Raises
    PromiseViolation(failure(i)) at the first stripe i that fails."""
    stripes = la.matmul(F, interp, word)
    ok, cw = berlekamp_welch(F, points, k, stripes, radius)
    if not ok.all():
        raise PromiseViolation(failure(int(np.argmin(ok))))
    return la.matmul(F, basis, F.sub(stripes, cw))


def dec_close(inst: DualTensorInstance, cp: np.ndarray) -> np.ndarray:
    """Stage 2: strip the s extra coefficient rows/columns by per-stripe RS
    decoding, landing in C1 [+] C2.

    With Fc = V1^-1 cp V2^-T the coefficient matrix of cp, the stripe word of
    coefficient row j1 is V2 Fc[j1] = (V1^-1 cp)[j1], and that of coefficient
    column j2 is V1 Fc[:, j2] = (V2^-1 cp^T)[j2]: both come straight from the
    s interpolation rows that the stage needs.  The rows clean cp and the
    columns clean cp^T, each through clean_stripes, and both residues are
    taken from cp."""
    F = inst.field
    n, s, k1, k2 = inst.n, inst.s, inst.k1, inst.k2
    cp = np.asarray(cp, dtype=np.int64).reshape(n, n)
    rows = clean_stripes(F, cp, inst.V1_inv[k1:k1 + s], inst.V1[:, k1:k1 + s], inst.E2,
                         k2 + s, inst.stripe_radius(k2 + s),
                         lambda i: f"stripe decode failed on coefficient row {k1 + i}")
    cols = clean_stripes(F, cp.T, inst.V2_inv[k2:k2 + s], inst.V2[:, k2:k2 + s], inst.E1,
                         k1 + s, inst.stripe_radius(k1 + s),
                         lambda i: f"stripe decode failed on coefficient column {k2 + i}")
    out = F.sub(F.sub(cp, rows), cols.T)
    if not inst.member(out):
        raise PromiseViolation("stage-2 output is not in C1 [+] C2")
    return out


# ---------------------------------------------------------------------------
# stage 3: greedy peeling
# ---------------------------------------------------------------------------


def dec_finish(inst: DualTensorInstance, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Stage 3: repeatedly peel single-column/row codewords within the peel
    radius t; strictly decreases |y| each step, at most n^2 iterations.

    Each sweep peels the first column, then the first row, in index order
    whose decode within t is a nonzero codeword: the columns are the lines
    of y^T in C1, the rows those of y in C2.  Here k + 2t < n for both
    codes, as berlekamp_welch requires: t = ceil(eps n / 2) - 1 < eps n / 2
    and k1 + k2 <= (1 - eps) n give k1 + 2t < n and k2 + 2t < n.  So the
    codeword within t of a line is unique, and a line of weight <= t, within
    t of the zero codeword, decodes to zero: only lines heavier than t are
    decoded, and line weights are counted once per scan."""
    F = inst.field
    n = inst.n
    y = np.asarray(y, dtype=np.int64).reshape(n, n).copy()
    t = inst.peel_radius
    iters = 0
    while True:
        progressed = False
        for lines, points, k in ((y.T, inst.E1, inst.k1), (y, inst.E2, inst.k2)):
            for x in np.nonzero(np.count_nonzero(lines, axis=1) > t)[0]:
                cw = berlekamp_welch(F, points, k, lines[x][None, :], t).words[0]
                if cw.any():
                    lines[x] = F.sub(lines[x], cw)
                    progressed = True
                    break
        if not progressed:
            return y, iters
        iters += 1
        if iters > n * n:
            raise AssertionError("peeling exceeded the n^2 iteration bound")


# ---------------------------------------------------------------------------
# full alpha-decoder
# ---------------------------------------------------------------------------


@dataclass
class AlphaResult:
    word: np.ndarray
    fallback: bool
    residual: int
    stages: dict = dfield(default_factory=dict)


def alpha_decode(inst: DualTensorInstance, c: np.ndarray) -> AlphaResult:
    """Total decoder: always outputs a codeword of C1 [+] C2; within alpha
    times the optimal distance whenever the input satisfies the promise
    d(c, code) <= d0.  FALLBACK marks the arbitrary-codeword escape hatch."""
    F = inst.field
    n = inst.n
    c = np.asarray(c, dtype=np.int64).reshape(n, n)
    if inst.member(c):
        return AlphaResult(c.copy(), False, 0, {"path": "membership"})
    if inst.d0 < 1:
        return AlphaResult(np.zeros((n, n), dtype=np.int64), True,
                           int(np.count_nonzero(c)),
                           {"path": "membership", "reason": "promise radius d0 < 1"})
    try:
        cp = dec_init(inst, c)
        s1 = int(np.count_nonzero(F.sub(cp, c)))
        cpp = dec_close(inst, cp)
        y = F.sub(cpp, c)
        yp, iters = dec_finish(inst, y)
        out = F.add(c, yp)
        if not inst.member(out):
            raise PromiseViolation("final output not a codeword")
        return AlphaResult(out, False, int(np.count_nonzero(F.sub(out, c))),
                           {"path": "pipeline", "stage1_residual": s1,
                            "stage3_weight": int(np.count_nonzero(yp)),
                            "peel_iterations": iters})
    except PromiseViolation as exc:
        return AlphaResult(np.zeros((n, n), dtype=np.int64), True,
                           int(np.count_nonzero(c)),
                           {"path": "fallback", "reason": str(exc)})


# ---------------------------------------------------------------------------
# planted instances
# ---------------------------------------------------------------------------


def random_codeword(inst: DualTensorInstance, rng: np.random.Generator) -> np.ndarray:
    """Uniform element of C1 [+] C2 written as column-part + row-part."""
    F = inst.field
    n = inst.n
    colpart = la.matmul(F, inst.C1.gen.T, F.random(rng, (inst.k1, n))) \
        if inst.k1 else np.zeros((n, n), dtype=np.int64)
    rowpart = la.matmul(F, F.random(rng, (n, inst.k2)), inst.C2.gen) \
        if inst.k2 else np.zeros((n, n), dtype=np.int64)
    return F.add(colpart, rowpart)


def random_error(F: Field, n: int, weight: int, rng: np.random.Generator) -> np.ndarray:
    """error_vector on the n x n grid."""
    return error_vector(F, n * n, weight, rng).reshape(n, n)
