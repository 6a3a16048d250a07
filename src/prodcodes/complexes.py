"""Single-sector chain complexes over characteristic-2 fields.

A complex is one square boundary matrix with boundary^2 = 0; the associated
quantum code, homological products, homology dimensions, systolic distances
and filling constants all live here.  Vectors are rows; the boundary acts by
v -> (boundary @ v^T)^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import Field
from . import linalg as la
from .rng import stream
from .codes import DistanceResult, LinearCode, DEFAULT_DISTANCE_BUDGET


class SingleSectorComplex:
    """(C, boundary) with boundary^2 = 0 over a characteristic-2 field."""

    def __init__(self, field: Field, boundary: np.ndarray):
        if field.p != 2:
            raise ValueError("single-sector products are restricted to characteristic 2")
        boundary = np.atleast_2d(np.asarray(boundary, dtype=np.int64))
        if boundary.shape[0] != boundary.shape[1]:
            raise ValueError("boundary matrix must be square")
        sq = la.matmul(field, boundary, boundary)
        if np.any(sq):
            raise ValueError("boundary^2 != 0")
        self.field = field
        self.boundary = boundary
        self.boundary.setflags(write=False)
        self.dim = boundary.shape[0]
        self._cycles: np.ndarray | None = None
        self._boundaries: np.ndarray | None = None

    @property
    def locality(self) -> int:
        if self.dim == 0:
            return 0
        rw = int(np.count_nonzero(self.boundary, axis=1).max())
        cw = int(np.count_nonzero(self.boundary, axis=0).max())
        return max(rw, cw)

    # subspaces --------------------------------------------------------------

    def cycles(self) -> np.ndarray:
        if self._cycles is None:
            self._cycles = la.right_kernel(self.field, self.boundary)
        return self._cycles

    def boundaries(self) -> np.ndarray:
        if self._boundaries is None:
            self._boundaries = la.row_space(self.field, self.boundary.T)
        return self._boundaries

    def cocycles(self) -> np.ndarray:
        return la.right_kernel(self.field, self.boundary.T)

    def homology_dim(self) -> int:
        return self.cycles().shape[0] - self.boundaries().shape[0]

    def transpose(self) -> "SingleSectorComplex":
        return SingleSectorComplex(self.field, self.boundary.T)

    # homology bases ----------------------------------------------------------

    def homology_reps(self) -> np.ndarray:
        """Cycle representatives completing the boundary basis to the cycles."""
        return la.complete_basis(self.field, self.boundaries(), self.cycles())

    def associated_code(self) -> tuple[LinearCode, LinearCode]:
        """(Q_X, Q_Z) = (ker coboundary, ker boundary)."""
        qx = LinearCode(self.field, self.dim, self.cocycles(), label="Q_X")
        qz = LinearCode(self.field, self.dim, self.cycles(), label="Q_Z")
        return qx, qz

    def __repr__(self) -> str:
        return f"SingleSectorComplex(dim={self.dim}, k={self.homology_dim()})"


def from_css(qx: LinearCode, qz: LinearCode) -> SingleSectorComplex:
    """Complex with boundary = H_X^T H_Z from a CSS pair with equal dims,
    H_X and H_Z the codes' own (full-rank) parity checks."""
    if qx.field != qz.field or qx.n != qz.n:
        raise ValueError("codes must share field and length")
    if qx.k != qz.k:
        raise ValueError("dim Q_X != dim Q_Z")
    F = qx.field
    hx, hz = qx.parity_check(), qz.parity_check()
    if np.any(la.matmul(F, hz, hx.T)):
        raise ValueError("CSS orthogonality H_Z H_X^T = 0 fails")
    boundary = la.matmul(F, hx.T, hz)
    return SingleSectorComplex(F, boundary)


def hom_product(A: SingleSectorComplex, B: SingleSectorComplex) -> SingleSectorComplex:
    """Homological product: boundary = dA (x) I + I (x) dB (characteristic 2)."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    F = A.field
    boundary = F.add(*la.axis_blocks(F, [A.boundary, B.boundary], [A.dim, B.dim]))
    return SingleSectorComplex(F, boundary)


# ---------------------------------------------------------------------------
# distances and filling
# ---------------------------------------------------------------------------


# seed and draws of the sampled systolic distance
SYSTOLIC_SEED = 0
SYSTOLIC_TRIALS = 5000


def systolic_distance(C: SingleSectorComplex,
                      budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Min weight over cycles that are not boundaries; exact, by one scan of
    the q^dim(Z) cycles, when (q^k - 1) * q^dim(B) fits the budget."""
    F = C.field
    k = C.homology_dim()
    if k == 0:
        return DistanceResult(math.inf, True, "zero-homology")
    bnd = C.boundaries()
    total = (F.q ** k - 1) * (F.q ** bnd.shape[0])
    if total <= budget:
        w, _ = la.min_weight_search(F, C.cycles(), np.zeros((1, C.dim), dtype=np.int64),
                                    exclude=la.right_kernel(F, bnd))
        return DistanceResult(int(w[0]), True, "coset-enumeration")
    reps = C.homology_reps()
    rng = stream(SYSTOLIC_SEED)
    best = C.dim + 1
    for _ in range(SYSTOLIC_TRIALS):
        coef = F.random(rng, k)
        if not coef.any():
            continue
        v = la.matmul(F, coef[None, :], reps)[0]
        if bnd.shape[0]:
            v = F.add(v, la.matmul(F, F.random(rng, bnd.shape[0])[None, :], bnd)[0])
        best = min(best, la.weight(v))
    return DistanceResult(best, False, "coset-sampling-upper-bound")


@dataclass
class FillingEstimate:
    mu_hat: float          # lower estimate of the filling constant
    trials: int
    exact_preimages: bool
    samples: list


def filling_constant_estimate(C: SingleSectorComplex, trials: int, seed: int,
                              budget: int = DEFAULT_DISTANCE_BUDGET) -> FillingEstimate:
    """max over sampled boundaries b of min{|c| : boundary(c) = b} / |b|.

    Preimage minimization is exact (kernel coset enumeration) when q^dim(Z)
    fits the budget, otherwise randomized descent over kernel directions.
    """
    F = C.field
    rng = stream(seed)
    cyc = C.cycles()
    exact = F.q ** cyc.shape[0] <= budget
    xs, b_ws, pres = [], [], []
    attempts = 0
    while len(xs) < trials and attempts < trials * 20:
        attempts += 1
        x = F.random(rng, C.dim)
        b = la.matvec(F, C.boundary, x)
        if not b.any():
            continue
        xs.append(x)
        b_ws.append(la.weight(b))
        if not exact:
            pres.append(_descend(F, x, cyc, rng))
    if exact:
        pres = la.min_weight_search(F, cyc, np.array(xs, dtype=np.int64).reshape(-1, C.dim))[0]
    samples = [(b_w, int(pre), int(pre) / b_w) for b_w, pre in zip(b_ws, pres)]
    best = max((r for *_, r in samples), default=0.0)
    return FillingEstimate(best, len(samples), exact, samples)


def _descend(F: Field, x: np.ndarray, kernel: np.ndarray, rng: np.random.Generator) -> int:
    """Least weight found in x + span(kernel) by greedy descent from four
    random restarts."""
    best = la.weight(x)
    for _ in range(4):
        cur = x.copy()
        if kernel.shape[0]:
            coef = F.random(rng, kernel.shape[0])
            cur = F.add(cur, la.matmul(F, coef[None, :], kernel)[0])
        improved = True
        while improved:
            improved = False
            for row in kernel:
                for scalar in range(1, F.q):
                    cand = F.add(cur, F.mul(np.int64(scalar), row))
                    if la.weight(cand) < la.weight(cur):
                        cur = cand
                        improved = True
        best = min(best, la.weight(cur))
    return best
