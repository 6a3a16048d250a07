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
from .codes import BudgetExceeded, DistanceResult, LinearCode, DEFAULT_DISTANCE_BUDGET


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
        return la.locality(self.boundary)

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
    # boundary^2 = H_X^T (H_Z H_X^T) H_Z, H_X^T 1-1, H_Z onto: the complex checks orthogonality
    return SingleSectorComplex(F, la.matmul(F, qx.parity_check().T, qz.parity_check()))


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


def systolic_distance(C: SingleSectorComplex,
                      budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Min weight over cycles that are not boundaries, exact by one scan of
    the q^dim(Z) cycles; BudgetExceeded when that count exceeds budget."""
    F = C.field
    if C.homology_dim() == 0:
        return DistanceResult(math.inf, True, "zero-homology")
    cyc = C.cycles()
    count = F.q ** cyc.shape[0]
    if count > budget:
        raise BudgetExceeded(f"systolic_distance needs {count} cycle words > budget {budget}")
    w, _ = la.min_weight_search(F, cyc, np.zeros((1, C.dim), dtype=np.int64),
                                exclude=la.right_kernel(F, C.boundaries()))
    return DistanceResult(int(w[0]), True, "coset-enumeration")


@dataclass
class FillingEstimate:
    mu_hat: float          # lower estimate of the filling constant
    trials: int
    exact_preimages: bool  # always True; read by the verify-oracles benchmark
    samples: list


def filling_constant_estimate(C: SingleSectorComplex, trials: int, seed: int,
                              budget: int = DEFAULT_DISTANCE_BUDGET) -> FillingEstimate:
    """max over sampled boundaries b of min{|c| : boundary(c) = b} / |b|.

    Each preimage minimum is exact, by one scan of the q^dim(Z) cycles;
    BudgetExceeded, before any draw, when that count exceeds the budget.
    """
    F = C.field
    cyc = C.cycles()
    count = F.q ** cyc.shape[0]
    if count > budget:
        raise BudgetExceeded(f"filling_constant_estimate needs {count} cycle words per "
                             f"preimage > budget {budget}")
    rng = stream(seed)
    xs, b_ws, attempts = [], [], 0
    while len(xs) < trials and attempts < trials * 20:
        attempts += 1
        x = F.random(rng, C.dim)
        b = la.matvec(F, C.boundary, x)
        if not b.any():
            continue
        xs.append(x)
        b_ws.append(int(np.count_nonzero(b)))
    pres = la.min_weight_search(F, cyc, np.array(xs, dtype=np.int64).reshape(-1, C.dim))[0]
    samples = [(b_w, int(pre), int(pre) / b_w) for b_w, pre in zip(b_ws, pres)]
    best = max((r for *_, r in samples), default=0.0)
    return FillingEstimate(best, len(samples), True, samples)
