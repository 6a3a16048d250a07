"""CSS and subsystem CSS codes, subsystem products, distance accounting,
and the tensor / amplified check matrices used for single-shot decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field
from . import linalg as la
from .codes import (DEFAULT_DISTANCE_BUDGET, BudgetExceeded, DistanceResult, LinearCode,
                    rs_code, tensor)


class CssPair:
    """Ordered pair (Q_X, Q_Z); with subsystem=False, Q_X^perp <= Q_Z is enforced."""

    def __init__(self, qx: LinearCode, qz: LinearCode, subsystem: bool = False,
                 label: str = ""):
        if qx.field != qz.field:
            raise ValueError("field mismatch")
        if qx.n != qz.n:
            raise ValueError("length mismatch")
        if not subsystem:
            if not la.row_space_contains(qx.field, qz.gen, qx.dual().gen):
                raise ValueError("CSS condition Q_X^perp <= Q_Z fails")
        self.qx = qx
        self.qz = qz
        self.subsystem = subsystem
        self.label = label
        self.factors: list["CssPair"] | None = None
        self._stab: np.ndarray | None = None

    @property
    def field(self) -> Field:
        return self.qx.field

    @property
    def n(self) -> int:
        return self.qx.n

    def stabilizer_basis(self) -> np.ndarray:
        """Basis of S = Q_Z intersect Q_X^perp."""
        if self._stab is None:
            self._stab = la.row_space_intersection(
                self.field, self.qz.gen, self.qx.dual().gen)
        return self._stab

    @property
    def dimension(self) -> int:
        return self.qz.k - self.stabilizer_basis().shape[0]

    def logical_z_space(self) -> np.ndarray:
        """Basis of Q_Z' = Q_Z + Q_X^perp."""
        return la.row_space(self.field,
                            np.concatenate([self.qz.gen, self.qx.dual().gen], axis=0))

    def logical_x_space(self) -> np.ndarray:
        return la.row_space(self.field,
                            np.concatenate([self.qx.gen, self.qz.dual().gen], axis=0))

    def swap(self) -> "CssPair":
        return CssPair(self.qz, self.qx, subsystem=self.subsystem,
                       label=f"swap({self.label})")

    def to_json(self) -> dict:
        return {"qx": self.qx.to_json(), "qz": self.qz.to_json(),
                "subsystem": self.subsystem, "label": self.label}

    @staticmethod
    def from_json(doc: dict) -> "CssPair":
        """The pair of a serialized document; malformed codes, a non-bool
        subsystem flag or a non-string label raise ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"a CSS pair must be a JSON object, got {doc!r}")
        subsystem, label = doc["subsystem"], doc.get("label", "")
        if not isinstance(subsystem, bool):
            raise ValueError(f"pair subsystem must be a bool, got {subsystem!r}")
        if not isinstance(label, str):
            raise ValueError(f"pair label must be a string, got {label!r}")
        return CssPair(LinearCode.from_json(doc["qx"]), LinearCode.from_json(doc["qz"]),
                       subsystem=subsystem, label=label)

    def __repr__(self) -> str:
        kind = "subsystem" if self.subsystem else "css"
        return f"CssPair[{kind}; n={self.n}, k={self.dimension}]"


def quantum_rs(F: Field, n: int, kx: int, kz: int) -> CssPair:
    """Quantum Reed-Solomon pair (RS(n,kx), RS(n,kz)) on the canonical
    points; needs kx + kz >= n."""
    if kx + kz < n:
        raise ValueError(f"kx + kz = {kx + kz} < n = {n}: orthogonality fails")
    qx = rs_code(F, n, kx)
    qz = rs_code(F, n, kz)
    return CssPair(qx, qz, subsystem=False, label=f"qRS({n},{kx},{kz})")


def subsystem_product(factors: list[CssPair]) -> CssPair:
    """Component-wise tensor product of CSS pairs; dimension multiplies,
    locality (of the natural checks) adds."""
    if not factors:
        raise ValueError("need at least one factor")
    if any(f.subsystem for f in factors):
        raise ValueError("factors must be non-subsystem CSS pairs")
    if len({f.field for f in factors}) != 1:
        raise ValueError("factors must share a field")
    if len(factors) == 1:
        return factors[0]
    out = CssPair(tensor(*(f.qx for f in factors)), tensor(*(f.qz for f in factors)),
                  subsystem=True, label=" (x) ".join(f.label or "?" for f in factors))
    out.factors = list(factors)
    return out


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def _side_distance(F: Field, logical_space: np.ndarray, gauge_par: np.ndarray) -> float:
    """Min weight over the words of span(logical_space) that the gauge
    parity map gauge_par does not kill, i.e. outside the gauge span."""
    n = logical_space.shape[1]
    w = int(la.min_weight_search(F, logical_space, np.zeros((1, n), dtype=np.int64),
                                 exclude=gauge_par)[0][0])
    return math.inf if w > n else w


def subsystem_distance(Q: CssPair, budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Subsystem distance: min weight over the two dressed-logical classes
    (Q_X + Q_Z^perp) setminus Q_Z^perp and (Q_Z + Q_X^perp) setminus Q_X^perp;
    the generator of Q_X is a parity map of the gauge Q_X^perp, and that of
    Q_Z of Q_Z^perp.  Exact by one scan of each logical span; BudgetExceeded,
    before either scan, when a span has more than budget words."""
    F = Q.field
    spans = Q.logical_z_space(), Q.logical_x_space()
    count = F.q ** max(span.shape[0] for span in spans)
    if count > budget:
        raise BudgetExceeded(f"subsystem_distance needs {count} logical words > budget {budget}")
    val = min(_side_distance(F, spans[0], Q.qx.gen), _side_distance(F, spans[1], Q.qz.gen))
    return DistanceResult(val, True, "coset-enumeration")


def logical_coset_equal(Q: CssPair, side: str, r1: np.ndarray, r2: np.ndarray) -> bool:
    """Whether two representatives define the same coset modulo the gauge
    space (Q_X^perp for side='z', Q_Z^perp for side='x'): the difference is
    in Q_X^perp exactly when the generator of Q_X kills it."""
    gen = Q.qx.gen if side == "z" else Q.qz.gen
    diff = Q.field.sub(np.asarray(r1, dtype=np.int64), np.asarray(r2, dtype=np.int64))
    return not la.matvec(Q.field, gen, diff).any()


# ---------------------------------------------------------------------------
# check matrices
# ---------------------------------------------------------------------------


@dataclass
class CheckMatrices:
    """Check matrices over their field, with factorizations built on first use."""

    field: Field
    hx: np.ndarray
    hz: np.ndarray
    locality: int
    style: str

    @cached_property
    def solve_x(self):
        """Syndrome rows s to the rows c with hx c = s that la.solve_right
        gives, or None: the rref of [hx | I] is unique."""
        return la.left_solver(self.field, self.hx.T)

    @cached_property
    def solve_z(self):
        return la.left_solver(self.field, self.hz.T)

    @cached_property
    def image_z(self) -> np.ndarray:
        """rref basis of the image of hz (the syndromes of Z-type words)."""
        return la.row_space(self.field, self.hz.T)

    def to_json(self) -> dict:
        return {"hx": [int(x) for x in self.hx.ravel()], "hx_rows": self.hx.shape[0],
                "hz": [int(x) for x in self.hz.ravel()], "hz_rows": self.hz.shape[0],
                "n": self.hx.shape[1], "locality": self.locality, "style": self.style}


def check_matrices(Q: CssPair, style: str = "tensor") -> CheckMatrices:
    """Parity checks of a subsystem product.

    'tensor' stacks the factor checks H_i (x) I; 'amplified' first encodes
    each factor syndrome with a rate-1/2 Reed-Solomon outer code (H_i' =
    G_i H_i) so that the syndrome spaces become linear-distance codes.
    """
    if Q.factors is None:
        raise ValueError("check matrices require a product built by subsystem_product")
    F = Q.field
    lengths = [f.n for f in Q.factors]
    hxs = [f.qx.parity_check() for f in Q.factors]
    hzs = [f.qz.parity_check() for f in Q.factors]
    if style == "amplified":
        hxs = [_amplify(F, H) for H in hxs]
        hzs = [_amplify(F, H) for H in hzs]
    elif style != "tensor":
        raise ValueError(f"unknown style {style!r}")
    hx = np.concatenate(la.axis_blocks(F, hxs, lengths), axis=0)
    hz = np.concatenate(la.axis_blocks(F, hzs, lengths), axis=0)
    return CheckMatrices(F, hx, hz, la.locality(hx, hz), style)


def _amplify(F: Field, H: np.ndarray) -> np.ndarray:
    """Replace H by G H for a rate-1/2 RS generator, doubling the rows while
    keeping the kernel; the image becomes an RS code of distance m + 1."""
    m = H.shape[0]
    if m == 0:
        return H
    if 2 * m > F.q:
        raise ValueError(f"amplified checks need q >= 2m (q={F.q}, m={m})")
    outer = rs_code(F, 2 * m, m)
    return la.matmul(F, outer.gen.T, H)


def amplified_z_stripes(factors: list[CssPair]) -> list[tuple[np.ndarray, int]]:
    """Where the outer Reed-Solomon stripes of an amplified two-factor
    Z-syndrome lie: for each block, the (stripes, 2m) array of positions and
    the outer dimension m.  Block 1, H_1' (x) I, holds one stripe down each
    column of its (2 m1, n2) grid; block 2, I (x) H_2', one along each row
    of its (n1, 2 m2) grid."""
    (n1, m1), (n2, m2) = ((f.n, f.qz.parity_check().shape[0]) for f in factors)
    split = 2 * m1 * n2
    return [(np.arange(split).reshape(2 * m1, n2).T, m1),
            (split + np.arange(n1 * 2 * m2).reshape(n1, 2 * m2), m2)]
