"""Quantum-level decoding for products of quantum Reed-Solomon codes.

Covers the coefficient-extraction subroutine that moves a dual-tensor
decoding into the quantum code space (dec_quantum), delta-decoders for both
the homological-product CSS codes and the subsystem products, the syndrome
formulation (reduce to the word formulation by Gaussian elimination), and
single-shot decoding from noisy syndromes over amplified product checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import Field
from . import linalg as la
from .codes import BudgetExceeded, ReedSolomon, canonical_points
from .complexes import SingleSectorComplex, from_css, hom_product
from .decoder import (DualTensorInstance, PromiseViolation, alpha_decode,
                      berlekamp_welch, clean_stripes, params_from_json)
from .subsystem import CheckMatrices, CssPair, amplified_z_stripes, subsystem_product


class InconsistentInput(RuntimeError):
    """The provided syndrome is not in the image of the check matrix."""


@dataclass
class CorrectionCoset:
    representative: np.ndarray


# ---------------------------------------------------------------------------
# Algorithm: coefficient-stripe cleanup into Q_Z'
# ---------------------------------------------------------------------------


def dec_quantum(inst: SubsystemProductInstance, c0: np.ndarray) -> np.ndarray:
    """Move c0 in ev^{[0,k1)} [+] ev^{[0,k2p)}, the code of dt = inst.z_dt
    (k1 = dt.k1, k2p = dt.k2), into
    Q_Z' = ev^{([0,k1) x [0,n)) u ([0,n) x [0,k2)) u ([0,k1p) x [0,k2p))}
    with k1p = dim Q^1_Z and k2 = n - dim Q^2_X, by decoding each coefficient
    column j2 in [k2, k2p) against the length-n RS code of dimension k1p
    within the product's stripe radius, on the evaluation points E1 x E2.

    The stripe word of coefficient column j2 is (V2^-1 c0^T)[j2], so only
    the interpolation rows [k2, k2p) of dt's cached V2^-1 are needed: the
    columns clean c0^T through clean_stripes, as in stage 2 of the decoder.
    """
    dt, (f1, f2) = inst.z_dt, inst.factors
    F, n, k1p, k2p = dt.field, dt.n, f1.qz.k, dt.k2
    k2 = n - f2.qx.k
    c0 = np.asarray(c0, dtype=np.int64).reshape(n, n)
    cols = clean_stripes(F, c0.T, dt.V2_inv[k2:k2p], dt.V2[:, k2:k2p], dt.E1, k1p,
                         inst.params.stripe_radius(n, k1p),
                         lambda i: f"quantum stripe decode failed at column {k2 + i}")
    return F.sub(c0, cols.T)


# ---------------------------------------------------------------------------
# product instances
# ---------------------------------------------------------------------------


@dataclass
class QdecParams:
    eps: Fraction
    rho: Fraction = Fraction(1, 8)
    gamma: int = 1000

    @property
    def delta_prime(self) -> Fraction:
        return self.eps * self.rho / 4

    @property
    def delta(self) -> Fraction:
        # reference formula rho*eps*delta'/(50*alpha), 50 rescaled by gamma and
        # 1/alpha = (rho*eps/gamma)^2 (DualTensorInstance.alpha)
        re = self.rho * self.eps
        return re * self.delta_prime * Fraction(20, self.gamma) * (re / self.gamma) ** 2

    def stripe_radius(self, n: int, kdim: int) -> int:
        exact = Fraction(40, self.gamma) * self.eps * self.delta_prime * n
        return min(int(exact), (n - kdim) // 2)


@dataclass
class SubsystemProductInstance:
    """Subsystem product of two quantum RS pairs plus decoding parameters."""

    factors: list[CssPair]
    params: QdecParams

    KIND = "subsystem-product"

    def __post_init__(self):
        if len(self.factors) != 2:
            raise ValueError("the decoder covers two-factor products")
        if any(f.subsystem for f in self.factors):
            raise ValueError("factors must be non-subsystem CSS pairs")
        for i, f in enumerate(self.factors):
            for side, code in (("qx", f.qx), ("qz", f.qz)):
                if not isinstance(code, ReedSolomon):
                    raise ValueError(f"factors[{i}].{side} is not a Reed-Solomon code")
        f1, f2 = self.factors
        n = f1.n
        eps = self.params.eps
        # the X side's rate condition; the Z side's, and s < n, are z_dt's
        if (n - f1.qz.k) + f2.qx.k > (1 - eps) * n:
            raise ValueError("rate conditions of the product decoder fail for eps")
        self.z_dt
        if f1.qz.k > (1 - eps) * n or f1.qx.k > (1 - eps) * n:
            raise ValueError("first-factor dimensions must stay <= (1 - eps) n")

    @classmethod
    def from_json(cls, doc: dict):
        """The instance of a two-factor product document; a malformed or
        out-of-range field raises ValueError."""
        factors = doc["factors"]
        if not (isinstance(factors, list) and all(isinstance(f, dict) for f in factors)):
            raise ValueError("factors must be a list of CSS pair objects")
        return cls([CssPair.from_json(f) for f in factors], QdecParams(*params_from_json(doc)))

    @cached_property
    def product(self) -> CssPair:
        return subsystem_product(self.factors)

    @property
    def field(self) -> Field:
        return self.factors[0].field

    @property
    def n(self) -> int:
        return self.factors[0].n

    @cached_property
    def z_dt(self) -> DualTensorInstance:
        """Dual tensor instance containing Q_Z': (Q^1_X)^perp [+] Q^2_Z."""
        f1, f2 = self.factors
        return DualTensorInstance(
            self.field, self.n, self.n - f1.qx.k, f2.qz.k,
            f1.qx.points, f2.qz.points,
            self.params.eps, self.params.rho, self.params.gamma)

    @cached_property
    def swapped(self) -> SubsystemProductInstance:
        """The instance of the swapped pairs (Q_Z, Q_X): its Z side is this
        instance's X side.  The rate conditions are symmetric in the swap."""
        return SubsystemProductInstance([f.swap() for f in self.factors], self.params)

    @property
    def x_dt(self) -> DualTensorInstance:
        """Dual tensor instance containing Q_X': (Q^1_Z)^perp [+] Q^2_X."""
        return self.swapped.z_dt

    @cached_property
    def search_parity(self) -> np.ndarray:
        """Parity checks of Q_Z + Q_X^perp, the single-shot search's modulus."""
        prod = self.product
        return la.right_kernel(self.field, np.concatenate(
            [prod.qz.gen, prod.qx.dual().gen], axis=0))

    def to_json(self) -> dict:
        return {"kind": self.KIND,
                "factors": [f.to_json() for f in self.factors],
                "eps": [self.params.eps.numerator, self.params.eps.denominator],
                "rho": [self.params.rho.numerator, self.params.rho.denominator],
                "gamma": self.params.gamma}


@dataclass
class QuantumDecodeResult:
    coset_x: CorrectionCoset
    coset_z: CorrectionCoset
    fallback_x: bool
    fallback_z: bool

    @property
    def fallback(self) -> bool:
        return self.fallback_x or self.fallback_z


def _decode_side(inst: SubsystemProductInstance, word: np.ndarray,
                 side: str) -> tuple[np.ndarray, bool]:
    """Shared pipeline: alpha-decode in the enclosing dual tensor code, then
    stripe cleanup into Q_Z'.  The X side (side='x') is the Z side of the
    swapped instance, whose cleanup lands in Q_X'."""
    if side == "x":
        inst = inst.swapped
    res = alpha_decode(inst.z_dt, np.asarray(word, dtype=np.int64).reshape(inst.n, inst.n))
    return dec_quantum(inst, res.word), res.fallback


def subsystem_decode(inst: SubsystemProductInstance, c_x: np.ndarray,
                     c_z: np.ndarray) -> QuantumDecodeResult:
    """Subsystem delta-decoder: representatives of the gauge cosets closest
    to the corrupted words (the cleanup output itself is the representative)."""
    rep_z, fb_z = _decode_side(inst, c_z, "z")
    rep_x, fb_x = _decode_side(inst, c_x, "x")
    return QuantumDecodeResult(CorrectionCoset(rep_x.ravel()),
                               CorrectionCoset(rep_z.ravel()),
                               fb_x, fb_z)


class CssProductInstance(SubsystemProductInstance):
    """Homological product of the single-sector complexes of two quantum RS
    pairs with dim Q_X = dim Q_Z (so the boundary map construction applies).
    Its decoder runs the subsystem product's sides, so the same rate
    conditions hold; from_css checks each factor's pair."""

    KIND = "css-product"

    def __post_init__(self):
        super().__post_init__()
        self.complexes

    @cached_property
    def complexes(self) -> list[SingleSectorComplex]:
        return [from_css(f.qx, f.qz) for f in self.factors]

    @cached_property
    def product_complex(self) -> SingleSectorComplex:
        return hom_product(self.complexes[0], self.complexes[1])

    @cached_property
    def code(self) -> CssPair:
        qx, qz = self.product_complex.associated_code()
        return CssPair(qx, qz, subsystem=False, label="hom-product")

    @cached_property
    def project_z(self):
        """left_solver of [Q_Z; (Q^1_X (x) Q^2_X)^perp], for projecting c_z."""
        return la.left_solver(self.field, np.concatenate(
            [self.code.qz.gen, self.product.qx.dual().gen]))

    @cached_property
    def project_x(self):
        return la.left_solver(self.field, np.concatenate(
            [self.code.qx.gen, self.product.qz.dual().gen]))


def css_decode(inst: CssProductInstance, c_x: np.ndarray, c_z: np.ndarray
               ) -> QuantumDecodeResult:
    """Delta-decoder for the homological-product CSS code: pipeline output is
    projected to the unique logical coset of Q_Z/Q_X^perp inside the cleanup
    coset modulo (Q^1_X (x) Q^2_X)^perp.

    Raises PromiseViolation when a stripe decode or the coset projection
    fails, i.e. the input was outside the decoding promise."""
    F = inst.field
    code = inst.code
    rep_z, fb_z = _decode_side(inst, c_z, "z")
    rep_x, fb_x = _decode_side(inst, c_x, "x")
    z = _project_coset(F, inst.project_z, code.qz.gen, rep_z.ravel())
    x = _project_coset(F, inst.project_x, code.qx.gen, rep_x.ravel())
    return QuantumDecodeResult(CorrectionCoset(x),
                               CorrectionCoset(z), fb_x, fb_z)


def _project_coset(F: Field, solve, code_gen: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """The element of rowspace(code_gen) lying in rep + rowspace(ambient_dual),
    with solve the left_solver of the stack [code_gen; ambient_dual]."""
    x = solve(rep[None, :])
    if x is None:
        raise PromiseViolation("cleanup output escaped the expected coset")
    return la.matmul(F, x[:, : code_gen.shape[0]], code_gen)[0]


# ---------------------------------------------------------------------------
# syndrome formulation
# ---------------------------------------------------------------------------


def syndrome_to_word(F: Field, checks: CheckMatrices, s_x: np.ndarray,
                     s_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The particular words with H_X c_x = s_x and H_Z c_z = s_z that
    la.solve_right gives, from the cached preimage solvers of the checks."""
    c_x = checks.solve_x(np.asarray(s_x, dtype=np.int64)[None, :])
    c_z = checks.solve_z(np.asarray(s_z, dtype=np.int64)[None, :])
    if c_x is None or c_z is None:
        raise InconsistentInput("syndrome outside the image of the check matrix")
    return c_x[0], c_z[0]


def syndrome_decode(inst: SubsystemProductInstance, checks: CheckMatrices,
                    s_x: np.ndarray, s_z: np.ndarray
                    ) -> QuantumDecodeResult:
    """Syndrome-formulation decoding: pick any preimages, decode them, and
    return the correction cosets (preimage minus decoded representative)."""
    F = inst.field
    c_x, c_z = syndrome_to_word(F, checks, s_x, s_z)
    res = subsystem_decode(inst, c_x, c_z)
    bx = F.sub(c_x, res.coset_x.representative)
    bz = F.sub(c_z, res.coset_z.representative)
    return QuantumDecodeResult(CorrectionCoset(bx),
                               CorrectionCoset(bz),
                               res.fallback_x, res.fallback_z)


# ---------------------------------------------------------------------------
# bounded-weight coset search
# ---------------------------------------------------------------------------


# supports bounded_syndrome_search may try before it refuses
SYNDROME_SEARCH_BUDGET = 2_000_000


def bounded_syndrome_search(F: Field, H: np.ndarray, target: np.ndarray,
                            max_weight: int) -> np.ndarray | None:
    """Minimum-weight e with H e = target, searched by increasing weight up
    to max_weight; None if nothing within range."""
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    n = H.shape[1]
    target = np.asarray(target, dtype=np.int64)
    if not target.any():
        return np.zeros(n, dtype=np.int64)
    # weight 1: the first column j with v_j H[:, j] = target, where
    # v_j = target[i] / H[i, j] at the first nonzero row i of target
    # (a column with H[i, j] = 0 cannot match)
    i = int(np.flatnonzero(target)[0])
    usable = H[i] != 0
    v = F.div(target[i], np.where(usable, H[i], 1))
    match = usable & (F.mul(v[None, :], H) == target[:, None]).all(axis=0)
    if match.any():
        e = np.zeros(n, dtype=np.int64)
        j = int(np.argmax(match))
        e[j] = v[j]
        return e
    work = 0
    for w in range(2, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            work += 1
            if work > SYNDROME_SEARCH_BUDGET:
                raise BudgetExceeded("bounded syndrome search exceeded budget")
            sol = la.solve_right(F, H[:, list(support)], target)
            if sol is not None and np.count_nonzero(sol) == w:
                e = np.zeros(n, dtype=np.int64)
                e[list(support)] = sol
                return e
    return None


def coset_min_weight(F: Field, H: np.ndarray, v: np.ndarray, cap: int) -> int | None:
    """Weight of the lightest element of v + ker(H), searched up to the cap;
    None when the true minimum exceeds the cap."""
    e = bounded_syndrome_search(F, H, la.matvec(F, H, v), cap)
    return None if e is None else int(np.count_nonzero(e))


# ---------------------------------------------------------------------------
# single-shot decoding
# ---------------------------------------------------------------------------


@dataclass
class SingleShotResult:
    correction: CorrectionCoset | None
    denoise_failures: int
    syndrome_consistent: bool
    denoised_syndrome: np.ndarray | None
    notes: dict = dfield(default_factory=dict)


# largest span nearest_syndrome_exact scans
NEAREST_SYNDROME_BUDGET = 200_000


def nearest_syndrome_exact(F: Field, img: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """Exact minimum-distance projection of s onto the span of the basis
    rows img, the first nearest word in enumerate_span's order; None when
    the span has more than NEAREST_SYNDROME_BUDGET words."""
    if F.q ** img.shape[0] > NEAREST_SYNDROME_BUDGET:
        return None
    return la.min_weight_search(F, img, F.neg(s)[None, :])[1][0]


def _denoise_product_syndrome(F: Field, factors: list[CssPair],
                              s: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-block Reed-Solomon denoising of an amplified product Z-syndrome.

    Block 1 columns lie in the factor-1 outer RS code, block 2 rows in the
    factor-2 outer code; each block decodes its stripes within the unique
    radius in one berlekamp_welch batch.
    """
    out = np.asarray(s, dtype=np.int64).copy()
    failures = 0
    for pos, m in amplified_z_stripes(factors):
        if m:
            ok, cw = berlekamp_welch(F, canonical_points(F, 2 * m), m, out[pos], m // 2)
            failures += int(np.count_nonzero(~ok))
            out[pos[ok]] = cw[ok]
    return out, failures


def single_shot_decode(inst: SubsystemProductInstance, checks: CheckMatrices,
                       s_z: np.ndarray, distance: int) -> SingleShotResult:
    """X-error decoder from one noisy Z-syndrome over amplified checks.

    Denoises the syndrome per block, solves for any preimage, then finds a
    correction of weight < distance/2 in the preimage's coset modulo
    Q_Z + Q_X^perp: by bounded search when N <= 512, else through the side
    decoder.  Decoding failures are recorded in the result; a bounded search
    that needs more than SYNDROME_SEARCH_BUDGET supports raises BudgetExceeded.
    """
    F = inst.field
    if checks.style != "amplified":
        raise ValueError("single-shot decoding expects amplified checks")
    exact = nearest_syndrome_exact(F, checks.image_z, np.asarray(s_z, dtype=np.int64))
    if exact is not None:
        s_prime, failures = exact, 0
    else:
        s_prime, failures = _denoise_product_syndrome(F, inst.factors, s_z)
    w = checks.solve_z(s_prime[None, :])
    if w is None:
        return SingleShotResult(None, failures, False, s_prime,
                                {"reason": "denoised syndrome inconsistent"})
    w = w[0]
    prod = inst.product
    cap = max(0, math.ceil(distance / 2) - 1)
    if prod.n <= 512:
        HV = inst.search_parity
        e = bounded_syndrome_search(F, HV, la.matvec(F, HV, w), cap)
        if e is None:
            return SingleShotResult(None, failures, True, s_prime,
                                    {"reason": f"no correction of weight < {distance}/2"})
        return SingleShotResult(CorrectionCoset(e), failures, True,
                                s_prime, {"method": "search"})
    # pipeline route: w is a corrupted Q_Z'-word; peel the decoded part off
    try:
        rep, fallback = _decode_side(inst, w, "z")
    except PromiseViolation as exc:
        return SingleShotResult(None, failures, True, s_prime, {"reason": str(exc)})
    notes = {"method": "pipeline"}
    if fallback:
        notes["fallback"] = True
    e = F.sub(w, rep.ravel())
    return SingleShotResult(CorrectionCoset(e), failures, True, s_prime, notes)
