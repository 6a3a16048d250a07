"""Verification and synthesis of transversal multi-controlled-Z gates.

The gate condition is purely classical: subspaces L (logical) and S
(stabilizer) of the physical space must satisfy the multiplication property
L^{*r} intersect S*(L+S)^{*(r-1)} = {0}; a coefficients vector a then makes
the phase identity sum_j z^1_j...z^r_j = sum_j a_j z'^1_j...z'^r_j hold for
all encoded representatives.  This module machine-checks the property (dense
rank certificates, with an exponent-set fast path for evaluation codes on a
full field grid), synthesizes the coefficients vector, tests the phase
identity on sampled tuples, and builds the three-factor punctured-tensor
construction at large q in factored form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .gf import Field
from . import linalg as la
from .rng import stream
from .codes import (BudgetExceeded, LinearCode, box_exponents, canonical_points,
                    distinct_points, grs_rref, monomial_eval_matrix, star_span,
                    vandermonde_inverse)
from .subsystem import CssPair, quantum_rs, subsystem_product


@dataclass
class MultCertificate:
    holds: bool
    rank_l_power: int
    rank_obstruction: int
    rank_stack: int
    intersection_dim: int
    method: str

    def to_json(self) -> dict:
        return {"holds": self.holds, "rank_l_power": self.rank_l_power,
                "rank_obstruction": self.rank_obstruction,
                "rank_stack": self.rank_stack,
                "intersection_dim": self.intersection_dim, "method": self.method}


def _star_powers(F: Field, L_gen: np.ndarray, S_gen: np.ndarray, r: int):
    """Row bases of L^{*r} and S*(L+S)^{*(r-1)}, the pivot columns of one
    rref of their stack, and the rank certificate read off the three ranks."""
    if r < 2:
        raise ValueError("gate arity r must be >= 2")
    L_gen = np.atleast_2d(np.asarray(L_gen, dtype=np.int64))
    S_gen = np.atleast_2d(np.asarray(S_gen, dtype=np.int64))
    LS = np.concatenate([L_gen, S_gen], axis=0)
    lpow, obst = L_gen, S_gen
    for _ in range(r - 1):
        lpow = star_span(F, lpow, L_gen)
        obst = star_span(F, obst, LS)
    lpow, obst = la.row_space(F, lpow), la.row_space(F, obst)
    _, piv = la.rref(F, np.concatenate([lpow, obst], axis=0))
    ra, rb, rs = lpow.shape[0], obst.shape[0], len(piv)
    cert = MultCertificate(ra + rb == rs, ra, rb, rs, ra + rb - rs, "dense-rank")
    return lpow, obst, piv, cert


def multiplication_property(F: Field, L_gen: np.ndarray, S_gen: np.ndarray,
                            r: int) -> MultCertificate:
    """Rank certificate for L^{*r} intersect S*(L+S)^{*(r-1)} = {0}."""
    return _star_powers(F, L_gen, S_gen, r)[3]


# ---------------------------------------------------------------------------
# exponent-set machinery for full-grid evaluation codes
# ---------------------------------------------------------------------------


def reduce_exponent(q: int, e):
    """Exponent reduction on a full field grid, x^q = x for all x; elementwise
    on an array of exponents."""
    return np.where(e < q, e, 1 + (e - 1) % (q - 1))


def _exponent_grid(q: int, t: int, exps) -> np.ndarray:
    """Boolean grid over [0, q)^t marking the exponent tuples in exps."""
    grid = np.zeros((q,) * t, dtype=bool)
    if exps:
        idx = np.array(list(exps), dtype=np.int64).reshape(len(exps), t)
        if idx.min() < 0 or idx.max() >= q:
            raise ValueError(f"exponents must lie in [0, {q})")
        grid[tuple(idx.T)] = True
    return grid


def _grid_sum(q: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """red(A + B) on boolean grids: the larger set shifted by each point of
    the smaller one on a (2q-1)^t canvas, then folded by reduce_exponent."""
    if np.count_nonzero(A) < np.count_nonzero(B):
        A, B = B, A
    canvas = np.zeros((2 * q - 1,) * A.ndim, dtype=bool)
    for b in np.argwhere(B):
        canvas[tuple(slice(x, x + q) for x in b)] |= A
    red = reduce_exponent(q, np.arange(2 * q - 1))
    fold = np.ravel_multi_index(np.ix_(*[red] * A.ndim), A.shape)
    out = np.zeros(A.size, dtype=bool)
    out[fold[canvas]] = True
    return out.reshape(A.shape)


@dataclass
class ExponentCheck:
    empty: bool
    witness: tuple[int, ...] | None
    l_power_set: frozenset
    obstruction_set: frozenset


def exponent_intersection(q: int, M: set[tuple[int, ...]],
                          T: set[tuple[int, ...]], r: int) -> ExponentCheck:
    """Emptiness of red(rM) intersect red(T + (M u T)^{+(r-1)}): the symbolic
    counterpart of the multiplication property for monomial-spanned spaces on a
    full field grid.  Exponent tuples lie in [0, q)^t; the witness is the
    lexicographically smallest common tuple."""
    t = len(next(iter(M | T), (0,)))  # the tuple length; 1 if both sets are empty
    M, T = _exponent_grid(q, t, M), _exponent_grid(q, t, T)
    lpow, obst, mu = M, T, M | T
    for _ in range(r - 1):
        lpow = _grid_sum(q, lpow, M)
        obst = _grid_sum(q, obst, mu)
    inter = np.argwhere(lpow & obst)
    witness = tuple(int(x) for x in inter[0]) if inter.size else None

    def as_set(grid):
        return frozenset(map(tuple, np.argwhere(grid).tolist()))
    return ExponentCheck(witness is None, witness, as_set(lpow), as_set(obst))


# ---------------------------------------------------------------------------
# Reed-Solomon instantiation
# ---------------------------------------------------------------------------


@dataclass
class TransRsParams:
    r: int
    q: int
    eps: Fraction
    k1x: int
    k1z: int
    k2x: int
    k2z: int
    ell_lo: int
    ell_hi: int

    @property
    def gate_qudits(self) -> int:
        return (self.ell_hi - self.ell_lo) ** 2

    def m_box(self) -> set[tuple[int, int]]:
        return set(itertools.product(range(self.ell_lo, self.ell_hi), repeat=2))

    def t_box(self) -> set[tuple[int, int]]:
        out = set()
        for a in range(self.k1z):
            for b in range(self.q - self.k2x):
                out.add((a, b))
        for a in range(self.q - self.k1x):
            for b in range(self.k2z):
                out.add((a, b))
        return out


def transrs_params(r: int, q: int) -> TransRsParams:
    """Parameter record of the two-factor quantum-RS gate construction."""
    if r < 2:
        raise ValueError("gate arity r must be >= 2")
    if q < 4 * r * r:
        raise ValueError(f"need q >= 4r^2 = {4 * r * r}, got q = {q}")
    eps = Fraction(1, 4 * r)
    floor_eq = math.floor(eps * q)
    k1 = q - floor_eq
    k2x = q - 2 * floor_eq
    k2z = q // r
    ell_lo = math.ceil(Fraction(q, r) - Fraction(q, 2 * r * r))
    ell_hi = k2z
    return TransRsParams(r, q, eps, k1, k1, k2x, k2z, ell_lo, ell_hi)


def exponent_set_check(r: int, q: int) -> ExponentCheck:
    """Symbolic multiplication-property check for the RS instantiation."""
    p = transrs_params(r, q)
    return exponent_intersection(q, p.m_box(), p.t_box(), r)


# ---------------------------------------------------------------------------
# gate synthesis (dense representation)
# ---------------------------------------------------------------------------


@dataclass
class GateInstance:
    r: int
    factors: list[CssPair]
    L_list: list[LinearCode]
    S_basis: np.ndarray
    A_sets: list[list[int]]          # per-factor information sets
    A_flat: np.ndarray               # flat product indices, message order
    enc_basis: np.ndarray            # (l, N): encodings of the unit messages
    a: np.ndarray                    # coefficients vector, length N
    certificate: MultCertificate
    label: str = ""

    @property
    def n_logical(self) -> int:
        return self.enc_basis.shape[0]

    @property
    def field(self) -> Field:
        return self.factors[0].field

    def to_json(self) -> dict:
        return {"r": self.r, "label": self.label,
                "factors": [f.to_json() for f in self.factors],
                "L": [L.to_json() for L in self.L_list],
                "S": [int(x) for x in self.S_basis.ravel()],
                "S_rows": self.S_basis.shape[0],
                "A_sets": self.A_sets,
                "a": [int(x) for x in self.a],
                "certificate": self.certificate.to_json()}


def synthesize_gate(factors: list[CssPair], L_list: list[LinearCode], r: int,
                    label: str = "") -> GateInstance:
    """Build the coefficients vector from the multiplication property.

    The projection onto L^{*r} along the obstruction space is extended by
    zero on the pivot-ordered complement, making the vector reproducible.
    """
    F = factors[0].field
    N = int(np.prod([f.n for f in factors]))
    for f, L in zip(factors, L_list):
        if not la.row_space_contains(F, f.qz.gen, L.gen):
            raise ValueError("L_i must lie inside Q_Z^i")
        if la.row_space_intersection(F, L.gen, f.qx.dual().gen).shape[0]:
            raise ValueError("L_i must intersect (Q_X^i)^perp trivially")
    product = subsystem_product(factors) if len(factors) > 1 else factors[0]
    S_basis = product.stabilizer_basis()
    # the unit encodings are the Kronecker product of the L generators
    A_sets, A_flat, enc_basis = _unit_encodings(F, factors, L_list)
    lpow, obst, piv, certificate = _star_powers(F, enc_basis, S_basis, r)
    if not certificate.holds:
        raise ValueError(f"multiplication property fails: {certificate}")

    # eta = projection onto span(lpow) along span(obst), zero on the free
    # columns of their stack; a._z = indicator(A) . eta(z), so a vanishes off
    # the pivots and solves the square system stack[:, piv] a[piv] = w
    ones_a = np.zeros(N, dtype=np.int64)
    ones_a[A_flat] = 1
    w = np.zeros(len(piv), dtype=np.int64)
    w[: lpow.shape[0]] = la.matmul(F, lpow, ones_a[:, None])[:, 0]
    a = np.zeros(N, dtype=np.int64)
    a[piv] = la.solve_right(F, np.concatenate([lpow, obst], axis=0)[:, piv], w)
    return GateInstance(r, factors, L_list, S_basis, A_sets, A_flat, enc_basis, a,
                        certificate, label)


def _unit_encodings(F: Field, factors: list[CssPair], L_list: list[LinearCode]):
    """Per-factor information sets, their flat product indices in message
    order, and the unit-message encodings.  Each L.gen is in rref: its row
    pivots are the information set, and its rows encode the unit messages."""
    A_sets = [L.pivots for L in L_list]
    enc_basis = la.kron(F, *(L.gen for L in L_list))
    A_flat = np.array([np.ravel_multi_index(idx, tuple(f.n for f in factors))
                       for idx in itertools.product(*A_sets)], dtype=np.int64)
    return A_sets, A_flat, enc_basis


@dataclass
class PhaseReport:
    trials: int
    passed: int
    counterexample: dict | None

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials and self.counterexample is None


def phase_identity_test(gate: GateInstance, trials: int, seed: int) -> PhaseReport:
    """Exactly check sum_j prod_h z^h_j = sum_j a_j prod_h z'^h_j on sampled
    messages and coset representatives z'^h = Enc(z^h) + random stabilizer."""
    F = gate.field
    rng = stream(seed)
    ell = gate.n_logical
    S = gate.S_basis
    for trial in range(trials):
        msgs = np.stack([F.random(rng, ell) for _ in range(gate.r)])
        reps = la.matmul(F, msgs, gate.enc_basis)
        if S.shape[0]:
            stab = np.stack([F.random(rng, S.shape[0]) for _ in range(gate.r)])
            reps = F.add(reps, la.matmul(F, stab, S))
        lhs = F.sum(reduce(F.mul, msgs))
        rhs = F.sum(F.mul(gate.a, reduce(F.mul, reps)))
        if int(lhs) != int(rhs):
            return PhaseReport(trials, trial, {
                "trial": trial, "lhs": int(lhs), "rhs": int(rhs),
                "messages": [[int(x) for x in z] for z in msgs]})
    return PhaseReport(trials, trials, None)


# ---------------------------------------------------------------------------
# two-factor Reed-Solomon gate builder
# ---------------------------------------------------------------------------


def _certify_monomial_stabilizer(F: Field, factors: list[CssPair],
                                 S_monomial: np.ndarray,
                                 t_exps: list[tuple[int, int]]) -> np.ndarray:
    """Machine-check that the monomial rows span S = Q_Z intersect Q_X^perp
    of the product, using factor-level tests only.

    Membership: each row, reshaped to a matrix, is killed by the factor Q_Z
    parity checks and orthogonal to Q_X^1 (x) Q_X^2.  Independence: distinct
    reduced monomials on a full grid are independent because the univariate
    Vandermonde matrix of the q distinct field elements has an inverse, which
    is returned in closed form (codes.vandermonde_inverse).  Dimension:
    dim S = dim Q_Z - k with k the product of the factor dimensions.
    """
    n1, n2 = factors[0].n, factors[1].n
    h1z = factors[0].qz.parity_check()
    h2z = factors[1].qz.parity_check()
    g1x = factors[0].qx.gen
    g2x = factors[1].qx.gen
    # h1z V, V h2z^T and g1x V g2x^T for every row V (as an n1 x n2 matrix)
    # at once; the first failing row names its check, Q_Z tested first
    K = S_monomial.shape[0]
    V = S_monomial.reshape(K, n1, n2)
    cols = V.transpose(1, 0, 2).reshape(n1, K * n2)
    a, b, c, d = h1z.shape[0], h2z.shape[0], g1x.shape[0], g2x.shape[0]
    left_z = la.matmul(F, h1z, cols).reshape(a, K, n2)
    right_z = la.matmul(F, V.reshape(K * n1, n2), h2z.T).reshape(K, n1, b)
    gV = la.matmul(F, g1x, cols).reshape(c, K, n2).transpose(1, 0, 2)
    gVg = la.matmul(F, gV.reshape(K * c, n2), g2x.T).reshape(K, c, d)
    escapes_z = left_z.any(axis=(0, 2)) | right_z.any(axis=(1, 2))
    bad = np.flatnonzero(escapes_z | gVg.any(axis=(1, 2)))
    if bad.size:
        side = "Q_Z" if escapes_z[bad[0]] else "Q_X^perp"
        raise RuntimeError(f"monomial stabilizer row escapes {side}")
    Vinv = vandermonde_inverse(F, canonical_points(F, F.q))
    k = factors[0].dimension * factors[1].dimension
    dim_s = factors[0].qz.k * factors[1].qz.k - k
    if len(t_exps) != dim_s:
        raise RuntimeError(f"monomial count {len(t_exps)} != dim S = {dim_s}")
    return Vinv


# build_transrs_gate takes the generic dense-rank route up to this field order
DENSE_ROUTE_MAX_Q = 16


def build_transrs_gate(F: Field, r: int) -> GateInstance:
    """Gate instance for the two-factor quantum-RS construction at q = |F|.

    Fields up to DENSE_ROUTE_MAX_Q run the generic dense-rank route; larger
    ones exploit that every space involved is spanned by monomial evaluations
    on the full grid (certified at the factor level), where star products act
    on exponent sets and the projection is diagonal in monomial coordinates.
    """
    q = F.q
    p = transrs_params(r, q)
    factors = [quantum_rs(F, q, p.k1x, p.k1z), quantum_rs(F, q, p.k2x, p.k2z)]
    pts = canonical_points(F, q)
    L_list = [rs_window(F, pts, p.ell_lo, p.ell_hi),
              rs_window(F, pts, p.ell_lo, p.ell_hi)]
    grid = grid_points(F, 2)
    t_exps = sorted(p.t_box())
    S_monomial = monomial_eval_matrix(F, grid, t_exps)
    label = f"transRS(r={r},q={q})"
    if q <= DENSE_ROUTE_MAX_Q:
        gate = synthesize_gate(factors, L_list, r, label=label)
        S = gate.S_basis
        if S.shape[0] != len(t_exps) or not la.row_space_contains(F, S, S_monomial):
            raise RuntimeError("monomial model of the stabilizer space is wrong")
        return gate
    Vinv = _certify_monomial_stabilizer(F, factors, S_monomial, t_exps)
    chk = exponent_set_check(r, q)
    # distinct reduced monomials on the full grid are independent, so set
    # sizes are the ranks once the Vandermonde factors are invertible
    ra, rb = len(chk.l_power_set), len(chk.obstruction_set)
    inter = len(chk.l_power_set & chk.obstruction_set)
    cert = MultCertificate(chk.empty, ra, rb, ra + rb - inter, inter, "monomial-rank")
    if not cert.holds:
        raise ValueError(f"multiplication property fails: {cert}")
    return _synthesize_monomial(F, factors, L_list, p, sorted(chk.l_power_set),
                                S_monomial, Vinv, cert, label=label)


def _synthesize_monomial(F: Field, factors: list[CssPair],
                         L_list: list[LinearCode], p: TransRsParams,
                         lpow_exps: list[tuple[int, int]],
                         S_basis: np.ndarray, Vinv: np.ndarray,
                         cert: MultCertificate, label: str) -> GateInstance:
    """Coefficients vector via monomial coordinates: the projection onto the
    L-power monomials along all remaining monomials is a coordinate
    projection after full-grid interpolation, so
    a = sum_d (1_A . ev(X^d)) * (V1^{-1}[d1, :] (x) V2^{-1}[d2, :]), one
    matmul of the beta_d = 1_A . ev(X^d) against the stacked Kronecker rows."""
    q = F.q
    A_sets, A_flat, enc_basis = _unit_encodings(F, factors, L_list)
    beta = F.sum(monomial_eval_matrix(F, grid_points(F, 2)[A_flat], lpow_exps), axis=1)
    d1, d2 = np.array(lpow_exps, dtype=np.int64).reshape(-1, 2).T
    kron_rows = F.mul(Vinv[d1][:, :, None], Vinv[d2][:, None, :]).reshape(d1.size, q * q)
    a = la.matmul(F, beta[None, :], kron_rows)[0]
    return GateInstance(p.r, factors, L_list, S_basis, A_sets, A_flat, enc_basis, a,
                        cert, label)


def rs_window(F: Field, points: np.ndarray, lo: int, hi: int) -> LinearCode:
    gen = monomial_eval_matrix(F, points[:, None], [(e,) for e in range(lo, hi)])
    return LinearCode(F, points.size, gen, label=f"ev[X^[{lo},{hi})]")


def grid_points(F: Field, t: int) -> np.ndarray:
    pts = canonical_points(F, F.q)
    cols = np.meshgrid(*([pts] * t), indexing="ij")
    return np.stack([c.ravel() for c in cols], axis=1)


# ---------------------------------------------------------------------------
# three-factor punctured-tensor construction at large q
# ---------------------------------------------------------------------------


@dataclass
class TripleProductParams:
    m: int
    u: int
    k0: int
    eps: Fraction
    kx: tuple[int, int, int]
    kz: tuple[int, int, int]
    ell_lo: int
    ell_hi: int

    @property
    def n(self) -> int:
        return self.m ** self.u

    @property
    def window_size(self) -> int:
        return max(0, self.ell_hi - self.ell_lo)

    @property
    def degraded(self) -> bool:
        return self.m < 100

    def to_json(self) -> dict:
        return {"m": self.m, "u": self.u, "k0": self.k0,
                "eps": [self.eps.numerator, self.eps.denominator],
                "kx": list(self.kx), "kz": list(self.kz),
                "ell_lo": self.ell_lo, "ell_hi": self.ell_hi,
                "window_size": self.window_size, "degraded": self.degraded}


def triple_product_params(m: int, u: int) -> TripleProductParams:
    if m < 8:
        raise ValueError("m >= 8 required")
    if u < 1:
        raise ValueError("u >= 1 required")
    k0 = m // 4
    eps = Fraction(1, 100)
    kx = math.floor(eps * k0)
    k12z = (2 * k0) // 3
    k3z = k0 // 3
    ell_lo = math.ceil((Fraction(1, 3) - eps) * k0)
    ell_hi = k0 // 3
    return TripleProductParams(m, u, k0, eps, (kx, kx, kx), (k12z, k12z, k3z),
                               ell_lo, ell_hi)


# smallest_window_m scans m in [8, WINDOW_SEARCH_STOP)
WINDOW_SEARCH_STOP = 10_000


def smallest_window_m() -> int:
    """Smallest m whose logical window [ell_lo, ell_hi) is nonempty."""
    for m in range(8, WINDOW_SEARCH_STOP):
        if triple_product_params(m, 1).window_size > 0:
            return m
    raise RuntimeError("no nonempty window below the search bound")


# exponent-range bookkeeping for the obstruction-kill certificate: each
# factor part of a spanning element is either an evaluation box [lo, hi]
# per coordinate ("ev") or the dual-type code (gamma_i * ev-box)^perp
_EV, _DUAL = "ev", "dual"


def _factor_profile(p: TripleProductParams, kind: str, axis: int):
    """(type, degree range) of the axis-`axis` part of a spanning element of
    kind L, S1, S2, or S3."""
    if kind == "L":
        return (_EV, (p.ell_lo, p.ell_hi - 1))
    idx = int(kind[1]) - 1
    if axis == idx:
        # the gauge slot: (Q_X^i)^perp = ev box [0, kx)
        return (_EV, (0, p.kx[axis] - 1))
    if axis == 2:
        # factor 3 Z-code is a plain evaluation box
        return (_EV, (0, p.kz[2] - 1))
    return (_DUAL, None)


@dataclass
class TripleCertificate:
    holds: bool
    checks: dict
    failed_patterns: list

    def to_json(self) -> dict:
        return {"holds": self.holds, "checks": self.checks,
                "failed_patterns": [list(x) for x in self.failed_patterns]}


def _kill_certificate(p: TripleProductParams) -> tuple[bool, list]:
    """Exhaustive pattern check that every spanning product of
    S * (L+S)^{*2} is annihilated by the shifted gamma functional.

    Patterns assign each of the three product slots a kind (first slot in
    S1..S3, others in L/S1..S3).  A pattern is killed on axis i either by the
    gammareq functional (all three axis parts are evaluation boxes whose
    shifted degree range avoids k0 inside [0, 2k0]) or by duality (exactly
    one part is the dual-type code and the others' shifted product degree
    stays below that code's defining box).
    """
    shift = p.k0 - 3 * p.ell_lo
    failed = []
    kinds = ["S1", "S2", "S3"]
    all_kinds = ["L", "S1", "S2", "S3"]
    for pat in itertools.product(kinds, all_kinds, all_kinds):
        killed = False
        for axis in range(3):
            profs = [_factor_profile(p, kind, axis) for kind in pat]
            duals = [t for t, _ in profs if t == _DUAL]
            if not duals:
                lo = sum(r[0] for _, r in profs) + shift
                hi = sum(r[1] for _, r in profs) + shift
                if hi <= 2 * p.k0 and (hi < p.k0 or lo > p.k0):
                    killed = True
                    break
            elif len(duals) == 1:
                rest_hi = sum(r[1] for t, r in profs if t == _EV) + shift
                if rest_hi < p.kz[axis]:
                    killed = True
                    break
        if not killed:
            failed.append(pat)
    return not failed, failed


@dataclass
class TripleProductGate:
    field: Field
    params: TripleProductParams
    points: list[np.ndarray]        # three (n, u) evaluation sets
    gammas: list[np.ndarray]
    L_vectors: list[np.ndarray]     # one window monomial evaluation per factor
    j_star: tuple[int, int, int]
    a_parts: list[np.ndarray]       # gamma_i * ev(X^shift), per factor
    a_scale: int
    certificate: TripleCertificate
    block_bases: dict               # per factor-slot code bases for S sampling
    label: str = ""

    @property
    def n(self) -> int:
        return self.params.n

    def to_json(self) -> dict:
        return {"label": self.label, "params": self.params.to_json(),
                "field": self.field.to_json(),
                "points": [[int(x) for x in E.ravel()] for E in self.points],
                "gammas": [[int(x) for x in g] for g in self.gammas],
                "j_star": list(self.j_star),
                "a_parts": [[int(x) for x in a] for a in self.a_parts],
                "a_scale": self.a_scale,
                "certificate": self.certificate.to_json()}


class GammaSolveError(RuntimeError):
    pass


def _solve_gamma(F: Field, E: np.ndarray, M: np.ndarray, target: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Vector gamma with M gamma = target, for M the evaluations of the box
    [0, 2k0]^u on the points E and target the indicator of (k0..k0),
    randomized inside the solution coset until entrywise nonzero (64 draws
    at most), from the pivot-ordered solution of rref([M | target]).  At
    u = 1, M = vandermonde(E, b).T, so on distinct points rref(M) is
    grs_rref(E, b, ones) and the target column vandermonde_inverse(E[:b]).T
    @ target, with no elimination; repeated points are refused.  Other u
    reduce [M | target] once."""
    b, n = M.shape
    if E.shape[1] == 1:
        x = E[:, 0]
        if b > n or np.unique(x).size < n:
            raise GammaSolveError("monomial box evaluations need distinct points")
        R, piv = grs_rref(F, x, b, np.ones(n, dtype=np.int64)), list(range(b))
        col = la.matvec(F, vandermonde_inverse(F, x[:b]).T, target)
    else:
        # its first n columns are rref(M), and a full row rank M leaves no
        # pivot on the target, so the system is solvable
        R, piv = la.rref(F, np.concatenate([M, target[:, None]], axis=1))
        if len(piv) != b or piv[-1] >= n:
            raise GammaSolveError("monomial box evaluations are not independent")
        R, col = R[:, :n], R[:, n]
    g0 = np.zeros(n, dtype=np.int64)
    g0[piv] = col
    K = la.rref_kernel(F, R, piv)
    for _ in range(64):
        g = g0
        if K.shape[0]:
            g = F.add(g0, la.matmul(F, F.random(rng, K.shape[0])[None, :], K)[0])
        if np.all(g != 0):
            return g
    raise GammaSolveError("no entrywise-nonzero gamma found in 64 draws")


def triple_product_build(F: Field, m: int, u: int, seed: int) -> TripleProductGate:
    """Three-factor punctured-tensor-RS gate at desk scale, in factored form.

    The multiplication property is certified structurally: full-rank monomial
    boxes up to degree 2*k0 per factor, exact gamma conditions with all
    entries nonzero, and the exhaustive pattern-kill check; the projection is
    the shifted gamma functional, so the coefficients vector is an elementary
    tensor of the per-factor parts.
    """
    p = triple_product_params(m, u)
    checks: dict = {"window_size": p.window_size, "degraded_regime": p.degraded}
    if p.window_size == 0:
        raise ValueError(f"logical window [{p.ell_lo}, {p.ell_hi}) is empty at m={m}")
    if p.window_size > 1:
        raise BudgetExceeded(
            "factored synthesis covers window size 1; larger windows need the "
            "dense route")
    n = p.n
    rng = stream(seed)
    points = [distinct_points(F, n, u, rng) for _ in range(3)]
    exps = box_exponents(0, 2 * p.k0 + 1, u)
    target = np.zeros(len(exps), dtype=np.int64)
    target[exps.index(tuple([p.k0] * u))] = 1
    gammas = []
    for i, E in enumerate(points):
        M = monomial_eval_matrix(F, E, exps)
        gammas.append(_solve_gamma(F, E, M, target, rng))
        if not np.array_equal(la.matvec(F, M, gammas[i]), target):
            raise GammaSolveError(f"gamma conditions fail for factor {i}")
        checks[f"gamma{i}_nonzero"] = bool(np.all(gammas[i] != 0))
    ok_kill, failed = _kill_certificate(p)
    checks["pattern_kill"] = ok_kill
    shift = p.k0 - 3 * p.ell_lo
    checks["shift_in_range"] = bool(0 <= shift <= 3 * p.eps * p.k0)
    checks["L_inside_Qz"] = bool(p.ell_hi - 1 + max(p.kz[0], p.kz[1]) - 1 < p.k0
                                 and p.ell_hi <= p.kz[2])
    checks["L_meets_gauge_trivially"] = bool(p.kx[0] <= p.ell_lo)
    # factor CSS conditions: (Q_X^i)^perp <= Q_Z^i
    checks["factor_css"] = bool(
        p.kx[0] - 1 + p.kz[0] - 1 < p.k0 and p.kx[1] - 1 + p.kz[1] - 1 < p.k0
        and p.kx[2] <= p.kz[2])
    window_exp = tuple([p.ell_lo] * u)
    L_vectors = [monomial_eval_matrix(F, E, [window_exp])[0] for E in points]
    j_star = tuple(int(np.nonzero(v)[0][0]) for v in L_vectors)
    shift_exp = tuple([shift] * u)
    a_parts = [F.mul(g, monomial_eval_matrix(F, E, [shift_exp])[0])
               for g, E in zip(gammas, points)]
    a_scale = int(F.prod(F.power([v[j] for v, j in zip(L_vectors, j_star)], 3)))
    # phi(u_raw) = prod_i gamma_i . ev(X^{shift + 3*ell_lo}) must equal 1
    cube_exp = [tuple([3 * p.ell_lo + shift] * u)]
    phi_u = int(F.prod([F.sum(F.mul(g, monomial_eval_matrix(F, E, cube_exp)[0]))
                        for g, E in zip(gammas, points)]))
    checks["phi_on_Lpower"] = phi_u == 1
    holds = all(bool(v) for k, v in checks.items()
                if k not in ("window_size", "degraded_regime")) and phi_u == 1
    cert = TripleCertificate(holds, checks, failed)
    block_bases = _triple_block_bases(F, p, points, gammas)
    return TripleProductGate(F, p, points, gammas, L_vectors, j_star,
                             a_parts, a_scale, cert, block_bases,
                             label=f"triple(m={m},u={u},q={F.q})")


def _triple_block_bases(F: Field, p: TripleProductParams,
                        points: list[np.ndarray],
                        gammas: list[np.ndarray]) -> dict:
    """Generator bases of every factor slot appearing in L and S1..S3; the
    first two Z-codes are kernel bases, and "qz_split" keeps their (free
    columns, pivots, pivot block) for _span_rows (None for an ev basis).
    Each kernel is read off the rref of the gamma-scaled box evaluations,
    which at u = 1 is grs_rref(E_i, kz_i, gamma_i), with no elimination."""
    def ev_box(i: int, k: int) -> np.ndarray:
        return monomial_eval_matrix(F, points[i], box_exponents(0, k, p.u))

    qz, split = [], []
    for i in range(2):
        if p.u == 1:
            R, piv = grs_rref(F, points[i][:, 0], p.kz[i], gammas[i]), list(range(p.kz[i]))
        else:
            R, piv = la.rref(F, F.mul(gammas[i][None, :], ev_box(i, p.kz[i])))
        K = la.rref_kernel(F, R, piv)
        free = np.setdiff1d(np.arange(K.shape[1]), piv)
        qz.append(K)
        split.append((free, np.asarray(piv, dtype=np.int64), K[:, piv]))
    qz.append(ev_box(2, p.kz[2]))
    split.append(None)
    qx_perp = [ev_box(i, p.kx[i]) for i in range(3)]
    return {"qz": qz, "qx_perp": qx_perp, "qz_split": split}


def _span_rows(F: Field, C: np.ndarray, basis: np.ndarray, split) -> np.ndarray:
    """The rows C @ basis; with a kernel split, only C @ K[:, pivots] is
    computed and the free columns are C itself."""
    if split is None:
        return la.matmul(F, C, basis)
    free, piv, Kp = split
    out = np.empty((C.shape[0], basis.shape[1]), dtype=np.int64)
    out[:, free] = C
    out[:, piv] = la.matmul(F, C, Kp)
    return out


def triple_phase_identity_test(gate: TripleProductGate, trials: int,
                               seed: int) -> PhaseReport:
    """Phase identity over the factored representation: coset representatives
    are encoded messages plus random low-tensor-rank stabilizer elements, and
    both sides are evaluated exactly through per-factor inner products.

    A representative is a sum of T = 7 elementary tensors (the message term
    and two per stabilizer slot), held as one (T, n) array per axis.  The
    right-hand side over all T^3 term triples factors per axis into
    D[i, j, k] = a_parts . (T1[i] * T2[j] * T3[k]), one matmul each, and is
    a_scale times the sum of D_0 * D_1 * D_2.
    """
    F = gate.field
    rng = stream(seed)
    qz = list(zip(gate.block_bases["qz"], gate.block_bases["qz_split"]))
    qx_perp = [(b, None) for b in gate.block_bases["qx_perp"]]
    # slot S_{s+1} takes its axis-s part from (Q_X)^perp, the rest from Q_Z
    slots = [[qx_perp[i] if i == s else qz[i] for i in range(3)] for s in range(3)]
    vhat = [F.div(v, v[j]) for v, j in zip(gate.L_vectors, gate.j_star)]

    def sample_rep(z: int) -> list[np.ndarray]:
        rows = [[F.mul(np.int64(z), vhat[0])], [vhat[1]], [vhat[2]]]
        for slot in slots:
            coefs = [[F.random(rng, b.shape[0]) for b, _ in slot] for _ in range(2)]
            for axis, (b, sp) in enumerate(slot):
                C = np.stack([c[axis] for c in coefs])
                rows[axis].append(_span_rows(F, C, b, sp))
        return [np.vstack(r) for r in rows]

    for trial in range(trials):
        msgs = [int(F.random(rng, None)) for _ in range(3)]
        T1, T2, T3 = (sample_rep(z) for z in msgs)
        lhs = int(F.prod(msgs))
        D = np.int64(1)
        for axis in range(3):
            W = F.mul(gate.a_parts[axis], T1[axis])
            U = F.mul(W[:, None], T2[axis][None]).reshape(-1, W.shape[1])
            D = F.mul(D, la.matmul(F, U, T3[axis].T))
        rhs = F.mul(np.int64(gate.a_scale), F.sum(D.ravel()))
        if int(rhs) != lhs:
            return PhaseReport(trials, trial,
                               {"trial": trial, "lhs": lhs, "rhs": int(rhs),
                                "messages": msgs})
    return PhaseReport(trials, trials, None)
