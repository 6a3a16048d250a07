"""Single-sector chain complexes: construction from CSS pairs, products,
homology, distances, and filling constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes.gf import GF
from prodcodes import linalg as la
from prodcodes.codes import BudgetExceeded, LinearCode, rs_code
from prodcodes.complexes import (SingleSectorComplex, filling_constant_estimate, from_css,
                                 hom_product, systolic_distance)
from prodcodes.subsystem import quantum_rs


def qrs_complex(q, n, k):
    Q = quantum_rs(GF(q), n, k, k)
    return from_css(Q.qx, Q.qz), Q


def test_boundary_square_zero_enforced(gf4):
    with pytest.raises(ValueError):
        SingleSectorComplex(gf4, np.array([[1, 0], [0, 1]], dtype=np.int64))
    with pytest.raises(ValueError):
        SingleSectorComplex(GF(5), np.zeros((2, 2), dtype=np.int64))


def test_from_css_recovers_codes():
    C, Q = qrs_complex(8, 8, 6)
    qx, qz = C.associated_code()
    assert qx.same_subspace(Q.qx) and qz.same_subspace(Q.qz)
    assert C.homology_dim() == Q.dimension == 4
    sq = la.matmul(C.field, C.boundary, C.boundary)
    assert not np.any(sq)


def test_from_css_full_space(gf4):
    full = LinearCode(gf4, 4, la.identity(4))
    C = from_css(full, full)
    assert not np.any(C.boundary)
    assert C.homology_dim() == 4


def test_from_css_rejects_bad_pairs(gf4):
    a = rs_code(gf4, 4, 3)
    b = rs_code(gf4, 4, 1)
    with pytest.raises(ValueError):
        from_css(a, b)  # dims differ
    # orthogonality failure: Q_Z^perp not inside Q_X
    c = rs_code(gf4, 4, 1)
    with pytest.raises(ValueError):
        from_css(c, rs_code(gf4, 4, 1))


def ref_from_css(qx, qz):
    """The earlier from_css, which tested CSS orthogonality H_Z H_X^T = 0
    before it built the complex."""
    if qx.field != qz.field or qx.n != qz.n:
        raise ValueError("codes must share field and length")
    if qx.k != qz.k:
        raise ValueError("dim Q_X != dim Q_Z")
    F = qx.field
    hx, hz = qx.parity_check(), qz.parity_check()
    if np.any(la.matmul(F, hz, hx.T)):
        raise ValueError("CSS orthogonality H_Z H_X^T = 0 fails")
    return SingleSectorComplex(F, la.matmul(F, hx.T, hz))


def _built_or_refused(build, qx, qz):
    try:
        return build(qx, qz).boundary
    except ValueError:
        return None


@settings(max_examples=400)
@given(st.sampled_from([2, 4, 8]), st.integers(1, 6), st.data())
def test_from_css_refuses_the_pairs_orthogonality_refused(q, n, data):
    """Without its own orthogonality test, from_css refuses exactly the
    equal-dimension pairs the old one refused (the complex's boundary^2 = 0
    check does it) and builds the same boundary for the rest.  Half the
    pairs have Q_Z spanned by Q_X^perp and random rows, so both outcomes
    are drawn."""
    F = GF(q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k = data.draw(st.integers(0, n))
    qx = LinearCode(F, n, F.random(rng, (k, n)))
    k = qx.k
    if data.draw(st.booleans()) and 2 * k >= n:
        gen = np.concatenate([qx.dual().gen, F.random(rng, (2 * k - n, n))])
    else:
        gen = F.random(rng, (k, n))
    qz = LinearCode(F, n, gen)
    want, got = (_built_or_refused(build, qx, qz) for build in (ref_from_css, from_css))
    assert (want is None) == (got is None)
    if want is not None:
        assert np.array_equal(got, want)


def test_hombasis_dimensions_agree():
    for (q, n, k) in [(4, 4, 3), (4, 4, 2) if False else (8, 8, 6), (8, 8, 5)]:
        C, _ = qrs_complex(q, n, k)
        z_minus_b = C.cycles().shape[0] - C.boundaries().shape[0]
        zc = C.cocycles().shape[0] - la.rank(C.field, C.boundary)
        assert z_minus_b == zc == C.homology_dim()
        # the homology representatives are cycles, independent modulo the
        # boundaries
        reps = la.complete_basis(C.field, C.boundaries(), C.cycles())
        assert reps.shape[0] == z_minus_b
        assert la.row_space_contains(C.field, C.cycles(), reps)
        assert la.rank(C.field, np.concatenate([C.boundaries(), reps])) == \
            C.boundaries().shape[0] + reps.shape[0]


def test_kunneth_dimension_multiplicativity():
    A, QA = qrs_complex(4, 4, 3)
    B, QB = qrs_complex(4, 3, 2)
    P = hom_product(A, B)
    assert P.homology_dim() == A.homology_dim() * B.homology_dim()
    assert not np.any(la.matmul(P.field, P.boundary, P.boundary))
    assert P.locality <= A.locality + B.locality


def test_product_with_zero_boundary(gf4):
    A = SingleSectorComplex(gf4, np.zeros((3, 3), dtype=np.int64))
    B, _ = qrs_complex(4, 4, 3)
    P = hom_product(A, B)
    expect = la.kron(gf4, la.identity(3), B.boundary)
    assert np.array_equal(P.boundary, expect)


def _reference_hom_product_boundary(F, dA, dB):
    """dA (x) I + I (x) dB by two explicit Kronecker products: the oracle
    for hom_product's boundary."""
    ia, ib = la.identity(dA.shape[0]), la.identity(dB.shape[0])
    return F.add(la.kron(F, dA, ib), la.kron(F, ia, dB))


@st.composite
def square_zero_boundaries(draw, F):
    """A random boundary with boundary^2 = 0 on 1 to 6 coordinates: a
    random a x b block M in rows [0, a) and columns [a, a + b), zero
    elsewhere, its rows and columns permuted alike."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = np.zeros((a + b + 1, a + b + 1), dtype=np.int64)
    d[:a, a:a + b] = F.random(rng, (a, b))
    perm = rng.permutation(a + b + 1)
    return d[np.ix_(perm, perm)]


@given(st.sampled_from([2, 4]).flatmap(
    lambda q: st.tuples(st.just(GF(q)), square_zero_boundaries(GF(q)),
                        square_zero_boundaries(GF(q)))))
def test_hom_product_matches_explicit_kron(case):
    F, dA, dB = case
    P = hom_product(SingleSectorComplex(F, dA), SingleSectorComplex(F, dB))
    assert np.array_equal(P.boundary, _reference_hom_product_boundary(F, dA, dB))


def test_product_cycles_spanned_by_kunneth():
    # Z(A x B) = Z_A (x) Z_B + B(A x B), verified by rank
    A, _ = qrs_complex(4, 4, 3)
    B, _ = qrs_complex(4, 3, 2)
    P = hom_product(A, B)
    F = P.field
    za = A.cycles()
    zb = B.cycles()
    zz = la.kron(F, za, zb)
    span = np.concatenate([zz, P.boundaries()], axis=0)
    assert la.rank(F, span) == P.cycles().shape[0]
    assert la.row_space_contains(F, P.cycles(), span)


def test_systolic_distance_zero_homology(gf4):
    full = rs_code(gf4, 4, 4)
    C = from_css(full, full)
    # boundary = 0, homology = everything: distance 1; shrink to homology 0
    D = SingleSectorComplex(gf4, np.zeros((0, 0), dtype=np.int64)) if False else None
    Q = quantum_rs(gf4, 4, 2, 2)
    C0 = from_css(Q.qx, Q.qz)
    assert C0.homology_dim() == 0
    assert math.isinf(systolic_distance(C0).value)


def test_systolic_exact_on_single_factor():
    C, _ = qrs_complex(8, 8, 6)
    d = systolic_distance(C, budget=2_000_000)
    # independent oracle: enumerate ker boundary, drop the image via a parity
    # map for the image space, take the min weight
    F = C.field
    best = math.inf
    img_par = la.right_kernel(F, C.boundaries())
    for _, words in la.enumerate_span(F, C.cycles()):
        syn = la.matmul(F, words, img_par.T)
        outside = np.any(syn, axis=1)
        wts = np.count_nonzero(words[outside], axis=1)
        if wts.size:
            best = min(best, int(wts.min()))
    assert d.exact and d.value == best


def test_systolic_distance_refuses_past_budget():
    """The scan runs over all q^dim(Z) = 8^(4 + 2) = 262144 cycle words."""
    C, _ = qrs_complex(8, 8, 6)
    assert (C.homology_dim(), C.boundaries().shape[0]) == (4, 2)
    with pytest.raises(BudgetExceeded, match="needs 262144 cycle words > budget 262143"):
        systolic_distance(C, budget=262_143)
    assert systolic_distance(C, budget=262_144).exact


def test_filling_estimate_refuses_past_budget_before_drawing(monkeypatch):
    """q^dim(Z) = 4^3 = 64 cycle words per preimage; a refusal draws nothing."""
    C, _ = qrs_complex(4, 4, 3)
    assert C.cycles().shape[0] == 3
    monkeypatch.setattr(C.field, "random", lambda *a, **k: pytest.fail("drew a sample"))
    with pytest.raises(BudgetExceeded, match="needs 64 cycle words per preimage > budget 63"):
        filling_constant_estimate(C, trials=5, seed=0, budget=63)


def test_filling_estimate_bounds():
    C, _ = qrs_complex(4, 4, 3)
    est = filling_constant_estimate(C, trials=30, seed=2)
    assert est.trials == 30 and est.exact_preimages
    assert all(r >= 1 / b for b, _, r in est.samples)
    # the preimage of boundary(unit vector) has weight <= 1, so each sampled
    # ratio with |b| = |boundary(e_i)| is at most 1/|b| for those samples
    F = C.field
    for i in range(C.dim):
        e = np.zeros(C.dim, dtype=np.int64)
        e[i] = 1
        b = la.matvec(F, C.boundary, e)
        if b.any():
            assert est.mu_hat >= 0  # sanity; exact bound checked in acceptance


def _reference_complete_basis(F, inner, outer):
    """The greedy loop: one rank per row of outer."""
    picked = []
    current = inner
    r = la.rank(F, current)
    for row in outer:
        cand = np.concatenate([current, row[None, :]], axis=0)
        rc = la.rank(F, cand)
        if rc > r:
            picked.append(row)
            current = cand
            r = rc
    return (np.stack(picked, axis=0) if picked
            else np.zeros((0, outer.shape[1]), dtype=np.int64))


@settings(max_examples=150)
@given(q=st.sampled_from([2, 3, 4, 8, 9, 64, 97]), n=st.integers(0, 7), a=st.integers(0, 4),
       b=st.integers(0, 6), rank=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_complete_basis_matches_greedy_loop(q, n, a, b, rank, seed):
    """One rref picks the rows the greedy rank loop picks, with an empty
    inner, and an outer of rank below its row count (products of a
    b x rank and a rank x n matrix, with repeated and zero rows)."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    inner = F.random(rng, (a, n))
    outer = la.matmul(F, F.random(rng, (b, rank)), F.random(rng, (rank, n)))
    if b > 1:
        outer[-1] = outer[0]
    got = la.complete_basis(F, inner, outer)
    want = _reference_complete_basis(F, inner, outer)
    assert got.shape == want.shape and np.array_equal(got, want)
