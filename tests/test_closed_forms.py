"""Closed forms and duals against the eliminations they replaced.

The reference bodies below are the earlier ones, kept verbatim in behaviour:
the rref of a generalized Reed-Solomon generator by `linalg.rref`, every
dual reduced from the kernel basis read off gen and pivots, the Vandermonde
inverse by `linalg.solve_right` against the identity, and `_solve_gamma`'s
single reduction of [M | target].  An rref and an inverse are unique, so
the closed forms and the duals read off reversed rrefs must return
bit-identical arrays, and the gamma drawn from the same generator must be
the same vector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes import linalg as la
from prodcodes import transversal as tv
from prodcodes.codes import (LinearCode, box_exponents, distinct_points, grs_rref,
                             lagrange_weights, monomial_eval_matrix, rs_code, tensor,
                             vandermonde, vandermonde_inverse, zero_code)
from prodcodes.gf import GF
from prodcodes.subsystem import quantum_rs, subsystem_product

ORDERS = [2, 3, 4, 9, 64, 97, 1 << 17]


def ref_grs_rref(F, points, k, mult):
    R, piv = la.rref(F, F.mul(vandermonde(F, points, k).T, mult[None, :]))
    return R[: len(piv)], piv


def ref_dual(C):
    return la.row_space(C.field, la.rref_kernel(C.field, C.gen, C.pivots))


def ref_vandermonde_inverse(F, points):
    return la.solve_right(F, vandermonde(F, points, points.size), la.identity(points.size))


def ref_solve_gamma(F, M, target, rng):
    n = M.shape[1]
    R, piv = la.rref(F, np.concatenate([M, target[:, None]], axis=1))
    if len(piv) != M.shape[0] or piv[-1] >= n:
        raise tv.GammaSolveError("monomial box evaluations are not independent")
    g0 = np.zeros(n, dtype=np.int64)
    g0[piv] = R[:, n]
    K = la.rref_kernel(F, R[:, :n], piv)
    for _ in range(64):
        g = g0
        if K.shape[0]:
            g = F.add(g0, la.matmul(F, F.random(rng, K.shape[0])[None, :], K)[0])
        if np.all(g != 0):
            return g
    raise tv.GammaSolveError("no entrywise-nonzero gamma found in 64 draws")


def draw_points(F, rng, n):
    return rng.choice(F.q, size=n, replace=False).astype(np.int64)


def assert_closed_forms(F, points, k, mult):
    n = points.size
    R, piv = ref_grs_rref(F, points, k, mult)
    got = grs_rref(F, points, k, mult)
    assert got.dtype == np.int64 and got.shape == (k, n)
    assert np.array_equal(got, R) and piv == list(range(k))
    C = rs_code(F, n, k, points)
    assert np.array_equal(C.gen, ref_grs_rref(F, points, k, np.ones(n, dtype=np.int64))[0])
    D = C.dual()
    assert type(D) is LinearCode and D.label == f"dual({C.label})" and D.dual() is C
    assert np.array_equal(D.gen, ref_dual(C))
    R, piv = la.rref(F, C.gen[:, ::-1])
    got, got_piv = C._reversed_rref()
    assert np.array_equal(got, R[: len(piv)]) and got_piv == piv
    assert np.array_equal(vandermonde_inverse(F, points), ref_vandermonde_inverse(F, points))


@given(st.sampled_from(ORDERS), st.integers(1, 24), st.floats(0, 1),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150)
def test_closed_forms_match_eliminations(q, n, frac, seed):
    """grs_rref with random nonzero multipliers, the RS generator and dual,
    and the Vandermonde inverse, on random distinct points."""
    F = GF(q)
    n = min(n, q)
    k = round(frac * n)
    rng = np.random.default_rng(seed)
    points = draw_points(F, rng, n)
    assert_closed_forms(F, points, k, F.random(rng, n, nonzero=True))


@pytest.mark.parametrize("q", ORDERS)
def test_closed_forms_at_the_edges(q):
    """k in {0, n}, n = 1, the full field as points, and unit multipliers."""
    F = GF(q)
    rng = np.random.default_rng(q)
    full = F.element_order()[: min(q, 40)]
    for points in (draw_points(F, rng, 1), np.zeros(1, dtype=np.int64), full,
                   full[::-1].copy(), draw_points(F, rng, min(q, 7))):
        n = points.size
        for k in sorted({0, 1, n // 2, n - 1, n}):
            for mult in (np.ones(n, dtype=np.int64), F.random(rng, n, nonzero=True)):
                assert_closed_forms(F, points, k, mult)


DUAL_ORDERS = [2, 4, 9, 64, 97]


def assert_duals_match(codes):
    """Each code's dual, and the dual of their tensor product, equal the
    earlier body, and each dual's dual is the code itself."""
    for C in (*codes, tensor(*codes)):
        D = C.dual()
        assert D.gen.dtype == np.int64 and np.array_equal(D.gen, ref_dual(C))
        assert D.dual() is C


def random_factor(F, rng):
    """A code of length 1..6 and a random generator of 0..n rows, or, one
    time in four when n <= q, an RS code on random points."""
    n = int(rng.integers(1, 7))
    k = int(rng.integers(0, n + 1))
    if n <= F.q and rng.random() < 0.25:
        return rs_code(F, n, k, draw_points(F, rng, n))
    return LinearCode(F, n, F.random(rng, (k, n)))


@given(st.sampled_from(DUAL_ORDERS), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150)
def test_duals_match_the_kernel_reduction(q, factors, seed):
    """Random codes and their tensor products of one to three factors."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    assert_duals_match([random_factor(F, rng) for _ in range(factors)])


@pytest.mark.parametrize("q", DUAL_ORDERS)
def test_duals_at_the_edges(q):
    """k in {0, n} alone and inside two- and three-factor products."""
    F = GF(q)
    rng = np.random.default_rng(q)
    full = LinearCode(F, 3, la.identity(3))
    other = LinearCode(F, 4, F.random(rng, (2, 4)))
    for edge in (zero_code(F, 3), full, LinearCode(F, 1, np.ones((1, 1), dtype=np.int64))):
        assert_duals_match([edge])
        assert_duals_match([edge, other])
        assert_duals_match([other, edge, full])


def test_product_duals_at_n_1024():
    """The duals of the subsystem product qRS(32,28,28) (x) qRS(32,16,18)
    over GF(32), N = 1024, equal the earlier body (0.19 s there)."""
    F = GF(32)
    prod = subsystem_product([quantum_rs(F, 32, 28, 28), quantum_rs(F, 32, 16, 18)])
    for C in (prod.qx, prod.qz):
        assert np.array_equal(C.dual().gen, ref_dual(C))


def test_lagrange_weights_are_the_barycentric_weights():
    """sum_i w_i f(x_i) = 0 for every f of degree <= n - 2, and w_i x_i^(n-1)
    sums to 1: the leading coefficient of the interpolant."""
    F = GF(97)
    rng = np.random.default_rng(3)
    x = draw_points(F, rng, 11)
    w = lagrange_weights(F, x)
    sums = F.sum(F.mul(vandermonde(F, x, 11).T, w[None, :]), axis=1)
    assert not sums[:10].any() and sums[10] == 1


@given(st.sampled_from(ORDERS), st.integers(1, 12), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_solve_gamma_matches_one_elimination(q, b, extra, seed):
    """At u = 1 the closed form draws the same gamma as the one reduction of
    [M | target] from the same generator, or refuses in the same way."""
    F = GF(q)
    n = min(b + extra, q)
    rng = np.random.default_rng(seed)
    E = draw_points(F, rng, n)[:, None]
    M = monomial_eval_matrix(F, E, box_exponents(0, b, 1))
    target = np.zeros(b, dtype=np.int64)
    target[int(rng.integers(b))] = 1
    outcomes = []
    for solve in (lambda r: tv._solve_gamma(F, E, M, target, r),
                  lambda r: ref_solve_gamma(F, M, target, r)):
        try:
            outcomes.append(solve(np.random.default_rng(seed)))
        except tv.GammaSolveError:
            outcomes.append(None)
    got, want = outcomes
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)


@pytest.mark.parametrize("u", [1, 2])
def test_solve_gamma_on_a_box(u):
    """A box [0, 2]^u on distinct points of GF(97)^u: both routes agree, and
    gamma meets the conditions with every entry nonzero."""
    F = GF(97)
    rng = np.random.default_rng(u)
    E = distinct_points(F, 3 ** u + 4, u, rng)
    exps = box_exponents(0, 3, u)
    M = monomial_eval_matrix(F, E, exps)
    target = np.zeros(len(exps), dtype=np.int64)
    target[exps.index(tuple([1] * u))] = 1
    got = tv._solve_gamma(F, E, M, target, np.random.default_rng(5))
    assert np.array_equal(got, ref_solve_gamma(F, M, target, np.random.default_rng(5)))
    assert np.array_equal(la.matvec(F, M, got), target) and np.all(got != 0)


def test_solve_gamma_refuses_a_box_past_the_points():
    """More box rows than points: the evaluations are dependent."""
    F = GF(97)
    E = np.arange(4, dtype=np.int64)[:, None]
    M = monomial_eval_matrix(F, E, box_exponents(0, 5, 1))
    with pytest.raises(tv.GammaSolveError):
        tv._solve_gamma(F, E, M, np.eye(5, dtype=np.int64)[2], np.random.default_rng(0))
