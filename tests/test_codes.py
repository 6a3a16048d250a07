"""Classical code constructions: duality, products, distances, MDS,
puncturing, the soundness estimator, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes.gf import GF
from prodcodes import codes, linalg as la
from prodcodes.codes import (BudgetExceeded, LinearCode, canonical_points, distinct_points,
                             box_exponents, dual_tensor, eval_code, ltc_soundness_estimate,
                             monomial_eval_matrix, punctured_tensor_rs, rs_code,
                             star_span, tensor, zero_code)
from prodcodes.poly import uni_mul

from test_decoder import uni_eval


def test_rs_distance_exhaustive():
    F = GF(7)
    d = rs_code(F, 7, 3).min_distance()
    assert (d.value, d.exact) == (5, True)
    d2 = rs_code(GF(5), 5, 2).min_distance()
    assert (d2.value, d2.exact) == (4, True)


def test_rs_extremes(gf8):
    assert rs_code(gf8, 8, 0).k == 0
    assert rs_code(gf8, 8, 8).k == 8
    assert math.isinf(rs_code(gf8, 8, 0).min_distance().value)
    # GF(8)^8 has 8^8 > 2 * 10^6 words: refused; GF(8)^6 is scanned
    with pytest.raises(BudgetExceeded, match="needs 16777216 codewords > budget 2000000"):
        LinearCode(gf8, 8, la.identity(8)).min_distance()
    d = LinearCode(gf8, 6, la.identity(6)).min_distance()
    assert (d.value, d.exact, d.method) == (1, True, "enumeration")


def test_min_distance_refuses_past_its_budget():
    """RS(7, 3) over GF(7) has 7^3 = 343 codewords: a budget of 342 refuses,
    a budget of 343 scans them all and finds d = 5."""
    C = rs_code(GF(7), 7, 3)
    with pytest.raises(BudgetExceeded, match="min_distance needs 343 codewords > budget 342"):
        C.min_distance(budget=342)
    d = C.min_distance(budget=343)
    assert (d.value, d.exact, d.method) == (5, True, "enumeration")


def test_rs_validation(gf8):
    with pytest.raises(ValueError):
        rs_code(gf8, 8, 9)
    with pytest.raises(ValueError):
        rs_code(gf8, 9, 2)
    with pytest.raises(ValueError):
        rs_code(gf8, 3, 1, points=np.array([1, 1, 2]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_rs_duality_full_field(q):
    F = GF(q)
    for k in range(q + 1):
        assert rs_code(F, q, k).dual().same_subspace(rs_code(F, q, q - k))


def test_dual_involution_seeded():
    F = GF(4)
    rng = np.random.default_rng(77)
    for _ in range(100):
        k, n = int(rng.integers(0, 7)), 8
        C = LinearCode(F, n, F.random(rng, (k, n)))
        assert C.dual().dual().same_subspace(C)
        assert C.k + C.dual().k == n
        if C.k and C.dual().k:
            assert not np.any(la.matmul(F, C.gen, C.dual().gen.T))


def test_dual_tensor_dimension_formula():
    F = GF(5)
    C1, C2 = rs_code(F, 5, 2), rs_code(F, 5, 3)
    assert dual_tensor(C1, C2).k == 25 - 3 * 2


def test_tensor_adjunction_seeded():
    for q in (2, 3, 4):
        F = GF(q)
        rng = np.random.default_rng(q * 5)
        for _ in range(20):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            C1 = LinearCode(F, n1, F.random(rng, (int(rng.integers(1, n1 + 1)), n1)))
            C2 = LinearCode(F, n2, F.random(rng, (int(rng.integers(1, n2 + 1)), n2)))
            lhs = tensor(C1, C2).dual()
            rhs = dual_tensor(C1.dual(), C2.dual())
            assert lhs.same_subspace(rhs)


def test_tensor_zero_and_full(gf4):
    C = rs_code(gf4, 4, 2)
    assert tensor(C, zero_code(gf4, 3)).k == 0
    assert dual_tensor(C, LinearCode(gf4, 3, la.identity(3))).k == 12


def test_dual_tensor_membership_cross_validation(gf5):
    C1, C2 = rs_code(gf5, 5, 2), rs_code(gf5, 5, 3)
    DT = dual_tensor(C1, C2)
    H1, H2 = C1.parity_check(), C2.parity_check()
    G, spans = _canonical_sum_form(gf5, C1, C2)
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(100):
        if rng.random() < 0.5:
            c = DT.codeword(gf5.random(rng, DT.k))
        else:
            c = gf5.random(rng, 25)
        # c in C1 [+] C2 iff H1 c H2^T = 0, with c as a 5 x 5 matrix
        parity_member = not la.matmul(gf5, la.matmul(gf5, H1, c.reshape(5, 5)), H2.T).any()
        sum_member = la.row_space_contains(gf5, G, c)
        assert parity_member == sum_member
        hits += parity_member
    assert 0 < hits < 100


def _canonical_sum_form(F, C1, C2):
    from prodcodes.expansion import canonical_generator
    return canonical_generator(F, [C1, C2])


def test_star_product_basics(gf5, monkeypatch):
    A = rs_code(gf5, 5, 2)
    ones = np.ones((1, 5), dtype=np.int64)
    assert LinearCode(gf5, 5, star_span(gf5, A.gen, ones)).same_subspace(A)
    assert star_span(gf5, zero_code(gf5, 5).gen, A.gen).shape == (0, 5)
    # RS(k1) * RS(k2) <= RS(k1 + k2 - 1)
    S = star_span(gf5, rs_code(gf5, 5, 2).gen, rs_code(gf5, 5, 3).gen)
    assert la.row_space_contains(gf5, rs_code(gf5, 5, 4).gen, S)
    monkeypatch.setattr(codes, "PAIR_CAP", 1)
    with pytest.raises(BudgetExceeded):
        star_span(gf5, A.gen, A.gen)


def ref_linear_code(F, n, gen):
    """LinearCode's generator and parity check as they were built: every
    generator with rows reduced again, the dual through right_kernel."""
    gen = np.asarray(gen, dtype=np.int64).reshape(-1, n)
    if gen.shape[0]:
        gen = la.row_space(F, gen)
    return gen, la.row_space(F, la.right_kernel(F, gen))


def ref_star_product(A, B):
    """The star product's generator by definition: every pairwise product of
    generator rows, reduced."""
    if A.k == 0 or B.k == 0:
        return np.zeros((0, A.n), dtype=np.int64)
    return la.row_space(A.field, A.field.mul(A.gen[:, None, :], B.gen[None, :, :]).reshape(-1, A.n))


@st.composite
def generators(draw):
    """(F, n, gen) over GF(2), GF(9), GF(64) or GF(97) with n from 1 and
    rank from 0 to n: a spanning set with dependent rows, its rref, or that
    rref with a zero row appended, its rows permuted or one row scaled."""
    F = GF(draw(st.sampled_from([2, 9, 64, 97])))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gen = la.matmul(F, F.random(rng, (k + draw(st.integers(0, 2)), k)), F.random(rng, (k, n)))
    kind = draw(st.sampled_from(["spanning", "rref", "zero row", "permuted", "scaled"]))
    if kind != "spanning":
        gen = la.row_space(F, gen)
    if kind == "zero row":
        gen = np.concatenate([gen, np.zeros((1, n), dtype=np.int64)])
    elif kind == "permuted":
        gen = gen[rng.permutation(gen.shape[0])]
    elif kind == "scaled" and gen.shape[0]:
        i = rng.integers(gen.shape[0])
        gen[i] = F.mul(gen[i], F.random(rng, None, nonzero=True))
    return F, n, gen


@given(generators())
def test_linear_code_matches_always_reduced_generator(case):
    F, n, gen = case
    C = LinearCode(F, n, gen)
    want_gen, want_dual = ref_linear_code(F, n, gen)
    assert C.gen.shape == want_gen.shape and np.array_equal(C.gen, want_gen)
    assert C.pivots == la.rref(F, want_gen)[1]
    assert C.dual().gen.shape == want_dual.shape and np.array_equal(C.dual().gen, want_dual)
    # the caller's array is neither shared nor frozen
    assert not np.shares_memory(C.gen, gen) and gen.flags.writeable


@given(generators(), st.integers(0, 2 ** 32 - 1))
def test_star_product_and_tensor_match_reduced_products(case, seed):
    F, n, gen = case
    A = LinearCode(F, n, gen)
    rng = np.random.default_rng(seed)
    B = LinearCode(F, n, F.random(rng, (int(rng.integers(0, n + 1)), n)))
    for X, Y in ((A, B), (B, A), (A, A)):
        got, want = LinearCode(F, n, star_span(F, X.gen, Y.gen)).gen, ref_star_product(X, Y)
        assert got.shape == want.shape and np.array_equal(got, want)
        # the Kronecker product of rref generators is an rref, kept as given
        T = tensor(X, Y)
        assert np.array_equal(T.gen, la.row_space(F, la.kron(F, X.gen, Y.gen)))
        assert X.k * Y.k == 0 or T.pivots == la.rref_pivots(la.kron(F, X.gen, Y.gen))
        # three codes at once are the pairwise fold, label included
        T3, R3 = tensor(X, Y, A), tensor(T, A)
        assert (T3.n, T3.label) == (R3.n, R3.label) and np.array_equal(T3.gen, R3.gen)


def test_rref_generators_are_reduced_at_most_once(monkeypatch):
    """An rref generator and a Kronecker product of two are kept with no
    elimination; a dual reduces only its kernel basis."""
    F = GF(9)
    C, D = rs_code(F, 9, 4), rs_code(F, 9, 5)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda F, M: calls.append(M.shape) or rref(F, M))
    assert LinearCode(F, 9, C.gen).same_subspace(C)
    assert tensor(C, C).k == 16
    assert calls == []
    assert C.dual().same_subspace(D)
    assert calls == [(5, 9)]


def test_rs_multiplicativity_seeded(gf8):
    pts = canonical_points(gf8, 8)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        f = gf8.random(rng, 3)
        g = gf8.random(rng, 4)
        ef = uni_eval(gf8, f, pts)
        eg = uni_eval(gf8, g, pts)
        efg = uni_eval(gf8, uni_mul(gf8, f, g), pts)
        assert np.array_equal(gf8.mul(ef, eg), efg)


def test_is_mds():
    assert rs_code(GF(7), 7, 3).is_mds()
    rep = LinearCode(GF(2), 3, np.ones((1, 3), dtype=np.int64))
    assert rep.is_mds()  # d = 3 = n - k + 1
    # binary Hamming(7,4): d = 3 < 4, exhaustive-distance oracle agrees
    gen = np.array([[1, 0, 0, 0, 0, 1, 1],
                    [0, 1, 0, 0, 1, 0, 1],
                    [0, 0, 1, 0, 1, 1, 0],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.int64)
    ham = LinearCode(GF(2), 7, gen)
    assert ham.min_distance().value == 3
    assert not ham.is_mds()


def test_is_mds_decides_on_the_dual():
    """A random binary [40, 30] code has C(40, 10) > 10^6 minors and 2^30
    words, past the distance budget; a code is MDS exactly when its dual is,
    and the [40, 10] dual's 2^10 words answer False."""
    code = LinearCode(GF(2), 40, np.random.default_rng(0).integers(0, 2, (30, 40)))
    assert code.k == 30
    assert not code.is_mds()


def test_is_mds_refuses_without_sampling(monkeypatch):
    """n = 27, k = 8 over GF(16): C(27, 8) > 10^6 minors and 16^8 words
    exceed the distance budget, so is_mds refuses before any distance
    computation."""
    ec = punctured_tensor_rs(GF(16), 3, 3, 2, seed=0)
    assert (ec.base.n, ec.base.k) == (27, 8)
    monkeypatch.setattr(LinearCode, "min_distance",
                        lambda *a, **k: pytest.fail("is_mds ran min_distance"))
    with pytest.raises(BudgetExceeded, match="neither minors nor enumeration feasible"):
        ec.base.is_mds()


def ref_is_mds_trivial(C):
    """The earlier is_mds branch for k in {0, n}: such a code is MDS."""
    assert C.k in (0, C.n)
    return True


@given(st.sampled_from([2, 3, 4, 8, 9, 97]), st.integers(1, 12), st.booleans())
def test_is_mds_of_zero_and_full_codes_matches_branch(q, n, full):
    """The zero code and F^n are MDS, as the old branch said; the minors test
    now decides them through one empty minor of full rank."""
    F = GF(q)
    C = LinearCode(F, n, la.identity(n) if full else np.zeros((0, n), dtype=np.int64))
    assert C.is_mds() is ref_is_mds_trivial(C)
    assert C.dual().is_mds() is ref_is_mds_trivial(C.dual())


@pytest.mark.parametrize("rows", [np.zeros((0, 3), dtype=np.int64),
                                  np.array([[1, 0, 2]], dtype=np.int64)])
def test_dedup_rows_keeps_inputs_of_at_most_one_row(rows):
    """The general loop returns an input of at most one row as it is, as
    the old short-input branch did."""
    out = codes._dedup_rows(rows)
    assert out.shape == rows.shape and out.dtype == rows.dtype
    assert np.array_equal(out, rows)


def test_punctured_tensor_rs():
    F = GF(1 << 17)
    ec = punctured_tensor_rs(F, 3, 2, 2, seed=11)
    assert ec.n == 9 and ec.dim == 4 == len(ec.exponent_set)
    assert ec.base.is_mds()
    assert ec.base.dual().is_mds()
    # u = 1 reduces to an RS code on arbitrary points
    ec1 = punctured_tensor_rs(F, 5, 1, 3, seed=4)
    rs = rs_code(F, 5, 3, points=ec1.points[:, 0])
    assert ec1.base.same_subspace(rs)
    # k = m and u < 1 are refused; k = m on explicit points gives the full space
    for m, u, k in [(3, 1, 3), (3, 0, 2), (3, -1, 2)]:
        with pytest.raises(ValueError):
            punctured_tensor_rs(F, m, u, k, seed=0)
    full_pts = np.array([[0], [1], [2]], dtype=np.int64)
    assert eval_code(F, full_pts, box_exponents(0, 3, 1)).dim == 3
    # dim monotone under puncturing: dim <= parent box size
    assert ec.dim <= 4


def _reference_monomial_eval_matrix(F, points, exponents):
    """monomial_eval_matrix by one F.power per monomial and coordinate."""
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    rows = []
    for expo in exponents:
        row = np.ones(points.shape[0], dtype=np.int64)
        for j, d in enumerate(expo):
            if d:
                row = F.mul(row, F.power(points[:, j], d))
        rows.append(row)
    if not rows:
        return np.zeros((0, points.shape[0]), dtype=np.int64)
    return np.stack(rows, axis=0)


@given(st.sampled_from([2, 4, 5, 9, 16, 97]), st.integers(1, 3), st.integers(1, 12),
       st.integers(0, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_monomial_rows_match_per_exponent_loop(q, t, n, count, with_zero, seed):
    """Vandermonde columns give the per-exponent loop's rows, for empty
    exponent lists, exponent 0, exponents of q and above, and points
    containing 0."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    points = F.random(rng, (n, t))
    if with_zero:
        points[0] = 0
    exps = [tuple(int(d) for d in rng.integers(0, 2 * q + 2, size=t)) for _ in range(count)]
    if count:
        exps[0] = (0,) * t
        exps[-1] = (q,) + exps[-1][1:]
    got = monomial_eval_matrix(F, points, exps)
    want = _reference_monomial_eval_matrix(F, points, exps)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 9, 97])
def test_empty_generators_and_parity_checks(q):
    """The zero code's dual is the full space, and the full code, whose
    parity check has no rows, contains every word."""
    F = GF(q)
    rng = np.random.default_rng(q)
    assert np.array_equal(zero_code(F, 5).dual().gen, la.identity(5))
    full = LinearCode(F, 5, la.identity(5))
    assert full.parity_check().shape == (0, 5)
    assert all(la.row_space_contains(F, full.gen, F.random(rng, 5)) for _ in range(4))
    zero = zero_code(F, 5).gen
    assert la.row_space_contains(F, zero, np.zeros(5, dtype=np.int64))
    assert not la.row_space_contains(F, zero, la.identity(5)[2])


def test_eval_code_arity_checks(gf4):
    with pytest.raises(ValueError):
        eval_code(gf4, np.array([[0, 1], [1, 0]]), [(1,)])


def test_ltc_estimator_unit_vector(gf8):
    C = rs_code(gf8, 8, 3)
    H = C.parity_check()
    m, n = H.shape
    est = ltc_soundness_estimate(gf8, H, trials=60, seed=9)
    assert est.rho_hat > 0
    # hand-check the unit-vector ratio on one sample
    e = np.zeros(n, dtype=np.int64)
    e[2] = 1
    ratio = (np.count_nonzero(la.matvec(gf8, H, e)) / m) / (1 / n)
    assert ratio == np.count_nonzero(H[:, 2]) / m * n


def test_ltc_estimator_excludes_codewords(gf8):
    C = rs_code(gf8, 6, 2)
    H = C.parity_check()
    est = ltc_soundness_estimate(gf8, H, trials=40, seed=1)
    assert all(s[1] > 0 for s in est.samples)


def test_serialization_roundtrip(gf16):
    C = rs_code(gf16, 16, 5)
    doc = C.to_json()
    C2 = LinearCode.from_json(doc)
    assert np.array_equal(C2.gen, C.gen) and C2.field == C.field
    assert C2.to_json() == doc


def test_distinct_points_refuses_more_points_than_the_space_has():
    F = GF(4)
    pts = distinct_points(F, 16, 2, np.random.default_rng(0))
    assert len({tuple(p) for p in pts.tolist()}) == 16
    with pytest.raises(ValueError):
        distinct_points(F, 17, 2, np.random.default_rng(0))
