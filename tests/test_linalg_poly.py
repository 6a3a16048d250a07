"""Exact linear algebra properties and polynomial arithmetic."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes.gf import GF
from prodcodes import linalg as la
from prodcodes.poly import uni_divmod, uni_ext_gcd, uni_gcd, uni_mul, uni_trim

from test_decoder import uni_eval


def ref_uni_divmod(F, a, b):
    """The earlier uni_divmod: one numpy F.mul per quotient coefficient and
    one F.sub per step."""
    a, b = uni_trim(a).copy(), uni_trim(b)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if a.size < b.size:
        return np.zeros(0, dtype=np.int64), a
    q = np.zeros(a.size - b.size + 1, dtype=np.int64)
    inv_lead = F.inv(b[-1])
    for shift in range(a.size - b.size, -1, -1):
        coef = F.mul(a[shift + b.size - 1], inv_lead)
        if coef:
            q[shift] = coef
            a[shift:shift + b.size] = F.sub(a[shift:shift + b.size], F.mul(coef, b))
    return q, uni_trim(a)


def ref_uni_mul(F, a, b):
    """The earlier uni_mul: one F.mul and one F.add per nonzero coefficient
    of a."""
    a, b = uni_trim(a), uni_trim(b)
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i in range(a.size):
        if a[i]:
            out[i:i + b.size] = F.add(out[i:i + b.size], F.mul(a[i], b))
    return out


def brute_rank(F, M):
    """Independent oracle: largest r with a nonsingular r x r minor, where
    singularity is decided by permutation-expansion determinants."""
    m, n = M.shape
    best = 0
    for r in range(1, min(m, n) + 1):
        found = False
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.combinations(range(n), r):
                if _perm_det(F, M[np.ix_(rows, cols)]) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = r
        else:
            break
    return best


def _perm_det(F, A):
    r = A.shape[0]
    total = np.int64(0)
    for perm in itertools.permutations(range(r)):
        term = np.int64(1)
        for i, j in enumerate(perm):
            term = F.mul(term, A[i, j])
        sign = _parity(perm)
        total = F.add(total, term if sign == 0 else F.neg(term))
    return int(total)


def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            inv += perm[i] > perm[j]
    return inv % 2


def test_rank_against_minor_oracle():
    F = GF(7)
    rng = np.random.default_rng(12)
    M = F.random(rng, (4, 6))
    assert la.rank(F, M) == brute_rank(F, M)


def test_identity_and_zero_matrices(gf5):
    I = la.identity(5)
    assert la.rank(gf5, I) == 5
    assert la.right_kernel(gf5, I).shape[0] == 0
    Z = np.zeros((3, 4), dtype=np.int64)
    assert la.rank(gf5, Z) == 0
    assert la.right_kernel(gf5, Z).shape[0] == 4


@pytest.mark.parametrize("q", [2, 4, 7, 9])
def test_rank_nullity_and_solve(q):
    F = GF(q)
    rng = np.random.default_rng(q * 11)
    for _ in range(50):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        A = F.random(rng, (m, n))
        r = la.rank(F, A)
        K = la.right_kernel(F, A)
        assert r + K.shape[0] == n
        if K.shape[0]:
            assert not np.any(la.matmul(F, A, K.T))
        # consistent system
        x0 = F.random(rng, n)
        b = la.matvec(F, A, x0)
        x = la.solve_right(F, A, b)
        assert x is not None and np.array_equal(la.matvec(F, A, x), b)
        # inconsistency detection: b outside the column space
        if r < m:
            col_space = la.row_space(F, A.T)
            bad = None
            for cand_idx in range(m):
                cand = np.zeros(m, dtype=np.int64)
                cand[cand_idx] = 1
                if not la.in_row_space(F, col_space, cand):
                    bad = cand
                    break
            if bad is not None:
                assert la.solve_right(F, A, bad) is None
                aug = np.concatenate([A, bad[:, None]], axis=1)
                assert la.rank(F, aug) == r + 1


def test_row_space_intersection(gf4):
    rng = np.random.default_rng(5)
    A = gf4.random(rng, (3, 6))
    B = np.concatenate([A[:1], gf4.random(rng, (2, 6))], axis=0)
    inter = la.row_space_intersection(gf4, A, B)
    assert la.row_space_contains(gf4, A, inter)
    assert la.row_space_contains(gf4, B, inter)
    assert inter.shape[0] >= 1
    # dimension formula: dim A + dim B = dim(A+B) + dim(A cap B)
    ra, rb = la.rank(gf4, A), la.rank(gf4, B)
    rsum = la.rank(gf4, np.concatenate([A, B], axis=0))
    assert inter.shape[0] == ra + rb - rsum


def _reference_row_space_intersection(F, A, B):
    """row_space_intersection by four eliminations: reduce A and B, take the
    left kernel of their stack, map its A half back through A, reduce."""
    A = la.row_space(F, A)
    B = la.row_space(F, B)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1] if A.size else B.shape[1]), dtype=np.int64)
    stacked = np.concatenate([A, B], axis=0)
    lk = la.right_kernel(F, stacked.T)
    if lk.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    return la.row_space(F, la.matmul(F, lk[:, : A.shape[0]], A))


@st.composite
def subspace_pairs(draw):
    """(F, A, B): spanning sets over char 2, odd prime and odd p^e fields,
    with no rows, repeated rows, or B equal to, sharing rows with, or
    spanning a complement of A, at lengths from 1."""
    F = GF(draw(st.sampled_from([2, 4, 8, 3, 7, 97, 9, 25, 27])))
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = F.random(rng, (draw(st.integers(0, 5)), n))
    if A.shape[0] > 1 and draw(st.booleans()):
        A[-1] = A[0]  # rank-deficient
    kind = draw(st.sampled_from(["random", "identical", "shared", "disjoint"]))
    if kind == "identical":
        B = A.copy()
    elif kind == "disjoint":
        # a complement of rowspace(A): the identity rows on its free columns
        B = la.identity(n)[[c for c in range(n) if c not in la.rref(F, A)[1]]]
    else:
        B = F.random(rng, (draw(st.integers(0, 5)), n))
        if kind == "shared" and A.shape[0]:
            B = np.concatenate([A[:1], F.mul(A[-1:], np.int64(F.q - 1)), B])
    return F, A, B


@given(subspace_pairs())
def test_row_space_intersection_matches_four_eliminations(pair):
    F, A, B = pair
    got = la.row_space_intersection(F, A, B)
    want = _reference_row_space_intersection(F, A, B)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_row_space_intersection_is_one_elimination(monkeypatch):
    F = GF(7)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda *a: calls.append(1) or rref(*a))
    A = np.array([[1, 2, 3], [0, 1, 1]])
    got = la.row_space_intersection(F, A, np.array([[1, 3, 4], [0, 0, 1]]))
    assert len(calls) == 1 and got.tolist() == [[1, 3, 4]]


def _reference_right_kernel(F, M):
    """right_kernel with the per-entry fill loop it had before the free
    columns were filled as one block."""
    M = np.atleast_2d(np.asarray(M, dtype=np.int64))
    m, n = M.shape
    R, piv = la.rref(F, M)
    free = [c for c in range(n) if c not in set(piv)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(piv):
            basis[i, pc] = F.neg(R[r, fc])
    return basis


@st.composite
def ranked_matrices(draw):
    """A random m x n product of an m x r and an r x n factor over GF(2),
    GF(9), GF(64) or GF(97): zero rows, rank 0 and full rank all occur."""
    F = GF(draw(st.sampled_from([2, 9, 64, 97])))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return F, la.matmul(F, F.random(rng, (m, r)), F.random(rng, (r, n))), rng


@given(ranked_matrices())
def test_right_kernel_matches_reference_loop(case):
    F, M, _ = case
    assert np.array_equal(la.right_kernel(F, M), _reference_right_kernel(F, M))


def solve_left(F, A, b):
    """x with x A = b (row-vector convention), or None: one solve_right of
    the transposed system per call.  The oracle for left_solver, the
    decomposer and the cached coset projectors."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        return la.solve_right(F, A.T, b)
    x = la.solve_right(F, A.T, b.T)
    return None if x is None else x.T


@given(ranked_matrices(), st.booleans())
def test_left_solver_matches_solve_left(case, consistent):
    F, A, rng = case
    solve = la.left_solver(F, A)
    for _ in range(3):
        if consistent:
            b = la.matmul(F, F.random(rng, (4, A.shape[0])), A)
        else:
            b = F.random(rng, (4, A.shape[1]))
        want = solve_left(F, A, b)
        got = solve(b)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def test_left_solver_keeps_only_its_transform():
    """The solver holds the m x m transform in its own memory, not a view
    into the m x (n + m) rref block it was cut from."""
    F = GF(9)
    A = F.random(np.random.default_rng(3), (7, 5))
    solve = la.left_solver(F, A)
    held = [c.cell_contents for c in solve.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert [a.shape for a in held] == [(5, 5)]
    assert held[0].base is None


def _reference_row_space_contains(F, A, B):
    """row_space_contains by two eliminations: rank(A) = rank([A; B])."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    return la.rank(F, A) == la.rank(F, np.concatenate([A, B], axis=0))


@st.composite
def containment_cases(draw):
    """(F, A, B) over GF(2), GF(9), GF(64) or GF(97) at lengths from 1: A
    with no rows or dependent rows, B with no rows, inside rowspace(A) or
    random, and sometimes a single 1-D vector."""
    F = GF(draw(st.sampled_from([2, 9, 64, 97])))
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = F.random(rng, (draw(st.integers(0, 5)), n))
    if A.shape[0] > 1 and draw(st.booleans()):
        A[-1] = F.mul(A[0], np.int64(F.q - 1))
    b = draw(st.integers(0, 4))
    if draw(st.booleans()):
        B = la.matmul(F, F.random(rng, (b, A.shape[0])), A)
    else:
        B = F.random(rng, (b, n))
    if b and draw(st.booleans()):
        B = B[0]
    return F, A, B


@given(containment_cases())
def test_row_space_contains_matches_two_ranks(case):
    F, A, B = case
    want = _reference_row_space_contains(F, A, B)
    assert la.row_space_contains(F, A, B) is want
    assert la.in_row_space(F, A, B) is (solve_left(F, A, B) is not None) is want


def test_row_space_contains_is_one_elimination(monkeypatch):
    F = GF(7)
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda *a: calls.append(1) or rref(*a))
    A = np.array([[1, 2, 3], [0, 1, 1]])
    assert la.row_space_contains(F, A, np.array([[1, 3, 4]]))
    assert not la.in_row_space(F, A, np.array([0, 0, 1]))
    assert len(calls) == 2


@st.composite
def rref_variants(draw):
    """(F, M): a random matrix from ranked_matrices, its rref basis, or that
    basis with a zero row appended, its rows permuted or one row scaled."""
    F, M, rng = draw(ranked_matrices())
    kind = draw(st.sampled_from(["matrix", "rref", "zero row", "permuted", "scaled"]))
    if kind == "matrix":
        return F, M
    R = la.row_space(F, M)
    if kind == "zero row":
        R = np.concatenate([R, np.zeros((1, R.shape[1]), dtype=np.int64)])
    elif kind == "permuted":
        R = R[rng.permutation(R.shape[0])]
    elif kind == "scaled" and R.shape[0]:
        i = rng.integers(R.shape[0])
        R[i] = F.mul(R[i], F.random(rng, None, nonzero=True))
    return F, R


@given(rref_variants())
def test_rref_pivots_matches_reduction(case):
    """rref_pivots gives the pivots exactly when rref leaves M as it is."""
    F, M = case
    R, piv = la.rref(F, M)
    kept = len(piv) == M.shape[0] and np.array_equal(R, M)
    assert la.rref_pivots(M) == (piv if kept else None)


def _reference_kron(F, *mats):
    """Kronecker product by numpy's integer kron of the entries and of an
    all-ones block, multiplied entrywise over F, folded left to right."""
    out = mats[0]
    for B in mats[1:]:
        out = F.mul(np.kron(out, np.ones_like(B)), np.kron(np.ones_like(out), B))
    return out


def pairwise_axis_blocks(F, mats, lengths):
    """The direction-i embeddings by the fold of pairwise kron over one
    identity per other axis, as the product constructions built them before
    la.axis_blocks."""
    return [functools.reduce(lambda a, b: la.kron(F, a, b),
                             [M if j == i else la.identity(n) for j, n in enumerate(lengths)])
            for i, M in enumerate(mats)]


@st.composite
def kron_factors(draw):
    """(F, mats): one to three random matrices over GF(2), GF(4), GF(9) or
    GF(97), with 0 to 3 rows and 1 to 3 columns, so 1 x 1 and zero-row
    factors occur."""
    F = GF(draw(st.sampled_from([2, 4, 9, 97])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)),
                           min_size=1, max_size=3))
    return F, [F.random(rng, shape) for shape in shapes]


@given(kron_factors())
def test_kron_matches_reference(case):
    F, mats = case
    got = la.kron(F, *mats)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_kron(F, *mats))


@given(kron_factors())
def test_axis_blocks_match_pairwise_kron(case):
    F, mats = case
    lengths = [M.shape[1] for M in mats]
    got, want = la.axis_blocks(F, mats, lengths), pairwise_axis_blocks(F, mats, lengths)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def check_matrices_locality(*mats):
    """The largest row or column weight of check matrices, as
    CheckMatrices._locality computed it before la.locality: the oracle."""
    w = 0
    for m in mats:
        if m.size:
            w = max(w, int(np.count_nonzero(m, axis=1).max()),
                    int(np.count_nonzero(m, axis=0).max()))
    return w


def boundary_locality(boundary):
    """SingleSectorComplex.locality before la.locality, for a square
    boundary matrix: the oracle."""
    if boundary.shape[0] == 0:
        return 0
    rw = int(np.count_nonzero(boundary, axis=1).max())
    cw = int(np.count_nonzero(boundary, axis=0).max())
    return max(rw, cw)


@st.composite
def sparse_matrices(draw):
    """Zero to three matrices over GF(4) with 0 to 5 rows and columns, each
    entry nonzero with a drawn density (0 gives all-zero matrices)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        shape = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        density = draw(st.sampled_from([0.0, 0.3, 1.0]))
        mats.append(np.where(rng.random(shape) < density, rng.integers(1, 4, shape), 0))
    return mats


@given(sparse_matrices())
def test_locality_matches_check_matrices_oracle(mats):
    assert la.locality(*mats) == check_matrices_locality(*mats)
    for M in mats:
        if M.shape[0] == M.shape[1]:
            assert la.locality(M) == boundary_locality(M)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 3), (2, 5)])
def test_locality_of_empty_and_zero_matrices(shape):
    M = np.zeros(shape, dtype=np.int64)
    assert la.locality(M) == check_matrices_locality(M) == 0
    assert la.locality() == 0
    if shape[0] == shape[1]:
        assert boundary_locality(M) == 0


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_gcd_examples():
    F = GF(5)
    # gcd(X^4 - 1, X^6 - 1) = X^2 - 1: exponent-gcd oracle
    a = np.array([4, 0, 0, 0, 1], dtype=np.int64)
    b = np.array([4, 0, 0, 0, 0, 0, 1], dtype=np.int64)
    assert list(uni_gcd(F, a, b)) == [4, 0, 1]
    # idempotence up to monic scaling
    f = np.array([2, 3, 1, 4], dtype=np.int64)
    g = uni_gcd(F, f, f)
    lead = F.inv(f[-1])
    assert np.array_equal(g, F.mul(f, lead))
    # coprime cofactors
    lin = lambda r: np.array([F.neg(np.int64(r)), 1], dtype=np.int64)
    fa = uni_mul(F, lin(1), lin(2))
    fb = uni_mul(F, lin(1), lin(3))
    assert list(uni_gcd(F, fa, fb)) == list(lin(1))


def test_gcd_zero_conventions(gf5):
    f = np.array([0, 2], dtype=np.int64)
    g = uni_gcd(gf5, f, np.zeros(0, dtype=np.int64))
    assert list(g) == [0, 1]
    with pytest.raises(ValueError):
        uni_gcd(gf5, np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("q", [4, 8, 64])
def test_gcd_divides_and_bezout(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    for _ in range(100):
        da, db = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        a = F.random(rng, da + 1)
        b = F.random(rng, db + 1)
        if not a.any() and not b.any():
            continue
        g, u, v = uni_ext_gcd(F, a, b)
        for poly in (a, b):
            if uni_trim(poly).size:
                _, rem = uni_divmod(F, poly, g)
                assert uni_trim(rem).size == 0
        recon = uni_mul(F, u, a)
        vb = uni_mul(F, v, b)
        n = max(recon.size, vb.size, g.size)
        acc = np.zeros(n, dtype=np.int64)
        acc[:recon.size] = recon
        tmp = np.zeros(n, dtype=np.int64)
        tmp[:vb.size] = vb
        acc = F.add(acc, tmp)
        assert np.array_equal(uni_trim(acc), g)


def test_poly_mul_matches_pointwise_eval(gf8, rng):
    xs = gf8.elements()
    for _ in range(20):
        f, g = gf8.random(rng, 4), gf8.random(rng, 5)
        assert np.array_equal(uni_eval(gf8, uni_mul(gf8, f, g), xs),
                              gf8.mul(uni_eval(gf8, f, xs), uni_eval(gf8, g, xs)))


@given(st.sampled_from([2, 7, 8, 9, 16, 49, 97, 3 ** 8, 5 ** 8]), st.integers(-1, 20), st.integers(-1, 20),
       st.sampled_from(["any", "equal", "constant", "zero"]), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_uni_divmod_matches_reference(q, da, db, kind, pad, seed):
    """Log-domain long division against the numpy body it replaced, on
    untrimmed inputs (pad zero leading coefficients), zero dividends, and
    zero, constant and equal-degree divisors; GF(3^8) and GF(5^8) add
    without an addition table."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    db = {"any": db, "equal": da, "constant": 0, "zero": -1}[kind]
    a = F.random(rng, da + 1)
    b = F.random(rng, db + 1)
    if b.size:
        b[-1] = F.random(rng, nonzero=True)
    a, b = (np.concatenate([x, np.zeros(pad, dtype=np.int64)]) for x in (a, b))
    if not uni_trim(b).size:
        with pytest.raises(ZeroDivisionError):
            uni_divmod(F, a, b)
        with pytest.raises(ZeroDivisionError):
            ref_uni_divmod(F, a, b)
        return
    a0 = a.copy()
    quot, rem = uni_divmod(F, a, b)
    want_q, want_r = ref_uni_divmod(F, a, b)
    assert quot.dtype == rem.dtype == np.int64
    assert np.array_equal(quot, want_q) and np.array_equal(rem, want_r)
    assert np.array_equal(a, a0)


@given(st.sampled_from([2, 7, 8, 9, 49, 3 ** 8]), st.integers(-1, 20), st.integers(-1, 20),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_uni_mul_matches_reference(q, da, db, pad_a, pad_b, seed):
    """The anti-diagonal sums of one outer product against the per-
    coefficient loop they replaced, on zero polynomials (degree -1), random
    (possibly zero) coefficients and untrimmed inputs; GF(3^8) adds without
    an addition table."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    a = np.concatenate([F.random(rng, da + 1), np.zeros(pad_a, dtype=np.int64)])
    b = np.concatenate([F.random(rng, db + 1), np.zeros(pad_b, dtype=np.int64)])
    a0, b0 = a.copy(), b.copy()
    got = uni_mul(F, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_uni_mul(F, a, b))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def ref_solve_right_vacuous(A, b):
    """The earlier solve_right branch for a system with no rows: the zero
    solution, one column per right-hand side."""
    squeeze = b.ndim == 1
    ncols = 1 if squeeze else (b.shape[1] if b.ndim == 2 else 1)
    X = np.zeros((A.shape[1], ncols), dtype=np.int64)
    return X[:, 0] if squeeze else X


@given(st.sampled_from([2, 3, 4, 8, 9, 97]), st.integers(0, 6),
       st.one_of(st.none(), st.integers(0, 4)))
def test_solve_right_of_a_vacuous_system_matches_branch(q, n, ncols):
    """A system with no rows runs the general elimination and gives the old
    branch's zero solution, of the same shape and dtype, for a 1-D (ncols
    None) and a 2-D right-hand side."""
    A = np.zeros((0, n), dtype=np.int64)
    b = np.zeros(0 if ncols is None else (0, ncols), dtype=np.int64)
    want, got = ref_solve_right_vacuous(A, b), la.solve_right(GF(q), A, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
