"""Dual-tensor decoder: Berlekamp-Welch baseline, the three subroutines on
planted instances, the total alpha-decoder contract, and determinism."""

import hashlib
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes.gf import GF
from prodcodes import decoder, linalg as la
from prodcodes.codes import rs_code, vandermonde
from prodcodes.decoder import (AlphaResult, DualTensorInstance, PromiseViolation,
                               _eliminate, _gcd_over, _grs_parity_check,
                               _locator_matrix, _off_cell_columns,
                               alpha_decode, berlekamp_welch, dec_close, dec_finish,
                               dec_init, random_codeword, random_error)
from prodcodes.poly import uni_divmod, uni_monic, uni_trim
from prodcodes.qdecoder import QdecParams
from prodcodes.rng import stream


# ---------------------------------------------------------------------------
# reference oracles: stage 1 with one copy of each step per axis, and stages
# 2-3 with every solve done in full, through the full bivariate coefficient
# matrix
# ---------------------------------------------------------------------------


def bivariate_coeffs(F, E1, E2, c):
    """The unique coefficient matrix with ev(f) = c on the grid E1 x E2."""
    n = E1.size
    V1 = vandermonde(F, E1, n)
    V2 = vandermonde(F, E2, n)
    T1 = la.solve_right(F, V1, c)
    Fc = la.solve_right(F, V2, T1.T)
    assert T1 is not None and Fc is not None
    return Fc.T


def uni_eval(F, coeffs, points):
    """Horner evaluation of one polynomial at many points."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    points = np.asarray(points, dtype=np.int64)
    acc = np.zeros_like(points)
    for c in coeffs[::-1]:
        acc = F.add(F.mul(acc, points), np.int64(c))
    return acc


def _reference_berlekamp_welch(F, points, k, word, max_errors):
    """Berlekamp-Welch with a full key-equation solve for every word."""
    points = np.asarray(points, dtype=np.int64)
    word = np.asarray(word, dtype=np.int64)
    n = points.size
    t = int(max_errors)
    if t < 0 or k < 0 or k > n:
        return None
    Vq = vandermonde(F, points, k + t)
    Ve = vandermonde(F, points, t)
    lhs = np.concatenate([Vq, F.neg(F.mul(word[:, None], Ve))], axis=1)
    rhs = F.mul(word, F.power(points, t))
    sol = la.solve_right(F, lhs, rhs)
    if sol is None:
        return None
    Q = uni_trim(sol[: k + t])
    E = np.concatenate([sol[k + t:], np.array([1], dtype=np.int64)])
    P, rem = uni_divmod(F, Q, E)
    if uni_trim(rem).size or P.size > k:
        return None
    cw = uni_eval(F, P, points)
    if int(np.count_nonzero(F.sub(word, cw))) > t:
        return None
    return cw


def _e_coeff_basis(inst, K, T):
    """Basis of all e in F[X]^{[0,s]^2} with (e*c) restricted to the cell set
    T lying inside the restriction of C1' [+] C2'.

    With K from _locator_matrix the condition reads K u in colspan(A_off):
    the syndrome of e*c must be the syndrome of some word supported off T.  The
    projection of the kernel of [K | A_off] onto its first (s+1)^2
    coordinates spans exactly these u; right_kernel applied twice turns that
    spanning set into the canonical free-column basis of the subspace.
    """
    F = inst.field
    M = np.concatenate([K, _off_cell_columns(inst, T)], axis=1)
    proj = la.right_kernel(F, M)[:, : K.shape[1]]
    return la.right_kernel(F, la.right_kernel(F, proj))


def _reference_dec_init(inst, c, hits=None):
    """Stage 1 with one copy of each step per axis: the gcds, the
    vanishing-pair scan and the drop pass written out for x1, then for x2.
    The cells the scan removes are appended to hits when it is a list."""
    F = inst.field
    n, s = inst.n, inst.s
    c = np.asarray(c, dtype=np.int64).reshape(n, n)
    H1p = inst.C1p.parity_check()
    H2p = inst.C2p.parity_check()
    V1s = inst.V1[:, :s + 1]
    V2s = inst.V2[:, :s + 1]

    def row_polys(U):
        # (per-x1 coefficient rows in X2, per-x2 coefficient columns in X1)
        return la.matmul(F, V1s, U), la.matmul(F, U, V2s.T)

    K = _locator_matrix(inst, c)
    ker = la.right_kernel(F, K)
    if ker.shape[0] == 0:
        raise PromiseViolation("no nonzero error locator e0 exists")
    U0 = ker[0].reshape(s + 1, s + 1)

    e0_rows, e0_cols = row_polys(U0)
    alive1 = np.any(e0_rows != 0, axis=1)
    alive2 = np.any(e0_cols != 0, axis=0)
    e0_grid = la.matmul(F, la.matmul(F, V1s, U0), V2s.T)
    supp = e0_grid != 0

    def current_T():
        return supp & np.outer(alive1, alive2)

    basis = _e_coeff_basis(inst, K, current_T())
    g1 = [None] * n
    g2 = [None] * n
    e_rows = [row_polys(u.reshape(s + 1, s + 1)) for u in basis]
    for x1 in range(n):
        if alive1[x1]:
            g1[x1] = _gcd_over(F, [rows[x1] for rows, _ in e_rows])
    for x2 in range(n):
        if alive2[x2]:
            g2[x2] = _gcd_over(F, [cols[:, x2] for _, cols in e_rows])

    while True:
        hit = None
        live1 = np.nonzero(alive1)[0]
        live2 = np.nonzero(alive2)[0]
        for x1 in live1:
            vals = uni_eval(F, g1[x1], inst.E2[live2]) if g1[x1].size else \
                np.zeros(live2.size, dtype=np.int64)
            zero2 = live2[np.nonzero(vals == 0)[0]] if g1[x1].size else live2
            if zero2.size:
                hit = (int(x1), int(zero2[0]))
                break
        if hit is None:
            for x2 in live2:
                vals = uni_eval(F, g2[x2], inst.E1[live1]) if g2[x2].size else \
                    np.zeros(live1.size, dtype=np.int64)
                zero1 = live1[np.nonzero(vals == 0)[0]] if g2[x2].size else live1
                if zero1.size:
                    hit = (int(zero1[0]), int(x2))
                    break
        if hit is None:
            break
        if hits is not None:
            hits.append(hit)
        alive1[hit[0]] = False
        alive2[hit[1]] = False

    basis2 = _e_coeff_basis(inst, K, current_T())
    e_rows2 = [row_polys(u.reshape(s + 1, s + 1)) for u in basis2]
    for x1 in np.nonzero(alive1)[0]:
        g = _gcd_over(F, [rows[x1] for rows, _ in e_rows2])
        if g.size != 1:
            alive1[x1] = False
    for x2 in np.nonzero(alive2)[0]:
        g = _gcd_over(F, [cols[:, x2] for _, cols in e_rows2])
        if g.size != 1:
            alive2[x2] = False

    T = current_T()
    cp = np.where(T, c, 0).astype(np.int64)
    off = np.argwhere(~T)
    if off.shape[0]:
        A = _off_cell_columns(inst, T)
        rhs = F.neg(la.matmul(F, la.matmul(F, H1p, cp), H2p.T).ravel())
        sol = la.solve_right(F, A, rhs)
        if sol is None:
            raise PromiseViolation("erasure fill infeasible")
        cp[off[:, 0], off[:, 1]] = sol
    if not inst.member_enlarged(cp):
        raise PromiseViolation("stage-1 output escaped the enlarged code")
    return cp


def _reference_dec_close(inst, cp):
    """Stage 2 through the full bivariate coefficient matrix."""
    F = inst.field
    n, s, k1, k2 = inst.n, inst.s, inst.k1, inst.k2
    cp = np.asarray(cp, dtype=np.int64).reshape(n, n)
    Fc = bivariate_coeffs(F, inst.E1, inst.E2, cp)
    V1 = vandermonde(F, inst.E1, n)
    V2 = vandermonde(F, inst.E2, n)
    out = cp.copy()
    rad2 = inst.stripe_radius(k2 + s)
    for j1 in range(k1, k1 + s):
        v = la.matvec(F, V2, Fc[j1, :])
        cw = _reference_berlekamp_welch(F, inst.E2, k2 + s, v, rad2)
        if cw is None:
            raise PromiseViolation(f"stripe decode failed on coefficient row {j1}")
        r = F.sub(v, cw)
        out = F.sub(out, F.mul(V1[:, j1][:, None], r[None, :]))
    rad1 = inst.stripe_radius(k1 + s)
    for j2 in range(k2, k2 + s):
        v = la.matvec(F, V1, Fc[:, j2])
        cw = _reference_berlekamp_welch(F, inst.E1, k1 + s, v, rad1)
        if cw is None:
            raise PromiseViolation(f"stripe decode failed on coefficient column {j2}")
        r = F.sub(v, cw)
        out = F.sub(out, F.mul(r[:, None], V2[:, j2][None, :]))
    if not inst.member(out):
        raise PromiseViolation("stage-2 output is not in C1 [+] C2")
    return out


def _reference_dec_finish(inst, y):
    """Stage 3 decoding every nonzero line of every sweep."""
    F = inst.field
    n = inst.n
    y = np.asarray(y, dtype=np.int64).reshape(n, n).copy()
    t = inst.peel_radius
    iters = 0
    while True:
        progressed = False
        for x2 in range(n):
            col = y[:, x2]
            if not col.any():
                continue
            cw = _reference_berlekamp_welch(F, inst.E1, inst.k1, col, t)
            if cw is not None and cw.any():
                y[:, x2] = F.sub(col, cw)
                progressed = True
                break
        for x1 in range(n):
            row = y[x1, :]
            if not row.any():
                continue
            cw = _reference_berlekamp_welch(F, inst.E2, inst.k2, row, t)
            if cw is not None and cw.any():
                y[x1, :] = F.sub(row, cw)
                progressed = True
                break
        if not progressed:
            return y, iters
        iters += 1
        if iters > n * n:
            raise AssertionError("peeling exceeded the n^2 iteration bound")


def _reference_alpha_decode(inst, c):
    """alpha_decode with the reference stages."""
    with mock.patch.object(decoder, "dec_init", _reference_dec_init), \
            mock.patch.object(decoder, "dec_close", _reference_dec_close), \
            mock.patch.object(decoder, "dec_finish", _reference_dec_finish):
        return alpha_decode(inst, c)


# ---------------------------------------------------------------------------
# Berlekamp-Welch
# ---------------------------------------------------------------------------


def bw_one(F, points, k, word, t):
    """Batched berlekamp_welch on one word: the codeword, or None."""
    ok, cws = berlekamp_welch(F, points, k, np.asarray(word)[None, :], t)
    return cws[0] if ok[0] else None


def test_bw_zero_errors_identity(gf8, rng):
    C = rs_code(gf8, 8, 3)
    cw = C.codeword(gf8.random(rng, 3))
    got = bw_one(gf8, C.points, 3, cw, 2)
    assert got is not None and np.array_equal(got, cw)


def test_bw_against_exhaustive_nearest():
    F = GF(7)
    C = rs_code(F, 7, 3)
    allcw = np.concatenate([w for _, w in la.enumerate_span(F, C.gen)], axis=0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        cw = C.codeword(F.random(rng, 3))
        w = int(rng.integers(0, 3))
        e = np.zeros(7, dtype=np.int64)
        if w:
            e[rng.permutation(7)[:w]] = F.random(rng, w, nonzero=True)
        word = F.add(cw, e)
        got = bw_one(F, C.points, 3, word, 2)
        dists = np.count_nonzero(F.sub(allcw, word[None, :]), axis=1)
        assert got is not None
        assert np.count_nonzero(F.sub(got, word)) == int(dists.min())
        assert np.array_equal(got, cw)


@st.composite
def bw_cases(draw):
    """Distinct points over GF(p), GF(2^e) or GF(p^e), a dimension and a
    radius with k + 2t <= n, and a word at distance 0..t+2 from a random
    codeword (the zero codeword one time in four)."""
    F = GF(draw(st.sampled_from([7, 8, 9, 13, 16])))
    n = draw(st.integers(1, min(F.q, 16)))
    k = draw(st.integers(0, n))
    t = draw(st.integers(0, (n - k) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.permutation(F.q)[:n].astype(np.int64)
    msg = F.random(rng, k) if draw(st.integers(0, 3)) else np.zeros(k, dtype=np.int64)
    cw = la.matvec(F, vandermonde(F, points, k), msg)
    d = min(n, draw(st.integers(0, t + 2)))
    e = np.zeros(n, dtype=np.int64)
    e[rng.permutation(n)[:d]] = F.random(rng, d, nonzero=True)
    return F, points, k, F.add(cw, e), t


@given(bw_cases())
@settings(max_examples=300)
def test_bw_matches_full_solve(case):
    F, points, k, word, t = case
    got = bw_one(F, points, k, word, t)
    want = _reference_berlekamp_welch(F, points, k, word, t)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype and np.array_equal(got, want)


# words of a batch: distance from a random codeword (None: uniform random)
BW_WORD_KINDS = ("codeword", "light", "within", "beyond", "random")


@st.composite
def bw_batches(draw):
    """A batch of B = 0..8 words on distinct points over GF(p), GF(2^e) or
    GF(p^e), with k + 2t <= n (k = 0, k = n, t = 0 and n - k = 2t drawn
    often).  Each word is a codeword, a light word (weight <= t), a codeword
    plus 1..t errors, a codeword plus more than t errors, or a uniform
    random word."""
    F = GF(draw(st.sampled_from([7, 8, 9, 13, 16])))
    n = draw(st.integers(1, min(F.q, 16)))
    k = draw(st.sampled_from([0, n]) | st.integers(0, n))
    t = draw(st.sampled_from([0, (n - k) // 2]) | st.integers(0, (n - k) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.permutation(F.q)[:n].astype(np.int64)
    V = vandermonde(F, points, k)
    words = np.zeros((draw(st.integers(0, 8)), n), dtype=np.int64)
    for b in range(words.shape[0]):
        kind = draw(st.sampled_from(BW_WORD_KINDS))
        if kind == "random":
            words[b] = F.random(rng, n)
            continue
        cw = np.zeros(n, dtype=np.int64) if kind == "light" else \
            la.matvec(F, V, F.random(rng, k))
        d = {"codeword": 0, "light": draw(st.integers(0, t)),
             "within": draw(st.integers(min(1, t), t)),
             "beyond": draw(st.integers(min(t + 1, n), n))}[kind]
        e = np.zeros(n, dtype=np.int64)
        e[rng.permutation(n)[:d]] = F.random(rng, d, nonzero=True)
        words[b] = F.add(cw, e)
    return F, points, k, words, t


@given(bw_batches())
@settings(max_examples=300)
def test_bw_batch_matches_reference_per_word(case):
    """Every word of the batch decodes from its syndrome as the full
    key-equation solve decodes it alone, and a failed word comes back as
    zeros."""
    F, points, k, words, t = case
    ok, cws = berlekamp_welch(F, points, k, words, t)
    assert ok.shape == (words.shape[0],) and ok.dtype == bool
    assert cws.shape == words.shape and cws.dtype == np.int64
    for b, word in enumerate(words):
        want = _reference_berlekamp_welch(F, points, k, word, t)
        assert ok[b] == (want is not None)
        assert np.array_equal(cws[b], np.zeros_like(word) if want is None else want)


# (q, n, k, t, error positions): the points are 0, 1, ..., n - 1 in the
# field's integer encoding, so position 0 is the point 0
BW_EDGE_CASES = {
    "error at the point 0": (8, 8, 2, 3, [0, 3, 6]),
    "only the point 0 wrong": (13, 7, 3, 1, [0]),
    "t = 0": (13, 9, 4, 0, []),
    "k = 0": (11, 10, 0, 4, [1, 2, 5, 9]),
    "k = n": (9, 9, 9, 0, []),
    "n - k = 2t": (16, 12, 4, 4, [0, 2, 7, 11]),
    "n - k = 2t, fewer errors": (27, 10, 6, 2, [4]),
}


@pytest.mark.parametrize("case", sorted(BW_EDGE_CASES))
def test_bw_edge_cases(case):
    """A codeword with errors at the given positions comes back exactly, as
    in the full key-equation solve, together with the codeword itself and,
    where t > 0, a word with t + 1 errors; the decoder also takes B = 0."""
    q, n, k, t, positions = BW_EDGE_CASES[case]
    F = GF(q)
    rng = np.random.default_rng(q * n + k)
    points = np.arange(n, dtype=np.int64)
    cw = la.matvec(F, vandermonde(F, points, k), F.random(rng, k))
    e = np.zeros(n, dtype=np.int64)
    e[positions] = F.random(rng, len(positions), nonzero=True)
    heavy = np.zeros(n, dtype=np.int64)
    heavy[: min(t + 1, n)] = F.random(rng, min(t + 1, n), nonzero=True)
    words = np.stack([F.add(cw, e), cw, F.add(cw, heavy)])
    ok, cws = berlekamp_welch(F, points, k, words, t)
    assert ok[0] and ok[1] and np.array_equal(cws[0], cw) and np.array_equal(cws[1], cw)
    for b, word in enumerate(words):
        want = _reference_berlekamp_welch(F, points, k, word, t)
        assert ok[b] == (want is not None)
        assert np.array_equal(cws[b], np.zeros(n, dtype=np.int64) if want is None else want)
    ok, cws = berlekamp_welch(F, points, k, words[:0], t)
    assert ok.shape == (0,) and cws.shape == (0, n)


@pytest.mark.parametrize("n, k, t", [(8, 3, 3), (8, 8, 1), (5, 0, 3), (1, 0, 1)])
def test_bw_refuses_radii_beyond_unique_decoding(n, k, t):
    """k + 2t > n has no unique codeword within t, and berlekamp_welch
    raises instead of choosing one."""
    F = GF(16)
    with pytest.raises(ValueError, match="unique decoding"):
        berlekamp_welch(F, np.arange(n), k, np.zeros((2, n), dtype=np.int64), t)


@settings(max_examples=60)
@given(q=st.sampled_from([16, 17, 25]), data=st.data())
def test_every_caller_decodes_within_the_unique_radius(q, data):
    """On random valid instances and planted words, every call that
    alpha_decode's stages make (dec_close's stripes through clean_stripes,
    dec_finish's lines) has k + 2t <= n, and so does every radius of the
    quantum stripe cleanup (QdecParams.stripe_radius); test_qdecoder spies
    on the quantum callers themselves."""
    n = data.draw(st.integers(4, 16), label="n")
    eps = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
    k1 = data.draw(st.integers(0, int((1 - eps) * n)), label="k1")
    k2 = data.draw(st.integers(0, int((1 - eps) * n) - k1), label="k2")
    rho = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(1)]))
    gamma = data.draw(st.sampled_from([1, 2]), label="gamma")
    F = GF(q)
    try:
        inst = DualTensorInstance.build(F, n, k1, k2, eps, rho, gamma)
    except ValueError:
        return  # the locator degree s reaches n
    rng = stream(q, data.draw(st.integers(0, 2 ** 16), label="seed"))
    weight = data.draw(st.integers(1, min(n * n, int(inst.d0) + 3)), label="weight")
    c = F.add(random_codeword(inst, rng), random_error(F, n, weight, rng))
    calls = []

    def spy(F, points, k, words, t):
        calls.append((len(points), k, t))
        return berlekamp_welch(F, points, k, words, t)

    with mock.patch.object(decoder, "berlekamp_welch", spy):
        res = alpha_decode(inst, c)
    assert inst.member(res.word)
    assert all(k + 2 * t <= m for m, k, t in calls)
    params = QdecParams(eps, rho, gamma)
    assert all(kdim + 2 * params.stripe_radius(n, kdim) <= n for kdim in range(n + 1))


@pytest.mark.parametrize("q, n", [(7, 1), (7, 7), (8, 8), (9, 6), (16, 11), (49, 20)])
def test_grs_parity_check_spans_the_dual(q, n):
    """The closed-form parity check has the row space of the dual code,
    for every dimension k including 0 and n."""
    F = GF(q)
    points = np.random.default_rng(q + n).permutation(q)[:n].astype(np.int64)
    for k in range(n + 1):
        H = _grs_parity_check(F, points, k)
        assert H.shape == (n - k, n)
        assert la.rank(F, H) == n - k
        assert np.array_equal(la.row_space(F, H),
                              la.row_space(F, rs_code(F, n, k, points).parity_check()))


GRS_CASE = (GF(13), np.array([3, 11, 0, 7, 5, 12, 1], dtype=np.int64), 3)


def test_grs_parity_check_cache_is_the_closed_form():
    """The cached matrix is V_{n-k}^T diag(u), u_i = prod_{j != i}
    (x_i - x_j)^-1, entry by entry, and read-only."""
    F, points, k = GRS_CASE
    n = points.size
    u = [int(F.inv(F.prod(F.sub(x, np.delete(points, i))))) for i, x in enumerate(points)]
    want = F.mul(vandermonde(F, points, n - k).T, np.array(u)[None, :])
    for _ in range(2):
        H = _grs_parity_check(F, points, k)
        assert np.array_equal(H, want) and not H.flags.writeable


def test_grs_parity_check_is_built_once(monkeypatch):
    """A second call with the same points and k builds nothing."""
    F, points, k = GRS_CASE
    built = []
    monkeypatch.setattr(decoder, "vandermonde",
                        lambda *args: built.append(args) or vandermonde(*args))
    decoder._grs_parity_check_of.cache_clear()
    H = _grs_parity_check(F, points, k)
    assert len(built) == 1
    assert _grs_parity_check(F, points.copy(), k) is H
    assert len(built) == 1
    _grs_parity_check(F, points, k + 1)
    assert len(built) == 2


def test_bw_failure_beyond_radius(gf8, rng):
    C = rs_code(gf8, 8, 3)
    cw = C.codeword(gf8.random(rng, 3))
    e = np.zeros(8, dtype=np.int64)
    e[:4] = gf8.random(rng, 4, nonzero=True)
    got = bw_one(gf8, C.points, 3, gf8.add(cw, e), 1)
    # never a wrong-radius claim: either failure or a codeword within radius
    if got is not None:
        assert np.count_nonzero(gf8.sub(got, gf8.add(cw, e))) <= 1


# ---------------------------------------------------------------------------
# instance bookkeeping
# ---------------------------------------------------------------------------


def test_instance_constants_reference_gamma():
    F = GF(64)
    inst = DualTensorInstance.build(F, 64, 8, 16, Fraction(1, 2),
                                    Fraction(1, 8), gamma=1000)
    # at the reference scale the classic constants appear
    assert inst.alpha == (1000 / (Fraction(1, 8) * Fraction(1, 2))) ** 2
    assert inst.stage1_bound == Fraction(1, 8) * Fraction(1, 2) * 64 ** 2 / 50
    assert inst.stripe_bound == Fraction(1, 2) * 64 / 25
    assert inst.s == 1 and inst.d0 < 1


def test_instance_rate_validation():
    F = GF(64)
    with pytest.raises(ValueError):
        DualTensorInstance.build(F, 64, 20, 16, Fraction(1, 2))
    # s = ceil(rho eps n / gamma) = n: locators of degree n on n points
    with pytest.raises(ValueError, match="locator degree"):
        DualTensorInstance.build(GF(8), 8, 0, 0, Fraction(1), Fraction(1), gamma=1)


def test_instance_json_roundtrip():
    F = GF(32)
    inst = DualTensorInstance.build(F, 32, 4, 8, Fraction(1, 2), Fraction(1, 8), 2)
    doc = inst.to_json()
    inst2 = DualTensorInstance.from_json(doc)
    assert inst2.n == 32 and inst2.s == inst.s and inst2.d0 == inst.d0
    assert np.array_equal(inst2.E1, inst.E1)


# ---------------------------------------------------------------------------
# planted pipeline, n = 32 (scaled constants gamma = 2: s = 1, d0 = 1)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inst32():
    return DualTensorInstance.build(GF(32), 32, 4, 8, Fraction(1, 2),
                                    Fraction(1, 8), gamma=2)


def test_planted_trials_n32(inst32):
    F = inst32.field
    for trial in range(8):
        rng = stream(32, trial)
        a = random_codeword(inst32, rng)
        b = random_error(F, 32, int(inst32.d0), rng)
        res = alpha_decode(inst32, F.add(a, b))
        assert not res.fallback
        assert inst32.member(res.word)
        assert res.residual <= inst32.alpha * np.count_nonzero(b)
        assert res.stages["stage1_residual"] <= inst32.stage1_bound
        assert res.stages["stage3_weight"] <= 8 * np.count_nonzero(b) / inst32.eps
        assert res.stages["peel_iterations"] <= 32 * 32


def test_membership_path(inst32, rng):
    a = random_codeword(inst32, rng)
    res = alpha_decode(inst32, a)
    assert not res.fallback and res.residual == 0
    assert np.array_equal(res.word, a)
    assert res.stages["path"] == "membership"


def test_fallback_only_off_promise(inst32, rng):
    # far outside the promise: a random word; the decoder must still output a
    # codeword, flagging FALLBACK only if the pipeline gave up
    w = inst32.field.random(rng, (32, 32))
    res = alpha_decode(inst32, w)
    assert inst32.member(res.word)


def test_determinism(inst32):
    F = inst32.field
    rng1 = stream(9, 0)
    a = random_codeword(inst32, rng1)
    b = random_error(F, 32, 1, rng1)
    c = F.add(a, b)
    r1 = alpha_decode(inst32, c)
    r2 = alpha_decode(inst32, c)
    assert np.array_equal(r1.word, r2.word)
    assert r1.stages == r2.stages


def test_stagewise_contracts_n32(inst32):
    F = inst32.field
    rng = stream(77, 1)
    a = random_codeword(inst32, rng)
    b = random_error(F, 32, 1, rng)
    c = F.add(a, b)
    cp = dec_init(inst32, c)
    assert inst32.member_enlarged(cp)
    assert np.count_nonzero(F.sub(cp, c)) <= inst32.stage1_bound
    cpp = dec_close(inst32, cp)
    assert inst32.member(cpp)
    y = F.sub(cpp, c)
    yp, iters = dec_finish(inst32, y)
    assert iters <= 32 * 32
    # y' stays in y + C1 [+] C2
    assert inst32.member(F.sub(yp, y))
    assert np.count_nonzero(yp) <= 8 * np.count_nonzero(b) / inst32.eps


def test_dec_init_already_codeword(inst32, rng):
    a = random_codeword(inst32, rng)
    cp = dec_init(inst32, a)
    # e0 = 1 is admissible, so the stage must agree with a everywhere it kept
    assert inst32.member_enlarged(cp)
    assert np.count_nonzero(inst32.field.sub(cp, a)) <= inst32.stage1_bound


def test_dec_finish_trivial_cases(inst32):
    F = inst32.field
    z = np.zeros((32, 32), dtype=np.int64)
    out, iters = dec_finish(inst32, z)
    assert not out.any() and iters == 0
    # a pure column codeword peels away completely in one pass
    c1 = inst32.C1.codeword(F.random(stream(5, 5), inst32.k1))
    y = np.zeros((32, 32), dtype=np.int64)
    y[:, 7] = c1
    out, iters = dec_finish(inst32, y)
    assert not out.any()
    assert iters == 1


# ---------------------------------------------------------------------------
# n = 64 planted suite and the structured rational-function error
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inst64():
    return DualTensorInstance.build(GF(64), 64, 8, 16, Fraction(1, 2),
                                    Fraction(1, 8), gamma=2)


def test_planted_trials_n64(inst64):
    F = inst64.field
    assert inst64.s == 2 and inst64.d0 == 4
    for trial in range(2):
        rng = stream(64, trial)
        a = random_codeword(inst64, rng)
        b = random_error(F, 64, 4, rng)
        res = alpha_decode(inst64, F.add(a, b))
        assert not res.fallback and inst64.member(res.word)
        assert res.residual <= 8 * 4 / inst64.eps


def test_rational_function_error_stage1():
    """A reciprocal-pattern error confined to one column is absorbed by the
    error-locator stage: e0 = X1 clears it, so c' matches the clean codeword
    on all but a vanishing fraction of cells."""
    F = GF(64)
    inst = DualTensorInstance.build(F, 64, 8, 16, Fraction(1, 2),
                                    Fraction(1, 8), gamma=4)
    rng = stream(123, 0)
    a = random_codeword(inst, rng)
    b = np.zeros((64, 64), dtype=np.int64)
    nz = np.nonzero(inst.E1)[0]
    b[nz, 5] = F.inv(inst.E1[nz])
    c = F.add(a, b)
    cp = dec_init(inst, c)
    diff = int(np.count_nonzero(F.sub(cp, c)))
    assert diff <= inst.stage1_bound
    agree_a = int(np.count_nonzero(F.sub(cp, a) == 0))
    assert agree_a >= 64 * 64 - float(inst.stage1_bound) - 64


# ---------------------------------------------------------------------------
# stage-1 kernel against the dense dual-support path
# ---------------------------------------------------------------------------


def _reference_e_coeff_basis(inst, K, T):
    """The dense path: a basis Zker of all dual vectors H1'^T Z H2' supported
    on T, built from one Kronecker row per off cell, then right_kernel(Zker K)."""
    F = inst.field
    H1p = inst.C1p.parity_check()
    H2p = inst.C2p.parity_check()
    m1, m2 = H1p.shape[0], H2p.shape[0]
    off = np.argwhere(~T)
    if off.shape[0] == 0:
        Zker = la.identity(m1 * m2)
    else:
        R = H1p[:, off[:, 0]].T
        S = H2p[:, off[:, 1]].T
        rows = F.mul(R[:, :, None], S[:, None, :]).reshape(off.shape[0], m1 * m2)
        Zker = la.right_kernel(F, rows)
    if Zker.shape[0] == 0:
        return la.identity((inst.s + 1) ** 2)
    return la.right_kernel(F, la.matmul(F, Zker, K))


@st.composite
def stage1_cases(draw):
    """A small instance over GF(2^e), GF(p^e) or GF(p) with 1 <= s <= n/2, a
    planted word with a random number of errors, and a random cell set T
    whose off-cell density runs from none to all cells."""
    F = GF(draw(st.sampled_from([7, 8, 9, 13, 16])))
    n = draw(st.integers(4, min(F.q, 10)))
    k1 = draw(st.integers(0, n // 4))
    k2 = draw(st.integers(0, n // 2 - k1))
    rho = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(1)]))
    inst = DualTensorInstance.build(F, n, k1, k2, Fraction(1, 2), rho, gamma=1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = F.add(random_codeword(inst, rng),
              random_error(F, n, draw(st.integers(0, n * n)), rng))
    T = ~(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])))
    return inst, c, T


@given(stage1_cases())
def test_e_coeff_basis_matches_dense_path(case):
    """The admissible basis read off rref([A_off | K]) is, bit for bit, that
    of the dense path and of the three-kernel path _e_coeff_basis."""
    inst, c, T = case
    K = _locator_matrix(inst, c)
    got = _eliminate(inst, K, c, T)[0]
    assert np.array_equal(got, _reference_e_coeff_basis(inst, K, T))
    assert np.array_equal(got, _e_coeff_basis(inst, K, T))


@given(stage1_cases())
def test_erasure_fill_matches_solve_right(case):
    """The fill read off rref([A_off | K]) is the particular solution of
    A_off v = -syndrome(c restricted to T) that solve_right returns, and
    None exactly where solve_right finds no solution.  The cases draw T from
    no cell off to every cell off, and random words that make many of the
    systems infeasible."""
    inst, c, T = case
    F = inst.field
    H1p, H2p = inst.C1p.parity_check(), inst.C2p.parity_check()
    rhs = F.neg(la.matmul(F, la.matmul(F, H1p, np.where(T, c, 0)), H2p.T).ravel())
    want = la.solve_right(F, _off_cell_columns(inst, T), rhs)
    got = _eliminate(inst, _locator_matrix(inst, c), c, T)[1]
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the three stages against the reference stages, in and beyond the promise
# ---------------------------------------------------------------------------


@st.composite
def pipeline_cases(draw):
    """A small instance with promise radius d0 >= 1 over GF(2^e), GF(p^e) or
    GF(p), and a planted word at any weight up to d0 + 3 or a uniformly
    random word."""
    F = GF(draw(st.sampled_from([16, 25, 29, 32])))
    n = draw(st.integers(8, 16))
    k1 = draw(st.integers(0, n // 4))
    k2 = draw(st.integers(0, n // 2 - k1))
    rho = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2)]))
    inst = DualTensorInstance.build(F, n, k1, k2, Fraction(1, 2), rho, gamma=1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 7)):
        weight = draw(st.integers(0, int(inst.d0) + 3))
        c = F.add(random_codeword(inst, rng), random_error(F, n, weight, rng))
    else:
        c = F.random(rng, (n, n))
    return inst, c


@given(pipeline_cases())
@settings(max_examples=150)
def test_alpha_decode_matches_reference_stages(case):
    inst, c = case
    got = alpha_decode(inst, c)
    want = _reference_alpha_decode(inst, c)
    assert np.array_equal(got.word, want.word)
    assert (got.fallback, got.residual, got.stages) == \
        (want.fallback, want.residual, want.stages)


def locator_quotient_word(inst, rng):
    """A codeword plus w / e0 on the support of a random locator e0, where w
    holds up to two random C2' rows and two random C1' columns.  Such a word
    lies far beyond the promise: e0 * c agrees with a word of C1' [+] C2' off
    the zeros of e0, while the errors sit on the support of e0, so the admissible
    locators can share zeros on live lines and the stage-1 scan drops
    cells."""
    F, n, s = inst.field, inst.n, inst.s
    e0 = la.matmul(F, la.matmul(F, inst.V1[:, :s + 1], F.random(rng, (s + 1, s + 1))),
                   inst.V2[:, :s + 1].T)
    w = np.zeros((n, n), dtype=np.int64)
    for i in rng.choice(n, rng.integers(0, 3), replace=False):
        w[i] = F.add(w[i], inst.C2p.codeword(F.random(rng, inst.k2 + s)))
    for j in rng.choice(n, rng.integers(0, 3), replace=False):
        w[:, j] = F.add(w[:, j], inst.C1p.codeword(F.random(rng, inst.k1 + s)))
    errors = np.where(e0 != 0, F.div(w, np.where(e0 != 0, e0, 1)), 0)
    return F.add(random_codeword(inst, rng), errors)


def assert_dec_init_matches_reference(inst, c):
    """dec_init and _reference_dec_init return the same word or raise the
    same PromiseViolation; returns the cells the reference scan removed."""
    hits = []
    try:
        want = _reference_dec_init(inst, c, hits)
    except PromiseViolation as exc:
        with pytest.raises(PromiseViolation) as got:
            dec_init(inst, c)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(dec_init(inst, c), want)
    return hits


def test_dec_init_scan_drops_cells_like_the_reference():
    """A word on which the stage-1 scan removes five cells, and dec_init
    still returns what the reference returns."""
    inst = DualTensorInstance.build(GF(16), 8, 1, 2, Fraction(1, 2), Fraction(1, 8), gamma=1)
    hits = assert_dec_init_matches_reference(
        inst, locator_quotient_word(inst, np.random.default_rng(33)))
    assert len(hits) == 5


@given(st.sampled_from([13, 16, 25]), st.integers(8, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_dec_init_matches_reference_beyond_the_promise(q, n, seed):
    inst = DualTensorInstance.build(GF(q), n, 1, 2, Fraction(1, 2), Fraction(1, 8), gamma=1)
    assert_dec_init_matches_reference(inst, locator_quotient_word(inst, np.random.default_rng(seed)))


def stage1_eliminations(inst, c):
    """Checks dec_init on c against the reference; returns the cells the
    reference scan removed and the number of rref calls with m1*m2 rows
    that dec_init made."""
    rows = inst.C1p.parity_check().shape[0] * inst.C2p.parity_check().shape[0]
    hits, shapes, rref = [], [], la.rref

    def spy(F, M):
        shapes.append(np.shape(M))
        return rref(F, M)

    want = _reference_dec_init(inst, c, hits)
    with mock.patch.object(la, "rref", spy):
        assert np.array_equal(dec_init(inst, c), want)
    return hits, sum(m == rows for m, _ in shapes)


def test_dec_init_eliminates_once_per_cell_set():
    """On an in-promise word where no cell is dropped, dec_init makes two
    eliminations with m1*m2 rows: the kernel of K for e0, and one of
    [A_off | K] that serves the drop scan, the gcd pass and the erasure
    fill."""
    F = GF(64)
    inst = DualTensorInstance.build(F, 48, 6, 12, Fraction(1, 2), Fraction(1, 8), gamma=2)
    rng = stream(64, 2)
    assert stage1_eliminations(
        inst, F.add(random_codeword(inst, rng), random_error(F, 48, 2, rng))) == ([], 2)


def test_dec_init_eliminates_again_after_a_gcd_kill():
    """A word on which the scan drops no cell but the gcd pass kills lines:
    the erasure fill reads a third elimination, of the shrunken cell set."""
    inst = DualTensorInstance.build(GF(16), 8, 1, 2, Fraction(1, 2), Fraction(1, 8), gamma=1)
    assert stage1_eliminations(
        inst, locator_quotient_word(inst, np.random.default_rng(2))) == ([], 3)


def test_dec_init_keeps_lines_whose_gcd_is_any_nonzero_constant():
    """A line lives on when its locators are coprime, whatever unit their
    gcd comes scaled by: dec_init returns the same word when every gcd is
    made monic first.  On this word some line gcds are constants other
    than 1."""
    inst = DualTensorInstance.build(GF(13), 8, 1, 2, Fraction(1, 2), Fraction(1, 8), gamma=1)
    c = locator_quotient_word(inst, np.random.default_rng(14))
    seen = []

    def monic_gcd(F, rows):
        seen.append(_gcd_over(F, rows))
        return uni_monic(F, seen[-1])

    with mock.patch.object(decoder, "_gcd_over", monic_gcd):
        want = dec_init(inst, c)
    assert any(g.size == 1 and g[0] != 1 for g in seen)
    assert np.array_equal(dec_init(inst, c), want)
    assert_dec_init_matches_reference(inst, c)


def test_instance_rejects_bad_evaluation_points():
    F = GF(16)
    pts = np.arange(8)
    for bad in (np.array([16, *range(1, 8)]), np.array([-1, *range(1, 8)]),
                np.array([0, 0, *range(2, 8)])):
        for E1, E2 in ((bad, pts), (pts, bad)):
            with pytest.raises(ValueError, match="distinct elements of GF"):
                DualTensorInstance(F, 8, 1, 2, E1, E2, Fraction(1, 2))


# ---------------------------------------------------------------------------
# real noise: every weight inside the promise
# ---------------------------------------------------------------------------


def _planted_decode(inst, weight, rng):
    F = inst.field
    word = F.add(random_codeword(inst, rng), random_error(F, inst.n, weight, rng))
    res = alpha_decode(inst, word)
    assert inst.member(res.word)
    assert not res.fallback, res.stages
    assert res.residual <= inst.alpha * weight
    return res


@pytest.mark.parametrize("q, n", [(64, 64), (49, 40)])
def test_planted_decode_at_every_weight(q, n):
    inst = DualTensorInstance.build(GF(q), n, n // 8, n // 4, Fraction(1, 2),
                                    Fraction(1, 8), gamma=2)
    assert int(inst.d0) >= 1
    for weight in range(1, int(inst.d0) + 1):
        _planted_decode(inst, weight, stream(n, weight))


def test_planted_decode_n128():
    inst = DualTensorInstance.build(GF(128), 128, 16, 32, Fraction(1, 2),
                                    Fraction(1, 8), gamma=2)
    assert inst.s == 4 and inst.d0 == 16
    res = _planted_decode(inst, 4, stream(128, 4))
    assert res.stages["stage1_residual"] <= inst.stage1_bound


@pytest.mark.parametrize("q, n, weight", [(16, 4, 0), (16, 4, 5), (49, 6, 36), (2, 3, 2)])
def test_random_error_draws_like_its_earlier_body(q, n, weight):
    """random_error (the n x n error_vector) draws the support, then the
    values, from the same stream as the body it replaced."""
    F = GF(q)
    rng = np.random.default_rng(7)
    want = np.zeros(n * n, dtype=np.int64)
    if weight:
        support = rng.permutation(n * n)[:weight]
        want[support] = F.random(rng, weight, nonzero=True)
    got = random_error(F, n, weight, np.random.default_rng(7))
    assert np.array_equal(got, want.reshape(n, n))


# ---------------------------------------------------------------------------
# the pinned decoder sweep
# ---------------------------------------------------------------------------


def test_alpha_decode_sweep_is_pinned():
    """105 decodes over the three matmul branches (GF(64) n = 48, GF(49)
    n = 40, GF(97) n = 48; eps = 1/2, rho = 1/8, gamma = 2, k1 = n/8,
    k2 = n/4), seeds 1-3, planted words at weights 0..d0+3, 8, 16, 32, 64
    and 128 and one uniformly random word: the output words (sha256), the
    fallback count, the residuals and the stages are those of the earlier
    decoder, in and far beyond the promise."""
    words, fallbacks, residuals, stages = hashlib.sha256(), 0, [], []
    for q, n in ((64, 48), (49, 40), (97, 48)):
        F = GF(q)
        inst = DualTensorInstance.build(F, n, n // 8, n // 4, Fraction(1, 2),
                                        Fraction(1, 8), gamma=2)
        for seed in (1, 2, 3):
            rng = stream(q, seed)
            for weight in [*range(int(inst.d0) + 4), 8, 16, 32, 64, 128, None]:
                if weight is None:
                    word = F.random(rng, (n, n))
                else:
                    word = F.add(random_codeword(inst, rng), random_error(F, n, weight, rng))
                res = alpha_decode(inst, word)
                words.update(res.word.tobytes())
                fallbacks += res.fallback
                residuals.append(res.residual)
                stages.append(res.stages)
    assert len(residuals) == 105 and fallbacks == 45
    assert words.hexdigest() == \
        "4f74f31775e77467292b02fd4886cca57aa5535f9b5ba2f3208511f0d455f7bc"
    assert hashlib.sha256(json.dumps(residuals).encode()).hexdigest() == \
        "62233b7f306d6e79c8f4a5ced701b063affb63d5906ed27ef8948ec96e74ac94"
    assert hashlib.sha256(json.dumps(stages, sort_keys=True).encode()).hexdigest() == \
        "34c5efda2b7b53759130df92325ea84b4f72ce6f8487d207587d267d1676f7aa"
