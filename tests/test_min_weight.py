"""linalg.min_weight_search against the enumerate-and-minimize loops it
replaced.

Each ref_* function below is one of those loops, kept in behaviour: the
exact branches of LinearCode.min_distance, ltc_soundness_estimate,
subsystem._side_distance, complexes.systolic_distance (one pass over the
boundaries per class representative), filling_constant_estimate and
qdecoder.nearest_syndrome_exact.  Values, returned words, samples and
tie-breaks must match exactly."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes import codes, linalg as la, qdecoder
from prodcodes.codes import BudgetExceeded, LinearCode, ltc_soundness_estimate
from prodcodes.complexes import (FillingEstimate, SingleSectorComplex,
                                 filling_constant_estimate, systolic_distance)
from prodcodes.gf import GF
from prodcodes.qdecoder import nearest_syndrome_exact
from prodcodes.subsystem import _side_distance

ORDERS = [2, 3, 4, 8, 9]


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------


def ref_min_distance(C):
    best = C.n + 1
    for _, words in la.enumerate_span(C.field, C.gen):
        w = np.count_nonzero(words, axis=1)
        w = w[w > 0]
        if w.size:
            best = min(best, int(w.min()))
    return best


def ref_ltc_soundness_estimate(F, H, trials, seed, coset_budget=200_000):
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    m, n = H.shape
    ker = la.right_kernel(F, H)
    exact = F.q ** ker.shape[0] <= coset_budget
    ker_words = None
    if exact and ker.shape[0]:
        ker_words = np.concatenate([w for _, w in la.enumerate_span(F, ker)], axis=0)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    best = math.inf
    samples = []
    done = 0
    while done < trials:
        w = int(rng.integers(1, n + 1))
        support = rng.permutation(n)[:w]
        e = np.zeros(n, dtype=np.int64)
        e[support] = F.random(rng, w, nonzero=True)
        syn_w = int(np.count_nonzero(la.matvec(F, H, e)))
        if syn_w == 0:
            continue
        if exact and ker_words is not None:
            ew = int(np.count_nonzero(F.sub(e[None, :], ker_words), axis=1).min())
        else:
            ew = int(np.count_nonzero(e))
        ratio = (syn_w / m) / (ew / n)
        samples.append((ew, syn_w, ratio))
        best = min(best, ratio)
        done += 1
    return best, exact, samples


def ref_side_distance(F, logical_space, gauge_dual):
    n = logical_space.shape[1]
    if logical_space.shape[0] == 0:
        return math.inf
    gauge_par = la.right_kernel(F, gauge_dual) if gauge_dual.shape[0] else la.identity(n)
    best = math.inf
    for _, words in la.enumerate_span(F, logical_space):
        if gauge_par.shape[0]:
            outside = np.any(la.matmul(F, words, gauge_par.T), axis=1)
        else:
            outside = np.zeros(words.shape[0], dtype=bool)
        w = np.count_nonzero(words[outside], axis=1)
        if w.size:
            best = min(best, int(w.min()))
    return best


def ref_systolic_distance(C):
    F = C.field
    if C.homology_dim() == 0:
        return math.inf
    best = C.dim + 1
    reps = la.complete_basis(F, C.boundaries(), C.cycles())
    for coefs, cls in la.enumerate_span(F, reps):
        for rep in cls[np.any(coefs, axis=1)]:
            for _, bwords in la.enumerate_span(F, C.boundaries()):
                w = int(np.count_nonzero(F.add(rep[None, :], bwords), axis=1).min())
                best = min(best, w)
    return best


def ref_filling_constant_estimate(C, trials, seed):
    F = C.field
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    cyc = C.cycles()
    cyc_words = None
    if cyc.shape[0]:
        cyc_words = np.concatenate([w for _, w in la.enumerate_span(F, cyc)], axis=0)
    best, samples, done, attempts = 0.0, [], 0, 0
    while done < trials and attempts < trials * 20:
        attempts += 1
        x = F.random(rng, C.dim)
        b = la.matvec(F, C.boundary, x)
        if not b.any():
            continue
        if cyc_words is not None:
            pre = int(np.count_nonzero(F.add(x[None, :], cyc_words), axis=1).min())
        else:
            pre = int(np.count_nonzero(x))
        ratio = pre / int(np.count_nonzero(b))
        samples.append((int(np.count_nonzero(b)), pre, ratio))
        best = max(best, ratio)
        done += 1
    return FillingEstimate(best, done, True, samples)


def ref_nearest_syndrome_exact(F, img, s, budget=200_000):
    if img.shape[0] == 0:
        return np.zeros_like(s)
    if F.q ** img.shape[0] > budget:
        return None
    best, best_w = None, None
    for _, words in la.enumerate_span(F, img):
        d = np.count_nonzero(F.sub(words, s[None, :]), axis=1)
        i = int(np.argmin(d))
        if best_w is None or d[i] < best_w:
            best_w = int(d[i])
            best = words[i].copy()
    return best


def ref_min_weight_search(F, basis, offsets, exclude):
    """One word at a time in mixed-radix order; a strictly lighter word wins."""
    k, n = basis.shape
    weights, words = [], []
    for v in offsets:
        best, best_word = n + 1, np.zeros(n, dtype=np.int64)
        for idx in range(F.q ** k):
            coefs = np.array([idx // F.q ** j % F.q for j in range(k)], dtype=np.int64)
            w = la.matmul(F, coefs[None, :], basis)[0]
            if exclude is not None and not la.matvec(F, exclude, w).any():
                continue
            wt = int(np.count_nonzero(F.add(v, w)))
            if wt < best:
                best, best_word = wt, w
        weights.append(best)
        words.append(best_word)
    return weights, words


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def _matrix(F, rng, rows, n):
    """Random rows, the second a copy of the first when there are two or
    more, so bases are often rank deficient."""
    M = F.random(rng, (rows, n))
    if rows >= 2 and rng.integers(2):
        M[1] = M[0]
    return M


def _random_complex(F, n, rng):
    """boundary = X^T M Y with Y X^T = 0, so boundary^2 = 0."""
    Y = F.random(rng, (int(rng.integers(1, n)), n))
    K = la.right_kernel(F, Y)
    X = la.matmul(F, F.random(rng, (int(rng.integers(1, n)), K.shape[0])), K)
    M = F.random(rng, (X.shape[0], Y.shape[0]))
    return SingleSectorComplex(F, la.matmul(F, la.matmul(F, X.T, M), Y))


@st.composite
def span_instances(draw):
    """(F, basis, offsets, exclusion kind, rng) with q^k * n small."""
    F = GF(draw(st.sampled_from(ORDERS)))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4 if F.q <= 3 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis = _matrix(F, rng, k, n)
    offsets = F.random(rng, (draw(st.integers(0, 4)), n))
    kind = draw(st.sampled_from(["none", "zero", "whole", "proper"]))
    return F, basis, offsets, kind, rng


def _exclude(F, kind, basis, rng):
    """A parity matrix of {0}, of the whole space, or of the span of one or
    two random vectors (possibly a row of the basis)."""
    n = basis.shape[1]
    if kind == "none":
        return None
    if kind == "zero":
        return la.identity(n)
    if kind == "whole":
        return np.zeros((0, n), dtype=np.int64)
    X = F.random(rng, (int(rng.integers(1, 3)), n))
    if basis.shape[0] and rng.integers(2):
        X[0] = basis[0]
    return la.right_kernel(F, X)


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------


def _small_chunks(monkeypatch, chunk):
    """enumerate_span in blocks of chunk words, so a scan crosses blocks."""
    monkeypatch.setattr(la, "enumerate_span",
                        functools.partial(la.enumerate_span, chunk=chunk))


@pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 14])
@given(span_instances())
@settings(max_examples=50)
def test_min_weight_search_matches_word_by_word_scan(chunk, inst):
    F, basis, offsets, kind, rng = inst
    exclude = _exclude(F, kind, basis, rng)
    with pytest.MonkeyPatch.context() as m:
        _small_chunks(m, chunk)
        weights, words = la.min_weight_search(F, basis, offsets, exclude)
    want_w, want_words = ref_min_weight_search(F, basis, offsets, exclude)
    assert weights.tolist() == want_w
    assert words.shape == offsets.shape
    assert all(np.array_equal(a, b) for a, b in zip(words, want_words))


@pytest.mark.parametrize("chunk", [1, 2, 1 << 14])
def test_ties_go_to_the_first_word_in_mixed_radix_order(monkeypatch, chunk):
    _small_chunks(monkeypatch, chunk)
    F = GF(3)
    basis = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    # coefficient index 1 = (1, 0) is the first word of weight 1; (2, 0),
    # (0, 1) and (0, 2) tie with it later in the scan
    w, words = la.min_weight_search(F, basis, np.zeros((1, 3), dtype=np.int64),
                                    exclude=la.identity(3))
    assert w.tolist() == [1] and words.tolist() == [[1, 0, 0]]
    # offset (0, 0, 1): every w gives weight >= 1; w = 0 comes first
    w, words = la.min_weight_search(F, basis, np.array([[0, 0, 1]]))
    assert w.tolist() == [1] and words.tolist() == [[0, 0, 0]]
    # the same offset outside span(e1): (1, 0) is excluded, (2, 0) too, so
    # the first counted word is (0, 1) at index 3
    w, words = la.min_weight_search(F, basis, np.array([[0, 0, 1]]),
                                    exclude=la.right_kernel(F, basis[:1]))
    assert w.tolist() == [2] and words.tolist() == [[0, 1, 0]]


def test_nothing_counted_gives_n_plus_one_and_zero_word():
    F = GF(4)
    basis = np.array([[1, 2, 3]], dtype=np.int64)
    offsets = np.array([[1, 1, 0], [0, 0, 0]], dtype=np.int64)
    w, words = la.min_weight_search(F, basis, offsets, exclude=np.zeros((0, 3), dtype=np.int64))
    assert w.tolist() == [4, 4] and not words.any()
    # an empty basis spans {0}: the offset's own weight, or nothing outside {0}
    empty = np.zeros((0, 3), dtype=np.int64)
    assert la.min_weight_search(F, empty, offsets)[0].tolist() == [2, 0]
    assert la.min_weight_search(F, empty, offsets, la.identity(3))[0].tolist() == [4, 4]


# ---------------------------------------------------------------------------
# every call site against its old loop
# ---------------------------------------------------------------------------


@given(span_instances())
def test_min_distance_matches_old_loop(inst):
    F, basis, *_ = inst
    C = LinearCode(F, basis.shape[1], basis)
    d = C.min_distance()
    if C.k == 0:
        assert math.isinf(d.value)
    else:
        assert (d.value, d.exact, d.method) == (ref_min_distance(C), True, "enumeration")
        assert type(d.value) is int


@given(span_instances(), st.sampled_from([1, 200_000]), st.integers(0, 2 ** 32 - 1))
def test_ltc_soundness_matches_old_loop(inst, coset_budget, seed):
    F, basis, _, _, rng = inst
    n = basis.shape[1]
    H = _matrix(F, rng, int(rng.integers(1, 4)), n)
    H[0, int(rng.integers(n))] = 1  # a nonzero row, so some errors are detected
    with mock.patch.object(codes, "SOUNDNESS_COSET_BUDGET", coset_budget):
        got = ltc_soundness_estimate(F, H, trials=6, seed=seed)
    best, exact, samples = ref_ltc_soundness_estimate(F, H, 6, seed, coset_budget)
    assert (got.rho_hat, got.used_exact_coset_min, got.samples) == (best, exact, samples)
    assert all(type(ew) is int for ew, *_ in got.samples)


@given(span_instances())
def test_side_distance_matches_old_loop(inst):
    F, basis, _, _, rng = inst
    gauge_dual = _matrix(F, rng, int(rng.integers(0, 3)), basis.shape[1])
    got = _side_distance(F, basis, la.right_kernel(F, gauge_dual))
    assert got == ref_side_distance(F, basis, gauge_dual)


def test_side_distance_with_no_gauge_counts_every_nonzero_word():
    F = GF(9)
    basis = np.array([[1, 2, 0, 0], [0, 0, 1, 1]], dtype=np.int64)
    # the zero gauge: its parity map is the identity
    got = _side_distance(F, basis, la.identity(4))
    assert got == 2 == ref_side_distance(F, basis, np.zeros((0, 4)))


@given(st.sampled_from([(2, 7), (4, 5), (8, 4)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_systolic_distance_matches_old_loop(field_n, seed):
    q, n = field_n
    C = _random_complex(GF(q), n, np.random.default_rng(seed))
    d = systolic_distance(C, budget=10 ** 9)
    assert d.value == ref_systolic_distance(C)
    if C.homology_dim():
        assert d.exact and d.method == "coset-enumeration" and type(d.value) is int


@given(st.sampled_from([(2, 7), (4, 5), (8, 4)]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 10 ** 6]))
@settings(max_examples=60)
def test_filling_estimate_matches_old_loop(field_n, seed, budget):
    q, n = field_n
    C = _random_complex(GF(q), n, np.random.default_rng(seed))
    count = q ** C.cycles().shape[0]
    if count > budget:
        with pytest.raises(BudgetExceeded, match=f"needs {count} cycle words"):
            filling_constant_estimate(C, trials=5, seed=seed, budget=budget)
        return
    got = filling_constant_estimate(C, trials=5, seed=seed, budget=budget)
    assert got == ref_filling_constant_estimate(C, 5, seed)


@given(span_instances())
def test_nearest_syndrome_exact_matches_old_loop(inst):
    F, basis, offsets, *_ = inst
    for s in offsets:
        got = nearest_syndrome_exact(F, basis, s)
        assert np.array_equal(got, ref_nearest_syndrome_exact(F, basis, s))


def test_nearest_syndrome_exact_projects_and_refuses_over_budget(monkeypatch):
    F = GF(8)
    img = np.array([[1, 0, 3, 0], [0, 1, 0, 5]], dtype=np.int64)
    word = la.matmul(F, np.array([[2, 7]]), img)[0]
    noisy = word.copy()
    noisy[2] = F.add(noisy[2], 1)
    assert np.array_equal(nearest_syndrome_exact(F, img, noisy), word)
    monkeypatch.setattr(qdecoder, "NEAREST_SYNDROME_BUDGET", 63)
    assert nearest_syndrome_exact(F, img, noisy) is None
    monkeypatch.setattr(qdecoder, "NEAREST_SYNDROME_BUDGET", 64)
    assert np.array_equal(nearest_syndrome_exact(F, img, noisy), word)
    empty = np.zeros((0, 4), dtype=np.int64)
    assert np.array_equal(nearest_syndrome_exact(F, empty, noisy), np.zeros(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_ltc_soundness_peak_memory_is_bounded():
    """A kernel of dimension 16 over GF(2) at n = 64: the span is 2^16 x 64
    int64, 32 MiB.  The loop that concatenated the span peaked at 68.6 MiB
    on this instance under tracemalloc, the search at 28.3 MiB: it holds one
    chunk of span words and one chunk of candidates.  The bound is half of
    the old peak."""
    F = GF(2)
    rng = np.random.default_rng(5)
    H = F.random(rng, (48, 64))
    assert la.right_kernel(F, H).shape[0] == 16
    tracemalloc.start()
    try:
        est = ltc_soundness_estimate(F, H, trials=4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.used_exact_coset_min
    assert peak <= 34 << 20, f"peak {peak / 2 ** 20:.1f} MiB"
