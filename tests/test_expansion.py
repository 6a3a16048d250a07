"""Product-expansion oracles: exact values, invariance properties, closures,
and the canonical-generator rank test."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes.gf import GF
from prodcodes import expansion, linalg as la
from prodcodes.codes import BudgetExceeded, LinearCode, rs_code
from prodcodes.expansion import (Decomposition, PeResult, canonical_generator, decomposer,
                                 dir_weights, epsilon_closure, closure_size_bound,
                                 inner_generated_test, pe_exact)
from prodcodes.codes import punctured_tensor_rs

from test_linalg_poly import solve_left


def axis_space(F, codes, constrained):
    """Basis of the tensor space with the given axes constrained to their
    codes and the remaining axes free, by the fold of pairwise kron: the
    oracle for the canonical generator and the C^(i,j) lattice bases."""
    mats = [constrained[axis].gen if axis in constrained else la.identity(C.n)
            for axis, C in enumerate(codes)]
    return functools.reduce(lambda a, b: la.kron(F, a, b), mats)


def ci_basis(F, codes, i):
    return axis_space(F, codes, {i: codes[i]})


def cij_basis(F, codes, i, j):
    return axis_space(F, codes, {i: codes[i], j: codes[j]})


@st.composite
def code_lists(draw):
    """One to three random codes over GF(2), GF(4), GF(9) or GF(97) at
    lengths 1 to 3, zero codes and full codes included."""
    F = GF(draw(st.sampled_from([2, 4, 9, 97])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    codes = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        codes.append(LinearCode(F, n, F.random(rng, (draw(st.integers(0, n)), n))))
    return F, codes


@given(code_lists())
def test_product_bases_match_pairwise_kron(case):
    """The canonical generator stacks the C^(i) bases and each C^(i,j)
    lattice basis is the one constrained tensor space, bit for bit."""
    F, codes = case
    G, spans = canonical_generator(F, codes)
    assert [b - a for a, b in spans] == [ci_basis(F, codes, i).shape[0]
                                         for i in range(len(codes))]
    assert np.array_equal(G, np.concatenate([ci_basis(F, codes, i)
                                             for i in range(len(codes))]))
    pairs = expansion._pair_bases(F, codes)
    assert [pair for pair, _ in pairs] == list(itertools.combinations(range(len(codes)), 2))
    for (i, j), B in pairs:
        assert np.array_equal(B, cij_basis(F, codes, i, j))


def test_dir_weight_matches_definition():
    c = np.zeros((3, 4), dtype=np.int64)
    c[1, 2] = 5
    c[2, 2] = 1
    c[0, 0] = 3
    # direction-0 columns indexed by the second coordinate
    assert dir_weights(c.ravel(), 0, (3, 4)) == 2
    assert dir_weights(c.ravel(), 1, (3, 4)) == 3
    # leading axes are batch axes
    batch = np.stack([c.ravel(), np.zeros(12, dtype=np.int64)])
    assert dir_weights(batch[None], 1, (3, 4)).tolist() == [[3, 0]]


def test_pe_t1_equals_relative_distance():
    for q, n, k in [(4, 4, 2), (5, 5, 3), (3, 3, 1)]:
        F = GF(q)
        C = rs_code(F, n, k)
        res = pe_exact([C])
        assert res.rho == Fraction(n - k + 1, n)


def test_pe_t1_seeded_random_codes():
    rng = np.random.default_rng(50)
    for _ in range(50):
        q = int(rng.choice([2, 3, 4]))
        F = GF(q)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        C = LinearCode(F, n, F.random(rng, (k, n)))
        if C.k == 0:
            continue
        res = pe_exact([C], budget=5_000_00)
        d = C.min_distance()
        assert res.rho == Fraction(int(d.value), n)


def test_pe_exact_rs41_pinned():
    """Frozen regression value: rho(RS(4,1), RS(4,1)) over GF(4) = 1/2."""
    F = GF(4)
    C = rs_code(F, 4, 1)
    res = pe_exact([C, C], budget=30_000_000)
    assert res.rho == Fraction(1, 2)
    assert res.witness_word is not None
    dec = res.witness
    cost = sum(n * w for n, w in zip(dec.lengths, dec.column_weights))
    assert np.count_nonzero(res.witness_word) * 1 == cost * res.rho


def test_pe_budget_refusal(gf4):
    C = rs_code(gf4, 4, 2)
    with pytest.raises(BudgetExceeded):
        pe_exact([C, C], budget=100)


def test_pe_full_space_tuple():
    # a full-space factor admits single-column covers: rho = 1/n exactly at
    # this size (the asymptotic statement degrades to 0 only as n grows)
    F = GF(2)
    res = pe_exact([LinearCode(F, 2, la.identity(2)), LinearCode(F, 2, np.array([[1, 1]]))],
                   budget=10_000_00)
    assert res.rho == Fraction(1, 2)


def test_pe_scaling_invariance():
    F = GF(4)
    C = rs_code(F, 4, 1)
    base = pe_exact([C, C], budget=30_000_000).rho
    rng = np.random.default_rng(3)
    for _ in range(3):
        g1 = F.random(rng, 4, nonzero=True)
        g2 = F.random(rng, 4, nonzero=True)
        C1 = LinearCode(F, 4, F.mul(C.gen, g1[None, :]))
        C2 = LinearCode(F, 4, F.mul(C.gen, g2[None, :]))
        assert pe_exact([C1, C2], budget=30_000_000).rho == base


def test_pe_subtuple_monotonicity():
    F = GF(4)
    C = rs_code(F, 4, 1)
    pair = pe_exact([C, C], budget=30_000_000).rho
    single = pe_exact([C]).rho
    assert single >= pair


def test_pe_subcode_bound():
    # rho(subcodes) >= rho^(2^t) / 2^t, checked as an inequality
    F = GF(3)
    C1 = rs_code(F, 3, 2)
    C2 = rs_code(F, 3, 2)
    rho = pe_exact([C1, C2], budget=10_000_000).rho
    S1 = rs_code(F, 3, 1)
    S2 = rs_code(F, 3, 1)
    rho_sub = pe_exact([S1, S2], budget=10_000_000).rho
    assert rho_sub >= rho ** 4 / 4


def test_closure_examples():
    # empty set is closed
    empty = np.zeros((4, 4), dtype=bool)
    assert not epsilon_closure((4, 4), empty, 0.5).any()
    # one full column is closed whenever eps*n exceeds the single-cell row
    # intersections, i.e. eps > 1/n
    col = np.zeros((4, 4), dtype=bool)
    col[:, 1] = True
    for eps in (0.3, 0.5, 1.0):
        assert np.array_equal(epsilon_closure((4, 4), col, eps), col)
    # 2x2 corner at eps = 0.5 grows to the full 4x4 grid: each of the two
    # touched columns/rows meets the set in 2 = eps * n cells, closing them
    corner = np.zeros((4, 4), dtype=bool)
    corner[:2, :2] = True
    cl = epsilon_closure((4, 4), corner, 0.5)
    direct = _closure_by_definition((4, 4), corner, 0.5)
    assert np.array_equal(cl, direct)


def _closure_by_definition(lengths, cells, eps):
    """Definition checker: repeatedly scan every direction-i column."""
    A = cells.copy()
    changed = True
    while changed:
        changed = False
        for i in range(len(lengths)):
            for idx in np.ndindex(*(lengths[:i] + lengths[i + 1:])):
                sl = list(idx[:i]) + [slice(None)] + list(idx[i:])
                col = A[tuple(sl)]
                cnt = int(col.sum())
                if 0 < cnt < lengths[i] and cnt >= eps * lengths[i]:
                    A[tuple(sl)] = True
                    changed = True
    return A


def test_closure_idempotence_random(rng):
    for _ in range(100):
        lengths = (4, 4)
        A = rng.random(lengths) < 0.3
        for eps in (0.3, 0.5, 0.9):
            cl = epsilon_closure(lengths, A, eps)
            assert np.array_equal(cl, epsilon_closure(lengths, cl, eps))
            assert np.all(cl | ~A)  # contains A
            assert np.array_equal(cl, _closure_by_definition(lengths, A.copy(), eps))


def test_inner_generated_trivial_sets(gf4):
    codes = [rs_code(gf4, 3, 1), rs_code(gf4, 3, 1)]
    assert inner_generated_test(codes, np.ones((3, 3), dtype=bool))
    assert inner_generated_test(codes, np.zeros((3, 3), dtype=bool))


def test_inner_generated_ptRS_closed_sets():
    """All small eps-closed sets of a seeded punctured tensor RS pair are
    inner-generated (rank equality in the canonical-generator test)."""
    F = GF(1 << 17)
    e1 = punctured_tensor_rs(F, 2, 2, 1, seed=21)
    e2 = punctured_tensor_rs(F, 2, 2, 1, seed=22)
    codes = [e1.base, e2.base]
    n = 4
    import itertools
    checked = 0
    for size in range(0, 7):
        for cells in itertools.combinations(range(n * n), size):
            A = np.zeros(n * n, dtype=bool)
            A[list(cells)] = True
            A = A.reshape(n, n)
            if not np.array_equal(A, epsilon_closure((n, n), A, 0.5)):
                continue
            assert inner_generated_test(codes, A), cells
            checked += 1
    assert checked > 10


def test_canonical_generator_rank_formula(gf4):
    codes = [rs_code(gf4, 3, 1), rs_code(gf4, 3, 2)]
    G, spans = canonical_generator(gf4, codes)
    n2 = 9
    expect = n2 - (3 - 1) * (3 - 2)
    assert la.rank(gf4, G) == expect
    assert G.shape == (1 * 3 + 2 * 3, 9)


def test_base_decomposition_reconstructs(gf4, rng):
    codes = [rs_code(gf4, 3, 2), rs_code(gf4, 3, 1)]
    from prodcodes.codes import dual_tensor
    DT = dual_tensor(codes[0], codes[1])
    words = np.stack([DT.codeword(gf4.random(rng, DT.k)) for _ in range(10)])
    decs = decomposer(gf4, *canonical_generator(gf4, codes))(words)
    for r, w in enumerate(words):
        parts = [p[r] for p in decs]
        total = parts[0]
        for p in parts[1:]:
            total = gf4.add(total, p)
        assert np.array_equal(total, w)
        # each part lies in its C^(i)
        assert all(gf4.mul(parts[0].reshape(3, 3), np.int64(1)) is not None
                   for _ in [0])
        H0 = codes[0].parity_check()
        assert not np.any(la.matmul(gf4, H0, parts[0].reshape(3, 3)))
        H1 = codes[1].parity_check()
        assert not np.any(la.matmul(gf4, parts[1].reshape(3, 3), H1.T))


def test_closure_size_bound_holds(rng):
    for _ in range(50):
        A = rng.random((4, 4)) < 0.2
        if not A.any():
            continue
        cl = epsilon_closure((4, 4), A, 0.5)
        assert cl.sum() <= closure_size_bound(2, 0.5, int(A.sum()))


def test_pe_witness_json_roundtrip():
    F = GF(4)
    C = rs_code(F, 4, 1)
    res = pe_exact([C, C], budget=30_000_000)
    doc = res.to_json()
    assert doc["rho"] == [1, 2]
    assert len(doc["witness"]["parts"]) == 2


# ---------------------------------------------------------------------------
# the batched lattice minimization against the per-word reference loops
# ---------------------------------------------------------------------------


def _reference_dir_weight(c, i, lengths):
    return int(np.count_nonzero(np.any(np.asarray(c).reshape(lengths) != 0, axis=i)))


def _reference_lattices(F, codes):
    """Every element of each C^(i,j) lattice, i < j."""
    t = len(codes)
    N = int(np.prod([c.n for c in codes]))
    out = []
    for i in range(t):
        for j in range(i + 1, t):
            B = cij_basis(F, codes, i, j)
            words = (np.concatenate([w for _, w in la.enumerate_span(F, B)], axis=0)
                     if B.shape[0] else np.zeros((1, N), dtype=np.int64))
            out.append(((i, j), words))
    return out


def _reference_base_parts(F, codes, word):
    G, spans = canonical_generator(F, codes)
    x = solve_left(F, G, word[None, :])[0]
    return [la.matmul(F, x[a:b][None, :], G[a:b])[0] for a, b in spans]


def _reference_min_decomposition(F, lattices, lengths, parts):
    """Scan every lattice combination of one word, first minimum wins."""
    min_cost, min_parts = None, None
    for combo in itertools.product(*[range(w.shape[0]) for _, w in lattices]):
        cand = [p.copy() for p in parts]
        for ((i, j), w), idx in zip(lattices, combo):
            cand[i] = F.add(cand[i], w[idx])
            cand[j] = F.sub(cand[j], w[idx])
        cost = sum(lengths[i] * _reference_dir_weight(cand[i], i, lengths)
                   for i in range(len(parts)))
        if min_cost is None or cost < min_cost:
            min_cost, min_parts = cost, cand
    return min_cost, min_parts


def _reference_pe_exact(codes, budget):
    F = codes[0].field
    t = len(codes)
    lengths = tuple(c.n for c in codes)
    N = int(np.prod(lengths))
    dt_dim = N - int(np.prod([c.n - c.k for c in codes]))
    lattices = _reference_lattices(F, codes)
    lattice_size = int(np.prod([w.shape[0] for _, w in lattices])) if lattices else 1
    n_codewords = F.q ** dt_dim
    if n_codewords * lattice_size > budget:
        raise BudgetExceeded(
            f"pe_exact needs {n_codewords} codewords x {lattice_size} decompositions "
            f"> budget {budget}")
    dt_gen = la.row_space(F, np.concatenate([ci_basis(F, codes, i) for i in range(t)], axis=0))
    best, best_word, best_dec, scanned = None, None, None, 0
    for _, words in la.enumerate_span(F, dt_gen, chunk=512):
        for word in words[np.any(words, axis=1)]:
            scanned += 1
            cost, parts = _reference_min_decomposition(
                F, lattices, lengths, _reference_base_parts(F, codes, word))
            ratio = Fraction(int(np.count_nonzero(word)), cost)
            if best is None or ratio < best:
                best, best_word, best_dec = ratio, word.copy(), Decomposition(parts, lengths)
    if best is None:
        return PeResult(Fraction(0), True, None, None, scanned)
    return PeResult(best, True, best_word, best_dec, scanned)


@st.composite
def code_tuples(draw, orders, max_lengths):
    """t random codes over GF(q), q in orders, each of length 1 to
    max_lengths[t], possibly rank deficient or zero-dimensional."""
    F = GF(draw(st.sampled_from(orders)))
    t = draw(st.sampled_from(list(max_lengths)))
    codes = []
    for _ in range(t):
        n = draw(st.integers(1, max_lengths[t]))
        rows = draw(st.integers(0, n))
        gen = draw(st.lists(st.integers(0, F.q - 1), min_size=rows * n, max_size=rows * n))
        codes.append(LinearCode(F, n, np.array(gen, dtype=np.int64).reshape(rows, n)))
    return codes


def small_code_tuples():
    """t in {2, 3} codes over GF(2), GF(3) or GF(4), short enough for the
    reference loops."""
    return code_tuples([2, 3, 4], {2: 3, 3: 2})


def _json_or_refusal(fn):
    try:
        return fn().to_json()
    except BudgetExceeded as exc:
        return str(exc)


@given(small_code_tuples())
def test_pe_exact_matches_reference_loop(codes):
    budget = 20_000
    assert _json_or_refusal(lambda: pe_exact(codes, budget)) == \
        _json_or_refusal(lambda: _reference_pe_exact(codes, budget))


def _lattice_scan_pe_exact(codes, budget):
    """pe_exact by the batched lattice scan over every word: each block of
    nonzero words gets its decomposer base parts and their cheapest C^(i,j)
    lattice combination, and the first least ratio wins."""
    F = codes[0].field
    lengths = tuple(c.n for c in codes)
    pair_bases = [((i, j), cij_basis(F, codes, i, j))
                  for i, j in itertools.combinations(range(len(codes)), 2)]
    G, spans = canonical_generator(F, codes)
    dt_gen = la.row_space(F, G)
    n_codewords = F.q ** dt_gen.shape[0]
    lattice_size = math.prod(F.q ** B.shape[0] for _, B in pair_bases)
    if n_codewords * lattice_size > budget:
        raise BudgetExceeded(
            f"pe_exact needs {n_codewords} codewords x {lattice_size} decompositions "
            f"> budget {budget}")
    decompose = decomposer(F, G, spans)
    best, best_word, best_dec, scanned = Fraction(0), None, None, 0
    for _, words in la.enumerate_span(F, dt_gen, chunk=512):
        words = words[np.any(words, axis=1)]
        if words.shape[0] == 0:
            continue
        costs, parts = expansion._cheapest_decompositions(F, pair_bases, lengths,
                                                          decompose(words))
        scanned += words.shape[0]
        wts = np.count_nonzero(words, axis=1)
        low = min(Fraction(w, c) for w, c in set(zip(wts.tolist(), costs.tolist())))
        r = int(np.argmax(wts * low.denominator == costs * low.numerator))
        if best_word is None or low < best:
            best, best_word = low, words[r].copy()
            best_dec = Decomposition([p[r] for p in parts], lengths)
    return PeResult(best, True, best_word, best_dec, scanned)


@given(code_tuples([5, 7, 8, 9], {3: 3}))
def test_pe_exact_matches_lattice_scan(codes):
    """Three codes over larger fields, past the reach of the per-word loop:
    the per-direction cost table gives the lattice scan's report, witness
    decomposition included, or its refusal."""
    budget = 200_000
    assert _json_or_refusal(lambda: pe_exact(codes, budget)) == \
        _json_or_refusal(lambda: _lattice_scan_pe_exact(codes, budget))


@given(small_code_tuples(), st.integers(0, 2 ** 32 - 1))
def test_decomposer_matches_solve_left(codes, seed):
    """One reduction of the canonical generator serves block after block and
    gives the parts of the per-block solve_left, including its refusal of a
    word outside the dual tensor code."""
    F = codes[0].field
    G, spans = canonical_generator(F, codes)
    decompose = decomposer(F, G, spans)
    rng = np.random.default_rng(seed)
    for words in (la.matmul(F, F.random(rng, (5, G.shape[0])), G),
                  F.random(rng, (3, G.shape[1])),
                  la.matmul(F, F.random(rng, (7, G.shape[0])), G)):
        X = solve_left(F, G, words)
        if X is None:
            with pytest.raises(ValueError):
                decompose(words)
            continue
        want = [la.matmul(F, X[:, a:b], G[a:b]) for a, b in spans]
        assert all(np.array_equal(g, w) for g, w in zip(decompose(words), want))


@pytest.mark.parametrize("block", [1, 50, 250])
def test_pe_exact_block_split_keeps_the_witness(monkeypatch, block):
    # 9 lattice combinations of 9 cells: blocks of one pair, of five
    # combinations, and of three words with the whole lattice
    F = GF(3)
    codes = [rs_code(F, 3, 2), rs_code(F, 3, 1)]
    # the tuple fold splits its blocks at every direction of a t = 3 binary
    # instance, and over the char-2 extension field GF(4)
    F2, F4 = GF(2), GF(4)
    repetition = [LinearCode(F2, n, np.ones((1, n), dtype=np.int64)) for n in (2, 3, 2)]
    cases = [codes, repetition, [rs_code(F4, 2, 1), rs_code(F4, 3, 1)]]
    want = [pe_exact(c, budget=1_000_000).to_json() for c in cases]
    monkeypatch.setattr(expansion, "_KERNEL_BLOCK", block)
    assert [pe_exact(c, budget=1_000_000).to_json() for c in cases] == want
