"""Product-expansion oracles: exact values, Monte-Carlo agreement,
invariance properties, closures, and the canonical-generator rank test."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes.gf import GF
from prodcodes import expansion, linalg as la
from prodcodes.codes import BudgetExceeded, LinearCode, full_code, rs_code
from prodcodes.expansion import (Decomposition, PeResult, _descend_decomposition,
                                 canonical_generator, ci_basis, cij_basis,
                                 decomposer, decomposition_difference_witness,
                                 dir_weights, epsilon_closure, closure_size_bound,
                                 inner_generated_test, pe_exact, pe_monte_carlo)
from prodcodes.codes import punctured_tensor_rs


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
    assert np.count_nonzero(res.witness_word) * 1 == dec.cost() * res.rho


def test_pe_budget_refusal(gf4):
    C = rs_code(gf4, 4, 2)
    with pytest.raises(BudgetExceeded):
        pe_exact([C, C], budget=100)


def test_pe_full_space_tuple():
    # a full-space factor admits single-column covers: rho = 1/n exactly at
    # this size (the asymptotic statement degrades to 0 only as n grows)
    F = GF(2)
    res = pe_exact([full_code(F, 2), LinearCode(F, 2, np.array([[1, 1]]))],
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


def test_pe_monte_carlo_agrees_and_bounds():
    F = GF(4)
    C = rs_code(F, 4, 1)
    exact = pe_exact([C, C], budget=30_000_000).rho
    mc = pe_monte_carlo([C, C], trials=2000, seed=7)
    assert mc.rho == exact  # seeded run reproduces the exact optimum
    # an upper estimate can never fall below the true value
    assert mc.rho >= exact


def test_pe_monte_carlo_includes_cheap_witnesses():
    F = GF(5)
    C1 = rs_code(F, 5, 2)
    C2 = rs_code(F, 5, 3)
    mc = pe_monte_carlo([C1, C2], trials=0, seed=0)
    # with zero random trials only the single-column products remain, whose
    # best ratio is min_i distance_i / n
    assert mc.rho <= Fraction(4, 5)
    assert mc.rho > 0


def test_pe_decreases_when_dual_contained():
    # rate sum > 1 with C1^perp <= C2 admits unusually light codewords
    F = GF(5)
    C1 = rs_code(F, 5, 3)
    C2 = rs_code(F, 5, 3)  # C1^perp = RS(2) <= RS(3) = C2
    mc = pe_monte_carlo([C1, C2], trials=500, seed=3)
    healthy = pe_monte_carlo([rs_code(F, 5, 1), rs_code(F, 5, 1)],
                             trials=500, seed=3)
    assert mc.rho < healthy.rho


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
    decs = decomposer(gf4, codes)(words)
    for r, w in enumerate(words):
        parts = [p[r] for p in decs]
        total = parts[0]
        for p in parts[1:]:
            total = gf4.add(total, p)
        assert np.array_equal(total, w)
        assert np.array_equal(Decomposition(parts, (3, 3)).total(gf4), w)
        # each part lies in its C^(i)
        assert all(gf4.mul(parts[0].reshape(3, 3), np.int64(1)) is not None
                   for _ in [0])
        H0 = codes[0].parity_check()
        assert not np.any(la.matmul(gf4, H0, parts[0].reshape(3, 3)))
        H1 = codes[1].parity_check()
        assert not np.any(la.matmul(gf4, parts[1].reshape(3, 3), H1.T))


def test_decomposition_difference_witness_seeded(gf4, rng):
    codes = [rs_code(gf4, 3, 2), rs_code(gf4, 3, 1)]
    from prodcodes.codes import dual_tensor
    DT = dual_tensor(codes[0], codes[1])
    B = cij_basis(gf4, codes, 0, 1)
    for _ in range(100):
        w = DT.codeword(gf4.random(rng, DT.k))
        pa = [p[0] for p in decomposer(gf4, codes)(w[None, :])]
        z = la.matmul(gf4, gf4.random(rng, B.shape[0])[None, :], B)[0]
        pb = [gf4.add(pa[0], z), gf4.sub(pa[1], z)]
        wit = decomposition_difference_witness(gf4, codes, pa, pb)
        assert wit is not None
        assert np.array_equal(gf4.sub(pa[0], pb[0]), gf4.neg(wit[(0, 1)]))
        assert np.array_equal(gf4.sub(pa[1], pb[1]), wit[(0, 1)])


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
    x = la.solve_left(F, G, word[None, :])[0]
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


def _reference_pe_monte_carlo(codes, trials, seed, lattice_budget):
    F = codes[0].field
    t = len(codes)
    lengths = tuple(c.n for c in codes)
    N = int(np.prod(lengths))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    dt_gen = la.row_space(F, np.concatenate([ci_basis(F, codes, i) for i in range(t)], axis=0))
    if dt_gen.shape[0] == 0:
        return PeResult(Fraction(0), False, None, None, 0)
    pair_bases = [((i, j), cij_basis(F, codes, i, j))
                  for i in range(t) for j in range(i + 1, t)]
    lattice_size = math.prod(F.q ** b.shape[0] for _, b in pair_bases)
    lattices = (_reference_lattices(F, codes)
                if lattice_size <= lattice_budget and t > 1 else None)
    samples = []
    for i, C in enumerate(codes):
        if C.k == 0:
            continue
        w, word = N + 1, None
        for _, chunk in la.enumerate_span(F, C.gen):
            ws = np.count_nonzero(chunk, axis=1)
            pos = np.nonzero(ws > 0)[0]
            if pos.size and ws[pos].min() < w:
                w = int(ws[pos].min())
                word = chunk[pos[np.argmin(ws[pos])]]
        if word is None:
            continue
        emb = np.zeros(lengths, dtype=np.int64)
        sl = [0] * t
        sl[i] = slice(None)
        emb[tuple(sl)] = word
        samples.append(emb.ravel())
    for _ in range(trials):
        coef = F.random(rng, dt_gen.shape[0])
        if coef.any():
            samples.append(la.matmul(F, coef[None, :], dt_gen)[0])
    best, best_word, best_dec = None, None, None
    for word in samples:
        if not word.any():
            continue
        parts = _reference_base_parts(F, codes, word)
        if lattices is not None:
            cost, parts = _reference_min_decomposition(F, lattices, lengths, parts)
        else:
            parts = _reference_descend_decomposition(F, parts, pair_bases, lengths)
            cost = sum(lengths[i] * _reference_dir_weight(parts[i], i, lengths)
                       for i in range(t))
        ratio = Fraction(int(np.count_nonzero(word)), cost)
        if best is None or ratio < best:
            best, best_word, best_dec = ratio, word, Decomposition(parts, lengths)
    return PeResult(best if best is not None else Fraction(0), False,
                    best_word, best_dec, len(samples))


def _reference_descend_decomposition(F, parts, pair_bases, lengths, sweeps=3):
    """Greedy coordinate descent that copies every part for every candidate."""
    t = len(parts)
    cur = [p.copy() for p in parts]

    def cost(ps):
        return sum(lengths[i] * _reference_dir_weight(ps[i], i, lengths) for i in range(t))

    cur_cost = cost(cur)
    for _ in range(sweeps):
        improved = False
        for (i, j), B in pair_bases:
            for row in B:
                for scalar in range(1, F.q):
                    z = F.mul(np.int64(scalar), row)
                    cand = [p.copy() for p in cur]
                    cand[i] = F.add(cand[i], z)
                    cand[j] = F.sub(cand[j], z)
                    cc = cost(cand)
                    if cc < cur_cost:
                        cur, cur_cost = cand, cc
                        improved = True
        if not improved:
            break
    return cur


@st.composite
def small_code_tuples(draw):
    """t in {2, 3} random codes over GF(2), GF(3) or GF(4), possibly rank
    deficient or zero-dimensional, short enough for the reference loops."""
    F = GF(draw(st.sampled_from([2, 3, 4])))
    t = draw(st.sampled_from([2, 3]))
    codes = []
    for _ in range(t):
        n = draw(st.integers(1, 3 if t == 2 else 2))
        rows = draw(st.integers(0, n))
        gen = draw(st.lists(st.integers(0, F.q - 1), min_size=rows * n, max_size=rows * n))
        codes.append(LinearCode(F, n, np.array(gen, dtype=np.int64).reshape(rows, n)))
    return codes


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


@given(small_code_tuples(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 4096]))
def test_pe_monte_carlo_matches_reference_loop(codes, seed, lattice_budget):
    # lattice_budget 1 takes the coordinate-descent branch for t > 1
    with mock.patch.object(expansion, "PE_LATTICE_BUDGET", lattice_budget):
        got = pe_monte_carlo(codes, trials=8, seed=seed)
    want = _reference_pe_monte_carlo(codes, 8, seed, lattice_budget)
    assert got.to_json() == want.to_json()


@given(small_code_tuples(), st.integers(0, 2 ** 32 - 1))
def test_descend_decomposition_matches_reference(codes, seed):
    """The batched descent on arbitrary parts, not only decompositions of a
    codeword: each word of the batch ends with the parts that the
    copy-everything loop gives it alone, and the input parts are untouched."""
    F = codes[0].field
    lengths = tuple(c.n for c in codes)
    pair_bases = [((i, j), cij_basis(F, codes, i, j))
                  for i in range(len(codes)) for j in range(i + 1, len(codes))]
    rng = np.random.default_rng(seed)
    W = 8
    parts = list(F.random(rng, (len(codes), W, math.prod(lengths))))
    before = [p.copy() for p in parts]
    got = _descend_decomposition(F, parts, pair_bases, lengths)
    assert len(got) == len(codes)
    assert all(np.array_equal(p, b) for p, b in zip(parts, before))
    for r in range(W):
        want = _reference_descend_decomposition(F, [p[r] for p in parts], pair_bases, lengths)
        assert all(np.array_equal(g[r], w) for g, w in zip(got, want))


@given(small_code_tuples(), st.integers(0, 2 ** 32 - 1))
def test_decomposer_matches_solve_left(codes, seed):
    """One reduction of the canonical generator serves block after block and
    gives the parts of the per-block solve_left, including its refusal of a
    word outside the dual tensor code."""
    F = codes[0].field
    G, spans = canonical_generator(F, codes)
    decompose = decomposer(F, codes)
    rng = np.random.default_rng(seed)
    for words in (la.matmul(F, F.random(rng, (5, G.shape[0])), G),
                  F.random(rng, (3, G.shape[1])),
                  la.matmul(F, F.random(rng, (7, G.shape[0])), G)):
        X = la.solve_left(F, G, words)
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
    want = pe_exact(codes, budget=1_000_000).to_json()
    monkeypatch.setattr(expansion, "_KERNEL_BLOCK", block)
    assert pe_exact(codes, budget=1_000_000).to_json() == want
