"""CSS pairs, subsystem products, distance accounting, check matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes.gf import GF
from prodcodes import linalg as la, subsystem
from prodcodes.codes import BudgetExceeded, LinearCode, rs_code, zero_code
from prodcodes.subsystem import (CssPair, check_matrices, logical_coset_equal, quantum_rs,
                                 subsystem_distance, subsystem_product)


def test_quantum_rs_validation(gf8):
    with pytest.raises(ValueError):
        quantum_rs(gf8, 8, 3, 4)  # kx + kz < n
    Q = quantum_rs(gf8, 8, 8, 8)
    assert Q.dimension == 8  # trivial encode
    Q2 = quantum_rs(gf8, 8, 6, 6)
    assert Q2.dimension == 4


def test_transrs_factor_dimension():
    # second factor of the r=3, q=37 construction: dimension 31 + 12 - 37 = 6
    F = GF(37)
    Q = quantum_rs(F, 37, 31, 12)
    assert Q.dimension == 6
    # dual relation Q_X^perp = RS(n - kx)
    assert Q.qx.dual().same_subspace(rs_code(F, 37, 6))


def test_dimension_identity_both_forms(gf8):
    rng = np.random.default_rng(4)
    for _ in range(20):
        kx = int(rng.integers(4, 9))
        kz = int(rng.integers(8 - kx, 9)) if kx < 8 else int(rng.integers(1, 9))
        if kx + kz < 8:
            continue
        Q = quantum_rs(gf8, 8, kx, kz)
        F = Q.field
        qxp = Q.qx.dual().gen
        lhs = la.rank(F, np.concatenate([Q.qz.gen, qxp], axis=0)) - Q.qx.dual().k
        rhs = Q.qz.k - la.row_space_intersection(F, Q.qz.gen, qxp).shape[0]
        assert lhs == rhs == Q.dimension


def test_css_condition_enforced(gf8):
    qx = rs_code(gf8, 8, 2)
    qz = rs_code(gf8, 8, 2)
    with pytest.raises(ValueError):
        CssPair(qx, qz, subsystem=False)
    # the same pair is admissible as a subsystem pair; RS(2) lies inside
    # RS(6) = Q_X^perp, so the whole Z space is stabilizer and k = 0
    pair = CssPair(qx, qz, subsystem=True)
    assert pair.dimension == 0


def test_product_dimension_multiplies(gf4, gf8):
    Q1 = quantum_rs(gf4, 4, 3, 3)   # k = 2
    Q2 = quantum_rs(gf4, 3, 2, 2)   # k = 1
    P = subsystem_product([Q1, Q2])
    assert P.dimension == 2
    assert P.subsystem
    Q3 = quantum_rs(gf8, 8, 6, 6)
    Q4 = quantum_rs(gf8, 8, 5, 6)
    P2 = subsystem_product([Q3, Q4])
    assert P2.dimension == Q3.dimension * Q4.dimension == 4 * 3


def test_product_single_factor_identity(gf4):
    Q = quantum_rs(gf4, 4, 3, 3)
    assert subsystem_product([Q]) is Q


def test_product_rejects_subsystem_factor(gf4):
    Q = quantum_rs(gf4, 4, 3, 3)
    S = CssPair(Q.qx, Q.qz, subsystem=True)
    with pytest.raises(ValueError):
        subsystem_product([S, Q])


def test_subsystem_distance_swap_symmetry(gf4):
    Q1 = quantum_rs(gf4, 3, 2, 2)
    P = subsystem_product([Q1, Q1])
    d = subsystem_distance(P)
    dsw = subsystem_distance(subsystem_product([Q1.swap(), Q1.swap()]))
    assert d.exact and dsw.exact and d.value == dsw.value


def test_subsystem_distance_zero_dim_infinite(gf4):
    # product dimension 0: both logical classes are empty
    Q1 = quantum_rs(gf4, 4, 3, 3)   # k = 2
    Q2 = quantum_rs(gf4, 4, 2, 2)   # k = 0
    P = subsystem_product([Q1, Q2])
    assert P.dimension == 0
    assert math.isinf(subsystem_distance(P).value)


def test_sampled_subsystem_distance_with_full_gauge_is_infinite():
    """With Q_X = 0 every word of Q_Z' = F^n is a gauge word, so the exact
    scan finds no dressed logical; a budget of 1 refuses its 16 words."""
    F = GF(2)
    P = CssPair(zero_code(F, 4), LinearCode(F, 4, la.identity(4)))
    exact = subsystem_distance(P)
    assert math.isinf(exact.value) and exact.exact
    with pytest.raises(BudgetExceeded, match="needs 16 logical words > budget 1"):
        subsystem_distance(P, budget=1)


def test_subsystem_distance_refuses_before_either_scan(monkeypatch):
    """qRS(3, 3, 1) over GF(4): Q_Z' = RS(3, 1) has 4 words, within a budget
    of 63, but Q_X' = F^3 has 64, so neither span is scanned; a budget of 64
    scans both."""
    Q = quantum_rs(GF(4), 3, 3, 1)
    with monkeypatch.context() as m:
        m.setattr(la, "min_weight_search", lambda *a, **k: pytest.fail("a span was scanned"))
        with pytest.raises(BudgetExceeded, match="needs 64 logical words > budget 63"):
            subsystem_distance(Q, budget=63)
    d = subsystem_distance(Q, budget=64)
    assert (d.value, d.exact, d.method) == (1, True, "coset-enumeration")


def test_nonsubsystem_distance_matches_css_definition(gf8):
    # when gauge = stabilizer (dim equals), subsystem distance = CSS distance
    Q = quantum_rs(gf8, 8, 6, 6)
    d = subsystem_distance(Q, budget=2_000_000)
    F = Q.field
    best = math.inf
    for (logical, gauge_dual) in [(Q.qz.gen, Q.qx.dual().gen),
                                  (Q.qx.gen, Q.qz.dual().gen)]:
        par = la.right_kernel(F, gauge_dual)
        for _, words in la.enumerate_span(F, logical):
            syn = la.matmul(F, words, par.T)
            outside = np.any(syn, axis=1)
            wts = np.count_nonzero(words[outside], axis=1)
            if wts.size:
                best = min(best, int(wts.min()))
    assert d.value == best


def test_check_matrices_tensor_style(gf4):
    Q1 = quantum_rs(gf4, 3, 2, 2)
    P = subsystem_product([Q1, Q1])
    cm = check_matrices(P, "tensor")
    F = P.field
    assert np.array_equal(la.row_space(F, la.right_kernel(F, cm.hx)), la.row_space(F, P.qx.gen))
    assert np.array_equal(la.row_space(F, la.right_kernel(F, cm.hz)), la.row_space(F, P.qz.gen))
    # two factors of length n: locality <= 2n
    assert cm.locality <= 2 * 3


def test_check_matrices_amplified(gf8):
    Qa = quantum_rs(gf8, 8, 6, 6)
    Qb = quantum_rs(gf8, 8, 4, 5)
    P = subsystem_product([Qa, Qb])
    cm = check_matrices(P, "amplified")
    F = P.field
    assert np.array_equal(la.row_space(F, la.right_kernel(F, cm.hx)), la.row_space(F, P.qx.gen))
    assert np.array_equal(la.row_space(F, la.right_kernel(F, cm.hz)), la.row_space(F, P.qz.gen))
    # every single-qudit error produces a syndrome of weight >= m_i + 1 in
    # the block whose factor column is hit (outer RS distance), checked
    # exhaustively over all (q-1) * N single errors
    m1 = Qa.qz.parity_check().shape[0]
    m2 = Qb.qz.parity_check().shape[0]
    N = P.n
    errors = np.zeros((7 * N, N), dtype=np.int64)
    for j in range(N):
        errors[7 * j:7 * (j + 1), j] = np.arange(1, 8)
    syn = la.matmul(F, errors, cm.hz.T)
    blk1 = syn[:, : 2 * m1 * 8]
    blk2 = syn[:, 2 * m1 * 8:]
    w1 = np.count_nonzero(blk1, axis=1)
    w2 = np.count_nonzero(blk2, axis=1)
    assert np.all((w1 == 0) | (w1 >= m1 + 1))
    assert np.all((w2 == 0) | (w2 >= m2 + 1))


def test_check_matrices_requires_product(gf4):
    Q = quantum_rs(gf4, 4, 3, 3)
    with pytest.raises(ValueError):
        check_matrices(Q, "tensor")


def test_logical_coset_equal(gf4):
    Q1 = quantum_rs(gf4, 3, 2, 2)
    P = subsystem_product([Q1, Q1])
    F = P.field
    rng = np.random.default_rng(2)
    z = la.matmul(F, F.random(rng, P.qz.k)[None, :], P.qz.gen)[0]
    gauge = P.qx.dual().gen
    g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
    assert logical_coset_equal(P, "z", z, F.add(z, g))
    probe = np.zeros(P.n, dtype=np.int64)
    probe[0] = 1
    if not la.in_row_space(F, gauge, probe):
        assert not logical_coset_equal(P, "z", z, F.add(z, probe))


def _reference_logical_coset_equal(Q, side, r1, r2):
    """Gauge membership of the difference by a solve against the dual's
    generator."""
    gauge = Q.qx.dual().gen if side == "z" else Q.qz.dual().gen
    diff = Q.field.sub(np.asarray(r1, dtype=np.int64), np.asarray(r2, dtype=np.int64))
    return not diff.any() or la.in_row_space(Q.field, gauge, diff)


@given(st.sampled_from([2, 3, 4, 9]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_logical_coset_equal_matches_row_space_test(q, n, seed):
    """Codes of any rank, the zero code and the full space included; the
    second representative differs by a gauge element or by a random word."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    qx, qz = (LinearCode(F, n, F.random(rng, (int(rng.integers(0, n + 1)), n)))
              for _ in range(2))
    Q = CssPair(qx, qz, subsystem=True)
    for side in ("z", "x"):
        gauge = (qx if side == "z" else qz).dual().gen
        for _ in range(3):
            r1 = F.random(rng, n)
            g = la.matmul(F, F.random(rng, (1, gauge.shape[0])), gauge)[0]
            for r2 in (F.add(r1, g), F.random(rng, n), r1):
                assert logical_coset_equal(Q, side, r1, r2) == \
                    _reference_logical_coset_equal(Q, side, r1, r2)


def test_csspair_serialization(gf8):
    Q = quantum_rs(gf8, 8, 6, 5)
    doc = Q.to_json()
    Q2 = CssPair.from_json(doc)
    assert Q2.qx.same_subspace(Q.qx) and Q2.qz.same_subspace(Q.qz)
    assert Q2.subsystem == Q.subsystem


def test_checkmatrices_json(gf4):
    Q1 = quantum_rs(gf4, 3, 2, 2)
    P = subsystem_product([Q1, Q1])
    cm = check_matrices(P, "tensor")
    doc = cm.to_json()
    assert doc["n"] == 9 and doc["locality"] == cm.locality
    assert len(doc["hx"]) == cm.hx.size


def test_amplified_product_checks_have_positive_soundness(gf8):
    """Monte-Carlo soundness of the stacked amplified product checks at n=8
    stays bounded away from zero over ten thousand seeded trials."""
    from prodcodes.codes import ltc_soundness_estimate
    Qa = quantum_rs(gf8, 8, 6, 6)
    Qb = quantum_rs(gf8, 8, 4, 5)
    P = subsystem_product([Qa, Qb])
    cm = check_matrices(P, "amplified")
    est = ltc_soundness_estimate(gf8, cm.hz, trials=10_000, seed=91)
    assert est.rho_hat > 0
    assert not est.used_exact_coset_min  # flagged approximation regime
    assert "approximation" in est.methodology


def test_product_locality_adds(gf8):
    """The stacked checks H_i (x) I of a product are no less local than the
    sum of the factor localities."""
    Qa = quantum_rs(gf8, 8, 6, 6)
    Qb = quantum_rs(gf8, 8, 4, 5)
    P = subsystem_product([Qa, Qb])
    w1 = la.locality(Qa.qx.parity_check(), Qa.qz.parity_check())
    w2 = la.locality(Qb.qx.parity_check(), Qb.qz.parity_check())
    assert check_matrices(P, "tensor").locality <= w1 + w2


def _stacked_tensor_checks(F, mats, lengths):
    """vstack over i of I (x) ... (x) H_i (x) ... (x) I (row-major
    flattening), each block kron(I_left, kron(H_i, I_right)): the oracle
    for check_matrices' stacked checks."""
    blocks = []
    for i, H in enumerate(mats):
        left = int(np.prod(lengths[:i])) if i else 1
        right = int(np.prod(lengths[i + 1:])) if i + 1 < len(lengths) else 1
        blocks.append(la.kron(F, la.identity(left), la.kron(F, H, la.identity(right))))
    return np.concatenate(blocks, axis=0)


@st.composite
def product_factors(draw):
    """Two or three random CSS pairs over GF(2), GF(4), GF(9) or GF(97) at
    lengths 1 to 4: Q_X spanned by random rows, Q_Z by the rows of Q_X^perp
    and more random rows, so zero and full codes occur."""
    F = GF(draw(st.sampled_from([2, 4, 9, 97])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(1, 4))
        qx = LinearCode(F, n, F.random(rng, (draw(st.integers(0, n)), n)))
        extra = F.random(rng, (draw(st.integers(0, n)), n))
        factors.append(CssPair(qx, LinearCode(F, n, np.concatenate([qx.dual().gen, extra]))))
    return F, factors


@given(product_factors(), st.sampled_from(["tensor", "amplified"]))
def test_check_matrices_match_stacked_kron(case, style):
    F, factors = case
    P = subsystem_product(factors)
    lengths = [f.n for f in factors]
    hxs = [f.qx.parity_check() for f in factors]
    hzs = [f.qz.parity_check() for f in factors]
    if style == "amplified":
        if any(2 * H.shape[0] > F.q for H in hxs + hzs if H.shape[0]):
            with pytest.raises(ValueError, match="amplified"):
                check_matrices(P, style)
            return
        hxs = [subsystem._amplify(F, H) for H in hxs]
        hzs = [subsystem._amplify(F, H) for H in hzs]
    cm = check_matrices(P, style)
    hx, hz = _stacked_tensor_checks(F, hxs, lengths), _stacked_tensor_checks(F, hzs, lengths)
    assert cm.hx.shape == hx.shape and np.array_equal(cm.hx, hx)
    assert cm.hz.shape == hz.shape and np.array_equal(cm.hz, hz)
    assert cm.locality == la.locality(hx, hz)
