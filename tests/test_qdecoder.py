"""Quantum decoding: coefficient-stripe cleanup, subsystem and CSS product
decoders, syndrome formulation, bounded coset search, single-shot decoding."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes.gf import GF
from prodcodes import decoder, linalg as la, qdecoder
from prodcodes.codes import rs_code, tensor
from test_decoder import bivariate_coeffs
from test_linalg_poly import solve_left
from prodcodes.decoder import (PromiseViolation, berlekamp_welch, random_codeword,
                               random_error)
from prodcodes.qdecoder import (CssProductInstance, InconsistentInput,
                                QdecParams, SubsystemProductInstance,
                                _decode_side, _project_coset, bounded_syndrome_search, coset_min_weight,
                                css_decode, dec_quantum, single_shot_decode,
                                subsystem_decode, syndrome_decode,
                                syndrome_to_word)
from prodcodes.rng import stream
from prodcodes.subsystem import (CheckMatrices, amplified_z_stripes, check_matrices,
                                 logical_coset_equal, quantum_rs)


@pytest.fixture(scope="module")
def sub16():
    F = GF(16)
    return SubsystemProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 8, 9)],
        QdecParams(Fraction(3, 16), Fraction(1, 8), gamma=20))


@pytest.fixture(scope="module")
def sub16_explore():
    F = GF(16)
    return SubsystemProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 8, 9)],
        QdecParams(Fraction(3, 16), Fraction(1, 1), gamma=2))


def _sample_logical(inst, rng, side):
    F = inst.field
    space = inst.product.logical_z_space() if side == "z" else \
        inst.product.logical_x_space()
    return la.matmul(F, F.random(rng, space.shape[0])[None, :], space)[0]


def test_rate_conditions_enforced():
    F = GF(16)
    with pytest.raises(ValueError):
        SubsystemProductInstance(
            [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 8, 11)],
            QdecParams(Fraction(3, 16)))


def test_dec_quantum_identity_on_clean(sub16):
    inst = sub16
    rng = stream(1, 0)
    cz = _sample_logical(inst, rng, "z")
    n = inst.n
    out = dec_quantum(inst, cz.reshape(n, n))
    assert np.array_equal(out.ravel(), cz)


def test_dec_quantum_confinement(sub16_explore):
    """The cleanup only changes coefficient columns j2 in [k2, k2'), so the
    difference interpolates to a polynomial supported on those columns."""
    inst = sub16_explore
    F = inst.field
    f1, f2 = inst.factors
    n = inst.n
    rng = stream(2, 3)
    cz = _sample_logical(inst, rng, "z").reshape(n, n)
    e = np.zeros((n, n), dtype=np.int64)
    e[3, 5] = 2
    word = F.add(cz, e)
    from prodcodes.decoder import alpha_decode
    res = alpha_decode(inst.z_dt, word)
    out = dec_quantum(inst, res.word)
    diff = F.sub(out, res.word)
    coeffs = bivariate_coeffs(F, f1.qx.points, f2.qz.points, diff)
    k2, k2p = n - f2.qx.k, f2.qz.k
    mask = np.zeros((n, n), dtype=bool)
    mask[:, k2:k2p] = True
    assert not np.any(coeffs[~mask])


def test_subsystem_decode_zero_error(sub16):
    inst = sub16
    F = inst.field
    prod = inst.product
    for trial in range(10):
        rng = stream(11, trial)
        cz = _sample_logical(inst, rng, "z")
        cx = _sample_logical(inst, rng, "x")
        res = subsystem_decode(inst, cx, cz)
        assert not res.fallback
        assert logical_coset_equal(prod, "z", res.coset_z.representative, cz)
        assert logical_coset_equal(prod, "x", res.coset_x.representative, cx)


def test_subsystem_decode_real_errors_explore(sub16_explore):
    """Exploratory scaled configuration where the promise radius is honest:
    weight-2 errors on both sides recover the logical cosets."""
    inst = sub16_explore
    F = inst.field
    prod = inst.product
    N = prod.n
    assert inst.z_dt.d0 >= 1
    ok = 0
    for trial in range(10):
        rng = stream(12, trial)
        cz = _sample_logical(inst, rng, "z")
        cx = _sample_logical(inst, rng, "x")
        ez = np.zeros(N, dtype=np.int64)
        ez[rng.permutation(N)[:2]] = F.random(rng, 2, nonzero=True)
        ex = np.zeros(N, dtype=np.int64)
        ex[rng.permutation(N)[:2]] = F.random(rng, 2, nonzero=True)
        res = subsystem_decode(inst, F.add(cx, ex), F.add(cz, ez))
        if (logical_coset_equal(prod, "z", res.coset_z.representative, cz)
                and logical_coset_equal(prod, "x", res.coset_x.representative, cx)):
            ok += 1
    assert ok == 10


# one instance of each kind with an honest promise radius (gamma = 2, rho = 1)
SWAP_INSTANCES = {
    "subsystem": lambda F: SubsystemProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 8, 9)],
        QdecParams(Fraction(3, 16), Fraction(1), gamma=2)),
    "css": lambda F: CssProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 9, 9)],
        QdecParams(Fraction(3, 16), Fraction(1), gamma=2)),
}


@pytest.fixture(scope="module")
def swap_instances():
    return {kind: build(GF(16)) for kind, build in SWAP_INSTANCES.items()}


def _side_outcome(inst, word, side):
    """(representative, fallback) of _decode_side, or the message of the
    PromiseViolation it raises."""
    try:
        rep, fallback = _decode_side(inst, word, side)
    except PromiseViolation as exc:
        return str(exc)
    return rep.tobytes(), fallback


@settings(max_examples=50)
@given(st.sampled_from(sorted(SWAP_INSTANCES)), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.integers(0, 6), st.none()))
def test_swap_symmetry(swap_instances, kind, seed, weight):
    """X-side decoding equals Z-side decoding of the swapped instance, and
    the other way round.  On words of the X side's enclosing dual tensor code
    at error weights in and beyond the promise, and on uniformly random
    words, either instance kind gives what an independently built swapped
    subsystem instance gives on the other side: the same representative and
    fallback, or the same PromiseViolation."""
    inst = swap_instances[kind]
    F, n = inst.field, inst.n
    swapped = SubsystemProductInstance([f.swap() for f in inst.factors], inst.params)
    rng = np.random.default_rng(seed)
    if weight is None:
        word = F.random(rng, (n, n))
    else:
        word = F.add(random_codeword(swapped.z_dt, rng), random_error(F, n, weight, rng))
    assert _side_outcome(inst, word, "x") == _side_outcome(swapped, word, "z")
    assert _side_outcome(inst, word, "z") == _side_outcome(swapped, word, "x")


def test_syndrome_to_word_and_inconsistency(sub16):
    inst = sub16
    F = inst.field
    cm = check_matrices(inst.product, "tensor")
    rng = stream(31, 0)
    e = F.random(rng, inst.product.n)
    s_x = la.matvec(F, cm.hx, e)
    s_z = la.matvec(F, cm.hz, e)
    c_x, c_z = syndrome_to_word(F, cm, s_x, s_z)
    assert np.array_equal(la.matvec(F, cm.hx, c_x), s_x)
    assert np.array_equal(la.matvec(F, cm.hz, c_z), s_z)
    # preimage differs from e by an element of the kernel
    assert la.in_row_space(F, inst.product.qx.gen, F.sub(c_x, e))
    # inconsistent syndromes are rejected as such
    bad = s_x.copy()
    par = la.right_kernel(F, cm.hx)
    outside = None
    for i in range(s_x.size):
        cand = s_x.copy()
        cand[i] = F.add(cand[i], np.int64(1))
        if la.solve_right(F, cm.hx, cand) is None:
            outside = cand
            break
    if outside is not None:
        with pytest.raises(InconsistentInput):
            syndrome_to_word(F, cm, outside, s_z)


def test_syndrome_word_path_agreement(sub16):
    inst = sub16
    F = inst.field
    prod = inst.product
    cm = check_matrices(prod, "tensor")
    for trial in range(100):
        rng = stream(41, trial)
        cz = _sample_logical(inst, rng, "z")
        cx = _sample_logical(inst, rng, "x")
        res_w = subsystem_decode(inst, cx, cz)
        s_x = la.matvec(F, cm.hx, cx)
        s_z = la.matvec(F, cm.hz, cz)
        res_s = syndrome_decode(inst, cm, s_x, s_z)
        assert logical_coset_equal(prod, "x", F.sub(cx, res_s.coset_x.representative),
                                   res_w.coset_x.representative)
        assert logical_coset_equal(prod, "z", F.sub(cz, res_s.coset_z.representative),
                                   res_w.coset_z.representative)


@pytest.fixture(scope="module")
def css16():
    F = GF(16)
    return CssProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 9, 9)],
        QdecParams(Fraction(3, 16), Fraction(1, 8), gamma=20))


def test_css_decode_zero_error(css16):
    inst = css16
    F = inst.field
    code = inst.code
    assert code.dimension == (2 * 12 - 16) * (2 * 9 - 16)
    for trial in range(5):
        rng = stream(51, trial)
        cz = code.qz.codeword(F.random(rng, code.qz.k))
        cx = code.qx.codeword(F.random(rng, code.qx.k))
        res = css_decode(inst, cx, cz)
        assert logical_coset_equal(code, "z", res.coset_z.representative, cz)
        assert logical_coset_equal(code, "x", res.coset_x.representative, cx)
        # outputs are genuine code vectors, not just coset data
        assert la.row_space_contains(F, code.qz.gen, res.coset_z.representative)
        assert la.row_space_contains(F, code.qx.gen, res.coset_x.representative)


def test_css_kunneth_inclusions(css16):
    """Q_Z <= (Q_Z^1 x Q_Z^2) + (Q_X^1 x Q_X^2)^perp, the inclusion the
    cleanup stage relies on."""
    inst = css16
    F = inst.field
    code = inst.code
    f1, f2 = inst.factors
    big = np.concatenate([tensor(f1.qz, f2.qz).gen, inst.product.qx.dual().gen], axis=0)
    assert la.row_space_contains(F, big, code.qz.gen)


def test_css_decode_reuses_tensor_duals(css16, monkeypatch):
    """The two cleanup moduli are the duals of the instance's own product
    codes, built once per instance, not per decode."""
    f1, f2 = css16.factors
    assert np.array_equal(css16.product.qx.dual().gen, tensor(f1.qx, f2.qx).dual().gen)
    assert np.array_equal(css16.product.qz.dual().gen, tensor(f1.qz, f2.qz).dual().gen)
    monkeypatch.setattr(qdecoder, "subsystem_product",
                        lambda *args: pytest.fail("product rebuilt"))
    zero = np.zeros(css16.n ** 2, dtype=np.int64)
    res = css_decode(css16, zero, zero)
    assert not res.coset_x.representative.any() and not res.coset_z.representative.any()


# ---------------------------------------------------------------------------
# bounded search and single-shot decoding
# ---------------------------------------------------------------------------


def test_bounded_syndrome_search(gf8, rng):
    H = gf8.random(rng, (6, 12))
    e = np.zeros(12, dtype=np.int64)
    e[[2, 7]] = gf8.random(rng, 2, nonzero=True)
    t = la.matvec(gf8, H, e)
    found = bounded_syndrome_search(gf8, H, t, 2)
    assert found is not None
    assert np.array_equal(la.matvec(gf8, H, found), t)
    assert np.count_nonzero(found) <= 2
    assert bounded_syndrome_search(gf8, H, t, 0) is None
    zero = bounded_syndrome_search(gf8, H, np.zeros(6, dtype=np.int64), 2)
    assert zero is not None and not zero.any()


def _reference_weight_one(F, H, target):
    """The earlier weight-1 scan of bounded_syndrome_search: one column at a
    time, the first scalar multiple of a column equal to target."""
    for j in range(H.shape[1]):
        col = H[:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0 or not np.array_equal(nz, np.nonzero(target)[0]):
            continue
        v = F.div(target[nz[0]], col[nz[0]])
        if np.array_equal(F.mul(v, col), target):
            e = np.zeros(H.shape[1], dtype=np.int64)
            e[j] = v
            return e
    return None


def _assert_weight_one_matches(F, H, target):
    got = bounded_syndrome_search(F, H, target, 1)
    want = _reference_weight_one(F, H, target)
    assert (got is None and want is None) or np.array_equal(got, want)
    return got


def test_weight_one_search_first_matching_column_wins(gf8):
    """A zero column, a column whose support differs only below the first
    nonzero row, and two matching columns: the first of them is returned."""
    H = np.array([[0, 3, 1, 0, 5, 2],
                  [0, 1, 1, 4, 1, 4],
                  [0, 0, 6, 2, 0, 0]], dtype=np.int64)
    H[:, 4] = gf8.mul(H[:, 1], 7)
    target = gf8.mul(H[:, 1], 3)
    e = _assert_weight_one_matches(gf8, H, target)
    assert np.flatnonzero(e).tolist() == [1]
    # no column is a multiple of this target
    assert _assert_weight_one_matches(gf8, H, np.array([1, 0, 1], dtype=np.int64)) is None
    assert _assert_weight_one_matches(gf8, H[:, :1], target) is None


@given(st.sampled_from([2, 4, 7, 8, 9]), st.integers(1, 5), st.integers(0, 8),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=150)
def test_weight_one_search_matches_column_loop(q, m, n, seed, planted):
    """Sparse random checks with zero and repeated scaled columns, and a
    target that is a multiple of one column or drawn at random."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    H = np.where(rng.random((m, n)) < 0.5, F.random(rng, (m, n), nonzero=True), 0)
    if n >= 2:
        j1, j2 = rng.integers(n, size=2)
        H[:, j2] = F.mul(H[:, j1], F.random(rng, nonzero=True))
    if planted and n:
        target = F.mul(H[:, rng.integers(n)], F.random(rng, nonzero=True))
    else:
        target = F.random(rng, m)
    if target.any():
        _assert_weight_one_matches(F, H, target)


def test_coset_min_weight(gf4):
    space = np.array([[1, 1, 0, 0]], dtype=np.int64)
    v = np.array([1, 1, 1, 0], dtype=np.int64)
    assert coset_min_weight(gf4, la.right_kernel(gf4, space), v, cap=3) == 1
    # no checks: every word is in the kernel, so the coset holds 0
    assert coset_min_weight(gf4, np.zeros((0, 4), dtype=np.int64), v, cap=3) == 0


@pytest.fixture(scope="module")
def ss8():
    F = GF(8)
    inst = SubsystemProductInstance(
        [quantum_rs(F, 8, 6, 6), quantum_rs(F, 8, 4, 5)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))
    cm = check_matrices(inst.product, "amplified")
    return inst, cm


def test_amplified_z_stripes_are_outer_codewords(ss8):
    """The stripes cover each position of the amplified Z-syndrome once, and
    on a noiseless syndrome each is a word of its block's outer RS code."""
    inst, cm = ss8
    F = inst.field
    blocks = amplified_z_stripes(inst.factors)
    covered = np.concatenate([pos.ravel() for pos, _ in blocks])
    assert np.array_equal(np.sort(covered), np.arange(cm.hz.shape[0]))
    s = la.matvec(F, cm.hz, F.random(stream(62, 0), inst.product.n))
    for pos, m in blocks:
        assert pos.shape == (inst.n, 2 * m)
        assert not la.matmul(F, s[pos], rs_code(F, 2 * m, m).parity_check().T).any()


def test_single_shot_noiseless_reduces(ss8):
    inst, cm = ss8
    F = inst.field
    prod = inst.product
    gauge = prod.qx.dual().gen
    for trial in range(10):
        rng = stream(61, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        s = la.matvec(F, cm.hz, F.add(e, g))
        res = single_shot_decode(inst, cm, s, distance=4)
        assert res.correction is not None
        diff = F.sub(res.correction.representative, e)
        assert not diff.any() or la.in_row_space(F, gauge, diff)


def test_single_shot_pipeline_route_above_n_512():
    """N = 1024 takes the pipeline route.  At eps = 1/8, rho = 1, gamma = 1
    the promise radius delta * N is 1.25, so a weight-1 error is in promise
    and its noiseless amplified syndrome decodes to the error's coset."""
    F = GF(32)
    inst = SubsystemProductInstance(
        [quantum_rs(F, 32, 28, 28), quantum_rs(F, 32, 16, 18)],
        QdecParams(Fraction(1, 8), Fraction(1), gamma=1))
    cm = check_matrices(inst.product, "amplified")
    prod = inst.product
    assert prod.n == 1024 and inst.params.delta * prod.n >= 1
    for trial in range(5):
        rng = stream(64, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        res = single_shot_decode(inst, cm, la.matvec(F, cm.hz, e), distance=4)
        assert res.notes == {"method": "pipeline"} and res.denoise_failures == 0
        assert logical_coset_equal(prod, "z", res.correction.representative, e)


def test_single_shot_pipeline_fallback_is_marked():
    """At gamma = 20 the promise radius delta * N of the N = 1024 instance
    is below 1, so alpha_decode falls back on a weight-1 error; the
    pipeline route marks that in the notes."""
    F = GF(32)
    inst = SubsystemProductInstance(
        [quantum_rs(F, 32, 28, 28), quantum_rs(F, 32, 16, 18)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))
    cm = check_matrices(inst.product, "amplified")
    prod = inst.product
    assert prod.n == 1024 and inst.params.delta * prod.n < 1
    rng = stream(64, 0)
    e = np.zeros(prod.n, dtype=np.int64)
    e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
    res = single_shot_decode(inst, cm, la.matvec(F, cm.hz, e), distance=4)
    assert res.notes == {"method": "pipeline", "fallback": True}
    assert res.correction is not None and res.denoise_failures == 0


def test_quantum_decoders_decode_within_the_unique_radius(sub16_explore, ss8):
    """On real noise, the quantum stripe cleanup (dec_quantum, through the
    decoder's clean_stripes) and the single-shot syndrome denoiser ask
    berlekamp_welch for k + 2t <= n."""
    calls = {"decoder": [], "qdecoder": []}

    def spy(module):
        def bw(F, points, k, words, t):
            calls[module].append((len(points), k, t))
            return berlekamp_welch(F, points, k, words, t)
        return bw

    with mock.patch.object(decoder, "berlekamp_welch", spy("decoder")), \
            mock.patch.object(qdecoder, "berlekamp_welch", spy("qdecoder")):
        inst = sub16_explore
        F, N = inst.field, inst.product.n
        for trial in range(3):
            rng = stream(13, trial)
            e = np.zeros(N, dtype=np.int64)
            e[rng.permutation(N)[:2]] = F.random(rng, 2, nonzero=True)
            subsystem_decode(inst, F.add(_sample_logical(inst, rng, "x"), e),
                             F.add(_sample_logical(inst, rng, "z"), e))
        inst, cm = ss8
        F = inst.field
        for trial in range(3):
            rng = stream(14, trial)
            e = np.zeros(inst.product.n, dtype=np.int64)
            e[int(rng.integers(e.size))] = int(F.random(rng, None, nonzero=True))
            s = la.matvec(F, cm.hz, e)
            s[int(rng.integers(s.size))] = int(F.random(rng, None, nonzero=True))
            single_shot_decode(inst, cm, s, distance=4)
    assert calls["decoder"] and calls["qdecoder"]
    assert all(k + 2 * t <= n for n, k, t in calls["decoder"] + calls["qdecoder"])


def test_single_shot_with_syndrome_noise(ss8):
    inst, cm = ss8
    F = inst.field
    prod = inst.product
    gauge = prod.qx.dual().gen
    ok = 0
    for trial in range(20):
        rng = stream(62, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        s = la.matvec(F, cm.hz, F.add(e, g))
        v = np.zeros(s.size, dtype=np.int64)
        v[int(rng.integers(s.size))] = int(F.random(rng, None, nonzero=True))
        noiseless = single_shot_decode(inst, cm, s, distance=4)
        noisy = single_shot_decode(inst, cm, F.add(s, v), distance=4)
        assert noisy.correction is not None and noiseless.correction is not None
        diff = F.sub(noisy.correction.representative,
                     noiseless.correction.representative)
        if not diff.any() or la.in_row_space(F, gauge, diff):
            ok += 1
    assert ok == 20


def test_single_shot_two_round_stability(ss8):
    inst, cm = ss8
    F = inst.field
    prod = inst.product
    gauge = prod.qx.dual().gen
    for trial in range(10):
        rng = stream(63, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g1 = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v1 = np.zeros(cm.hz.shape[0], dtype=np.int64)
        v1[int(rng.integers(cm.hz.shape[0]))] = int(F.random(rng, None, nonzero=True))
        r1 = single_shot_decode(inst, cm, F.add(la.matvec(F, cm.hz, F.add(e, g1)), v1),
                                distance=4)
        assert r1.correction is not None
        resid = F.sub(e, r1.correction.representative)
        g2 = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v2 = np.zeros(cm.hz.shape[0], dtype=np.int64)
        v2[int(rng.integers(cm.hz.shape[0]))] = int(F.random(rng, None, nonzero=True))
        r2 = single_shot_decode(inst, cm, F.add(la.matvec(F, cm.hz, F.add(resid, g2)), v2),
                                distance=4)
        assert r2.correction is not None
        total = F.add(r1.correction.representative, r2.correction.representative)
        diff = F.sub(total, e)
        assert not diff.any() or la.in_row_space(F, gauge, diff)


def test_single_shot_requires_amplified(ss8):
    inst, _ = ss8
    cm_plain = check_matrices(inst.product, "tensor")
    with pytest.raises(ValueError):
        single_shot_decode(inst, cm_plain, np.zeros(cm_plain.hz.shape[0],
                                                    dtype=np.int64), distance=4)


def test_instance_json_roundtrip(sub16):
    doc = sub16.to_json()
    inst2 = SubsystemProductInstance.from_json(doc)
    assert inst2.n == sub16.n and inst2.params.delta == sub16.params.delta


def test_single_shot_coset_soundness(ss8):
    """The returned representative reproduces the denoised syndrome exactly,
    modulo gauge syndromes: s' - H_Z e-hat lies in im(H_Z restricted to the
    gauge space)."""
    inst, cm = ss8
    F = inst.field
    prod = inst.product
    gauge = prod.qx.dual().gen
    gauge_syndromes = la.matmul(F, gauge, cm.hz.T)
    for trial in range(5):
        rng = stream(71, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v = np.zeros(cm.hz.shape[0], dtype=np.int64)
        v[int(rng.integers(cm.hz.shape[0]))] = int(F.random(rng, None, nonzero=True))
        s = F.add(la.matvec(F, cm.hz, F.add(e, g)), v)
        res = single_shot_decode(inst, cm, s, distance=4)
        assert res.correction is not None and res.syndrome_consistent
        leftover = F.sub(res.denoised_syndrome,
                         la.matvec(F, cm.hz, res.correction.representative))
        assert la.in_row_space(F, gauge_syndromes, leftover) or not leftover.any()


# ---------------------------------------------------------------------------
# per-instance factorizations against the per-call solves
# ---------------------------------------------------------------------------


@st.composite
def random_checks(draw):
    """Check matrices hx, hz over GF(4), GF(8), GF(9) or GF(16), each an
    m x r times r x n product: zero rows, rank 0 and rank deficiency occur."""
    F = GF(draw(st.sampled_from([4, 8, 9, 16])))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(2):
        m = draw(st.integers(0, 8))
        r = draw(st.integers(0, min(m, n)))
        mats.append(la.matmul(F, F.random(rng, (m, r)), F.random(rng, (r, n))))
    return F, CheckMatrices(F, *mats, 0, "tensor"), rng


@given(random_checks())
def test_cached_preimages_match_solve_right(case):
    """Syndromes inside and outside the images: syndrome_to_word gives the
    words of la.solve_right and raises InconsistentInput exactly when it
    refuses one side."""
    F, cm, rng = case
    n = cm.hx.shape[1]
    for inside_x, inside_z in [(True, True), (False, True), (True, False), (False, False)]:
        s_x = la.matvec(F, cm.hx, F.random(rng, n)) if inside_x else \
            F.random(rng, cm.hx.shape[0])
        s_z = la.matvec(F, cm.hz, F.random(rng, n)) if inside_z else \
            F.random(rng, cm.hz.shape[0])
        want = [la.solve_right(F, cm.hx, s_x), la.solve_right(F, cm.hz, s_z)]
        if want[0] is None or want[1] is None:
            with pytest.raises(InconsistentInput):
                syndrome_to_word(F, cm, s_x, s_z)
        else:
            got = syndrome_to_word(F, cm, s_x, s_z)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(cm.image_z, la.row_space(F, cm.hz.T))


@pytest.fixture(scope="module")
def css8():
    F = GF(8)
    return CssProductInstance(
        [quantum_rs(F, 8, 6, 6), quantum_rs(F, 8, 4, 4)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))


def _reference_project_coset(F, code_gen, ambient_dual, rep):
    """The projection by a per-call solve_left against the stack; None when
    rep is outside it."""
    x = solve_left(F, np.concatenate([code_gen, ambient_dual], axis=0), rep)
    return None if x is None else la.matmul(F, x[None, : code_gen.shape[0]], code_gen)[0]


@given(st.integers(0, 2 ** 32 - 1))
def test_cached_projectors_match_solve_left(css8, seed):
    inst, F = css8, css8.field
    rng = np.random.default_rng(seed)
    for solve, gen, dual in ((inst.project_z, inst.code.qz.gen, inst.product.qx.dual().gen),
                             (inst.project_x, inst.code.qx.gen, inst.product.qz.dual().gen)):
        inside = F.add(la.matmul(F, F.random(rng, (1, gen.shape[0])), gen)[0],
                       la.matmul(F, F.random(rng, (1, dual.shape[0])), dual)[0])
        for rep in (inside, F.random(rng, gen.shape[1])):
            want = _reference_project_coset(F, gen, dual, rep)
            if want is None:
                with pytest.raises(PromiseViolation):
                    _project_coset(F, solve, gen, rep)
            else:
                assert np.array_equal(_project_coset(F, solve, gen, rep), want)


def test_second_decode_reuses_the_factorizations(sub16, css8, monkeypatch):
    """Once the first call has reduced the instance matrices, later
    preimages and coset projections make no rref call."""
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda F, M: calls.append(1) or rref(F, M))
    F = sub16.field
    cm = check_matrices(sub16.product, "tensor")
    rng = stream(61, 0)
    before = len(calls)
    for _ in range(3):
        e = F.random(rng, sub16.product.n)
        syndrome_to_word(F, cm, la.matvec(F, cm.hx, e), la.matvec(F, cm.hz, e))
    # one reduction per side, both in the first call
    assert len(calls) == before + 2
    code = css8.code
    cz = code.qz.codeword(css8.field.random(rng, code.qz.k))
    _project_coset(css8.field, css8.project_z, code.qz.gen, cz)
    first = len(calls)
    _project_coset(css8.field, css8.project_z, code.qz.gen, cz)
    assert len(calls) == first
