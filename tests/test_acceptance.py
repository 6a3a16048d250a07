"""Acceptance suite: the structural claims at desk scale, each criterion run
at its stated tolerance with one printed pass/fail line.

Criteria are property-based with exhaustive small-instance oracles; runtime
budgets are asserted alongside the mathematical content.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from prodcodes.gf import GF
from prodcodes import linalg as la
from prodcodes.codes import (LinearCode, dual_tensor, ltc_soundness_estimate,
                             punctured_tensor_rs, rs_code, tensor)
from prodcodes.complexes import (filling_constant_estimate, from_css,
                                 hom_product, systolic_distance)
from prodcodes.decoder import (DualTensorInstance, alpha_decode,
                               random_codeword, random_error)
from prodcodes.expansion import epsilon_closure, pe_exact
from prodcodes.poly import uni_divmod, uni_ext_gcd, uni_mul, uni_trim
from prodcodes.qdecoder import (QdecParams, SubsystemProductInstance,
                                coset_min_weight, single_shot_decode,
                                subsystem_decode, syndrome_decode)
from prodcodes.rng import stream
from prodcodes.subsystem import (CssPair, check_matrices, logical_coset_equal,
                                 quantum_rs, subsystem_distance,
                                 subsystem_product)
from prodcodes import transversal as tv
from prodcodes.cli import main as cli_main

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {verdict} - {detail} [{elapsed:.1f}s]",
          flush=True)


def test_criterion_01_algebra_soundness():
    t0 = time.monotonic()
    # trace linearity / Frobenius invariance / onto GF(p), all q <= 64
    for q in PRIME_POWERS_64:
        F = GF(q)
        xs = F.elements()
        tr = F.trace(xs)
        assert np.all(tr < F.p)
        assert set(int(t) for t in np.unique(tr)) == set(range(F.p))
        assert np.all(F.trace(F.frobenius(xs)) == tr)
        pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        assert np.all(F.trace(F.add(a, b)) == F.add(F.trace(a), F.trace(b)))
    # gcd-divides suite: 10^4 seeded pairs, deg <= 20, q <= 64
    rng = np.random.default_rng(1001)
    qs = [2, 4, 8, 9, 27, 64]
    for i in range(10_000):
        F = GF(qs[i % len(qs)])
        a = F.random(rng, int(rng.integers(1, 21)))
        b = F.random(rng, int(rng.integers(1, 21)))
        if not a.any() and not b.any():
            continue
        g, u, v = uni_ext_gcd(F, a, b)
        for poly in (a, b):
            if uni_trim(poly).size:
                assert uni_trim(uni_divmod(F, poly, g)[1]).size == 0
        if i % 10 == 0:  # Bezout reconstruction on a 10% subsample
            ua = uni_mul(F, u, a)
            vb = uni_mul(F, v, b)
            n = max(ua.size, vb.size, g.size)
            acc = np.zeros(n, dtype=np.int64)
            acc[:ua.size] = ua
            t = np.zeros(n, dtype=np.int64)
            t[:vb.size] = vb
            assert np.array_equal(uni_trim(F.add(acc, t)), g)
    # rank-nullity: 10^4 seeded matrices
    for i in range(10_000):
        F = GF(qs[i % len(qs)])
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        A = F.random(rng, (m, n))
        assert la.rank(F, A) + la.right_kernel(F, A).shape[0] == n
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    report(1, ok, f"algebra soundness: trace/gcd/rank suites", elapsed)
    assert ok, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_02_duality_and_products():
    t0 = time.monotonic()
    for q in PRIME_POWERS_16:
        F = GF(q)
        for k in range(q + 1):
            assert rs_code(F, q, k).dual().same_subspace(rs_code(F, q, q - k))
    # adjunction and the dual-tensor dimension formula on n <= 8 pairs
    rng = np.random.default_rng(2002)
    for q in (2, 3, 4):
        F = GF(q)
        for _ in range(20):
            n1, n2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            C1 = LinearCode(F, n1, F.random(rng, (int(rng.integers(1, n1 + 1)), n1)))
            C2 = LinearCode(F, n2, F.random(rng, (int(rng.integers(1, n2 + 1)), n2)))
            assert tensor(C1, C2).dual().same_subspace(
                dual_tensor(C1.dual(), C2.dual()))
    F8 = GF(8)
    for k1 in range(9):
        for k2 in range(9):
            DT = dual_tensor(rs_code(F8, 8, k1), rs_code(F8, 8, k2))
            assert DT.k == 64 - (8 - k1) * (8 - k2)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    report(2, ok, "RS duality (q <= 16) + tensor adjunction + dim formula", elapsed)
    assert ok


@pytest.fixture(scope="module")
def decoder_suite_results():
    """Criterion 3/4 shared run: 200 planted trials at q = n in {32, 64},
    eps = 1/2, gamma = 20, rho = 1/8, error weight <= d0."""
    out = {}
    for n in (32, 64):
        F = GF(n)
        inst = DualTensorInstance.build(F, n, n // 8, n // 4, Fraction(1, 2),
                                        Fraction(1, 8), gamma=20)
        radius = int(inst.d0)  # scaled-constants promise radius (0 here)
        trials = []
        worst = 0.0
        for trial in range(200):
            rng = stream(3003, trial)
            a = random_codeword(inst, rng)
            b = random_error(F, n, radius, rng)
            t1 = time.monotonic()
            res = alpha_decode(inst, F.add(a, b))
            dt = time.monotonic() - t1
            worst = max(worst, dt)
            trials.append((res, int(np.count_nonzero(b))))
        out[n] = (inst, trials, worst)
    return out


def test_criterion_03_dual_tensor_planted_suite(decoder_suite_results):
    t0 = time.monotonic()
    for n, (inst, trials, worst) in decoder_suite_results.items():
        alpha = (Fraction(inst.gamma) / (inst.rho * inst.eps)) ** 2
        assert inst.alpha == alpha
        for res, w in trials:
            assert inst.member(res.word), "output must always be a codeword"
            assert not res.fallback, "FALLBACK must never fire in promise"
            assert res.residual <= alpha * w
        assert worst < 5.0, f"per-instance decode took {worst:.2f}s"
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    report(3, ok, "planted dual-tensor suite n in {32,64}: membership, "
                  "no fallback, residual <= alpha|e|", elapsed)
    assert ok


def test_criterion_04_stage_bounds(decoder_suite_results):
    t0 = time.monotonic()
    violations = 0
    for n, (inst, trials, _) in decoder_suite_results.items():
        s1_bound = inst.rho * inst.eps * n * n / 50
        for res, w in trials:
            stages = res.stages
            if "stage1_residual" in stages:
                violations += stages["stage1_residual"] > s1_bound
            if "stage3_weight" in stages and w > 0:
                violations += stages["stage3_weight"] > 8 * w / inst.eps
            if "peel_iterations" in stages:
                violations += stages["peel_iterations"] > n * n
    elapsed = time.monotonic() - t0
    ok = violations == 0
    report(4, ok, f"stage bounds: {violations} violations", elapsed)
    assert ok


def test_criterion_05_quantum_subsystem_decode():
    t0 = time.monotonic()
    F = GF(16)
    inst = SubsystemProductInstance(
        [quantum_rs(F, 16, 12, 12), quantum_rs(F, 16, 8, 9)],
        QdecParams(Fraction(3, 16), Fraction(1, 8), gamma=20))
    prod = inst.product
    N = prod.n
    cm = check_matrices(prod, "tensor")
    QZp = prod.logical_z_space()
    QXp = prod.logical_x_space()
    radius = math.floor(inst.params.delta * N)  # in-promise error weight
    successes = agreements = 0
    for trial in range(200):
        rng = stream(5005, trial)
        cz = la.matmul(F, F.random(rng, QZp.shape[0])[None, :], QZp)[0]
        cx = la.matmul(F, F.random(rng, QXp.shape[0])[None, :], QXp)[0]
        ez = np.zeros(N, dtype=np.int64)
        if radius:
            pos = rng.permutation(N)[:radius]
            ez[pos] = F.random(rng, radius, nonzero=True)
        wz = F.add(cz, ez)
        wx = cx
        res = subsystem_decode(inst, wx, wz)
        ok = (logical_coset_equal(prod, "z", res.coset_z.representative, cz)
              and logical_coset_equal(prod, "x", res.coset_x.representative, cx))
        successes += ok
        sres = syndrome_decode(inst, cm, la.matvec(F, cm.hx, wx),
                               la.matvec(F, cm.hz, wz))
        agree = (logical_coset_equal(prod, "x", F.sub(wx, sres.coset_x.representative),
                                     res.coset_x.representative)
                 and logical_coset_equal(prod, "z", F.sub(wz, sres.coset_z.representative),
                                         res.coset_z.representative))
        agreements += agree
    elapsed = time.monotonic() - t0
    ok = successes == 200 and agreements == 200 and elapsed < 300
    report(5, ok, f"subsystem decode n=q=16: {successes}/200 cosets exact, "
                  f"{agreements}/200 syndrome-path agreement", elapsed)
    assert ok


@pytest.fixture(scope="module")
def distance_bound_instances():
    """Criterion 6/7 shared exact product-expansion computations."""
    data = {"subsystem": [], "chain": []}
    # subsystem products with exhaustively enumerable distance and pe values
    # (the evaluation prefix must keep RS orthogonality: full field for GF(3),
    # and the {0, 1, g} prefix over GF(4))
    recipes = [
        (GF(3), 3, 2, 2, 4_000_000),
        (GF(4), 3, 2, 2, 4_000_000),
    ]
    for F, n, kx, kz, budget in recipes:
        Q = quantum_rs(F, n, kx, kz)
        pairs = {
            "rho1x": [Q.qx],
            "rho2x": [Q.qz.dual(), Q.qx],
            "rho1z": [Q.qz],
            "rho2z": [Q.qx.dual(), Q.qz],
        }
        rhos = {k: pe_exact(v, budget=budget) for k, v in pairs.items()}
        data["subsystem"].append((F, Q, rhos))
    # a binary non-RS CSS pair
    F2 = GF(2)
    H = np.ones((1, 4), dtype=np.int64)
    C = LinearCode(F2, 4, la.right_kernel(F2, H))
    Q2 = CssPair(C, C, subsystem=False, label="binary-even")
    rhos2 = {
        "rho1x": pe_exact([Q2.qx], budget=4_000_000),
        "rho2x": pe_exact([Q2.qz.dual(), Q2.qx], budget=4_000_000),
        "rho1z": pe_exact([Q2.qz], budget=4_000_000),
        "rho2z": pe_exact([Q2.qx.dual(), Q2.qz], budget=4_000_000),
    }
    data["subsystem"].append((F2, Q2, rhos2))
    # chain complexes over GF(4)
    F4 = GF(4)
    Qc = quantum_rs(F4, 3, 2, 2)
    Cx = from_css(Qc.qx, Qc.qz)
    Z1 = LinearCode(F4, 3, Cx.cycles())
    B1 = LinearCode(F4, 3, Cx.boundaries())
    data["chain"].append((Cx, {
        "rho1": pe_exact([Z1], budget=4_000_000),
        "rho2": pe_exact([B1, Z1], budget=4_000_000),
        "rho_prime": pe_exact([B1, B1], budget=4_000_000),
        "delta": Fraction(int(Z1.min_distance().value), 3),
    }))
    return data


def test_criterion_06_distance_bounds_never_violated(distance_bound_instances):
    t0 = time.monotonic()
    checked = 0
    for F, Q, rhos in distance_bound_instances["subsystem"]:
        for k, r in rhos.items():
            assert r.exact
        P = subsystem_product([Q, Q])
        d = subsystem_distance(P, budget=4_000_000)
        assert d.exact
        n = Q.n
        bound = min(rhos["rho1x"].rho * rhos["rho2x"].rho,
                    rhos["rho1z"].rho * rhos["rho2z"].rho) * n * n
        if math.isfinite(d.value):
            assert d.value >= bound, (d.value, float(bound))
        checked += 1
    for Cx, rhos in distance_bound_instances["chain"]:
        P = hom_product(Cx, Cx)
        d = systolic_distance(P, budget=4_000_000)
        assert d.exact
        n = Cx.dim
        bound = rhos["rho1"].rho * rhos["rho2"].rho * n * n
        if math.isfinite(d.value):
            assert d.value >= bound, (d.value, float(bound))
        # filling constant against the two-factor bound
        est = filling_constant_estimate(P, trials=150, seed=66,
                                        budget=4_000_000)
        rp = rhos["rho_prime"].rho
        mu_bound = 1 / (rp * min(rp, rhos["delta"], rhos["delta"]))
        assert est.exact_preimages
        assert est.mu_hat <= mu_bound, (est.mu_hat, float(mu_bound))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 1200
    report(6, ok, f"distance >= product-expansion bounds on {checked} "
                  "exhaustive instances (0 violations)", elapsed)
    assert ok


def test_criterion_07_product_expansion_oracles(distance_bound_instances):
    t0 = time.monotonic()
    # pe(t=1) = relative distance on 50 seeded codes
    rng = np.random.default_rng(7007)
    done = 0
    while done < 50:
        q = int(rng.choice([2, 3, 4]))
        F = GF(q)
        n = int(rng.integers(2, 6))
        C = LinearCode(F, n, F.random(rng, (int(rng.integers(1, n + 1)), n)))
        if C.k == 0:
            continue
        res = pe_exact([C], budget=500_000)
        assert res.rho == Fraction(int(C.min_distance().value), n)
        done += 1
    # scaling invariance and sub-tuple monotonicity on every exact instance
    for F, Q, rhos in distance_bound_instances["subsystem"]:
        pair = [Q.qz.dual(), Q.qx]
        base = rhos["rho2x"].rho
        g1 = F.random(np.random.default_rng(1), Q.n, nonzero=True)
        g2 = F.random(np.random.default_rng(2), Q.n, nonzero=True)
        scaled = [LinearCode(F, Q.n, F.mul(pair[0].gen, g1[None, :])),
                  LinearCode(F, Q.n, F.mul(pair[1].gen, g2[None, :]))]
        assert pe_exact(scaled, budget=4_000_000).rho == base
        assert rhos["rho1x"].rho >= base  # sub-tuple monotonicity
        assert pe_exact([pair[0]], budget=500_000).rho >= base
    # closure idempotence on 10^3 random cell sets
    for i in range(1000):
        r = np.random.default_rng(i)
        lengths = (4, 4) if i % 2 else (3, 5)
        A = r.random(lengths) < 0.35
        eps = float(r.choice([0.3, 0.5, 0.75]))
        cl = epsilon_closure(lengths, A, eps)
        assert np.array_equal(cl, epsilon_closure(lengths, cl, eps))
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    report(7, ok, "pe oracles: t=1 relative distance, scaling invariance, "
                  "monotonicity, closure idempotence", elapsed)
    assert ok


def test_criterion_08_transversal_gate_verification():
    t0 = time.monotonic()
    gates = {}
    for r, q in ((2, 16), (3, 37)):
        F = GF(q)
        gate = tv.build_transrs_gate(F, r)
        assert gate.certificate.holds and gate.certificate.intersection_dim == 0
        assert tv.exponent_set_check(r, q).empty
        rep = tv.phase_identity_test(gate, 1000, seed=88)
        assert rep.passed == 1000
        gates[(r, q)] = gate
    # 20 sabotage runs, each must produce a failing witness
    failures = 0
    for i in range(10):  # perturbed coefficient vectors
        gate = gates[(2, 16)] if i % 2 == 0 else gates[(3, 37)]
        F = gate.field
        rng = np.random.default_rng(800 + i)
        bad_a = gate.a.copy()
        pos = int(rng.integers(bad_a.size))
        bad_a[pos] = int(F.add(bad_a[pos], np.int64(int(rng.integers(1, F.q)))))
        bad = tv.GateInstance(gate.r, gate.factors, gate.L_list, gate.S_basis,
                              gate.A_sets, gate.A_flat, gate.enc_basis, bad_a,
                              gate.certificate)
        failures += not tv.phase_identity_test(bad, 1000, seed=88).all_passed
    for i in range(5):  # enlarged stabilizer space, dense certificate route
        gate = gates[(2, 16)]
        F = gate.field
        extra = gate.enc_basis[i % gate.enc_basis.shape[0]][None, :]
        S_bad = np.concatenate([gate.S_basis, extra], axis=0)
        Lg = la.kron(F, gate.L_list[0].gen, gate.L_list[1].gen)
        cert = tv.multiplication_property(F, Lg, S_bad, 2)
        failures += not cert.holds
    for i in range(5):  # enlarged stabilizer, symbolic route at q = 37
        p = tv.transrs_params(3, 37)
        T = p.t_box()
        T.add((p.ell_lo + i % p.gate_qudits, p.ell_lo))
        chk = tv.exponent_intersection(37, p.m_box(), T, 3)
        failures += not chk.empty
    elapsed = time.monotonic() - t0
    ok = failures == 20 and elapsed < 300
    report(8, ok, f"gate verification (2,16) and (3,37): property + exponent "
                  f"+ phase 1000/1000; sabotage {failures}/20 detected", elapsed)
    assert ok


def test_criterion_09_triple_product_desk_scale():
    t0 = time.monotonic()
    m = tv.smallest_window_m()
    assert m == 408
    F = GF(1 << 17)
    gate = tv.triple_product_build(F, m, 1, seed=2024)
    from prodcodes.codes import box_exponents, monomial_eval_matrix
    p = gate.params
    for E, g in zip(gate.points, gate.gammas):
        assert np.all(g != 0)
        exps = box_exponents(0, 2 * p.k0 + 1, p.u)
        M = monomial_eval_matrix(F, E, exps)
        got = la.matmul(F, M, g[:, None])[:, 0]
        want = np.zeros(len(exps), dtype=np.int64)
        want[exps.index(tuple([p.k0] * p.u))] = 1
        assert np.array_equal(got, want)
    verdict = gate.certificate.holds  # recorded
    if verdict:
        rep = tv.triple_phase_identity_test(gate, 100, seed=17)
        assert rep.all_passed
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    report(9, ok, f"triple product m={m}, u=1, q=2^17: gamma exact+nonzero, "
                  f"verdict={verdict}, phase 100/100", elapsed)
    assert ok


def test_criterion_10_single_shot():
    t0 = time.monotonic()
    F = GF(8)
    inst = SubsystemProductInstance(
        [quantum_rs(F, 8, 6, 6), quantum_rs(F, 8, 4, 5)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))
    prod = inst.product
    cm = check_matrices(prod, "amplified")
    gauge = prod.qx.dual().gen
    est = ltc_soundness_estimate(F, cm.hz, trials=200, seed=42)
    rho_hat = est.rho_hat
    m_z = cm.hz.shape[0]
    distance = 4
    from prodcodes.cli import _stripe_safe_noise
    successes = 0
    residual_ok = 0
    for trial in range(500):
        rng = stream(1010, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v = _stripe_safe_noise(F, inst, 1, rng)
        s = F.add(la.matvec(F, cm.hz, F.add(e, g)), v)
        res = single_shot_decode(inst, cm, s, distance)
        if res.correction is None:
            continue
        diff = F.sub(res.correction.representative, e)
        ok = bool(not diff.any() or la.in_row_space(F, gauge, diff))
        successes += ok
        resid = coset_min_weight(F, prod.qx.gen, diff, cap=3)
        bound = 1 * prod.n / (rho_hat * m_z)
        if resid is not None and resid <= bound:
            residual_ok += 1
    # two-round stability on a subsample
    stable = 0
    for trial in range(50):
        rng = stream(2020, trial)
        e = np.zeros(prod.n, dtype=np.int64)
        e[int(rng.integers(prod.n))] = int(F.random(rng, None, nonzero=True))
        g1 = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v1 = _stripe_safe_noise(F, inst, 1, rng)
        r1 = single_shot_decode(
            inst, cm, F.add(la.matvec(F, cm.hz, F.add(e, g1)), v1), distance)
        resid1 = F.sub(e, r1.correction.representative)
        g2 = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        v2 = _stripe_safe_noise(F, inst, 1, rng)
        r2 = single_shot_decode(
            inst, cm, F.add(la.matvec(F, cm.hz, F.add(resid1, g2)), v2), distance)
        total = F.add(r1.correction.representative, r2.correction.representative)
        diff = F.sub(total, e)
        stable += bool(not diff.any() or la.in_row_space(F, gauge, diff))
    elapsed = time.monotonic() - t0
    ok = successes == 500 and residual_ok == 500 and stable == 50 and elapsed < 600
    report(10, ok, f"single-shot n=8: {successes}/500 correct class, residual "
                   f"bound {residual_ok}/500 (rho_hat={rho_hat:.3f}), "
                   f"two-round stable {stable}/50", elapsed)
    assert ok


def test_criterion_11_punctured_tensor_mds():
    t0 = time.monotonic()
    F = GF(1 << 17)
    for seed in range(50):
        ec = punctured_tensor_rs(F, 3, 2, 2, seed=seed)
        assert ec.dim == 4
        assert ec.base.is_mds(), f"draw {seed} not MDS"
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    report(11, ok, "punctured tensor RS m=3,u=2,k=2,q=2^17: 50/50 draws MDS",
           elapsed)
    assert ok


def test_criterion_12_fixture_determinism(tmp_path):
    t0 = time.monotonic()
    with open(os.path.join(FIXDIR, "fixtures.json")) as fh:
        spec = json.load(fh)
    pinned = spec["pinned_hashes"]
    for fx in spec["fixtures"]:
        argv = list(fx["run"])
        if "__BUILD__" in argv:
            bpath = str(tmp_path / (fx["name"] + "-inst.json"))
            assert cli_main(list(fx["build"]) + ["--out", bpath]) == 0
            argv = [a if a != "__BUILD__" else bpath for a in argv]
        outs = []
        for rep in range(2):
            outp = str(tmp_path / f"{fx['name']}-{rep}.json")
            rc = cli_main(argv + ["--out", outp])
            assert rc == 0, (fx["name"], rc)
            outs.append(open(outp, "rb").read())
        assert outs[0] == outs[1], f"{fx['name']} not byte-identical"
        doc = json.loads(outs[0])
        assert doc["fixture_hash"] == pinned[fx["name"]], \
            f"{fx['name']}: hash drift {doc['fixture_hash']} != {pinned[fx['name']]}"
    elapsed = time.monotonic() - t0
    ok = True
    report(12, ok, f"{len(spec['fixtures'])} shipped fixtures reproduce "
                   "pinned hashes byte-for-byte", elapsed)
    assert ok
