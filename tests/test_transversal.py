"""Transversal gate machinery: star spans, multiplication property, exponent
checks, gate synthesis, phase identity, sabotage, and the triple product."""

import dataclasses
import hashlib
import itertools
import json
import re
import types
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes.cli import canonical_json
from prodcodes.gf import GF
from prodcodes import codes, linalg as la
from prodcodes.codes import (BudgetExceeded, LinearCode, box_exponents, monomial_eval_matrix,
                             rs_code)
from prodcodes import transversal as tv
from prodcodes.subsystem import quantum_rs


def _sha(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# reference oracles: the scalar-loop phase tests the batched ones replaced
# ---------------------------------------------------------------------------


def _dot(F, a, b):
    terms = F.mul(a, b)
    if F.p == 2:
        return np.bitwise_xor.reduce(terms)
    out = np.int64(0)
    for t in terms:
        out = F.add(out, t)
    return out


def _reference_phase_identity_test(gate, trials, seed):
    F = gate.field
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    ell = gate.n_logical
    S = gate.S_basis
    for trial in range(trials):
        msgs = [F.random(rng, ell) for _ in range(gate.r)]
        reps = []
        for z in msgs:
            rep = la.matmul(F, z[None, :], gate.enc_basis)[0]
            if S.shape[0]:
                rep = F.add(rep, la.matmul(F, F.random(rng, S.shape[0])[None, :], S)[0])
            reps.append(rep)
        prod_msgs = reduce(F.mul, msgs)
        lhs = reduce(F.add, [prod_msgs[j] for j in range(ell)], np.int64(0))
        prod_reps = reduce(F.mul, reps)
        rhs = np.int64(0)
        terms = F.mul(gate.a, prod_reps)
        for j in range(terms.size):
            rhs = F.add(rhs, terms[j])
        if int(lhs) != int(rhs):
            return tv.PhaseReport(trials, trial, {
                "trial": trial, "lhs": int(lhs), "rhs": int(rhs),
                "messages": [[int(x) for x in z] for z in msgs]})
    return tv.PhaseReport(trials, trials, None)


def _reference_triple_phase_identity_test(gate, trials, seed, terms_per_block=2):
    F = gate.field
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    qz = gate.block_bases["qz"]
    qx_perp = gate.block_bases["qx_perp"]
    slots = {
        "S1": (qx_perp[0], qz[1], qz[2]),
        "S2": (qz[0], qx_perp[1], qz[2]),
        "S3": (qz[0], qz[1], qx_perp[2]),
    }
    vhat = [F.div(v, v[j]) for v, j in zip(gate.L_vectors, gate.j_star)]

    def sample_rep(z):
        terms = [(F.mul(np.int64(z), vhat[0]), vhat[1], vhat[2])]
        for name in ("S1", "S2", "S3"):
            b1, b2, b3 = slots[name]
            for _ in range(terms_per_block):
                t1 = la.matmul(F, F.random(rng, b1.shape[0])[None, :], b1)[0]
                t2 = la.matmul(F, F.random(rng, b2.shape[0])[None, :], b2)[0]
                t3 = la.matmul(F, F.random(rng, b3.shape[0])[None, :], b3)[0]
                terms.append((t1, t2, t3))
        return terms

    for trial in range(trials):
        msgs = [int(F.random(rng, None)) for _ in range(3)]
        reps = [sample_rep(z) for z in msgs]
        lhs = int(F.mul(F.mul(np.int64(msgs[0]), np.int64(msgs[1])),
                        np.int64(msgs[2])))
        rhs = np.int64(0)
        for t1 in reps[0]:
            for t2 in reps[1]:
                for t3 in reps[2]:
                    term = np.int64(gate.a_scale)
                    for axis in range(3):
                        prod = F.mul(F.mul(t1[axis], t2[axis]), t3[axis])
                        term = F.mul(term, _dot(F, gate.a_parts[axis], prod))
                    rhs = F.add(rhs, term)
        if int(rhs) != lhs:
            return tv.PhaseReport(trials, trial,
                                  {"trial": trial, "lhs": lhs, "rhs": int(rhs),
                                   "messages": msgs})
    return tv.PhaseReport(trials, trials, None)


# ---------------------------------------------------------------------------
# reference oracle: the set-of-tuples exponent sums the boolean grids replaced
# ---------------------------------------------------------------------------


def _reference_reduce(q, e):
    return e if e < q else 1 + (e - 1) % (q - 1)


def _reference_sumset(q, A, B):
    return {tuple(_reference_reduce(q, x + y) for x, y in zip(a, b)) for a in A for b in B}


def _reference_exponent_intersection(q, M, T, r):
    lpow, obst, mu = M, T, M | T
    for _ in range(r - 1):
        lpow = _reference_sumset(q, lpow, M)
        obst = _reference_sumset(q, obst, mu)
    inter = lpow & obst
    return tv.ExponentCheck(not inter, min(inter) if inter else None,
                            frozenset(lpow), frozenset(obst))


@settings(max_examples=60)
@given(st.data())
def test_exponent_intersection_matches_reference(data):
    """empty, witness and both sets agree with the set-of-tuples oracle,
    empty M included."""
    q = data.draw(st.integers(2, 40))
    t = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(2, 3))
    tuples = st.tuples(*[st.integers(0, q - 1)] * t)
    M = data.draw(st.sets(tuples, max_size=6))
    T = data.draw(st.sets(tuples, min_size=1, max_size=12))
    assert tv.exponent_intersection(q, M, T, r) == \
        _reference_exponent_intersection(q, M, T, r)


def test_exponent_intersection_rejects_out_of_range_exponents():
    with pytest.raises(ValueError):
        tv.exponent_intersection(8, {(8, 0)}, {(1, 1)}, 2)


# ---------------------------------------------------------------------------
# star spans and the property test
# ---------------------------------------------------------------------------


def test_star_span_matches_star_product(gf8, rng):
    """star_span spans the star product: every pairwise product of rows."""
    A = gf8.random(rng, (2, 8))
    B = gf8.random(rng, (3, 8))
    rows = tv.star_span(gf8, A, B)
    direct = gf8.mul(A[:, None, :], B[None, :, :]).reshape(-1, 8)
    assert np.array_equal(la.row_space(gf8, rows), la.row_space(gf8, direct))


def test_multiplication_property_trivial_s(gf8, rng):
    L = gf8.random(rng, (2, 8))
    S = np.zeros((0, 8), dtype=np.int64)
    cert = tv.multiplication_property(gf8, L, S, 3)
    assert cert.holds and cert.rank_obstruction == 0


def test_multiplication_property_caps(gf8, rng, monkeypatch):
    L = gf8.random(rng, (2, 8))
    S = gf8.random(rng, (2, 8))
    monkeypatch.setattr(codes, "PAIR_CAP", 1)
    with pytest.raises(BudgetExceeded):
        tv.multiplication_property(gf8, L, S, 2)


def test_exponent_reduction():
    # x^q = x on the full grid
    assert tv.reduce_exponent(8, 7) == 7
    assert tv.reduce_exponent(8, 8) == 1
    assert tv.reduce_exponent(8, 15) == 1
    assert tv.reduce_exponent(8, 0) == 0
    F = GF(8)
    pts = F.element_order()
    a = F.power(pts, 9)
    b = F.power(pts, tv.reduce_exponent(8, 9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# RS instantiation parameters (sanity against hand-evaluated formulas)
# ---------------------------------------------------------------------------


def test_transrs_params_r3_q37():
    p = tv.transrs_params(3, 37)
    assert (p.k1x, p.k1z, p.k2x, p.k2z) == (34, 34, 31, 12)
    assert (p.ell_lo, p.ell_hi) == (11, 12)
    assert p.gate_qudits == 1
    assert (p.k1x + p.k1z - p.q, p.k2x + p.k2z - p.q) == (31, 6)


def test_transrs_params_r2_q16():
    p = tv.transrs_params(2, 16)
    assert (p.k1x, p.k2x, p.k2z) == (14, 12, 8)
    assert (p.ell_lo, p.ell_hi) == (6, 8)
    assert p.gate_qudits == 4


def test_transrs_params_min_q():
    with pytest.raises(ValueError):
        tv.transrs_params(3, 35)
    tv.transrs_params(3, 36)  # boundary admitted


def test_exponent_set_checks_empty():
    assert tv.exponent_set_check(3, 37).empty
    assert tv.exponent_set_check(2, 16).empty


def test_exponent_set_check_perturbed_window():
    p = dataclasses.replace(tv.transrs_params(3, 37), ell_lo=5)
    bad = tv.exponent_intersection(37, p.m_box(), p.t_box(), 3)
    assert not bad.empty and bad.witness == (15, 15)
    assert bad == _reference_exponent_intersection(37, p.m_box(), p.t_box(), 3)
    assert bad.witness in bad.l_power_set and bad.witness in bad.obstruction_set


# ---------------------------------------------------------------------------
# gate builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate16():
    return tv.build_transrs_gate(GF(16), 2)


@pytest.fixture(scope="module")
def gate37():
    return tv.build_transrs_gate(GF(37), 3)


def test_gate16_certificate_and_phase(gate16):
    assert gate16.certificate.holds
    assert gate16.certificate.intersection_dim == 0
    assert gate16.n_logical == 4
    rep = tv.phase_identity_test(gate16, 300, seed=5)
    assert rep.all_passed


def test_gate37_certificate_and_phase(gate37):
    assert gate37.certificate.holds
    assert gate37.n_logical == 1
    rep = tv.phase_identity_test(gate37, 300, seed=6)
    assert rep.all_passed


def test_monomial_dense_certificates_agree(gate16, monkeypatch):
    monkeypatch.setattr(tv, "DENSE_ROUTE_MAX_Q", 0)
    mono = tv.build_transrs_gate(GF(16), 2)
    cd, cm = gate16.certificate, mono.certificate
    assert (cd.rank_l_power, cd.rank_obstruction, cd.intersection_dim) == \
        (cm.rank_l_power, cm.rank_obstruction, cm.intersection_dim)
    assert tv.phase_identity_test(mono, 200, seed=8).all_passed


@pytest.mark.parametrize("q, r, monomial, digest", [
    (16, 2, False, "9de1997c572227be47fd88c1bd9ef6d80122c667a421d580e640eb91e2729e9c"),
    (16, 2, True, "d972216077d98e92526c0156510102e7e15996d2b643497396a4a6f3ace1df26"),
    (37, 3, None, "8c04d214d2b986b7fb380b6ab59453379abea5a71a9dc8e72340c57068fee198"),
])
def test_gate_json_pinned(q, r, monomial, digest, monkeypatch):
    """The whole gate document (factors, L, S, information sets,
    coefficients, certificate) of each build route, pinned by hash; the
    monomial route is forced at q = 16 by lowering the dense route's bound."""
    if monomial:
        monkeypatch.setattr(tv, "DENSE_ROUTE_MAX_Q", 0)
    gate = tv.build_transrs_gate(GF(q), r)
    doc = json.dumps(gate.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _reference_certify_rows(F, factors, S_monomial):
    """The per-row membership loop of the monomial certification: the
    message of the first row that fails a check, or None."""
    n1, n2 = factors[0].n, factors[1].n
    h1z, h2z = factors[0].qz.parity_check(), factors[1].qz.parity_check()
    g1x, g2x = factors[0].qx.gen, factors[1].qx.gen
    for row in S_monomial:
        V = row.reshape(n1, n2)
        if np.any(la.matmul(F, h1z, V)) or np.any(la.matmul(F, V, h2z.T)):
            return "monomial stabilizer row escapes Q_Z"
        if np.any(la.matmul(F, la.matmul(F, g1x, V), g2x.T)):
            return "monomial stabilizer row escapes Q_X^perp"
    return None


@pytest.mark.parametrize("q, r", [(16, 2), (37, 3)])
def test_monomial_certification_names_the_first_bad_row(q, r):
    """One corrupted row, or a Q_Z word outside Q_X^perp before or after it,
    raises the error of the first failing row, as the per-row loop does."""
    F = GF(q)
    p = tv.transrs_params(r, q)
    factors = [quantum_rs(F, q, p.k1x, p.k1z), quantum_rs(F, q, p.k2x, p.k2z)]
    t_exps = sorted(p.t_box())
    S = tv.monomial_eval_matrix(F, tv.grid_points(F, 2), t_exps)
    tv._certify_monomial_stabilizer(F, factors, S, t_exps)
    assert _reference_certify_rows(F, factors, S) is None
    box = [(a, b) for a in range(p.k1z) for b in range(p.k2z)]
    words = tv.monomial_eval_matrix(F, tv.grid_points(F, 2), box)
    outside_x = next(w for w in words if _reference_certify_rows(F, factors, w[None]))
    broken = S[1].copy()
    broken[0] = F.add(broken[0], np.int64(1))
    last = S.shape[0] - 1
    seen = set()
    for rows in ({1: broken}, {1: outside_x}, {1: broken, last: outside_x},
                 {1: outside_x, last: broken}):
        bad = S.copy()
        for i, w in rows.items():
            bad[i] = w
        want = _reference_certify_rows(F, factors, bad)
        seen.add(want)
        with pytest.raises(RuntimeError, match=re.escape(want)):
            tv._certify_monomial_stabilizer(F, factors, bad, t_exps)
    assert seen == {"monomial stabilizer row escapes Q_Z",
                    "monomial stabilizer row escapes Q_X^perp"}


def test_dense_build_spans_each_star_power_once(monkeypatch):
    """The generic r = 2 build forms L*L and S*(L+S) once each: the
    certificate and the projection share the star-power bases."""
    calls = []
    star_span = tv.star_span

    def counted(*args):
        calls.append(args[1].shape)
        return star_span(*args)

    monkeypatch.setattr(tv, "star_span", counted)
    tv.build_transrs_gate(GF(16), 2)
    assert len(calls) == 2


def test_enc_injectivity(gate16, gate37):
    for gate in (gate16, gate37):
        F = gate.field
        assert la.rank(F, gate.enc_basis) == gate.n_logical


def _reference_unit_encodings(F, factors, L_list):
    """_unit_encodings by elimination: the pivots of an rref of each
    generator, and the unit encodings solved for on them."""
    A_sets = [la.rref(F, L.gen)[1] for L in L_list]
    enc_factors = []
    for L, A in zip(L_list, A_sets):
        coefs = la.solve_right(F, L.gen[:, A].T, la.identity(len(A)))
        enc_factors.append(la.matmul(F, coefs.T, L.gen))
    enc_basis = reduce(lambda a, b: la.kron(F, a, b), enc_factors)
    A_flat = np.array([np.ravel_multi_index(idx, tuple(f.n for f in factors))
                       for idx in itertools.product(*A_sets)], dtype=np.int64)
    return [list(map(int, A)) for A in A_sets], A_flat, enc_basis


def _assert_same_encodings(got, want):
    assert got[0] == want[0] and all(type(a) is int for A in got[0] for a in A)
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def test_unit_encodings_of_the_gates_match_elimination(gate16, gate37):
    for gate in (gate16, gate37):
        got = (gate.A_sets, gate.A_flat, gate.enc_basis)
        _assert_same_encodings(got, _reference_unit_encodings(gate.field, gate.factors,
                                                              gate.L_list))


@given(st.sampled_from([2, 7, 9, 16]),
       st.lists(st.tuples(st.integers(1, 5), st.integers(0, 5)), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_unit_encodings_match_elimination(q, shapes, seed):
    """Information sets and unit encodings read off rref generators equal
    those solved for, on random codes of every rank, the zero code too."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    L_list = [LinearCode(F, n, F.random(rng, (k, n))) for n, k in shapes]
    # _unit_encodings reads only the length of each factor
    factors = [types.SimpleNamespace(n=L.n) for L in L_list]
    _assert_same_encodings(tv._unit_encodings(F, factors, L_list),
                           _reference_unit_encodings(F, factors, L_list))


def test_monomial_build_inverts_one_vandermonde(monkeypatch):
    """The monomial route inverts the q x q Vandermonde matrix once, in
    closed form, for the certificate and the synthesis both: no q x q
    system is solved."""
    built, solved = [], []
    vandermonde_inverse, solve_right = tv.vandermonde_inverse, la.solve_right

    def counted_inverse(F, points):
        built.append(len(points))
        return vandermonde_inverse(F, points)

    def counted_solve(F, A, b):
        solved.append(np.shape(A))
        return solve_right(F, A, b)

    monkeypatch.setattr(tv, "vandermonde_inverse", counted_inverse)
    monkeypatch.setattr(la, "solve_right", counted_solve)
    tv.build_transrs_gate(GF(37), 3)
    assert built == [37] and solved.count((37, 37)) == 0


def _perturbed_gate(gate, pos, delta):
    bad_a = gate.a.copy()
    bad_a[pos] = int(gate.field.add(bad_a[pos], np.int64(delta)))
    return tv.GateInstance(gate.r, gate.factors, gate.L_list,
                           gate.S_basis, gate.A_sets, gate.A_flat,
                           gate.enc_basis, bad_a, gate.certificate)


def test_phase_sabotage_perturbed_a(gate16):
    rep = tv.phase_identity_test(_perturbed_gate(gate16, 5, 3), 300, seed=5)
    assert not rep.all_passed


def test_gate_coefficients_pinned():
    """The GF(37) r = 3 coefficients vector of the monomial synthesis, pinned
    by hash."""
    gate = tv.build_transrs_gate(GF(37), 3)
    assert _sha([int(x) for x in gate.a]) == \
        "50b773d325c2204b25c40e867c95c75213032e4d6bb094923a9f089a07859d2f"


@settings(max_examples=12)
@given(st.booleans(), st.booleans(), st.integers(0, 10 ** 6), st.integers(1, 10 ** 6),
       st.integers(0, 2 ** 32 - 1))
def test_phase_identity_matches_reference(gate16, gate37, big, perturb, pos, delta, seed):
    """Whole reports, counterexample included, agree with the scalar-loop
    oracle on correct gates and on gates with one perturbed coefficient."""
    gate = gate37 if big else gate16
    if perturb:
        gate = _perturbed_gate(gate, pos % gate.a.size, 1 + delta % (gate.field.q - 1))
    assert tv.phase_identity_test(gate, 8, seed) == \
        _reference_phase_identity_test(gate, 8, seed)


def test_property_sabotage_enlarged_s(gate16):
    F = gate16.field
    S_bad = np.concatenate([gate16.S_basis, gate16.enc_basis[:1]], axis=0)
    Lg = la.kron(F, gate16.L_list[0].gen, gate16.L_list[1].gen)
    cert = tv.multiplication_property(F, Lg, S_bad, 2)
    assert not cert.holds and cert.intersection_dim > 0


def test_exponent_sabotage_enlarged_s():
    """Adding a window monomial to the stabilizer exponent set breaks the
    symbolic emptiness, mirroring the dense sabotage."""
    p = tv.transrs_params(3, 37)
    T = p.t_box()
    T.add((p.ell_lo, p.ell_lo))
    chk = tv.exponent_intersection(37, p.m_box(), T, 3)
    assert not chk.empty


def test_synthesize_gate_validation(gf16):
    factors = [quantum_rs(gf16, 16, 14, 14), quantum_rs(gf16, 16, 12, 8)]
    badL = [rs_code(gf16, 16, 2), rs_code(gf16, 16, 2)]  # inside (Q_X)^perp
    with pytest.raises(ValueError):
        tv.synthesize_gate(factors, badL, 2)


def test_gate_json(gate16):
    doc = gate16.to_json()
    assert doc["certificate"]["holds"] and len(doc["a"]) == 256
    assert doc["A_sets"] == gate16.A_sets


# ---------------------------------------------------------------------------
# triple product
# ---------------------------------------------------------------------------


def test_triple_params_match_formulas():
    p = tv.triple_product_params(400, 1)
    assert p.k0 == 100 and p.kx == (1, 1, 1) and p.kz == (66, 66, 33)
    assert (p.ell_lo, p.ell_hi) == (33, 33) and p.window_size == 0
    p100 = tv.triple_product_params(100, 1)
    assert p100.k0 == 25 and p100.kx[0] == 0  # degenerate regime
    # the window regime starts at m = 100
    assert tv.triple_product_params(99, 2).degraded is True
    assert tv.triple_product_params(100, 2).degraded is False


def test_smallest_window_m():
    m = tv.smallest_window_m()
    assert m == 408
    assert tv.triple_product_params(m, 1).window_size == 1
    assert tv.triple_product_params(m - 1, 1).window_size == 0


def test_triple_build_requires_window():
    F = GF(1 << 17)
    with pytest.raises(ValueError):
        tv.triple_product_build(F, 400, 1, seed=0)


@pytest.fixture(scope="module")
def triple_gate():
    return tv.triple_product_build(GF(1 << 17), 408, 1, seed=2024)


def test_triple_certificate(triple_gate):
    cert = triple_gate.certificate
    assert cert.holds
    assert cert.checks["pattern_kill"] and not cert.failed_patterns
    assert all(cert.checks[f"gamma{i}_nonzero"] for i in range(3))
    assert cert.checks["phi_on_Lpower"]
    assert not triple_gate.params.degraded


def test_triple_gamma_conditions(triple_gate):
    """gammareq holds exactly: inner products against the monomial box give
    the unit-vector pattern, and every entry is nonzero."""
    F = triple_gate.field
    from prodcodes.codes import monomial_eval_matrix, box_exponents
    p = triple_gate.params
    for E, g in zip(triple_gate.points, triple_gate.gammas):
        assert np.all(g != 0)
        exps = box_exponents(0, 2 * p.k0 + 1, p.u)
        M = monomial_eval_matrix(F, E, exps)
        got = la.matmul(F, M, g[:, None])[:, 0]
        want = np.zeros(len(exps), dtype=np.int64)
        want[exps.index(tuple([p.k0] * p.u))] = 1
        assert np.array_equal(got, want)


def test_triple_phase_identity(triple_gate):
    rep = tv.triple_phase_identity_test(triple_gate, 25, seed=7)
    assert rep.all_passed


def _triple_with(gate, a_parts=None, a_scale=None):
    return tv.TripleProductGate(
        gate.field, gate.params, gate.points, gate.gammas, gate.L_vectors,
        gate.j_star, gate.a_parts if a_parts is None else a_parts,
        gate.a_scale if a_scale is None else a_scale,
        gate.certificate, gate.block_bases)


def _perturbed_part(gate, axis, pos, delta):
    parts = [a.copy() for a in gate.a_parts]
    parts[axis][pos] = int(gate.field.add(parts[axis][pos], np.int64(delta)))
    return parts


def test_triple_phase_detects_sabotage(triple_gate):
    bad = _triple_with(triple_gate, a_scale=int(
        triple_gate.field.add(np.int64(triple_gate.a_scale), np.int64(1))))
    rep = tv.triple_phase_identity_test(bad, 25, seed=7)
    assert not rep.all_passed


def test_triple_phase_detects_perturbed_part(triple_gate):
    bad = _triple_with(triple_gate, a_parts=_perturbed_part(triple_gate, 1, 17, 5))
    rep = tv.triple_phase_identity_test(bad, 25, seed=7)
    assert not rep.all_passed


@settings(max_examples=6)
@given(st.sampled_from(["none", "scale", "part"]), st.integers(0, 2),
       st.integers(0, 10 ** 6), st.integers(1, 10 ** 6), st.integers(0, 2 ** 32 - 1))
def test_triple_phase_identity_matches_reference(triple_gate, kind, axis, pos, delta, seed):
    F = triple_gate.field
    delta = 1 + delta % (F.q - 1)
    gate = triple_gate
    if kind == "scale":
        gate = _triple_with(gate, a_scale=int(F.add(np.int64(gate.a_scale), np.int64(delta))))
    elif kind == "part":
        gate = _triple_with(gate, a_parts=_perturbed_part(gate, axis, pos % gate.n, delta))
    assert tv.triple_phase_identity_test(gate, 2, seed) == \
        _reference_triple_phase_identity_test(gate, 2, seed)


def test_triple_build_pinned(triple_gate):
    """The seed-2024 build (points, gammas, parts, certificate), pinned by
    hash: it guards the point sampling and the gamma solve."""
    assert _sha(triple_gate.to_json()) == \
        "9f44f65b647d1a92258d79b33c709779cdb34b53580ffd8e5d23426dd4054a53"


def test_triple_build_at_scale_is_pinned():
    """The seed-2024 build at m = 1067 (n = 1067, a 535-row gamma box): its
    certificate holds, two phase trials pass, and its document hash is the
    one that the elimination of every gamma box gave."""
    gate = tv.triple_product_build(GF(1 << 17), 1067, 1, seed=2024)
    assert gate.certificate.holds
    assert tv.triple_phase_identity_test(gate, 2, seed=2024).all_passed
    assert _sha(gate.to_json()) == \
        "8d84275c74fdcc5e6cf7a2b19008445f468771e6bc94e568a1e56c67c492380f"


def test_triple_build_eliminates_nothing(monkeypatch, triple_gate):
    """At u = 1 the gamma solve and the Z-code bases read their rrefs off
    closed forms: the build runs no rref, and the document is unchanged."""
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda F, M: calls.append(M.shape) or rref(F, M))
    gate = tv.triple_product_build(GF(1 << 17), 408, 1, seed=2024)
    assert calls == [] and gate.to_json() == triple_gate.to_json()


def test_solve_gamma_rejects_dependent_box():
    F = GF(1 << 17)
    points = np.array([[1], [2], [3], [3], [4], [4]], dtype=np.int64)
    M = monomial_eval_matrix(F, points, box_exponents(0, 5, 1))
    target = np.zeros(5, dtype=np.int64)
    target[2] = 1
    rng = np.random.default_rng(0)
    with pytest.raises(tv.GammaSolveError):
        tv._solve_gamma(F, points, M, target, rng)


def test_triple_build_evaluates_each_box_once(monkeypatch, triple_gate):
    """Each factor's [0, 2k0]^u box is evaluated once, for the gamma solve
    and its check alike, and the document is unchanged."""
    p = tv.triple_product_params(408, 1)
    box = len(box_exponents(0, 2 * p.k0 + 1, p.u))
    sizes = []
    evaluate = tv.monomial_eval_matrix
    monkeypatch.setattr(tv, "monomial_eval_matrix",
                        lambda F, E, exps: sizes.append(len(exps)) or evaluate(F, E, exps))
    gate = tv.triple_product_build(GF(1 << 17), 408, 1, seed=2024)
    assert sizes.count(box) == 3
    assert gate.to_json() == triple_gate.to_json()


def test_triple_determinism():
    F = GF(1 << 17)
    g1 = tv.triple_product_build(F, 408, 1, seed=99)
    g2 = tv.triple_product_build(F, 408, 1, seed=99)
    assert np.array_equal(g1.gammas[0], g2.gammas[0])
    assert g1.a_scale == g2.a_scale
    assert np.array_equal(g1.a_parts[2], g2.a_parts[2])


def test_triple_json(triple_gate):
    doc = triple_gate.to_json()
    assert doc["certificate"]["holds"]
    assert len(doc["gammas"]) == 3 and len(doc["gammas"][0]) == 408


def test_synthesize_zero_logical_space(gf16):
    """L = {0}: the coefficients vector is zero and the identity is vacuous."""
    from prodcodes.codes import zero_code
    p = tv.transrs_params(2, 16)
    factors = [quantum_rs(gf16, 16, p.k1x, p.k1z),
               quantum_rs(gf16, 16, p.k2x, p.k2z)]
    gate = tv.synthesize_gate(factors, [zero_code(gf16, 16), zero_code(gf16, 16)], 2)
    assert gate.n_logical == 0 and not gate.a.any()
    assert tv.phase_identity_test(gate, 20, seed=1).all_passed
