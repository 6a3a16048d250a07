"""CLI: subcommands, reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prodcodes
from prodcodes.cli import main
from prodcodes.gf import GF
from prodcodes import linalg as la, qdecoder
from prodcodes.codes import LinearCode, rs_code
from prodcodes.expansion import pe_exact
from prodcodes.subsystem import quantum_rs


def run(tmp_path, *argv):
    return main(list(argv))


def test_build_and_decode_dual_tensor(tmp_path):
    inst = tmp_path / "dt.json"
    rep = tmp_path / "rep.json"
    assert main(["build-code", "--kind", "dual-tensor", "--q", "32", "--n", "32",
                 "--k", "4", "--k2", "8", "--eps", "1/2", "--rho", "1/8",
                 "--gamma", "20", "--seed", "1", "--out", str(inst)]) == 0
    assert main(["decode-trials", "--instance", str(inst), "--noise-weight", "0",
                 "--trials", "4", "--seed", "7", "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    agg = doc["results"]["aggregate"]
    assert agg["in_promise_failure"] == 0 and agg["in_promise_success"] == 4
    assert "fixture_hash" in doc and "timing" not in doc


def test_report_determinism(tmp_path):
    inst = tmp_path / "dt.json"
    main(["build-code", "--kind", "dual-tensor", "--q", "16", "--n", "16",
          "--k", "2", "--k2", "4", "--seed", "5", "--out", str(inst)])
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for r in (r1, r2):
        main(["decode-trials", "--instance", str(inst), "--noise-weight", "0",
              "--trials", "3", "--seed", "2", "--out", str(r)])
    assert r1.read_bytes() == r2.read_bytes()


def test_decode_trials_csv(tmp_path):
    inst = tmp_path / "dt.json"
    main(["build-code", "--kind", "dual-tensor", "--q", "16", "--n", "16",
          "--k", "2", "--k2", "4", "--seed", "5", "--out", str(inst)])
    csvp = tmp_path / "t.csv"
    main(["decode-trials", "--instance", str(inst), "--noise-weight", "0",
          "--trials", "3", "--seed", "2", "--out", str(tmp_path / "r.json"),
          "--csv", str(csvp)])
    lines = csvp.read_text().strip().splitlines()
    assert len(lines) == 4 and lines[0].startswith("trial,")


def test_pe_exact_command(tmp_path):
    F = GF(4)
    from prodcodes.codes import rs_code
    codes = [rs_code(F, 4, 1).to_json(), rs_code(F, 4, 1).to_json()]
    cf = tmp_path / "codes.json"
    cf.write_text(json.dumps(codes))
    out = tmp_path / "pe.json"
    assert main(["pe-exact", "--codes", str(cf), "--budget", "30000000",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["rho"] == [1, 2]
    # refusal on a tiny budget
    assert main(["pe-exact", "--codes", str(cf), "--budget", "10",
                 "--out", str(tmp_path / "no.json")]) == 1


def test_gate_verify_params(tmp_path):
    out = tmp_path / "gate.json"
    assert main(["gate-verify", "--params", "2,16", "--trials", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    res = doc["results"]
    assert res["certificate"]["holds"] and res["exponent_check_empty"]
    assert res["phase_passed"] == res["phase_trials"] == 50


def test_gate_verify_triple_instance(tmp_path):
    inst = tmp_path / "triple.json"
    assert main(["build-code", "--kind", "triple-product", "--q", str(1 << 17),
                 "--m", "408", "--u", "1", "--seed", "11", "--out", str(inst)]) == 0
    out = tmp_path / "verify.json"
    assert main(["gate-verify", "--instance", str(inst), "--trials", "5",
                 "--seed", "11", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["certificate"]["holds"]
    assert doc["results"]["phase_passed"] == 5


def test_distance_command(tmp_path):
    inst = tmp_path / "qrs.json"
    main(["build-code", "--kind", "qrs", "--q", "4", "--n", "3", "--kx", "2",
          "--kz", "2", "--seed", "1", "--out", str(inst)])
    out = tmp_path / "d.json"
    assert main(["distance", "--instance", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["exact"] and doc["results"]["distance"] == 2


def test_single_shot_command(tmp_path):
    inst = tmp_path / "sp.json"
    main(["build-code", "--kind", "subsystem-product", "--q", "8", "--n", "8",
          "--kx", "6", "--kz", "6", "--kx2", "4", "--kz2", "5",
          "--eps", "1/8", "--seed", "1", "--out", str(inst)])
    out = tmp_path / "ss.json"
    rc = main(["single-shot-trials", "--instance", str(inst),
               "--syndrome-noise", "1", "--error-weight", "1",
               "--distance", "4", "--trials", "10", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["aggregate"]["success_rate"] == 1.0


def test_decode_one_word_and_syndrome(tmp_path):
    inst = tmp_path / "sp.json"
    main(["build-code", "--kind", "subsystem-product", "--q", "16", "--n", "16",
          "--kx", "12", "--kz", "12", "--kx2", "8", "--kz2", "9",
          "--eps", "3/16", "--seed", "1", "--out", str(inst)])
    doc = json.loads((tmp_path / "sp.json").read_text())["results"]
    from prodcodes.qdecoder import SubsystemProductInstance
    sub = SubsystemProductInstance.from_json(doc)
    F = sub.field
    rng = np.random.default_rng(0)
    QZp = sub.product.logical_z_space()
    QXp = sub.product.logical_x_space()
    cz = la.matmul(F, F.random(rng, QZp.shape[0])[None, :], QZp)[0]
    cx = la.matmul(F, F.random(rng, QXp.shape[0])[None, :], QXp)[0]
    wf = tmp_path / "word.json"
    wf.write_text(json.dumps({"c_x": [int(x) for x in cx],
                              "c_z": [int(x) for x in cz]}))
    out = tmp_path / "one.json"
    assert main(["decode-one", "--instance", str(inst), "--word", str(wf),
                 "--out", str(out)]) == 0
    # inconsistent syndrome: exit 3
    from prodcodes.subsystem import check_matrices
    cm = check_matrices(sub.product, "tensor")
    s_x = la.matvec(F, cm.hx, cx)
    s_z = la.matvec(F, cm.hz, cz)
    bad = None
    for i in range(s_x.size):
        cand = s_x.copy()
        cand[i] = F.add(cand[i], np.int64(1))
        if la.solve_right(F, cm.hx, cand) is None:
            bad = cand
            break
    assert bad is not None
    sf = tmp_path / "syn.json"
    sf.write_text(json.dumps({"s_x": [int(x) for x in bad],
                              "s_z": [int(x) for x in s_z]}))
    assert main(["decode-one", "--instance", str(inst), "--syndrome", str(sf),
                 "--out", str(tmp_path / "bad.json")]) == 3
    # consistent syndrome decodes fine
    sf2 = tmp_path / "syn2.json"
    sf2.write_text(json.dumps({"s_x": [int(x) for x in s_x],
                               "s_z": [int(x) for x in s_z]}))
    assert main(["decode-one", "--instance", str(inst), "--syndrome", str(sf2),
                 "--out", str(tmp_path / "good.json")]) == 0


def test_usage_errors(tmp_path):
    assert main(["decode-trials", "--instance", "/nonexistent.json",
                 "--noise-weight", "0", "--trials", "1", "--seed", "1"]) == 1
    assert main(["no-such-command"]) == 1
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2]", json.dumps({"kind": "rs"}),
                 json.dumps({"kind": "nonesuch"})):
        bad.write_text(text)
        assert main(["decode-trials", "--instance", str(bad), "--noise-weight", "0",
                     "--trials", "1", "--seed", "1"]) == 1
        assert main(["distance", "--instance", str(bad)]) == 1
    assert main(["build-code", "--kind", "rs", "--q", "6", "--n", "4", "--k", "2",
                 "--seed", "1"]) == 1
    assert main(["build-code", "--kind", "rs", "--q", "7", "--n", "9", "--k", "2",
                 "--seed", "1"]) == 1
    for params in ("2", "1,16", "2,15", "2,8"):
        assert main(["gate-verify", "--params", params]) == 1
    assert main(["pe-exact", "--codes", str(bad)]) == 1
    assert main(["build-code", "--kind", "triple-product", "--q", "64", "--m", "4",
                 "--seed", "1"]) == 1
    # k = m, u < 1, and a code too long for the MDS check within its budget
    for m, u, k in (("3", "2", "3"), ("4", "0", "2"), ("4", "-1", "2"), ("3", "3", "2")):
        assert main(["build-code", "--kind", "punctured-tensor-rs", "--q", "16", "--m", m,
                     "--u", u, "--k", k, "--seed", "1"]) == 1


@pytest.mark.parametrize("kind, argv", [
    ("dual-tensor", ["--q", "16", "--n", "16", "--k", "2", "--k2", "4"]),
    ("subsystem-product", ["--q", "8", "--n", "8", "--kx", "6", "--kz", "6", "--kx2", "4",
                           "--kz2", "5"]),
    ("css-product", ["--q", "8", "--n", "8", "--k", "6", "--k2", "4"]),
])
def test_build_code_checks_decoder_params_like_documents(tmp_path, kind, argv):
    """eps and rho must be positive fractions and gamma >= 1, as in an
    instance document: build-code writes no document that decode-trials
    would refuse."""
    for bad in (["--eps", "0"], ["--rho", "0"], ["--rho", "1/0"], ["--eps", "-1/2"],
                ["--gamma", "0"], ["--eps", "x"]):
        assert main(["build-code", "--kind", kind, *argv, *bad, "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 1


def test_noise_options_out_of_range(tmp_path):
    dt = tmp_path / "dt.json"
    assert main(["build-code", "--kind", "dual-tensor", "--q", "16", "--n", "16",
                 "--k", "2", "--k2", "4", "--seed", "5", "--out", str(dt)]) == 0
    for noise in (["--noise-weight", "257"], ["--noise-weight", "-1"],
                  ["--noise-rate", "1.5"], ["--noise-rate", "-0.1"]):
        assert main(["decode-trials", "--instance", str(dt), *noise,
                     "--trials", "1", "--seed", "1"]) == 1
    sp = tmp_path / "sp.json"
    assert main(["build-code", "--kind", "subsystem-product", "--q", "8", "--n", "8",
                 "--kx", "6", "--kz", "6", "--kx2", "4", "--kz2", "5",
                 "--eps", "1/8", "--seed", "1", "--out", str(sp)]) == 0
    for weight, noise in (("65", "1"), ("-1", "1"), ("1", "17")):
        assert main(["single-shot-trials", "--instance", str(sp),
                     "--syndrome-noise", noise, "--error-weight", weight,
                     "--distance", "4", "--trials", "1", "--seed", "3"]) == 1


@pytest.mark.parametrize("exc", [KeyError("internal"), ValueError("internal")])
def test_internal_errors_are_not_usage_errors(tmp_path, monkeypatch, exc):
    """Only input checks give exit 1; an internal error keeps its traceback."""
    inst = tmp_path / "dt.json"
    assert main(["build-code", "--kind", "dual-tensor", "--q", "16", "--n", "16",
                 "--k", "2", "--k2", "4", "--seed", "5", "--out", str(inst)]) == 0
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps([0] * 256))

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("prodcodes.cli.alpha_decode", broken)
    with pytest.raises(type(exc), match="internal"):
        main(["decode-one", "--instance", str(inst), "--word", str(wf),
              "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize("q, m", [(256, 408), (2048, 1200)])
def test_triple_product_params_outside_the_build_exit_1(tmp_path, q, m):
    """m > q (F^u has fewer than m^u points: the point draw never ended) and
    a logical window wider than 1 (the build refused it with a traceback)
    exit 1 from build-code and from gate-verify --instance.  Each command
    runs in a subprocess under a timeout, so a hang fails here."""
    src = str(pathlib.Path(prodcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    inst = tmp_path / "triple.json"
    F = GF(q)
    inst.write_text(json.dumps({"kind": "triple-product", "params": {"m": m, "u": 1},
                                "field": {"p": F.p, "e": F.e, "modulus": list(F.modulus)}}))
    for argv in (["build-code", "--kind", "triple-product", "--q", str(q), "--m", str(m),
                  "--u", "1", "--seed", "1"],
                 ["gate-verify", "--instance", str(inst), "--trials", "1"]):
        proc = subprocess.run([sys.executable, "-m", "prodcodes.cli", *argv,
                               "--out", str(tmp_path / "out.json")],
                              capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["build-code", "--kind", "rs", "--q", "1000000000000000003", "--n", "4", "--k", "2",
     "--seed", "0"],
    ["gate-verify", "--params", "2,1000000000000000003"]])
def test_huge_field_orders_exit_1_at_once(tmp_path, argv):
    """q = 10^18 + 3 is refused by the 2^20 bound before any factoring (trial
    division to 10^9 ran for minutes).  The command runs in a subprocess
    under a timeout, so a hang fails here; it exits in about 0.4 s."""
    src = str(pathlib.Path(prodcodes.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "prodcodes.cli", *argv,
                           "--out", str(tmp_path / "out.json")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=5)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "exceeds supported bound 2^20" in proc.stderr


@pytest.mark.parametrize("target, argv", [
    ("prodcodes.transversal.build_transrs_gate", ["gate-verify", "--params", "2,16"]),
    ("prodcodes.transversal.triple_product_build",
     ["build-code", "--kind", "triple-product", "--q", str(1 << 17), "--m", "408",
      "--seed", "11"]),
    ("prodcodes.cli.punctured_tensor_rs",
     ["build-code", "--kind", "punctured-tensor-rs", "--q", "16", "--m", "3",
      "--u", "2", "--k", "2", "--seed", "9"]),
])
def test_build_failures_are_not_usage_errors(tmp_path, monkeypatch, target, argv):
    """Gate and code builds run outside the input checks: a ValueError they
    raise on valid parameters is a bug and keeps its traceback."""
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(target, broken)
    with pytest.raises(ValueError, match="internal"):
        main(argv + ["--out", str(tmp_path / "r.json")])


def test_distance_rejects_malformed_fields(tmp_path, capsys):
    inst = tmp_path / "qrs.json"
    main(["build-code", "--kind", "qrs", "--q", "4", "--n", "3", "--kx", "2",
          "--kz", "2", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())["results"]
    capsys.readouterr()
    good = doc["pair"]["qx"]["field"]
    for field in ({**good, "p": "2"}, {**good, "modulus": None}, [2, 1]):
        pair = {axis: {**doc["pair"][axis], "field": field} for axis in ("qx", "qz")}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "pair": {**doc["pair"], **pair}}))
        assert main(["distance", "--instance", str(bad),
                     "--out", str(tmp_path / "d.json")]) == 1
        assert "error: field" in capsys.readouterr().err


def test_build_punctured_tensor_refuses_mds_check_past_budget(tmp_path, capsys, monkeypatch):
    """n = 27, k = 8 over GF(16): too many minors and codewords for an exact
    MDS check, so build-code exits 1 without sampling a distance."""
    monkeypatch.setattr(LinearCode, "min_distance",
                        lambda *a, **k: pytest.fail("build-code ran min_distance"))
    assert main(["build-code", "--kind", "punctured-tensor-rs", "--q", "16", "--m", "3",
                 "--u", "3", "--k", "2", "--seed", "1",
                 "--out", str(tmp_path / "pt.json")]) == 1
    assert capsys.readouterr().err == \
        "error: is_mds: neither minors nor enumeration feasible\n"


def test_build_punctured_tensor(tmp_path):
    out = tmp_path / "pt.json"
    assert main(["build-code", "--kind", "punctured-tensor-rs",
                 "--q", str(1 << 17), "--m", "3", "--u", "2", "--k", "2",
                 "--seed", "9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["is_mds"]


CSS_BUILD = ["build-code", "--kind", "css-product", "--q", "8", "--n", "8", "--k", "6",
             "--k2", "4", "--eps", "1/8", "--gamma", "20", "--seed", "1"]


def _css_trials(tmp_path, out_name="css-rep.json"):
    inst = tmp_path / "css.json"
    if not inst.exists():
        assert main(CSS_BUILD + ["--out", str(inst)]) == 0
    out = tmp_path / out_name
    rc = main(["decode-trials", "--instance", str(inst), "--noise-weight", "0",
               "--trials", "2", "--seed", "1", "--out", str(out)])
    return rc, out


def test_css_product_decode_trials(tmp_path):
    rc, out = _css_trials(tmp_path)
    assert rc == 0
    doc = json.loads(out.read_text())
    agg = doc["results"]["aggregate"]
    assert agg["in_promise_success"] == 2 and agg["in_promise_failure"] == 0
    assert all("reason" not in row for row in doc["results"]["trial_table"])


def test_css_trials_record_only_decode_failures(tmp_path, monkeypatch):
    from prodcodes import cli
    from prodcodes.decoder import PromiseViolation

    def violated(*args):
        raise PromiseViolation("stripe decode failed")

    monkeypatch.setattr(cli, "css_decode", violated)
    rc, out = _css_trials(tmp_path)
    assert rc == 2  # in-promise decoding failure
    rows = json.loads(out.read_text())["results"]["trial_table"]
    assert [r["reason"] for r in rows] == ["stripe decode failed"] * 2
    assert all(r["fallback"] and not r["success"] for r in rows)

    def broken(*args):
        raise TypeError("a bug, not a decode failure")

    monkeypatch.setattr(cli, "css_decode", broken)
    with pytest.raises(TypeError):
        _css_trials(tmp_path, "broken.json")
    assert not (tmp_path / "broken.json").exists()


def test_dual_tensor_trials_keep_fallback_reason(tmp_path):
    # gamma = 2 makes the promise radius 1, so 200 errors push the pipeline
    # out of its promise and into the fallback
    inst = tmp_path / "dt.json"
    assert main(["build-code", "--kind", "dual-tensor", "--q", "32", "--n", "32",
                 "--k", "4", "--k2", "8", "--eps", "1/2", "--rho", "1/8",
                 "--gamma", "2", "--seed", "1", "--out", str(inst)]) == 0
    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    assert main(["decode-trials", "--instance", str(inst), "--noise-weight", "200",
                 "--trials", "2", "--seed", "1", "--out", str(out),
                 "--csv", str(csvp)]) == 0
    rows = json.loads(out.read_text())["results"]["trial_table"]
    assert all(r["fallback"] and r["reason"] for r in rows)
    assert "reason" in csvp.read_text().splitlines()[0].split(",")


def test_trials_csv_header_covers_every_row(tmp_path):
    from prodcodes.cli import write_csv
    path = tmp_path / "rows.csv"
    write_csv([{"trial": 0, "path": "membership"},
               {"trial": 1, "path": "fallback", "reason": "no locator"}], str(path))
    assert path.read_text().splitlines() == ["trial,path,reason", "0,membership,",
                                             "1,fallback,no locator"]


def test_decode_one_rejects_malformed_words(tmp_path, capsys):
    inst = tmp_path / "dt.json"
    main(["build-code", "--kind", "dual-tensor", "--q", "16", "--n", "16",
          "--k", "2", "--k2", "4", "--seed", "5", "--out", str(inst)])
    good = [0] * 256
    wf = tmp_path / "w.json"
    for word in ([-1] + good[1:], [16] + good[1:], good[1:], good + [0],
                 [0.5] + good[1:], [True] + good[1:], ["1"] + good[1:],
                 [good[:16]] * 16, {"c_x": good}):
        wf.write_text(json.dumps(word))
        assert main(["decode-one", "--instance", str(inst), "--word", str(wf),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert "word must be a flat list of 256 integers in [0, 16)" in capsys.readouterr().err
    wf.write_text(json.dumps([15] + good[1:]))
    assert main(["decode-one", "--instance", str(inst), "--word", str(wf),
                 "--out", str(tmp_path / "r.json")]) in (0, 2)


def test_decode_one_rejects_bad_evaluation_points(tmp_path, capsys):
    inst = tmp_path / "dt.json"
    main(["build-code", "--kind", "dual-tensor", "--q", "64", "--n", "16",
          "--k", "2", "--k2", "4", "--seed", "5", "--out", str(inst)])
    doc = json.loads(inst.read_text())["results"]
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps([0] * 256))
    for axis, points in (("E1", [64] + doc["E1"][1:]), ("E2", [doc["E2"][1]] + doc["E2"][1:])):
        bad = tmp_path / f"bad_{axis}.json"
        bad.write_text(json.dumps({**doc, axis: points}))
        assert main(["decode-one", "--instance", str(bad), "--word", str(wf),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert f"{axis} must hold n distinct elements of GF(64)" in capsys.readouterr().err


def test_decode_one_rejects_malformed_quantum_payloads(tmp_path, capsys):
    inst = tmp_path / "sp.json"
    main(["build-code", "--kind", "subsystem-product", "--q", "16", "--n", "16",
          "--kx", "12", "--kz", "12", "--kx2", "8", "--kz2", "9",
          "--eps", "3/16", "--seed", "1", "--out", str(inst)])
    from prodcodes.qdecoder import SubsystemProductInstance
    from prodcodes.subsystem import check_matrices
    sub = SubsystemProductInstance.from_json(json.loads(inst.read_text())["results"])
    cm = check_matrices(sub.product, "tensor")
    zero = [0] * 256
    cases = [("--word", {"c_x": [-1] + zero[1:], "c_z": zero}, "c_x"),
             ("--word", {"c_x": zero, "c_z": [16] + zero[1:]}, "c_z"),
             ("--word", {"c_x": zero}, "c_z"),
             ("--word", [zero, zero], "c_x"),
             ("--syndrome", {"s_x": [0] * (cm.hx.shape[0] + 1),
                             "s_z": [0] * cm.hz.shape[0]}, "s_x"),
             ("--syndrome", {"s_x": [0] * cm.hx.shape[0],
                             "s_z": [-3] * cm.hz.shape[0]}, "s_z")]
    pf = tmp_path / "p.json"
    for flag, payload, bad in cases:
        pf.write_text(json.dumps(payload))
        assert main(["decode-one", "--instance", str(inst), flag, str(pf),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert f"error: {bad} must be a flat list of" in capsys.readouterr().err
    # the zero syndrome and the zero word are in range and decode
    pf.write_text(json.dumps({"s_x": [0] * cm.hx.shape[0], "s_z": [0] * cm.hz.shape[0]}))
    assert main(["decode-one", "--instance", str(inst), "--syndrome", str(pf),
                 "--out", str(tmp_path / "r.json")]) == 0


# the instances whose decode-trials reports are pinned below
TRIAL_BUILDS = {
    "subsystem-product": ["--q", "8", "--n", "8", "--kx", "6", "--kz", "6", "--kx2", "4",
                          "--kz2", "5", "--eps", "1/8", "--rho", "1/8", "--gamma", "20",
                          "--seed", "2"],
    "css-product": ["--q", "8", "--n", "8", "--k", "6", "--k2", "4", "--eps", "1/8",
                    "--gamma", "20", "--seed", "1"],
    "dual-tensor": ["--q", "32", "--n", "32", "--k", "4", "--k2", "8", "--eps", "1/2",
                    "--rho", "1/8", "--gamma", "2", "--seed", "1"],
}


@pytest.fixture(scope="module")
def trial_instances(tmp_path_factory):
    """Path of the built instance document of each kind in TRIAL_BUILDS."""
    out = tmp_path_factory.mktemp("trial-instances")
    paths = {}
    for kind, argv in TRIAL_BUILDS.items():
        paths[kind] = out / f"{kind}.json"
        assert main(["build-code", "--kind", kind, *argv, "--out", str(paths[kind])]) == 0
    return paths


@pytest.mark.parametrize("kind, argv, report_hash, csv_hash", [
    ("subsystem-product", ["--noise-weight", "0", "--trials", "6", "--seed", "5"],
     "a754603cdd74a6bb68fccff4aff4edeeb92cd0b3ee14ff5dd1175cc498e4ed9a",
     "e6060661eb925b56905dc849cb745e21c12d48612598304ee48726a76a406245"),
    ("subsystem-product", ["--noise-weight", "2", "--trials", "6", "--seed", "5"],
     "aaf76af0abd60cd373261ffd57f1b5f984f7235610c9cf7f93bc152197919524",
     "5ca2837ebda14bc7e95408fd8cca274406fa2a8ad6ee90a6d12503f8a36fd2b4"),
    ("css-product", ["--noise-weight", "0", "--trials", "4", "--seed", "5"],
     "8a55c158ae66f65237a4704289aedfb1a5906886e4c5d03fb50c48e467088d4a",
     "c835219d4d489b8e255e79f02d8482b27a74197fca0098443d54d5b42217a58f"),
    ("css-product", ["--noise-weight", "3", "--trials", "4", "--seed", "5"],
     "90b4649323532ca9c334e9fa17ee16d0ca5823b25fc4618baddf5d87b1d9e936",
     "fab46300f7c5d80733ac7efcbd7374b5eb4a6b5e6ba0230f23a7409f8c5dc2a7"),
    ("dual-tensor", ["--noise-rate", "0.01", "--trials", "4", "--seed", "7"],
     "5c139626c1467a23e17194e5894016272a736ab638dee5eac84547870f04aa96",
     "f6ae63513d606f01dfd717d141b8abe80253eed87010c36c4cfd42cd9e76f60a"),
    ("dual-tensor", ["--noise-weight", "200", "--trials", "2", "--seed", "1"],
     "6abd9aefe884a380c4a11ffd330466839fb6996606dd53485b8ef46ca2ca68cd",
     "0143b1ef3facb11bbc4de2143f28e3069a91cb395254f9cba5edc3da52bebf19"),
])
def test_decode_trials_reports_are_pinned(tmp_path, trial_instances, kind, argv,
                                          report_hash, csv_hash):
    """The report hash and the CSV bytes (column order included) of each
    instance kind, at and beyond its promise radius."""
    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    assert main(["decode-trials", "--instance", str(trial_instances[kind]), *argv,
                 "--out", str(out), "--csv", str(csvp)]) == 0
    assert json.loads(out.read_text())["fixture_hash"] == report_hash
    assert hashlib.sha256(csvp.read_bytes()).hexdigest() == csv_hash


# the documents that distance and gate-verify --instance read
BOUNDARY_BUILDS = {
    "qrs": ["--q", "4", "--n", "3", "--kx", "2", "--kz", "2", "--seed", "1"],
    "triple-product": ["--q", str(1 << 17), "--m", "408", "--u", "1", "--seed", "11"],
}
# the command line that reads each kind of document
MUTATION_COMMANDS = {"qrs": ["distance"], "triple-product": ["gate-verify", "--trials", "1"]}
TRIAL_COMMAND = ["decode-trials", "--noise-weight", "1", "--trials", "1", "--seed", "1"]


@pytest.fixture(scope="module")
def boundary_instances(tmp_path_factory):
    """Path of the built instance document of each kind in BOUNDARY_BUILDS."""
    out = tmp_path_factory.mktemp("boundary-instances")
    paths = {}
    for kind, argv in BOUNDARY_BUILDS.items():
        paths[kind] = out / f"{kind}.json"
        assert main(["build-code", "--kind", kind, *argv, "--out", str(paths[kind])]) == 0
    return paths


@settings(max_examples=250)
@given(data=st.data())
def test_decode_trials_survives_top_level_mutations(trial_instances, boundary_instances,
                                                    data):
    """One top-level field of a built instance document set to a value of the
    wrong type or range: decode-trials, distance and gate-verify --instance
    return a documented exit code, never an exception."""
    paths = {**trial_instances, **boundary_instances}
    kind = data.draw(st.sampled_from(sorted(paths)))
    doc = json.loads(paths[kind].read_text())["results"]
    # gate-verify reads only these keys; a mutation elsewhere would rebuild
    # the whole gate and check nothing new
    keys = ["field", "kind", "params"] if kind == "triple-product" else sorted(doc)
    key = data.draw(st.sampled_from(keys))
    value = data.draw(st.sampled_from([None, "x", True, -1, [], {}, 10 ** 6]))
    mutant = paths[kind].with_name("mutant.json")
    mutant.write_text(json.dumps({**doc, key: value}))
    command, *options = MUTATION_COMMANDS.get(kind, TRIAL_COMMAND)
    assert main([command, "--instance", str(mutant), *options,
                 "--out", str(mutant.with_name("mutant-report.json"))]) in (0, 1, 2, 3)


def test_distance_and_gate_verify_reject_malformed_top_level_fields(boundary_instances,
                                                                    capsys):
    """A qrs pair that is not an object, and triple-product params that are
    not {m: int, u: int} with u >= 1, exit 1 with an error line."""
    cases = [("qrs", "pair", [7, None, []]),
             ("triple-product", "params", [[], {"m": "x", "u": 1}, {"m": 408, "u": None},
                                           {"m": 408, "u": 0}, {"m": 408}])]
    for kind, key, values in cases:
        doc = json.loads(boundary_instances[kind].read_text())["results"]
        mutant = boundary_instances[kind].with_name("malformed.json")
        for value in values:
            mutant.write_text(json.dumps({**doc, key: value}))
            command, *options = MUTATION_COMMANDS[kind]
            assert main([command, "--instance", str(mutant), *options,
                         "--out", str(mutant.with_name("malformed-report.json"))]) == 1
            assert capsys.readouterr().err.startswith("error: ")


# the code and CSS-pair objects nested in the documents that distance,
# pe-exact and subsystem decode-trials read, as key paths from the root
NESTED_PATHS = {
    "rs": [("code",), ("code", "rs")],
    "qrs": [("pair",), ("pair", "qx"), ("pair", "qz", "rs")],
    "pe-exact": [(0,), (1, "rs")],
    "subsystem-product": [("factors", 0), ("factors", 1, "qx"), ("factors", 0, "qz", "rs")],
}


@pytest.fixture(scope="module")
def nested_documents(trial_instances, boundary_instances, tmp_path_factory):
    """kind -> (bare document, command line reading it from __DOC__)."""
    out = tmp_path_factory.mktemp("nested-documents")
    assert main(["build-code", "--kind", "rs", "--q", "4", "--n", "3", "--k", "2",
                 "--seed", "1", "--out", str(out / "rs.json")]) == 0
    rs = json.loads((out / "rs.json").read_text())["results"]

    def results(path):
        return json.loads(path.read_text())["results"]
    return {
        "rs": (rs, ["distance", "--instance", "__DOC__"]),
        "qrs": (results(boundary_instances["qrs"]), ["distance", "--instance", "__DOC__"]),
        "pe-exact": ([rs["code"], rs["code"]], ["pe-exact", "--codes", "__DOC__"]),
        "subsystem-product": (results(trial_instances["subsystem-product"]),
                              [*TRIAL_COMMAND[:1], "--instance", "__DOC__",
                               *TRIAL_COMMAND[1:]]),
    }


@settings(max_examples=200)
@given(data=st.data())
def test_commands_survive_nested_mutations(nested_documents, tmp_path_factory, data):
    """One field of a nested code or CSS-pair object (n, k, gen, rs, label,
    subsystem, field, qx, qz, ...) set to a value of the wrong type or range:
    distance, pe-exact and subsystem decode-trials return a documented exit
    code, never an exception."""
    kind = data.draw(st.sampled_from(sorted(NESTED_PATHS)))
    doc, argv = nested_documents[kind]
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in data.draw(st.sampled_from(NESTED_PATHS[kind])):
        target = target[key]
    key = data.draw(st.sampled_from(sorted(target)))
    target[key] = data.draw(st.sampled_from([None, "x", True, -1, [], {}, 10 ** 6]))
    mutant = tmp_path_factory.getbasetemp() / "nested-mutant.json"
    mutant.write_text(json.dumps(doc))
    argv = [str(mutant) if a == "__DOC__" else a for a in argv]
    assert main([*argv, "--out", str(mutant.with_name("nested-report.json"))]) in (0, 1, 2, 3)


def test_distance_rejects_malformed_code_documents(tmp_path, capsys):
    """Malformed n, k, gen, rs and label of a code document, and a
    non-bool subsystem flag of a pair, exit 1 with an error line."""
    assert main(["build-code", "--kind", "qrs", "--q", "4", "--n", "3", "--kx", "2",
                 "--kz", "2", "--seed", "1", "--out", str(tmp_path / "qrs.json")]) == 0
    pair = json.loads((tmp_path / "qrs.json").read_text())["results"]["pair"]
    code = pair["qx"]
    bad_codes = [{**code, "n": "x"}, {**code, "k": None}, {**code, "k": -1},
                 {**code, "rs": 5}, {**code, "rs": {**code["rs"], "k": "a"}},
                 {**code, "rs": {**code["rs"], "points": [0, 1, 4]}},
                 {**code, "gen": code["gen"][1:]}, {**code, "gen": [code["gen"]]},
                 {**code, "gen": [True] + code["gen"][1:]}, {**code, "label": 3}]
    docs = [{"kind": "rs", "code": c} for c in bad_codes]
    docs += [{"kind": "qrs", "pair": {**pair, "qz": c}} for c in bad_codes]
    docs += [{"kind": "qrs", "pair": {**pair, "subsystem": v}} for v in (0, "yes", None)]
    inst = tmp_path / "bad.json"
    for doc in docs:
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["distance", "--instance", str(inst),
                     "--out", str(tmp_path / "d.json")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_distance_rejects_a_generator_of_rank_below_k(tmp_path, capsys):
    """Two equal rows span a code of dimension 1, not the declared k = 2;
    the distance of that rank-1 code was reported with exit 0."""
    F = GF(5)
    code = {"field": F.to_json(), "n": 4, "k": 2, "gen": [1, 2, 3, 4] * 2}
    inst = tmp_path / "deficient.json"
    inst.write_text(json.dumps({"kind": "rs", "code": code}))
    capsys.readouterr()
    assert main(["distance", "--instance", str(inst), "--out", str(tmp_path / "d.json")]) == 1
    assert capsys.readouterr().err.startswith("error: code gen has rank 1, not k = 2")
    code["gen"] = [1, 2, 3, 4, 0, 1, 1, 1]
    inst.write_text(json.dumps({"kind": "rs", "code": code}))
    assert main(["distance", "--instance", str(inst), "--out", str(tmp_path / "d.json")]) == 0


@pytest.mark.parametrize("kind", ["subsystem-product", "css-product"])
def test_decode_trials_rejects_subsystem_factors(trial_instances, tmp_path, capsys, kind):
    """A product factor flagged as a subsystem pair is refused when the
    instance is read (exit 1), not when the product is first built."""
    doc = json.loads(trial_instances[kind].read_text())["results"]
    doc["factors"][0]["subsystem"] = True
    inst = tmp_path / "sub.json"
    inst.write_text(json.dumps(doc))
    assert main([TRIAL_COMMAND[0], "--instance", str(inst), *TRIAL_COMMAND[1:],
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "factors must be non-subsystem CSS pairs" in capsys.readouterr().err


def test_decode_trials_checks_css_rate_conditions(trial_instances, tmp_path, capsys):
    """A css-product document whose eps breaks the product decoder's rate
    conditions is refused when the instance is read (exit 1 with an error
    line), not at its first decode."""
    doc = json.loads(trial_instances["css-product"].read_text())["results"]
    doc["eps"] = [1, 2]
    inst = tmp_path / "rates.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([TRIAL_COMMAND[0], "--instance", str(inst), *TRIAL_COMMAND[1:],
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rate conditions" in err


def _refused_with_one_error_line(capsys, argv, message):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_product_instances_refused_at_read_time(trial_instances, tmp_path, capsys):
    """A css-product over a field of characteristic 3, and a subsystem
    product whose locator degree s reaches n, are refused by build-code and,
    as hand-edited documents, when decode-trials reads them; both used to
    build, then raise at the first decode."""
    F = GF(9)
    css = {**json.loads(trial_instances["css-product"].read_text())["results"],
           "factors": [quantum_rs(F, 9, 7, 7).to_json(), quantum_rs(F, 9, 5, 5).to_json()]}
    sub = {**json.loads(trial_instances["subsystem-product"].read_text())["results"],
           "rho": [1000, 1], "gamma": 1}
    cases = [(["--kind", "css-product", "--q", "9", "--n", "9", "--k", "7", "--k2", "5",
               "--eps", "1/8", "--gamma", "20"], css, "restricted to characteristic 2"),
             (["--kind", "subsystem-product", "--q", "8", "--n", "8", "--kx", "6", "--kz",
               "6", "--kx2", "4", "--kz2", "5", "--eps", "1/8", "--rho", "1000", "--gamma",
               "1"], sub, "locator degree s must stay below n")]
    inst, out = tmp_path / "edited.json", str(tmp_path / "r.json")
    for build, doc, message in cases:
        _refused_with_one_error_line(
            capsys, ["build-code", *build, "--seed", "1", "--out", out], message)
        inst.write_text(json.dumps(doc))
        _refused_with_one_error_line(
            capsys, [TRIAL_COMMAND[0], "--instance", str(inst), *TRIAL_COMMAND[1:],
                     "--out", out], message)


@pytest.mark.parametrize("kind", ["subsystem-product", "css-product"])
@pytest.mark.parametrize("factor, side", [(0, "qx"), (0, "qz"), (1, "qx"), (1, "qz")])
def test_product_factors_must_be_reed_solomon(trial_instances, tmp_path, capsys,
                                              kind, factor, side):
    """A product document whose factor code lost its rs object (a plain code
    with the same generator) is refused when each decoding command reads
    it, naming the code; it used to end in an AttributeError traceback, at
    read time or at the first decode of the X side."""
    doc = json.loads(trial_instances[kind].read_text())["results"]
    del doc["factors"][factor][side]["rs"]
    inst, word, out = tmp_path / "edited.json", tmp_path / "word.json", str(tmp_path / "r.json")
    inst.write_text(json.dumps(doc))
    word.write_text(json.dumps({"c_x": [0] * 64, "c_z": [0] * 64}))
    commands = [[TRIAL_COMMAND[0], "--instance", str(inst), *TRIAL_COMMAND[1:]],
                ["single-shot-trials", "--instance", str(inst), "--syndrome-noise", "0",
                 "--distance", "3", "--trials", "1", "--seed", "1"]]
    if kind == "subsystem-product":  # decode-one takes no css products
        commands.append(["decode-one", "--instance", str(inst), "--word", str(word)])
    for argv in commands:
        _refused_with_one_error_line(capsys, [*argv, "--out", out],
                                     f"factors[{factor}].{side} is not a Reed-Solomon code")


@settings(max_examples=40)
@given(data=st.data())
def test_built_products_decode_without_raising(tmp_path_factory, data):
    """Whatever product document build-code accepts, decode-trials at noise 0
    reads and decodes: exit 0 or 2, never an exception.  The factors are
    full-length quantum RS pairs (n = q); with c = ceil(eps n), the first
    has dimensions n - c and n - c, the second kx2 and n - kx2 for a kx2 in
    [2c, n - 2c] (n - 2c and n - 2c in a css product), which meet the rate
    conditions whenever c <= n / 4."""
    n = q = data.draw(st.sampled_from([4, 8, 9, 16]))
    kind = data.draw(st.sampled_from(["subsystem-product", "css-product"]))
    eps = data.draw(st.sampled_from(["1/8", "1/4", "1/2"]))
    c = math.ceil(Fraction(eps) * n)
    if kind == "css-product":
        dims = ["--k", n - c, "--k2", n - 2 * c]
    else:
        kx2 = data.draw(st.integers(2 * c, n - 2 * c)) if 4 * c <= n else n // 2
        dims = ["--kx", n - c, "--kz", n - c, "--kx2", kx2, "--kz2", n - kx2]
    argv = ["build-code", "--kind", kind, "--q", str(q), "--n", str(n),
            *map(str, dims), "--eps", eps,
            "--rho", data.draw(st.sampled_from(["1/8", "1/2", "1", "1000"])),
            "--gamma", str(data.draw(st.sampled_from([1, 2, 20, 1000]))), "--seed", "1"]
    inst = tmp_path_factory.getbasetemp() / "built-product.json"
    if main([*argv, "--out", str(inst)]) == 0:
        assert main(["decode-trials", "--instance", str(inst), "--noise-weight", "0",
                     "--trials", "1", "--seed", "1",
                     "--out", str(inst.with_name("built-report.json"))]) in (0, 2)


# each command with the options it needs to run, and its numeric options;
# an argument that names a built document (an instance kind, or "pe-exact"
# for a list of two rs codes) stands for its path
NUMERIC_COMMANDS = {
    "build-rs": (["build-code", "--kind", "rs", "--q", "4"], ["--n", "--k", "--seed"]),
    "build-qrs": (["build-code", "--kind", "qrs", "--q", "4"],
                  ["--n", "--kx", "--kz", "--seed"]),
    "build-subsystem-product": (["build-code", "--kind", "subsystem-product", "--q", "4"],
                                ["--n", "--kx", "--kz", "--kx2", "--kz2", "--gamma",
                                 "--seed"]),
    "build-css-product": (["build-code", "--kind", "css-product", "--q", "4"],
                          ["--n", "--k", "--k2", "--gamma", "--seed"]),
    "build-dual-tensor": (["build-code", "--kind", "dual-tensor", "--q", "4"],
                          ["--n", "--k", "--k2", "--gamma", "--seed"]),
    "build-punctured": (["build-code", "--kind", "punctured-tensor-rs", "--q", "16"],
                        ["--m", "--u", "--k", "--seed"]),
    "build-triple-product": (["build-code", "--kind", "triple-product", "--q", "16"],
                             ["--m", "--u", "--seed"]),
    "decode-trials": (["decode-trials", "--instance", "dual-tensor"],
                      ["--noise-weight", "--trials", "--seed"]),
    "single-shot-trials": (["single-shot-trials", "--instance", "subsystem-product"],
                           ["--syndrome-noise", "--error-weight", "--distance", "--trials",
                            "--seed"]),
    "gate-verify": (["gate-verify", "--params", "2,16"], ["--trials", "--seed"]),
    "distance": (["distance", "--instance", "qrs"], ["--budget"]),
    "pe-exact": (["pe-exact", "--codes", "pe-exact"], ["--budget"]),
}


@settings(max_examples=220)
@given(data=st.data())
def test_numeric_options_exit_with_documented_codes(trial_instances, boundary_instances,
                                                    nested_documents, tmp_path_factory,
                                                    data):
    """Every numeric option of every command drawn negative, 0 or small: the
    command returns 0, 1 or 2 with no traceback, and exits 1 with an error
    line whenever a value is negative."""
    out = tmp_path_factory.getbasetemp() / "numeric"
    out.mkdir(exist_ok=True)
    codes = out / "codes.json"
    codes.write_text(json.dumps(nested_documents["pe-exact"][0]))
    docs = {**trial_instances, **boundary_instances, "pe-exact": codes}
    argv, options = NUMERIC_COMMANDS[data.draw(st.sampled_from(sorted(NUMERIC_COMMANDS)))]
    argv = [str(docs.get(a, a)) for a in argv]
    values = {opt: data.draw(st.integers(max_value=-1) | st.integers(0, 3), label=opt)
              for opt in options}
    for opt, value in values.items():
        argv += [opt, str(value)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out / "report.json")])
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    if min(values.values()) < 0:
        assert rc == 1 and "error: " in err.getvalue()


def test_pe_exact_rejects_an_empty_code_list(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["pe-exact", "--codes", str(empty)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_pe_exact_rejects_codes_over_different_fields(tmp_path, capsys):
    """RS over GF(4) next to RS over GF(5) is a usage error, not an
    IndexError traceback from mixing their element codes."""
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps([rs_code(GF(4), 4, 2).to_json(), rs_code(GF(5), 4, 2).to_json()]))
    assert main(["pe-exact", "--codes", str(mixed)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError, match="one field"):
        pe_exact([LinearCode.from_json(d) for d in json.loads(mixed.read_text())])


SINGLE_SHOT = ["single-shot-trials", "--syndrome-noise", "1", "--error-weight", "1",
               "--distance", "4", "--trials", "1", "--seed", "3"]


def test_single_shot_reads_only_product_kinds(trial_instances, tmp_path, capsys):
    """single-shot-trials refuses a document of an unknown kind or with no
    kind, as decode-trials does, and still runs a css-product instance."""
    doc = json.loads(trial_instances["subsystem-product"].read_text())["results"]
    inst = tmp_path / "kind.json"
    for mutant in ({**doc, "kind": "bogus"}, {k: v for k, v in doc.items() if k != "kind"}):
        inst.write_text(json.dumps(mutant))
        capsys.readouterr()
        assert main([SINGLE_SHOT[0], "--instance", str(inst), *SINGLE_SHOT[1:],
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot decode instances of kind")
    assert main([SINGLE_SHOT[0], "--instance", str(trial_instances["css-product"]),
                 *SINGLE_SHOT[1:], "--out", str(tmp_path / "r.json")]) in (0, 2)


def test_budget_refusals_exit_1_with_one_error_line(boundary_instances, tmp_path, capsys):
    """distance past its budget on an rs and a qrs document, and pe-exact
    past its budget, exit 1 with one error line and write no report.  The
    distance was a sampled upper bound with exit 0, and pe-exact wrote a
    "refused" report."""
    rs, codes = tmp_path / "rs.json", tmp_path / "codes.json"
    rs.write_text(json.dumps({"kind": "rs", "code": rs_code(GF(4), 4, 2).to_json()}))
    codes.write_text(json.dumps([rs_code(GF(4), 4, 1).to_json()] * 2))
    out = tmp_path / "report.json"
    for argv, message in [
            (["distance", "--instance", str(rs), "--budget", "15"],
             "min_distance needs 16 codewords > budget 15"),
            (["distance", "--instance", str(boundary_instances["qrs"]), "--budget", "15"],
             "subsystem_distance needs 16 logical words > budget 15"),
            (["pe-exact", "--codes", str(codes), "--budget", "10"], "> budget 10")]:
        _refused_with_one_error_line(capsys, [*argv, "--out", str(out)], message)
        assert not out.exists()


def test_single_shot_search_past_its_budget_exits_1(trial_instances, tmp_path, capsys,
                                                    monkeypatch):
    """A bounded syndrome search that needs more supports than its budget
    ends single-shot-trials with exit 1 and one error line, not with the
    BudgetExceeded traceback it ended in (at the default budget, after
    minutes, at error weight 8 and distance 12)."""
    monkeypatch.setattr(qdecoder, "SYNDROME_SEARCH_BUDGET", 1000)
    out = tmp_path / "ss.json"
    _refused_with_one_error_line(
        capsys, ["single-shot-trials", "--instance", str(trial_instances["subsystem-product"]),
                 "--syndrome-noise", "0", "--error-weight", "4", "--distance", "9",
                 "--trials", "1", "--seed", "1", "--out", str(out)],
        "bounded syndrome search exceeded budget")
    assert not out.exists()


def test_code_documents_need_a_positive_length(tmp_path, capsys):
    """A code of length 0 is refused by name in pe-exact and distance, not
    by numpy's reshape."""
    code = {"field": GF(4).to_json(), "n": 0, "k": 0, "gen": []}
    codes, inst = tmp_path / "codes.json", tmp_path / "inst.json"
    codes.write_text(json.dumps([code, code]))
    inst.write_text(json.dumps({"kind": "rs", "code": code}))
    for argv in (["pe-exact", "--codes", str(codes)], ["distance", "--instance", str(inst)]):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("error: code n must be a positive integer")


# a JSON value of every type, to retype a field to any type but its own
JSON_VALUES = [None, True, 3, 1.5, "x", [], {}]
DROP = object()


def _malformations(doc, elements=(), sized=(), optional=("label", "rs")):
    """(path, value) pairs, each of which makes a valid document invalid when
    the value is set at the path (DROP deletes it): every required key
    dropped, every field and list entry retyped, every integer pushed to -1,
    every entry of an element list (its key in elements, None for the root)
    pushed to 10**6, and every fixed-size list (its key in sized) cut or
    grown by one entry."""
    out = []

    def walk(node, path, key):
        if isinstance(node, dict):
            for k, v in node.items():
                if k not in optional:
                    out.append((path + (k,), DROP))
                out.extend((path + (k,), w) for w in JSON_VALUES if type(w) is not type(v))
                walk(v, path + (k,), k)
        elif isinstance(node, list):
            if key in sized:
                out.extend([(path, node[:-1]), (path, node + node[-1:])])
            for i, v in enumerate(node):
                out.extend((path + (i,), w) for w in JSON_VALUES if type(w) is not type(v))
                if key in elements:
                    out.append((path + (i,), 10 ** 6))
                walk(v, path + (i,), None)
        elif type(node) is int:
            out.append((path, -1))

    walk(doc, (), None)
    return out


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def _exits_with_an_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 1 and err.getvalue().startswith("error: ")


CODE_ELEMENTS, CODE_SIZED = ("gen", "points"), ("gen", "points", "modulus")


@pytest.fixture(scope="module")
def pe_exact_codes(nested_documents):
    doc = nested_documents["pe-exact"][0]
    # the list itself may hold one code or three, so only its entries vary
    return doc, _malformations(doc, CODE_ELEMENTS, CODE_SIZED)


@settings(max_examples=150)
@given(data=st.data())
def test_pe_exact_rejects_malformed_code_lists(pe_exact_codes, tmp_path_factory, data):
    """One field of a pe-exact code list dropped, retyped or pushed out of
    range (the list, a code, its field, n, k, gen or rs): exit 1 with an
    error line."""
    doc, mutations = pe_exact_codes
    mutant = tmp_path_factory.getbasetemp() / "pe-mutant.json"
    mutant.write_text(json.dumps(_mutated(doc, *data.draw(st.sampled_from(mutations)))))
    _exits_with_an_error_line(["pe-exact", "--codes", str(mutant),
                               "--out", str(mutant.with_name("pe-report.json"))])


@pytest.fixture(scope="module")
def decode_one_documents(trial_instances, tmp_path_factory):
    """(instance path, payload flag, valid payload, its mutations) for a
    dual-tensor word, a subsystem word pair and a subsystem syndrome pair,
    and the mutations of the instance kind."""
    from prodcodes.qdecoder import SubsystemProductInstance
    from prodcodes.subsystem import check_matrices
    dt, sp = trial_instances["dual-tensor"], trial_instances["subsystem-product"]
    sub = SubsystemProductInstance.from_json(json.loads(sp.read_text())["results"])
    cm = check_matrices(sub.product, "tensor")
    cells = json.loads(dt.read_text())["results"]["n"] ** 2
    payloads = [(dt, "--word", [0] * cells),
                (sp, "--word", {"c_x": [0] * sub.n ** 2, "c_z": [0] * sub.n ** 2}),
                (sp, "--syndrome", {"s_x": [0] * cm.hx.shape[0], "s_z": [0] * cm.hz.shape[0]})]
    keys = ("c_x", "c_z", "s_x", "s_z")
    cases = [(path, flag, payload, _malformations(payload, (None, *keys), (None, *keys)))
             for path, flag, payload in payloads]
    # decode-one reads neither css-product nor unknown kinds
    kinds = [DROP, None, 3, "bogus", "css-product"]
    return cases, kinds, tmp_path_factory.mktemp("decode-one-fuzz")


@settings(max_examples=150)
@given(data=st.data())
def test_decode_one_rejects_malformed_documents(decode_one_documents, data):
    """A decode-one word or syndrome document with a key dropped, a value
    retyped, an entry out of [0, q) or the wrong length, or an instance of
    a kind decode-one does not read: exit 1 with an error line."""
    cases, kinds, out = decode_one_documents
    inst, flag, payload, mutations = data.draw(st.sampled_from(cases))
    if data.draw(st.booleans(), label="mutate the instance kind"):
        doc = json.loads(inst.read_text())["results"]
        inst = out / "instance.json"
        inst.write_text(json.dumps(_mutated(doc, ("kind",), data.draw(st.sampled_from(kinds)))))
    else:
        payload = _mutated(payload, *data.draw(st.sampled_from(mutations)))
    pf = out / "payload.json"
    pf.write_text(json.dumps(payload))
    _exits_with_an_error_line(["decode-one", "--instance", str(inst), flag, str(pf),
                               "--out", str(out / "report.json")])


@pytest.fixture(scope="module")
def single_shot_instance(trial_instances):
    doc = json.loads(trial_instances["subsystem-product"].read_text())["results"]
    mutations = _malformations(doc, CODE_ELEMENTS, (*CODE_SIZED, "eps", "rho", "factors"))
    mutations += [(("eps", 0), 0), (("rho", 1), 0), (("gamma",), 0),
                  (("factors", 0, "subsystem"), True)]
    kinds = [(("kind",), kind) for kind in (DROP, None, "bogus", "rs", "qrs", "dual-tensor")]
    return doc, mutations, kinds


@settings(max_examples=150)
@given(data=st.data())
def test_single_shot_rejects_malformed_instances(single_shot_instance, tmp_path_factory,
                                                 data):
    """A single-shot-trials instance with a key dropped, a value retyped or
    out of range (top level, factor pairs and their codes), or a kind it does
    not read: exit 1 with an error line."""
    doc, mutations, kinds = single_shot_instance
    mutation = data.draw(st.sampled_from(kinds) | st.sampled_from(mutations))
    mutant = tmp_path_factory.getbasetemp() / "ss-mutant.json"
    mutant.write_text(json.dumps(_mutated(doc, *mutation)))
    _exits_with_an_error_line([SINGLE_SHOT[0], "--instance", str(mutant), *SINGLE_SHOT[1:],
                               "--out", str(mutant.with_name("ss-report.json"))])
