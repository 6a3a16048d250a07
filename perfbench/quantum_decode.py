"""quantum-decode: many small decodes through the quantum decoders.

The same ``linalg``/``gf``/``decoder`` layers as dt-decode serve tiny
matrices here, so per-call overhead dominates: a fast path that pays a fixed
cost per call shows here as a loss while dt-decode shows a gain.  This is
also the only workload that runs ``qdecoder`` and ``subsystem``.

A pass runs
- subsystem-product trials at n = q = 16 (qRS(16,12,12) x qRS(16,8,9),
  eps = 3/16, gamma = 20, promise radius 0): word path and syndrome path on
  the same state;
- ``single_shot_decode`` at n = 8 over amplified checks, error weight 1 and
  syndrome noise 1;
- ``css_decode`` on qRS(8,6,6) x qRS(8,4,4);
- the ``dual-tensor-n32-trials`` and ``single-shot-n8`` pinned fixtures and
  ``decode-trials`` on a css-product instance, all through ``cli.main``.
  The last one is a known crash of the CLI; it counts as a failed operation
  until the CLI is fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .harness import Context, Failed, expect
from .pinned import PinnedFixtures, cli_ok

NAME = "quantum-decode"
# subsystem and single-shot trials per pass; a p90 needs 100 samples
TRIALS = 10
CSS_TRIALS = 4
MIN_PASSES = 10
# the latency samples behind op1_s, op2_s and op3_s
HEADLINE = ("subsystem_decode_s", "single_shot_s", "css_decode_s")
# the harness.SpeedProbe loops that every time is scaled by: all small numpy
# calls
SPEED_LOOPS = ("memory",)
SAMPLE_LOOPS: dict[str, tuple[str, ...]] = {}
# every operation is short, so the loops are timed only around each one
PROBE_EVERY_S = None
FIXTURES = ["dual-tensor-n32-trials", "single-shot-n8"]
CSS_BUILD = ("build-code --kind css-product --q 8 --n 8 --k 6 --k2 4 "
             "--eps 1/8 --gamma 20 --seed 1").split()
CSS_TRIALS_CMD = "decode-trials --noise-weight 0 --trials 2 --seed 1".split()
SS_DISTANCE = 4


@dataclass
class State:
    sub: object
    tensor_checks: object
    qz_space: np.ndarray
    qx_space: np.ndarray
    ss: object
    amp_checks: object
    gauge: np.ndarray
    css: object
    fixtures: PinnedFixtures
    css_instance_path: str


def setup(ctx: Context) -> State:
    from prodcodes.gf import GF
    from prodcodes.qdecoder import (CssProductInstance, QdecParams,
                                    SubsystemProductInstance)
    from prodcodes.subsystem import check_matrices, quantum_rs
    F16, F8 = GF(16), GF(8)
    sub = SubsystemProductInstance(
        [quantum_rs(F16, 16, 12, 12), quantum_rs(F16, 16, 8, 9)],
        QdecParams(Fraction(3, 16), Fraction(1, 8), gamma=20))
    prod = sub.product
    for dt in (sub.z_dt, sub.x_dt):
        for code in (dt.C1, dt.C2, dt.C1p, dt.C2p):
            code.parity_check()
    ss = SubsystemProductInstance(
        [quantum_rs(F8, 8, 6, 6), quantum_rs(F8, 8, 4, 5)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))
    css = CssProductInstance(
        [quantum_rs(F8, 8, 6, 6), quantum_rs(F8, 8, 4, 4)],
        QdecParams(Fraction(1, 8), Fraction(1, 8), gamma=20))
    css.code.qx.dual(), css.code.qz.dual()
    css_path = os.path.join(ctx.workdir, "css-product-instance.json")
    cli_ok(CSS_BUILD + ["--out", css_path])
    return State(sub, check_matrices(prod, "tensor"), prod.logical_z_space(),
                 prod.logical_x_space(), ss, check_matrices(ss.product, "amplified"),
                 ss.product.qx.dual().gen, css, PinnedFixtures(ctx.workdir, FIXTURES),
                 css_path)


def _subsystem_trial(st: State, ctx: Context, rng) -> None:
    from prodcodes import linalg as la
    from prodcodes.qdecoder import subsystem_decode, syndrome_decode
    from prodcodes.subsystem import logical_coset_equal
    F, prod, cm = st.sub.field, st.sub.product, st.tensor_checks
    cz = la.matmul(F, F.random(rng, st.qz_space.shape[0])[None, :], st.qz_space)[0]
    cx = la.matmul(F, F.random(rng, st.qx_space.shape[0])[None, :], st.qx_space)[0]
    s_x, s_z = la.matvec(F, cm.hx, cx), la.matvec(F, cm.hz, cz)

    def decode():
        return (subsystem_decode(st.sub, cx, cz),
                syndrome_decode(st.sub, cm, s_x, s_z))

    def check(out):
        res, sres = out
        if res.fallback or sres.fallback:
            raise Failed("fallback at promise radius 0")
        expect(logical_coset_equal(prod, "z", res.coset_z.representative, cz)
               and logical_coset_equal(prod, "x", res.coset_x.representative, cx),
               "word path left the logical coset")
        expect(logical_coset_equal(prod, "z", F.sub(cz, sres.coset_z.representative),
                                   res.coset_z.representative)
               and logical_coset_equal(prod, "x", F.sub(cx, sres.coset_x.representative),
                                       res.coset_x.representative),
               "syndrome path disagrees with the word path")

    ctx.tally.run("subsystem_trial", decode, check, sample="subsystem_decode_s")


def _single_shot_trial(st: State, ctx: Context, rng) -> None:
    from prodcodes import linalg as la
    from prodcodes.cli import _stripe_safe_noise
    from prodcodes.qdecoder import single_shot_decode
    F, n = st.ss.field, st.ss.product.n
    e = np.zeros(n, dtype=np.int64)
    e[int(rng.integers(n))] = int(F.random(rng, None, nonzero=True))
    g = la.matmul(F, F.random(rng, st.gauge.shape[0])[None, :], st.gauge)[0]
    v = _stripe_safe_noise(F, st.ss, 1, rng)
    s = F.add(la.matvec(F, st.amp_checks.hz, F.add(e, g)), v)

    def check(res):
        if res.correction is None:
            raise Failed(f"no correction: {res.notes.get('reason')}")
        diff = F.sub(res.correction.representative, e)
        expect(not diff.any() or la.in_row_space(F, st.gauge, diff),
               "correction in the wrong logical class")

    ctx.tally.run("single_shot", lambda: single_shot_decode(st.ss, st.amp_checks, s, SS_DISTANCE),
                  check, sample="single_shot_s")


def _css_trial(st: State, ctx: Context, rng) -> None:
    from prodcodes.qdecoder import css_decode
    from prodcodes.subsystem import logical_coset_equal
    F, code = st.css.field, st.css.code
    cz = code.qz.codeword(F.random(rng, code.qz.k))
    cx = code.qx.codeword(F.random(rng, code.qx.k))

    def check(res):
        expect(logical_coset_equal(code, "z", res.coset_z.representative, cz)
               and logical_coset_equal(code, "x", res.coset_x.representative, cx),
               "css decode left the logical coset")

    ctx.tally.run("css_decode", lambda: css_decode(st.css, cx, cz), check,
                  sample="css_decode_s")


def run_pass(st: State, ctx: Context, k: int) -> None:
    # small trials are spread over the pass, so each latency sample set sees
    # the whole run rather than one burst of it
    rng = ctx.rng(k)
    for fixture in FIXTURES:
        for _ in range(TRIALS // 2):
            _subsystem_trial(st, ctx, rng)
            _single_shot_trial(st, ctx, rng)
        for _ in range(CSS_TRIALS // 2):
            _css_trial(st, ctx, rng)
        out = ctx.tally.run(f"fixture.{fixture}", lambda: st.fixtures.run(fixture))
        if out is not None:
            ctx.counts["cli.report_bytes"] += out[1]
    out_path = os.path.join(ctx.workdir, "css-trials-report.json")
    ctx.tally.run("cli.css_decode_trials", lambda: cli_ok(
        CSS_TRIALS_CMD + ["--instance", st.css_instance_path, "--out", out_path]))
