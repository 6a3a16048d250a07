"""Reproducible experiment harness.

Subcommands build instances, run Monte-Carlo decoding trials, compute exact
product-expansions, verify gates, and measure distances.  Every report embeds
the resolved configuration and a fixture hash over the canonical JSON bytes;
wall-clock timings are only attached on request and never hashed, keeping
identical configurations byte-identical.

Exit codes: 0 success, 1 usage error (bad arguments or input files, found
while reading and constructing the input) or a computation refused past its
budget (distance, pe-exact, the MDS check, the single-shot search), each
with one error line and no report, 2 in-promise decoding failure, 3
inconsistent input.  Any other exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .gf import GF, Field
from . import linalg as la
from .codes import (DEFAULT_DISTANCE_BUDGET, PAIR_CAP, BudgetExceeded, LinearCode,
                    error_vector, punctured_tensor_rs, rs_code)
from .decoder import (DualTensorInstance, PromiseViolation, alpha_decode, params_from_json,
                      random_codeword, random_error)
from .expansion import DEFAULT_PE_BUDGET, common_field, pe_exact
from .qdecoder import (CssProductInstance, InconsistentInput, QdecParams,
                       SubsystemProductInstance, coset_min_weight, css_decode,
                       single_shot_decode, subsystem_decode, syndrome_decode)
from .rng import stream
from .subsystem import (CssPair, amplified_z_stripes, check_matrices, logical_coset_equal,
                        quantum_rs, subsystem_distance)
from . import transversal as tv

EXIT_OK, EXIT_USAGE, EXIT_PROMISE, EXIT_INCONSISTENT = 0, 1, 2, 3


class UsageError(ValueError):
    """Bad input found at the JSON/CLI boundary; main exits 1 on it."""


@contextlib.contextmanager
def _boundary():
    """Parse and validate command-line or JSON input: the ValueError or
    KeyError raised on malformed input is a UsageError.  Only the parsing,
    parameter checks and instance constructors run inside it; gate and
    punctured-code builds, and everything after, run outside."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"missing key {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_json(path: str):
    """The parsed JSON of an input file; a missing or malformed file is a
    UsageError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def finalize_report(config: dict, results: dict, timings: dict | None = None) -> dict:
    body = {"artifact_version": __version__, "config": config, "results": results}
    body["fixture_hash"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    if timings is not None:
        body["timing"] = timings  # informational only, never hashed
    return body


def write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        # rows differ in their keys (decode path, fallback reason): the header
        # is every key in order of first appearance, missing cells left empty
        writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(k for r in rows for k in r)))
        writer.writeheader()
        writer.writerows(rows)


def _fraction(text: str) -> list[int]:
    """[numerator, denominator] in lowest terms of "a/b" or a decimal."""
    if "/" in text:
        num, den = (int(x) for x in text.split("/"))
        if den == 0:
            raise ValueError(f"{text} has a zero denominator")
        f = Fraction(num, den)
    else:
        f = Fraction(text)
    return [f.numerator, f.denominator]


def _non_negative_int(text: str) -> int:
    """argparse type of every --seed, --trials, --distance and --budget."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def _decoder_params(args) -> tuple[Fraction, Fraction, int]:
    """build-code's eps, rho and gamma, under the checks of an instance document."""
    return params_from_json({"eps": _fraction(args.eps), "rho": _fraction(args.rho),
                             "gamma": args.gamma})


# ---------------------------------------------------------------------------
# build-code
# ---------------------------------------------------------------------------


def _check_triple_params(m: int, u: int, q: int) -> None:
    """UsageError unless tv.triple_product_build accepts (m, u) over GF(q):
    m^u distinct points of F^u need m <= q, and the factored synthesis
    covers a logical window of size exactly 1.  BudgetExceeded past PAIR_CAP
    (monomial, point) pairs in the build's [0, 2 k0]^u box evaluation."""
    with _boundary():
        p = tv.triple_product_params(m, u)
    if m > q:
        raise UsageError(f"m={m} exceeds q={q}: F^u has fewer than m^u points")
    if p.window_size != 1:
        raise UsageError(f"logical window [{p.ell_lo}, {p.ell_hi}) at m={m} has size "
                         f"{p.window_size}, not 1")
    # a base >= 2 to a power past the cap's bit length is past the cap
    if ((2 * p.k0 + 1) * m) ** min(u, PAIR_CAP.bit_length()) > PAIR_CAP:
        raise BudgetExceeded(f"the [0, {2 * p.k0}]^{u} box on {m}^{u} points holds more "
                             f"than PAIR_CAP = {PAIR_CAP} (monomial, point) pairs")


def _build_document(args) -> dict:
    """The instance document that build-code writes."""
    with _boundary():
        F = GF(args.q)
        if args.kind not in ("punctured-tensor-rs", "triple-product"):
            return _instance_document(F, args)
    if args.kind == "punctured-tensor-rs":
        if not 1 <= args.k < args.m <= F.q or args.u < 1:
            raise UsageError("need 1 <= k < m <= q and u >= 1")
        ec = punctured_tensor_rs(F, args.m, args.u, args.k, seed=args.seed)
        return {"kind": "punctured-tensor-rs", "code": ec.base.to_json(),
                "points": [int(x) for x in ec.points.ravel()], "u": args.u,
                "m": args.m, "box_k": args.k, "is_mds": bool(ec.base.is_mds())}
    _check_triple_params(args.m, args.u, F.q)
    doc = tv.triple_product_build(F, args.m, args.u, args.seed).to_json()
    doc["kind"] = "triple-product"
    return doc


def _instance_document(F: Field, args) -> dict:
    """The document of an instance whose constructor validates its
    parameters."""
    if args.kind == "rs":
        code = rs_code(F, args.n, args.k)
        doc = {"kind": "rs", "code": code.to_json()}
    elif args.kind == "qrs":
        pair = quantum_rs(F, args.n, args.kx, args.kz)
        doc = {"kind": "qrs", "pair": pair.to_json()}
    elif args.kind == "subsystem-product":
        f1 = quantum_rs(F, args.n, args.kx, args.kz)
        f2 = quantum_rs(F, args.n, args.kx2, args.kz2)
        inst = SubsystemProductInstance([f1, f2], QdecParams(*_decoder_params(args)))
        doc = inst.to_json()
    elif args.kind == "css-product":
        f1 = quantum_rs(F, args.n, args.k, args.k)
        f2 = quantum_rs(F, args.n, args.k2, args.k2)
        inst = CssProductInstance([f1, f2], QdecParams(*_decoder_params(args)))
        doc = inst.to_json()
    elif args.kind == "dual-tensor":
        inst = DualTensorInstance.build(F, args.n, args.k, args.k2, *_decoder_params(args))
        doc = inst.to_json()
        doc["kind"] = "dual-tensor"
    else:
        raise ValueError(f"unknown kind {args.kind}")
    return doc


def cmd_build_code(args) -> int:
    doc = _build_document(args)
    report = finalize_report({"command": "build-code", "kind": args.kind,
                              "q": args.q, "seed": args.seed}, doc)
    write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode-trials
# ---------------------------------------------------------------------------


def _check_noise(n_cells: int, args) -> None:
    """UsageError unless the noise options fit n_cells cells."""
    if args.noise_weight is not None and not 0 <= args.noise_weight <= n_cells:
        raise UsageError(f"--noise-weight must lie in [0, {n_cells}]")
    if args.noise_rate is not None and not 0 <= args.noise_rate <= 1:
        raise UsageError("--noise-rate must lie in [0, 1]")


def _noise_weight(n_cells: int, args, rng: np.random.Generator) -> int:
    if args.noise_weight is not None:
        return args.noise_weight
    return int(rng.binomial(n_cells, args.noise_rate))


def _run_trials(args, trial: Callable) -> tuple[list[dict], list[float]]:
    """Run args.trials trials.  Trial i maps its own stream (seed, i) and a
    timer to its row: timed(decode, *a) returns decode(*a) and records its
    seconds.  Returns the rows, numbered from 0, and the decode times."""
    seconds: list[float] = []

    def timed(decode, *a):
        t0 = time.time()
        try:
            return decode(*a)
        finally:
            seconds.append(time.time() - t0)

    rows = [{"trial": i, **trial(stream(args.seed, i), timed)} for i in range(args.trials)]
    return rows, seconds


class TrialKind(NamedTuple):
    """What one instance kind gives decode-trials: the number of noisy
    cells, the promise radius, the trial function of _run_trials (its rows
    carry "in_promise" and "success") and the kind's extra aggregate fields
    of the rows."""

    cells: int
    promise_radius: int
    trial: Callable
    extra: Callable[[list[dict]], dict]


def _dual_tensor_trials(inst: DualTensorInstance, args) -> TrialKind:
    F, n = inst.field, inst.n
    radius = int(inst.d0) if inst.d0 >= 1 else 0

    def trial(rng, timed) -> dict:
        a = random_codeword(inst, rng)
        b = random_error(F, n, _noise_weight(n * n, args, rng), rng)
        w = int(np.count_nonzero(b))
        res = timed(alpha_decode, inst, F.add(a, b))
        member = inst.member(res.word)
        ok = member and not res.fallback and res.residual <= inst.alpha * w \
            and (w > 0 or res.residual == 0)
        return {"weight": w, "residual": res.residual, "fallback": res.fallback,
                "member": member, "in_promise": w <= radius, "success": bool(ok),
                **res.stages}

    def extra(rows: list[dict]) -> dict:
        return {"alpha": [inst.alpha.numerator, inst.alpha.denominator],
                "mean_residual": sum(r["residual"] for r in rows) / max(len(rows), 1)}

    return TrialKind(n * n, radius, trial, extra)


def _subsystem_trials(inst: SubsystemProductInstance, args) -> TrialKind:
    F, prod = inst.field, inst.product
    N = prod.n
    QZp = prod.logical_z_space()
    QXp = prod.logical_x_space()
    cm = check_matrices(prod, "tensor")
    radius = math.floor(inst.params.delta * N)

    def trial(rng, timed) -> dict:
        cz = la.matmul(F, F.random(rng, QZp.shape[0])[None, :], QZp)[0]
        cx = la.matmul(F, F.random(rng, QXp.shape[0])[None, :], QXp)[0]
        w = _noise_weight(N, args, rng)
        ez = error_vector(F, N, w, rng)
        ex = error_vector(F, N, w, rng)
        res = timed(subsystem_decode, inst, F.add(cx, ex), F.add(cz, ez))
        ok_z = logical_coset_equal(prod, "z", res.coset_z.representative, cz)
        ok_x = logical_coset_equal(prod, "x", res.coset_x.representative, cx)
        # syndrome path must land in the same logical cosets
        sres = syndrome_decode(inst, cm, la.matvec(F, cm.hx, F.add(cx, ex)),
                               la.matvec(F, cm.hz, F.add(cz, ez)))
        agree_z = logical_coset_equal(prod, "z",
                                      F.sub(F.add(cz, ez), sres.coset_z.representative),
                                      res.coset_z.representative)
        agree_x = logical_coset_equal(prod, "x",
                                      F.sub(F.add(cx, ex), sres.coset_x.representative),
                                      res.coset_x.representative)
        return {"weight": w, "success": bool(ok_z and ok_x and agree_z and agree_x),
                "coset_z_ok": bool(ok_z), "coset_x_ok": bool(ok_x),
                "syndrome_path_agrees": bool(agree_z and agree_x),
                "fallback": res.fallback, "in_promise": w <= radius}

    delta = inst.params.delta
    return TrialKind(N, radius, trial,
                     lambda rows: {"delta": [delta.numerator, delta.denominator]})


def _css_trials(inst: CssProductInstance, args) -> TrialKind:
    F, code = inst.field, inst.code
    N = code.n
    radius = math.floor(inst.params.delta * N)

    def trial(rng, timed) -> dict:
        cz = code.qz.codeword(F.random(rng, code.qz.k))
        cx = code.qx.codeword(F.random(rng, code.qx.k))
        w = _noise_weight(N, args, rng)
        ez = error_vector(F, N, w, rng)
        ex = error_vector(F, N, w, rng)
        try:
            res = timed(css_decode, inst, F.add(cx, ex), F.add(cz, ez))
        except PromiseViolation as exc:
            return {"weight": w, "success": False, "fallback": True,
                    "in_promise": w <= radius, "reason": str(exc)}
        ok = (logical_coset_equal(code, "z", res.coset_z.representative, cz)
              and logical_coset_equal(code, "x", res.coset_x.representative, cx))
        return {"weight": w, "success": bool(ok), "fallback": bool(res.fallback),
                "in_promise": w <= radius}

    return TrialKind(N, radius, trial, lambda rows: {})


def _load_instance(path: str) -> dict:
    """Accept either a bare instance document or a build-code report."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "kind" not in doc and "results" in doc:
        doc = doc["results"]
    if not isinstance(doc, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return doc


# decodable instance kind -> (loader of its document, decode-trials kind)
DECODE_KINDS = {"dual-tensor": (DualTensorInstance.from_json, _dual_tensor_trials),
                "subsystem-product": (SubsystemProductInstance.from_json, _subsystem_trials),
                "css-product": (CssProductInstance.from_json, _css_trials)}


def _decodable_instance(doc: dict, kinds) -> tuple[str, object]:
    """The kind and the instance of a document whose kind is among kinds."""
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise UsageError(f"cannot decode instances of kind {kind}")
    with _boundary():
        return kind, DECODE_KINDS[kind][0](doc)


def cmd_decode_trials(args) -> int:
    doc = _load_instance(args.instance)
    t0 = time.time()
    kind, inst = _decodable_instance(doc, DECODE_KINDS)
    spec = DECODE_KINDS[kind][1](inst, args)
    _check_noise(spec.cells, args)
    rows, secs = _run_trials(args, spec.trial)
    fail = sum(r["in_promise"] and not r["success"] for r in rows)
    inside = sum(r["in_promise"] for r in rows)
    agg = {"trials": args.trials, "in_promise_success": inside - fail,
           "in_promise_failure": fail, "out_of_promise": len(rows) - inside,
           "promise_radius": spec.promise_radius, **spec.extra(rows)}
    config = {"command": "decode-trials", "instance_kind": kind,
              "instance": doc, "trials": args.trials, "seed": args.seed,
              "noise_weight": args.noise_weight, "noise_rate": args.noise_rate}
    timings = None
    if args.timings:
        total = time.time() - t0
        arr = sorted(secs) or [0.0]
        timings = {"seconds": total,
                   "mean_trial_seconds": sum(arr) / len(arr),
                   "p95_trial_seconds": arr[min(len(arr) - 1,
                                                int(0.95 * len(arr)))]}
    report = finalize_report(config, {"aggregate": agg, "trial_table": rows}, timings)
    write_report(report, args.out)
    if args.csv:
        write_csv(rows, args.csv)
    return EXIT_OK if fail == 0 else EXIT_PROMISE


def _payload_vector(F: Field, payload, key: str | None, size: int) -> np.ndarray:
    """The word (key None) or the keyed entry of a decode-one payload, which
    must be a flat list of size integers in [0, q)."""
    if key is not None:
        payload = payload.get(key) if isinstance(payload, dict) else None
    if not (isinstance(payload, list) and len(payload) == size
            and all(type(x) is int and 0 <= x < F.q for x in payload)):
        raise UsageError(f"{key or 'word'} must be a flat list of {size} integers in [0, {F.q})")
    return np.array(payload, dtype=np.int64)


def cmd_decode_one(args) -> int:
    """Decode a single word (or syndrome pair) and emit a DecodeReport."""
    doc = _load_instance(args.instance)
    payload = _read_json(args.word if args.word else args.syndrome)
    t0 = time.time()
    kind, inst = _decodable_instance(doc, ("dual-tensor", "subsystem-product"))
    F = inst.field
    if kind == "dual-tensor":
        if args.syndrome:
            raise UsageError("dual-tensor instances decode words, not syndromes")
        res = alpha_decode(inst, _payload_vector(F, payload, None, inst.n ** 2))
        results = {"residual": res.residual, "fallback": res.fallback,
                   "stage_bounds": {
                       "stage1": [inst.stage1_bound.numerator, inst.stage1_bound.denominator],
                       "alpha": [inst.alpha.numerator, inst.alpha.denominator],
                       "d0": [inst.d0.numerator, inst.d0.denominator]},
                   "stages": res.stages,
                   "word": [int(x) for x in res.word.ravel()]}
    else:
        if args.syndrome:
            cm = check_matrices(inst.product, "tensor")
            res = syndrome_decode(inst, cm, _payload_vector(F, payload, "s_x", cm.hx.shape[0]),
                                  _payload_vector(F, payload, "s_z", cm.hz.shape[0]))
        else:
            res = subsystem_decode(inst, _payload_vector(F, payload, "c_x", inst.n ** 2),
                                   _payload_vector(F, payload, "c_z", inst.n ** 2))
        results = {"fallback": res.fallback,
                   "coset_x": [int(x) for x in res.coset_x.representative],
                   "coset_z": [int(x) for x in res.coset_z.representative]}
    timings = {"millis": (time.time() - t0) * 1000.0} if args.timings else None
    write_report(finalize_report({"command": "decode-one", "instance_kind": kind},
                                 results, timings), args.out)
    return EXIT_PROMISE if res.fallback else EXIT_OK


# ---------------------------------------------------------------------------
# pe-exact / distance / gate-verify / single-shot
# ---------------------------------------------------------------------------


def cmd_pe_exact(args) -> int:
    docs = _read_json(args.codes)
    if not isinstance(docs, list) or not docs:
        raise UsageError(f"{args.codes} must hold a non-empty JSON list of codes")
    with _boundary():
        codes = [LinearCode.from_json(d) for d in docs]
        common_field(codes)
    res = pe_exact(codes, budget=args.budget)
    report = finalize_report({"command": "pe-exact", "budget": args.budget,
                              "codes": docs}, res.to_json())
    write_report(report, args.out)
    return EXIT_OK


def cmd_distance(args) -> int:
    doc = _load_instance(args.instance)
    if doc.get("kind") == "rs" or "gen" in doc:
        with _boundary():
            code = LinearCode.from_json(doc.get("code", doc))
        d = code.min_distance(budget=args.budget)
    else:
        with _boundary():
            pair = CssPair.from_json(doc["pair"] if "pair" in doc else doc)
        d = subsystem_distance(pair, budget=args.budget)
    report = finalize_report(
        {"command": "distance", "budget": args.budget, "instance": doc},
        {"distance": None if math.isinf(d.value) else int(d.value),
         "infinite": math.isinf(d.value), "exact": d.exact, "method": d.method})
    write_report(report, args.out)
    return EXIT_OK


def cmd_gate_verify(args) -> int:
    t0 = time.time()
    if args.params:
        with _boundary():
            r, q = (int(x) for x in args.params.split(","))
            F = GF(q)
            tv.transrs_params(r, q)
        gate = tv.build_transrs_gate(F, r)
        phase = tv.phase_identity_test(gate, args.trials, args.seed)
        sym = tv.exponent_set_check(r, q)
        results = {"certificate": gate.certificate.to_json(),
                   "exponent_check_empty": sym.empty,
                   "phase_trials": phase.trials, "phase_passed": phase.passed,
                   "label": gate.label}
        ok = gate.certificate.holds and sym.empty and phase.all_passed
        config = {"command": "gate-verify", "params": args.params,
                  "trials": args.trials, "seed": args.seed}
    else:
        doc = _load_instance(args.instance)
        if doc.get("kind") != "triple-product":
            raise UsageError("gate-verify --instance expects a triple-product document")
        with _boundary():
            F = Field.from_json(doc["field"])
            params = doc["params"]
            # type(...) is int: JSON true/false are not integers here
            if not (isinstance(params, dict)
                    and all(type(params.get(key)) is int for key in ("m", "u"))):
                raise ValueError(f"params must be {{m: int, u: int}}, got {params!r}")
            m, u = params["m"], params["u"]
        _check_triple_params(m, u, F.q)
        gate = tv.triple_product_build(F, m, u, seed=args.seed)
        phase = tv.triple_phase_identity_test(gate, args.trials, args.seed) \
            if gate.certificate.holds else None
        results = {"certificate": gate.certificate.to_json(),
                   "phase_trials": None if phase is None else phase.trials,
                   "phase_passed": None if phase is None else phase.passed,
                   "label": gate.label}
        ok = gate.certificate.holds and (phase is None or phase.all_passed)
        config = {"command": "gate-verify", "instance": doc["params"],
                  "trials": args.trials, "seed": args.seed}
    timings = {"seconds": time.time() - t0} if args.timings else None
    write_report(finalize_report(config, results, timings), args.out)
    return EXIT_OK if ok else EXIT_PROMISE


def cmd_single_shot_trials(args) -> int:
    doc = _load_instance(args.instance)
    _, inst = _decodable_instance(doc, ("subsystem-product", "css-product"))
    with _boundary():
        cm = check_matrices(inst.product, "amplified")
    F = inst.field
    prod = inst.product
    if not 0 <= args.error_weight <= prod.n:
        raise UsageError(f"--error-weight must lie in [0, {prod.n}]")
    # _stripe_safe_noise hits distinct stripes, 2n of them
    if not 0 <= args.syndrome_noise <= 2 * inst.n:
        raise UsageError(f"--syndrome-noise must lie in [0, {2 * inst.n}]")
    gauge = prod.qx.dual().gen

    def trial(rng, timed) -> dict:
        e = error_vector(F, prod.n, args.error_weight, rng)
        g = la.matmul(F, F.random(rng, gauge.shape[0])[None, :], gauge)[0]
        s = la.matvec(F, cm.hz, F.add(e, g))
        v = _stripe_safe_noise(F, inst, args.syndrome_noise, rng)
        res = timed(single_shot_decode, inst, cm, F.add(s, v), args.distance)
        ok, resid = False, None
        if res.correction is not None:
            diff = F.sub(res.correction.representative, e)
            ok = logical_coset_equal(prod, "z", res.correction.representative, e)
            # the gauge Q_X^perp is the kernel of the Q_X generator
            resid = coset_min_weight(F, prod.qx.gen, diff, cap=3)
        return {"error_weight": int(np.count_nonzero(e)),
                "syndrome_noise": int(np.count_nonzero(v)),
                "success": ok, "residual_weight": resid,
                "denoise_failures": res.denoise_failures}

    rows, _ = _run_trials(args, trial)
    ok_n = sum(r["success"] for r in rows)
    agg = {"trials": args.trials, "successes": ok_n,
           "success_rate": ok_n / max(args.trials, 1)}
    config = {"command": "single-shot-trials", "instance": doc,
              "trials": args.trials, "seed": args.seed,
              "error_weight": args.error_weight,
              "syndrome_noise": args.syndrome_noise, "distance": args.distance}
    write_report(finalize_report(config, {"aggregate": agg, "trial_table": rows}),
                 args.out)
    if args.csv:
        write_csv(rows, args.csv)
    return EXIT_OK if ok_n == args.trials else EXIT_PROMISE


def _stripe_safe_noise(F: Field, inst: SubsystemProductInstance, weight: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Syndrome noise of the given weight hitting distinct stripes, so each
    per-stripe outer decode sees at most one corruption."""
    blocks = [stripes for stripes, _ in amplified_z_stripes(inst.factors)]
    # the stripe of each position, named by the stripe's first position
    stripe_of = np.zeros(sum(b.size for b in blocks), dtype=np.int64)
    for b in blocks:
        stripe_of[b] = b[:, :1]
    v = np.zeros(stripe_of.size, dtype=np.int64)
    hit: set[int] = set()
    placed = 0
    while placed < weight:
        pos = int(rng.integers(v.size))
        if int(stripe_of[pos]) in hit:
            continue
        hit.add(int(stripe_of[pos]))
        v[pos] = int(F.random(rng, None, nonzero=True))
        placed += 1
    return v


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prodcodes",
                                 description="finite-field product-code laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-code", help="construct an instance and write JSON")
    b.add_argument("--kind", required=True,
                   choices=["rs", "qrs", "subsystem-product", "css-product",
                            "dual-tensor", "punctured-tensor-rs", "triple-product"])
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, default=0)
    b.add_argument("--k", type=int, default=0)
    b.add_argument("--k2", type=int, default=0)
    b.add_argument("--kx", type=int, default=0)
    b.add_argument("--kz", type=int, default=0)
    b.add_argument("--kx2", type=int, default=0)
    b.add_argument("--kz2", type=int, default=0)
    b.add_argument("--m", type=int, default=0)
    b.add_argument("--u", type=int, default=1)
    b.add_argument("--eps", default="1/2")
    b.add_argument("--rho", default="1/8")
    b.add_argument("--gamma", type=int, default=20)
    b.add_argument("--seed", type=_non_negative_int, required=True)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_build_code)

    d = sub.add_parser("decode-trials", help="Monte-Carlo decoding trials")
    d.add_argument("--instance", required=True)
    group = d.add_mutually_exclusive_group(required=True)
    group.add_argument("--noise-weight", type=int, default=None)
    group.add_argument("--noise-rate", type=float, default=None)
    d.add_argument("--trials", type=_non_negative_int, required=True)
    d.add_argument("--seed", type=_non_negative_int, required=True)
    d.add_argument("--out", default=None)
    d.add_argument("--csv", default=None)
    d.add_argument("--timings", action="store_true")
    d.set_defaults(func=cmd_decode_trials)

    o = sub.add_parser("decode-one", help="decode a single word or syndrome")
    o.add_argument("--instance", required=True)
    mx = o.add_mutually_exclusive_group(required=True)
    mx.add_argument("--word", default=None, help="JSON flat row-major array")
    mx.add_argument("--syndrome", default=None, help='JSON {"s_x": [...], "s_z": [...]}')
    o.add_argument("--out", default=None)
    o.add_argument("--timings", action="store_true")
    o.set_defaults(func=cmd_decode_one)

    p = sub.add_parser("pe-exact", help="exact product-expansion of a code tuple")
    p.add_argument("--codes", required=True)
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_PE_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pe_exact)

    g = sub.add_parser("gate-verify", help="verify a transversal gate instance")
    mutex = g.add_mutually_exclusive_group(required=True)
    mutex.add_argument("--params", default=None, help="r,q for the RS instance")
    mutex.add_argument("--instance", default=None, help="triple-product JSON")
    g.add_argument("--trials", type=_non_negative_int, default=1000)
    g.add_argument("--seed", type=_non_negative_int, default=0)
    g.add_argument("--out", default=None)
    g.add_argument("--timings", action="store_true")
    g.set_defaults(func=cmd_gate_verify)

    s = sub.add_parser("single-shot-trials", help="noisy-syndrome decoding trials")
    s.add_argument("--instance", required=True)
    s.add_argument("--syndrome-noise", type=int, required=True)
    s.add_argument("--error-weight", type=int, default=1)
    s.add_argument("--distance", type=_non_negative_int, required=True)
    s.add_argument("--trials", type=_non_negative_int, required=True)
    s.add_argument("--seed", type=_non_negative_int, required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--csv", default=None)
    s.set_defaults(func=cmd_single_shot_trials)

    t = sub.add_parser("distance", help="distance of a code or subsystem pair")
    t.add_argument("--instance", required=True)
    t.add_argument("--budget", type=_non_negative_int, default=DEFAULT_DISTANCE_BUDGET)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_distance)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InconsistentInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (UsageError, BudgetExceeded, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
