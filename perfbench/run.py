"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload dt-decode --seed 1 --seconds 30 --trace 0

Each invocation is one single-threaded process running one workload: set-up
(timed several times from cold caches, see ``harness.SETUP_REPEATS``), then
passes of the workload's operation mix until ``--seconds`` are spent.  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` every pass runs twice, untraced and then traced on the same
inputs, and the line holds the per-layer metrics instead.  Run metadata and
sample counts are printed on the lines before it and kept, with the spans of
a traced run, under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# single-threaded: fix every BLAS/OpenMP pool before numpy is imported
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import shutil
import time

import numpy as np

# the checkout root (for this package) and the program's sources
ROOT = os.getcwd()
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import dt_decode, quantum_decode, verify_oracles
from perfbench.harness import Context, SpeedProbe, run_passes, timed_setup
from perfbench.metrics import end_to_end, latencies, per_layer
from perfbench.tracing import Tracer

WORKLOADS = {wl.NAME: wl for wl in (dt_decode, quantum_decode, verify_oracles)}
OUT_DIR = ".perfbench_out"


def _commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_stats() -> tuple[str, int]:
    """sha256 over the program's sources, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(path.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    src_digest, src_lines = _source_stats()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(), "src_sha256": src_digest,
            "src_lines": src_lines, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "loadavg_start": list(os.getloadavg())}


def reset_caches() -> None:
    """Forget every field built so far, so each set-up pays what a fresh
    process pays."""
    from prodcodes import gf
    gf._FIELD_CACHE.clear()
    gf.canonical_modulus.cache_clear()


def traced_passes(wl, state, ctx, seconds: float, tracer) -> tuple[list, list]:
    """Run each pass untraced and then traced on the same inputs; return
    both lists of pass times."""
    plain_counts = ctx.counts
    untraced: list[float] = []
    traced: list[float] = []

    def pair(k: int) -> None:
        t0 = time.perf_counter()
        wl.run_pass(state, ctx, k)
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        ctx.counts, ctx.tally.on_op = tracer.counts, tracer.begin_op
        try:
            t0 = time.perf_counter()
            wl.run_pass(state, ctx, k)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
            ctx.counts, ctx.tally.on_op = plain_counts, None

    run_passes(pair, seconds, 1)
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]
    meta = metadata(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    probe = SpeedProbe(wl.SPEED_LOOPS, wl.SAMPLE_LOOPS, wl.PROBE_EVERY_S)
    try:
        ctx = Context(args.seed, workdir)
        probe.start()
        state, setup_s, setup_raw_s = timed_setup(lambda: wl.setup(ctx), reset_caches,
                                                  probe)
        if not args.trace:
            ctx.tally.probe = probe
            raw, scaled = run_passes(lambda k: wl.run_pass(state, ctx, k),
                                     args.seconds, wl.MIN_PASSES, probe)
            passes = {"pass_s": scaled, "pass_raw_s": raw}
            metrics = end_to_end(wl.HEADLINE, ctx.tally, setup_s, scaled)
        else:
            probe.stop()
            tracer = Tracer()
            untraced, traced = traced_passes(wl, state, ctx, args.seconds, tracer)
            passes = {"pass_s": untraced, "traced_pass_s": traced}
            metrics = per_layer(tracer, traced, untraced)
            tracer.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = ctx.tally
    detail = {"headline": {f"op{i}_s": n for i, n in enumerate(wl.HEADLINE, 1)},
              "latency": latencies(tally.samples), "notes": dict(tally.notes),
              "latency_raw": latencies(tally.raw_samples),
              "failures": dict(tally.failures), "wrong": tally.wrong,
              "setup_raw_s": setup_raw_s,
              "speed_scale": probe.scale()}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"meta": meta, **detail, **passes, "probe_s": probe.samples,
                   "samples": tally.samples, "raw_samples": tally.raw_samples,
                   "tracebacks": tally.tracebacks, **result}, fh, indent=1, sort_keys=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join("src", "prodcodes")):
        print("perfbench: run from the repository root; src/prodcodes is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
