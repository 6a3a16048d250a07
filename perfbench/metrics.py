"""The metrics a run reports, by name and unit.

End-to-end metrics are the same on every workload: set-up time, the median
wall time of one pass of the workload's operation mix, peak memory, the share
of operations that succeeded, and the medians of the workload's three
headline latencies (``op1_s``..``op3_s``, named by each workload's
``HEADLINE``).  Their times are seconds at the reference speed of
``harness.SpeedProbe``, each operation and pass scaled by the probe samples
taken around it.  Per-layer metrics come from a traced run and are
per-pass averages over the traced passes, in raw seconds.
"""

from __future__ import annotations

import resource

from .harness import median, percentile
from .tracing import LAYERS, summarize

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("success_ratio", "ratio"), ("op1_s", "s"), ("op2_s", "s"),
              ("op3_s", "s"))

# functions whose own calls and self time are reported, on top of each layer's
FUNCTION_SELF = ("linalg.matmul", "linalg.rref", "linalg.right_kernel",
                 "linalg.solve_right", "decoder.dec_init", "decoder.dec_close",
                 "decoder.dec_finish", "decoder.berlekamp_welch",
                 "transversal.phase_identity_test",
                 "transversal.triple_phase_identity_test",
                 "qdecoder.bounded_syndrome_search", "qdecoder.nearest_syndrome_exact")
FUNCTION_CALLS = ("linalg.matmul", "linalg.rref", "linalg.solve_right",
                  "decoder.berlekamp_welch")
# counts the tracing hooks and the workloads accumulate
COUNTS = (("linalg.matmul.madds", "count"), ("linalg.rref.cells", "count"),
          ("gf.elems", "count"), ("expansion.pe_exact.words", "count"),
          ("expansion.pe_exact.decompositions", "count"),
          ("decoder.peel_iterations", "count"), ("decoder.fallbacks", "count"),
          ("qdecoder.denoise_failures", "count"), ("cli.report_bytes", "bytes"))

PER_LAYER = (tuple((f"{layer}.{what}", unit) for layer in LAYERS
                   for what, unit in (("calls", "count"), ("self_s", "s")))
             + tuple((f"{fn}.self_s", "s") for fn in FUNCTION_SELF)
             + tuple((f"{fn}.calls", "count") for fn in FUNCTION_CALLS)
             + COUNTS
             + (("decoder.berlekamp_welch.useful_ratio", "ratio"),
                ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
                ("trace.spans", "count")))


def end_to_end(headline, tally, setup_s: float, pass_times: list[float]) -> dict:
    """``{name: (value, unit)}`` for every name in ``END_TO_END``; every
    time comes in seconds at the reference speed."""
    values = {"setup_s": setup_s, "run_s": median(pass_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "success_ratio": 1 - tally.failed_ratio}
    for i, name in enumerate(headline, 1):
        samples = tally.samples[name]
        if not samples:
            raise RuntimeError(f"no {name} samples: every such operation failed")
        values[f"op{i}_s"] = median(samples)
    return {name: (values[name], unit) for name, unit in END_TO_END}


def latencies(samples: dict[str, list[float]]) -> dict:
    """Sample count, median and (given ten samples beyond it) p90 of each
    latency sample set."""
    return {name: {"n": len(v), "p50": median(v), "p90": percentile(v, 0.9)}
            for name, v in sorted(samples.items()) if v}


def per_layer(tracer, traced_times: list[float], untraced_times: list[float]) -> dict:
    """``{name: (value, unit)}`` for every name in ``PER_LAYER``."""
    arr = tracer.arrays()
    s = summarize(tracer.names, arr["name"], arr["start"], arr["end"], arr["parent"])
    passes = len(traced_times)
    values = {}
    for layer in LAYERS:
        calls, secs = s["by_layer"].get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls / passes
        values[f"{layer}.self_s"] = secs / passes
    for fn in FUNCTION_SELF:
        values[f"{fn}.self_s"] = s["by_name"].get(fn, (0, 0.0))[1] / passes
    for fn in FUNCTION_CALLS:
        values[f"{fn}.calls"] = s["by_name"].get(fn, (0, 0.0))[0] / passes
    for name, _ in COUNTS:
        values[name] = tracer.counts[name] / passes
    bw_calls = s["by_name"].get("decoder.berlekamp_welch", (0, 0.0))[0]
    useful = tracer.counts["decoder.berlekamp_welch.useful"]
    values["decoder.berlekamp_welch.useful_ratio"] = useful / bw_calls if bw_calls else 0.0
    values["trace.overhead_ratio"] = median(traced_times) / median(untraced_times)
    values["trace.coverage"] = s["root_s"] / sum(traced_times)
    values["trace.spans"] = len(arr["name"]) / passes
    return {name: (values[name], unit) for name, unit in PER_LAYER}
