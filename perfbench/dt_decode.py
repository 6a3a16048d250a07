"""dt-decode: ``alpha_decode`` on planted words of dual-tensor RS products.

One field per branch of ``linalg.matmul``: characteristic 2 (XOR path), an
odd-characteristic extension (add-table path) and a prime field.  eps = 1/2,
rho = 1/8, gamma = 2, k1 = n/8, k2 = n/4.  Stage-1 dense kernels dominate, so
this is where ``linalg``, ``gf`` array arithmetic and decoder stage 1 do most
of the work, and where peak memory shows.

Each pass decodes, for every field, one planted word at every error weight
in [1, floor(d0)], so every decode is inside the promise and every pass does
the same work; the seed draws the codewords, the error supports and the
error values.  The cost of a decode depends on its error weight, so the
headline latency of a field is the median over passes of that sweep's time.
The code lengths keep a pass near 5 s, so a run holds five or more sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .harness import Context, Failed, expect

NAME = "dt-decode"
MIN_PASSES = 3
# metric suffix, field order, code length
FIELDS = (("char2", 64, 48), ("odd_ext", 49, 40), ("prime", 97, 48))
# the latency samples behind op1_s, op2_s and op3_s
HEADLINE = tuple(f"decode_sweep_s.{kind}" for kind, _, _ in FIELDS)
# the harness.SpeedProbe loops that every time is scaled by: long decodes
# that mix dense kernels, interpreter loops and small numpy calls
SPEED_LOOPS = ("compute", "memory")
SAMPLE_LOOPS: dict[str, tuple[str, ...]] = {}
# ... and during each decode, every PROBE_EVERY_S seconds
PROBE_EVERY_S = 0.2


@dataclass
class State:
    instances: list


def setup(ctx: Context) -> State:
    from prodcodes.decoder import DualTensorInstance
    from prodcodes.gf import GF
    instances = []
    for kind, q, n in FIELDS:
        inst = DualTensorInstance.build(GF(q), n, n // 8, n // 4, Fraction(1, 2),
                                        Fraction(1, 8), gamma=2)
        for code in (inst.C1, inst.C2, inst.C1p, inst.C2p):
            code.parity_check()
        instances.append((kind, inst))
    return State(instances)


def run_pass(state: State, ctx: Context, k: int) -> None:
    from prodcodes.decoder import alpha_decode, random_codeword, random_error
    for idx, (kind, inst) in enumerate(state.instances):
        F = inst.field
        rng = ctx.rng(k, idx)
        times = ctx.tally.samples[f"decode_s.{kind}"]
        before = len(times)
        weights = range(1, int(inst.d0) + 1)
        for weight in weights:
            planted = random_codeword(inst, rng)
            word = F.add(planted, random_error(F, inst.n, weight, rng))

            def check(res, weight=weight, planted=planted):
                expect(inst.member(res.word), "output is not a codeword of C1 [+] C2")
                if res.fallback:
                    raise Failed(f"fallback inside the promise: {res.stages.get('reason')}")
                expect(res.residual <= inst.alpha * weight,
                       f"residual {res.residual} > alpha * {weight}")
                ctx.tally.notes[f"exact_recoveries.{kind}"] += bool(
                    np.array_equal(res.word, planted))

            ctx.tally.run(f"decode.{kind}", lambda word=word: alpha_decode(inst, word),
                          check, sample=f"decode_s.{kind}")
        if len(times) - before == len(weights):
            ctx.tally.samples[f"decode_sweep_s.{kind}"].append(sum(times[before:]))
