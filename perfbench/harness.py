"""Measurement arithmetic and the run loop shared by every workload.

A workload is a closed loop with one caller: it sets up once (timed several
times, see ``SETUP_REPEATS``), then runs passes until the time is spent.  A
pass is the workload's fixed mix of operations on inputs drawn from
``(seed, pass index)``, so the same seed replays the same inputs.  Every
operation goes through ``Tally.run``, which times it, applies its
known-answer check and counts its outcome without stopping the run.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

# set-up runs at least SETUP_REPEATS times, and more, up to
# SETUP_MAX_REPEATS, until SETUP_SECONDS of wall time are spent on it
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 3.0
# p-th percentile is reported only when this many samples lie beyond it
TAIL_SAMPLES = 10


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank p-quantile (0 < p < 1), or None when fewer than
    ``TAIL_SAMPLES`` samples lie strictly beyond its rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p * n))
    if p > 0.5 and n - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


class Wrong(Exception):
    """A known-answer check found an output that disagrees with the answer."""


class Failed(Exception):
    """An operation ended without an answer (error exit, decoder fallback)."""


class Tally:
    """Outcome counts and latency samples of the operations of one run.

    An operation *fails* when it raises, or its check raises ``Failed`` or
    ``Wrong``; a ``Wrong`` also marks the run incorrect.  Failures are
    counted, never re-raised, so one bad operation does not end the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.tracebacks: dict[str, str] = {}
        # seconds at the probe's reference speed (wall seconds without one)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw_samples: dict[str, list[float]] = defaultdict(list)
        self.notes: Counter = Counter()
        self.on_op: Callable[[], None] | None = None
        self.probe: SpeedProbe | None = None

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, kind: str, fn: Callable[[], object],
            check: Callable[[object], None] | None = None,
            sample: str | None = None) -> object:
        """Run one operation; time ``fn`` into ``samples[sample]`` when it
        returns, then apply ``check`` to its result.  With a ``probe`` the
        operation runs between two probe samples (see ``SpeedProbe.timed``).
        """
        self.attempted += 1
        if self.on_op is not None:
            self.on_op()
        try:
            if self.probe is not None:
                out, elapsed, at_ref = self.probe.timed(fn, sample)
            else:
                t0 = time.perf_counter()
                out = fn()
                elapsed = at_ref = time.perf_counter() - t0
            if sample is not None:
                self.samples[sample].append(at_ref)
                self.raw_samples[sample].append(elapsed)
            if check is not None:
                check(out)
            return out
        except Wrong as exc:
            self.wrong += 1
            self._fail(kind, f"wrong: {exc}")
        except Failed as exc:
            self._fail(kind, f"failed: {exc}")
        except Exception:  # the run must go on; the traceback is kept
            tb = traceback.format_exc()
            self.tracebacks.setdefault(self._fail(kind, tb.strip().splitlines()[-1]), tb)
        return None

    def _fail(self, kind: str, why: str) -> str:
        key = f"{kind}: {why}"
        self.failed += 1
        self.failures[key] += 1
        return key


def expect(ok: bool, what: str) -> None:
    """Known-answer assertion that survives ``python -O``."""
    if not ok:
        raise Wrong(what)


def _compute_loop() -> None:
    """Interpreter arithmetic, and small and large array arithmetic: the
    work of the exact oracles' Python loops."""
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
    a = np.arange(64, dtype=np.int64)
    for _ in range(150):
        a = (a * 7 + 3) % 65521
    b = np.arange(1 << 16, dtype=np.int64)
    for _ in range(5):
        b = (b * 7 + 3) % 65521


# the memory loop's inputs: a 1 MiB lookup table like the log/exp tables of
# GF(2^17), and small index vectors into it
_MEM_RNG = np.random.default_rng(2510)
_MEM_TABLE = _MEM_RNG.integers(0, 1 << 17, size=1 << 17)
_MEM_INDEX = [_MEM_RNG.integers(0, 1 << 17, size=64) for _ in range(16)]


def _memory_loop() -> None:
    """Small array arithmetic, table gathers, small 2-D array bookkeeping,
    and Python object and ``Fraction`` churn: the work of the decoders, many
    small numpy calls."""
    a = np.arange(64, dtype=np.int64)
    for _ in range(150):
        a = (a * 7 + 3) % 65521
    for _ in range(20):
        for ix in _MEM_INDEX:
            ix = _MEM_TABLE[(_MEM_TABLE[ix] + ix) & 0x1FFFF]
    for _ in range(100):
        z = np.zeros((8, 8), dtype=np.int64)
        z[1, 2] = 3
        w = z.T.copy()
        np.nonzero(w)
        np.concatenate([z, w])
    for i in range(1500):
        row = {"a": (i, i + 1), "b": [i] * 4}
    sum((Fraction(i, 7) for i in range(150)), Fraction(len(row)))


def _scalar_loop() -> None:
    """Arithmetic on numpy scalars and single-element table lookups: the
    work of scalar field operations in Python loops."""
    x = np.int64(3)
    for i in range(1500):
        x = _MEM_TABLE[(x + np.int64(i)) & 0x1FFFF]


# the calibration loops a SpeedProbe can time, by name
LOOPS = {"compute": _compute_loop, "memory": _memory_loop, "scalar": _scalar_loop}


class SpeedProbe:
    """Times fixed calibration loops right before, during and right after
    every timed operation, and converts the operation's time to seconds at
    the reference speed, where one loop takes ``REFERENCE_S``.

    The CPU speed this process gets changes with load from outside it, by up
    to a factor of two within a minute on a shared machine, and not the same
    for all code.  Many small numpy calls and table gathers (the quantum
    decoders) slow about as much as the memory loop does.  Operations that
    mix interpreter loops, dense kernels and small numpy calls
    (``pe_exact``, ``alpha_decode``, the triple-product phase trials, whole
    passes and set-up) track sometimes the compute loop and sometimes the
    memory loop, as the outside load changes, so they are scaled by both:
    by the geometric mean of the two loops' speeds.  Likewise the transrs
    phase trials, small numpy calls around scalar field operations, by the
    memory and scalar loops.  ``sample_loops`` names the loops of each
    latency sample set, and ``loops`` those of every other operation, of
    set-up and of whole passes.

    Given ``every_s``, a ``SIGALRM`` handler also samples the current
    operation's loops every ``every_s`` of wall time between ``start`` and
    ``stop``, so a long operation is scaled by the speed during it and not
    only at its ends; workloads of short operations need none.  Sample time
    is excluded from the operation's time.  The loops are the benchmark's
    own code, so a change to the program moves scaled times exactly as it
    moves raw ones.
    """

    REFERENCE_S = 0.003

    def __init__(self, loops: tuple[str, ...] = ("memory",),
                 sample_loops: dict[str, tuple[str, ...]] | None = None,
                 every_s: float | None = None) -> None:
        self.loops = loops
        self.sample_loops = dict(sample_loops or {})
        self.every_s = every_s
        self.samples: dict[str, list[float]] = {name: [] for name in LOOPS}
        self.spent = 0.0
        self._current = loops
        self._sampling = False

    def start(self) -> None:
        if self.every_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, signum, frame) -> None:
        if not self._sampling:
            self.sample(self._current)

    def sample(self, loops: tuple[str, ...] | None = None) -> None:
        """Time each of ``loops`` (by default the probe's own) once."""
        self._sampling = True
        try:
            for name in loops or self.loops:
                t0 = time.perf_counter()
                LOOPS[name]()
                elapsed = time.perf_counter() - t0
                self.samples[name].append(elapsed)
                self.spent += elapsed
        finally:
            self._sampling = False

    def marks(self, loops: tuple[str, ...] | None = None) -> dict[str, int]:
        """The current sample count of each of ``loops``, for ``scale``."""
        return {name: len(self.samples[name]) for name in loops or self.loops}

    def scale(self, since: dict[str, int] | None = None) -> float:
        """Reference seconds per wall second: the geometric mean over the
        loops in ``since`` (by default the probe's own, from their first
        sample) of ``REFERENCE_S`` over the loop's median sample from its
        mark on."""
        since = since or dict.fromkeys(self.loops, 0)
        logs = [math.log(self.REFERENCE_S / median(self.samples[name][first:]))
                for name, first in since.items()]
        return math.exp(sum(logs) / len(logs))

    def timed(self, fn: Callable[[], object],
              sample: str | None = None) -> tuple[object, float, float]:
        """Run ``fn`` between two samples of the loops of ``sample``; return
        its result, its wall seconds less the samples taken during it, and
        those seconds at the reference speed of the samples from the one
        before it to the one after it."""
        loops = self.sample_loops.get(sample, self.loops)
        outer, self._current = self._current, loops
        try:
            since = self.marks(loops)
            self.sample(loops)
            t0, spent0 = time.perf_counter(), self.spent
            out = fn()
            elapsed = time.perf_counter() - t0 - (self.spent - spent0)
            self.sample(loops)
        finally:
            self._current = outer
        return out, elapsed, elapsed * self.scale(since)


def timed_setup(setup: Callable[[], object], reset: Callable[[], None],
                probe: SpeedProbe):
    """Run ``setup`` from cold caches ``SETUP_REPEATS`` or more times (see
    there); return the last state and the median set-up time in seconds at
    the reference speed and in wall seconds."""
    scaled, raw = [], []
    state = None
    t_start = time.perf_counter()
    while len(raw) < SETUP_REPEATS or (
            len(raw) < SETUP_MAX_REPEATS
            and time.perf_counter() - t_start < SETUP_SECONDS):
        # the last state is dropped first, so the repeats do not raise the
        # peak memory the run reports
        state = None
        gc.collect()
        reset()
        state, elapsed, at_ref = probe.timed(setup)
        raw.append(elapsed)
        scaled.append(at_ref)
    return state, median(scaled), median(raw)


def run_passes(run_pass: Callable[[int], None], seconds: float, min_passes: int,
               probe: SpeedProbe | None = None) -> tuple[list[float], list[float]]:
    """Closed loop: run passes 0, 1, ... and return their wall times less
    the time ``probe`` spent inside them, and those times at the reference
    speed (each pass scaled by the probe's own loops' samples taken during
    it and right after it; without a probe, the wall times again).

    A new pass starts only while it is expected (by the median pass so far)
    to end within ``seconds``, and always until ``min_passes`` are done.
    """
    raw: list[float] = []
    scaled: list[float] = []
    t_start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        spent0 = probe.spent if probe else 0.0
        since = probe.marks() if probe else None
        run_pass(k)
        elapsed = time.perf_counter() - t0
        if probe is None:
            raw.append(elapsed)
            scaled.append(elapsed)
        else:
            elapsed -= probe.spent - spent0
            probe.sample()
            raw.append(elapsed)
            scaled.append(elapsed * probe.scale(since))
        k += 1
        spent = time.perf_counter() - t_start
        if k >= min_passes and spent + median(raw) > seconds:
            return raw, scaled


@dataclass
class Context:
    """What a workload's passes share: the seed, a scratch directory inside
    the checkout, the outcome tally and counts the benchmark observes itself
    (swapped for the tracer's counts during traced passes)."""

    seed: int
    workdir: str
    tally: Tally = field(default_factory=Tally)
    counts: Counter = field(default_factory=Counter)

    def rng(self, *key: int) -> np.random.Generator:
        """Generator for the inputs identified by ``key`` under this seed."""
        return np.random.default_rng([self.seed, *key])
