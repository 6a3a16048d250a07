"""Span tracing of prodcodes from outside the program.

``Tracer.install`` wraps every public function of each layer module, and
every public method of the classes those modules define, in a recorder that
keeps one span per call: name, start, end, parent span and operation id.  Each
wrapper is rebound in every ``prodcodes`` module namespace that imported the
original, so calls between modules (``qdecoder`` calling
``decoder.berlekamp_welch``) are traced too.  ``Tracer.uninstall`` puts the
originals back, so untraced passes run the unmodified program.  Workloads
import the program's functions inside each pass, so that a traced pass calls
the wrappers.

Spans live in flat arrays in memory and are written once, at exit.  Counts
that a layer's return values or arguments reveal (multiply-adds of a matmul,
cells of an rref, field elements produced, ...) are accumulated at the same
call boundaries by the hooks in ``HOOKS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("gf", "poly", "linalg", "codes", "complexes", "subsystem",
          "expansion", "decoder", "qdecoder", "transversal", "cli")


# ---------------------------------------------------------------------------
# counts read at call boundaries
# ---------------------------------------------------------------------------


def _shape2(a) -> tuple[int, int]:
    shape = np.shape(a)
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


def _matmul_hook(counts, args, out):
    m, k = _shape2(args[1])
    n = _shape2(args[2])[1]
    counts["linalg.matmul.madds"] += m * k * n


def _rref_hook(counts, args, out):
    m, n = _shape2(args[1])
    counts["linalg.rref.cells"] += m * n


def _bw_hook(counts, args, out):
    # a call is useful when it returns a codeword to subtract; None (no
    # consistent codeword) and the zero codeword change nothing
    counts["decoder.berlekamp_welch.useful"] += out is not None and bool(out.any())


def _dec_finish_hook(counts, args, out):
    counts["decoder.peel_iterations"] += out[1]


def _alpha_decode_hook(counts, args, out):
    counts["decoder.fallbacks"] += bool(out.fallback)


def _single_shot_hook(counts, args, out):
    counts["qdecoder.denoise_failures"] += out.denoise_failures


def _pe_exact_hook(counts, args, out):
    codes = args[0]
    q = codes[0].field.q
    lengths = [c.n for c in codes]
    lattice = 1
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            # C^(i,j) = C_i (x) C_j (x) (full space on the other axes)
            rest = int(np.prod([n for a, n in enumerate(lengths) if a not in (i, j)]))
            lattice *= q ** (codes[i].k * codes[j].k * rest)
    counts["expansion.pe_exact.words"] += out.codewords_scanned
    counts["expansion.pe_exact.decompositions"] += out.codewords_scanned * lattice


def _gf_hook(counts, args, out):
    counts["gf.elems"] += np.size(out)


# Field methods whose result is an array of field elements
GF_ARITHMETIC = ("add", "neg", "sub", "mul", "inv", "div", "power", "frobenius",
                 "trace", "random")


HOOKS = {
    **{f"gf.Field.{m}": _gf_hook for m in GF_ARITHMETIC},
    "linalg.matmul": _matmul_hook,
    "linalg.rref": _rref_hook,
    "decoder.berlekamp_welch": _bw_hook,
    "decoder.dec_finish": _dec_finish_hook,
    "decoder.alpha_decode": _alpha_decode_hook,
    "qdecoder.single_shot_decode": _single_shot_hook,
    "expansion.pe_exact": _pe_exact_hook,
}


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Start a new operation; later spans carry its id."""
        self.op_id += 1

    def _wrap(self, span_name: str, fn):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        hook = HOOKS.get(span_name)
        stack, counts, perf = self._open, self.counts, time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"prodcodes.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        span = f"{layer}.{attr}.{mname}"
                        if inspect.isfunction(member):
                            self._patch(obj, mname, self._wrap(span, member))
                        elif isinstance(member, staticmethod):
                            self._patch(obj, mname,
                                        staticmethod(self._wrap(span, member.__func__)))
        # rebind each wrapper wherever the original is visible by name
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "prodcodes" or name.startswith("prodcodes.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # summaries ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int_).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
                "op": np.frombuffer(self.op, dtype=np.int_).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=object).astype(str),
                            **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children nest inside their parent's interval, so this is the part of the
    span that no child covers; summing self times never double-counts.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def summarize(names: list[str], name: np.ndarray, start: np.ndarray,
              end: np.ndarray, parent: np.ndarray) -> dict:
    """Calls and self seconds per span name, per layer, and root coverage.

    Returns ``{"by_name": {name: (calls, self_s)}, "by_layer": {layer:
    (calls, self_s)}, "root_s": total duration of spans without a parent}``.
    """
    own = self_times(start, end, parent)
    calls = np.bincount(name, minlength=len(names))
    secs = np.bincount(name, weights=own, minlength=len(names))
    by_name = {n: (int(calls[i]), float(secs[i]))
               for i, n in enumerate(names) if calls[i]}
    by_layer: dict[str, tuple[int, float]] = {}
    for n, (c, s) in by_name.items():
        layer = n.split(".", 1)[0]
        c0, s0 = by_layer.get(layer, (0, 0.0))
        by_layer[layer] = (c0 + c, s0 + s)
    roots = parent < 0
    return {"by_name": by_name, "by_layer": by_layer,
            "root_s": float(np.sum(end[roots] - start[roots]))}
