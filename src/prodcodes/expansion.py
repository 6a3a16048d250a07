"""Product-expansion toolkit: exact brute-force computation at desk scale,
epsilon-closures of cell sets, and the canonical-generator rank test for
inner-generated sets.

The product-expansion of codes (C_1, ..., C_t) is the largest rho with: every
dual-tensor codeword c admits a decomposition c = c_1 + ... + c_t, c_i in
C^(i), with |c| >= rho * sum_i n_i |c_i|_i.  All exact values are reported
as Fractions of counts, never floats.

The cost is separable: each tuple (c_1, ..., c_t), c_i in C^(i), decomposes
sum_i c_i at cost sum_i n_i |c_i|_i.  So pe_exact scores each C^(i) word
once and folds the tuples into one least cost per dual-tensor codeword; the
codewords x decompositions budget bounds both the table and the tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import Field
from . import linalg as la
from .codes import BudgetExceeded, LinearCode

DEFAULT_PE_BUDGET = 2_000_000
# cells per temporary array of the tuple fold and of the lattice scan
_KERNEL_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# direction-weight and C^(i)/C^(i,j) plumbing
# ---------------------------------------------------------------------------


def dir_weights(cs: np.ndarray, i: int, lengths: tuple[int, ...]) -> np.ndarray:
    """Number of nonzero direction-i columns of each flat tensor on the last
    axis of cs; the leading axes are batch axes."""
    lead = np.shape(cs)[:-1]
    has = np.any(np.reshape(cs, lead + tuple(lengths)) != 0, axis=len(lead) + i)
    return np.count_nonzero(has.reshape(lead + (-1,)), axis=-1)


def canonical_generator(F: Field, codes: list[LinearCode]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Canonical generator matrix of the dual tensor code: the stacked
    direction-i blocks I (x) .. G_i .. (x) I.  Returns (G, row block spans)."""
    blocks = la.axis_blocks(F, [C.gen for C in codes], [C.n for C in codes])
    spans = []
    row = 0
    for b in blocks:
        spans.append((row, row + b.shape[0]))
        row += b.shape[0]
    return np.concatenate(blocks, axis=0), spans


@dataclass
class Decomposition:
    """One decomposition c = sum of parts, parts[i] in C^(i)."""

    parts: list[np.ndarray]
    lengths: tuple[int, ...]

    @property
    def column_weights(self) -> list[int]:
        return [int(dir_weights(p, i, self.lengths)) for i, p in enumerate(self.parts)]

    def to_json(self) -> dict:
        return {"parts": [[int(x) for x in p] for p in self.parts],
                "lengths": list(self.lengths),
                "column_weights": self.column_weights}


def decomposer(F: Field, G: np.ndarray, spans: list[tuple[int, int]]):
    """The function mapping a block of words cwords to a particular
    decomposition of each row, found by solving against the canonical
    generator matrix G with row block spans (row-reduced once, for every
    block): parts[i][r] lies in C^(i) and the parts of row r sum to
    cwords[r]."""
    solve = la.left_solver(F, G)

    def decompose(cwords: np.ndarray) -> list[np.ndarray]:
        X = solve(cwords)
        if X is None:
            raise ValueError("word outside the dual tensor code")
        return [la.matmul(F, X[:, a:b], G[a:b]) for a, b in spans]

    return decompose


# ---------------------------------------------------------------------------
# exact product-expansion
# ---------------------------------------------------------------------------


@dataclass
class PeResult:
    rho: Fraction              # the exact product-expansion
    exact: bool                # always True; a field of the pinned pe-exact report
    witness_word: np.ndarray | None
    witness: Decomposition | None
    codewords_scanned: int

    def to_json(self) -> dict:
        return {"rho": [self.rho.numerator, self.rho.denominator],
                "exact": self.exact,
                "witness_word": None if self.witness_word is None
                else [int(x) for x in self.witness_word],
                "witness": None if self.witness is None else self.witness.to_json(),
                "codewords_scanned": self.codewords_scanned}


def _pair_bases(F: Field, codes: list[LinearCode]) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Bases of the C^(i,j) lattices, i < j: any two decompositions of the
    same word differ exactly by such pairwise adjustments."""
    t = len(codes)
    return [((i, j), la.kron(F, *(C.gen if axis in (i, j) else la.identity(C.n)
                                  for axis, C in enumerate(codes))))
            for i in range(t) for j in range(i + 1, t)]


def _lattice_deltas(F: Field, lattice, t: int, combos: np.ndarray) -> np.ndarray:
    """The (t, len(combos), N) adjustment each given lattice combination adds
    to each part, combinations numbered in itertools.product order over the
    C^(i,j) spans: c_i picks up +z and c_j picks up -z, so the total is
    unchanged."""
    sizes = [w.shape[0] for _, w in lattice]
    deltas = np.zeros((t, combos.size, lattice[0][1].shape[1]), dtype=np.int64)
    for ((i, j), w), idx in zip(lattice, np.unravel_index(combos, sizes)):
        deltas[i] = F.add(deltas[i], w[idx])
        deltas[j] = F.sub(deltas[j], w[idx])
    return deltas


def _cheapest_decompositions(F: Field, pair_bases, lengths: tuple[int, ...],
                             parts: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Minimize the cost sum_i n_i |c_i|_i of each word's decomposition over
    the C^(i,j) lattices; parts[i] holds the base parts (W, N) of W words.
    Returns (costs, cheapest parts); ties go to the first combination in scan
    order.  pe_exact runs it on its one witness word, so the witness
    decomposition is the decomposer's base parts plus the first cheapest
    lattice combination.  Blocks of (word, combination) pairs are scored at
    once, at most _KERNEL_BLOCK candidate cells per block (one combination at
    least)."""
    # the whole span of each C^(i,j) basis as one block
    lattice = [(pair, next(la.enumerate_span(F, B, chunk=F.q ** B.shape[0]))[1])
               for pair, B in pair_bases]
    t, (W, N) = len(parts), parts[0].shape
    L = math.prod(w.shape[0] for _, w in lattice)
    step_l = max(1, min(L, _KERNEL_BLOCK // N))
    step_w = max(1, _KERNEL_BLOCK // (step_l * N))
    best_cost = np.full(W, np.iinfo(np.int64).max)
    best_l = np.zeros(W, dtype=np.int64)
    for l0 in range(0, L, step_l):
        deltas = _lattice_deltas(F, lattice, t, np.arange(l0, min(L, l0 + step_l)))
        for w0 in range(0, W, step_w):
            rows = slice(w0, w0 + step_w)
            cost = sum(lengths[i] * dir_weights(F.add(parts[i][rows, None, :], deltas[i, None]),
                                                i, lengths) for i in range(t))
            arg = np.argmin(cost, axis=1)
            low = cost[np.arange(arg.size), arg]
            better = low < best_cost[rows]
            best_cost[rows] = np.where(better, low, best_cost[rows])
            best_l[rows] = np.where(better, l0 + arg, best_l[rows])
    chosen = _lattice_deltas(F, lattice, t, best_l)
    return best_cost, [F.add(parts[i], chosen[i]) for i in range(t)]


def common_field(codes: list[LinearCode]) -> Field:
    """The one field of a non-empty list of codes; ValueError otherwise."""
    if len({c.field for c in codes}) != 1:
        raise ValueError("need one or more codes over one field")
    return codes[0].field


def pe_exact(codes: list[LinearCode], budget: int = DEFAULT_PE_BUDGET) -> PeResult:
    """Exact product-expansion by exhausting codewords and decompositions.

    The words are scanned in enumerate_span order of the rref basis against
    their least costs (_least_costs); the first least ratio |c| / cost wins,
    and the lattice scan of that one word gives its witness decomposition.
    Raises BudgetExceeded, before any work, past the budget.
    """
    F = common_field(codes)
    t = len(codes)
    lengths = tuple(c.n for c in codes)
    N = int(np.prod(lengths))
    dt_dim = N - int(np.prod([c.n - c.k for c in codes]))
    pair_bases = _pair_bases(F, codes)
    lattice_size = math.prod(F.q ** B.shape[0] for _, B in pair_bases)
    n_codewords = F.q ** dt_dim
    if n_codewords * lattice_size > budget:
        raise BudgetExceeded(
            f"pe_exact needs {n_codewords} codewords x {lattice_size} decompositions "
            f"> budget {budget}")

    if t == 1:
        d = codes[0].min_distance(budget)
        if math.isinf(d.value):
            return PeResult(Fraction(0), True, None, None, 0)
        return PeResult(Fraction(int(d.value), lengths[0]), True, None, None,
                        F.q ** codes[0].k)

    G, spans = canonical_generator(F, codes)
    dt_gen = la.row_space(F, G)
    assert dt_gen.shape[0] == dt_dim
    costs = _least_costs(F, G, spans, lengths, la.rref_pivots(dt_gen))
    best = (Fraction(0), None)
    start = 0
    for _, words in la.enumerate_span(F, dt_gen, chunk=512):
        block = costs[start:start + len(words)]
        start += len(words)
        nonzero = np.any(words, axis=1)
        if nonzero.any():
            best = _first_min_ratio(best, words[nonzero], block[nonzero])
    ratio, word = best
    witness = None
    if word is not None:
        _, parts = _cheapest_decompositions(F, pair_bases, lengths,
                                            decomposer(F, G, spans)(word[None]))
        witness = Decomposition([p[0] for p in parts], lengths)
    return PeResult(ratio, True, word, witness, n_codewords - 1)


def _least_costs(F: Field, G: np.ndarray, spans: list[tuple[int, int]],
                 lengths: tuple[int, ...], pivots: list[int]) -> np.ndarray:
    """The least cost sum_i n_i |c_i|_i over the tuples (c_1, ..., c_t),
    c_i in C^(i), that sum to each dual-tensor word, as an int32 table in
    enumerate_span order of the rref basis with pivot columns pivots: a
    word's index is its mixed-radix coordinates, its entries on the pivot
    columns.  A cost is at most t * N."""
    N = G.shape[1]
    D = len(pivots)
    radix = F.q ** np.arange(D, dtype=np.int64)
    # every C^(i) word once: its cost n_i |c_i|_i and its index, one int64
    # per word; the fold unpacks the coordinates a block at a time
    dirs = []
    for i, (a, b) in enumerate(spans):
        blocks = [(w[:, pivots] @ radix,
                   (lengths[i] * dir_weights(w, i, lengths)).astype(np.int32))
                  for _, w in la.enumerate_span(F, G[a:b], chunk=max(1, _KERNEL_BLOCK // N))]
        dirs.append([np.concatenate(x) for x in zip(*blocks)])
    table = np.full(F.q ** D, np.iinfo(np.int32).max, dtype=np.int32)

    def fold(coords, cost, rest):
        # each tuple (c_1, ..., c_t) decomposes sum c_i at cost sum n_i |c_i|_i:
        # extend the tuples so far by the next direction's words, a block of
        # at most _KERNEL_BLOCK coordinate cells at a time
        if not rest:
            np.minimum.at(table, coords @ radix, cost)
            return
        (idx, w), rest = rest[0], rest[1:]
        step = max(1, _KERNEL_BLOCK // (len(cost) * max(1, D)))
        for s in range(0, len(w), step):
            c = idx[s:s + step, None] // radix % F.q
            joined = (cost[:, None] + w[None, s:s + step]).ravel()
            fold(F.add(coords[:, None], c[None]).reshape(joined.size, D), joined, rest)

    fold(np.zeros((1, D), dtype=np.int64), np.zeros(1, dtype=np.int32), dirs)
    return table


def _first_min_ratio(best, words, costs):
    """Fold the block's first minimal ratio |word| / cost, in scan order, into
    best = (ratio, word); a best without a word loses to any ratio."""
    wts = np.count_nonzero(words, axis=1)
    r = int(np.argmin(wts / costs))
    # the float argmin is a guess: step to strictly smaller ratios, exactly,
    # then back to the first equal one
    while (smaller := wts * costs[r] < wts[r] * costs).any():
        r = int(np.argmax(smaller))
    r = int(np.argmax(wts * costs[r] == wts[r] * costs))
    ratio = Fraction(int(wts[r]), int(costs[r]))
    if best[1] is None or ratio < best[0]:
        best = (ratio, words[r].copy())
    return best


# ---------------------------------------------------------------------------
# epsilon-closure and inner-generated sets
# ---------------------------------------------------------------------------


def epsilon_closure(lengths: tuple[int, ...], cells: np.ndarray, eps: float) -> np.ndarray:
    """Minimal superset of the boolean cell array in which every direction-i
    column is either fully contained or meets it in < eps * n_i cells."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    A = np.asarray(cells, dtype=bool).reshape(lengths).copy()
    t = len(lengths)
    base = int(A.sum())
    changed = True
    while changed:
        changed = False
        for i in range(t):
            count = A.sum(axis=i)
            grow = (count >= eps * lengths[i]) & (count < lengths[i])
            if np.any(grow):
                expand = np.expand_dims(grow, axis=i)
                A |= np.broadcast_to(expand, A.shape)
                changed = True
    assert A.sum() <= closure_size_bound(t, eps, base) or base == 0
    return A


def closure_size_bound(t: int, eps: float, base_size: int) -> float:
    return ((2 ** t + 1) / eps) ** t * base_size


def inner_generated_test(codes: list[LinearCode], cells: np.ndarray) -> bool:
    """Canonical-generator rank test: the cell set is inner-generated iff
    rank(G|_{B(A) x A}) = rank(G) - rank(G restricted off A)."""
    F = common_field(codes)
    lengths = tuple(c.n for c in codes)
    A = np.asarray(cells, dtype=bool).reshape(lengths)
    flatA = A.ravel()
    G, spans = canonical_generator(F, codes)
    # rows whose direction-i column lies entirely inside A
    row_mask = np.zeros(G.shape[0], dtype=bool)
    for i, (a, b) in enumerate(spans):
        col_full = np.all(A, axis=i)
        k_i = codes[i].k
        # row order of block i matches I x .. G_i .. x I: axes in order with
        # the generator index replacing axis i
        shape = list(lengths)
        shape[i] = k_i
        block_mask = np.broadcast_to(np.expand_dims(col_full, axis=i), shape)
        row_mask[a:b] = block_mask.ravel()
    r_full = la.rank(F, G)
    r_off = la.rank(F, G[:, ~flatA])
    r_sub = la.rank(F, G[np.ix_(row_mask, flatA)])
    return r_sub == r_full - r_off

