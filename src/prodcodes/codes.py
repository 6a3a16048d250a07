"""Classical linear codes and the product constructions applied to them:
Reed-Solomon and multivariate evaluation codes, duals, tensor and dual-tensor
products, star products, MDS and distance checks, and a Monte-Carlo local
testability estimator.

A LinearCode is an immutable row space.  Generator matrices are stored in
reduced row echelon form so that equal subspaces have identical generators;
a generator already in that form is kept as given.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dfield
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .gf import Field
from . import linalg as la
from .rng import stream

DEFAULT_DISTANCE_BUDGET = 2_000_000
# largest coset span ltc_soundness_estimate minimizes exactly
SOUNDNESS_COSET_BUDGET = 200_000
# generator pairs one star_span may form before it refuses
PAIR_CAP = 2_000_000


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive computation would exceed its budget."""


@dataclass(frozen=True)
class DistanceResult:
    value: float  # int, or math.inf for the zero code
    exact: bool
    method: str


class LinearCode:
    """A k-dimensional subspace of F^n carried as an rref generator matrix
    gen with leading columns pivots; a generator already in rref is kept,
    any other is reduced once."""

    def __init__(self, field: Field, n: int, gen: np.ndarray, label: str = ""):
        gen = np.asarray(gen, dtype=np.int64).reshape(-1, n)
        if np.any(gen < 0) or np.any(gen >= field.q):
            raise ValueError("generator entries outside field")
        self.field = field
        self.n = int(n)
        self.pivots = la.rref_pivots(gen)
        if self.pivots is None:
            gen, self.pivots = la.rref(field, gen)
            self.gen = gen[: len(self.pivots)]
        else:
            self.gen = gen.copy()
        self.gen.setflags(write=False)
        self.label = label
        self._dual: LinearCode | None = None

    # basic parameters ------------------------------------------------------

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"LinearCode[{self.n},{self.k}]_{self.field.q}{tag}"

    # subspace relations ----------------------------------------------------

    def dual(self) -> "LinearCode":
        if self._dual is None:
            ker = la.rref_kernel(self.field, self.gen, self.pivots)
            self._dual = LinearCode(self.field, self.n, ker, label=f"dual({self.label})")
            self._dual._dual = self
        return self._dual

    def parity_check(self) -> np.ndarray:
        """Full-rank parity-check matrix (lazily computed as the dual basis)."""
        return self.dual().gen

    def same_subspace(self, other: "LinearCode") -> bool:
        return (self.field == other.field and self.n == other.n
                and self.gen.shape == other.gen.shape
                and bool(np.array_equal(self.gen, other.gen)))

    def codeword(self, message: np.ndarray) -> np.ndarray:
        return la.matmul(self.field, np.atleast_2d(message), self.gen)[0]

    # metrics -----------------------------------------------------------------

    def min_distance(self, budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
        """Exact distance by enumerating the q^k codewords; BudgetExceeded
        when that count exceeds budget."""
        F = self.field
        if self.k == 0:
            return DistanceResult(math.inf, True, "zero-code")
        count = F.q ** self.k
        if count > budget:
            raise BudgetExceeded(f"min_distance needs {count} codewords > budget {budget}")
        w, _ = la.min_weight_search(F, self.gen, np.zeros((1, self.n), dtype=np.int64),
                                    exclude=la.identity(self.n))
        return DistanceResult(int(w[0]), True, "enumeration")

    def is_mds(self) -> bool:
        """True iff distance equals n-k+1, as it is for the dual.  Tests the
        smaller of code/dual by exhaustive maximal minors when there are at
        most 10^6 of them, otherwise by its exact distance; BudgetExceeded
        when its q^k exceeds DEFAULT_DISTANCE_BUDGET too."""
        side = self if self.k <= self.n - self.k else self.dual()
        if math.comb(side.n, side.k) <= 1_000_000:
            F = side.field
            for cols in itertools.combinations(range(side.n), side.k):
                if la.rank(F, side.gen[:, list(cols)]) < side.k:
                    return False
            return True
        if side.field.q ** side.k > DEFAULT_DISTANCE_BUDGET:
            raise BudgetExceeded("is_mds: neither minors nor enumeration feasible")
        return side.min_distance().value == side.n - side.k + 1

    # serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "field": self.field.to_json(),
            "n": self.n,
            "k": self.k,
            "gen": [int(x) for x in self.gen.ravel()],
            "label": self.label,
        }
        if isinstance(self, ReedSolomon):
            doc["rs"] = {"k": self.rs_dim, "points": [int(x) for x in self.points]}
        return doc

    @staticmethod
    def from_json(doc: dict) -> "LinearCode":
        """The code of a serialized document; a malformed one raises
        ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"a code must be a JSON object, got {doc!r}")
        F = Field.from_json(doc["field"])
        n, k, gen, label = doc["n"], doc["k"], doc["gen"], doc.get("label", "")
        # type(...) is int: JSON true/false are not integers here
        if not (type(n) is int and n >= 1):
            raise ValueError(f"code n must be a positive integer, got {n!r}")
        if not (type(k) is int and k >= 0):
            raise ValueError(f"code k must be a non-negative integer, got {k!r}")
        if not (_int_list(gen) and len(gen) == k * n):
            raise ValueError(f"code gen must be a flat list of k*n = {k * n} integers")
        if not isinstance(label, str):
            raise ValueError(f"code label must be a string, got {label!r}")
        gen = np.array(gen, dtype=np.int64).reshape(k, n)
        if "rs" in doc:
            rs = doc["rs"]
            if not (isinstance(rs, dict) and type(rs.get("k")) is int
                    and _int_list(rs.get("points"))):
                raise ValueError(f"code rs must be {{k: int, points: [int]}}, got {rs!r}")
            code = ReedSolomon(F, n, rs["k"], np.array(rs["points"], dtype=np.int64),
                               label=label)
            if not np.array_equal(code.gen, gen):
                raise ValueError("serialized RS generator does not match its points")
            return code
        code = LinearCode(F, n, gen, label=label)
        if code.k != k:
            raise ValueError(f"code gen has rank {code.k}, not k = {k}")
        return code


def _int_list(x) -> bool:
    return isinstance(x, list) and all(type(v) is int for v in x)


def zero_code(F: Field, n: int) -> LinearCode:
    return LinearCode(F, n, np.zeros((0, n), dtype=np.int64), label="zero")


# ---------------------------------------------------------------------------
# evaluation codes
# ---------------------------------------------------------------------------


def canonical_points(F: Field, n: int) -> np.ndarray:
    """First n field elements in the canonical order 0, 1, g, g^2, ..."""
    if n > F.q:
        raise ValueError(f"cannot choose {n} distinct points in GF({F.q})")
    return F.element_order()[:n]


def vandermonde(F: Field, points: np.ndarray, k: int) -> np.ndarray:
    """n x k matrix with entry (i, j) = points[i]^j."""
    return F.power(np.asarray(points, dtype=np.int64)[:, None], np.arange(k)[None, :])


def monomial_eval_matrix(F: Field, points: np.ndarray,
                         exponents: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Rows = evaluations of the monomials X^a on the given points.

    points has shape (N, t); exponents is a sequence of length-t tuples.
    Row a is the product over j of column a_j of vandermonde(points[:, j]).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    expo = np.array(exponents, dtype=np.int64).reshape(len(exponents), points.shape[1])
    return reduce(F.mul, [vandermonde(F, x, int(d.max(initial=0)) + 1).T[d]
                          for x, d in zip(points.T, expo.T)])


class ReedSolomon(LinearCode):
    """RS code: evaluations of polynomials of degree < k on distinct points."""

    def __init__(self, field: Field, n: int, k: int, points: np.ndarray, label: str = ""):
        if not 0 <= k <= n <= field.q:
            raise ValueError(f"need 0 <= k <= n <= q, got k={k} n={n} q={field.q}")
        points = np.asarray(points, dtype=np.int64)
        if points.size != n or np.unique(points).size != n or \
                np.any(points < 0) or np.any(points >= field.q):
            raise ValueError("evaluation points must be n distinct field elements")
        gen = vandermonde(field, points, k).T
        super().__init__(field, n, gen, label=label or f"RS({n},{k})")
        self.points = points
        self.rs_dim = k


def rs_code(F: Field, n: int, k: int, points: np.ndarray | None = None) -> ReedSolomon:
    if points is None:
        points = canonical_points(F, n)
    return ReedSolomon(F, n, k, points)


@dataclass
class EvalCode:
    """Multivariate evaluation code ev_S(F[X_1..X_t]^A) with its metadata."""

    base: LinearCode
    points: np.ndarray          # (n, t)
    exponent_set: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dim(self) -> int:
        return self.base.k


def eval_code(F: Field, points: np.ndarray,
              exponents: Iterable[tuple[int, ...]], label: str = "") -> EvalCode:
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    exponents = tuple(tuple(int(x) for x in e) for e in exponents)
    t = points.shape[1]
    if any(len(e) != t for e in exponents):
        raise ValueError("exponent arity does not match point arity")
    gen = monomial_eval_matrix(F, points, exponents)
    code = LinearCode(F, points.shape[0], gen, label=label or f"ev[{len(exponents)} monomials]")
    return EvalCode(code, points, exponents)


def box_exponents(lo: int, hi: int, u: int) -> tuple[tuple[int, ...], ...]:
    """The exponent box [lo, hi)^u in lexicographic order."""
    return tuple(itertools.product(range(lo, hi), repeat=u))


def distinct_points(F: Field, n: int, u: int, rng: np.random.Generator) -> np.ndarray:
    """n distinct points of F^u, drawn independently with collision rejection."""
    if n > F.q ** u:
        raise ValueError(f"F^{u} has {F.q ** u} < {n} points")
    seen: set[tuple[int, ...]] = set()
    rows = []
    while len(rows) < n:
        cand = tuple(int(x) for x in rng.integers(0, F.q, size=u))
        if cand not in seen:
            seen.add(cand)
            rows.append(cand)
    return np.array(rows, dtype=np.int64)


def error_vector(F: Field, n: int, weight: int, rng: np.random.Generator) -> np.ndarray:
    """A random error of the given weight in F^n: the support is the first
    weight entries of rng.permutation(n), the values nonzero draws."""
    e = np.zeros(n, dtype=np.int64)
    if weight:
        support = rng.permutation(n)[:weight]  # drawn before the values
        e[support] = F.random(rng, weight, nonzero=True)
    return e


def punctured_tensor_rs(F: Field, m: int, u: int, k: int, seed: int) -> EvalCode:
    """Evaluation code of the box [0, k)^u on n = m^u points of F^u.

    The points are a uniformly random subset without replacement drawn from
    the given seed (Fisher-Yates over an enumeration of F^u when that fits
    in memory, otherwise independent draws with collision rejection).
    """
    if not 1 <= k < m <= F.q or u < 1:
        raise ValueError("need 1 <= k < m <= q and u >= 1")
    n = m ** u
    rng = stream(seed)
    if F.q ** u <= 1 << 22:
        grid = np.array(list(itertools.product(range(F.q), repeat=u)), dtype=np.int64)
        points = grid[rng.permutation(grid.shape[0])[:n]]
    else:
        points = distinct_points(F, n, u, rng)
    return eval_code(F, points, box_exponents(0, k, u),
                     label=f"ptRS(m={m},u={u},k={k})")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def tensor(*codes: LinearCode) -> LinearCode:
    """Tensor code of one or more codes: generator = Kronecker product of
    the generators.

    The Kronecker product of rref matrices is again rref (pivot columns
    combine), so no re-reduction is needed.
    """
    F = codes[0].field
    if any(C.field != F for C in codes):
        raise ValueError("field mismatch")
    n = math.prod(C.n for C in codes)
    if any(C.k == 0 for C in codes):
        return zero_code(F, n)
    gen = la.kron(F, *(C.gen for C in codes))
    return LinearCode(F, n, gen, label="(x)".join(C.label for C in codes))


def dual_tensor(C1: LinearCode, C2: LinearCode) -> LinearCode:
    """C1 [+] C2 = (C1_dual tensor C2_dual)_dual."""
    out = tensor(C1.dual(), C2.dual()).dual()
    out.label = f"{C1.label}[+]{C2.label}"
    return out


def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    seen: set[bytes] = set()
    keep = []
    for i in range(rows.shape[0]):
        key = rows[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return rows[keep]


def _pair_products(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All products A[i] * B[j], i-major, built about 2^20 entries at a time."""
    n = A.shape[1]
    out = []
    step = max(1, (1 << 20) // max(1, B.shape[0] * n))
    for i in range(0, A.shape[0], step):
        block = F.mul(A[i:i + step, None, :], B[None, :, :])
        out.append(block.reshape(-1, n))
    return np.concatenate(out, axis=0)


def star_span(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Spanning rows of span(A) * span(B): pairwise products, duplicates
    collapsed, compressed to a row basis when they outgrow the ambient
    dimension.  Refuses (BudgetExceeded) past PAIR_CAP generator pairs."""
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    if A.shape[0] * B.shape[0] > PAIR_CAP:
        raise BudgetExceeded(
            f"star product with {A.shape[0] * B.shape[0]} generator pairs exceeds cap")
    rows = _dedup_rows(_pair_products(F, A, B))
    rows = rows[np.any(rows, axis=1)]
    if rows.shape[0] > A.shape[1]:
        rows = la.row_space(F, rows)
    return rows


# ---------------------------------------------------------------------------
# local testability estimator
# ---------------------------------------------------------------------------


@dataclass
class SoundnessEstimate:
    rho_hat: float
    trials: int
    used_exact_coset_min: bool
    methodology: str
    samples: list = dfield(default_factory=list)


def ltc_soundness_estimate(F: Field, H: np.ndarray, trials: int,
                           seed: int) -> SoundnessEstimate:
    """Empirical upper estimate of the soundness rho of the check matrix H.

    rho <= (|He|/m) / (|e*|/n) for the minimal-weight e* in e + ker(H); the
    minimum is taken over sampled errors.  The coset minimum is computed
    exactly when q^dim(ker H) <= SOUNDNESS_COSET_BUDGET, otherwise the
    injected weight stands in (making the estimate an upper bound only for
    coset-minimal injections; flagged in the methodology note).
    """
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    m, n = H.shape
    ker = la.right_kernel(F, H)
    exact = F.q ** ker.shape[0] <= SOUNDNESS_COSET_BUDGET
    rng = stream(seed)
    errors, syn_ws = [], []
    while len(errors) < trials:
        e = error_vector(F, n, int(rng.integers(1, n + 1)), rng)
        syn_w = int(np.count_nonzero(la.matvec(F, H, e)))
        if syn_w == 0:
            continue  # e lies in the code: coset minimum is 0, ratio undefined
        errors.append(e)
        syn_ws.append(syn_w)
    errors = np.array(errors, dtype=np.int64).reshape(-1, n)
    ews = la.min_weight_search(F, ker, errors)[0] if exact else np.count_nonzero(errors, axis=1)
    samples = [(int(ew), syn_w, (syn_w / m) / (int(ew) / n)) for ew, syn_w in zip(ews, syn_ws)]
    best = min((r for *_, r in samples), default=math.inf)
    note = ("exact coset minimization" if exact
            else "injected-weight approximation (upper bound only for coset-minimal errors)")
    return SoundnessEstimate(best, trials, exact, note, samples)
