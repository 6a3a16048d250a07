"""Dense exact linear algebra over a Field.

All functions take the field first and operate on numpy int64 arrays of
element codes.  Row reduction uses a fixed deterministic pivot rule (first
nonzero entry scanning columns left to right, rows top to bottom) so that
every basis this module produces is bit-reproducible.

Two kernels skip reductions and rely on exactness bounds:

- ``matmul`` multiplies every field but char 2 with e > 1 in float64
  through BLAS, on digits over GF(p).  An element of GF(p^e) is its e
  digits (coefficients of 1, X, ..., X^(e-1)), and digits(a * b) =
  digits(a) @ M_b mod p, where row i of the e x e block M_b holds the
  digits of X^i * b.  So A @ B is the GF(p) product of the (m, k*e) digit
  matrix of A and the (k*e, n*e) block matrix of B, packed back into codes;
  prime fields are their own digits.  Integers below 2^53 are exact in
  float64, so the k*e digit terms are cut into blocks of at most s terms
  with (p-1) + s * (p-1)^2 < 2^53 (8192 terms at p = 1048573); each block
  is reduced exactly with int64 ``%`` and summed in int64.
- ``rref`` adds each pivot's updates without ``%``: one pivot adds at most
  (p-1)^2 to an entry, so entries stay below p + min(m, n) * (p-1)^2, under
  2^63 for any matrix of fewer than 2^46 entries at p < 2^20, and the int64
  block is reduced once at the end.

``min_weight_search`` is the one exhaustive minimum-weight search: for each
offset v it scans span(basis) in ``enumerate_span``'s mixed-radix order and
returns the least weight of v + w and the first w that reaches it, so ties
go to the word with the smallest mixed-radix index.  Given a parity matrix
P of a subspace X, it counts only the w with P w != 0, i.e. outside X.  It
holds one chunk of span words and at most one chunk of candidate words
v + w at a time, never the whole span.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import Field

_MATMUL_BLOCK = 1 << 22
_SPAN_CHUNK = 1 << 14


def matmul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matrix product over F.

    Char 2 with e > 1 sums table products with F.sum, the inner index
    blocked so that a block of products holds at most _MATMUL_BLOCK entries
    (or one inner index, when m * n alone is more); every other field runs
    one float64 BLAS product per block of digit terms (see the module
    docstring), rows and the inner dimension blocked so that no block of
    digits of A or B, nor their product, holds more than _MATMUL_BLOCK
    entries."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    if k == 0 or m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int64)
    p, e = F.p, F.e
    if p == 2 and e > 1:
        out = None
        step = max(1, _MATMUL_BLOCK // (m * n))
        for i in range(0, k, step):
            blk = F.sum(F.mul(A[:, i:i + step, None], B[None, i:i + step, :]), axis=1)
            out = blk if out is None else F.add(out, blk)
        return out
    # a block of step elements is step * e digit terms, each at most (p-1)^2,
    # so its float64 sum stays exact below 2^53; the digits of a block of A
    # (rows, step * e), of B (step * e, n * e) and their product (rows, n * e)
    # each hold at most _MATMUL_BLOCK entries
    rows = min(m, max(1, _MATMUL_BLOCK // (n * e)))
    step = max(1, min(((1 << 53) - p) // (p - 1) ** 2 // e,
                      _MATMUL_BLOCK // (max(rows, n) * e * e)))
    chunks = []
    for r in range(0, m, rows):
        acc = None
        for i in range(0, k, step):
            a, b = A[r:r + rows, i:i + step], B[i:i + step]
            if e > 1:
                # (kb, e, n, e): entry [c, i, j, l] is digit l of X^i * B[c, j]
                a = F._digits(a)
                b = F._digits(F.mul(b[:, None, :], F._powers[:, None]))
            blk = a.reshape(len(a), -1).astype(np.float64) @ b.reshape(-1, n * e).astype(np.float64)
            blk = blk.astype(np.int64)
            acc = blk % p if acc is None else (acc + blk) % p
        chunks.append(acc if e == 1 else acc.reshape(-1, n, e) @ F._powers)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def matvec(F: Field, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return matmul(F, A, np.asarray(x, dtype=np.int64).reshape(-1, 1))[:, 0]


def rref(F: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Odd prime fields delay the reduction: the other rows get
    (p - f) * pivot_row added with no %, and only the pivot column, the
    pivot row and, at the end, the whole block are reduced (the int64 bound
    is in the module docstring).  Other fields subtract the products with
    F.sub.
    """
    R = np.atleast_2d(np.asarray(M, dtype=np.int64)).copy()
    m, n = R.shape
    p = F.p
    delayed = F.e == 1 and p != 2
    assert not delayed or min(m, n) * (p - 1) ** 2 < (1 << 63) - p
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = R[:, c] % p if delayed else R[:, c].copy()
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
            col[[r, pr]] = col[[pr, r]]
        # rows r.. vanish (mod p) left of c, so the pivot row is R[r, c:]
        row = R[r, c:]
        inv = int(F._inv[col[r]])
        if delayed:
            row[:] = row % p * inv % p
        elif inv != 1:
            row[:] = F.mul(row, inv)
        col[r] = 0
        rows = col.nonzero()[0]
        if rows.size:
            f = col[rows, None]
            if delayed:
                R[rows, c:] += (p - f) * row
            else:
                R[rows, c:] = F.sub(R[rows, c:], F.mul(f, row))
        pivots.append(c)
        r += 1
    if delayed:
        R %= p
    return R, pivots


def rank(F: Field, M: np.ndarray) -> int:
    return len(rref(F, M)[1])


def row_space(F: Field, M: np.ndarray) -> np.ndarray:
    """Full-rank basis of the row space, in rref form."""
    R, piv = rref(F, M)
    return R[: len(piv)]


def right_kernel(F: Field, M: np.ndarray) -> np.ndarray:
    """Basis (as rows) of {x : M x = 0}."""
    return rref_kernel(F, *rref(F, M))


def rref_pivots(M: np.ndarray) -> list[int] | None:
    """The leading columns of M when M is in rref with no zero row, else
    None: leading columns strictly increase and M is the identity on them."""
    if M.shape[0] == 0:
        return []
    nz = M != 0
    if not nz.any(axis=1).all():
        return None
    piv = nz.argmax(axis=1)
    if np.any(np.diff(piv) <= 0) or not np.array_equal(M[:, piv], identity(len(piv))):
        return None
    return piv.tolist()


def rref_kernel(F: Field, R: np.ndarray, piv: list[int]) -> np.ndarray:
    """right_kernel from a matrix already in rref with pivot columns piv: the
    basis is the identity on the free columns."""
    n = R.shape[1]
    free = np.ones(n, dtype=bool)
    free[piv] = False
    basis = np.zeros((int(free.sum()), n), dtype=np.int64)
    basis[np.arange(basis.shape[0]), free] = 1
    basis[:, piv] = F.neg(R[: len(piv), free].T)
    return basis


def solve_right(F: Field, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Deterministic particular solution of A x = b, or None if inconsistent.

    Free coordinates are set to zero (the pivot-ordered particular solution).
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64)
    squeeze = b.ndim == 1
    B = b[:, None] if squeeze else b
    aug = np.concatenate([A, B], axis=1)
    R, piv = rref(F, aug)
    n = A.shape[1]
    for c in piv:
        if c >= n:
            return None
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(piv):
        X[c] = R[r, n:]
    return X[:, 0] if squeeze else X


def left_solver(F: Field, A: np.ndarray):
    """Solve x A = b (row-vector convention) for many right-hand sides
    against one A, row-reducing A once: the returned function maps rows b
    (2-D) to the solution rows x that solve_right(F, A^T, b^T)^T gives, or
    None if some row is outside the row space of A.  rref([A^T | I]) stores
    the transform P with P A^T in rref; P b^T then holds the pivot
    coordinates and, below the rank, zeros exactly when the system is
    consistent."""
    At = np.atleast_2d(np.asarray(A, dtype=np.int64)).T
    m, n = At.shape
    R, piv = rref(F, np.concatenate([At, identity(m)], axis=1))
    pivots = [c for c in piv if c < n]
    P = R[:, n:].copy()

    def solve(b: np.ndarray) -> np.ndarray | None:
        Y = matmul(F, P, np.atleast_2d(np.asarray(b, dtype=np.int64)).T)
        if Y[len(pivots):].any():
            return None
        X = np.zeros((n, Y.shape[1]), dtype=np.int64)
        X[pivots] = Y[: len(pivots)]
        return X.T

    return solve


def complete_basis(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The rows of B outside the span of A and of the earlier rows of B, in
    order: row i is picked when column len(A) + i of rref([A; B]^T) is a
    pivot.  They extend rowspace(A) to rowspace(A) + rowspace(B)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    _, piv = rref(F, np.concatenate([A, B], axis=0).T)
    return B[[c - A.shape[0] for c in piv if c >= A.shape[0]]]


def row_space_contains(F: Field, A: np.ndarray, B: np.ndarray) -> bool:
    """True iff rowspace(B) is contained in rowspace(A)."""
    return complete_basis(F, A, B).shape[0] == 0


# the same test for one vector v (a 1-D row)
in_row_space = row_space_contains


def row_space_intersection(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Full-rank basis, in rref, of rowspace(A) intersect rowspace(B), by
    Zassenhaus's algorithm: the rows of rref([[A, A], [B, 0]]) with a pivot
    in the right half are zero on the left half and the basis on the right."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    n = A.shape[1]
    R, piv = rref(F, np.block([[A, A], [B, np.zeros_like(B)]]))
    left = sum(c < n for c in piv)
    return R[left:len(piv), n:].copy()


def locality(*mats: np.ndarray) -> int:
    """The largest row or column weight over the matrices (0 when they hold
    no entries)."""
    return max((int(np.count_nonzero(M, axis=axis).max())
                for M in mats if M.size for axis in (0, 1)), default=0)


def kron(F: Field, *mats: np.ndarray) -> np.ndarray:
    """Kronecker product over F of one or more matrices, folded left to
    right (row-major tensor index convention).  Column (i_1, ..., i_t)
    counted from the end is column (n_1 - 1 - i_1, ..., n_t - 1 - i_t), so
    kron(A, B)[:, ::-1] = kron(A[:, ::-1], B[:, ::-1])."""
    out = np.atleast_2d(np.asarray(mats[0], dtype=np.int64))
    for B in mats[1:]:
        B = np.atleast_2d(np.asarray(B, dtype=np.int64))
        out = F.mul(out[:, None, :, None], B[None, :, None, :]).reshape(
            out.shape[0] * B.shape[0], out.shape[1] * B.shape[1])
    return out


def axis_blocks(F: Field, mats: list[np.ndarray], lengths: list[int]) -> list[np.ndarray]:
    """I (x) ... (x) mats[i] (x) ... (x) I for each axis i, the identities
    of the lengths before and after axis i.  Since I_a (x) I_b = I_ab and
    F.mul by 0 and 1 is exact, each block equals the fold of kron over one
    identity per other axis."""
    return [kron(F, identity(math.prod(lengths[:i])), M, identity(math.prod(lengths[i + 1:])))
            for i, M in enumerate(mats)]


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def enumerate_span(F: Field, basis: np.ndarray, chunk: int = _SPAN_CHUNK):
    """Yield (coeff_block, vector_block) covering every F-combination of the
    basis rows exactly once.  Deterministic mixed-radix order."""
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    k = basis.shape[0]
    total = F.q ** k
    radix = F.q ** np.arange(k, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coefs = (idx[:, None] // radix[None, :]) % F.q
        yield coefs, matmul(F, coefs, basis)


def min_weight_search(F: Field, basis: np.ndarray, offsets: np.ndarray,
                      exclude: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each row v of offsets, the least weight of v + w over the w in
    span(basis) and the first such w in enumerate_span's order.  With
    exclude, a parity matrix of a subspace, only the w with exclude @ w != 0
    count.  A row with no w counted gets weight n + 1 and the zero word.
    Offsets are scored in groups of at most _SPAN_CHUNK candidate words per
    block of span words."""
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    offsets = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
    n = offsets.shape[1]
    weights = np.full(offsets.shape[0], n + 1, dtype=np.int64)
    words = np.zeros_like(offsets)
    if exclude is not None:
        # w = coefs @ basis has exclude @ w = 0 iff coefs is orthogonal to the
        # columns of basis @ exclude^T, i.e. to a basis of their span
        test = row_space(F, matmul(F, basis, np.asarray(exclude, dtype=np.int64).T).T).T
    for coefs, span in enumerate_span(F, basis):
        outside = None if exclude is None else matmul(F, coefs, test).any(axis=1)
        step = max(1, _SPAN_CHUNK // len(span))
        for o in range(0, len(offsets), step):
            wt = np.count_nonzero(F.add(offsets[o:o + step, None], span[None]), axis=2)
            if outside is not None:
                wt[:, ~outside] = n + 1
            arg = wt.argmin(axis=1)
            low = wt[np.arange(arg.size), arg]
            better = low < weights[o:o + step]
            weights[o:o + step][better] = low[better]
            words[o:o + step][better] = span[arg[better]]
    return weights, words
