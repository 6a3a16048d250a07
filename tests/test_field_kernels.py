"""Table-driven field kernels against the log/exp and int64 bodies they replaced.

The reference functions below are the earlier `Field.mul`, `Field.inv`,
`linalg.matmul` (its odd p^e branch adds the terms one at a time) and
`linalg.rref`, the exp/log table loop, digit negation, and the earlier
field construction (`Field._mul_raw`, `min_primitive_root`, the generator
rule, the canonical-modulus search and `Field.of_order`'s trial loop), kept
verbatim in behaviour: the fast paths must return bit-identical arrays (the
rref of a matrix is unique)."""

import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodcodes import linalg as la
from prodcodes.codes import vandermonde
from prodcodes import gf
from prodcodes.gf import (GF, MUL_TABLE_MAX_ORDER, Field, _ppowmod, _prem, _prime_factors,
                          canonical_modulus, is_irreducible)

# both sides of the multiplication-table cut, odd extensions, primes, and
# the two large fields the transversal and BLAS paths use
FIELD_ORDERS = [2, 4, 8, 9, 16, 49, 97, 243, 256, 512, 3 ** 6, 1 << 17, 1048573]


def ref_mul_raw(F, a: int, b: int) -> int:
    """Table-free multiply of two element codes."""
    p, e = F.p, F.e
    if p == 2:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> e & 1:
                a ^= F._modmask
        return r
    da = [(a // p ** i) % p for i in range(e)]
    db = [(b // p ** i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    red = _prem(prod, F.modulus, p)
    return sum(c * p ** i for i, c in enumerate(red))


def ref_exp_log(F):
    """The exp/log tables filled one power at a time with table-free
    multiplies."""
    q = F.q
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v = ref_mul_raw(F, v, F.generator)
    exp[q - 1:] = exp[: q - 1]
    return exp, log


def ref_of_order(q):
    """(p, e) with p^e = q, by trial division up to q."""
    n, p = q, None
    for d in range(2, q + 1):
        if n % d == 0:
            p = d
            break
    if p is None:
        raise ValueError("q must be >= 2")
    e = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        e += 1
    return p, e


def ref_min_primitive_root(p):
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors):
            return g
    raise RuntimeError("no primitive root")


def ref_x_is_primitive(f, p, q):
    if q == 2:
        return True
    return all(_ppowmod((0, 1), (q - 1) // ell, f, p) != (1,) for ell in _prime_factors(q - 1))


def ref_canonical_modulus(p, e):
    """The first monic f (non-leading coefficients in mixed-radix order)
    that is irreducible, not divisible by X, and has X primitive."""
    for code in range(p ** e):
        f = tuple(code // p ** i % p for i in range(e)) + (1,)
        if f[0] and is_irreducible(f, p) and ref_x_is_primitive(f, p, p ** e):
            return f


def ref_generator(F):
    """The smallest primitive root when e = 1; X when the modulus is
    primitive, else the smallest code whose _mul_raw powers generate."""
    p, e, q = F.p, F.e, F.q
    if e == 1:
        return ref_min_primitive_root(p)
    if ref_x_is_primitive(F.modulus, p, q):
        return p

    def power(b, n):
        t = 1
        while n:
            if n & 1:
                t = ref_mul_raw(F, t, b)
            b = ref_mul_raw(F, b, b)
            n >>= 1
        return t
    factors = _prime_factors(q - 1)
    return next(c for c in range(2, q) if all(power(c, (q - 1) // ell) != 1 for ell in factors))


def ref_mul_const(F, a, c):
    """Array-by-constant multiply, the odd p^e digit matrix built from
    _mul_raw products."""
    p, e = F.p, F.e
    if e == 1:
        return a * c % p
    if p == 2:
        out = np.zeros_like(a)
        a = a.copy()
        while c:
            if c & 1:
                out ^= a
            c >>= 1
            a <<= 1
            a ^= (a >> e & 1) * F._modmask
        return out
    M = F._digits([ref_mul_raw(F, p ** i, c) for i in range(e)])
    return F._undigits(F._digits(a) @ M % p)


def ref_tables(F):
    """Generator and exp/log/inv tables by doubling, as the field built them
    with _mul_raw and min_primitive_root."""
    q, g = F.q, ref_generator(F)
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    exp[0] = 1
    k = 1
    while k < q - 1:
        m = min(k, q - 1 - k)
        exp[k:k + m] = ref_mul_const(F, exp[:m], ref_mul_raw(F, int(exp[k - 1]), g))
        k += m
    exp[q - 1:] = exp[: q - 1]
    log = np.full(q, -1, dtype=np.int64)
    log[exp[: q - 1]] = np.arange(q - 1, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
    return g, exp, log, inv


def ref_neg(F, a):
    """Digit-wise negation of element codes."""
    return F._undigits((-F._digits(a)) % F.p)


def ref_mul(F, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if F.e == 1:
        return (a * b) % F.p
    la_, lb = F._log[a], F._log[b]
    out = F._exp[(np.maximum(la_, 0) + np.maximum(lb, 0)) % (F.q - 1)]
    zero = (la_ < 0) | (lb < 0)
    return np.where(zero, 0, out)


def ref_inv(F, a):
    a = np.asarray(a, dtype=np.int64)
    if np.any(a == 0):
        raise ZeroDivisionError("zero has no inverse")
    return F._exp[(F.q - 1 - F._log[a]) % (F.q - 1)]


def ref_matmul(F, A, B):
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    m, k = A.shape
    n = B.shape[1]
    if k == 0 or m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int64)
    out = np.zeros((m, n), dtype=np.int64)
    if F.e == 1:
        step = max(1, (1 << 22) // max(1, F.p))
        for i in range(0, k, step):
            out += A[:, i:i + step] @ B[i:i + step, :]
            out %= F.p
        return out
    step = max(1, (1 << 22) // max(1, m * n))
    for i in range(0, k, step):
        terms = ref_mul(F, A[:, i:i + step, None], B[None, i:i + step, :])
        if F.p == 2:
            out ^= np.bitwise_xor.reduce(terms, axis=1)
        else:
            for j in range(terms.shape[1]):
                out = F.add(out, terms[:, j, :])
    return out


def ref_rref(F, M):
    R = np.atleast_2d(np.asarray(M, dtype=np.int64)).copy()
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        pv = R[r, c]
        if pv != 1:
            R[r] = ref_mul(F, R[r], ref_inv(F, pv))
        factors = R[:, c].copy()
        factors[r] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            R[rows] = F.sub(R[rows], ref_mul(F, factors[rows, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def assert_rref_matches(F, M):
    R, piv = la.rref(F, M)
    R0, piv0 = ref_rref(F, M)
    assert piv == piv0
    assert R.dtype == np.int64 and np.array_equal(R, R0)


def ranked(F, rng, m, n, r):
    """An m x n matrix of rank <= r, with a zero column when n allows."""
    M = ref_matmul(F, F.random(rng, (m, r)), F.random(rng, (r, n)))
    if n > 2:
        M[:, rng.integers(n)] = 0
    return M


def ref_vandermonde(F, points, k):
    """The Vandermonde matrix as a loop of cumulative products."""
    points = np.asarray(points, dtype=np.int64)
    cols = [np.ones_like(points)]
    for _ in range(1, k):
        cols.append(F.mul(cols[-1], points))
    return np.stack(cols, axis=1) if k else np.zeros((points.size, 0), dtype=np.int64)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_vandermonde_matches_cumulative_products(q):
    """One Field.power call gives the cumulative-product matrix, with 0^0 = 1,
    for no columns, no points, and exponents past q - 1."""
    F = GF(q)
    rng = np.random.default_rng(q)
    pts = np.concatenate([[0, 1, q - 1, 0], F.random(rng, 8)]).astype(np.int64)
    for points in (pts, np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)):
        for k in (0, 1, 2, 7, q + 2 if q < 30 else 30):
            got = vandermonde(F, points, k)
            assert got.dtype == np.int64 and np.array_equal(got, ref_vandermonde(F, points, k))


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_mul_and_inv_tables_match_log_exp(q):
    F = GF(q)
    assert (F._mul_table is not None) == (F.e > 1 and q <= MUL_TABLE_MAX_ORDER)
    rng = np.random.default_rng(q)
    if q <= 512:
        a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
        units = np.arange(1, q, dtype=np.int64)
    else:
        a, b = F.random(rng, (2, 50_000))
        units = F.random(rng, 50_000, nonzero=True)
    assert np.array_equal(F.mul(a, b), ref_mul(F, a, b))
    assert np.array_equal(F.mul(a.reshape(-1, 1)[:64], b[:64]),
                          ref_mul(F, a.reshape(-1, 1)[:64], b[:64]))
    assert np.array_equal(F.inv(units), ref_inv(F, units))
    x, y = int(a[-1]), int(units[-1])
    assert int(F.mul(x, y)) == int(ref_mul(F, x, y))
    assert int(F.inv(y)) == int(ref_inv(F, y))
    with pytest.raises(ZeroDivisionError):
        F.inv(np.array([1, 0]))
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [q for q in FIELD_ORDERS if _prime_factors(q) != [q]])
def test_mul_on_zeros_and_shapes(q):
    """Every extension field against the masked log/exp body on forced
    zeros (random draws at 2^17 almost never hold one), 0-d scalars, an
    (r, 1) x (w,) broadcast and empty arrays; products are int64 and the
    zero-sentinel tables int32."""
    F = GF(q)
    assert F._zlog.dtype == np.int32 and F._zexp.dtype == np.int32
    rng = np.random.default_rng(q)
    x = np.concatenate(([1, q - 1], F.random(rng, 30, nonzero=True)))
    zero = np.zeros_like(x)
    col = np.concatenate(([0], x[:9])).reshape(-1, 1)
    empty = np.zeros(0, dtype=np.int64)
    for a, b in [(0, 0), (0, int(x[2])), (int(x[2]), 0), (zero, zero), (zero, x), (x, zero),
                 (np.array(int(x[3])), np.array(int(x[4]))), (np.array(0), x), (x, np.array(0)),
                 (col, np.concatenate((x[10:], [0]))), (col, x[:0]), (empty, empty),
                 (np.zeros((0, 1), dtype=np.int64), x), (empty, 0)]:
        got, want = F.mul(a, b), ref_mul(F, a, b)
        assert got.dtype == np.int64 and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p, e, modulus", [
    (2, 1, None), (2, 2, None), (2, 10, None), (3, 1, None), (97, 1, None),
    (65537, 1, None), (3, 2, None), (7, 2, None), (3, 5, None), (5, 4, None),
    # X^2 + 1 over GF(3) and X^4 + X^3 + X^2 + X + 1 over GF(2): X has order
    # 4 and 5, so the generator comes from the search
    (3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1))])
def test_exp_log_tables_match_power_loop(p, e, modulus):
    F = Field(p, e, modulus)
    if modulus is not None:
        assert F.generator != p
    exp, log = ref_exp_log(F)
    assert np.array_equal(F._exp, exp[: F.q - 1]) and np.array_equal(F._log, log)


def assert_tables_match_reference(F):
    """Generator and every table against the earlier construction; the
    addition table (up to 110 MB) row block by row block."""
    g, exp, log, inv = ref_tables(F)
    assert F.generator == g
    assert (np.array_equal(F._exp, exp[: F.q - 1]) and np.array_equal(F._log, log)
            and np.array_equal(F._inv, inv))
    q, p = F.q, F.p
    codes = np.arange(q, dtype=np.int64)
    assert (F._neg is not None) == (p != 2 and F.e > 1)
    if F._neg is not None:
        assert np.array_equal(F._neg, ref_neg(F, codes))
    assert (F._mul_table is not None) == (F.e > 1 and q <= MUL_TABLE_MAX_ORDER)
    if F._mul_table is not None:
        lg = np.maximum(log, 0)
        want = np.where((codes[:, None] == 0) | (codes == 0), 0, exp[lg[:, None] + lg])
        assert np.array_equal(F._mul_table, want.ravel())
    assert (F._add_table is not None) == (p != 2 and F.e > 1 and q <= 1 << 12)
    if F._add_table is not None:
        dig = (codes[:, None] // F._powers) % p
        for lo in range(0, q, 256):
            want = ((dig[lo:lo + 256, None, :] + dig) % p * F._powers).sum(axis=2)
            assert np.array_equal(F._add_table[lo:lo + 256], want)


@pytest.mark.parametrize("lo", range(0, 4097, 512))
def test_fields_up_to_4096_match_earlier_construction(lo, monkeypatch):
    """For every q in [lo, lo + 512): of_order refuses exactly what the trial
    loop refused, with its message, and every prime-power field has the
    earlier (p, e), canonical modulus, generator and tables.  Each field is
    dropped before the next is built (the largest addition table is 110 MB)."""
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    for q in range(lo, min(lo + 512, 4097)):
        try:
            pe = ref_of_order(q)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                Field.of_order(q)
            continue
        F = Field.of_order(q)
        assert (F.p, F.e) == pe and F.modulus == ref_canonical_modulus(*pe)
        assert_tables_match_reference(F)
        del F
        gf._FIELD_CACHE.clear()


@pytest.mark.parametrize("p, e, modulus", [
    (3, 8, None), (5, 6, None), (7, 5, None), (2, 17, None), (2, 20, None),
    (3, 12, None), (999983, 1, None), (1048573, 1, None),
    (3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1))])
def test_large_and_custom_fields_match_earlier_construction(p, e, modulus):
    F = Field(p, e, modulus)
    if modulus is None:
        assert F.modulus == ref_canonical_modulus(p, e)
    assert_tables_match_reference(F)


def test_largest_prime_field_builds_fast():
    canonical_modulus.cache_clear()
    t0 = time.perf_counter()
    F = Field(1048573, 1)
    assert time.perf_counter() - t0 <= 0.5
    x = np.array([1, 2, 1048572, 777], dtype=np.int64)
    assert np.array_equal(F._exp[F._log[x]], x)


@pytest.mark.parametrize("q", [9, 49, 243, 3 ** 8])
def test_neg_table_matches_digit_negation(q):
    """neg over all codes; sub over all pairs up to q = 243 and over a
    sample at 3^8, which has no addition table."""
    F = GF(q)
    codes = F.elements()
    assert np.array_equal(F.neg(codes), ref_neg(F, codes))
    if q <= 243:
        a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    else:
        a, b = F.random(np.random.default_rng(q), (2, 50_000))
    assert np.array_equal(F.sub(a, b), F.add(a, ref_neg(F, b)))
    assert int(F.sub(3, 5)) == int(F.add(3, ref_neg(F, 5)))


@pytest.mark.parametrize("q", [9, 49, 3 ** 5, 5 ** 4])
def test_add_table_matches_digit_sum(q):
    """The addition table, built one digit at a time, against the all-digits
    formula it replaced."""
    F = GF(q)
    dig = (F.elements()[:, None] // F._powers[None, :]) % F.p
    s = (dig[:, None, :] + dig[None, :, :]) % F.p
    assert np.array_equal(F._add_table, (s * F._powers[None, None, :]).sum(axis=2))


def test_add_table_build_memory():
    """GF(3^6) keeps a 4.3 MB addition table; building it holds at most one
    more q x q array (the all-digits formula peaked at 53 MB)."""
    canonical_modulus.cache_clear()
    tracemalloc.start()
    try:
        F = Field(3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F._add_table.nbytes == 729 * 729 * 8
    assert peak <= 16 << 20


def test_large_add_table_builds_without_a_second_table():
    """GF(61^2) keeps a 110 MB addition table; built in row blocks it peaks
    near 150 MB of RSS in a fresh interpreter, where a q x q scratch beside
    the table took it to 346 MB.  The peak is the interpreter's VmHWM, which
    unlike ru_maxrss does not count the RSS of the process that started it."""
    src = str(pathlib.Path(gf.__file__).resolve().parents[1])
    code = ("from prodcodes.gf import GF\n"
            "assert GF(61 ** 2)._add_table.shape == (3721, 3721)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 250 * 1024  # kB


@given(st.sampled_from(FIELD_ORDERS), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150)
def test_rref_and_matmul_match_reference(q, m, n, r, seed):
    F = GF(q)
    rng = np.random.default_rng(seed)
    assert_rref_matches(F, ranked(F, rng, m, n, min(r, m, n)))
    A, B = F.random(rng, (m, r)), F.random(rng, (r, n))
    assert np.array_equal(la.matmul(F, A, B), ref_matmul(F, A, B))


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_rref_edge_shapes(q):
    F = GF(q)
    rng = np.random.default_rng(7)
    for M in (np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
              np.zeros((0, 0), dtype=np.int64), np.zeros((3, 6), dtype=np.int64),
              F.random(rng, (6, 6), nonzero=True), F.random(rng, (5, 9)),
              F.random(rng, (9, 5)), np.full((4, 4), F.q - 1, dtype=np.int64)):
        assert_rref_matches(F, M)


@pytest.mark.parametrize("q", [97, 1048573])
def test_rref_with_hundreds_of_pivots(q):
    """Delayed reduction stays exact over hundreds of unreduced updates."""
    F = GF(q)
    rng = np.random.default_rng(q)
    M = F.random(rng, (260, 300))
    M[:, 10] = 0
    R, piv = la.rref(F, M)
    assert len(piv) == 260
    R0, piv0 = ref_rref(F, M)
    assert piv == piv0 and np.array_equal(R, R0)


def test_prime_matmul_blocks_the_inner_dimension():
    """Above 8192 terms at p = 1048573 the float64 product runs in several
    blocks.  Every entry p - 1 gives the largest sums, every entry p - 2 odd
    products, which float64 would round past 2^53; both stay exact."""
    F = GF(1048573)
    rng = np.random.default_rng(3)
    k = 3 * 8192 + 5
    A, B = F.random(rng, (3, k)), F.random(rng, (k, 4))
    assert np.array_equal(la.matmul(F, A, B), ref_matmul(F, A, B))
    for v in (F.q - 1, F.q - 2):
        A[:], B[:] = v, v
        assert np.array_equal(la.matmul(F, A, B), ref_matmul(F, A, B))


# prime fields, odd extensions with an addition table (q <= 4096) and
# without one (3^8, 5^8, 3^12): all of them go through the digit kernel
DIGIT_KERNEL_ORDERS = [3, 7, 97, 1048573, 9, 25, 49, 81, 243, 3 ** 8, 5 ** 8, 3 ** 12]


@st.composite
def matmul_shapes(draw):
    """(m, k, n): small, empty, 1 x 1, or m >> n and n >> m."""
    k = draw(st.integers(0, 12))
    small = st.integers(0, 12)
    return draw(st.sampled_from([
        (draw(small), k, draw(small)), (1, 1, 1), (draw(small), 0, draw(small)),
        (40, k, 1), (1, k, 40), (30, k, 2), (2, k, 30)]))


@given(st.sampled_from(DIGIT_KERNEL_ORDERS), matmul_shapes(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200)
def test_digit_matmul_matches_reference(q, shape, top, seed):
    """The float64 digit kernel against the per-term F.add product it
    replaced; top sets every entry to q - 1."""
    F = GF(q)
    m, k, n = shape
    rng = np.random.default_rng(seed)
    A, B = F.random(rng, (m, k)), F.random(rng, (k, n))
    if top:
        A[:], B[:] = F.q - 1, F.q - 1
    got = la.matmul(F, A, B)
    assert got.dtype == np.int64 and got.shape == (m, n)
    assert np.array_equal(got, ref_matmul(F, A, B))


@given(st.sampled_from([1 << 9, 1 << 10, 1 << 17]), matmul_shapes(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_char2_matmul_above_2_8_matches_reference(q, shape, top, zeros, seed):
    """The XOR branch over log/exp fields against the masked-body product;
    top sets every entry to q - 1, zeros clears a row of A and a column of B."""
    F = GF(q)
    m, k, n = shape
    rng = np.random.default_rng(seed)
    A, B = F.random(rng, (m, k)), F.random(rng, (k, n))
    if top:
        A[:], B[:] = F.q - 1, F.q - 1
    if zeros and m and n:
        A[rng.integers(m)], B[:, rng.integers(n)] = 0, 0
    got = la.matmul(F, A, B)
    assert got.dtype == np.int64 and got.shape == (m, n)
    assert np.array_equal(got, ref_matmul(F, A, B))


def test_char2_matmul_blocks_the_inner_dimension():
    """A 600 x 25 x 600 product over GF(2^17) takes the inner index 11 at a
    time (_MATMUL_BLOCK // 600^2), so three blocks, with a zero row in A and
    a zero column in B."""
    F = GF(1 << 17)
    m, k, n = 600, 25, 600
    assert k > 2 * (la._MATMUL_BLOCK // (m * n))
    rng = np.random.default_rng(17)
    A, B = F.random(rng, (m, k)), F.random(rng, (k, n))
    A[5], B[:, 7] = 0, 0
    assert np.array_equal(la.matmul(F, A, B), ref_matmul(F, A, B))


def test_matvec_and_enumerate_span_match_reference():
    F = GF(9)
    rng = np.random.default_rng(9)
    A, x = F.random(rng, (7, 5)), F.random(rng, 5)
    assert np.array_equal(la.matvec(F, A, x), ref_matmul(F, A, x[:, None])[:, 0])
    basis = F.random(rng, (3, 6))
    seen = 0
    for coefs, vecs in la.enumerate_span(F, basis, chunk=100):
        assert np.array_equal(vecs, ref_matmul(F, coefs, basis))
        seen += coefs.shape[0]
    assert seen == 9 ** 3


def test_digit_matmul_memory_is_blocked():
    """A 200 x 200 x 200 product over GF(3^12) expands B 144-fold; the
    inner dimension is blocked so that a block of the expansion holds at
    most _MATMUL_BLOCK entries.  Under tracemalloc this product peaks at
    73 MiB; unblocked (5.8M entries in one block) at 99 MiB, and the
    per-term kernel it replaced at 95 MiB.  A tall 4000 x 200 x 2 product
    expands A 12-fold; with the inner dimension also capped by the rows it
    peaks at 7 MiB, against 148 MiB with all 200 columns of A in one block
    and 32 MiB for the per-term kernel."""
    F = GF(3 ** 12)
    rng = np.random.default_rng(12)
    for (m, k, n), bound in (((200, 200, 200), 96), ((4000, 200, 2), 40)):
        A, B = F.random(rng, (m, k)), F.random(rng, (k, n))
        tracemalloc.start()
        try:
            got = la.matmul(F, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound << 20, (m, k, n)
        assert np.array_equal(got[:3], ref_matmul(F, A[:3], B))
