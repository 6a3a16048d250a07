"""Field arithmetic: axioms, trace/Frobenius behavior, canonical moduli."""

import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prodcodes import gf
from prodcodes.gf import (GF, Field, _is_primitive, _ppowmod, _prime_factors,
                          canonical_modulus, is_irreducible)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_canonical_modulus_gf4_is_standard():
    assert canonical_modulus(2, 2) == (1, 1, 1)  # X^2 + X + 1


@pytest.mark.parametrize("p, modulus, largest, smallest",
                         [(3, (1, 1), 2, 2), (5, (2, 1), 3, 2), (7, (2, 1), 5, 3),
                          (11, (3, 1), 8, 2), (97, (5, 1), 92, 5)])
def test_prime_canonical_modulus_is_x_minus_largest_primitive_root(p, modulus, largest,
                                                                     smallest):
    """The e = 1 enumeration meets the constant term p - g first, so the
    modulus is X - g for the largest primitive root g; the field still
    generates its exp table from the smallest one."""
    roots = [g for g in range(1, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1]
    assert (max(roots), min(roots)) == (largest, smallest)
    assert canonical_modulus(p, 1) == modulus == (p - largest, 1)
    assert GF(p).generator == smallest


def test_trace_gf4_values(gf4):
    # direct Frobenius-conjugate oracle: tr(x) = x + x^2
    xs = gf4.elements()
    direct = gf4.add(xs, gf4.mul(xs, xs))
    assert np.array_equal(gf4.trace(xs), direct)
    assert gf4.trace(np.int64(0)) == 0
    assert gf4.trace(np.int64(1)) == 0  # 1 + 1 in characteristic 2
    assert gf4.trace(np.int64(gf4.generator)) == 1


def frobenius_loop_trace(F, a):
    """The trace as Field.trace computed it before its one Field.sum: the
    Frobenius powers added one at a time.  The oracle."""
    acc = np.asarray(a, dtype=np.int64)
    t = acc
    for _ in range(F.e - 1):
        t = F.frobenius(t)
        acc = F.add(acc, t)
    return acc


@pytest.mark.parametrize("q", [2 ** e for e in range(1, 9)] + [9, 27, 49, 97])
def test_trace_matches_frobenius_loop(q):
    F = GF(q)
    xs = F.elements()
    assert np.array_equal(F.trace(xs), frobenius_loop_trace(F, xs))
    M = F.random(np.random.default_rng(q), (3, 4))
    got = F.trace(M)
    assert got.shape == M.shape and np.array_equal(got, frobenius_loop_trace(F, M))
    g = np.int64(F.generator)
    assert F.trace(g).shape == () and int(F.trace(g)) == int(frobenius_loop_trace(F, g))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_field_axioms(q):
    F = GF(q)
    xs = F.elements()
    nz = xs[1:]
    assert np.all(F.mul(nz, F.inv(nz)) == 1)
    assert np.all(F.sub(xs, xs) == 0)
    rng = np.random.default_rng(q)
    a, b, c = (F.random(rng, 64) for _ in range(3))
    assert np.all(F.add(a, b) == F.add(b, a))
    assert np.all(F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c)))
    assert np.all(F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c)))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_trace_properties(q):
    F = GF(q)
    xs = F.elements()
    tr = F.trace(xs)
    # lands in the prime subfield and is onto it
    assert np.all(tr < F.p)
    assert set(int(t) for t in np.unique(tr)) == set(range(F.p))
    # additive, Frobenius-invariant
    pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    assert np.all(F.trace(F.add(a, b)) == F.add(F.trace(a), F.trace(b)))
    assert np.all(F.trace(F.frobenius(xs)) == tr)


def test_power_edge_cases(gf8):
    xs = gf8.elements()
    assert np.all(gf8.power(xs, 0) == 1)        # includes 0^0 = 1
    assert np.all(gf8.power(xs, 1) == xs)
    assert gf8.power(np.int64(0), 5) == 0
    assert np.all(gf8.power(xs, gf8.q - 1)[1:] == 1)


def test_element_order_is_a_permutation():
    for q in (7, 9, 16):
        F = GF(q)
        order = F.element_order()
        assert order[0] == 0 and order[1] == 1
        assert sorted(int(x) for x in order) == list(range(q))


def test_gf4_scalar_identities(gf4):
    w = np.int64(gf4.generator)
    assert w == 2  # the code of X: coefficients (0, 1)
    assert gf4.add(gf4.mul(w, w), w) == 1  # w^2 + w = 1 for X^2 + X + 1
    assert gf4.div(w, w) == 1
    assert gf4.neg(w) == w  # characteristic 2
    assert gf4.trace(w) == 1
    with pytest.raises(ZeroDivisionError):
        gf4.div(w, np.int64(0))
    with pytest.raises(ZeroDivisionError):
        gf4.inv(np.int64(0))


def test_user_supplied_modulus_checked():
    with pytest.raises(ValueError):
        Field.get(2, 2, (1, 0, 1))  # X^2 + 1 = (X+1)^2 is reducible
    other = Field.get(2, 3, (1, 1, 0, 1))  # X^3 + X + 1 irreducible
    assert other.q == 8
    assert is_irreducible((1, 1, 0, 1), 2)


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4),
                                  (5, 2), (5, 3), (7, 2)])
def test_x_of_order_q_minus_1_proves_irreducible(p, e):
    """Over every monic degree-e f with f(0) != 0, X passes _is_primitive
    exactly when f is irreducible with X primitive.  Without the check
    X^(q-1) = 1, the (q-1)/l tests alone pass some reducible f."""
    q = p ** e
    alone = 0
    for code in range(1, q):
        f = tuple(code // p ** i % p for i in range(e)) + (1,)
        if f[0] == 0:
            continue
        powers_pass = all(_ppowmod((0, 1), (q - 1) // ell, f, p) != (1,)
                          for ell in _prime_factors(q - 1))
        irreducible = is_irreducible(f, p)
        assert _is_primitive((0, 1), f, p, q) == (irreducible and powers_pass)
        alone += powers_pass and not irreducible
    assert alone > 0


def test_odd_extension_field_digits():
    F = GF(9)
    x, y = np.int64(2 + 1 * 3), np.int64(1 + 2 * 3)  # 2 + t and 1 + 2t
    assert F.add(x, y) == 0  # digitwise mod 3
    assert F.add(x, x) == y  # 4 + 2t = 1 + 2t
    assert F.neg(x) == y
    assert F.sub(x, x) == 0


def test_field_order_validation():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        Field.get(4, 1)


def test_order_bound_is_tested_before_factoring(monkeypatch):
    """An order past 2^20 is refused by its bound before any trial division
    (factoring q = 10^18 + 3 took minutes); the other refusals keep their
    messages."""
    monkeypatch.setattr(gf, "_prime_factors", lambda n: pytest.fail(f"factored {n}"))
    huge = 10 ** 18 + 3
    for build in (lambda: Field.of_order(huge), lambda: Field.get(huge), lambda: Field.get(2, 21),
                  lambda: Field.from_json({"p": huge, "e": 1, "modulus": [0, 1]})):
        with pytest.raises(ValueError, match=r"exceeds supported bound 2\^20"):
            build()
    with pytest.raises(ValueError, match="q must be >= 2"):
        Field.of_order(1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="characteristic 4 is not prime"):
        Field.get(4, 2)


@given(st.sampled_from([2, 256, 97, 49, 3 ** 8]), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from([0, -1]), st.integers(0, 2 ** 32 - 1))
def test_sum_matches_add_loop(q, rows, cols, axis, seed):
    """Field.sum against a fold of F.add: XOR for p = 2, mod p for prime
    fields, the add table for GF(49) and digits for GF(3^8); an empty
    reduction is 0."""
    F = GF(q)
    a = F.random(np.random.default_rng(seed), (rows, cols))
    lanes = np.moveaxis(a, axis, 0)
    want = reduce(F.add, lanes, np.zeros(lanes.shape[1:], dtype=np.int64))
    assert np.array_equal(F.sum(a, axis=axis), want)
    flat = a.ravel()
    assert int(F.sum(flat)) == int(reduce(F.add, flat, np.int64(0)))



@given(st.sampled_from([2, 3, 8, 256, 97, 49, 3 ** 8, 1 << 17]), st.integers(0, 5),
       st.integers(0, 5), st.sampled_from([0, -1]), st.integers(0, 2 ** 32 - 1))
def test_prod_matches_mul_loop(q, rows, cols, axis, seed):
    """Field.prod against a fold of F.mul, with zeros one entry in five; an
    empty product is 1."""
    F = GF(q)
    rng = np.random.default_rng(seed)
    a = F.random(rng, (rows, cols))
    a[rng.random(a.shape) < 0.2] = 0
    lanes = np.moveaxis(a, axis, 0)
    want = reduce(F.mul, lanes, np.ones(lanes.shape[1:], dtype=np.int64))
    assert np.array_equal(F.prod(a, axis=axis), want)
    flat = a.ravel()
    assert int(F.prod(flat)) == int(reduce(F.mul, flat, np.int64(1)))

def test_from_json_round_trip_and_rejections():
    F = GF(49)
    assert Field.from_json({"p": 7, "e": 2, "modulus": list(F.modulus)}) is F
    bad = [[2, 1], {"p": "2", "e": 1, "modulus": [1, 1]},
           {"p": 2, "e": True, "modulus": [1, 1]}, {"p": 2, "e": 1, "modulus": None},
           {"p": 2, "e": 1, "modulus": [1, 1.0]}, {"e": 1, "modulus": [1, 1]},
           {"p": 2, "e": 1, "modulus": []}, {"p": 2, "e": 40, "modulus": [1] * 41},
           {"p": 4, "e": 1, "modulus": [1, 1]}, {"p": 2, "e": 2, "modulus": [1, 0, 1]}]
    for doc in bad:
        with pytest.raises(ValueError):
            Field.from_json(doc)


@pytest.mark.parametrize("p, e, modulus", [(2, 1, None), (2, 8, None), (7, 2, None),
                                           (1048573, 1, None), (3, 2, (1, 0, 1)),
                                           (2, 4, (1, 1, 1, 1, 1))])
def test_one_field_per_description(p, e, modulus):
    """Field.get keys by the resolved modulus: the canonical field, the same
    modulus spelled out, and the field read back from to_json() are one
    object."""
    F = Field.get(p, e, modulus)
    assert F.to_json() == {"p": p, "e": e, "modulus": list(F.modulus)}
    assert Field.from_json(F.to_json()) is F
    assert Field.get(p, e, list(F.modulus) + [0]) is F
    if modulus is None:
        assert GF(p ** e) is F and Field.get(p, e, canonical_modulus(p, e)) is F


def test_cached_lookup_of_a_large_prime_field_is_fast():
    """of_order factors q by trial division up to its square root, not up to
    q (66 ms for GF(1048573) when it did)."""
    F = GF(1048573)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        assert GF(1048573) is F
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010
