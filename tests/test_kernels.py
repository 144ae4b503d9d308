"""The element kernels against the routes they replaced (tests/oracles.py).

Powers of RingElement and ExactElement take one left-to-right
square-and-multiply routine, so x^e costs bit_length(e) - 1 squarings and
popcount(e) - 1 products; the old right-to-left loop from the constant 1 is
the value oracle.  A Galois map z -> z^j permutes coefficients where the
oracle scatters them with np.add.at, on every route a product mod p^K can
take (int64, float and object dtype, picked by _route) and on exact
coefficients.  xi_a is written down in closed form where the oracle
multiplies z^e by the geometric sum.  The basis maps (the Phi_p fold, its
inverse, the Galois kernel and the normal basis) take a stack of rows as
they take one vector, and so does the product _fold_mul.
"""

import random

import numpy as np
import pytest

from pisingular import (
    ExactElement,
    RingElement,
    cyclotomic_unit,
    cyclotomic_unit_exact,
    new_context,
)
from pisingular.ring import (
    _dtype_for,
    _fold,
    _fold_galois,
    _fold_mul,
    _normal_coords,
    _normal_slots,
    _route,
    _unfold,
)

import oracles


def _levels(p: int) -> dict[str, int]:
    """The least K of each route that products mod p^K take at p."""
    out: dict[str, int] = {}
    K = 1
    while "object" not in out:
        out.setdefault(_route(p**K, p), K)
        K += 1
    return out


def _count(monkeypatch, cls, fn):
    """fn() and the number of cls.__mul__ calls it made."""
    calls = [0]
    mul = cls.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    try:
        out = fn()
    finally:
        monkeypatch.setattr(cls, "__mul__", mul)
    return out, calls[0]


def _exponents(p: int) -> list[int]:
    return sorted({1, 2, 3, 16, 31, 32, p - 1, p})


def _products(e: int) -> int:
    return e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize(
    "p, K, route",
    [(5, 2, "int64"), (37, 2, "int64"), (101, 2, "float"), (5, 14, "object"), (103, 5, "object")],
)
def test_power_takes_left_to_right_products(monkeypatch, p, K, route):
    assert _route(p**K, p) == route
    ctx = new_context(p)
    m = p**K
    rng = random.Random(p * K)
    coeffs = [rng.randrange(m) for _ in range(p - 1)]
    coeffs[0] += 1 - sum(coeffs) % p  # a unit, for the negative exponents
    x = RingElement(ctx, K, coeffs)
    for e in _exponents(p):
        y, n = _count(monkeypatch, RingElement, lambda: x**e)
        assert n == _products(e), e
        assert y == oracles.power(x, e), e
    one, n = _count(monkeypatch, RingElement, lambda: x**0)
    assert (n, one.coeff_list()) == (0, [1] + [0] * (p - 2))
    inv, n_inv = _count(monkeypatch, RingElement, x.invert)
    for e in (1, 3, p):
        y, n = _count(monkeypatch, RingElement, lambda: x ** (-e))
        assert n == n_inv + _products(e), e
        assert y == oracles.power(inv, e), e
        assert y * oracles.power(x, e) == one, e


@pytest.mark.parametrize("p", [5, 7])
def test_exact_power_takes_left_to_right_products(monkeypatch, p):
    rng = random.Random(p)
    x = ExactElement(p, [rng.randrange(-9, 10) for _ in range(p - 1)])
    for e in _exponents(p):
        y, n = _count(monkeypatch, ExactElement, lambda: x**e)
        assert n == _products(e), e
        assert y == oracles.power(x, e), e
    one, n = _count(monkeypatch, ExactElement, lambda: x**0)
    assert (n, one) == (0, ExactElement.from_integer(p, 1))
    with pytest.raises(ValueError, match="negative powers are not defined exactly"):
        x**-1


@pytest.mark.parametrize("p", [3, 5, 37, 101])
def test_galois_matches_scatter_on_every_route(p):
    ctx = new_context(p)
    rng = random.Random(p)
    for route, K in _levels(p).items():
        m = p**K
        x = RingElement(ctx, K, [rng.randrange(m) for _ in range(p - 1)])
        obj = np.array(x.coeff_list(), dtype=object)
        for j in range(1, p):
            want = oracles.fold_galois(obj, j, p, m, object)
            assert x.galois_apply(j).coeff_list() == [int(v) for v in want], (route, j)
    bound = 2**200
    e = ExactElement(p, [rng.randrange(-bound, bound) for _ in range(p - 1)])
    for j in range(1, p):
        want = oracles.fold_galois(np.array(e.coeffs, dtype=object), j, p, None, object)
        assert e.galois_apply(j).coeff_list() == [int(v) for v in want], j


@pytest.mark.parametrize("p", [5, 7, 37, 101])
def test_xi_closed_form_matches_product(p):
    ctx = new_context(p)
    for a in range(2, (p - 1) // 2 + 1):
        assert cyclotomic_unit_exact(p, a) == oracles.cyclotomic_unit_exact(p, a), a
        for K in _levels(p).values():
            assert cyclotomic_unit(ctx, K, a) == oracles.cyclotomic_unit(ctx, K, a), (a, K)


def _stack(rng, rows: int, cols: int, bound: int, dtype):
    """rows x cols integers in [-bound, bound), Python ints cast to dtype."""
    draws = [[rng.randrange(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return np.array(draws, dtype=object).astype(dtype)


@pytest.mark.parametrize("p", [5, 37, 101])
def test_basis_maps_on_stacked_rows(p):
    """On a stack of rows, _fold, _unfold, _fold_galois and the normal-basis
    maps give what they give row by row and what the Python-int oracles
    give, at the modulus of every route (int64, float, object) and on exact
    coefficients; the normal basis and the fold round-trip."""
    ctx = new_context(p)
    rng = random.Random(p)
    moduli = [p**K for K in _levels(p).values()] + [None]
    for m in moduli:
        if m is None:  # exact coefficients, signed
            rows, slots = _stack(rng, 4, p - 1, 2**200, object), _stack(rng, 4, p, 2**200, object)
        else:
            rows = _stack(rng, 4, p - 1, m, _dtype_for(m, p)) % m
            slots = _stack(rng, 4, p, m, _dtype_for(m, p))
        assert _fold(slots).tolist() == [oracles.fold(r) for r in slots.tolist()]
        assert _fold(slots).tolist() == [_fold(r).tolist() for r in slots]
        assert _unfold(rows).tolist() == [oracles.unfold(r) for r in rows.tolist()]
        assert _unfold(rows).tolist() == [_unfold(r).tolist() for r in rows]
        assert _fold(_unfold(rows)).tolist() == rows.tolist()
        for j in (1, ctx.u, p - 1):
            got = _fold_galois(rows, j, p, m).tolist()
            assert got == [_fold_galois(r, j, p, m).tolist() for r in rows], (m, j)
            want = [oracles.fold_galois(np.array(r, dtype=object), j, p, m, object) for r in rows]
            assert got == [[int(v) for v in w] for w in want], (m, j)
        normal = _normal_coords(ctx, rows)
        span = [oracles.unfold(r)[1:] for r in rows.tolist()]
        assert normal.tolist() == [[s[u - 1] for u in ctx.upow] for s in span]
        assert normal.tolist() == [_normal_coords(ctx, r).tolist() for r in rows]
        assert _fold(_normal_slots(ctx, normal)).tolist() == rows.tolist()
        assert _normal_coords(ctx, _fold(_normal_slots(ctx, normal))).tolist() == normal.tolist()


@pytest.mark.parametrize(
    "p, K, route",
    [(3, 2, "int64"), (5, 2, "int64"), (5, 14, "object"), (79, 4, "int64"), (83, 2, "float")],
)
def test_stacked_products_match_row_products(p, K, route):
    """A stack of rows multiplies as its rows do one by one, and as the
    Python-int oracle does: by shifted multiply-adds on int64 below p = 80
    (at p=3 the z^p fold of the product is empty; p=79 K=4 is the last int64
    level), one vector product per row elsewhere.  Rows of m-1 give the
    largest sums; a square (b is a) takes the same route."""
    m = p**K
    assert _route(m, p) == route
    dtype = _dtype_for(m, p)
    rng = random.Random(p * K)
    a = _stack(rng, 5, p - 1, m, dtype) % m
    b = _stack(rng, 5, p - 1, m, dtype) % m
    a[0] = b[0] = m - 1
    for x, y in ((a, b), (a, a)):
        got = _fold_mul(x, y, p, m)
        assert got.dtype == dtype and got.shape == x.shape
        assert got.tolist() == [_fold_mul(r, s, p, m).tolist() for r, s in zip(x, y)]
        assert got.tolist() == [oracles.mul_mod(r, s, p, m) for r, s in zip(x.tolist(), y.tolist())]
