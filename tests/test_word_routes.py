"""Ring products on machine words, at the edges of their exactness bounds.

A product mod m = p^K runs on float64 when (p-1)(m-1)^2 < 2^53 (from
p = 80 on), on int64 when (p-1)(m-1)^2 < 2^63, and on Python ints past
that.  The moduli here are the last K of each route at its p: 101^3, 257^2
and 1031^2 are the widest float-exact ones, 5^13, 103^4, 191^3, 257^3 and
2039^2 the widest int64 ones, and 5^14, 29^6 and 103^5 the first
object-dtype ones.  191^3 is 2.4% past 2^53 and 29^6 7% past 2^63, so a
looser bound puts them on the wrong route.  Products, inverses, the
valuations and the digits are checked against Python-int oracles
(tests/oracles.py), on random residues and on residues that are all m-1,
where every sum sits closest to its bound, or all m-2, whose odd products
have partial sums that float64 cannot hold past 2^53.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pisingular import (
    RingElement,
    digits,
    from_integer,
    new_context,
    valuation,
)
from pisingular.ring import _route

import oracles

FLOAT_EDGE = [(101, 3), (257, 2), (1031, 2)]
INT64_EDGE = [(5, 13), (103, 4), (191, 3), (257, 3), (2039, 2)]
OBJECT_EDGE = [(5, 14), (29, 6), (103, 5)]
EDGES = FLOAT_EDGE + INT64_EDGE + OBJECT_EDGE

PROPERTY = settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _top(p: int, K: int) -> int:
    return (p - 1) * (p**K - 1) ** 2


@pytest.mark.parametrize(
    "p, K, route",
    [
        (3, 1, "int64"),
        (5, 13, "int64"),
        (5, 14, "object"),
        (37, 2, "int64"),
        (67, 3, "int64"),  # float-exact, but below the crossover
        (79, 3, "int64"),
        (83, 3, "float"),
        (101, 3, "float"),
        (101, 4, "int64"),
        (103, 4, "int64"),
        (103, 5, "object"),
        (191, 2, "float"),
        (191, 3, "int64"),  # past the float bound by 2.4%
        (257, 2, "float"),
        (257, 3, "int64"),
        (257, 4, "object"),
        (1031, 2, "float"),
        (1031, 3, "object"),
        (2039, 1, "float"),
        (2039, 2, "int64"),
        (2039, 3, "object"),
    ],
)
def test_route_table(p, K, route):
    assert _route(p**K, p) == route
    ctx = new_context(p)
    dtype = object if route == "object" else np.int64
    assert from_integer(ctx, K, 1).coeffs.dtype == dtype


@pytest.mark.parametrize("p, K", FLOAT_EDGE)
def test_float_edges_are_the_last_float_exact_level(p, K):
    assert _top(p, K) < 2**53 <= _top(p, K + 1)


@pytest.mark.parametrize("p, K", INT64_EDGE)
def test_int64_edges_are_the_last_int64_level(p, K):
    assert _top(p, K) < 2**63 <= _top(p, K + 1)


def _unit(coeffs, p: int, m: int) -> list[int]:
    """coeffs with c_0 moved so that a(1) is a unit mod p."""
    if sum(coeffs) % p == 0:
        coeffs = [(coeffs[0] + 1) % m] + coeffs[1:]
    return coeffs


@st.composite
def residue_lists(draw, p, K):
    """p-1 residues mod p^K: uniform, or a mix of 0, m-1 and uniform, each
    list times p^t for a t in 0..K (all zero at t = K)."""
    m = p**K
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = [rng.randrange(m) for _ in range(p - 1)]
    else:
        a = [rng.choice((0, m - 1, rng.randrange(m))) for _ in range(p - 1)]
    scale = p ** draw(st.integers(0, K))
    return [x * scale % m for x in a]


def _check_element(ctx, K: int, a: list[int], N: int) -> None:
    """Product, square, scalar product, inverse, valuation and N digits of
    a against the Python-int oracles."""
    p, m = ctx.p, ctx.p**K
    x = RingElement(ctx, K, a)
    assert x.coeffs.dtype == (object if _top(p, K) >= 2**63 else np.int64)
    b = list(reversed(a))
    assert (x * RingElement(ctx, K, b)).coeff_list() == oracles.mul_mod(a, b, p, m)
    assert (x * x).coeff_list() == oracles.mul_mod(a, a, p, m)
    assert (x * (m - 1)).coeff_list() == [c * (m - 1) % m for c in a]
    u = _unit(a, p, m)
    inv = RingElement(ctx, K, u).invert()
    assert oracles.mul_mod(u, inv.coeff_list(), p, m) == [1] + [0] * (p - 2)
    exp = digits(x, N)
    assert all(0 <= d < p for d in exp.digits)
    assert oracles.digits_remainder_valuation(a, exp.digits, p, m) >= N
    v = oracles.lambda_valuation(a, p, m)
    assert valuation(x) == v
    assert exp.valuation == (v if v < N else oracles.CAP)


@pytest.mark.parametrize("p, K", EDGES)
@PROPERTY
@given(data=st.data())
def test_ring_ops_match_python_ints(p, K, data):
    ctx = new_context(p)
    a = data.draw(residue_lists(p, K))
    N = data.draw(st.integers(1, K * (p - 1)))
    _check_element(ctx, K, a, N)


@pytest.mark.parametrize("p, K", EDGES)
def test_all_top_residues_match_python_ints(p, K):
    # every coefficient m-1: each product sum is (p-1)(m-1)^2 or close to it
    ctx = new_context(p)
    m = p**K
    _check_element(ctx, K, [m - 1] * (p - 1), K * (p - 1))
    odd = [m - 2] * (p - 1)
    assert (RingElement(ctx, K, odd) ** 2).coeff_list() == oracles.mul_mod(odd, odd, p, m)
    # p^t times an element has p-1 more valuation per factor p, CAP from K(p-1) on
    x = RingElement(ctx, K, [m - 1] * (p - 1))
    v = valuation(x)
    for t in range(1, K + 1):
        want = v + (p - 1) * t
        assert valuation(x * p**t) == (want if want < K * (p - 1) else oracles.CAP), t
