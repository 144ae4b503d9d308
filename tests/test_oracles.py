"""Closed forms in ring, padic and eigen against the brute-force oracles.

Inputs lean toward c^p plus a sparse lam-basis perturbation p^e * t: a
uniformly random unit is almost never a local p-th power past depth p-1,
so without the lean the True branch of the p-th power test would hardly
be reached.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pisingular import (
    RingElement,
    canonical_eigenvector,
    digits,
    from_lambda_basis,
    is_locally_pth_power,
    new_context,
    sigma_matrix,
)
from pisingular.eigen import _eigenspace_dimension
from pisingular.padic import _pth_power_to_depth

import oracles
from conftest import random_unit, seeded

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)

GRID = [(p, K) for p in PRIMES for K in (1, 2, 3)]

PROPERTY = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def lam_elements(draw, p, K):
    """An element of Z[z]/(Phi_p, p^K) drawn through its lam-coefficients."""
    m = p**K
    n = p - 1
    if draw(st.integers(0, 4)) == 0:
        coeffs = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    else:
        c = draw(st.integers(0, m - 1))
        coeffs = [pow(c, p, m)] + [0] * (n - 1)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            e = draw(st.integers(0, K))
            coeffs[i] += p**e * draw(st.integers(0, m - 1))
    return from_lambda_basis(new_context(p), K, coeffs)


def _is_unit(a: RingElement) -> bool:
    return sum(a.coeff_list()) % a.ctx.p != 0


@pytest.mark.parametrize("p, K", GRID)
@PROPERTY
@given(data=st.data())
def test_invert_matches_gauss_jordan(p, K, data):
    a = data.draw(lam_elements(p, K))
    assume(_is_unit(a))
    inv = a.invert()
    assert inv == oracles.invert(a)
    assert inv.coeffs.dtype == a.coeffs.dtype


@pytest.mark.parametrize("p, K", GRID)
@PROPERTY
@given(data=st.data())
def test_pth_power_read_off_matches_candidate_loop(p, K, data):
    a = data.draw(lam_elements(p, K))
    assume(_is_unit(a))
    for depth in range(1, K * (p - 1) + 1):
        assert _pth_power_to_depth(a, depth) == oracles.pth_power_to_depth(
            a, depth
        ), depth


@pytest.mark.parametrize("p, K", GRID)
@PROPERTY
@given(data=st.data())
def test_digits_read_off_matches_digit_scan(p, K, data):
    a = data.draw(lam_elements(p, K))
    N = data.draw(st.integers(1, K * (p - 1)))
    assert digits(a, N) == oracles.digits(a, N)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pth_power_known_thresholds(p):
    # c^p + t*p^e*lam^i with t a unit: for i >= 1 the test holds exactly
    # up to depth i + (p-1)*e.  At i = 0 the constant stays a p-th power
    # for e >= 2 (1 + p^2 Z_p are p-th powers), and for e = 1 only up to
    # depth p-1.
    K = 3
    ctx = new_context(p)
    rng = seeded(p)
    nmax = K * (p - 1)
    for i in range(p - 1):
        for e in range(K):
            c = rng.randrange(1, p)
            t = rng.randrange(1, p)
            coeffs = [pow(c, p, p**K)] + [0] * (p - 2)
            coeffs[i] += t * p**e
            a = from_lambda_basis(ctx, K, coeffs)
            if i >= 1:
                last = i + (p - 1) * e
            else:
                last = nmax if e >= 2 else p - 1
            for depth in range(1, nmax + 1):
                want = depth <= last
                assert is_locally_pth_power(a, depth) == want, (i, e, depth)
                assert oracles.pth_power_to_depth(a, depth) == want, (i, e, depth)


def test_object_dtype_invert_and_digits():
    ctx = new_context(103)
    K = 4
    a = random_unit(ctx, K, seeded(103))
    assert a.coeffs.dtype == object
    inv = a.invert()
    assert inv == oracles.invert(a)
    assert (a * inv).coeff_list() == [1] + [0] * 101
    N = ctx.p + 1  # reaches digit positions p-1 and p, where q = 1
    assert digits(a, N) == oracles.digits(a, N)


def _permutation_matrix(p: int, u: int) -> np.ndarray:
    M = np.zeros((p - 1, p - 1), dtype=np.int64)
    for j in range(1, p):
        M[u * j % p - 1, j - 1] = 1
    return M


@pytest.mark.parametrize(
    "p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
          53, 59, 61, 67, 71, 73, 79, 83, 89, 97],
)
def test_eigen_dimension_matches_nullspace(p):
    ctx = new_context(p)
    S = sigma_matrix(ctx)
    eye = np.eye(p - 1, dtype=np.int64)
    for mu in range(2, p):
        report = canonical_eigenvector(ctx, mu)
        basis = oracles.nullspace_mod_p((S - mu * eye) % p, p)
        assert report.dimension == len(basis), mu
        closed = False
        if len(basis) == 1 and basis[0][0] % p != 0:
            scaled = basis[0] * pow(int(basis[0][0]), -1, p) % p
            closed = tuple(int(x) for x in scaled) == report.vector
        assert report.matches_closed_form == closed, mu


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_cycle_count_with_several_cycles(p):
    # A non-generator u splits j -> u*j into several cycles, so the count
    # is tested beyond the single (p-1)-cycle a PrimeContext always has.
    eye = np.eye(p - 1, dtype=np.int64)
    for u in range(1, p):
        M = _permutation_matrix(p, u)
        for mu in range(1, p):
            basis = oracles.nullspace_mod_p((M - mu * eye) % p, p)
            assert _eigenspace_dimension(p, u, mu) == len(basis), (u, mu)
