"""Closed forms in ring, padic and eigen against the brute-force oracles.

Inputs lean toward c^p plus a sparse lam-basis perturbation p^e * t: a
uniformly random unit is almost never a local p-th power past depth p-1,
so without the lean the True branch of the p-th power test would hardly
be reached.  The multimodular norm is checked against the Bareiss
determinant and sympy resultants on the kinds of element the verifier
sees, at the edges of the 16-bit limbs its residues are read from, and
at the edge of each CRT modulus.  The bucketed unit projection
is checked against the per-conjugate power loop, and the big-integer
product kernel against the np.convolve fold on signed exact coefficients
and on moduli either side of the int64 bound.  The unit test by the
coefficient sum a(1) is checked against the valuation.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pisingular import (
    ExactElement,
    RingElement,
    canonical_eigenvector,
    cyclotomic_unit_exact,
    digits,
    eigen_project_unit,
    eigen_project_unit_exact,
    is_locally_pth_power,
    is_prime,
    is_semi_primary,
    lam,
    new_context,
    norm_exact,
    sigma_matrix,
    valuation,
)
from pisingular import padic
from pisingular.padic import _first_two_digits, _pth_power_to_depth
from pisingular.ring import _dtype_for, _fold_mul, _norm_bound

import oracles
from oracles import _eigenspace_dimension
from conftest import random_unit, seeded, split_primes

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
    return RingElement(new_context(p), K, oracles.from_digits(coeffs, p, m))


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
    nmax = K * (p - 1)
    for N in (data.draw(st.integers(1, nmax)), nmax):
        assert digits(a, N) == oracles.digits(a, N), N


@pytest.mark.parametrize("p, K", GRID)
@PROPERTY
@given(data=st.data())
def test_unit_by_coefficient_sum_matches_valuation(p, K, data):
    a = data.draw(lam_elements(p, K))
    if data.draw(st.booleans()):
        a = a * lam(a.ctx, K)
    v = valuation(a)
    assert padic._is_unit(a) == (v == 0)
    assert is_semi_primary(a) == (v == 0 and _first_two_digits(a)[1] == 0)
    if v != 0:
        with pytest.raises(ValueError, match=f"must be a unit, valuation is {v}$"):
            oracles.semi_primary_normalize(a)


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
            a = RingElement(ctx, K, oracles.from_digits(coeffs, p, p**K))
            if i >= 1:
                last = i + (p - 1) * e
            else:
                last = nmax if e >= 2 else p - 1
            for depth in range(1, nmax + 1):
                want = depth <= last
                assert is_locally_pth_power(a, depth) == want, (i, e, depth)
                assert oracles.pth_power_to_depth(a, depth) == want, (i, e, depth)


def _check_invert_and_digits(K, dtype):
    ctx = new_context(103)
    a = random_unit(ctx, K, seeded(103))
    assert a.coeffs.dtype == dtype
    inv = a.invert()
    assert inv == oracles.invert(a)
    assert (a * inv).coeff_list() == [1] + [0] * 101
    # p+1 reaches positions p-1 and p, where q = 1, against the digit scan;
    # K(p-1), the whole precision budget, against the Python-int Horner sum
    p, m, N = ctx.p, ctx.p**K, K * (ctx.p - 1)
    assert digits(a, p + 1) == oracles.digits(a, p + 1)
    ds = digits(a, N).digits
    assert oracles.digits_remainder_valuation(a.coeff_list(), ds, p, m) >= N


def test_object_dtype_invert_and_digits():
    # 103^5 is past the int64 bound (p-1)(m-1)^2 < 2^63
    _check_invert_and_digits(5, object)


def test_int64_edge_invert_and_digits():
    # 103^4 is the widest int64 modulus at p=103
    _check_invert_and_digits(4, np.int64)


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


@pytest.mark.parametrize("p", [p for p in range(3, 272) if is_prime(p)])
def test_eigen_valuation_law(p):
    # The report reads v(e_mu) = s off the index of mu = u^s; the oracle
    # measures it over the lam-basis.
    ctx = new_context(p)
    for mu in range(2, p):
        report = canonical_eigenvector(ctx, mu)
        assert report.valuation == oracles.eigenvector_valuation(ctx, mu), mu


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


NORM_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

NORM_PROPERTY = settings(PROPERTY, max_examples=10)


@st.composite
def exact_elements(draw, p):
    """Exact elements of the kinds the verifier meets, coefficients to ~300 bits.

    Rational constants n meet the norm bound exactly, so they sit at the
    edge of the CRT; the projected units times c^p are the verify bundles.
    """
    kinds = ["zero", "rational", "root", "dense"]
    if p >= 5:
        kinds += ["cyclotomic", "projected"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return ExactElement.from_integer(p, 0)
    if kind == "rational":
        return ExactElement.from_integer(p, draw(st.integers(-(2**300), 2**300)))
    if kind == "dense":
        w = draw(st.integers(0, 300))
        bound = 2**w
        return ExactElement(
            p, draw(st.lists(st.integers(-bound, bound), min_size=p - 1, max_size=p - 1))
        )
    # the remaining kinds are units, shifted by a signed root of unity
    root = [0] * (p - 1)
    j = draw(st.integers(0, p - 1))
    sign = draw(st.sampled_from([1, -1]))
    if j <= p - 2:
        root[j] = sign
    else:  # z^(p-1) = -(1 + z + ... + z^(p-2))
        root = [-sign] * (p - 1)
    elem = ExactElement(p, root)
    if kind == "cyclotomic":
        elem = elem * cyclotomic_unit_exact(p, draw(st.integers(2, (p - 1) // 2)))
    elif kind == "projected":
        a = draw(st.integers(2, (p - 1) // 2))
        two_m = 2 * draw(st.integers(1, (p - 3) // 2))
        c = draw(st.integers(1, 5).filter(lambda c: c % p))
        elem = elem * eigen_project_unit_exact(new_context(p), a, two_m) * c**p
    return elem


@pytest.mark.parametrize("p", NORM_PRIMES)
@NORM_PROPERTY
@given(data=st.data())
def test_norm_matches_bareiss(p, data):
    a = data.draw(exact_elements(p))
    assert norm_exact(a) == oracles.norm_bareiss(a)


# 2^(16k) + d with d in {-1, 0, 1} sits on an edge of the 16-bit limbs the
# residues are read from; k up to 260 makes the limb arrays, not the
# evaluations, set the size of a block of primes.
LIMB_EDGE = st.builds(
    lambda k, d, sign: sign * (2 ** (16 * k) + d),
    st.integers(0, 12) | st.integers(230, 260),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([1, -1]),
)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@NORM_PROPERTY
@given(data=st.data())
def test_norm_matches_bareiss_at_limb_edges(p, data):
    zero = ExactElement(p, [0] * (p - 1))
    assert norm_exact(zero) == oracles.norm_bareiss(zero) == 0
    coeffs = data.draw(st.lists(LIMB_EDGE | st.just(0), min_size=p - 1, max_size=p - 1))
    a = ExactElement(p, coeffs)
    assert norm_exact(a) == oracles.norm_bareiss(a)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@NORM_PROPERTY
@given(data=st.data())
def test_norm_matches_sympy_resultant(p, data):
    a = data.draw(exact_elements(p))
    z = sympy.Symbol("z")
    phi = sympy.Poly([1] * p, z)
    poly = sympy.Poly(list(reversed(a.coeffs)), z)
    assert norm_exact(a) == int(sympy.resultant(phi, poly))


@pytest.mark.parametrize("p", NORM_PRIMES + (53, 61, 97))
@NORM_PROPERTY
@given(data=st.data())
def test_norm_positive_and_within_bound(p, data):
    # The field is totally complex: N(a) is a product of |a(z^j)|^2.
    a = data.draw(exact_elements(p))
    n = norm_exact(a)
    bound = _norm_bound(a)
    assert n <= bound  # so n.bit_length() <= bound.bit_length()
    if any(a.coeffs):
        assert n > 0
    else:
        assert n == 0


@pytest.mark.parametrize("p", NORM_PRIMES)
def test_norm_bound_tight_on_constants_and_roots(p):
    for n in (1, 2, 3, -7, 2**300 + 1):
        a = ExactElement.from_integer(p, n)
        assert _norm_bound(a) == norm_exact(a) == abs(n) ** (p - 1)
    top = ExactElement(p, [-1] * (p - 1))  # z^(p-1)
    assert _norm_bound(top) == norm_exact(top) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_norm_just_below_each_crt_modulus(p):
    # n^(p-1) in (M_k/2, M_k) for the product M_k of the first k split
    # primes: the CRT needs all k primes (the bound equals the norm), and
    # the residue lies past M_k/2, so only the range [0, M_k) reads it back.
    primes = split_primes(p)
    M = 1
    for k in range(1, 5):
        M *= next(primes)[0]
        n, _ = sympy.integer_nthroot(M - 1, p - 1)
        assert 2 * n ** (p - 1) > M, k
        for m in (n, -n):
            assert norm_exact(ExactElement.from_integer(p, m)) == n ** (p - 1), k


# -- bucketed unit projection against the per-conjugate power loop --------

PROJECTION_PAIRS = [
    (p, a, two_m)
    for p in PRIMES
    if p >= 5
    for a in range(2, (p - 1) // 2 + 1)
    for two_m in range(2, p - 2, 2)
]


@pytest.mark.parametrize("p, a, two_m", PROJECTION_PAIRS)
def test_projection_matches_power_loop_every_index(p, a, two_m):
    ctx = new_context(p)
    exact = eigen_project_unit_exact(ctx, a, two_m)
    assert exact == oracles.eigen_project_unit_exact(ctx, a, two_m)
    for K in (1, 2, 3):
        eta, _ = eigen_project_unit(ctx, K, a, two_m)
        assert eta == oracles.eigen_project_unit(ctx, K, a, two_m), K
        assert eta == exact.reduce(ctx, K), K


def _few_exponent_indices(p: int) -> list[int]:
    # gcd(2m, p-1) > 2: mu has order (p-1)/gcd, so only that many distinct
    # exponents c_j occur and each bucket collects several conjugates.
    return [t for t in range(2, p - 2, 2) if math.gcd(t, p - 1) > 2]


@st.composite
def projection_indices(draw, p):
    a = draw(st.integers(2, (p - 1) // 2))
    if draw(st.booleans()):
        two_m = draw(st.sampled_from(_few_exponent_indices(p)))
    else:
        two_m = 2 * draw(st.integers(1, (p - 3) // 2))
    return a, two_m


@pytest.mark.parametrize("p, K", [(37, 1), (37, 2), (37, 3), (101, 2), (101, 4),
                                  (103, 1), (103, 3), (103, 4)])
@settings(PROPERTY, max_examples=4)
@given(data=st.data())
def test_projection_matches_power_loop_sampled(p, K, data):
    ctx = new_context(p)
    a, two_m = data.draw(projection_indices(p))
    eta, _ = eigen_project_unit(ctx, K, a, two_m)
    assert eta == oracles.eigen_project_unit(ctx, K, a, two_m)


@settings(PROPERTY, max_examples=6)
@given(data=st.data())
def test_exact_projection_matches_power_loop_p37(data):
    ctx = new_context(37)
    a, two_m = data.draw(projection_indices(37))
    assert eigen_project_unit_exact(ctx, a, two_m) == oracles.eigen_project_unit_exact(
        ctx, a, two_m
    )


# -- big-integer product kernel against the np.convolve fold ---------------


def _obj(values):
    return np.array(list(values), dtype=object)


@st.composite
def signed_vectors(draw, p):
    """Signed exact coefficient vectors of 0..600 bits, in several shapes."""
    n = p - 1
    kind = draw(st.sampled_from(["zero", "single", "mixed", "extreme"]))
    if kind == "zero":
        return [0] * n
    if kind == "single":
        out = [0] * n
        out[draw(st.integers(0, n - 1))] = draw(st.integers(-(2**600), 2**600))
        return out
    if kind == "extreme":  # every entry at the full width: the widest slots
        w = draw(st.integers(0, 600))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        return [s * (2**w - 1) for s in signs]
    out = []
    for _ in range(n):
        w = draw(st.integers(0, 600))
        out.append(draw(st.integers(-(2**w), 2**w)))
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
@settings(PROPERTY, max_examples=25)
@given(data=st.data())
def test_exact_kernel_matches_convolve_fold(p, data):
    a = data.draw(signed_vectors(p))
    b = data.draw(signed_vectors(p))
    want = oracles.fold_mul(_obj(a), _obj(b), p, None, object)
    got = _fold_mul(tuple(a), tuple(b), p, None, object)
    assert list(got) == list(want)
    assert (ExactElement(p, a) * ExactElement(p, b)).coeff_list() == list(want)
    x = ExactElement(p, a)  # a square passes one vector twice
    assert (x * x).coeff_list() == list(oracles.fold_mul(_obj(a), _obj(a), p, None, object))


@pytest.mark.parametrize("p, K", [(5, 13), (5, 14), (103, 4), (103, 5), (257, 4)])
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_wide_modulus_kernel_matches_convolve_fold(p, K, data):
    # 5^13 and 103^4 are the widest int64 moduli at their p; the others
    # take the big-integer kernel
    m = p**K
    dtype = np.int64 if (p - 1) * (m - 1) ** 2 < 2**63 else object
    assert _dtype_for(m, p) is dtype
    n = p - 1
    if data.draw(st.booleans()):
        a = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        b = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    else:  # all coefficients at m-1: every slot near its bound
        a = b = [m - 1] * n
    want = oracles.fold_mul(_obj(a), _obj(b), p, m, object)
    ctx = new_context(p)
    x = RingElement(ctx, K, a)
    prod = x * RingElement(ctx, K, b)
    assert prod.coeffs.dtype == dtype
    assert prod.coeff_list() == list(want)
    assert (x * x).coeff_list() == list(oracles.fold_mul(_obj(a), _obj(a), p, m, object))


def test_int64_path_unchanged_at_101_4():
    p, K = 101, 4
    m = p**K
    assert _dtype_for(m, p) is np.int64
    ctx = new_context(p)
    rng = seeded(1014)
    for top in (m - 1, rng.randrange(m)):
        a = [top] * (p - 1)
        b = [rng.randrange(m) for _ in range(p - 1)]
        prod = RingElement(ctx, K, a) * RingElement(ctx, K, b)
        assert prod.coeffs.dtype == np.int64
        want = oracles.fold_mul(_obj(a), _obj(b), p, m, object)
        assert prod.coeff_list() == [int(x) for x in want]
