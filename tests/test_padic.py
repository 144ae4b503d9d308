"""Valuation, digit expansion, and the unit predicates at the ramified prime."""

import itertools
import math

import numpy as np
import pytest

from pisingular import (
    CAP,
    ExactElement,
    LambdaExpansion,
    RingElement,
    digits,
    expansion_matches,
    from_integer,
    is_locally_pth_power,
    is_primary,
    is_semi_primary,
    lam,
    new_context,
    synthetic_unit_bundle,
    unit_reports,
    valuation,
    verify_positive_candidate,
    verify_unit_relation,
    zeta,
)
from pisingular.padic import _digits_by_division, _epsilon, _vp
from pisingular.ring import (
    _dtype_for,
    _pascal_transposed_mod_p,
    _route,
    _shift,
    _shift_tables,
)

import oracles
from conftest import random_element, random_unit, seeded


def test_lambda_basis_examples(ctx5):
    m = 5**2
    assert oracles.lambda_coeffs(zeta(ctx5, 2).coeff_list(), m) == [1, 1, 0, 0]  # z = 1 + lam
    assert oracles.lambda_coeffs(from_integer(ctx5, 2, 7).coeff_list(), m) == [7, 0, 0, 0]
    assert oracles.lambda_coeffs(zeta(ctx5, 2, 2).coeff_list(), m) == [1, 2, 1, 0]  # (1+lam)^2


@pytest.mark.parametrize("p, K", [(5, 2), (37, 2), (103, 4), (257, 1)])
def test_pascal_pair_matches_binomials(p, K):
    # The lam-basis converters the tests build elements with are the
    # oracles' lambda_coeffs and from_digits: T[i, j] = C(j, i) mod p^K and
    # its inverse S @ T @ S, S = diag((-1)^i).
    m = p**K
    n = p - 1
    T = np.array([[math.comb(j, i) % m for j in range(n)] for i in range(n)], dtype=object)
    sign = np.array([(-1) ** i for i in range(n)], dtype=object)
    rng = seeded(p * K)
    a = [rng.randrange(m) for _ in range(n)]
    assert oracles.lambda_coeffs(a, m) == (T.dot(a) % m).tolist()
    assert oracles.from_digits(a, p, m) == (sign * T.dot(sign * a) % m).tolist()


@pytest.mark.parametrize("p", [3, 37, 79, 83, 257])
def test_valuation_matrix_is_pascal_mod_p_in_the_route_dtype(p):
    # _lam_read contracts with its own T.T mod p, built in float64 at every
    # p: sums of p-1 products of residues mod p are exact there, and no read
    # copies the matrix per call.
    Tt = _pascal_transposed_mod_p(p)
    assert Tt.dtype == np.float64
    assert Tt.flags.c_contiguous and not Tt.flags.writeable
    n = p - 1
    assert Tt.tolist() == [[math.comb(j, i) % p for i in range(n)] for j in range(n)]


def test_pascal_cache_is_bounded():
    # Valuations at K = 1..8 read T mod p alone, built once: no matrix per
    # modulus p^K (one was 30 MB at p=1031).
    ctx = new_context(101)
    _pascal_transposed_mod_p.cache_clear()
    for K in range(1, 9):
        assert valuation(zeta(ctx, K, 3) - from_integer(ctx, K, 1)) == 1
        info = _pascal_transposed_mod_p.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (1, 1, 1)


def test_claim_paths_read_only_the_pascal_matrix_mod_p():
    # p=103, K=5 is past the int64 bound: verify and the units reports
    # build T mod p once and read nothing else.
    p, K = 103, 5
    ctx = new_context(p)
    bundle = synthetic_unit_bundle(ctx, 2, 60, K=K)
    _pascal_transposed_mod_p.cache_clear()
    assert verify_positive_candidate(bundle).overall
    assert _pascal_transposed_mod_p.cache_info().misses == 1
    _pascal_transposed_mod_p.cache_clear()
    assert len(unit_reports(ctx, K, 2, list(range(2, p - 2, 2)))) == (p - 3) // 2
    assert _pascal_transposed_mod_p.cache_info().misses == 1


def test_lambda_round_trip_random():
    rng = seeded(41)
    for p, K in ((3, 1), (5, 2), (7, 2), (11, 3)):
        ctx = new_context(p)
        m = p**K
        for _ in range(10):
            a = random_element(ctx, K, rng).coeff_list()
            assert oracles.from_digits(oracles.lambda_coeffs(a, m), p, m) == a
            vals = [rng.randrange(m) for _ in range(p - 1)]
            assert oracles.lambda_coeffs(oracles.from_digits(vals, p, m), m) == vals


def test_valuation_of_p_is_p_minus_1():
    for p in (3, 5, 7, 11, 13):
        ctx = new_context(p)
        assert valuation(from_integer(ctx, 2, p)) == p - 1


def test_valuation_examples(ctx5):
    K = 2
    l = lam(ctx5, K)
    assert valuation(l * l * 3) == 2
    assert valuation(from_integer(ctx5, K, 0)) == CAP
    assert valuation(from_integer(ctx5, K, 1)) == 0
    assert valuation(from_integer(ctx5, K, 50)) == CAP  # 2 * 5^2 vanishes mod 25
    assert valuation(from_integer(ctx5, K, 10)) == 4
    assert valuation(zeta(ctx5, K, 3)) == 0


def test_valuation_additive_on_uniformizer_powers():
    rng = seeded(43)
    for p, K in ((5, 2), (7, 2)):
        ctx = new_context(p)
        cap = K * (p - 1)
        l = lam(ctx, K)
        for _ in range(10):
            u1 = random_unit(ctx, K, rng)
            u2 = random_unit(ctx, K, rng)
            i = rng.randrange(0, p - 1)
            j = rng.randrange(0, p - 1)
            a = u1 * l**i
            b = u2 * l**j
            assert valuation(a) == i
            assert valuation(b) == j
            expected = i + j if i + j < cap else CAP
            assert valuation(a * b) == expected


def test_valuation_unit_multiplication_invariant():
    rng = seeded(47)
    ctx = new_context(7)
    for _ in range(10):
        a = random_element(ctx, 2, rng)
        u = random_unit(ctx, 2, rng)
        assert valuation(a * u) == valuation(a)


def _reconstruct(ctx, K, digit_seq):
    l = lam(ctx, K)
    acc = from_integer(ctx, K, 0)
    power = from_integer(ctx, K, 1)
    for d in digit_seq:
        acc = acc + power * d
        power = power * l
    return acc


def test_digits_of_p_exhaustive_oracle(ctx5):
    """Every digit sequence is tried; exactly one matches 5 mod lam^5."""
    K = 2
    target = from_integer(ctx5, K, 5)
    matches = [
        seq
        for seq in itertools.product(range(5), repeat=5)
        if valuation(target - _reconstruct(ctx5, K, seq)) >= 5
    ]
    assert matches == [(0, 0, 0, 0, 4)]
    exp = digits(target, 5)
    assert exp.digits == (0, 0, 0, 0, 4)
    assert exp.valuation == 4
    assert exp.precision == 5


def test_digits_reconstruction_property():
    rng = seeded(53)
    for p, K in ((5, 2), (7, 2), (3, 3)):
        ctx = new_context(p)
        N = K * (p - 1)
        for _ in range(8):
            a = random_element(ctx, K, rng)
            exp = digits(a, N)
            assert all(0 <= d < p for d in exp.digits)
            # full-precision reconstruction recovers the element exactly
            assert _reconstruct(ctx, K, exp.digits) == a
            # leading digit sits at the valuation
            if exp.valuation is not CAP:
                v = exp.valuation
                assert exp.digits[v] != 0
                assert all(d == 0 for d in exp.digits[:v])
            else:
                assert set(exp.digits) == {0}


def test_digits_prefix_stability():
    rng = seeded(59)
    ctx = new_context(7)
    for _ in range(5):
        a = random_element(ctx, 2, rng)
        full = digits(a, 12).digits
        for N in (1, 3, 7, 11):
            assert digits(a, N).digits == full[:N]


@pytest.mark.parametrize(
    "p, K, dtype",
    [(101, 4, np.int64), (257, 2, np.int64), (103, 5, object), (5, 14, object), (3, 3, np.int64)],
)
def test_digits_match_the_digit_scan_on_every_route(p, K, dtype):
    # int64 elements below the exact bound (101^4; 257^2, whose products
    # take the float route) read blocks of p-1 digits, object ones past it
    # one division by lam per digit.  Random elements are checked up to
    # N = p; at full precision the oracle's scan of p candidates per digit
    # is held to a few probes by planted digits, small from position p-1
    # on, and with p-content.  The scan is greedy, so one call at the
    # largest N gives every shorter one
    ctx = new_context(p)
    m, n = p**K, K * (p - 1)
    assert (_dtype_for(m, p), _route(m, p) == "float") == (dtype, p == 257)
    rng = seeded(p * K)
    precisions = sorted({1, p - 2, p - 1, p, n})
    planted = [rng.randrange(p) for _ in range(p - 1)] + [rng.randrange(3) for _ in range(n - p + 1)]
    deep = [0] * (p - 1) + planted[p - 1 :]
    cases = [
        (RingElement(ctx, K, [rng.randrange(m) for _ in range(p - 1)]), precisions[:4]),
        (RingElement(ctx, K, [p * rng.randrange(m) for _ in range(p - 1)]), precisions[:4]),
        (RingElement(ctx, K, oracles.from_digits(planted, p, m)), precisions),
        (RingElement(ctx, K, oracles.from_digits(deep, p, m)), precisions),
        (from_integer(ctx, K, 0), precisions),
    ]
    if p <= 5:
        cases += [(random_element(ctx, K, rng), precisions) for _ in range(4)]
    assert all(c % p == 0 for c in cases[3][0].coeff_list())
    for a, Ns in cases:
        assert a.coeffs.dtype == dtype
        full = oracles.digits(a, Ns[-1])
        for N in Ns:
            v = full.valuation if full.valuation < N else CAP
            assert digits(a, N) == LambdaExpansion(full.digits[:N], v, N), N
    assert digits(cases[2][0], n).digits == tuple(planted)
    assert digits(cases[4][0], n).valuation is CAP


def test_digits_precision_validation(ctx5):
    a = from_integer(ctx5, 2, 1)
    with pytest.raises(ValueError, match=r"\[1, 8\]"):
        digits(a, 9)
    with pytest.raises(ValueError, match=r"\[1, 8\]"):
        digits(a, 0)


def test_digits_capped_valuation_marker(ctx5):
    exp = digits(from_integer(ctx5, 2, 0), 4)
    assert exp.valuation is CAP
    assert exp.digits == (0, 0, 0, 0)
    assert exp.to_json_dict() == {
        "valuation": "cap",
        "digits": [0, 0, 0, 0],
        "precision": 4,
    }


@pytest.mark.parametrize("p, K", [(3, 19), (5, 2), (101, 4), (257, 2), (1031, 2)])
def test_taylor_shift_is_the_oracles_lambda_basis_change(p, K):
    # _shift reads lam-coordinates as oracles.lambda_coeffs does (Horner in
    # Python ints), and its inverse builds sum e_j lam^j (degree < p-1, so
    # no fold) as oracles.from_digits does, at every level mod p^k <= p^K.
    m = p**K
    tables = _shift_tables(p, m)
    rng = seeded(p + K)
    for k in sorted({1, K}):
        mk = p**k
        x = [rng.randrange(mk) for _ in range(p - 1)]
        e = _shift(np.array(x, dtype=np.int64), tables, mk)
        assert e.tolist() == oracles.lambda_coeffs(x, mk)
        back = _shift(e, tables, mk, inverse=True)
        assert back.tolist() == x == oracles.from_digits(e.tolist(), p, mk)


@pytest.mark.parametrize(
    "p, K", [(3, 1), (3, 18), (5, 4), (7, 3), (101, 3), (257, 1), (1031, 1), (2039, 1)]
)
def test_epsilon_is_p_over_lam_to_the_p_minus_1(p, K):
    # eps mod p^K is exact iff eps * lam^(p-1) = p one level up, mod
    # p^(K+1) (lam^(p-1) is p times a unit); and eps = (p-1)! = -1 mod lam.
    ctx = new_context(p)
    coeffs = _epsilon(p, K, _shift_tables(p, p ** (K + 1)))
    assert coeffs.dtype == np.int64 and 0 <= coeffs.min() and coeffs.max() < p**K
    eps = RingElement(ctx, K + 1, coeffs)
    assert eps * lam(ctx, K + 1) ** (p - 1) == from_integer(ctx, K + 1, p)
    assert valuation(RingElement(ctx, K, coeffs) + from_integer(ctx, K, 1)) >= 1


def _planted_with_content(p, K, t, rng):
    """Digits of p^t times a unit: zero below t*(p-1), nonzero there, then
    any digit below position p-1 and 0..2 past it, since the oracle's scan
    of a deep digit d costs d probes."""
    ds = [rng.randrange(p) if i < p - 1 else rng.randrange(3) for i in range(K * (p - 1))]
    v = t * (p - 1)
    ds[:v] = [0] * v
    ds[v] = rng.randrange(1, p if v < p - 1 else 3)
    return ds


@pytest.mark.parametrize(
    "p, K, route, scan",
    [
        (101, 4, "int64", True),
        (257, 2, "float", False),
        (1031, 2, "float", False),
        (101, 5, "object", True),
    ],
)
def test_digits_at_the_block_edges(p, K, route, scan):
    # Blocks of p-1 digits on the word routes, one division per digit on
    # the object route, cut at every block edge.  An element of p-content
    # p^t (t < K) is built by oracles.from_digits from planted digits, which
    # are its digits since the expansion is unique; at p=101 the oracle's
    # scan is run too (one O(p^2) probe per digit: 4 s at p=257).  A random
    # p^t * unit is checked against the other internal path (the division
    # loop is exact on int64 within the ring's bound).  Zero reads CAP.
    ctx = new_context(p)
    m, n = p**K, K * (p - 1)
    assert _route(m, p) == route
    edges = sorted(N for N in {p - 2, p - 1, p, 2 * (p - 1), 2 * (p - 1) + 1, n} if N <= n)
    rng = seeded(p * K + 7)
    for t in range(K):
        planted = _planted_with_content(p, K, t, rng)
        a = RingElement(ctx, K, oracles.from_digits(planted, p, m))
        assert _vp(math.gcd(*a.coeff_list()), p) == t
        want = oracles.digits(a, n).digits if scan else tuple(planted)
        assert want == tuple(planted)
        v = t * (p - 1)
        for N in edges:
            assert digits(a, N) == LambdaExpansion(want[:N], v if v < N else CAP, N), (t, N)
        if route != "object":  # there digits is the loop; see the next test
            b = random_unit(ctx, K, rng) * p**t
            assert digits(b, n).digits == tuple(_digits_by_division(b, n))
    zero = from_integer(ctx, K, 0)
    for N in edges:
        assert digits(zero, N) == LambdaExpansion((0,) * N, CAP, N)


def test_digits_agree_across_the_route_boundary():
    # p=101: K=4 takes the blocks (int64), K=5 the division loop (object);
    # one element read at both levels has the same first 400 digits.
    p = 101
    ctx = new_context(p)
    rng = seeded(1010)
    a5 = random_element(ctx, 5, rng)
    a4 = RingElement(ctx, 4, a5.coeffs)
    assert (_dtype_for(p**4, p), _dtype_for(p**5, p)) == (np.int64, object)
    for N in (p - 2, p - 1, p, 4 * (p - 1)):
        assert digits(a4, N) == digits(a5, N), N


def test_is_semi_primary_examples(ctx5):
    K = 2
    assert is_semi_primary(from_integer(ctx5, K, 1))
    assert is_semi_primary(from_integer(ctx5, K, 7))
    assert not is_semi_primary(zeta(ctx5, K))  # z = 1 + lam
    assert not is_semi_primary(lam(ctx5, K))  # not a unit
    assert not is_semi_primary(from_integer(ctx5, K, 0))
    assert is_semi_primary(from_integer(ctx5, K, 5) + from_integer(ctx5, K, 2))


def test_is_primary_examples(ctx5):
    K = 2
    assert is_primary(from_integer(ctx5, K, 1))
    assert is_primary(from_integer(ctx5, K, 2) ** 5)  # 32 = 2^5
    assert not is_primary(zeta(ctx5, K))
    # 1 + lam^2 is not a p-th power to depth p
    assert not is_primary(from_integer(ctx5, K, 1) + lam(ctx5, K) ** 2)


def test_is_primary_rejects_nonunit_and_shallow(ctx5):
    with pytest.raises(ValueError, match="valuation is 1"):
        is_primary(lam(ctx5, 2))
    with pytest.raises(ValueError, match="K=1"):
        is_primary(from_integer(ctx5, 1, 1))


def test_primary_implies_semi_primary():
    rng = seeded(61)
    for p in (5, 7):
        ctx = new_context(p)
        K = 2
        found_primary = 0
        for _ in range(30):
            a = random_unit(ctx, K, rng)
            if is_primary(a):
                found_primary += 1
                assert is_semi_primary(a)
        # constructed primaries: c^p * (1 + p*lam*x)
        l = lam(ctx, K)
        for c in (1, 2, 3):
            x = random_element(ctx, K, rng)
            a = from_integer(ctx, K, c) ** p * (from_integer(ctx, K, 1) + l * x * p)
            assert is_primary(a)
            assert is_semi_primary(a)


def test_locally_pth_power_on_actual_powers():
    rng = seeded(67)
    for p in (5, 7):
        ctx = new_context(p)
        K = 2
        for _ in range(10):
            b = random_unit(ctx, K, rng)
            assert is_locally_pth_power(b**p)
            assert is_locally_pth_power(b**p, depth=p)


def test_locally_pth_power_examples(ctx5):
    K = 2
    assert not is_locally_pth_power(zeta(ctx5, K), depth=6)
    assert is_locally_pth_power(from_integer(ctx5, K, 1))
    # depth validation
    with pytest.raises(ValueError, match="depth"):
        is_locally_pth_power(from_integer(ctx5, K, 1), depth=9)
    with pytest.raises(ValueError, match="valuation"):
        is_locally_pth_power(lam(ctx5, K))


def test_locally_pth_power_against_full_scan():
    """Oracle scans every rational residue, not only the forced lifts."""
    ctx = new_context(3)
    K = 2
    depth = 4
    for coeffs in itertools.product(range(9), repeat=2):
        a = RingElement(ctx, K, coeffs)
        if valuation(a) != 0:
            continue
        oracle = any(
            valuation(a - from_integer(ctx, K, c**3)) >= depth
            for c in range(1, 9)
            if c % 3 != 0
        )
        assert is_locally_pth_power(a, depth) == oracle, coeffs


def test_semi_primary_normalize_examples(ctx5):
    K = 2
    w, b = oracles.semi_primary_normalize(zeta(ctx5, K))
    assert w == 4 and b == from_integer(ctx5, K, 1)
    w7, b7 = oracles.semi_primary_normalize(from_integer(ctx5, K, 7))
    assert w7 == 0 and b7 == from_integer(ctx5, K, 7)


def test_semi_primary_normalize_uniqueness():
    rng = seeded(71)
    for p in (5, 7):
        ctx = new_context(p)
        K = 2
        for _ in range(8):
            a = random_unit(ctx, K, rng)
            w, b = oracles.semi_primary_normalize(a)
            assert is_semi_primary(b)
            hits = [
                t for t in range(p) if is_semi_primary(a * zeta(ctx, K, t))
            ]
            assert hits == [w]


def test_semi_primary_normalize_rejects_nonunit(ctx5):
    with pytest.raises(ValueError, match="unit"):
        oracles.semi_primary_normalize(lam(ctx5, 2))


@pytest.mark.parametrize(
    "read, args",
    [
        (valuation, ()),
        (digits, (2,)),
        (is_semi_primary, ()),
        (is_primary, ()),
        (is_locally_pth_power, ()),
        (expansion_matches, (2,)),
        (verify_unit_relation, (2,)),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_lam_adic_reads_refuse_an_exact_element(read, args):
    # An exact element has no K to read at; it names the projection to one.
    a = ExactElement(5, [2, 0, 1, 0])
    message = rf"^{read.__name__} needs a truncated element; use ExactElement\.reduce\(ctx, K\)$"
    with pytest.raises(TypeError, match=message):
        read(a, *args)
    read(a.reduce(new_context(5), 2), *args)
