"""Ring arithmetic mod p^K and exact, cross-checked against sympy."""

import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pisingular import (
    ExactElement,
    RingElement,
    from_integer,
    lam,
    new_context,
    norm_exact,
    zeta,
)

from pisingular import is_prime
from pisingular.norm import (
    _SEGMENT,
    _crt_primes,
    _norm_bit_cap,
    _segment_count,
    _split_prime_segment,
)

from pisingular.ring import _route

import oracles
from conftest import random_element, random_unit, seeded, split_primes

_Z = sympy.symbols("z")


def _sympy_mul_mod_phi(p, a_coeffs, b_coeffs):
    """Oracle: polynomial product reduced mod Phi_p over the integers."""
    phi = sympy.Poly([1] * p, _Z)  # z^(p-1) + ... + 1
    pa = sympy.Poly(list(reversed(list(a_coeffs))), _Z)
    pb = sympy.Poly(list(reversed(list(b_coeffs))), _Z)
    rem = (pa * pb) % phi
    out = [0] * (p - 1)
    for (e,), c in rem.terms():
        out[e] = int(c)
    return tuple(out)


def test_root_power_fold_examples(ctx5):
    K = 2
    assert (zeta(ctx5, K, 2) * zeta(ctx5, K, 3)).coeff_list() == [1, 0, 0, 0]
    # z * z^3 = z^4 = -(1 + z + z^2 + z^3)
    assert (zeta(ctx5, K, 1) * zeta(ctx5, K, 3)).coeff_list() == [24, 24, 24, 24]


def test_square_example_p3():
    ctx = new_context(3)
    e = RingElement(ctx, 1, [1, 1])
    assert (e * e).coeff_list() == [0, 1]  # (1+z)^2 = z mod 3


def test_exact_cube_example():
    x = ExactElement(3, [-1, 2])  # 2z - 1
    assert (x**3).coeff_list() == [19, 18]


def test_integer_pow_mod_truncation(ctx5):
    assert (from_integer(ctx5, 2, 2) ** 5).coeff_list() == [7, 0, 0, 0]  # 32 mod 25


def test_from_integer_reduces(ctx5):
    assert from_integer(ctx5, 2, -1).coeff_list() == [24, 0, 0, 0]
    assert from_integer(ctx5, 1, 12).coeff_list() == [2, 0, 0, 0]


def test_mul_against_sympy_oracle():
    rng = seeded(101)
    for p in (3, 5, 7, 11):
        ctx = new_context(p)
        for _ in range(20):
            ac = [rng.randrange(-50, 50) for _ in range(p - 1)]
            bc = [rng.randrange(-50, 50) for _ in range(p - 1)]
            expect = _sympy_mul_mod_phi(p, ac, bc)
            got = (ExactElement(p, ac) * ExactElement(p, bc)).coeff_list()
            assert got == list(expect)
            # modular route agrees after reduction
            K = 2
            rm = RingElement(ctx, K, ac) * RingElement(ctx, K, bc)
            assert rm.coeff_list() == [c % p**K for c in expect]


def test_ring_axioms_random():
    rng = seeded(7)
    for p, K in ((3, 1), (3, 2), (5, 2), (7, 3)):
        ctx = new_context(p)
        for _ in range(15):
            a = random_element(ctx, K, rng)
            b = random_element(ctx, K, rng)
            c = random_element(ctx, K, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == from_integer(ctx, K, 0)
            assert a + (-a) == from_integer(ctx, K, 0)
            assert a * from_integer(ctx, K, 1) == a


def test_scalar_mul(ctx5):
    a = zeta(ctx5, 2, 1)
    assert (3 * a) == (a * 3) == a + a + a


def test_galois_examples(ctx5):
    K = 2
    z = zeta(ctx5, K)
    assert z.galois_apply(2) == zeta(ctx5, K, 2)
    # z^3 -> z^6 = z
    assert zeta(ctx5, K, 3).galois_apply(2) == z
    with pytest.raises(ValueError, match="nonzero mod p"):
        z.galois_apply(5)


def test_galois_is_ring_automorphism():
    rng = seeded(11)
    for p, K in ((5, 2), (7, 2), (11, 1)):
        ctx = new_context(p)
        for _ in range(10):
            a = random_element(ctx, K, rng)
            b = random_element(ctx, K, rng)
            j = rng.randrange(1, p)
            assert (a * b).galois_apply(j) == a.galois_apply(j) * b.galois_apply(j)
            assert (a + b).galois_apply(j) == a.galois_apply(j) + b.galois_apply(j)


def test_galois_composition_and_order():
    rng = seeded(13)
    for p in (5, 7, 13):
        ctx = new_context(p)
        a = random_element(ctx, 2, rng)
        # sigma_u then sigma_v = sigma_(uv)
        for j, k in ((2, 3), (ctx.u, ctx.u), (p - 1, 2)):
            assert a.galois_apply(j).galois_apply(k) == a.galois_apply(j * k % p)
        # generator has order p-1
        b = a
        for _ in range(p - 1):
            b = b.galois_apply(ctx.u)
        assert b == a
        assert a.conjugate().conjugate() == a


def test_compat_checks(ctx5, ctx7):
    a = from_integer(ctx5, 2, 1)
    with pytest.raises(ValueError, match="incompatible"):
        a + from_integer(ctx5, 1, 1)
    with pytest.raises(ValueError, match="incompatible"):
        a * from_integer(ctx7, 2, 1)
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(ValueError, match="coefficients"):
        RingElement(ctx5, 2, [1, 2, 3])


def test_invert_examples(ctx5):
    assert zeta(ctx5, 1).invert().coeff_list() == [4, 4, 4, 4]
    assert from_integer(ctx5, 1, 2).invert().coeff_list() == [3, 0, 0, 0]


def test_invert_round_trip_random():
    rng = seeded(17)
    for p, K in ((3, 2), (5, 2), (7, 3), (97, 2)):
        ctx = new_context(p)
        one = from_integer(ctx, K, 1)
        for _ in range(5):
            a = random_unit(ctx, K, rng)
            assert a * a.invert() == one
            assert a ** (-2) == (a.invert()) ** 2


def test_invert_rejects_nonunit(ctx5):
    with pytest.raises(ValueError, match="^invert: element is not a unit$"):
        lam(ctx5, 2).invert()
    with pytest.raises(ValueError, match="^invert: element is not a unit$"):
        from_integer(ctx5, 2, 5).invert()


def _check_large_modulus_ops(K, dtype):
    ctx = new_context(5)
    a = RingElement(ctx, K, [5 ** (K - 1) + 3, 1, 2, 5 ** (K - 2)])
    assert a.coeffs.dtype == dtype
    assert a * a.invert() == from_integer(ctx, K, 1)
    b = a * a - a * a
    assert not b.coeffs.any()


def test_object_dtype_path_large_modulus():
    # 5^14 overflows the int64 product bound (p-1)(m-1)^2 < 2^63; ops fall
    # back to object dtype
    _check_large_modulus_ops(14, object)


def test_int64_path_widest_modulus_at_p5():
    # 5^13 is the widest modulus at p=5 inside the int64 bound
    _check_large_modulus_ops(13, np.int64)


def test_truncate(ctx5):
    # a coarser level is the constructor on the finer coefficients
    a = RingElement(ctx5, 2, [7, 24, 0, 13])
    assert RingElement(ctx5, 1, a.coeffs).coeff_list() == [2, 4, 0, 3]
    x = ExactElement(5, [7, 24, 0, 13])
    assert RingElement(ctx5, 1, x.reduce(ctx5, 2).coeffs) == x.reduce(ctx5, 1)


def test_exact_element_basics():
    a = ExactElement(5, [10**40, -1, 0, 2])
    b = ExactElement.from_integer(5, 3)
    assert (a + b).coeffs[0] == 10**40 + 3
    assert (a - a).coeff_list() == [0, 0, 0, 0]
    assert (-a).coeffs[1] == 1
    assert (a * 2).coeffs[3] == 4
    assert a.conjugate().conjugate() == a
    with pytest.raises(ValueError, match=r"^incompatible elements: \(p=5\) vs \(p=7\)$"):
        a + ExactElement.from_integer(7, 1)
    with pytest.raises(ValueError, match="negative powers"):
        a ** (-1)


def test_exact_coeffs_are_read_only():
    a = ExactElement(5, [10**40, -1, 0, 2])
    with pytest.raises(ValueError, match="read-only"):
        a.coeffs[0] = 1
    assert a.coeff_list() == [10**40, -1, 0, 2]
    assert a.coeffs.dtype == object and type(a.coeffs[0]) is int


def test_exact_equal_by_different_routes_hash_equal():
    a = ExactElement(7, [3, -1, 0, 2**70, 5, -9])
    b = ExactElement(7, [1, 1, -4, 0, 0, 2**65])
    for x, y in [(a * b, b * a), (a.conjugate().conjugate(), a), ((a + b) - b, a),
                 (a * 3, 3 * a), (a**3, a * a * a), (-(-a), a)]:
        assert x == y and hash(x) == hash(y)
    assert {a * b: 1}[b * a] == 1
    assert a != b and a * b != a * a


def test_truncated_and_exact_never_mix(ctx5):
    x = ExactElement.from_integer(5, 1)
    r = from_integer(ctx5, 2, 1)
    assert x.reduce(ctx5, 2) == r
    assert x != r and r != x
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="expected ExactElement, got RingElement"):
            op(x, r)
        with pytest.raises(TypeError, match="expected RingElement, got ExactElement"):
            op(r, x)


def test_mixed_primes_name_both_primes():
    a = ExactElement.from_integer(5, 1)
    b = ExactElement.from_integer(7, 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match=r"^incompatible elements: \(p=5\) vs \(p=7\)$"):
            op(a, b)
    with pytest.raises(ValueError, match=r"^incompatible elements: \(p=5, K=2\) vs \(p=5, K=3\)$"):
        from_integer(new_context(5), 2, 1) + from_integer(new_context(5), 3, 1)
    assert repr(a) == "ExactElement(p=5, coeffs=[1, 0, 0, 0])"


def test_exact_reduce_commutes_with_mul():
    rng = seeded(23)
    for p in (5, 7):
        ctx = new_context(p)
        for _ in range(10):
            ac = [rng.randrange(-1000, 1000) for _ in range(p - 1)]
            bc = [rng.randrange(-1000, 1000) for _ in range(p - 1)]
            xa, xb = ExactElement(p, ac), ExactElement(p, bc)
            assert (xa * xb).reduce(ctx, 2) == xa.reduce(ctx, 2) * xb.reduce(ctx, 2)


@pytest.mark.parametrize(
    "p, K, dtype",
    [(5, 2, np.int64), (5, 12, np.int64), (5, 13, np.int64), (5, 14, object), (7, 11, object)],
)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_reduce_commutes_with_ring_ops(p, K, dtype, data):
    # (5, 13) is the widest int64 modulus at p=5 and (5, 14) the first object one
    ctx = new_context(p)
    coeffs = st.lists(st.integers(-(2**40), 2**40), min_size=p - 1, max_size=p - 1)
    xa, xb = ExactElement(p, data.draw(coeffs)), ExactElement(p, data.draw(coeffs))
    a, b = xa.reduce(ctx, K), xb.reduce(ctx, K)
    assert a.coeffs.dtype == dtype
    e = data.draw(st.integers(0, 6))
    j = data.draw(st.integers(1, p - 1))
    assert (xa * xb).reduce(ctx, K) == a * b
    assert (xa**e).reduce(ctx, K) == a**e
    assert xa.galois_apply(j).reduce(ctx, K) == a.galois_apply(j)


def test_norm_examples():
    # uniformizer has norm p
    for p in (3, 5, 7, 11):
        coeffs = [-1, 1] + [0] * (p - 3)
        assert norm_exact(ExactElement(p, coeffs)) == p
    assert norm_exact(ExactElement.from_integer(5, 2)) == 16
    assert norm_exact(ExactElement(5, [0, 0, 1, 1])) == 1
    assert norm_exact(ExactElement.from_integer(7, 0)) == 0
    # norm of a root of unity is 1
    z = ExactElement(7, [0, 1, 0, 0, 0, 0])
    assert norm_exact(z) == 1


def test_norm_against_sympy_resultant():
    rng = seeded(29)
    for p in (3, 5, 7):
        phi = sympy.Poly([1] * p, _Z)
        for _ in range(8):
            coeffs = [rng.randrange(-9, 10) for _ in range(p - 1)]
            pa = sympy.Poly(list(reversed(coeffs)), _Z)
            expect = int(sympy.resultant(phi, pa))
            assert norm_exact(ExactElement(p, coeffs)) == expect


def test_norm_multiplicative():
    rng = seeded(31)
    for p in (5, 7):
        for _ in range(6):
            a = ExactElement(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            b = ExactElement(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
            assert norm_exact(a * b) == norm_exact(a) * norm_exact(b)


@pytest.mark.parametrize("p", [191, 263])
def test_norm_of_binomials_past_the_whole_gather(p):
    # N(a + b z) = (a^p + b^p)/(a + b) for odd p.  From p = 191 on a prime's
    # evaluations are gathered in chunks of j; at p = 263 the last chunk is
    # partial.
    for a, b in ((3, 1), (2**40 + 1, -(3**20)), (-7, 2**33)):
        x = ExactElement(p, [a, b] + [0] * (p - 3))
        assert norm_exact(x) == (a**p + b**p) // (a + b)


def test_norm_memory_stays_bounded_at_p2039():
    # one prime's (p-1)^2 gather and the (i*j) mod p table used to take
    # 2 * 33 MB here; chunks of j keep each temporary within 256 KB
    p = 2039
    x = ExactElement(p, [3, 1] + [0] * (p - 3))
    tracemalloc.start()
    try:
        N = norm_exact(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N == (3**p + 1) // 4
    assert peak < 4 * 2**20


def test_norm_rejects_truncated(ctx5):
    with pytest.raises(TypeError, match="ExactElement"):
        norm_exact(from_integer(ctx5, 2, 3))


def test_norm_limits():
    # p = 2053 is the first prime past the int64 guard (p-1) * (2^26)^2 < 2^63
    with pytest.raises(ValueError, match="p < 2049"):
        norm_exact(ExactElement.from_integer(2053, 1))
    # the constant 2^k has norm 2^(k(p-1)), exactly at the bound
    cap = _norm_bit_cap(257)
    k = cap // 256  # 256k + 1 bits: fits only while 256k < cap
    assert norm_exact(ExactElement.from_integer(257, 2 ** (k - 1))) == 2 ** (256 * (k - 1))
    with pytest.raises(ValueError, match=f"limit of {cap} bits at p=257"):
        norm_exact(ExactElement.from_integer(257, 2**k))


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 25, 2047])
def test_norm_refuses_a_composite_p(p):
    # Z[z]/(Phi_p) and the norm's residues need an odd prime p: at p=15 the
    # split primes read 11979 for 2 + z, whose resultant with Phi_15 is 331.
    # The element itself refuses p, before any product or norm.
    with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}$"):
        ExactElement(p, [2, 1] + [0] * (p - 3))


def test_segment_cache_holds_a_norm_at_the_cap():
    # A norm at the bit cap reads 23 segments at p=127, the most at any
    # p < 2049; the cache holds them, so a second such norm sieves nothing.
    _split_prime_segment.cache_clear()
    for _ in range(2):
        _crt_primes(127, 2 ** _norm_bit_cap(127) - 1)
    info = _split_prime_segment.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (23, 23, 23)


@pytest.mark.parametrize("p", [3, 257, 1031, 2039])
def test_split_primes_cover_the_cap(p):
    bits = 0.0
    for q, _ in split_primes(p):
        assert q < 2**26 and q % p == 1
        bits += math.log2(q)
        if bits >= _norm_bit_cap(p):
            break
    else:
        pytest.fail(f"primes = 1 mod {p} below 2^26 supply only {bits:.0f} bits")
    roots, tree = _crt_primes(p, 2 ** _norm_bit_cap(p))
    assert roots.size == tree[0].size
    for q, r in zip(tree[0].tolist(), roots.tolist()):
        assert pow(r, p, q) == 1 != r


def _least_root(p, q):
    """r = g^((q-1)/p) mod q for the least g >= 2 with r != 1."""
    g = 2
    while (r := pow(g, (q - 1) // p, q)) == 1:
        g += 1
    return r


@pytest.mark.parametrize("p", [3, 5, 23, 41, 257, 2039])
def test_sieved_primes_match_is_prime(p):
    # Segment s covers m in (top - (s+1)*2^12, top - s*2^12] with
    # top = floor((2^26 - 2)/(2p)); the last one is partial and reaches
    # m = 1, where q = 2p + 1 is below the sieving bound 8192 (4079 at
    # p=2039, itself a sieving prime).
    top = (2**26 - 2) // (2 * p)
    last = _segment_count(p) - 1
    for s in (0, 1, last):
        q, r = _split_prime_segment(p, s)
        hi = top - s * _SEGMENT
        cands = (2 * p * m + 1 for m in range(hi, max(hi - _SEGMENT, 0), -1))
        assert q.tolist() == [c for c in cands if is_prime(c)], s
        assert r.tolist() == [_least_root(p, qi) for qi in q.tolist()], s
    assert hi <= _SEGMENT  # the last segment reaches m = 1
    if p == 2039:
        assert q[-1] == 4079


@pytest.mark.parametrize("p", [3, 41, 257])
def test_crt_primes_take_the_shortest_run(p):
    # The run is the shortest prefix of the descending split primes whose
    # product M exceeds the bound: k primes for M_k - 1, k + 1 for M_k.
    q, roots = zip(*itertools.islice(split_primes(p), 6))
    assert _crt_primes(p, 1)[1][0].tolist() == list(q[:1])
    for k in range(1, 6):
        M = math.prod(q[:k])
        for bound, want in ((M - 1, k), (M, k + 1)):
            r, tree = _crt_primes(p, bound)
            assert tree[0].tolist() == list(q[:want]), (k, bound == M)
            assert r.tolist() == list(roots[:want]), (k, bound == M)
            assert tree[-1] == [math.prod(q[:want])]


def test_galois_fixes_norm():
    a = ExactElement(7, [3, -2, 0, 5, 1, 4])
    for j in range(1, 7):
        assert norm_exact(a.galois_apply(j)) == norm_exact(a)


def test_coeffs_are_read_only(ctx5):
    a = zeta(ctx5, 2)
    with pytest.raises(ValueError):
        a.coeffs[0] = 99
    assert not np.any(a.coeffs[2:])


# (p, K, route) from the smallest to p = 2039 and K = 744; Gauss-Jordan
# (oracles.invert) checks the settings with p <= 103
INVERT_SETTINGS = [
    (3, 40, "object"), (37, 2, "int64"), (101, 4, "int64"), (103, 5, "object"),
    (257, 2, "float"), (23, 744, "object"), (1031, 2, "float"), (2039, 2, "int64"),
    (2039, 8, "object"),
]


@pytest.mark.parametrize("p, K, route", INVERT_SETTINGS)
def test_invert_on_every_route(p, K, route):
    assert _route(p**K, p) == route
    ctx = new_context(p)
    a = random_unit(ctx, K, seeded(p * K))
    inv = a.invert()
    assert inv.coeffs.dtype == a.coeffs.dtype
    assert a * inv == from_integer(ctx, K, 1)
    if p <= 103:
        assert inv == oracles.invert(a)
    with pytest.raises(ValueError, match="^invert: element is not a unit$"):
        (a * lam(ctx, K)).invert()


def test_negative_powers_are_powers_of_the_inverse():
    # object dtype: x ** -e against the oracle's power of the Gauss-Jordan inverse
    p, K = 103, 5
    ctx = new_context(p)
    x = random_unit(ctx, K, seeded(p))
    assert x.coeffs.dtype == object
    inv = oracles.invert(x)
    for e in (1, 2, 5, p):
        assert x ** (-e) == oracles.power(inv, e), e
