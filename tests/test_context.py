"""Prime context: primality, primitive roots, discrete logs, Bernoulli mod p."""

from fractions import Fraction

import pytest
import sympy

from pisingular import is_prime, new_context, smallest_primitive_root
from pisingular.context import _BERNOULLI_P_LIMIT

import oracles
from conftest import bernoulli_fraction_table


def _sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return flags


def test_is_prime_against_sieve():
    flags = _sieve(2000)
    for n in range(2000 + 1):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_cases():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**32 + 1)
    assert is_prime(65537)


def test_new_context_examples():
    ctx = new_context(5)
    assert ctx.u == 2
    assert ctx.upow == (1, 2, 4, 3)
    assert ctx.uindex == (-1, 0, 1, 3, 2)
    assert ctx.half == 2

    ctx7 = new_context(7)
    assert ctx7.u == 3
    assert ctx7.index_of(6) == 3

    assert new_context(3).u == 2


def test_new_context_rejects_bad_input():
    with pytest.raises(ValueError, match="odd prime"):
        new_context(9)
    with pytest.raises(ValueError, match="odd prime"):
        new_context(2)
    with pytest.raises(ValueError, match="not a primitive root"):
        new_context(5, u=4)  # order 2
    with pytest.raises(ValueError, match="not a primitive root"):
        new_context(7, u=2)  # order 3


@pytest.mark.parametrize(
    "p, u, message",
    [
        (7, 14, "u=14 is not a primitive root mod 7: 7 divides it"),
        (7, 0, "u=0 is not a primitive root mod 7: 7 divides it"),
        (7, -7, "u=-7 is not a primitive root mod 7: 7 divides it"),
        (7, 9, "u=9 is not a primitive root mod 7: u^((7-1)/2) == 1 (mod 7)"),
        (7, -1, "u=-1 is not a primitive root mod 7: u^((7-1)/3) == 1 (mod 7)"),
        (13, 29, "u=29 is not a primitive root mod 13: u^((13-1)/2) == 1 (mod 13)"),
    ],
)
def test_refused_primitive_root_names_the_given_u(p, u, message):
    with pytest.raises(ValueError) as exc:
        new_context(p, u=u)
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_refused_primitive_root_reason_holds(p):
    # Every refusal names the u it was given, and its reason is true of u:
    # p | u, or u^((p-1)/q) == 1 (mod p) for the prime q it names.
    for u in range(-2 * p, 3 * p + 1):
        if u % p and sympy.is_primitive_root(u % p, p):
            assert new_context(p, u=u).u == u % p
            continue
        with pytest.raises(ValueError) as exc:
            new_context(p, u=u)
        head, reason = str(exc.value).split(": ", 1)
        assert head == f"u={u} is not a primitive root mod {p}", u
        if u % p == 0:
            assert reason == f"{p} divides it"
        else:
            q = int(reason.split("/")[1].split(")")[0])
            assert (p - 1) % q == 0 and sympy.isprime(q), u
            assert pow(u, (p - 1) // q, p) == 1, u


def test_custom_primitive_root_accepted():
    ctx = new_context(7, u=5)
    assert ctx.u == 5
    assert sorted(ctx.upow) == list(range(1, 7))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 97])
def test_power_table_properties(p):
    ctx = new_context(p)
    # u^i enumerates every nonzero residue exactly once
    assert sorted(ctx.upow) == list(range(1, p))
    # discrete-log inversion round-trips
    for a in range(1, p):
        assert ctx.upow[ctx.index_of(a)] == a
    # conjugation exponent: u^((p-1)/2) = -1
    assert ctx.upow[ctx.half] == p - 1


def test_index_of_rejects_multiples_of_p():
    ctx = new_context(7)
    with pytest.raises(ValueError, match="divisible by p"):
        ctx.index_of(0)
    with pytest.raises(ValueError, match="divisible by p"):
        ctx.index_of(14)


def test_smallest_primitive_root_oracle():
    # brute-force order computation as the oracle
    for p in (3, 5, 7, 11, 13, 23, 41):
        u = smallest_primitive_root(p)
        for cand in range(2, u):
            orders = {pow(cand, k, p) for k in range(1, p)}
            assert len(orders) < p - 1, f"{cand} generates mod {p} but {u} returned"
        assert len({pow(u, k, p) for k in range(1, p)}) == p - 1


def test_bernoulli_known_values():
    assert new_context(5).bernoulli_mod_p(2) == 1  # B_2 = 1/6 = 1 mod 5
    assert new_context(7).bernoulli_mod_p(4) == 3  # B_4 = -1/30 = 3 mod 7
    assert new_context(37).bernoulli_mod_p(32) == 0


def test_bernoulli_against_exact_rational_oracle():
    table = bernoulli_fraction_table(97)
    for p in (5, 7, 11, 13, 17, 19, 37, 59, 67, 97):
        ctx = new_context(p)
        for two_m in range(2, p - 2, 2):
            frac = table[two_m]
            assert frac.denominator % p != 0
            expected = (
                frac.numerator * pow(frac.denominator, -1, p)
            ) % p
            assert ctx.bernoulli_mod_p(two_m) == expected, (p, two_m)


def test_bernoulli_against_sympy():
    for p in (11, 37, 67):
        ctx = new_context(p)
        for two_m in range(2, p - 2, 2):
            frac = Fraction(sympy.Rational(sympy.bernoulli(two_m)))
            expected = (frac.numerator * pow(frac.denominator, -1, p)) % p
            assert ctx.bernoulli_mod_p(two_m) == expected


@pytest.mark.parametrize(
    "p", [p for p in range(3, 500) if is_prime(p)] + [997, 2039]
)
def test_bernoulli_power_sums_match_recurrence_oracle(p):
    ctx = new_context(p)
    table = oracles.bernoulli_table(p)
    got = [ctx.bernoulli_mod_p(k) for k in range(2, p - 2, 2)]
    assert got == table[2 : p - 2 : 2]
    assert ctx.irregular_pairs() == [k for k in range(2, p - 2, 2) if table[k] == 0]


def test_bernoulli_transform_matches_power_sums_below_2049():
    # every prime that irregular --max 2048 scans, against the per-k loop
    # the Fermat-quotient transform replaced
    for p in range(3, 2049, 2):
        if is_prime(p):
            ctx = new_context(p)
            assert list(ctx._bernoulli_table) == oracles.bernoulli_power_sums(p), p


def test_bernoulli_transform_exact_below_the_limit():
    # at the largest prime the table serves, the float64 sums reach 2^47;
    # a few k against Python-int power sums mod p^2
    p = 55103
    assert p == max(n for n in range(_BERNOULLI_P_LIMIT - 20, _BERNOULLI_P_LIMIT) if is_prime(n))
    table = new_context(p)._bernoulli_table
    m = p * p
    for k in (2, 4, 27552, p - 3):
        power_sum = sum(pow(a, k, m) for a in range(1, p)) % m
        assert power_sum % p == 0
        assert table[k // 2 - 1] == power_sum // p, k


def test_irregular_pairs_below_300_match_the_classical_table():
    pairs = [
        (p, k) for p in range(3, 300) if is_prime(p) for k in new_context(p).irregular_pairs()
    ]
    assert pairs == [
        (37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22), (149, 130),
        (157, 62), (157, 110), (233, 84), (257, 164), (263, 100), (271, 84),
        (283, 20), (293, 156),
    ]


def test_bernoulli_refused_past_the_int64_limit():
    # the limit is the first p with p^4 >= 2^63, the bound of the int64 power
    # sums of oracles.bernoulli_power_sums; the transform is exact well past it
    assert (_BERNOULLI_P_LIMIT - 1) ** 4 < 2**63 <= _BERNOULLI_P_LIMIT**4
    p = next(n for n in range(55109, 55200) if is_prime(n))
    assert p == _BERNOULLI_P_LIMIT == 55109
    ctx = new_context(p)
    with pytest.raises(ValueError, match="p < 55109"):
        ctx.bernoulli_mod_p(2)
    with pytest.raises(ValueError, match="p < 55109"):
        ctx.irregular_pairs()


def test_bernoulli_rejects_bad_index():
    ctx = new_context(7)
    for bad in (1, 3, 0, -2, 6, 8):
        with pytest.raises(ValueError, match="even"):
            ctx.bernoulli_mod_p(bad)


def test_regular_primes_have_no_pairs():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert new_context(p).irregular_pairs() == [], p


def test_irregular_pairs_found():
    assert new_context(37).irregular_pairs() == [32]
    assert new_context(59).irregular_pairs() == [44]
    assert new_context(67).irregular_pairs() == [58]


def test_context_equality_and_hash():
    a, b = new_context(5), new_context(5)
    assert a == b and hash(a) == hash(b)
    assert a != new_context(7)
    assert a != new_context(5, u=3)
