import random
from fractions import Fraction

import pytest

from pisingular import RingElement, new_context
from pisingular.norm import _segment_count, _split_prime_segment


@pytest.fixture(scope="session")
def ctx5():
    return new_context(5)


@pytest.fixture(scope="session")
def ctx7():
    return new_context(7)


@pytest.fixture(scope="session")
def ctx13():
    return new_context(13)


def random_element(ctx, K, rng):
    modulus = ctx.p**K
    return RingElement(ctx, K, [rng.randrange(modulus) for _ in range(ctx.p - 1)])


def random_unit(ctx, K, rng):
    while True:
        a = random_element(ctx, K, rng)
        if sum(a.coeff_list()) % ctx.p != 0:
            return a


def seeded(seed):
    return random.Random(seed)


def split_primes(p):
    """The sieved primes q = 1 (mod p) below 2^26, largest first, each as a
    pair (q, r) with r of order p mod q."""
    for s in range(_segment_count(p)):
        q, r = _split_prime_segment(p, s)
        yield from zip(q.tolist(), r.tolist())


def bernoulli_fraction_table(nmax):
    """Exact rational Bernoulli numbers via the defining recurrence.

    Independent of the mod-p code path: arithmetic is over Fraction, the
    binomials come from a separately built Pascal triangle, and reduction
    mod p happens only at comparison time.
    """
    B = [Fraction(0)] * (nmax + 1)
    B[0] = Fraction(1)
    rows = [[1]]
    for n in range(1, nmax + 2):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(n - 1)] + [1])
    for m in range(1, nmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += rows[m + 1][j] * B[j]
        B[m] = -acc / (m + 1)
    return B
