"""Prime-level context: primitive root tables and Bernoulli data mod p.

Everything downstream is computed relative to a single odd prime p together
with a fixed primitive root u mod p.  The context precomputes the power
table u_i = u^i mod p and its inverse (a discrete-log table), which realize
the automorphism group of the degree p-1 cyclotomic extension as exponent
arithmetic mod p-1.  It also computes Bernoulli numbers mod p for the even
indices 2 <= k <= p-3 and reports the irregular pairs B_k == 0.

The Bernoulli numbers come from the Fermat quotients q_a = (a^(p-1) - 1)/p:

    B_k = -k * sum_{a=1}^{p-1} a^k * q_a  (mod p).

Proof: a^p = w(a) (mod p^2), w the Teichmueller lift, so a = w(a)(1 - p q_a)
and a^k = w(a)^k (1 - k p q_a) (mod p^2).  The sum of w(a)^k over a is 0
when p-1 does not divide k, so sum_a a^k = -k p sum_a a^k q_a (mod p^2),
and sum_a a^k = p B_k (mod p^2) (Ireland & Rosen, ch. 15; Washington,
Introduction to Cyclotomic Fields, ch. 5).  Summed along the orbit a = u^i,
this is one transform of the q_a over F_p for every k at once (see
PrimeContext._bernoulli_table), the way Buhler, Crandall, Ernvall and
Metsankyla scan for irregular primes.

Two checks live here: _check_odd_prime for PrimeContext and ring.ExactElement,
and _check_even_index (2 <= 2m <= p-3) for bernoulli_mod_p and units.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = [
    "PrimeContext",
    "new_context",
    "is_prime",
    "smallest_primitive_root",
]

# Fixed witness set: Miller-Rabin with these bases is deterministic for all
# n < 3_317_044_064_679_887_385_961_981, far above the supported range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Bernoulli numbers mod p are refused from p = 55109 on, the first p with
# p^4 >= 2^63: below it the table can be checked against int64 power sums
# mod p^2 (tests/oracles.py).  The transform of _bernoulli_table is exact
# well past it: its float64 sums stay below (p-1)*p^2, under 2^53 for every
# p <= 208064.  No command goes past p = 2049 (norm._P_LIMIT).
_BERNOULLI_P_LIMIT = math.isqrt(math.isqrt(2**63 - 1)) + 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_primitive_root(u: int, p: int, factors: list[int]) -> int | None:
    """Return None if u generates, else a prime q | p-1 with u^((p-1)/q) = 1.
    u must be prime to p."""
    for q in factors:
        if pow(u, (p - 1) // q, p) == 1:
            return q
    return None


def smallest_primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    for u in range(2, p):
        if _is_primitive_root(u, p, factors) is None:
            return u
    raise ValueError(f"no primitive root found mod {p}; is {p} prime?")


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _check_even_index(what: str, p: int, two_m: int) -> None:
    """Refuse an index 2m that is odd or outside [2, p-3], the range of the
    Bernoulli table and of the unit projections; what leads the message."""
    if two_m % 2 != 0 or not (2 <= two_m <= p - 3):
        raise ValueError(f"{what} must be even in [2, {p - 3}], got {two_m}")


class PrimeContext:
    """Immutable bundle of tables for one odd prime p and primitive root u.

    Attributes:
        p:      the odd prime.
        u:      the primitive root mod p in use.
        half:   (p-1)//2, the conjugation exponent offset.
        upow:   tuple of length p-1 with upow[i] = u^i mod p.
        uindex: tuple of length p; uindex[a] = i with u^i = a mod p, and
                uindex[0] = -1 (unused; 0 has no discrete log).

    Instances are immutable after construction and safe to share across
    threads; the Bernoulli table is a compute-once cache.
    """

    def __init__(self, p: int, u: int | None = None):
        _check_odd_prime(p)
        factors = _prime_factors(p - 1)
        if u is None:
            u = smallest_primitive_root(p)
        else:
            if u % p == 0:
                raise ValueError(f"u={u} is not a primitive root mod {p}: {p} divides it")
            bad = _is_primitive_root(u, p, factors)
            if bad is not None:
                raise ValueError(
                    f"u={u} is not a primitive root mod {p}: "
                    f"u^(({p}-1)/{bad}) == 1 (mod {p})"
                )
            u = u % p
        self.p = p
        self.u = u
        self.half = (p - 1) // 2
        upow = [1] * (p - 1)
        for i in range(1, p - 1):
            upow[i] = upow[i - 1] * u % p
        uindex = [-1] * p
        for i, a in enumerate(upow):
            uindex[a] = i
        self.upow = tuple(upow)
        self.uindex = tuple(uindex)

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, u={self.u})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeContext)
            and self.p == other.p
            and self.u == other.u
        )

    def __hash__(self) -> int:
        return hash((self.p, self.u))

    def index_of(self, a: int) -> int:
        """Discrete log: the i in 0..p-2 with u^i = a mod p."""
        a = a % self.p
        if a == 0:
            raise ValueError(f"index_of: {a} is divisible by p={self.p}")
        return self.uindex[a]

    @cached_property
    def _bernoulli_table(self) -> tuple[int, ...]:
        """B_k mod p at index k/2 - 1 for even 2 <= k <= p-3, as
        B_k = -k * S(k) with S(k) = sum_i c_i u^(ik), c_i = q_a at a = u^i
        (module docstring).  No int64 product reaches p^3.

        1. The Fermat quotients along the orbit: with A_i = u^i mod p and
           u A_(i-1) = A_i + p t_i, raising to the power p-1 mod p^2 gives
           c_i = c_(i-1) + q_u + t_i A_i^(-1) (mod p) from c_0 = q_1 = 0,
           one cumsum; A_i^(-1) = A_(-i).
        2. Every S(k) by one correlation: ik = C(i+k, 2) - C(i, 2) - C(k, 2),
           so S(k) = u^(-C(k, 2)) sum_i x_i y_(i+k) with x_i = c_i u^(-C(i, 2))
           and y_j = u^(C(j, 2)), exponents mod p-1.  The correlation runs
           in float64: its sums stay below (p-1)*p^2 < 2^53, so are exact.
        3. B_k = -k * S(k) mod p.
        """
        p = self.p
        if p >= _BERNOULLI_P_LIMIT:
            raise ValueError(f"Bernoulli numbers mod p need p < {_BERNOULLI_P_LIMIT}, got {p}")
        n = p - 1
        upow = np.array(self.upow, dtype=np.int64)
        i = np.arange(n, dtype=np.int64)
        t = self.u * upow[i - 1] // p
        q_u = (pow(self.u, n, p * p) - 1) // p
        step = (q_u + t * upow[-i % n]) % p
        step[0] = 0
        c = np.cumsum(step) % p
        j = np.arange(2 * n - 2, dtype=np.int64)
        y = upow[j * (j - 1) // 2 % n].astype(np.float64)
        x = (c * upow[-(i * (i - 1) // 2) % n] % p).astype(np.float64)
        k = np.arange(2, p - 2, 2, dtype=np.int64)
        s = np.correlate(y, x, "valid")[k].astype(np.int64) % p
        return tuple((-k * s % p * upow[-(k * (k - 1) // 2) % n] % p).tolist())

    def bernoulli_mod_p(self, two_m: int) -> int:
        """B_{2m} mod p for even 2m with 2 <= 2m <= p-3."""
        _check_even_index("bernoulli_mod_p: index", self.p, two_m)
        return self._bernoulli_table[two_m // 2 - 1]

    def irregular_pairs(self) -> list[int]:
        """Even indices 2m in [2, p-3] with B_{2m} == 0 mod p."""
        return [2 * i + 2 for i, b in enumerate(self._bernoulli_table) if b == 0]


def new_context(p: int, u: int | None = None) -> PrimeContext:
    """Build a PrimeContext; u defaults to the smallest primitive root."""
    return PrimeContext(p, u)
