"""Prime-level context: primitive root tables and Bernoulli data mod p.

Everything downstream is computed relative to a single odd prime p together
with a fixed primitive root u mod p.  The context precomputes the power
table u_i = u^i mod p and its inverse (a discrete-log table), which realize
the automorphism group of the degree p-1 cyclotomic extension as exponent
arithmetic mod p-1.  It also computes Bernoulli numbers mod p for the even
indices 2 <= 2m <= p-3 and reports the irregular index pairs B_{2m} == 0.
"""

from __future__ import annotations

from functools import cached_property

__all__ = [
    "PrimeContext",
    "new_context",
    "is_prime",
    "smallest_primitive_root",
]

# Fixed witness set: Miller-Rabin with these bases is deterministic for all
# n < 3_317_044_064_679_887_385_961_981, far above the supported range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """Return None if u generates, else a prime q | p-1 with u^((p-1)/q) = 1."""
    if u % p == 0:
        return factors[0]
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
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        factors = _prime_factors(p - 1)
        if u is None:
            u = smallest_primitive_root(p)
        else:
            u = u % p
            bad = _is_primitive_root(u, p, factors)
            if bad is not None:
                raise ValueError(
                    f"u={u} is not a primitive root mod {p}: "
                    f"u^(({p}-1)/{bad}) == 1 (mod {p})"
                )
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
        # B_m mod p for 0 <= m <= p-3 via the standard recurrence
        # sum_{j=0}^{m} C(m+1, j) B_j = 0.  Every inverse taken is of
        # m+1 <= p-2, a unit mod p, so the classical denominators at the
        # von Staudt-Clausen poles are never touched.
        p = self.p
        nmax = p - 3
        table = [0] * (nmax + 1)
        if nmax >= 0:
            table[0] = 1
        row = [1]  # Pascal row C(k, .) mod p, advanced as needed
        for m in range(1, nmax + 1):
            while len(row) < m + 2:
                row = (
                    [1]
                    + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)]
                    + [1]
                )
            acc = 0
            for j in range(m):
                acc = (acc + row[j] * table[j]) % p
            table[m] = -acc * pow(m + 1, -1, p) % p
        return tuple(table)

    def bernoulli_mod_p(self, two_m: int) -> int:
        """B_{2m} mod p for even 2m with 2 <= 2m <= p-3."""
        if two_m % 2 != 0 or not (2 <= two_m <= self.p - 3):
            raise ValueError(
                f"bernoulli_mod_p: index must be even in [2, {self.p - 3}], "
                f"got {two_m}"
            )
        return self._bernoulli_table[two_m]

    def irregular_pairs(self) -> list[int]:
        """Even indices 2m in [2, p-3] with B_{2m} == 0 mod p."""
        return [
            m
            for m in range(2, self.p - 2, 2)
            if self._bernoulli_table[m] == 0
        ]


def new_context(p: int, u: int | None = None) -> PrimeContext:
    """Build a PrimeContext; u defaults to the smallest primitive root."""
    return PrimeContext(p, u)
