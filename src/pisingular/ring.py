"""Arithmetic in Z[z]/(Phi_p(z)) exactly and modulo prime powers p^K.

Elements live in the power basis 1, z, ..., z^(p-2) of the ring of integers
of the p-th cyclotomic field, where z is a primitive p-th root of unity and
Phi_p is the p-th cyclotomic polynomial.  Products are reduced with the two
rewriting steps z^p = 1 and z^(p-1) = -(1 + z + ... + z^(p-2)).

Two element types:

  * RingElement  -- coefficients in Z/p^K for a fixed truncation level K.
                    K is pinned per element and checked on every binary op.
  * ExactElement -- coefficients are arbitrary Python integers; no
                    truncation ever happens.  Norms are only defined here.

Products of int64 vectors (moduli with 8 * p * (p^K - 1)^2 < 2^63) use
np.convolve.  Products of object-dtype vectors -- wider moduli and exact
coefficients -- use one big-integer multiplication (Kronecker
substitution): each vector becomes one Python int with a slot of w bytes
per coefficient, where w is the least width with
(p-1) * max|a| * max|b| < 2^(8w-1).  Every product coefficient is below
that bound in absolute value, so after a bias of 2^(8w-1) per slot each
one sits in its own slot with no carry into the next: the slots read back
exactly, signs included, and are then folded by z^p = 1 and Phi_p.

norm_exact computes N(B) by evaluation at primes q = 1 (mod p) below 2^26,
where Phi_p splits, and CRT up to the Parseval and AM-GM bound
N(B) <= ((p*sum b_i^2 - (sum b_i)^2)/(p-1))^((p-1)/2).  It refuses, with
ValueError, p >= 2049 (int64 residues) and bounds of more than
min(2^18, 2^25/(p-1)) bits.

Conversion is one-way: ExactElement.reduce(ctx, K) projects into the
truncated ring.  There is deliberately no inverse (a truncated element does
not determine an exact one).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .context import PrimeContext, is_prime

__all__ = [
    "RingElement",
    "ExactElement",
    "from_integer",
    "zeta",
    "lam",
    "norm_exact",
]


def _dtype_for(modulus: int, p: int):
    # Fold sums reach a few times p * (modulus-1)^2; keep 8x headroom.
    if 8 * p * (modulus - 1) ** 2 < 2**63:
        return np.int64
    return object


def _as_coeff_array(values, n: int, modulus: int | None, dtype):
    vals = [int(v) for v in values]
    if len(vals) != n:
        raise ValueError(f"expected {n} coefficients, got {len(vals)}")
    if modulus is not None:
        vals = [v % modulus for v in vals]
    arr = np.array(vals, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _kronecker_conv(a, b) -> list[int]:
    """Full product of two integer coefficient vectors of length n by one
    big-integer multiplication (Kronecker substitution).

    Every product coefficient is a sum of at most n terms a_i * b_j, so its
    absolute value is at most n * max|a| * max|b|.  The slot width of w
    bytes chosen here puts that bound, and every input coefficient (which
    matters only when the other vector is zero), below h = 2^(8w-1).  Each
    vector is packed as the integer sum c_i * X^i with X = 2^(8w): written
    slot by slot as c_i + h in [0, X), then the bias pattern
    h * (1 + X + X^2 + ...) is taken off.  The product is the integer
    sum d_k * X^k with |d_k| < h, so adding the bias pattern again puts
    d_k + h in [0, X) in slot k with no carry between slots: the slots read
    back exactly, signed coefficients included.
    """
    n = len(a)
    amax, bmax = max(map(abs, a)), max(map(abs, b))
    top = max(amax, bmax, n * amax * bmax)
    w = (top.bit_length() + 8) // 8  # bytes per slot: top < 2^(8w-1)
    h = 1 << (8 * w - 1)
    slot_bias = b"\x00" * (w - 1) + b"\x80"  # h, little-endian

    def pack(coeffs) -> int:
        raw = b"".join((c + h).to_bytes(w, "little") for c in coeffs)
        return int.from_bytes(raw, "little") - int.from_bytes(
            slot_bias * len(coeffs), "little"
        )

    m = 2 * n - 1
    pa = pack(a)
    pb = pa if b is a else pack(b)  # a square: pack once, CPython squares faster
    prod = pa * pb + int.from_bytes(slot_bias * m, "little")
    raw = prod.to_bytes(m * w, "little")
    return [int.from_bytes(raw[k * w : (k + 1) * w], "little") - h for k in range(m)]


def _fold_mul(a, b, p: int, modulus: int | None, dtype):
    """Multiply two coefficient vectors of length p-1, reduce by Phi_p.

    int64 vectors (moduli with 8 * p * (modulus-1)^2 < 2^63) go through
    np.convolve.  Object-dtype vectors -- wide moduli and exact coefficients
    -- go through _kronecker_conv, one big-integer product whose slots of w
    bytes hold (p-1) * max|a| * max|b| below the bias 2^(8w-1), so the
    product coefficients come back exactly.  The full product of degree
    2p-4 is then folded by z^p = 1 and z^(p-1) = -(1 + ... + z^(p-2)).
    """
    if dtype is object:
        conv = np.array(_kronecker_conv(a, b), dtype=object)
    else:
        conv = np.convolve(a, b)  # degrees 0 .. 2p-4
    ext = np.zeros(p, dtype=dtype)  # exponents 0 .. p-1 after z^p = 1
    ext[: min(p, conv.size)] += conv[:p]
    if conv.size > p:
        ext[: conv.size - p] += conv[p:]
    out = ext[: p - 1] - ext[p - 1]
    if modulus is not None:
        out = out % modulus
    return out


def _fold_galois(coeffs, j: int, p: int, modulus: int | None, dtype):
    """Apply z -> z^j to a coefficient vector of length p-1."""
    ext = np.zeros(p, dtype=dtype)
    idx = (np.arange(p - 1, dtype=np.int64) * j) % p
    np.add.at(ext, idx, coeffs)
    out = ext[: p - 1] - ext[p - 1]
    if modulus is not None:
        out = out % modulus
    return out


class RingElement:
    """Element of Z[z]/(Phi_p, p^K) in the power basis 1, z, ..., z^(p-2)."""

    __slots__ = ("ctx", "K", "modulus", "coeffs")

    def __init__(self, ctx: PrimeContext, K: int, coeffs):
        if K < 1:
            raise ValueError(f"truncation level K must be >= 1, got {K}")
        self.ctx = ctx
        self.K = K
        self.modulus = ctx.p**K
        dtype = _dtype_for(self.modulus, ctx.p)
        self.coeffs = _as_coeff_array(coeffs, ctx.p - 1, self.modulus, dtype)

    # -- plumbing ---------------------------------------------------------

    def _check_compat(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if self.ctx != other.ctx or self.K != other.K:
            raise ValueError(
                f"incompatible elements: (p={self.ctx.p}, K={self.K}) vs "
                f"(p={other.ctx.p}, K={other.K})"
            )

    def _wrap(self, coeffs) -> "RingElement":
        out = object.__new__(RingElement)
        out.ctx = self.ctx
        out.K = self.K
        out.modulus = self.modulus
        if not isinstance(coeffs, np.ndarray):
            coeffs = np.array(coeffs, dtype=_dtype_for(self.modulus, self.ctx.p))
        coeffs.setflags(write=False)
        out.coeffs = coeffs
        return out

    def coeff_list(self) -> list[int]:
        return [int(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return (
            f"RingElement(p={self.ctx.p}, K={self.K}, "
            f"coeffs={self.coeff_list()})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.K == other.K
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.ctx, self.K, tuple(self.coeff_list())))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._wrap((self.coeffs + other.coeffs) % self.modulus)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._wrap((self.coeffs - other.coeffs) % self.modulus)

    def __neg__(self) -> "RingElement":
        return self._wrap((-self.coeffs) % self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.coeffs * (other % self.modulus) % self.modulus)
        self._check_compat(other)
        p = self.ctx.p
        dtype = _dtype_for(self.modulus, p)
        return self._wrap(
            _fold_mul(self.coeffs, other.coeffs, p, self.modulus, dtype)
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "RingElement":
        if e < 0:
            return self.invert() ** (-e)
        base = self
        acc = from_integer(self.ctx, self.K, 1)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def galois_apply(self, j: int) -> "RingElement":
        """Apply the automorphism z -> z^j; j must be nonzero mod p."""
        p = self.ctx.p
        j = j % p
        if j == 0:
            raise ValueError("galois_apply: exponent must be nonzero mod p")
        dtype = _dtype_for(self.modulus, p)
        return self._wrap(_fold_galois(self.coeffs, j, p, self.modulus, dtype))

    def conjugate(self) -> "RingElement":
        return self.galois_apply(self.ctx.p - 1)

    def truncate(self, K2: int) -> "RingElement":
        """Project to a coarser truncation level K2 <= K."""
        if K2 > self.K:
            raise ValueError(f"cannot refine truncation {self.K} to {K2}")
        if K2 == self.K:
            return self
        return RingElement(self.ctx, K2, self.coeff_list())

    def invert(self) -> "RingElement":
        """Multiplicative inverse; errors if the element is not a unit.

        Z[z]/(Phi_p, p^K) is local with maximal ideal generated by lam = z - 1,
        so a is a unit iff a(1) is a unit mod p.  Newton iteration
        x <- x * (2 - a*x) from the constant x = a(1)^(-1) squares the error
        1 - a*x at each step, so its lam-adic valuation doubles from 1 until
        it reaches the truncation cap K*(p-1), where the error is 0.
        """
        p = self.ctx.p
        a1 = int(self.coeffs.sum())
        if a1 % p == 0:
            from .padic import valuation

            raise ValueError(
                f"invert: element is not a unit, valuation is {valuation(self)}"
            )
        x = from_integer(self.ctx, self.K, pow(a1, -1, self.modulus))
        two = from_integer(self.ctx, self.K, 2)
        prec = 1
        while prec < self.K * (p - 1):
            x = x * (two - self * x)
            prec *= 2
        return x


class ExactElement:
    """Element of Z[z]/(Phi_p) with arbitrary-precision integer coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        vals = tuple(int(v) for v in coeffs)
        if len(vals) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(vals)}")
        self.coeffs = vals

    @classmethod
    def from_integer(cls, p: int, n: int) -> "ExactElement":
        return cls(p, (n,) + (0,) * (p - 2))

    def _arr(self):
        return np.array(self.coeffs, dtype=object)

    def __repr__(self) -> str:
        return f"ExactElement(p={self.p}, coeffs={list(self.coeffs)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def _check(self, other):
        if not isinstance(other, ExactElement):
            raise TypeError(f"expected ExactElement, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        return ExactElement(self.p, (x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return ExactElement(self.p, (x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return ExactElement(self.p, (-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactElement(self.p, (x * other for x in self.coeffs))
        self._check(other)
        out = _fold_mul(self.coeffs, other.coeffs, self.p, None, object)
        return ExactElement(self.p, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "ExactElement":
        if e < 0:
            raise ValueError("negative powers are not defined exactly")
        base = self
        acc = ExactElement.from_integer(self.p, 1)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def galois_apply(self, j: int) -> "ExactElement":
        p = self.p
        j = j % p
        if j == 0:
            raise ValueError("galois_apply: exponent must be nonzero mod p")
        out = _fold_galois(self._arr(), j, p, None, object)
        return ExactElement(p, out)

    def conjugate(self) -> "ExactElement":
        return self.galois_apply(self.p - 1)

    def reduce(self, ctx: PrimeContext, K: int) -> RingElement:
        """Project into Z/p^K coefficients.  The inverse direction is not
        provided: truncated elements do not lift canonically."""
        if ctx.p != self.p:
            raise ValueError(f"context prime {ctx.p} != element prime {self.p}")
        return RingElement(ctx, K, self.coeffs)


_Q_LIMIT = 2**26  # residue primes for norm_exact lie below this
# norm_exact needs p below this, 2049: its int64 mat-vec sums are below
# (p-1) * _Q_LIMIT^2, which must stay below 2^63.  Bundles are checked
# against it when they are loaded.
_P_LIMIT = 2**63 // _Q_LIMIT**2 + 1
# Bits of the norm bound that norm_exact accepts at prime p.  2^25/(p-1) is
# about a third of what the primes q = 1 (mod p) below 2^26 supply (their
# log2 sum is close to 2^26/(ln 2 * (p-1))), and 2^18 keeps a norm at the cap,
# whose CRT is quadratic in the bit count, to one or two seconds.
_NORM_MAX_BITS = 2**18


def _norm_bit_cap(p: int) -> int:
    return min(_NORM_MAX_BITS, 2**25 // (p - 1))


_PRIME_BLOCK = 256  # candidates q = 2pm + 1 per cached block


@functools.lru_cache(maxsize=1024)
def _split_prime_block(p: int, k: int) -> tuple[tuple[int, int], ...]:
    """(q, r) for the primes among the k-th block of candidates q = 2pm + 1
    below 2^26, largest first, with r of order p mod q."""
    top = (_Q_LIMIT - 2) // (2 * p) - k * _PRIME_BLOCK
    out = []
    for m in range(top, max(top - _PRIME_BLOCK, 0), -1):
        q = 2 * p * m + 1
        if is_prime(q):
            g = 2
            while (r := pow(g, (q - 1) // p, q)) == 1:
                g += 1
            out.append((q, r))
    return tuple(out)


def _split_primes(p: int):
    """Yield (q, r) for the primes q = 1 (mod p) below 2^26, largest first."""
    blocks = -(-((_Q_LIMIT - 2) // (2 * p)) // _PRIME_BLOCK)
    for k in range(blocks):
        yield from _split_prime_block(p, k)


@functools.lru_cache(maxsize=4)
def _exponent_table(p: int) -> np.ndarray:
    """(i * j) mod p for rows j = 1 .. p-1 and columns i = 0 .. p-2."""
    j = np.arange(1, p, dtype=np.intp)[:, None]
    i = np.arange(p - 1, dtype=np.intp)[None, :]
    table = i * j % p
    table.setflags(write=False)
    return table


def _norm_mod(coeffs, p: int, q: int, r: int) -> int:
    """N(B) mod q as the product of B(r^j) over j = 1 .. p-1."""
    powers = np.ones(p, dtype=np.int64)  # r^k mod q, by doubling the prefix
    k, step = 1, r
    while k < p:
        n = min(k, p - k)
        powers[k : k + n] = powers[:n] * step % q
        step = step * step % q
        k += n
    b = np.array([c % q for c in coeffs], dtype=np.int64)
    # each entry is a sum of p-1 products below q^2: the int64 guard
    values = powers[_exponent_table(p)] @ b % q
    prod = np.ones(1 << (p - 2).bit_length(), dtype=np.int64)
    prod[: p - 1] = values
    while prod.size > 1:
        half = prod.size // 2
        prod = prod[:half] * prod[half:] % q
    return int(prod[0])


def _norm_bound(a: ExactElement) -> int:
    """An integer F >= N(a): the floor of (S/(p-1))^((p-1)/2).

    S = p * sum(b_i^2) - (sum b_i)^2 is the sum of |a(z^j)|^2 over
    j = 1 .. p-1 (Parseval over the p-th roots of unity, minus the j = 0
    term), and AM-GM bounds the product of those p-1 squares by
    (S/(p-1))^(p-1).  Rational constants and roots of unity meet it exactly.
    Raises ValueError when F has more bits than the cap at p; a float
    estimate refuses far larger bounds before S^((p-1)/2) is formed.
    """
    p = a.p
    S = p * sum(c * c for c in a.coeffs) - sum(a.coeffs) ** 2
    if S == 0:
        return 0
    h = (p - 1) // 2
    cap = _norm_bit_cap(p)
    bits = h * (math.log2(S) - math.log2(p - 1))
    if bits <= cap + 1:
        bound = S**h // (p - 1) ** h
        if bound.bit_length() <= cap:
            return bound
        bits = bound.bit_length()
    raise ValueError(
        f"norm_exact: the norm bound needs about {bits:.0f} bits, over the "
        f"limit of {cap} bits at p={p} (min(2^18, 2^25/(p-1)))"
    )


def norm_exact(a: ExactElement) -> int:
    """Field norm down to Q, the resultant of Phi_p and a's polynomial.

    Computed by evaluation at split primes and CRT.  For each prime
    q = 1 (mod p) below 2^26, descending, N(a) mod q is the product of
    a(r^j) over j = 1 .. p-1 with r of order p mod q: one int64 mat-vec with
    the table r^((i*j) mod p) and a product mod q.  The residues are folded
    in by incremental CRT until the modulus M exceeds the bound of
    _norm_bound, so the result is exact.  The field is totally complex, so
    N(a) = prod over conjugate pairs of |a(z^j)|^2 >= 0 and the residue is
    read in [0, M).

    Limits (ValueError): an odd prime p < 2049, so that the mat-vec sums
    (p-1)*q^2 stay below 2^63; and the bound must fit in min(2^18, 2^25/(p-1)) bits, so
    that the primes suffice and the CRT stays short.
    Only exact elements have norms; truncated elements lose the integer.
    """
    if isinstance(a, RingElement):
        raise TypeError(
            "norms are not defined on truncated elements; use ExactElement"
        )
    p = a.p
    if p < 3 or p >= _P_LIMIT:
        raise ValueError(
            f"norm_exact: p={p} is out of range; it needs an odd prime p < {_P_LIMIT}, "
            f"so that int64 residues keep (p-1) * (2^26)^2 < 2^63"
        )
    bound = _norm_bound(a)
    x, M = 0, 1
    primes = _split_primes(p)
    while M <= bound:
        prime = next(primes, None)
        if prime is None:
            raise ValueError(
                f"norm_exact: the primes q = 1 (mod {p}) below 2^26 do not cover "
                f"the norm bound of {bound.bit_length()} bits"
            )
        q, r = prime
        residue = _norm_mod(a.coeffs, p, q, r)
        x += M * ((residue - x) * pow(M % q, -1, q) % q)
        M *= q
    return x


def from_integer(ctx: PrimeContext, K: int, n: int) -> RingElement:
    """The constant element n."""
    return RingElement(ctx, K, (n,) + (0,) * (ctx.p - 2))


def zeta(ctx: PrimeContext, K: int, j: int = 1) -> RingElement:
    """The root-of-unity power z^j as a ring element."""
    j = j % ctx.p
    coeffs = [0] * (ctx.p - 1)
    if j <= ctx.p - 2:
        coeffs[j] = 1
    else:  # z^(p-1) written in the basis
        coeffs = [-1] * (ctx.p - 1)
    return RingElement(ctx, K, coeffs)


def lam(ctx: PrimeContext, K: int) -> RingElement:
    """The uniformizer z - 1 of the ramified prime."""
    coeffs = [0] * (ctx.p - 1)
    coeffs[0] = -1
    coeffs[1] = 1
    return RingElement(ctx, K, coeffs)
