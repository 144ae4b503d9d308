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

Conversion is one-way: ExactElement.reduce(ctx, K) projects into the
truncated ring.  There is deliberately no inverse (a truncated element does
not determine an exact one).
"""

from __future__ import annotations

import numpy as np

from .context import PrimeContext

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


def _fold_mul(a, b, p: int, modulus: int | None, dtype):
    """Multiply two coefficient vectors of length p-1, reduce by Phi_p."""
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
        out = _fold_mul(self._arr(), other._arr(), self.p, None, object)
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


def _bareiss_det(M: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss recurrence)."""
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def norm_exact(a: ExactElement) -> int:
    """Field norm down to Q, computed as det of the multiplication matrix.

    Equals the resultant of Phi_p and the coefficient polynomial of a.
    Only exact elements have norms; truncated elements lose the integer.
    """
    if isinstance(a, RingElement):
        raise TypeError(
            "norms are not defined on truncated elements; use ExactElement"
        )
    p = a.p
    cols = [list(a.coeffs)]
    for _ in range(p - 2):
        prev = cols[-1]
        ext = [0] + prev  # multiply by z
        top = ext[p - 1]
        cols.append([ext[i] - top for i in range(p - 1)])
    M = [[cols[j][i] for j in range(p - 1)] for i in range(p - 1)]
    return _bareiss_det(M)


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
