"""Arithmetic in Z[z]/(Phi_p(z)) exactly and modulo prime powers p^K.

Elements live in the power basis 1, z, ..., z^(p-2) of the ring of integers
of the p-th cyclotomic field, where z is a primitive p-th root of unity and
Phi_p is the p-th cyclotomic polynomial.  Products are reduced with the two
rewriting steps z^p = 1 and z^(p-1) = -(1 + z + ... + z^(p-2)).

One element class: RingElement holds coefficients in Z/p^K, its truncation
level K pinned per element and checked on every binary op.  Its subclass
ExactElement has ctx, K and modulus None: arbitrary Python integers that are
never reduced, one method set serving both.  Norms are only defined there.
The two types never compare equal, and refuse to mix with TypeError.

Products mod p^K take one of three routes, fixed once per (p, p^K) by
_route.  With m = p^K, every coefficient of the folded product of two
reduced vectors is a sum of at most p-1 products a_i * b_j in [0, (m-1)^2],
so it is at most (p-1) * (m-1)^2:

  * "int64"  -- (p-1) * (m-1)^2 < 2^63: np.convolve on int64 vectors, with
                no overflow anywhere.
  * "float"  -- (p-1) * (m-1)^2 < 2^53 and p at or past the measured
                crossover: np.convolve on float64 copies (a BLAS dot product
                per output).  Every product and every partial sum is an
                integer below 2^53, so each is exact in float64 in any
                summation order, with or without FMA, and the result casts
                back to int64 unchanged.
  * "object" -- wider moduli, and exact coefficients: one big-integer
                multiplication (Kronecker substitution).  Each vector
                becomes one Python int with a slot of w bytes per
                coefficient, where w is the least width with
                (p-1) * max|a| * max|b| < 2^(8w-1).  Every product
                coefficient is below that bound in absolute value, so after
                a bias of 2^(8w-1) per slot each one sits in its own slot
                with no carry into the next: the slots read back exactly,
                signs included.
The full product is then folded by z^p = 1 and by _fold, the one Phi_p
rule.  Its inverse _unfold, 1 = -(z + ... + z^(p-1)), gives the span
z^1, ..., z^(p-1), and _normal_slots / _normal_coords the normal basis
z^(u^i); each acts on the last axis, one vector or a stack of rows alike.
A Galois map z -> z^j permutes the coefficients (i -> i*j mod p is
one-to-one) and folds alike, and _fold_mul multiplies stacks row by row.
Powers of either element type, and of a stack of rows, take one
left-to-right square-and-multiply routine, _power.

norm_exact computes N(B) from residues at primes q = 1 (mod p) below 2^26,
where Phi_p splits, in four steps.  A bound: the smaller of the Parseval and
AM-GM bound N(B) <= ((p*sum b_i^2 - (sum b_i)^2)/(p-1))^((p-1)/2) and the
product of certified bounds on |B(z^j)|^2 (module conjugates), from a
float64 pass with a written error bound and an exact fixed-point pass over
integer roots of unity (pi by Machin, e^(2 pi i/p) by Taylor) for the
conjugates the float pass leaves open.  A segmented sieve over m finds the
primes q = 2pm + 1, largest first, and takes the shortest run whose product
M passes the bound; roots of order p are formed for the blocks of primes
that run reaches.  numpy computes N(B) mod q for a block of primes per
pass.  A CRT over the product tree of the run recombines the residues, with
each cofactor inverted by pow.  It refuses, with ValueError, p >= 2049
(int64 residues) and Parseval bounds of more than min(2^18, 2^25/(p-1))
bits.

Conversion is one-way: ExactElement.reduce(ctx, K) projects into the
truncated ring, and RingElement(ctx, K2, a.coeffs) onto a coarser level K2.
There is deliberately no inverse (a truncated element does not determine an
exact one).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .conjugates import _conjugate_bound
from .context import PrimeContext

__all__ = [
    "RingElement",
    "ExactElement",
    "from_integer",
    "zeta",
    "lam",
    "norm_exact",
]


# The float64 convolution beats the int64 one from about this p on; see _fold_mul.
_FLOAT_MIN_P = 80


@functools.lru_cache(maxsize=1024)
def _route(modulus: int, p: int) -> str:
    """How products mod modulus at prime p are formed: "float", "int64" or
    "object" (see _fold_mul).  Chosen once per (modulus, p).

    With m = modulus, the int64 arithmetic on reduced coefficients is exact
    iff (p-1) * (m-1)^2 < 2^63:
      * each convolution coefficient is a sum of at most p-1 products
        a_i * b_j, each in [0, (m-1)^2];
      * after z^p = 1, each folded slot conv[k] is still such a sum of at
        most p-1 products: each i meets at most one j with i+j = k (mod p);
      * conv[:p-1] - conv[p-1] is a difference of two values in [0, 2^63),
        so it stays inside +-2^63.
    The same bound covers every other int64 product of residues: the
    lam-reads of padic._lam_read (route (p, p): p-1 products of residues
    mod p by binomials mod p), coeffs * c % m, and _fold_galois (which only
    permutes and subtracts coefficients).  Below 2^53 the same
    sums are exact in float64, which _fold_mul uses at or past _FLOAT_MIN_P.
    (Brent and Zimmermann, Modern Computer Arithmetic, ch. 1-2, treat such
    exact products of bounded integers.)
    """
    return _exact_route((p - 1) * (modulus - 1) ** 2, p)


def _exact_route(top: int, p: int) -> str:
    """Where sums of p-1 integer products, each partial sum in [-top, top],
    are exact: "float" below 2^53 from p = _FLOAT_MIN_P on (numpy then runs
    BLAS), "int64" below 2^63, else "object"; dtypes in _ROUTE_DTYPE."""
    if top < 2**53 and p >= _FLOAT_MIN_P:
        return "float"
    return "int64" if top < 2**63 else "object"


_ROUTE_DTYPE = {"float": np.float64, "int64": np.int64, "object": object}


def _dtype_for(modulus: int, p: int):
    """np.int64 on the "int64" and "float" routes, object otherwise."""
    return object if _route(modulus, p) == "object" else np.int64


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

    The full product of degree 2p-4 comes from one of three routes, then is
    folded by z^p = 1 and z^(p-1) = -(1 + ... + z^(p-2)):
      * object dtype (wide moduli, and exact coefficients with modulus
        None): _kronecker_conv, exact for any width (module docstring);
      * "float" (_route): np.convolve on float64 copies, cast straight back
        to int64.  (p-1) * (modulus-1)^2 < 2^53 makes every product and
        every partial sum an integer below 2^53, exact in float64;
      * "int64" (_route): np.convolve on int64, exact below 2^63.
    numpy computes a float64 convolution as one BLAS dot product per output
    and an int64 one in a scalar loop, so the float route pays for its two
    casts once p is large enough.  Time of a float64 product over an int64
    one (np.convolve plus casts on random residues mod p^2; median of three
    best-of-7 runs on a shared 2-CPU x86-64 Linux host):

        p      37    53    67    71    79    89    97   101   127   257  1031
        ratio 1.61  1.34  1.18  1.08  0.98  0.90  0.85  0.78  0.65  0.35  0.24

    Hence _FLOAT_MIN_P = 80: below it the int64 route is kept.

    Stacks of rows on the last axis (a and b of one shape) multiply row by
    row.  Below _FLOAT_MIN_P on int64 all rows are convolved at once by p-1
    shifted multiply-adds: the same sums of the same products as
    np.convolve, so the bound of _route holds unchanged.  Elsewhere each
    row takes the vector product above.  Time of the shifts against one
    vector product per row, on stacks of 2^18 / (16 p) rows (the p-th power
    campaign's), best of 7, three runs on the same host:

        p          7        37        67        79       101       257
        shifts   0.6     1.7-2.0   2.6-2.9   2.6-4.1   3.7-4.0   7.6-8.5  ms
        rows   14-19     2.6-4.8   3.1-3.6   2.0-3.2   2.4-2.9   1.4-2.0  ms

    so _FLOAT_MIN_P serves as the crossover here too.
    """
    if getattr(a, "ndim", 1) > 1 and (dtype == object or p >= _FLOAT_MIN_P):
        return np.stack(
            [_fold_mul(x, x if b is a else y, p, modulus, dtype) for x, y in zip(a, b)]
        )
    if dtype == object:
        conv = np.array(_kronecker_conv(a, b), dtype=object)
    elif _route(modulus, p) == "float":
        conv = np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    elif a.ndim == 1:
        conv = np.convolve(a, b)  # degrees 0 .. 2p-4
    else:
        conv = np.zeros(a.shape[:-1] + (2 * p - 3,), dtype=np.int64)
        for i in range(p - 1):
            conv[..., i : i + p - 1] += a[..., i : i + 1] * b
    conv[..., : p - 3] += conv[..., p:]  # z^p = 1, in place: exponents 0 .. p-1 remain
    return _fold(conv[..., :p], modulus)


def _fold(slots, modulus: int | None = None):
    """Power-basis coefficients of the slots of z^0, ..., z^(p-1) on the
    last axis, by Phi_p: z^(p-1) = -(1 + z + ... + z^(p-2)), reduced mod
    modulus if given.  One vector subtracts a scalar, 0.4 us faster at p=7
    than a broadcast column."""
    out = slots[..., :-1] - (slots[-1] if slots.ndim == 1 else slots[..., -1:])
    return _mod(out, modulus)


def _mod(x, modulus: int | None):
    """x mod modulus, in place on an array; x itself when modulus is None,
    the exact case."""
    if modulus is not None:
        x %= modulus
    return x


def _unfold(coeffs):
    """The inverse of _fold onto slots with slot 0 cleared, by
    1 = -(z + ... + z^(p-1)): slots 1 .. p-1 are the span coordinates."""
    slots = np.zeros(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,), dtype=coeffs.dtype)
    slots[..., 1:-1] = coeffs[..., 1:]
    slots[..., 1:] -= coeffs[..., :1]
    return slots


def _normal_slots(ctx: PrimeContext, rows):
    """The slots of z^0, ..., z^(p-1) of normal-basis coordinates (z^(u^i)
    at index i) on the last axis: slot 0 is 0, slots 1 .. p-1 the span."""
    slots = np.zeros(rows.shape[:-1] + (ctx.p,), dtype=rows.dtype)
    slots[..., ctx.upow] = rows
    return slots


def _normal_coords(ctx: PrimeContext, coeffs):
    """The inverse of _fold(_normal_slots(ctx, .)): normal-basis coordinates
    of power-basis coefficients on the last axis."""
    return _unfold(coeffs)[..., ctx.upow]


@functools.lru_cache(maxsize=1024)
def _galois_index(p: int, j: int) -> np.ndarray:
    """Slot i*j mod p of each exponent i = 0 .. p-2 under z -> z^j; i -> i*j
    is one-to-one, so slot p-j stays empty."""
    out = np.arange(p - 1, dtype=np.int64) * j % p
    out.setflags(write=False)
    return out


def _fold_galois(coeffs, j: int, p: int, modulus: int | None):
    """Apply z -> z^j, j nonzero mod p, to power-basis coefficients on the
    last axis, one vector or a stack of rows: a permutation into slots, then
    the fold."""
    if j % p == 0:
        raise ValueError("galois_apply: exponent must be nonzero mod p")
    slots = np.zeros(coeffs.shape[:-1] + (p,), dtype=coeffs.dtype)
    slots[..., _galois_index(p, j % p)] = coeffs
    return _fold(slots, modulus)


def _power(x, e: int, mul=operator.mul):
    """x^e for e >= 1, left to right over the bits of e: bit_length(e) - 1
    squarings and popcount(e) - 1 products mul(., .), which is at most e - 1
    products.  The one power routine of RingElement, ExactElement, the unit
    projection and the p-th power campaign (a stack of rows, by _fold_mul)."""
    out = x
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


class RingElement:
    """Element of Z[z]/(Phi_p, p^K) in the power basis 1, z, ..., z^(p-2).

    The methods serve ExactElement too, whose ctx, K and modulus are None."""

    __slots__ = ("ctx", "K", "modulus", "p", "coeffs")

    def __init__(self, ctx: PrimeContext, K: int, coeffs):
        if K < 1:
            raise ValueError(f"truncation level K must be >= 1, got {K}")
        self.ctx = ctx
        self.K = K
        self.p = ctx.p
        self.modulus = ctx.p**K
        dtype = _dtype_for(self.modulus, ctx.p)
        self.coeffs = _as_coeff_array(coeffs, ctx.p - 1, self.modulus, dtype)

    # -- plumbing ---------------------------------------------------------

    def _params(self) -> str:
        return f"p={self.p}" if self.K is None else f"p={self.p}, K={self.K}"

    def _check_compat(self, other: "RingElement") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if (
            self.K != other.K
            or self.p != other.p
            or (self.ctx is not other.ctx and self.ctx != other.ctx)
        ):
            raise ValueError(
                f"incompatible elements: ({self._params()}) vs ({other._params()})"
            )

    def _wrap(self, coeffs) -> "RingElement":
        out = object.__new__(type(self))
        out.ctx = self.ctx
        out.K = self.K
        out.p = self.p
        out.modulus = self.modulus
        coeffs.setflags(write=False)
        out.coeffs = coeffs
        return out

    def coeff_list(self) -> list[int]:
        return [int(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._params()}, coeffs={self.coeff_list()})"

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

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._wrap(_mod(self.coeffs + other.coeffs, self.modulus))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._wrap(_mod(self.coeffs - other.coeffs, self.modulus))

    def __neg__(self) -> "RingElement":
        return self._wrap(_mod(-self.coeffs, self.modulus))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(_mod(self.coeffs * _mod(other, self.modulus), self.modulus))
        self._check_compat(other)
        return self._wrap(
            _fold_mul(self.coeffs, other.coeffs, self.p, self.modulus, self.coeffs.dtype)
        )

    def __rmul__(self, other):
        return self.__mul__(other) if isinstance(other, int) else NotImplemented

    def __pow__(self, e: int) -> "RingElement":
        if e < 0:
            return _power(self.invert(), -e)
        if e:
            return _power(self, e)
        return self._wrap(np.array([1] + [0] * (self.p - 2), dtype=self.coeffs.dtype))

    def galois_apply(self, j: int) -> "RingElement":
        """Apply the automorphism z -> z^j; j must be nonzero mod p."""
        return self._wrap(_fold_galois(self.coeffs, j, self.p, self.modulus))

    def conjugate(self) -> "RingElement":
        return self.galois_apply(self.p - 1)

    def invert(self) -> "RingElement":
        """Multiplicative inverse; errors if the element is not a unit.

        Z[z]/(Phi_p, p^K) is local with maximal ideal generated by lam = z - 1,
        so a is a unit iff a(1) is a unit mod p.  Newton iteration
        x <- x * (2 - a*x) from the constant x = a(1)^(-1) squares the error
        1 - a*x at each step, so its lam-adic valuation doubles from 1 until
        it reaches the truncation cap K*(p-1), where the error is 0.
        """
        p = self.p
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


class ExactElement(RingElement):
    """Element of Z[z]/(Phi_p) with arbitrary-precision integer coefficients:
    a RingElement whose ctx, K and modulus are None, so nothing is reduced."""

    __slots__ = ()

    # Own entries, so that perfbench/tracer.py can wrap exact products apart.
    __mul__ = RingElement.__mul__
    galois_apply = RingElement.galois_apply

    def __init__(self, p: int, coeffs):
        self.ctx = self.K = self.modulus = None
        self.p = p
        self.coeffs = _as_coeff_array(coeffs, p - 1, None, object)

    @classmethod
    def from_integer(cls, p: int, n: int) -> "ExactElement":
        return cls(p, (n,) + (0,) * (p - 2))

    def invert(self):
        raise ValueError("negative powers are not defined exactly")

    def reduce(self, ctx: PrimeContext, K: int) -> RingElement:
        """Project into Z/p^K coefficients.  The inverse direction is not
        provided: truncated elements do not lift canonically."""
        if ctx.p != self.p:
            raise ValueError(f"context prime {ctx.p} != element prime {self.p}")
        return RingElement(ctx, K, self.coeffs)


_Q_LIMIT = 2**26  # residue primes for norm_exact lie below this
# norm_exact needs p below this, 2049: its int64 evaluation sums are below
# (p-1) * _Q_LIMIT^2, which must stay below 2^63.  Bundles are checked
# against it when they are loaded.
_P_LIMIT = 2**63 // _Q_LIMIT**2 + 1
# Bits of the norm bound that norm_exact accepts at prime p.  2^25/(p-1) is
# about a third of what the primes q = 1 (mod p) below 2^26 supply (their
# log2 sum is close to 2^26/(ln 2 * (p-1))), and 2^18 keeps a norm at the cap,
# whose remainder tree is quadratic in the bit count, to about a second.
_NORM_MAX_BITS = 2**18


def _norm_bit_cap(p: int) -> int:
    return min(_NORM_MAX_BITS, 2**25 // (p - 1))


_SEGMENT = 1 << 14  # multipliers m per sieve segment of the candidates q = 2pm + 1
_BLOCK_BYTES = 1 << 18  # about 256 KB per int64 temporary of the residue blocks


def _powmod(base, exp, mod) -> np.ndarray:
    """base^exp mod mod elementwise on int64 arrays, by square and multiply
    over the bits of exp.  mod < 2^26, so each product is below 2^52."""
    base = np.asarray(base, dtype=np.int64) % mod
    exp = np.asarray(exp, dtype=np.int64)
    out = np.ones(np.broadcast_shapes(base.shape, exp.shape, np.shape(mod)), dtype=np.int64)
    for bit in range(int(exp.max(initial=0)).bit_length()):
        out = np.where((exp >> bit) & 1 == 1, out * base % mod, out)
        base = base * base % mod
    return out


@functools.lru_cache(maxsize=1)
def _sieving_primes() -> np.ndarray:
    """The odd primes up to sqrt(2^26) = 8192."""
    n = math.isqrt(_Q_LIMIT) + 1
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)[1:]


def _segment_count(p: int) -> int:
    return -(-((_Q_LIMIT - 2) // (2 * p)) // _SEGMENT)


@functools.lru_cache(maxsize=32)
def _split_prime_segment(p: int, s: int) -> np.ndarray:
    """The primes q = 2pm + 1 < 2^26 whose m lies in segment s, largest first.

    Segment s holds m in (hi - 2^14, hi] for hi = floor((2^26 - 2)/(2p)) - s*2^14.
    A sieve over m: an odd prime l != p divides 2pm + 1 exactly when
    m = -(2p)^(-1) (mod l), and a composite q < 2^26 has such a factor
    l <= 8192.  Each l strikes those m from the first one with q > l, so a q
    that is itself a sieving prime stays.
    """
    hi = (_Q_LIMIT - 2) // (2 * p) - s * _SEGMENT
    lo = max(hi - _SEGMENT, 0)
    ell = _sieving_primes()
    ell = ell[ell != p]
    m0 = -_powmod(2 * p, ell - 2, ell) % ell
    start = np.maximum(lo + 1, (ell - 1) // (2 * p) + 1)
    first = start + (m0 - start) % ell
    keep = np.ones(max(hi - lo, 0), dtype=bool)
    for prime, f in zip(ell.tolist(), (first - lo - 1).tolist()):
        keep[f::prime] = False
    q = 2 * p * (lo + 1 + np.flatnonzero(keep)[::-1]) + 1
    q.setflags(write=False)
    return q


_ROOT_BLOCK = 64  # primes per cached block of roots of order p


@functools.lru_cache(maxsize=256)
def _root_block(p: int, s: int, c: int) -> np.ndarray:
    """r of order p mod each prime q of block c (64 primes) of segment s:
    r = g^((q-1)/p) for the least g >= 2 with r != 1."""
    roots = []
    for q in _split_prime_segment(p, s)[c * _ROOT_BLOCK : (c + 1) * _ROOT_BLOCK].tolist():
        g = 2
        while (r := pow(g, (q - 1) // p, q)) == 1:
            g += 1
        roots.append(r)
    out = np.array(roots, dtype=np.int64)
    out.setflags(write=False)
    return out


def _product_tree(q: np.ndarray) -> list:
    """Levels of the product tree over the primes q, leaves first.

    Level 0 is q itself; level 1 holds the products of pairs (below 2^52,
    formed in int64); the levels above are Python ints up to the root [M].
    A node without a sibling is carried up unchanged.
    """
    even = q.size // 2 * 2
    level = q[:even].reshape(-1, 2).prod(axis=1).tolist() + q[even:].tolist()
    tree = [q, level]
    while len(level) > 1:
        level = [x * y for x, y in zip(level[::2], level[1::2])] + level[len(level) // 2 * 2 :]
        tree.append(level)
    return tree


def _crt_primes(p: int, bound: int) -> tuple[np.ndarray, list]:
    """Roots r of order p and the product tree for the shortest run of split
    primes, largest first, whose product M exceeds bound >= 1.

    Summed log2 q pick the length; exact integers confirm M > bound and
    M/q_last <= bound, so the run is the shortest.  The roots are formed for
    the blocks of 64 primes that the run reaches, and cached per block.
    """
    target = math.log2(bound)
    qs, bits = [], 0.0
    for s in range(_segment_count(p)):
        qs.append(_split_prime_segment(p, s))
        bits += float(np.log2(qs[-1]).sum())
        if bits > target + 1:
            break
    q = np.concatenate(qs)
    k = int(np.searchsorted(np.cumsum(np.log2(q)), target, side="right")) + 1
    while k <= q.size:
        tree = _product_tree(q[:k])
        M = tree[-1][0]
        if M <= bound:
            k += 1
        elif M // int(q[k - 1]) > bound:
            k -= 1
        else:
            blocks, left = [], k
            for s, seg in enumerate(qs):
                n = min(left, seg.size)
                blocks += [_root_block(p, s, c) for c in range(-(-n // _ROOT_BLOCK))]
                left -= n
            return np.concatenate(blocks)[:k], tree
    raise ValueError(
        f"norm_exact: the primes q = 1 (mod {p}) below 2^26 do not cover "
        f"the norm bound of {bound.bit_length()} bits"
    )


def _powers(q: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
    """(len(q), n) int64: base^k mod q for k = 0 .. n-1, by doubling the
    filled prefix."""
    out = np.empty((q.size, n), dtype=np.int64)
    out[:, 0] = 1
    k, step = 1, base % q
    while k < n:
        m = min(k, n - k)
        out[:, k : k + m] = out[:, :m] * step[:, None] % q[:, None]
        step = step * step % q
        k += m
    return out


def _norm_residues(coeffs, p: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """N(B) mod q for every prime q, as the product of B(r^j), j = 1 .. p-1.

    Blocks of primes share each numpy call; a block's (rows, p) and
    (rows, limbs) arrays, each gather and each slice of the exponent table
    stay within _BLOCK_BYTES.  Up to p = 181 a gather takes every j for a
    sub-block of primes; past it, one prime's j in chunks.  Per block:
      * B mod q from 16-bit limbs: b = sum_t l_t (2^(16t) mod q).  Terms are
        below 2^42 and a coefficient has at most about 2^17 bits (it fits
        the norm bound), so the sums stay far below 2^63.
      * r^k for k = 0 .. p-1 by doubling, and B(r^j) for all j as one gather
        of r^((i*j) mod p) contracted with b: p-1 products below q^2 each,
        below 2^63 as p < 2049.
      * the product of the p-1 values mod q, halving each row.
    """
    n = p - 1
    T = max(1, -(-max(abs(c).bit_length() for c in coeffs) // 16))
    raw = b"".join(abs(c).to_bytes(2 * T, "little") for c in coeffs)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(n, T).T.astype(np.int64)
    limbs *= np.array([-1 if c < 0 else 1 for c in coeffs], dtype=np.int64)  # signed like c
    rows = max(1, _BLOCK_BYTES // (8 * max(p, T)))
    chunk = min(n, max(1, _BLOCK_BYTES // (8 * n)))  # j per gather
    sub = max(1, _BLOCK_BYTES // (8 * chunk * n))  # primes per gather
    width = 1 << (n - 1).bit_length()
    i = np.arange(n)
    gathered = np.empty((min(sub, q.size), chunk, n), dtype=np.int64)
    out = np.empty(q.size, dtype=np.int64)
    for a in range(0, q.size, rows):
        qb, rb = q[a : a + rows], r[a : a + rows]
        qc = qb[:, None]
        b = _powers(qb, np.full(qb.size, 1 << 16), T) @ limbs % qc
        powers = _powers(qb, rb, p)
        prod = np.ones((qb.size, width), dtype=np.int64)
        for j in range(0, n, chunk):
            js = np.arange(j + 1, min(j + chunk, n) + 1)
            table = np.multiply.outer(js, i)
            table %= p  # (i*j) mod p at [j, i]
            for c in range(0, qb.size, sub):
                block = powers[c : c + sub]
                g = gathered[: block.shape[0], : js.size]
                np.take(block, table, axis=1, out=g, mode="clip")
                prod[c : c + sub, j : j + js.size] = np.einsum("tji,ti->tj", g, b[c : c + sub])
        prod[:, :n] %= qc
        while prod.shape[1] > 1:
            h = prod.shape[1] // 2
            prod = prod[:, :h] * prod[:, h:] % qc
        out[a : a + rows] = prod[:, 0]
    return out


def _crt(x: np.ndarray, tree: list) -> int:
    """The integer in [0, M) that is x_i mod each prime q_i of tree.

    x = sum_i c_i M/q_i with c_i = x_i (M/q_i)^(-1) mod q_i.  The cofactors
    M/q_i mod q_i come from a remainder tree: the product of the primes
    outside a node, reduced mod the node's product, descends from the root
    (1) to the pairs, and the last step runs in int64 for all primes at
    once; each cofactor is inverted by pow(., -1, q).  The sum is then formed
    up the product tree, a node's value being v_L * P_R + v_R * P_L.
    """
    q = tree[0]
    outside = [1]
    for level in reversed(tree[1:-1]):
        outside = [
            outside[i // 2] * level[i ^ 1] % level[i] if i ^ 1 < len(level) else outside[i // 2]
            for i in range(len(level))
        ]
    even = q.size // 2 * 2
    sibling = np.ones_like(q)
    sibling[:even] = q[:even].reshape(-1, 2)[:, ::-1].ravel()
    cofactor = np.array(outside, dtype=np.int64)[np.arange(q.size) // 2] % q * sibling % q
    inverse = [pow(f, -1, qi) for f, qi in zip(cofactor.tolist(), q.tolist())]
    c = x * np.array(inverse, dtype=np.int64) % q
    values = (c[:even:2] * q[1:even:2] + c[1:even:2] * q[:even:2]).tolist() + c[even:].tolist()
    for level in tree[1:-1]:
        values = [
            u * pv + v * pu
            for u, v, pu, pv in zip(values[::2], values[1::2], level[::2], level[1::2])
        ] + values[len(values) // 2 * 2 :]
    return values[0] % tree[-1][0]


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

    Computed from residues at split primes q = 1 (mod p) below 2^26, where
    N(a) mod q is the product of a(r^j) over j = 1 .. p-1 for r of order p
    mod q:
      * bound: the smaller of _norm_bound (Parseval and AM-GM, which alone
        decides the size refusal) and conjugates._conjugate_bound (certified
        bounds on each |a(z^j)|, from a float64 pass and, for the conjugates
        it leaves open, an exact fixed-point pass);
      * sieve: the primes q = 2pm + 1 come from a segmented sieve over m,
        largest first, built on first use and cached per segment; the run
        used is the shortest whose product M exceeds the bound, checked
        with exact integers, and r is formed for the blocks of primes the
        run reaches;
      * block residues: each numpy pass takes a block of primes, reduces the
        coefficients from 16-bit limbs, builds the powers of r by doubling,
        evaluates a at all r^j by one gather-and-contract, and multiplies
        the p-1 values by halving;
      * CRT: the cofactors M/q mod q come from a remainder tree and are
        inverted by pow(c, -1, q), and sum c_q M/q is formed up the product
        tree.
    The field is totally complex, so N(a) = prod over conjugate pairs of
    |a(z^j)|^2 >= 0 and the result is read in [0, M).

    Limits (ValueError): an odd prime p < 2049, so that the evaluation sums
    (p-1)*q^2 stay below 2^63; and the Parseval bound must fit in
    min(2^18, 2^25/(p-1)) bits, so that the primes suffice and the CRT stays
    short.
    Only exact elements have norms; truncated elements lose the integer.
    """
    if not isinstance(a, ExactElement):
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
    if bound == 0:  # 0 only for the zero element, whose norm is 0
        return 0
    r, tree = _crt_primes(p, min(bound, _conjugate_bound(p, a.coeffs)))
    return _crt(_norm_residues(a.coeffs, p, tree[0], r), tree)


def from_integer(ctx: PrimeContext, K: int, n: int) -> RingElement:
    """The constant element n."""
    return RingElement(ctx, K, (n,) + (0,) * (ctx.p - 2))


def zeta(ctx: PrimeContext, K: int, j: int = 1) -> RingElement:
    """The root-of-unity power z^j as a ring element."""
    slots = np.zeros(ctx.p, dtype=np.int64)
    slots[j % ctx.p] = 1
    return RingElement(ctx, K, _fold(slots))


def lam(ctx: PrimeContext, K: int) -> RingElement:
    """The uniformizer z - 1 of the ramified prime."""
    return zeta(ctx, K) - from_integer(ctx, K, 1)
