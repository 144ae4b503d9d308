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

Ring owns every change to and from the lam-basis lam^0, ..., lam^(p-2),
lam = z - 1, where z^i = (1 + lam)^i: its matrix mod p for padic's
valuations (_pascal_transposed_mod_p), and mod p^k the Taylor shift _shift
and its inverse.  Mod p the ring is F_p[lam]/(lam^(p-1)), so a unit
(_is_unit: a(1) != 0 mod p) is inverted as a power series in lam
(_series_inverse), and Newton steps lift that to p^K: _unit_inverse, the
one inverse, behind RingElement.invert and padic's unit p / lam^(p-1).

norm_exact, the field norm of an exact element, is computed on its
coefficients by module norm.

Conversion is one-way: ExactElement.reduce(ctx, K) projects into the
truncated ring, and RingElement(ctx, K2, a.coeffs) onto a coarser level K2.
There is deliberately no inverse (a truncated element does not determine an
exact one).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .context import PrimeContext, _check_odd_prime
from .norm import _norm

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


def _fold_mul(a, b, p: int, modulus: int | None):
    """Multiply two coefficient arrays of length p-1, reduce by Phi_p.

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
    if a.ndim > 1 and (a.dtype == object or p >= _FLOAT_MIN_P):
        return np.stack([_fold_mul(x, x if b is a else y, p, modulus) for x, y in zip(a, b)])
    if a.dtype == object:
        conv = np.array(_kronecker_conv(a, b), dtype=object)
    elif a.ndim == 1:
        conv = _convolve(a, b, p, modulus)  # degrees 0 .. 2p-4
    else:
        conv = np.zeros(a.shape[:-1] + (2 * p - 3,), dtype=np.int64)
        for i in range(p - 1):
            conv[..., i : i + p - 1] += a[..., i : i + 1] * b
    conv[..., : p - 3] += conv[..., p:]  # z^p = 1, in place: exponents 0 .. p-1 remain
    return _fold(conv[..., :p], modulus)


def _convolve(a, b, p: int, modulus: int):
    """np.convolve of two int64 vectors of at most p-1 residues in
    [0, modulus), exact on the word routes of _route(modulus, p): on
    "float" it convolves float64 copies and casts back (_fold_mul)."""
    if _route(modulus, p) == "float":
        return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    return np.convolve(a, b)


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


def _fold_galois(coeffs, j: int, p: int, modulus: int | None):
    """Apply z -> z^j, j nonzero mod p, to power-basis coefficients on the
    last axis, one vector or a stack of rows: a permutation into slots, then
    the fold.  Exponent i goes to slot i*j mod p, one-to-one, so slot p-j
    stays empty."""
    if j % p == 0:
        raise ValueError("galois_apply: exponent must be nonzero mod p")
    slots = np.zeros(coeffs.shape[:-1] + (p,), dtype=coeffs.dtype)
    slots[..., np.arange(p - 1) * (j % p) % p] = coeffs
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


@functools.lru_cache(maxsize=1)
def _pascal_transposed_mod_p(p: int):
    """T.T mod p, T[i, j] = C(j, i), in float64, the matrix of every
    padic._lam_read, so that each read is one BLAS product.  A read sums p-1
    products of residues below p, exact in float64 while (p-1)^3 < 2^53,
    that is for p <= 208064 (below 2^33 at p < 2049).  One Pascal row per
    column, formed in int64 and cast as it is stored; a float64 recurrence
    would take twice as long (fmod)."""
    T = np.zeros((p - 1, p - 1)).T  # T.T C-contiguous
    row = np.zeros(p - 1, dtype=np.int64)  # C(j, .)
    row[0] = 1
    for j in range(p - 1):
        T[:, j] = row
        row[1:] = (row[1:] + row[:-1]) % p
    T.setflags(write=False)
    return T.T


def _shift_tables(p: int, m: int):
    """i! and 1/i! mod m = p^k for i = 0 .. p-1 (each i is a unit mod p),
    and the two reversed kernels of _shift: 1/l! and (-1)^l / l! for
    l = p-2 .. 0.  All int64 arrays."""
    f = [1]
    for i in range(1, p):
        f.append(f[-1] * i % m)
    inv = [pow(f[-1], -1, m)]
    for i in range(p - 1, 0, -1):
        inv.append(inv[-1] * i % m)
    fact, ifact = np.array(f, dtype=np.int64), np.array(inv[::-1], dtype=np.int64)
    forward = ifact[p - 2 :: -1].copy()
    backward = forward.copy()
    backward[::2] = m - backward[::2]  # l = p-2-t is odd at even t
    return fact, ifact, forward, backward


def _shift(x, tables, mk: int, inverse: bool = False):
    """Taylor shift of the p-1 int64 residues x mod mk = p^k, with tables
    from _shift_tables mod p^K >= mk: the lam-coordinates sum_i x_i C(i, j)
    of power-basis coefficients (z^i = (1 + lam)^i), or with inverse, back:
    sum_i x_i (-1)^(i-j) C(i, j).  By C(i, j) = i! / (j! (i-j)!) either is
    one convolution of x_i * i! with a kernel of 1/l!, scaled by 1/j!: p-1
    products of residues mod mk, exact by _route as products are (Aho,
    Steiglitz and Ullman, SIAM J. Comput. 4, 1975)."""
    fact, ifact, forward, backward = tables
    n = len(x)  # p - 1
    kernel = backward if inverse else forward
    conv = _convolve(x * fact[:n] % mk, kernel % mk, n + 1, mk)
    return conv[n - 1 :] % mk * ifact[:n] % mk


def _series_inverse(f, p: int):
    """g with f*g = 1 mod (p, lam^len(f)), f[0] a unit mod p: Newton's
    g <- g*(2 - f*g) doubles the length h of g and its precision at once.
    With f*g = 1 + lam^h * e, it keeps g and appends -(g*e) mod
    lam^(L-h), a product of half the length.  Each product of length at
    most L takes _convolve's route for that length, not for p."""
    g = np.zeros_like(f)
    g[0], h = pow(int(f[0]), -1, p), 1
    while h < len(f):
        L = min(2 * h, len(f))
        e = _convolve(f[:L], g[:h], L + 1, p)[h:L] % p
        g[h:L] = -_convolve(g[: L - h], e, L + 1, p)[: L - h] % p
        h = L
    return g


def _unit_inverse(c, p: int, K: int, tables):
    """The inverse mod p^K of the unit with power-basis coefficients c, in
    c's dtype, with tables from _shift_tables mod a power of p.  Mod p it is
    the series inverse of c's lam-coordinates, shifted back; each Newton
    step x <- x*(2 - c*x) squares the error 1 - c*x, so it runs mod the
    square of x's modulus, and ceil(log2 K) steps reach p^K (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 9)."""
    lam_coords = _shift((c % p).astype(np.int64), tables, p)
    x = _shift(_series_inverse(lam_coords, p), tables, p, inverse=True).astype(c.dtype)
    for i in range((K - 1).bit_length()):  # x = 1/c mod p^(2^i)
        mk = p ** min(2 << i, K)
        x = (2 * x - _fold_mul(x, _fold_mul(c % mk, x, p, mk), p, mk)) % mk
    return x


def _is_unit(a: "RingElement") -> bool:
    return int(a.coeffs.sum()) % a.p != 0  # a(1), the first lam-coordinate


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
        return self._wrap(_fold_mul(self.coeffs, other.coeffs, self.p, self.modulus))

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
        """Multiplicative inverse by _unit_inverse.  Z[z]/(Phi_p, p^K) is local
        with maximal ideal (lam), so it errors unless a(1) is a unit mod p."""
        if not _is_unit(self):
            raise ValueError("invert: element is not a unit")
        p = self.p
        return self._wrap(_unit_inverse(self.coeffs, p, self.K, _shift_tables(p, p)))


class ExactElement(RingElement):
    """Element of Z[z]/(Phi_p) with arbitrary-precision integer coefficients:
    a RingElement whose ctx, K and modulus are None, so nothing is reduced."""

    __slots__ = ()

    # Own entries, so that perfbench/tracer.py can wrap exact products apart.
    __mul__ = RingElement.__mul__
    galois_apply = RingElement.galois_apply

    def __init__(self, p: int, coeffs):
        _check_odd_prime(p)  # the ring is cyclotomic, and its norm exact, only then
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


def norm_exact(a: ExactElement, *, values: bool = False):
    """Field norm down to Q, the resultant of Phi_p and a's polynomial, by
    residues at split primes (module norm: the method and its limits, each
    a ValueError).  Only exact elements have norms; truncated elements lose
    the integer.  With values, the pair (N(a), V): V[t, j-1] = a(r_t^j) mod
    q_t at the norm's run of split primes q_t, largest first, with r_t of
    order p (norm._evaluate), which the witness identity reads for B."""
    if not isinstance(a, ExactElement):
        raise TypeError(
            "norms are not defined on truncated elements; use ExactElement"
        )
    return _norm(a, values)


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
