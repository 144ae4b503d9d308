"""Valuations and digit expansions at the ramified prime of Z[z]/(Phi_p).

The prime p is totally ramified: (p) = (z - 1)^(p-1) up to units, so the
element lam = z - 1 is a uniformizer.  Writing an element over the basis
lam^0, ..., lam^(p-2) is an invertible binomial change of basis from the
power basis in z, by the Pascal matrix T[i, j] = C(j, i).  Only the
valuations read that basis, and only mod p (below), so T mod p is the one
matrix cached.

Every valuation splits off the p-content (_lam_read): the power basis is
a Z-basis, so x = p^t * x' with x' != 0 mod p.  As p is lam^(p-1) times a
unit, v(x) = (p-1)*t + v(x'), and v(x') < p-1 is the index of the first
lam-coefficient of x' that is nonzero mod p, so only T mod p is read,
whatever the truncation K.  Valuations at or beyond the cap K*(p-1) are
the sentinel CAP (math.inf), exactly the "element is 0 mod p^K" case
(Washington, Introduction to Cyclotomic Fields, ch. 5).

The unit predicates need no matrix: z^j = (1 + lam)^j gives the leading
lam-coefficients l_0 = sum_j c_j and l_1 = sum_j j*c_j in closed form.  A
rational integer changes only l_0, so a unit a is a p-th power c^p mod
lam^depth iff v(a - l_0) >= depth, and, once depth > p-1, also
l_0^(p-1) = 1 mod p^2 (the p-th powers among the 1-units of Z_p are
1 + p^2 Z_p).

The digits come p-1 at a time on the word routes (int64 coefficients).
The lam-coordinates E of the remainder x, one Taylor shift by a
convolution with factorial weights (Aho, Steiglitz and Ullman, SIAM J.
Comput. 4, 1975), give the block's digits E mod p; then x = D + p*Q, and
the next remainder is p*Q / lam^(p-1) = eps*Q for the unit
eps = p / lam^(p-1), formed once per call.  On the object route each
digit is r(1) mod p of the remainder r (z = 1 mod lam), and one exact
division by lam, a prefix sum, leaves the next: that loop only adds,
while a block would multiply numbers of the modulus's full width (8.7 s
against the loop's 0.8 s for 16368 digits at p=23, K=744).

_check_depth, the refusal of a K whose cap K*(p-1) is below a claim's
depth, lives here for is_primary, units and the p-th power campaign, and
_require_truncated, the refusal of an ExactElement, for every public read
here and in eigen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring import ExactElement, RingElement, _convolve, _fold_mul, from_integer

__all__ = [
    "CAP",
    "LambdaExpansion",
    "valuation",
    "digits",
    "is_semi_primary",
    "is_primary",
    "is_locally_pth_power",
]

# Sentinel for "at or beyond the representable precision K*(p-1)".
CAP = math.inf


def _val_json(v) -> int | str:
    """A valuation as JSON writes it: "cap" for CAP, else the integer."""
    return "cap" if v is CAP else int(v)


@lru_cache(maxsize=1)
def _pascal_transposed_mod_p(p: int):
    """T.T mod p, T[i, j] = C(j, i), in float64, the matrix of every
    _lam_read, so that each read is one BLAS product.  A read sums p-1
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


def _vp(x: int, p: int) -> int:
    """Exponent of p in the nonzero integer x."""
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    return n


def _lam_read(p: int, K: int, rows: np.ndarray) -> list:
    """v(x) for each row x of power-basis residues in [0, p^K): with t the
    least exponent of p in x's coefficients, v(x) = (p-1)*t + the index of
    the first lam-coefficient of x' = x / p^t that is nonzero mod p (module
    docstring).  A zero row, x = 0 mod p^K, reads CAP."""
    n = p - 1
    # t is the exponent of p in the gcd of the row; a zero row has gcd 0
    t = [_vp(g, p) if g else K for g in np.gcd.reduce(rows, axis=1).tolist()]
    q = rows // np.array([p**ti for ti in t], dtype=rows.dtype)[:, None]
    lam_coeffs = (q % p).astype(np.float64) @ _pascal_transposed_mod_p(p) % p
    first = (lam_coeffs != 0).argmax(axis=1).tolist()
    return [CAP if ti >= K else n * ti + fi for ti, fi in zip(t, first)]


def _require_truncated(a: RingElement, opname: str) -> None:
    """Refuse an ExactElement, which has no ctx or K to read lam-adically
    at: the mirror of norm_exact's refusal of truncated elements."""
    if isinstance(a, ExactElement):
        raise TypeError(
            f"{opname} needs a truncated element; use ExactElement.reduce(ctx, K)"
        )


def valuation(a: RingElement) -> int | float:
    """Order of vanishing at the ramified prime; CAP when a == 0 mod p^K."""
    _require_truncated(a, "valuation")
    return _lam_read(a.ctx.p, a.K, a.coeffs[None, :])[0]


@dataclass(frozen=True)
class LambdaExpansion:
    """Truncated digit expansion along powers of the uniformizer.

    digits[i] in [0, p) is the coefficient of lam^i; valuation is the index
    of the first nonzero digit, or CAP when every digit below the requested
    precision vanishes.
    """

    digits: tuple[int, ...]
    valuation: int | float
    precision: int

    def to_json_dict(self) -> dict:
        return {
            "valuation": _val_json(self.valuation),
            "digits": list(self.digits),
            "precision": self.precision,
        }


def digits(a: RingElement, N: int) -> LambdaExpansion:
    """N digits of a along powers of lam.

    On the word routes (int64 coefficients) the digits come p-1 at a time
    (_digits_by_block); on the object route one at a time, each by an
    exact division by lam (_digits_by_division).  The remainder after i
    digits is known only to lam^(K*(p-1) - i), which is why N is capped at
    K*(p-1).
    """
    _require_truncated(a, "digits")
    nmax = a.K * (a.ctx.p - 1)
    if not (1 <= N <= nmax):
        raise ValueError(f"precision must lie in [1, {nmax}], got {N}")
    read = _digits_by_division if a.coeffs.dtype == object else _digits_by_block
    out = read(a, N)
    first = next((i for i, d in enumerate(out) if d), CAP)
    return LambdaExpansion(digits=tuple(out), valuation=first, precision=N)


def _digits_by_division(a: RingElement, N: int) -> list:
    """N digits, each by one exact division by lam.

    Since z = 1 mod lam, the remainder r is r(1) mod lam, so its digit is
    d = r(1) mod p.  With t = (r(1) - d)/p, the polynomial
    r - d - t*Phi_p (one more slot, for z^(p-1)) equals r in the ring and
    vanishes at 1 mod p^K, so it is (z - 1) r' with r' its negated prefix
    sums: r = d + lam*r' exactly.  t is known only mod p^(K-1), so r' is
    known only to one power of lam less than r.  Each step only adds, in
    place, which is why the object route keeps it (module docstring).
    """
    p, m = a.ctx.p, a.modulus
    c = a.coeffs.copy()
    out = []
    for _ in range(N):
        s = int(c.sum()) % m
        d = s % p
        t = (s - d) // p
        c[0] -= d
        # the slot for z^(p-1) holds -t and drops out of the quotient
        c -= t
        np.cumsum(c, out=c)
        np.negative(c, out=c)
        c %= m
        out.append(d)
    return out


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
    """Taylor shift of the p-1 residues x mod mk = p^k, with tables from
    _shift_tables mod p^K >= mk: the lam-coordinates sum_i x_i C(i, j) of
    power-basis coefficients (z^i = (1 + lam)^i), or with inverse, back:
    sum_i x_i (-1)^(i-j) C(i, j).  By C(i, j) = i! / (j! (i-j)!) either is
    one convolution of x_i * i! with a kernel of 1/l!, scaled by 1/j!: p-1
    products of residues mod mk, exact by ring._route as products are."""
    fact, ifact, forward, backward = tables
    n = len(x)  # p - 1
    kernel = backward if inverse else forward
    conv = _convolve(x * fact[:n] % mk, kernel % mk, n + 1, mk)
    return conv[n - 1 :] % mk * ifact[:n] % mk


def _series_inverse(f, p: int):
    """g with f*g = 1 mod (p, lam^len(f)), f[0] a unit mod p: Newton's
    g <- g*(2 - f*g) doubles the length of g and its precision at once,
    so all steps together cost about two products of the full length."""
    g = np.array([pow(int(f[0]), -1, p)], dtype=np.int64)
    while len(g) < len(f):
        L = min(2 * len(g), len(f))
        e = -_convolve(f[:L], g, p, p)[:L] % p
        e[0] = (e[0] + 2) % p
        g = _convolve(g, e, p, p)[:L] % p
    return g


def _epsilon(p: int, K: int, tables):
    """Power-basis coefficients of the unit eps = p / lam^(p-1) mod p^K,
    with tables from _shift_tables mod p^(K+1).

    (1 + lam)^p = 1 gives 1/eps = lam^(p-1)/p = -sum_k C(p, k)/p lam^(k-1)
    (k = 1 .. p-1), and C(p, k)/p = (-1)^(k-1)/k mod p.  Mod p the ring is
    F_p[lam]/(lam^(p-1)), so eps mod p is a power series inverse, shifted
    to the power basis.  Newton's x <- x*(2 - x/eps) then doubles its
    p-adic precision up to p^K.  It reads 1/eps in the power basis:
    (z - 1)^(p-1) has the z^i-coefficient (-1)^i C(p-1, i) - 1 once
    z^(p-1) is folded, and C(p-1, i) = (-1)^i mod p, so
    1/eps = sum_i ((-1)^i C(p-1, i) - 1)/p * z^i.
    """
    m, M = p**K, p ** (K + 1)
    fact, ifact = tables[:2]
    n = p - 1
    series = fact[:n] * ifact[1:] % M % p  # 1/(j+1) mod p, at lam^j
    series[::2] = p - series[::2]  # times (-1)^(j+1)
    x = _shift(_series_inverse(series, p), tables, p, inverse=True)
    if K > 1:
        binom = fact[n] * ifact[:n] % M * ifact[n:0:-1] % M  # C(p-1, i)
        binom[1::2] = -binom[1::2]
        inv = (binom - 1) % M // p
        for _ in range((K - 1).bit_length()):  # x = eps mod p^(2^i)
            ax = _fold_mul(inv, x, p, m, np.int64)
            x = (2 * x - _fold_mul(x, ax, p, m, np.int64)) % m
    return x


def _digits_by_block(a: RingElement, N: int) -> list:
    """N digits, p-1 at a time, by a Taylor shift per block.

    With the remainder x known mod p^k, its lam-coordinates
    E_j = sum_i x_i C(i, j) mod p^k (_shift) give x = D + p*Q with
    D = sum_j (E_j mod p) lam^j and Q = sum_j (E_j // p) lam^j.  So the
    next p-1 digits are E mod p, and the next remainder is
    p*Q / lam^(p-1) = eps*Q (_epsilon), known mod p^(k-1): Q goes back to
    the power basis by the inverse shift and is multiplied by eps.
    """
    p, K = a.ctx.p, a.K
    tables = _shift_tables(p, a.modulus)
    eps = _epsilon(p, K - 1, tables) if N > p - 1 else None
    x, out = a.coeffs, []
    for k in range(K, 0, -1):  # N <= K*(p-1) returns by k = 1
        q, d = np.divmod(_shift(x, tables, p**k), p)
        out += d.tolist()
        if len(out) >= N:
            return out[:N]
        mk = p ** (k - 1)
        x = _fold_mul(_shift(q, tables, mk, inverse=True), eps % mk, p, mk, np.int64)


def _first_two_digits(a: RingElement) -> tuple[int, int]:
    """l_0 and l_1 mod p: z^j = (1 + lam)^j has lam-coefficients 1 and j."""
    p = a.ctx.p
    c = a.coeffs % p
    return int(c.sum()) % p, int(c @ np.arange(p - 1)) % p


def _is_unit(a: RingElement) -> bool:
    return int(a.coeffs.sum()) % a.ctx.p != 0  # l_0 = a(1)


def is_semi_primary(a: RingElement) -> bool:
    """True iff a is a unit congruent to a rational integer mod lam^2."""
    _require_truncated(a, "is_semi_primary")
    l0, l1 = _first_two_digits(a)
    return l0 != 0 and l1 == 0


def _require_unit(a: RingElement, opname: str) -> None:
    _require_truncated(a, opname)
    if not _is_unit(a):
        raise ValueError(f"{opname}: element must be a unit, valuation is {valuation(a)}")


def _pth_power_to_depth(a: RingElement, depth: int) -> bool:
    """Whether the unit a is congruent to c^p for a rational c mod lam^depth.

    a - c^p differs from a only in l_0, so a - l_0 must already vanish to
    depth.  c = l_0 mod p always clears l_0 to depth p-1; deeper, l_0 must
    be a p-th power in Z_p, i.e. l_0^(p-1) = 1 mod p^2.
    """
    p = a.ctx.p
    l0 = int(a.coeffs.sum()) % a.modulus
    if valuation(a - from_integer(a.ctx, a.K, l0)) < depth:
        return False
    return depth <= p - 1 or pow(l0, p - 1, p * p) == 1


def _check_depth(
    what: str, p: int, K: int, depth: int, error: type[ValueError] = ValueError
) -> None:
    """Refuse a truncation K whose cap K*(p-1) is below depth; what leads
    the message."""
    if K * (p - 1) < depth:
        raise error(f"{what} needs depth {depth}; K={K} caps at {K * (p - 1)}")


def is_primary(a: RingElement) -> bool:
    """True iff a is a unit and a = c^p mod lam^p for some rational c."""
    _require_unit(a, "is_primary")
    _check_depth("is_primary", a.ctx.p, a.K, a.ctx.p)
    return _pth_power_to_depth(a, a.ctx.p)


def is_locally_pth_power(a: RingElement, depth: int | None = None) -> bool:
    """Whether a = c^p mod lam^depth has a rational solution c.

    Default depth p+1 is the level at which congruent units acquire
    congruent p-th powers, so the answer stabilizes there.
    """
    _require_unit(a, "is_locally_pth_power")
    p, K = a.ctx.p, a.K
    if depth is None:
        depth = p + 1
    nmax = K * (p - 1)
    if not (1 <= depth <= nmax):
        raise ValueError(f"depth must lie in [1, {nmax}], got {depth}")
    return _pth_power_to_depth(a, depth)
