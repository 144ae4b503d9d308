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

The digits need no lam-basis: since z = 1 mod lam, the next digit of r is
r(1) mod p, and r minus it divides exactly by lam = z - 1 (see digits).

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

from .ring import ExactElement, RingElement, from_integer

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
    """N digits of a along powers of lam, each by one exact division by lam.

    Since z = 1 mod lam, the remainder r is r(1) mod lam, so its digit is
    d = r(1) mod p.  With t = (r(1) - d)/p, the polynomial
    r - d - t*Phi_p (one more slot, for z^(p-1)) equals r in the ring and
    vanishes at 1 mod p^K, so it is (z - 1) r' with r' its negated prefix
    sums: r = d + lam*r' exactly.  t is known only mod p^(K-1), so r' is
    known only to one power of lam less than r, which is why N is capped
    at K*(p-1).

    Each step runs on the coefficient array in place, in a's own dtype:
    the prefix sums stay below (p-1)*m, which int64 holds whenever the
    ring's int64 bound (p-1)(m-1)^2 < 2^63 does; object stays object.
    """
    _require_truncated(a, "digits")
    p, K, m = a.ctx.p, a.K, a.modulus
    nmax = K * (p - 1)
    if not (1 <= N <= nmax):
        raise ValueError(f"precision must lie in [1, {nmax}], got {N}")
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
    first = next((i for i, d in enumerate(out) if d), CAP)
    return LambdaExpansion(digits=tuple(out), valuation=first, precision=N)


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
