"""Valuations and digit expansions at the ramified prime of Z[z]/(Phi_p).

The prime p is totally ramified: (p) = (z - 1)^(p-1) up to units, so the
element lam = z - 1 is a uniformizer.  Writing an element over the basis
lam^0, ..., lam^(p-2) (an invertible binomial change of basis from the
power basis in z, by the Pascal matrix T[i, j] = C(j, i); its inverse is
S T S with S = diag((-1)^i), so T is the one matrix cached) makes the
valuation computable by a minimum formula:

    v(a) = min_i ( i + (p-1) * v_p(l_i) )

over the nonzero lam-coefficients l_i.  The candidate values are pairwise
distinct mod p-1 across the lam-degrees, so the minimum is attained once
and the formula is exact below the truncation cap K*(p-1).

Valuations at or beyond the cap are reported as the sentinel CAP
(math.inf), which is exactly the "element is 0 mod p^K" case.

The unit predicates are read off the same coefficients.  A rational
integer changes only l_0, so a unit a is a p-th power c^p mod lam^depth iff
every l_i with i >= 1 passes the minimum rule at depth, and, once
depth > p-1, also l_0^(p-1) = 1 mod p^2 (the p-th powers among the 1-units
of Z_p are 1 + p^2 Z_p).

The digits need no lam-basis: since z = 1 mod lam, the next digit of r is
r(1) mod p, and r minus it divides exactly by lam = z - 1 (see digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .context import PrimeContext
from .ring import RingElement, _dtype_for, zeta

__all__ = [
    "CAP",
    "LambdaExpansion",
    "to_lambda_basis",
    "from_lambda_basis",
    "valuation",
    "digits",
    "is_semi_primary",
    "is_primary",
    "is_locally_pth_power",
    "semi_primary_normalize",
]

# Sentinel for "at or beyond the representable precision K*(p-1)".
CAP = math.inf


def _val_json(v) -> int | str:
    """A valuation as JSON writes it: "cap" for CAP, else the integer."""
    return "cap" if v is CAP else int(v)


@lru_cache(maxsize=2)
def _pascal(p: int, modulus: int):
    """The change of basis from z-powers to lam-powers mod modulus.

    T[i, j] = C(j, i): lam-coefficients = T @ z-coefficients, from the
    expansion z^j = (1 + lam)^j.  Its inverse, from lam^i = (z - 1)^i, is
    S @ T @ S with S = diag((-1)^i), which from_lambda_basis applies as
    signs on either side of T.  The cache keeps the two moduli one call
    alternates between, p^K and p (an object matrix is 30 MB at p=1031).
    """
    n = p - 1
    T = np.zeros((n, n), dtype=_dtype_for(modulus, p))
    row = np.zeros(n, dtype=T.dtype)  # C(j, .), one Pascal row per column
    row[0] = 1
    for j in range(n):
        T[:, j] = row
        row[1:] = (row[1:] + row[:-1]) % modulus
    T.setflags(write=False)
    return T


def to_lambda_basis(a: RingElement) -> list[int]:
    """Coefficients of a over lam^0, ..., lam^(p-2), reduced mod p^K."""
    out = (_pascal(a.ctx.p, a.modulus) @ a.coeffs) % a.modulus
    return [int(x) for x in out]


def from_lambda_basis(ctx: PrimeContext, K: int, values) -> RingElement:
    """Inverse of to_lambda_basis: S @ T @ S, the signs taken mod p^K."""
    modulus = ctx.p**K
    T = _pascal(ctx.p, modulus)
    vals = np.array([int(v) % modulus for v in values], dtype=T.dtype)
    if vals.shape != (ctx.p - 1,):
        raise ValueError(f"expected {ctx.p - 1} coefficients, got {vals.size}")
    vals[1::2] = -vals[1::2] % modulus
    out = (T @ vals) % modulus
    out[1::2] = -out[1::2] % modulus
    return RingElement(ctx, K, [int(x) for x in out])


def _vp(x: int, p: int) -> int:
    """Exponent of p in the nonzero integer x."""
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    return n


def valuation(a: RingElement) -> int | float:
    """Order of vanishing at the ramified prime; CAP when a == 0 mod p^K."""
    p = a.ctx.p
    return min(
        (i + (p - 1) * _vp(li, p) for i, li in enumerate(to_lambda_basis(a)) if li),
        default=CAP,
    )


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
    """
    p, K, m = a.ctx.p, a.K, a.modulus
    nmax = K * (p - 1)
    if not (1 <= N <= nmax):
        raise ValueError(f"precision must lie in [1, {nmax}], got {N}")
    c = a.coeff_list()
    out = []
    for _ in range(N):
        s = sum(c) % m
        d = s % p
        t = (s - d) // p
        c[0] -= d
        # the slot for z^(p-1) holds -t and drops out of the quotient
        c = [-x % m for x in accumulate(x - t for x in c)]
        out.append(d)
    first = next((i for i, d in enumerate(out) if d), CAP)
    return LambdaExpansion(digits=tuple(out), valuation=first, precision=N)


def _first_two_digits(a: RingElement) -> tuple[int, int]:
    # valid read-off for v(a) = 0: subtracting the constant digit does not
    # disturb the lam^1 coefficient
    l = to_lambda_basis(a)
    return l[0] % a.ctx.p, l[1] % a.ctx.p


def _is_unit(a: RingElement) -> bool:
    return int(a.coeffs.sum()) % a.ctx.p != 0  # l_0 = a(1): row 0 of T is all ones


def is_semi_primary(a: RingElement) -> bool:
    """True iff a is a unit congruent to a rational integer mod lam^2."""
    return _is_unit(a) and to_lambda_basis(a)[1] % a.ctx.p == 0


def _require_unit(a: RingElement, opname: str) -> None:
    if not _is_unit(a):
        raise ValueError(f"{opname}: element must be a unit, valuation is {valuation(a)}")


def _pth_power_to_depth(a: RingElement, depth: int) -> bool:
    """Whether the unit a is congruent to c^p for a rational c mod lam^depth.

    a - c^p differs from a only in l_0, so every other lam-coefficient must
    already vanish to depth.  c = l_0 mod p always clears l_0 to depth p-1;
    deeper, l_0 must be a p-th power in Z_p, i.e. l_0^(p-1) = 1 mod p^2.
    """
    p = a.ctx.p
    l = to_lambda_basis(a)
    for i in range(1, p - 1):
        if l[i] and i + (p - 1) * _vp(l[i], p) < depth:
            return False
    return depth <= p - 1 or pow(l[0], p - 1, p * p) == 1


def is_primary(a: RingElement) -> bool:
    """True iff a is a unit and a = c^p mod lam^p for some rational c."""
    _require_unit(a, "is_primary")
    p, K = a.ctx.p, a.K
    if K * (p - 1) < p:
        raise ValueError(f"is_primary needs depth {p}; K={K} caps at {K * (p - 1)}")
    return _pth_power_to_depth(a, p)


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


def semi_primary_normalize(a: RingElement) -> tuple[int, RingElement]:
    """Return (w, a * z^w) with the product semi-primary.

    The twist exponent solves d1 + w*d0 = 0 mod p on the leading digits,
    and is the unique such w mod p.
    """
    _require_unit(a, "semi_primary_normalize")
    p = a.ctx.p
    d0, d1 = _first_two_digits(a)
    w = (-d1 * pow(d0, -1, p)) % p
    b = a * zeta(a.ctx, a.K, w)
    assert is_semi_primary(b)
    return w, b
