"""Valuations and digit expansions at the ramified prime of Z[z]/(Phi_p).

The prime p is totally ramified: (p) = (z - 1)^(p-1) up to units, so the
element lam = z - 1 is a uniformizer.  Writing an element over the basis
lam^0, ..., lam^(p-2) is an invertible binomial change of basis from the
power basis in z, by the Pascal matrix T[i, j] = C(j, i).  Ring owns
that change (its module docstring); the valuations read it only mod p
(below), by ring's cached T mod p.

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
The lam-coordinates E of the remainder x, one Taylor shift (ring._shift),
give the block's digits E mod p; then x = D + p*Q, and the next
remainder is p*Q / lam^(p-1) = eps*Q for the unit eps = p / lam^(p-1),
formed once per call by the ring's unit inverse.  On the object route each
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

import numpy as np

from .ring import (
    ExactElement, RingElement, _fold_mul, _is_unit, _pascal_transposed_mod_p, _shift,
    _shift_tables, _unit_inverse, from_integer,
)

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


def _epsilon(p: int, K: int, tables):
    """Power-basis coefficients of the unit eps = p / lam^(p-1) mod p^K,
    with tables from _shift_tables mod p^(K+1): the unit inverse
    (ring._unit_inverse) of 1/eps = lam^(p-1)/p.  (z - 1)^(p-1) has the
    z^i-coefficient (-1)^i C(p-1, i) - 1 once z^(p-1) is folded, and
    C(p-1, i) = (-1)^i mod p, so 1/eps = sum_i ((-1)^i C(p-1, i) - 1)/p * z^i.
    """
    M, n = p ** (K + 1), p - 1
    fact, ifact = tables[:2]
    binom = fact[n] * ifact[:n] % M * ifact[n:0:-1] % M  # C(p-1, i)
    binom[1::2] = -binom[1::2]
    return _unit_inverse((binom - 1) % M // p, p, K, tables)


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
        x = _fold_mul(_shift(q, tables, mk, inverse=True), eps % mk, p, mk)


def _first_two_digits(a: RingElement) -> tuple[int, int]:
    """l_0 and l_1 mod p: z^j = (1 + lam)^j has lam-coefficients 1 and j."""
    p = a.ctx.p
    c = a.coeffs % p
    return int(c.sum()) % p, int(c @ np.arange(p - 1)) % p


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
