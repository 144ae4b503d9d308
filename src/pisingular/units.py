"""Circular units, their eigen-projections, and the twisted power relation.

The unit attached to an index a (2 <= a <= (p-1)/2) is

    xi_a = z^((1-a)/2) * (z^a - 1)/(z - 1)
         = z^e + z^(e+1) + ... + z^(e+a-1),      e = (1-a)/2 mod p,

a real unit of the cyclotomic integers, written down in closed form with
no ring product.  Raising its Galois orbit to the exponent pattern
c_j = u^(-2m*j) mod p produces a projected unit eta with

    sigma(eta) = eta^mu * eps^p,      mu = u^(2m),

an exact identity in the ring (eps a unit), which is the entry point for
all the congruence verification downstream.

The product prod_j sigma^j(xi_a)^(c_j) is evaluated by the bucket method
for multi-exponentiation: the conjugates that share an exponent c are
multiplied into one bucket B_c, and prod_c B_c^c is formed by a running
product from the largest exponent down, raised once per gap between
occupied exponents by ring._power.  That is at most about 3(p-1) ring
products in place of one square-and-multiply power per conjugate, and in a
commutative ring it is the same element, coefficient for coefficient.

unit_reports, which the CLI runs, builds no eta.  Every field of a
UnitReport is read off one p-adic logarithm

    Lambda = log(eta^(p-1)) = sum_j c_j sigma^j(L),   L = log(xi_a^(p-1)).

xi_a and eta are real units, so each is a rational integer mod lam^2 and
its (p-1)-th power lies in U_2 = 1 + lam^2 O.  For n > e/(p-1) = 1 the
logarithm maps U_n isometrically onto lam^n O and is a homomorphism
(Washington, Introduction to Cyclotomic Fields, ch. 5), so the sum above is
exact and v(Lambda) = v(eta^(p-1) - 1).  Hence, with sigma(Lambda) - mu*Lambda
the logarithm of the (p-1)-th power of sigma(eta) * eta^(-mu):

  * valuation_of_eta_pm1 is v(Lambda), CAP at K*(p-1) as before;
  * local_pth_power is v(Lambda) >= p+1: a real unit y is congruent to a
    rational p-th power mod lam^(p+1) iff y / t, with t the Teichmueller
    lift of y mod lam (a rational p-th power), lies in U_(p+1), iff its
    logarithm, log(y^(p-1)) / (p-1), has valuation at least p+1;
  * relation_holds is v(sigma(Lambda) - mu*Lambda) >= p+1, by the same
    argument for the real unit sigma(eta) * eta^(-mu);
  * expansion_delta, in the high range 2m > (p-1)/2, is -Lambda_0 mod p,
    Lambda_0 being Lambda's coordinate at z^(u^0): as c_j = mu^(-j) mod p,
    Lambda mod p lies in the mu-eigenspace, spanned by e_mu (Washington, ch. 8), whose
    coordinate there is 1, so Lambda = Lambda_0 * e_mu mod p.  v(Lambda) is
    then 2m = v(e_mu) or at least p-1, and 4m > p-1, so eta^(p-1) =
    exp(Lambda) = 1 + Lambda = 1 - delta * e_mu mod lam^(p-1).

In the normal basis z^(u^i), i = 0..p-2, sigma is the cyclic shift
i -> i+1, so Lambda's coordinates are one cyclic convolution of length p-1
of the exponents c_j with L's coordinates.  L itself is computed once per
(p, a, K) by argument reduction (_unit_log, which carries the precision
argument).  The bucket route stays for the projected unit itself, which
the synthetic bundles need, and for verify_unit_relation; the tests use the
two together as the oracle for unit_reports.

The unit index a is checked here; the even index 2m by
context._check_even_index and the depth p+1 by padic._check_depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import PrimeContext, _check_even_index
from .eigen import _inverse_powers, _shared_ints, expansion_matches
from .padic import CAP, _check_depth, _lam_read, _require_unit, _val_json, _vp
from .padic import _require_truncated, is_locally_pth_power, valuation
from .ring import _ROUTE_DTYPE, ExactElement, RingElement, _exact_route, _fold, _power, from_integer
from .ring import _normal_coords, _normal_slots

__all__ = [
    "UnitExponentVector",
    "UnitReport",
    "cyclotomic_unit",
    "cyclotomic_unit_exact",
    "eigen_project_unit",
    "eigen_project_unit_exact",
    "verify_unit_relation",
    "unit_reports",
]


def _check_unit_index(p: int, a: int) -> None:
    if not (2 <= a <= (p - 1) // 2):
        raise ValueError(f"unit index must lie in [2, {(p - 1) // 2}], got {a}")


def _xi_coeffs(p: int, a: int) -> list[int]:
    """Power-basis coefficients of xi_a = z^e + z^(e+1) + ... + z^(e+a-1),
    e = (1-a)/2 mod p: the exponents are read mod p, then folded by Phi_p."""
    _check_unit_index(p, a)
    e = (1 - a) * pow(2, -1, p) % p
    slots = np.zeros(p, dtype=np.int64)
    slots[np.arange(e, e + a) % p] = 1
    return _fold(slots).tolist()


def cyclotomic_unit(ctx: PrimeContext, K: int, a: int) -> RingElement:
    """The real unit xi_a, truncated mod p^K."""
    return RingElement(ctx, K, _xi_coeffs(ctx.p, a))


def cyclotomic_unit_exact(p: int, a: int) -> ExactElement:
    """xi_a with exact integer coefficients."""
    return ExactElement(p, _xi_coeffs(p, a))


@dataclass(frozen=True)
class UnitExponentVector:
    """Galois-orbit exponent pattern c_j = mu^(-j) used by the projection."""

    base_index: int
    exponents: tuple[int, ...]


def _bucketed_projection(xi, upow, exps):
    """prod_j sigma_j(xi)^(exps[j]) with sigma_j: z -> z^(upow[j]), exps >= 1.

    Bucket B_c is the product of the conjugates with exponent c.  Walking
    the occupied exponents c from the largest down, running =
    prod_{c' >= c} B_c' and total gains running^(c - c_next), where c_next
    is the next occupied exponent (0 after the last), so B_c' ends up
    raised to exactly c'.  A gap g costs at most g products (the power
    takes at most g - 1, one more multiplies it into total), the same as
    one product per integer step for g <= 3 and fewer from g = 4 on.
    Works on truncated and exact elements alike: one class serves both.
    """
    buckets = {}
    for j, c in enumerate(exps):
        conj = xi.galois_apply(upow[j])
        buckets[c] = buckets[c] * conj if c in buckets else conj
    order = sorted(buckets, reverse=True)
    running = total = None
    for c, nxt in zip(order, order[1:] + [0]):
        running = buckets[c] if running is None else running * buckets[c]
        step = _power(running, c - nxt)
        total = step if total is None else total * step
    return total


def eigen_project_unit(
    ctx: PrimeContext, K: int, a: int, two_m: int
) -> tuple[RingElement, UnitExponentVector]:
    """Project xi_a onto the mu = u^(2m) eigencomponent of the units.

    Returns (eta, exponent vector); eta satisfies the twisted relation
    sigma(eta) = eta^mu * (unit)^p exactly.  eta = prod_j sigma^j(xi_a)^(c_j)
    is evaluated by the bucket method (module docstring): one bucket per
    distinct exponent c_j, then a running product from the largest c down,
    raised to the gap before the next occupied exponent.
    """
    xi = cyclotomic_unit(ctx, K, a)  # checks a
    _check_even_index("projection index", ctx.p, two_m)
    (exps,) = _shared_ints(ctx, _inverse_powers(ctx, [two_m]))
    eta = _bucketed_projection(xi, ctx.upow, exps)
    return eta, UnitExponentVector(base_index=a, exponents=exps)


def eigen_project_unit_exact(
    ctx: PrimeContext, a: int, two_m: int
) -> ExactElement:
    """Exact-coefficient version of eigen_project_unit (no truncation).

    The same bucketed evaluation over ExactElement; reducing the result
    mod p^K gives eigen_project_unit's eta.
    """
    xi = cyclotomic_unit_exact(ctx.p, a)  # checks a
    _check_even_index("projection index", ctx.p, two_m)
    return _bucketed_projection(xi, ctx.upow, _inverse_powers(ctx, [two_m])[0].tolist())


@dataclass(frozen=True)
class UnitReport:
    """Measured facts about one projected unit.

    valuation_of_eta_pm1 is the valuation of eta^(p-1) - 1 (CAP when it
    vanishes to the truncation depth).  expansion_delta is the matched
    digit-expansion coefficient when the index is in the high range and
    the expansion matches; None otherwise.
    """

    two_m: int
    mu: int
    relation_holds: bool
    local_pth_power: bool
    valuation_of_eta_pm1: int | float
    expansion_delta: int | None

    @property
    def dichotomy_holds(self) -> bool:
        """Either eta is a local p-th power or the valuation equals 2m."""
        return self.local_pth_power or self.valuation_of_eta_pm1 == self.two_m

    def to_json_dict(self) -> dict:
        return {
            "two_m": self.two_m,
            "mu": self.mu,
            "relation_holds": self.relation_holds,
            "local_pth_power": self.local_pth_power,
            "valuation_of_eta_pm1": _val_json(self.valuation_of_eta_pm1),
            "expansion_delta": self.expansion_delta,
            "dichotomy_holds": self.dichotomy_holds,
        }


def _twisted_quotient(x: RingElement, mu: int) -> RingElement:
    """sigma(x) * x^(p-mu), which is sigma(x) * x^(-mu) times x^p = x(1)^p mod lam^(p+1)."""
    return x.galois_apply(x.ctx.u) * x ** (x.p - mu)


def verify_unit_relation(eta: RingElement, two_m: int) -> UnitReport:
    """Check the twisted relation and measure the unit's local behavior.

    The relation claim, that sigma(eta) * eta^(-mu) is a p-th power locally
    to depth p+1 <= 2(p-1), is decided mod p^2 on _twisted_quotient's
    sigma(eta) * eta^(p-mu).  eta must be a unit.  A failed dichotomy is data.
    local_pth_power is v(eta^(p-1) - 1) >= p+1: eta = c^p mod lam^(p+1) for
    a rational c iff eta / omega(eta(1)) is in U_(p+1), omega the
    Teichmueller lift, and (1 + y)^(p-1) - 1 has the valuation of y.

    It keeps its own route, not unit_reports' logarithm, which divides by p
    and so would know a valuation near the cap K(p-1) too coarsely to tell
    it from CAP.  It is the tests' oracle for unit_reports.
    """
    _require_truncated(eta, "verify_unit_relation")
    ctx, p = eta.ctx, eta.ctx.p
    _check_even_index("projection index", p, two_m)
    _check_depth("verification", p, eta.K, p + 1)
    _require_unit(eta, "verify_unit_relation")
    mu = ctx.upow[two_m]
    twisted = _twisted_quotient(RingElement(ctx, 2, eta.coeffs), mu)
    relation_holds = is_locally_pth_power(twisted, p + 1)
    power = eta ** (p - 1)
    val = valuation(power - from_integer(ctx, eta.K, 1))
    # (False, None) when the expansion does not match
    delta = expansion_matches(power, mu)[1] if two_m > (p - 1) // 2 else None
    return UnitReport(
        two_m=two_m, mu=mu, relation_holds=relation_holds, local_pth_power=val >= p + 1,
        valuation_of_eta_pm1=val, expansion_delta=delta,
    )


def _unit_log(ctx: PrimeContext, K: int, a: int) -> list[int]:
    """Normal-basis coordinates of L = log(xi_a^(p-1)) mod p^K: the
    coefficient of z^(u^i) at index i.

    Argument reduction (Brent and Zimmermann, Modern Computer Arithmetic,
    ch. 4): for X = xi_a^(p-1) and any r >= 1,

        L = log(X^(p^r)) / p^r = sum_(n >= 1) (-1)^(n+1) b_n Z^n,
        b_n = p^(r(n-1)) / n,   Z = (X^(p^r) - 1) / p^r.

    The precision argument, with v the lam-adic valuation and
    lam^(K(p-1)) O = p^K O:

      * X is in U_2 (module docstring), and (1 + y)^p is in U_(s+p-1) when
        1 + y is in U_s with s >= 2, so v(X^(p^r) - 1) >= 2 + r(p-1).  Z is
        therefore in lam^2 O, and X^(p^r) mod p^(K+r) gives Z mod p^K;
      * b_n is a p-adic integer, as r(n-1) >= n-1 >= v_p(n), so every term
        is computed exactly mod p^K;
      * v(b_n Z^n) >= h(n) = (p-1)(r(n-1) - floor(log_p n)) + 2n, and h
        grows by at least 2 per step since r >= 1: from the first n with
        h(n) >= K(p-1) on, every term is 0 mod p^K.

    Every r >= 1 is exact.  r trades the power X^(p^r), one
    square-and-multiply chain of about 1.5 * r * log2(p) products, against
    the about K/r terms of the series (Horner's rule, one product each),
    so r is taken near sqrt(K / log2(p)).
    """
    p, n = ctx.p, ctx.p - 1
    r = max(1, math.isqrt(K // p.bit_length()))
    mK = p**K
    one = from_integer(ctx, K, 1)
    y = _power(cyclotomic_unit(ctx, K + r, a), n * p**r) - from_integer(ctx, K + r, 1)
    Z = RingElement(ctx, K, [c // p**r for c in y.coeff_list()])
    coeffs = []
    k, log_k = 1, 0  # log_k = floor(log_p k)
    while n * (r * (k - 1) - log_k) + 2 * k < K * n:
        v = _vp(k, p)
        coeffs.append((-1) ** (k + 1) * p ** (r * (k - 1) - v) * pow(k // p**v, -1, mK))
        k += 1
        log_k += k == p ** (log_k + 1)
    series = one * coeffs[-1]
    for b in reversed(coeffs[:-1]):
        series = series * Z + one * b
    return (_normal_coords(ctx, (series * Z).coeffs) % mK).tolist()


def _read_normal(ctx: PrimeContext, rows: np.ndarray, K: int) -> list:
    """padic._lam_read of rows of normal-basis coordinates mod p^K."""
    return _lam_read(ctx.p, K, _fold(_normal_slots(ctx, rows), ctx.p**K))


def _unit_logs(ctx: PrimeContext, K: int, ell: list[int], exps: np.ndarray) -> np.ndarray:
    """Normal-basis coordinates mod p^K of Lambda = sum_j c_j sigma^j(L),
    one row per row c of exps, from ell = _unit_log(ctx, K, a): sigma^j
    shifts L's coordinates by j, so Lambda is the cyclic convolution of c
    with L's coordinates."""
    p, n = ctx.p, ctx.p - 1
    mK = p**K
    dtype = _ROUTE_DTYPE[_exact_route(n * (p - 1) * (mK - 1), p)]
    ell = np.array(ell, dtype=object).astype(dtype)
    out = np.empty(exps.shape, dtype=object if mK >= 2**63 else np.int64)
    for i, c in enumerate(exps.astype(dtype)):
        full = np.convolve(c, ell)
        full[: n - 1] += full[n:]  # z^(u^(n+k)) = z^(u^k)
        out[i] = full[:n] % mK
    return out


def _log_valuations(ctx: PrimeContext, K: int, a: int, two_ms, exps, vals) -> list:
    """v(Lambda) mod p^K for each index, from vals, its reading mod p^2:
    the indices that read CAP there and have a^(2m) != 1 mod p take L
    again at the full K (unit_reports)."""
    p = ctx.p
    vals = list(vals)
    deep = [i for i, v in enumerate(vals) if v is CAP and pow(a, two_ms[i], p) != 1]
    if deep and K > 2:
        logs = _unit_logs(ctx, K, _unit_log(ctx, K, a), exps[deep])
        for i, v in zip(deep, _read_normal(ctx, logs, K)):
            vals[i] = v
    return vals


# Indices per block of unit_reports, read by one _lam_read: a few arrays of
# _BLOCK rows of p-1 residues (1 MB each at p=2039), and the Pascal matrix mod p.
_BLOCK = 64


def unit_reports(
    ctx: PrimeContext, K: int, a: int, two_ms
) -> list[tuple[UnitReport, UnitExponentVector]]:
    """The UnitReport and exponent vector of each index 2m in two_ms.

    The same reports as verify_unit_relation(eigen_project_unit(ctx, K, a,
    2m)[0], 2m), read off the logarithms Lambda (module docstring) with no
    projected unit built.  The unit index, every 2m and the depth are
    checked before any work; the indices then run in blocks of _BLOCK.

    Every Lambda is first taken mod p^2.  That decides the relation and
    the local p-th power (both ask for valuation p+1 <= 2(p-1)), gives
    Lambda mod p for the expansion, and gives v(Lambda) whenever it is
    below 2(p-1).  Where a^(2m) = 1 mod p, Lambda = 0 exactly: with
    a = u^t, c_(j+t) = c_j * a^(-2m) = c_j, so eta is a product of
    conjugates of prod_k sigma^(kt)(xi_a), a telescoping product equal to a
    power of z; eta is real, hence +-1, and its report reads CAP at every
    K.  Any other index with Lambda = 0 mod p^2 (none for p <= 251, over
    every a and 2m) takes L again at the full K, to tell its valuation
    from CAP.
    """
    p = ctx.p
    _check_unit_index(p, a)
    for two_m in two_ms:
        _check_even_index("projection index", p, two_m)
    _check_depth("verification", p, K, p + 1)  # so K >= 2
    if not two_ms:
        return []
    ell = _unit_log(ctx, 2, a)
    out = []
    for start in range(0, len(two_ms), _BLOCK):
        block = two_ms[start : start + _BLOCK]
        r = len(block)
        exps = _inverse_powers(ctx, block)
        mus = [ctx.upow[two_m] for two_m in block]
        logs = _unit_logs(ctx, 2, ell, exps)
        # sigma shifts the normal coordinates by one
        twisted = (np.roll(logs, 1, axis=1) - np.array(mus)[:, None] * logs) % (p * p)
        vals = _read_normal(ctx, np.concatenate([logs, twisted]), 2)
        v_twists = vals[r:]
        vals = _log_valuations(ctx, K, a, block, exps, vals[:r])
        for two_m, mu, v, v_twist, lam0, exp_list in zip(
            block, mus, vals, v_twists, logs[:, 0].tolist(), _shared_ints(ctx, exps)
        ):
            delta = -lam0 % p if two_m > (p - 1) // 2 else None  # Lambda = Lambda_0 * e_mu mod p
            report = UnitReport(
                two_m=two_m, mu=mu, relation_holds=v_twist >= p + 1, local_pth_power=v >= p + 1,
                valuation_of_eta_pm1=v, expansion_delta=delta,
            )
            out.append((report, UnitExponentVector(base_index=a, exponents=exp_list)))
    return out
