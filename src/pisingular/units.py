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
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import PrimeContext
from .eigen import _inverse_powers, expansion_matches
from .padic import _val_json, is_locally_pth_power, valuation
from .ring import ExactElement, RingElement, _power, from_integer

__all__ = [
    "UnitExponentVector",
    "UnitReport",
    "cyclotomic_unit",
    "cyclotomic_unit_exact",
    "eigen_project_unit",
    "eigen_project_unit_exact",
    "verify_unit_relation",
    "solve_unit_adjustment",
]


def _check_unit_index(p: int, a: int) -> None:
    if not (2 <= a <= (p - 1) // 2):
        raise ValueError(f"unit index must lie in [2, {(p - 1) // 2}], got {a}")


def _check_even_index(p: int, two_m: int) -> None:
    if two_m % 2 != 0 or not (2 <= two_m <= p - 3):
        raise ValueError(
            f"projection index must be even in [2, {p - 3}], got {two_m}"
        )


def _xi_coeffs(p: int, a: int) -> list[int]:
    """Power-basis coefficients of xi_a = z^e + z^(e+1) + ... + z^(e+a-1),
    e = (1-a)/2 mod p: the exponents are read mod p, and a z^(p-1) term is
    folded by Phi_p into -1 in every slot."""
    _check_unit_index(p, a)
    e = (1 - a) * pow(2, -1, p) % p
    slots = [0] * p
    for k in range(e, e + a):
        slots[k % p] = 1
    return [c - slots[p - 1] for c in slots[: p - 1]]


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


def _projection_exponents(ctx: PrimeContext, two_m: int) -> list[int]:
    return _inverse_powers(ctx, ctx.upow[two_m])


def _bucketed_projection(xi, upow, exps):
    """prod_j sigma_j(xi)^(exps[j]) with sigma_j: z -> z^(upow[j]), exps >= 1.

    Bucket B_c is the product of the conjugates with exponent c.  Walking
    the occupied exponents c from the largest down, running =
    prod_{c' >= c} B_c' and total gains running^(c - c_next), where c_next
    is the next occupied exponent (0 after the last), so B_c' ends up
    raised to exactly c'.  A gap g costs at most g products (the power
    takes at most g - 1, one more multiplies it into total), the same as
    one product per integer step for g <= 3 and fewer from g = 4 on.
    Works for RingElement and ExactElement alike.
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
    _check_unit_index(ctx.p, a)
    _check_even_index(ctx.p, two_m)
    xi = cyclotomic_unit(ctx, K, a)
    exps = _projection_exponents(ctx, two_m)
    eta = _bucketed_projection(xi, ctx.upow, exps)
    return eta, UnitExponentVector(base_index=a, exponents=tuple(exps))


def eigen_project_unit_exact(
    ctx: PrimeContext, a: int, two_m: int
) -> ExactElement:
    """Exact-coefficient version of eigen_project_unit (no truncation).

    The same bucketed evaluation over ExactElement; reducing the result
    mod p^K gives eigen_project_unit's eta.
    """
    _check_unit_index(ctx.p, a)
    _check_even_index(ctx.p, two_m)
    xi = cyclotomic_unit_exact(ctx.p, a)
    return _bucketed_projection(xi, ctx.upow, _projection_exponents(ctx, two_m))


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
    """sigma(x) * x^(-mu), a local p-th power when x satisfies the twisted relation."""
    ctx = x.ctx
    return x.galois_apply(ctx.u) * (x**mu).invert()


def verify_unit_relation(eta: RingElement, two_m: int) -> UnitReport:
    """Check the twisted relation and measure the unit's local behavior.

    The relation claim is that sigma(eta) * eta^(-mu) is a p-th power
    locally to depth p+1.  Failure of the valuation dichotomy is data,
    not an error: the report records what was measured.
    """
    ctx, p = eta.ctx, eta.ctx.p
    _check_even_index(p, two_m)
    if eta.K * (p - 1) < p + 1:
        raise ValueError(
            f"verification needs depth {p + 1}; K={eta.K} caps at {eta.K * (p - 1)}"
        )
    mu = ctx.upow[two_m]
    relation_holds = is_locally_pth_power(_twisted_quotient(eta, mu), p + 1)
    local = is_locally_pth_power(eta, p + 1)
    power = eta ** (p - 1)
    val = valuation(power - from_integer(ctx, eta.K, 1))
    delta = None
    if two_m > (p - 1) // 2:
        matched, d = expansion_matches(power, mu, p - 1)
        if matched:
            delta = d
    return UnitReport(
        two_m=two_m,
        mu=mu,
        relation_holds=relation_holds,
        local_pth_power=local,
        valuation_of_eta_pm1=val,
        expansion_delta=delta,
    )


def solve_unit_adjustment(
    ctx: PrimeContext, mu: int, components: list[tuple[int, int]]
) -> list[int]:
    """Exponents rho_j with rho_j * (nu_j - mu) = l_j mod p, one per component.

    Combining W_j^rho_j for units with twist eigenvalues nu_j != mu absorbs
    the leftover eigencomponents l_j; a component with nu_j = mu cannot be
    adjusted and is rejected by index.
    """
    p = ctx.p
    mu = mu % p
    if mu == 0:
        raise ValueError("mu must be invertible mod p")
    out = []
    for idx, (nu, ell) in enumerate(components):
        nu = nu % p
        if nu == mu:
            raise ValueError(
                f"component {idx}: twist eigenvalue {nu} equals mu; "
                "no adjustment exponent exists"
            )
        out.append(ell * pow(nu - mu, -1, p) % p)
    return out
