"""Eigentheory of the Galois generator on the mod-p root-of-unity span.

Over F_p the span of z^1, ..., z^(p-1) carries the generator sigma
(z -> z^u) as the (p-1)-cycle permutation of exponents j -> u*j mod p.  A
permutation matrix of a full cycle has one eigenvalue for each (p-1)-th
root of unity in F_p, i.e. every nonzero residue mu, each with a
one-dimensional eigenspace spanned by the closed-form vector

    e_mu = sum_i mu^(-i) z^(u^i)      (i = 0..p-2).

This module builds those eigenvectors from the closed form, solves the
first-order recurrence the eigen equation imposes on the coefficient list,
and exposes the digit-expansion matcher that recognizes elements congruent
to 1 - delta * e_mu to a requested depth by one linear solve mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import PrimeContext
from .padic import _lam_read, _require_unit
from .ring import RingElement, from_integer, zeta

__all__ = [
    "EigenReport",
    "RecurrenceSolution",
    "sigma_matrix",
    "eigenvector_span_coords",
    "eigenvector_element",
    "span_coords",
    "canonical_eigenvector",
    "recurrence_solve",
    "expansion_matches",
]


def sigma_matrix(ctx: PrimeContext) -> np.ndarray:
    """Matrix of z -> z^u on the span basis z^1, ..., z^(p-1) over F_p."""
    p, u = ctx.p, ctx.u
    M = np.zeros((p - 1, p - 1), dtype=np.int64)
    for j in range(1, p):
        M[u * j % p - 1, j - 1] = 1
    return M


def span_coords(a: RingElement) -> list[int]:
    """Rewrite a power-basis element over z^1, ..., z^(p-1), mod p.

    Uses 1 = -(z + z^2 + ... + z^(p-1)); the rewrite is unique because the
    nonconstant powers also form a basis.
    """
    p = a.ctx.p
    c = [int(x) for x in a.coeffs]
    c0 = c[0]
    out = [(c[j] - c0) % p for j in range(1, p - 1)]
    out.append((-c0) % p)
    return out


def _span_to_element(ctx: PrimeContext, K: int, coords) -> RingElement:
    p = ctx.p
    coords = [int(x) for x in coords]
    top = coords[p - 2]  # coefficient of z^(p-1)
    coeffs = [-top] + [coords[j - 1] - top for j in range(1, p - 1)]
    return RingElement(ctx, K, coeffs)


def _inverse_powers(ctx: PrimeContext, mu: int) -> list[int]:
    """mu^(-i) mod p for i = 0 .. p-2, as u^(-s*i) with mu = u^s."""
    s, n = ctx.uindex[mu % ctx.p], ctx.p - 1
    return [ctx.upow[-s * i % n] for i in range(n)]


def eigenvector_span_coords(ctx: PrimeContext, mu: int) -> tuple[int, ...]:
    """Coordinates of e_mu on z^1, ..., z^(p-1), normalized so z^1 has 1."""
    p = ctx.p
    mu = mu % p
    if mu in (0, 1):
        raise ValueError(f"eigenvalue must lie in 2..p-1, got {mu}")
    coords = [0] * (p - 1)
    for i, c in enumerate(_inverse_powers(ctx, mu)):
        coords[ctx.upow[i] - 1] = c
    return tuple(coords)


def eigenvector_element(ctx: PrimeContext, K: int, mu: int) -> RingElement:
    """e_mu as a ring element (its coefficients are only meaningful mod p)."""
    return _span_to_element(ctx, K, eigenvector_span_coords(ctx, mu))


@dataclass(frozen=True)
class EigenReport:
    """The closed-form eigenvector e_mu of sigma, mu = u^index_s.

    dimension (always 1) and valuation (always index_s, by the valuation
    law v(e_mu) = s) are read off invariants; matches_closed_form is the
    one computed check.
    """

    p: int
    mu: int
    index_s: int
    dimension: int
    vector: tuple[int, ...]
    valuation: int
    matches_closed_form: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "mu": self.mu,
            "index_s": self.index_s,
            "dimension": self.dimension,
            "vector": list(self.vector),
            "valuation": self.valuation,
            "matches_closed_form": self.matches_closed_form,
        }


def canonical_eigenvector(ctx: PrimeContext, mu: int) -> EigenReport:
    """Closed-form eigenvector, confirmed as the whole eigenspace.

    dimension is 1 for every mu: a PrimeContext admits only a primitive
    root u, so j -> u*j is a single (p-1)-cycle and each mu-eigenspace of
    sigma is one-dimensional.  valuation is the index s of mu = u^s: the
    lam-adic valuation of e_mu equals s (the valuation law, which the
    tests check against the lam-basis route).  matches_closed_form records
    that applying the automorphism in the ring reproduces mu times the
    nonzero closed form, which therefore spans it.
    """
    mu = mu % ctx.p
    coords = eigenvector_span_coords(ctx, mu)  # refuses mu = 0, 1
    elem = _span_to_element(ctx, 1, coords)
    s = ctx.index_of(mu)
    return EigenReport(
        p=ctx.p,
        mu=mu,
        index_s=s,
        dimension=1,
        vector=coords,
        valuation=s,
        matches_closed_form=elem.galois_apply(ctx.u) == elem * mu,
    )


@dataclass(frozen=True)
class RecurrenceSolution:
    """Coefficient solution of the eigen equation in the affine picture.

    The element gamma + sum_i gammas[i] * z^(u^i) (i = 0..p-3) satisfies
    sigma(V) = mu * V; gammas[p-3] equals the free parameter and the
    constant term is gamma = -free / (mu - 1) mod p.
    """

    p: int
    mu: int
    free: int
    gamma: int
    gammas: tuple[int, ...]

    def to_ring_element(self, ctx: PrimeContext) -> RingElement:
        if ctx.p != self.p:
            raise ValueError(f"context prime {ctx.p} != solution prime {self.p}")
        acc = from_integer(ctx, 1, self.gamma)
        for i, g in enumerate(self.gammas):
            acc = acc + zeta(ctx, 1, ctx.upow[i]) * g
        return acc


def recurrence_solve(ctx: PrimeContext, mu: int, free: int) -> RecurrenceSolution:
    """Solve the linear recurrence the eigen equation imposes coefficientwise.

    Closing the loop forces gammas[p-3] back to the free parameter; that
    consistency is asserted rather than assumed.
    """
    p = ctx.p
    mu = mu % p
    if mu in (0, 1):
        raise ValueError(f"eigenvalue must lie in 2..p-1, got {mu}")
    free = free % p
    minv = pow(mu, -1, p)
    gammas = [(-free) * minv % p]
    for _ in range(1, p - 2):
        gammas.append((gammas[-1] - free) * minv % p)
    assert gammas[p - 3] == free, "recurrence failed to close"
    gamma = (-free) * pow(mu - 1, -1, p) % p
    return RecurrenceSolution(
        p=p, mu=mu, free=free, gamma=gamma, gammas=tuple(gammas)
    )


def _match_expansion(w, e, p: int) -> int | None:
    """The delta with w_i + delta * e_i = 0 mod p at every i, solved at the
    first i with e_i != 0 (0 if e is all zero), or None if none matches."""
    s = np.flatnonzero(e)
    delta = -int(w[s[0]]) * pow(int(e[s[0]]), -1, p) % p if s.size else 0
    return None if ((w + delta * e) % p).any() else delta


def expansion_matches(
    a: RingElement, mu: int, depth: int | None = None
) -> tuple[bool, int | None]:
    """Test a = 1 - delta * e_mu mod lam^depth; return (matched, delta).

    With w, e the lam-digits of a - 1 and e_mu below depth, read together
    mod p (padic._lam_read), it is w_i + delta * e_i = 0 mod p for
    i < depth (_match_expansion).  v(e_mu) < p-1, so at depth p-1 a
    matching delta is unique.
    """
    ctx, p = a.ctx, a.ctx.p
    _require_unit(a, "expansion_matches")
    if depth is None:
        depth = p - 1
    if not (1 <= depth <= p - 1):
        raise ValueError(f"depth must lie in [1, {p - 1}], got {depth}")
    rows = [a.coeffs % p, eigenvector_element(ctx, 1, mu % p).coeffs]
    _, (w, e) = _lam_read(p, 1, np.array(rows, dtype=np.int64))
    w[0] -= 1
    delta = _match_expansion(w[:depth], e[:depth], p)
    return delta is not None, delta
