"""Eigentheory of the Galois generator on the mod-p root-of-unity span.

Over F_p the span of z^1, ..., z^(p-1) carries the generator sigma
(z -> z^u) as the (p-1)-cycle permutation of exponents j -> u*j mod p.  A
permutation matrix of a full cycle has one eigenvalue for each (p-1)-th
root of unity in F_p, i.e. every nonzero residue mu, each with a
one-dimensional eigenspace spanned by the closed-form vector

    e_mu = sum_i mu^(-i) z^(u^i)      (i = 0..p-2).

Every e_mu is read off one table, E[s, i] = u^(-s*i mod (p-1)) = mu^(-i)
for mu = u^s, one numpy index expression per block of rows; the reports of
a list of mu check sigma(e_mu) = mu * e_mu on a block at once with the
ring's Galois kernel.

The module also recognizes the units congruent to 1 - delta * e_mu mod
lam^(p-1) (expansion_matches).  As (p) = (lam)^(p-1), that congruence is
one mod p, where the normal basis z^(u^i) is a basis and e_mu's
coordinates are the row mu^(-i) of E, 1 at i = 0: it holds iff the normal
coordinates n_i of a - 1 are n_0 * mu^(-i) mod p, and then delta = -n_0
(Washington, Introduction to Cyclotomic Fields, ch. 5 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import PrimeContext
from .padic import _require_unit
from .ring import RingElement, _fold, _fold_galois, _normal_coords, _normal_slots

__all__ = [
    "EigenReport",
    "sigma_matrix",
    "eigenvector_element",
    "canonical_eigenvector",
    "expansion_matches",
]


def sigma_matrix(ctx: PrimeContext) -> np.ndarray:
    """Matrix of z -> z^u on the span basis z^1, ..., z^(p-1) over F_p."""
    p = ctx.p  # column z^j holds the unit vector of z^(u*j)
    return np.eye(p - 1, dtype=np.int64)[:, np.arange(1, p) * ctx.u % p - 1]


# Bytes per int64 array of a block of _eigen_reports: below glibc's default mmap
# threshold of 128 KB, which 1 MB arrays (64 rows at p=2039) raise, and the JSON
# encoding of eigen --p 2039 --all --json after them then peaks 1.1 MB higher.
_BLOCK_BYTES = 1 << 17


def _indices(ctx: PrimeContext, mus) -> list[int]:
    """The index s of each eigenvalue mu = u^s; mu = 0 or 1 mod p is
    refused, named as given."""
    for mu in mus:
        if mu % ctx.p in (0, 1):
            raise ValueError(f"eigenvalue must lie in 2..p-1, got {mu}")
    return [ctx.uindex[mu % ctx.p] for mu in mus]


def _inverse_powers(ctx: PrimeContext, s) -> np.ndarray:
    """Rows s of E[s, i] = u^(-s*i mod (p-1)), i = 0 .. p-2: mu^(-i) for
    mu = u^s, the normal-basis coordinates of e_mu and, at s = 2m, the
    exponents c_j of the unit projection."""
    n = ctx.p - 1
    return np.asarray(ctx.upow)[np.multiply.outer(-np.asarray(s, dtype=np.int64), np.arange(n)) % n]


def _shared_ints(ctx: PrimeContext, rows) -> list[tuple[int, ...]]:
    """Rows of residues in 1 .. p-1 as tuples of ctx.upow's own int
    objects, which every row then shares: fresh ints take 28 bytes an
    entry, about 116 MB over the reports of eigen --all at p=2039."""
    ints = (0, *sorted(ctx.upow))
    return [tuple(map(ints.__getitem__, row.tolist())) for row in rows]


def eigenvector_element(ctx: PrimeContext, K: int, mu: int) -> RingElement:
    """e_mu as a ring element (its coefficients are only meaningful mod p)."""
    (row,) = _inverse_powers(ctx, _indices(ctx, [mu]))
    return RingElement(ctx, K, _fold(_normal_slots(ctx, row)))


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
        return dict(vars(self), vector=list(self.vector))


def _is_eigen(ctx: PrimeContext, rows, mus) -> np.ndarray:
    """Whether sigma(x) = mu * x mod p for each row x of power-basis residues
    mod p and its mu, by the ring's Galois kernel on every row at once."""
    p = ctx.p
    mus = np.asarray(mus, dtype=np.int64)[:, None]
    return (_fold_galois(rows, ctx.u, p, p) == rows * mus % p).all(axis=1)


def _eigen_reports(ctx: PrimeContext, mus) -> list[EigenReport]:
    """canonical_eigenvector(ctx, mu) for each mu in mus, from one array of
    rows of E per block of eigenvalues (_BLOCK_BYTES).  Every mu is checked
    before any work."""
    p = ctx.p
    indices = _indices(ctx, mus)
    rows = max(1, _BLOCK_BYTES // (8 * (p + 1)))
    out = []
    for start in range(0, len(indices), rows):
        block = indices[start : start + rows]
        slots = _normal_slots(ctx, _inverse_powers(ctx, block))
        block_mus = [ctx.upow[s] for s in block]
        ok = _is_eigen(ctx, _fold(slots, p), block_mus).tolist()
        for s, mu, vector, holds in zip(block, block_mus, _shared_ints(ctx, slots[:, 1:]), ok):
            out.append(EigenReport(p, mu, s, 1, vector, s, holds))  # dimension 1, valuation s
    return out


def canonical_eigenvector(ctx: PrimeContext, mu: int) -> EigenReport:
    """Closed-form eigenvector, confirmed as the whole eigenspace.

    dimension is 1 for every mu: a PrimeContext admits only a primitive
    root u, so j -> u*j is a single (p-1)-cycle and each mu-eigenspace of
    sigma is one-dimensional.  valuation is the index s of mu = u^s: the
    lam-adic valuation of e_mu equals s (the valuation law, which the
    tests check against the lam-basis route).  matches_closed_form records
    that applying the automorphism in the ring reproduces mu times the
    nonzero closed form, which therefore spans it.  The one-mu case of
    _eigen_reports.
    """
    return _eigen_reports(ctx, [mu])[0]


def expansion_matches(a: RingElement, mu: int) -> tuple[bool, int | None]:
    """Test a = 1 - delta * e_mu mod lam^(p-1); return (matched, delta).

    Mod lam^(p-1) is mod p (module docstring), so it is a test on the
    normal coordinates n_i of a - 1 mod p: n_i = n_0 * mu^(-i) at every i,
    and then delta = -n_0.  delta is unique, as e_mu is nonzero mod p;
    (False, None) when nothing matches.
    """
    _require_unit(a, "expansion_matches")
    ctx, p = a.ctx, a.ctx.p
    (e,) = _inverse_powers(ctx, _indices(ctx, [mu]))
    c = (a.coeffs % p).astype(np.int64)
    c[0] -= 1
    n = _normal_coords(ctx, c)
    matched = not ((n - n[0] * e) % p).any()
    return matched, (-int(n[0]) % p if matched else None)
