"""Jacobi sums: exact, dense elements with known invariants at large p.

oracles.jacobi_sum builds J(chi^a, chi^b) over F_ell, here at the least
prime ell = 2pm + 1.  For a + b != 0 mod p, |J(z^j)|^2 = ell at every j, so
J * conj(J) = ell and N(J) = ell^((p-1)/2); sigma_c J(chi^a, chi^b) =
J(chi^(ca), chi^(cb)); and J = -1 mod lam^2, so J is semi-primary (Ireland
and Rosen, A Classical Introduction to Modern Number Theory, ch. 14).
B = J^p has the norm ell^(p(p-1)/2), a p-th power, so its norm-shape claim
holds where J's fails.
"""

import pytest

import oracles
from pisingular import (
    CandidateBundle,
    ExactElement,
    from_integer,
    is_prime,
    is_semi_primary,
    new_context,
    norm_exact,
    valuation,
)

from test_verdict_depth import _check

LEAST_SPLIT = {37: 149, 101: 607, 257: 1543, 1031: 2063}


def test_the_least_split_primes():
    for p, ell in LEAST_SPLIT.items():
        m = (ell - 1) // (2 * p)
        assert ell == 2 * p * m + 1 and is_prime(ell)
        assert not any(is_prime(2 * p * k + 1) for k in range(1, m))


@pytest.mark.parametrize("p", LEAST_SPLIT)
def test_the_norm_is_a_power_of_ell(p):
    ell = LEAST_SPLIT[p]
    pairs = [(1, 1)] if p > 257 else [(1, 1), (2, 5), (3, p - 4)]
    for a, b in pairs:
        J = oracles.jacobi_sum(p, ell, a, b)
        assert J * J.conjugate() == ExactElement.from_integer(p, ell)
        assert norm_exact(J) == ell ** ((p - 1) // 2), (a, b)


@pytest.mark.parametrize("p", LEAST_SPLIT)
def test_semi_primary_and_galois_conjugates(p):
    ell, ctx = LEAST_SPLIT[p], new_context(p)
    for a, b in ((1, 1), (2, 5)):
        J = oracles.jacobi_sum(p, ell, a, b)
        Jq = J.reduce(ctx, 2)
        assert is_semi_primary(Jq)
        assert valuation(Jq + from_integer(ctx, 2, 1)) >= 2  # J = -1 mod lam^2
        for c in (2, ctx.u, p - 1):
            assert J.galois_apply(c) == oracles.jacobi_sum(p, ell, c * a % p, c * b % p), c


@pytest.mark.parametrize("p", [37, 101])
@pytest.mark.parametrize("e", ["1", "p"])
def test_verify_matches_the_full_k_reference(p, e):
    # the p=101 norm of J^p has 14050 digits, past str()'s limit of 4300
    ctx = new_context(p)
    J = oracles.jacobi_sum(p, LEAST_SPLIT[p], 1, 1)
    B = J**p if e == "p" else J
    for parity, s in (("positive", p - 3), ("negative", p - 2)):
        for K in (2, 3):
            b = CandidateBundle(ctx=ctx, K=K, parity=parity, mu=ctx.upow[s], B=B)
            (doc,) = _check(b)
            semi, shape = doc["claims"][:2]
            assert semi["holds"] and shape["holds"] == (e == "p")


def test_stickelberger_indices_are_the_irregular_indices():
    # a Bernoulli-free read of irregular(): the odd s whose Jacobi-sum
    # eigen-projection has a p-th power ideal are the 1 - 2m of the
    # irregular pairs (p, 2m), at every prime below 400 (23 pairs) and a
    # spread up to 2039 (491 has three pairs, 1031 none)
    pairs = 0
    for p in [*filter(is_prime, range(5, 400)), 409, 467, 491, 587, 1031, 1663, 2039]:
        want = {(1 - two_m) % (p - 1) for two_m in new_context(p).irregular_pairs()}
        assert oracles.stickelberger_indices(p) == want, p
        pairs += len(want)
    assert pairs == 23 + 1 + 2 + 3 + 2 + 0 + 2 + 1


def test_stickelberger_b_must_avoid_the_factor_zeros():
    # with b = 1 fixed, 1 + 1^s = (1 + 1)^s at s = 21 (2 has order 20 mod
    # 41): the regular prime 41 gains that spurious index
    assert oracles.stickelberger_indices(41) == set()
    assert oracles.stickelberger_indices(41, b=1) == {21}
