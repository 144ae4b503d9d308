"""Automorphism matrix, closed-form eigenvectors, and eigen-expansions."""

import json

import numpy as np
import pytest

from pisingular import (
    CAP,
    RingElement,
    canonical_eigenvector,
    eigenvector_element,
    expansion_matches,
    from_integer,
    lam,
    new_context,
    sigma_matrix,
    valuation,
    zeta,
)
from pisingular.cli import main
from pisingular.eigen import _eigen_reports, _inverse_powers, _is_eigen
from pisingular.ring import _fold, _normal_slots

import oracles
from conftest import random_unit, seeded

SMALL_PRIMES = (3, 5, 7, 11, 13)
SWEEP_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_sigma_matrix_p3():
    M = sigma_matrix(new_context(3))
    assert M.tolist() == [[0, 1], [1, 0]]


def test_sigma_matrix_p5_explicit(ctx5):
    # u = 2 sends z^j to z^(2j mod 5)
    M = sigma_matrix(ctx5)
    assert M.tolist() == [
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
    ]


def test_sigma_matrix_is_permutation_of_order_p_minus_1():
    for p in SMALL_PRIMES:
        M = sigma_matrix(new_context(p))
        assert M.shape == (p - 1, p - 1)
        assert (M.sum(axis=0) == 1).all()
        assert (M.sum(axis=1) == 1).all()
        I = np.eye(p - 1, dtype=np.int64)
        acc = I.copy()
        for k in range(1, p - 1):
            acc = acc @ M
            assert not (acc == I).all(), f"order divides {k} at p={p}"
        assert ((acc @ M) == I).all()


def test_sigma_matrix_action_matches_substitution():
    """M applied to coords must equal the exponent permutation j -> u*j."""
    rng = seeded(73)
    for p in SMALL_PRIMES:
        ctx = new_context(p)
        M = sigma_matrix(ctx)
        for _ in range(5):
            v = np.array([rng.randrange(p) for _ in range(p - 1)])
            w = np.zeros(p - 1, dtype=np.int64)
            for j in range(1, p):
                w[ctx.u * j % p - 1] = v[j - 1]
            assert ((M @ v) % p == w % p).all()


def test_eigenvector_frozen_examples(ctx5):
    assert canonical_eigenvector(new_context(3), 2).vector == (1, 2)
    rep = canonical_eigenvector(ctx5, 2)
    assert rep.vector == (1, 3, 2, 4)
    assert rep.index_s == 1
    assert rep.dimension == 1
    assert rep.valuation == 1
    assert rep.matches_closed_form


def test_eigenvector_mu_reduced_mod_p(ctx5):
    assert canonical_eigenvector(ctx5, 7).vector == canonical_eigenvector(ctx5, 2).vector


def test_eigenvector_rejects_trivial_eigenvalues(ctx5):
    for mu in (0, 1, 5, 6, -4):
        with pytest.raises(ValueError, match="2..p-1"):
            canonical_eigenvector(ctx5, mu)
        with pytest.raises(ValueError, match="2..p-1"):
            oracles.recurrence_solve(ctx5, mu, 1)


def test_eigen_refusal_names_mu_as_given(ctx5, capsys):
    # mu = 6 is 1 mod 5: the message names 6, not the reduced 1
    for mu in (6, 10, -4):
        with pytest.raises(ValueError, match=rf"2\.\.p-1, got {mu}$"):
            canonical_eigenvector(ctx5, mu)
        with pytest.raises(ValueError, match=rf"got {mu}$"):
            _eigen_reports(ctx5, [2, 3, mu])
        assert main(["eigen", "--p", "5", "--mu", str(mu)]) == 2
        assert capsys.readouterr().err == f"error: eigenvalue must lie in 2..p-1, got {mu}\n"


@pytest.mark.parametrize("p", [3, 5, 7, 53, 67, 71, 101])
def test_batched_reports_match_per_mu_oracle(p, capsys):
    ctx = new_context(p)
    expected = [oracles.canonical_eigenvector(ctx, mu) for mu in range(2, p)]
    assert _eigen_reports(ctx, list(range(2, p))) == expected
    assert [canonical_eigenvector(ctx, mu) for mu in range(2, p)] == expected
    assert main(["eigen", "--p", str(p), "--all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"] == [r.to_json_dict() for r in expected]


def test_batched_reports_match_per_mu_oracle_p1031(capsys):
    ctx = new_context(1031)
    mus = [2, 1030, 1032 + 5] + seeded(1031).sample(range(3, 1030), 6)
    expected = [oracles.canonical_eigenvector(ctx, mu) for mu in mus]
    assert _eigen_reports(ctx, mus) == expected
    for mu, rep in zip(mus, expected):
        assert canonical_eigenvector(ctx, mu) == rep
        assert main(["eigen", "--p", "1031", "--mu", str(mu), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == [rep.to_json_dict()]


@pytest.mark.parametrize("p", [5, 13, 101])
def test_batched_sigma_check_refuses_non_eigenvectors(p):
    """_is_eigen reads True on every e_mu and False on a row that is not a
    mu-eigenvector: e_mu with one coefficient moved, and e_mu against
    another mu."""
    ctx = new_context(p)
    mus = list(range(2, p))
    rows = _fold(_normal_slots(ctx, _inverse_powers(ctx, [ctx.index_of(mu) for mu in mus]))) % p
    assert _is_eigen(ctx, rows, mus).all()
    moved = rows.copy()
    moved[1, p // 2] = (moved[1, p // 2] + 1) % p
    assert _is_eigen(ctx, moved, mus).tolist() == [i != 1 for i in range(len(mus))]
    assert not _is_eigen(ctx, rows, mus[1:] + mus[:1]).any()


def test_eigenvector_sweep_substitution_oracle():
    """For every admissible mu: coords[j-1] == mu * coords[u*j%p-1] mod p."""
    for p in SWEEP_PRIMES:
        ctx = new_context(p)
        for mu in range(2, p):
            coords = canonical_eigenvector(ctx, mu).vector
            assert coords[0] == 1
            for j in range(1, p):
                lhs = coords[j - 1]
                rhs = mu * coords[ctx.u * j % p - 1] % p
                assert lhs == rhs, (p, mu, j)


def test_eigenreport_sweep():
    for p in SWEEP_PRIMES:
        ctx = new_context(p)
        for mu in range(2, p):
            rep = canonical_eigenvector(ctx, mu)
            assert rep.dimension == 1
            assert rep.matches_closed_form
            assert rep.index_s == ctx.index_of(mu)
            assert rep.valuation == oracles.eigenvector_valuation(ctx, mu)
            assert rep.to_json_dict()["vector"] == list(rep.vector)


def test_recurrence_frozen_example(ctx5):
    sol = oracles.recurrence_solve(ctx5, 3, 1)
    assert sol.gamma == 2
    assert sol.gammas == (3, 4, 1)
    V = sol.to_ring_element(ctx5)
    assert V.coeff_list() == [1, 2, 3, 4]
    assert V == eigenvector_element(ctx5, 1, 3)


def test_recurrence_zero_free_parameter(ctx5):
    sol = oracles.recurrence_solve(ctx5, 2, 0)
    assert sol.gamma == 0
    assert set(sol.gammas) == {0}
    assert sol.to_ring_element(ctx5) == from_integer(ctx5, 1, 0)


def test_recurrence_is_linear_in_free(ctx5):
    base = oracles.recurrence_solve(ctx5, 2, 1)
    doubled = oracles.recurrence_solve(ctx5, 2, 2)
    assert doubled.gamma == 2 * base.gamma % 5
    assert doubled.gammas == tuple(2 * g % 5 for g in base.gammas)


def test_recurrence_solution_satisfies_eigen_equation():
    for p in SMALL_PRIMES:
        ctx = new_context(p)
        for mu in range(2, p):
            for free in (1, 2):
                sol = oracles.recurrence_solve(ctx, mu, free)
                V = sol.to_ring_element(ctx)
                assert V.galois_apply(ctx.u) == V * mu, (p, mu, free)
                # one-dimensionality forces V into the span of e_mu; the
                # scalar works out to free / (mu * (mu - 1))
                k = free * pow(mu * (mu - 1), -1, p) % p
                assert k != 0
                assert V == eigenvector_element(ctx, 1, mu) * k


def test_recurrence_context_mismatch(ctx5, ctx7):
    sol = oracles.recurrence_solve(ctx5, 2, 1)
    with pytest.raises(ValueError, match="prime"):
        sol.to_ring_element(ctx7)


def test_expansion_matches_synthetic_full_depth():
    for p in (5, 7):
        ctx = new_context(p)
        one = from_integer(ctx, 1, 1)
        for mu in range(2, p):
            e = eigenvector_element(ctx, 1, mu)
            for delta in range(p):
                a = one - e * delta
                assert expansion_matches(a, mu) == (True, delta), (p, mu, delta)


def test_expansion_matches_negative_case(ctx5):
    a = from_integer(ctx5, 1, 1) + lam(ctx5, 1)
    # e_4 has valuation 2, so 1 + lam can never match to full depth
    assert expansion_matches(a, 4) == (False, None)


def test_expansion_matches_enumeration_oracle():
    """Compare against trying every residue delta directly, at every depth.

    Half the inputs are 1 - d * e_mu + lam^k * x, which match to depth k,
    so the matched branch is reached at every depth and not only at 1; k is
    p-1, an exact match, half the time.
    """
    rng = seeded(79)
    for p in (5, 7, 11, 13):
        ctx = new_context(p)
        one = from_integer(ctx, 1, 1)
        full_matches = 0
        for _ in range(20):
            mu = rng.randrange(2, p)
            e = eigenvector_element(ctx, 1, mu)
            if rng.randrange(2):
                a = random_unit(ctx, 1, rng)
            else:
                k = rng.choice((rng.randrange(1, p), p - 1))  # lam^(p-1) = 0 mod p
                x = random_unit(ctx, 1, rng)
                a = one - e * rng.randrange(p) + lam(ctx, 1) ** k * x
            vals = [valuation(a - one + e * d) for d in range(p)]
            for depth in range(1, p):
                witness = {d for d, v in enumerate(vals) if v is CAP or v >= depth}
                matched, delta = expansion_matches(a, mu, depth)
                assert matched == bool(witness), (p, mu, depth)
                if matched:
                    assert delta in witness
                else:
                    assert delta is None
            matched, delta = expansion_matches(a, mu)
            if matched:  # full depth: the match is unique
                assert witness == {delta}
                full_matches += 1
        assert full_matches, p


def test_expansion_matches_shallow_depth_scan(ctx5):
    # at depth 1 every unit with residue 1 matches via some delta
    a = from_integer(ctx5, 1, 1) + lam(ctx5, 1) ** 2
    matched, delta = expansion_matches(a, 2, 1)
    assert matched and 0 <= delta < 5


def test_expansion_matches_validation(ctx5):
    with pytest.raises(ValueError, match="must be a unit"):
        expansion_matches(lam(ctx5, 1), 2)
    one = from_integer(ctx5, 1, 1)
    with pytest.raises(ValueError, match="depth"):
        expansion_matches(one, 2, 0)
    with pytest.raises(ValueError, match="depth"):
        expansion_matches(one, 2, 5)


def test_eigenvector_element_respects_precision(ctx5):
    e1 = eigenvector_element(ctx5, 1, 2)
    e2 = eigenvector_element(ctx5, 2, 2)
    assert RingElement(ctx5, 1, e2.coeffs) == e1
    assert zeta(ctx5, 1, 1).galois_apply(ctx5.u) == zeta(ctx5, 1, 2)
