"""Circular units, eigen-projection, and the twisted power relation."""

import numpy as np
import pytest

from pisingular import (
    CAP,
    RingElement,
    cyclotomic_unit,
    cyclotomic_unit_exact,
    eigen_project_unit,
    eigen_project_unit_exact,
    is_locally_pth_power,
    is_prime,
    new_context,
    norm_exact,
    unit_reports,
    verify_unit_relation,
)

from pisingular.eigen import _inverse_powers
from pisingular.units import (
    _log_valuations,
    _read_normal,
    _unit_log,
    _unit_logs,
)

import oracles
from conftest import seeded


def test_cyclotomic_unit_frozen(ctx5):
    assert cyclotomic_unit(ctx5, 2, 2).coeff_list() == [0, 0, 1, 1]
    assert list(cyclotomic_unit_exact(5, 2).coeffs) == [0, 0, 1, 1]


def test_exact_unit_reduces_to_modular():
    for p in (5, 7, 11):
        ctx = new_context(p)
        for a in range(2, (p - 1) // 2 + 1):
            exact = cyclotomic_unit_exact(p, a)
            assert exact.reduce(ctx, 2) == cyclotomic_unit(ctx, 2, a)


def test_cyclotomic_unit_is_real():
    """Conjugation-invariant with exact coefficients, for every index."""
    for p in (5, 7, 11, 13, 31, 97):
        for a in range(2, (p - 1) // 2 + 1):
            xi = cyclotomic_unit_exact(p, a)
            assert xi.conjugate() == xi, (p, a)


def test_cyclotomic_unit_has_unit_norm():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(2, (p - 1) // 2 + 1):
            assert norm_exact(cyclotomic_unit_exact(p, a)) in (1, -1), (p, a)
    assert norm_exact(cyclotomic_unit_exact(97, 2)) == 1


def test_unit_index_validation(ctx5):
    for bad in (0, 1, 3, 5):
        with pytest.raises(ValueError, match=r"\[2, 2\]"):
            cyclotomic_unit(ctx5, 2, bad)
        with pytest.raises(ValueError, match=r"\[2, 2\]"):
            cyclotomic_unit_exact(5, bad)


def test_projection_index_validation(ctx7):
    for bad in (1, 3, 0, -2, 6, 8):
        with pytest.raises(ValueError, match="even"):
            eigen_project_unit(ctx7, 2, 2, bad)


def test_projection_exponents_frozen(ctx5, ctx7):
    assert eigen_project_unit(ctx5, 2, 2, 2)[1].exponents == (1, 4, 1, 4)
    assert eigen_project_unit(ctx7, 2, 2, 2)[1].exponents == (1, 4, 2, 1, 4, 2)
    assert eigen_project_unit(ctx7, 2, 2, 4)[1].exponents == (1, 2, 4, 1, 2, 4)


def test_projection_exponents_are_inverse_powers_of_mu():
    for p in (5, 7, 11, 13):
        ctx = new_context(p)
        for two_m in range(2, p - 2, 2):
            mu = ctx.upow[two_m]
            vec = eigen_project_unit(ctx, 1, 2, two_m)[1]
            assert vec.base_index == 2
            minv = pow(mu, -1, p)
            assert all(
                c == pow(minv, j, p) for j, c in enumerate(vec.exponents)
            ), (p, two_m)


def test_exact_projection_matches_modular(ctx5, ctx7):
    for ctx in (ctx5, ctx7):
        for two_m in range(2, ctx.p - 2, 2):
            exact = eigen_project_unit_exact(ctx, 2, two_m)
            modular = eigen_project_unit(ctx, 2, 2, two_m)[0]
            assert exact.reduce(ctx, 2) == modular, (ctx.p, two_m)


def test_twisted_relation_sweep():
    for p in (5, 7, 11, 13):
        ctx = new_context(p)
        for a in range(2, min((p - 1) // 2, 3) + 1):
            for two_m in range(2, p - 2, 2):
                eta, _ = eigen_project_unit(ctx, 2, a, two_m)
                rep = verify_unit_relation(eta, two_m)
                assert rep.relation_holds, (p, a, two_m)
                assert rep.dichotomy_holds, (p, a, two_m)
                assert rep.mu == ctx.upow[two_m]


def test_unit_report_frozen_p7(ctx7):
    eta, _ = eigen_project_unit(ctx7, 2, 3, 4)
    rep = verify_unit_relation(eta, 4)
    assert rep.to_json_dict() == {
        "two_m": 4,
        "mu": 4,
        "relation_holds": True,
        "local_pth_power": False,
        "valuation_of_eta_pm1": 4,
        "expansion_delta": 4,
        "dichotomy_holds": True,
    }


def test_pth_power_input_reports_local(ctx5):
    rng = seeded(83)
    from conftest import random_unit

    beta = random_unit(ctx5, 2, rng)
    rep = verify_unit_relation(beta**5, 2)
    assert rep.relation_holds
    assert rep.local_pth_power
    assert rep.dichotomy_holds


def test_verification_depth_requirement(ctx7):
    eta, _ = eigen_project_unit(ctx7, 1, 2, 2)
    with pytest.raises(ValueError, match="needs depth"):
        verify_unit_relation(eta, 2)


def test_exceptional_index_is_local_pth_power():
    """Measured behavior at the one low irregular pair: the projected unit
    is a local p-th power, so the expansion coefficient degenerates to 0."""
    ctx = new_context(37)
    eta, _ = eigen_project_unit(ctx, 2, 2, 32)
    rep = verify_unit_relation(eta, 32)
    assert rep.relation_holds
    assert rep.local_pth_power
    assert rep.valuation_of_eta_pm1 == 40
    assert rep.expansion_delta == 0
    assert rep.dichotomy_holds


def test_solve_unit_adjustment_frozen(ctx7):
    assert oracles.solve_unit_adjustment(ctx7, 2, [(4, 3)]) == [5]
    assert oracles.solve_unit_adjustment(ctx7, 2, []) == []
    assert oracles.solve_unit_adjustment(ctx7, 2, [(4, 0), (3, 0)]) == [0, 0]


def test_solve_unit_adjustment_rejects_equal_eigenvalue(ctx7):
    with pytest.raises(ValueError, match="component 0"):
        oracles.solve_unit_adjustment(ctx7, 2, [(2, 3)])
    with pytest.raises(ValueError, match="component 1"):
        oracles.solve_unit_adjustment(ctx7, 2, [(4, 3), (9, 1)])


def test_solve_unit_adjustment_property():
    rng = seeded(89)
    for p in (7, 11, 13):
        ctx = new_context(p)
        for _ in range(20):
            mu = rng.randrange(1, p)
            comps = []
            for _ in range(rng.randrange(1, 4)):
                nu = rng.choice([x for x in range(1, p) if x != mu])
                comps.append((nu, rng.randrange(p)))
            rhos = oracles.solve_unit_adjustment(ctx, mu, comps)
            for (nu, ell), rho in zip(comps, rhos):
                assert rho * (nu - mu) % p == ell % p


def test_adjustment_clears_planted_contamination(ctx7):
    """A unit polluted by a wrong eigencomponent fails the twist test;
    dividing out the solved adjustment exponent restores it."""
    p, K = 7, 2
    mu = ctx7.upow[2]  # target eigenvalue, 2m = 2
    nu = ctx7.upow[4]  # contaminating eigenvalue, 2m' = 4
    eta, _ = eigen_project_unit(ctx7, K, 2, 2)
    W, _ = eigen_project_unit(ctx7, K, 2, 4)
    t = 3
    X = eta * W**t

    def twisted(y):
        return y.galois_apply(ctx7.u) * (y**mu).invert()

    assert not is_locally_pth_power(twisted(X), p + 1)
    leftover = t * (nu - mu) % p
    (rho,) = oracles.solve_unit_adjustment(ctx7, mu, [(nu, leftover)])
    assert rho == t
    X_fixed = X * (W**rho).invert()
    assert is_locally_pth_power(twisted(X_fixed), p + 1)


def _count_products(monkeypatch, ctx, K, a, two_m):
    calls = [0]
    mul = RingElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counting)
    eta, _ = eigen_project_unit(ctx, K, a, two_m)
    monkeypatch.setattr(RingElement, "__mul__", mul)
    return eta, calls[0]


def test_projection_raises_running_once_per_gap(monkeypatch):
    # One product per integer exponent step, as the projection walked before,
    # costs (p-1-d) (buckets) + (top-1) + (d-1) for d occupied exponents up
    # to top; xi_a itself is written down with no product.  One power per
    # gap never costs more, and far less when few exponents occur: 2m=50 at
    # p=101 has exponents {1, 100}.
    p, K = 101, 2
    ctx = new_context(p)
    for two_m in range(2, p - 2, 2):
        exps = set(_inverse_powers(ctx, [two_m])[0].tolist())
        stepwise = (p - 1 - len(exps)) + (max(exps) - 1) + (len(exps) - 1)
        eta, count = _count_products(monkeypatch, ctx, K, 3, two_m)
        assert count <= stepwise, two_m
        if two_m == 50:
            assert (stepwise, count) == (198, 109)
            assert eta == oracles.eigen_project_unit(ctx, K, 3, two_m)


# The log route (unit_reports) against the bucket route: verify_unit_relation
# on eigen_project_unit's eta.  eta mod p^K is eta mod p^5 truncated, since
# reduction is a ring map, so one projection per index serves every K <= 5.


def _bucket_reports(ctx, K, a, two_ms):
    return [
        verify_unit_relation(eigen_project_unit(ctx, K, a, two_m)[0], two_m)
        for two_m in two_ms
    ]


def _log_reports(ctx, K, a, two_ms):
    return [rep for rep, _ in unit_reports(ctx, K, a, two_ms)]


@pytest.mark.parametrize("p", [p for p in range(5, 104) if is_prime(p)])
def test_log_route_matches_bucket_route_every_index(p):
    ctx = new_context(p)
    two_ms = list(range(2, p - 2, 2))
    for a in (2, 3, 5):
        if a > (p - 1) // 2:
            continue
        etas = [eigen_project_unit(ctx, 5, a, two_m)[0] for two_m in two_ms]
        for K in (2, 3, 5):
            expected = [verify_unit_relation(RingElement(ctx, K, eta.coeffs), m) for eta, m in zip(etas, two_ms)]
            got = unit_reports(ctx, K, a, two_ms)
            assert [rep for rep, _ in got] == expected, (p, a, K)
            assert [vec.exponents for _, vec in got] == [
                tuple(row) for row in _inverse_powers(ctx, two_ms).tolist()
            ]


def test_log_route_matches_bucket_route_p257():
    # a = 2 has order 16 mod 257, so every multiple of 16 is an index where
    # eta = +-1; 164 is the irregular pair.  Together they are the 16 local
    # p-th powers of --all.
    ctx = new_context(257)
    local = [164] + list(range(16, 255, 16))
    others = seeded(257).sample([m for m in range(2, 255, 2) if m not in local], 8)
    two_ms = sorted(local + others)
    got = _log_reports(ctx, 2, 2, two_ms)
    assert got == _bucket_reports(ctx, 2, 2, two_ms)
    assert [r.two_m for r in got if r.local_pth_power] == sorted(local)
    assert sum(r.local_pth_power for r in _log_reports(ctx, 2, 2, list(range(2, 255, 2)))) == 16


@pytest.mark.parametrize("p, two_m", [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24)])
def test_irregular_pairs_read_local_pth_powers(p, two_m):
    ctx = new_context(p)
    for K in (2, 4):
        (rep,) = _log_reports(ctx, K, 2, [two_m])
        assert rep.local_pth_power and rep.relation_holds
        assert [rep] == _bucket_reports(ctx, K, 2, [two_m])


@pytest.mark.parametrize("p", (5, 7, 11))
def test_log_at_high_K(p):
    """K from p-1 to 3p: the argument reduction takes r > 1 and the series
    terms with p | n, against the plain series and the bucket route."""
    ctx = new_context(p)
    two_ms = list(range(2, p - 2, 2))
    exps = _inverse_powers(ctx, two_ms)
    for K in range(p - 1, 3 * p + 1):
        for a in range(2, (p - 1) // 2 + 1):
            assert _unit_log(ctx, K, a) == oracles.unit_log(ctx, K, a), (K, a)
            expected = _bucket_reports(ctx, K, a, two_ms)
            assert _log_reports(ctx, K, a, two_ms) == expected, (K, a)
            full, _ = _read_normal(ctx, _unit_logs(ctx, K, _unit_log(ctx, K, a), exps), K)
            assert full == [r.valuation_of_eta_pm1 for r in expected], (K, a)


def test_log_at_the_bundle_K_limit():
    for p, K, a, two_m in ((5, 4096, 2, 2), (7, 2730, 3, 4)):
        ctx = new_context(p)
        exps = _inverse_powers(ctx, [two_m])
        expected = _bucket_reports(ctx, K, a, [two_m])
        assert _log_reports(ctx, K, a, [two_m]) == expected
        (v,), _ = _read_normal(ctx, _unit_logs(ctx, K, _unit_log(ctx, K, a), exps), K)
        assert v == expected[0].valuation_of_eta_pm1 == two_m


def test_indices_that_read_zero_mod_p2_take_the_full_K():
    # Where a^(2m) = 1 mod p, eta = +-1 and the report is CAP at every K with
    # no logarithm taken; every other index that reads 0 mod p^2 (forced
    # here by zero rows) is measured again at the full K.
    p, K, a = 13, 3, 3
    ctx = new_context(p)
    two_ms = list(range(2, p - 2, 2))
    exps = _inverse_powers(ctx, two_ms)
    expected = [r.valuation_of_eta_pm1 for r in _bucket_reports(ctx, K, a, two_ms)]
    assert [v for m, v in zip(two_ms, expected) if pow(a, m, p) == 1] == [CAP]
    zeros = np.zeros((len(two_ms), p - 1), dtype=np.int64)
    at_p2, _ = _read_normal(ctx, zeros, 2)
    assert at_p2 == [CAP] * len(two_ms)
    assert _log_valuations(ctx, K, a, two_ms, exps, at_p2) == expected
    assert _log_valuations(ctx, 2, a, two_ms, exps, at_p2) == at_p2


def test_unit_reports_checks_before_any_work():
    ctx = new_context(7)
    with pytest.raises(ValueError, match=r"unit index must lie in \[2, 3\], got 9"):
        unit_reports(ctx, 2, 9, [])
    with pytest.raises(ValueError, match="even"):
        unit_reports(ctx, 2, 2, [2, 3])
    with pytest.raises(ValueError, match="needs depth 8; K=1 caps at 6"):
        unit_reports(ctx, 1, 2, [2])
    assert unit_reports(ctx, 2, 2, []) == []
