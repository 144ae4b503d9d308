"""Acceptance gate: the nine shipped guarantees, one printed line each.

Run with `pytest tests/test_acceptance.py` (the suite enables -s so the
per-criterion PASS/FAIL lines and timings reach the terminal).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from pisingular import (
    CandidateBundle,
    ExactElement,
    PreconditionError,
    WitnessInvalidError,
    bundle_to_json,
    canonical_eigenvector,
    check_ppower_congruence,
    digits,
    eigen_project_unit,
    eigenvector_element,
    expansion_matches,
    new_context,
    synthetic_unit_bundle,
    verify_b_prime,
    verify_positive_candidate,
    verify_unit_relation,
)

import oracles
from conftest import bernoulli_fraction_table

SWEEP_PRIMES = (
    5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
UNIT_PRIMES = (5, 7, 11, 13, 31, 37)

_cache = {}


def finish(n, desc, dt, budget=None):
    ok = budget is None or dt <= budget
    print(f"\n[criterion {n}] {desc}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")
    assert ok, f"criterion {n}: time budget {budget}s exceeded ({dt:.2f}s)"


def fail_line(n, desc, t0):
    print(f"\n[criterion {n}] {desc}: FAIL ({time.perf_counter() - t0:.2f}s)")


def eigen_sweep():
    """One pass over every prime and eigenvalue; criteria 1 and 2 share it."""
    if "eigen" not in _cache:
        t0 = time.perf_counter()
        rows = []
        for p in SWEEP_PRIMES:
            ctx = new_context(p)
            for s in range(1, p - 1):
                mu = ctx.upow[s]
                rep = canonical_eigenvector(ctx, mu)
                dig = digits(eigenvector_element(ctx, 1, mu), p - 1)
                rows.append((p, s, mu, rep, dig))
        _cache["eigen"] = (rows, time.perf_counter() - t0)
    return _cache["eigen"]


def unit_sweep():
    """Projected units for every even index; criteria 5 and 6 share it."""
    if "units" not in _cache:
        t0 = time.perf_counter()
        rows = []
        for p in UNIT_PRIMES:
            ctx = new_context(p)
            for two_m in range(2, p - 2, 2):
                eta, _ = eigen_project_unit(ctx, 2, 2, two_m)
                rows.append((ctx, two_m, eta, verify_unit_relation(eta, two_m)))
        _cache["units"] = (rows, time.perf_counter() - t0)
    return _cache["units"]


def test_criterion_1_eigenspaces_match_closed_form():
    desc = "one-dimensional eigenspaces equal the closed-form vector, p = 5..97"
    rows, dt = eigen_sweep()
    t0 = time.perf_counter()
    try:
        assert len(rows) == sum(p - 2 for p in SWEEP_PRIMES)
        for p, s, mu, rep, _ in rows:
            assert rep.dimension == 1, (p, mu)
            assert rep.matches_closed_form, (p, mu)
            assert rep.index_s == s, (p, mu)
    except BaseException:
        fail_line(1, desc, t0)
        raise
    finish(1, desc, dt, budget=10.0)


def test_criterion_2_eigenvector_valuation_law():
    desc = "digit engine puts each eigenvector's valuation at its log index"
    rows, dt = eigen_sweep()
    t0 = time.perf_counter()
    try:
        for p, s, mu, _, dig in rows:
            assert dig.valuation == s, (p, mu)
            assert dig.digits[s] != 0, (p, mu)
    except BaseException:
        fail_line(2, desc, t0)
        raise
    finish(2, desc, dt, budget=10.0)


def test_criterion_3_power_congruence_campaign():
    desc = "x = y mod lam forces x^p = y^p mod lam^(p+1), 1000 trials per prime"
    t0 = time.perf_counter()
    try:
        for p in (3, 5, 7, 11, 13, 31):
            rep = check_ppower_congruence(new_context(p), K=2, trials=1000, seed=1)
            (claim,) = rep.claims
            assert rep.overall and claim.data["failures"] == [], p
    except BaseException:
        fail_line(3, desc, t0)
        raise
    finish(3, desc, time.perf_counter() - t0, budget=30.0)


def test_criterion_4_recurrence_equivalence():
    desc = "recurrence solutions satisfy the eigen equation and span the vector"
    t0 = time.perf_counter()
    try:
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            ctx = new_context(p)
            for mu in range(2, p):
                for free in (1, 2):
                    V = oracles.recurrence_solve(ctx, mu, free).to_ring_element(ctx)
                    assert V.galois_apply(ctx.u) == V * mu, (p, mu, free)
                    k = oracles.unfold(V.coeff_list())[1] % p
                    assert k != 0, (p, mu, free)
                    assert V == eigenvector_element(ctx, 1, mu) * k, (p, mu, free)
    except BaseException:
        fail_line(4, desc, t0)
        raise
    finish(4, desc, time.perf_counter() - t0)


def test_criterion_5_twisted_relation_and_dichotomy():
    desc = "projected units: twisted power relation and valuation dichotomy"
    rows, dt = unit_sweep()
    t0 = time.perf_counter()
    try:
        for ctx, two_m, _, rep in rows:
            assert rep.relation_holds, (ctx.p, two_m)
            assert rep.local_pth_power or rep.valuation_of_eta_pm1 == two_m, (
                ctx.p,
                two_m,
            )
    except BaseException:
        fail_line(5, desc, t0)
        raise
    finish(5, desc, dt, budget=60.0)


def test_criterion_6_high_index_expansion():
    desc = "high-index non-power units expand along the eigenvector, delta != 0"
    rows, dt = unit_sweep()
    t0 = time.perf_counter()
    try:
        exercised = 0
        for ctx, two_m, eta, rep in rows:
            if two_m <= (ctx.p - 1) // 2 or rep.local_pth_power:
                continue
            exercised += 1
            mu = ctx.upow[two_m]
            matched, delta = expansion_matches(eta ** (ctx.p - 1), mu)
            assert matched, (ctx.p, two_m)
            assert delta is not None and delta % ctx.p != 0, (ctx.p, two_m)
        assert exercised > 0
    except BaseException:
        fail_line(6, desc, t0)
        raise
    finish(6, desc, dt)


def test_criterion_7_irregular_pair_detection():
    desc = "Bernoulli divisibility scan matches the exact-rational oracle"
    t0 = time.perf_counter()
    try:
        def scan(bound):
            out = []
            for p in range(3, bound + 1):
                try:
                    ctx = new_context(p)
                except ValueError:
                    continue
                out += [(p, m) for m in ctx.irregular_pairs()]
            return out

        assert scan(40) == [(37, 32)]
        pairs70 = scan(70)
        assert pairs70 == [(37, 32), (59, 44), (67, 58)]

        table = bernoulli_fraction_table(67 - 3)
        for p in range(3, 71):
            try:
                ctx = new_context(p)
            except ValueError:
                continue
            for two_m in range(2, p - 2, 2):
                frac = table[two_m]
                assert frac.denominator % p != 0, (p, two_m)
                oracle_residue = (
                    frac.numerator * pow(frac.denominator, -1, p)
                ) % p
                assert ctx.bernoulli_mod_p(two_m) == oracle_residue, (p, two_m)
                assert ((p, two_m) in pairs70) == (oracle_residue == 0)
    except BaseException:
        fail_line(7, desc, t0)
        raise
    finish(7, desc, time.perf_counter() - t0, budget=5.0)


def test_criterion_8_verifier_corruption_detection():
    desc = "100 synthetic bundles pass; 100 corruptions caught; outcomes typed"
    t0 = time.perf_counter()
    try:
        bundles = []
        for p in (7, 11, 13):
            ctx = new_context(p)
            for a in range(2, min((p - 1) // 2, 4) + 1):
                for two_m in range(2, p - 2, 2):
                    for k, c in ((1, 1), (1, 2), (2, 1), (2, 2)):
                        bundles.append(
                            synthetic_unit_bundle(ctx, a, two_m, k=k, c=c)
                        )
        bundles = bundles[:100]
        assert len(bundles) == 100
        for b in bundles:
            assert verify_positive_candidate(b).overall, b.label

        for i, b in enumerate(bundles):
            coeffs = list(b.B.coeffs)
            coeffs[i % len(coeffs)] += 1 + (i % 3)
            corrupt = CandidateBundle(
                ctx=b.ctx, K=b.K, parity=b.parity, mu=b.mu,
                B=ExactElement(b.ctx.p, coeffs),
            )
            rep = verify_positive_candidate(corrupt)
            assert not rep.overall, (i, b.label)
            assert any(c.holds is False for c in rep.claims), (i, b.label)

        # the three outcome kinds are distinguishable events
        ctx7 = new_context(7)
        assert verify_positive_candidate(
            CandidateBundle(
                ctx=ctx7, K=2, parity="positive", mu=2,
                B=ExactElement.from_integer(7, 3),
            )
        ).overall is False  # theorem violation: report, no exception
        one = ExactElement.from_integer(7, 1)
        try:
            verify_b_prime(
                CandidateBundle(
                    ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3],
                    B=one, eta=one + ExactElement.from_integer(7, 7), beta=one,
                )
            )
            raise AssertionError("witness corruption not detected")
        except WitnessInvalidError:
            pass
        try:
            verify_positive_candidate(
                CandidateBundle(ctx=ctx7, K=1, parity="positive", mu=2, B=one)
            )
            raise AssertionError("precondition violation not detected")
        except PreconditionError:
            pass
    except BaseException:
        fail_line(8, desc, t0)
        raise
    finish(8, desc, time.perf_counter() - t0, budget=60.0)


def test_criterion_9_cli_determinism(tmp_path):
    desc = "every CLI sweep is byte-identical across reruns at fixed seed"
    t0 = time.perf_counter()
    try:
        bundle = tmp_path / "bundle.json"
        bundle.write_text(
            json.dumps(bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2)))
        )
        sweeps = [
            ("ctx", "--p", "13"),
            ("irregular", "--max", "40"),
            ("eigen", "--p", "13", "--all"),
            ("expand", "--p", "7", "--coeffs", "7,0,0,0,0,0"),
            ("ppower", "--p", "5", "--trials", "200", "--seed", "1"),
            ("units", "--p", "11", "--all"),
            ("verify", "--file", str(bundle)),
        ]
        env = {k: v for k, v in os.environ.items() if k != "PI_SINGULAR_SEED"}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for args in sweeps:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "pisingular", *args, "--json"],
                    capture_output=True,
                    env=env,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, args
            assert runs[0].stdout == runs[1].stdout, args
            json.loads(runs[0].stdout)
    except BaseException:
        fail_line(9, desc, t0)
        raise
    finish(9, desc, time.perf_counter() - t0)
