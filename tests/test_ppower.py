"""The p-th power campaign in lockstep against its per-trial oracle.

check_ppower_congruence draws every trial's residues mod p^2 in the
per-trial order, whatever K is, then raises a block of rows [x; y] to the
p-th power by one square-and-multiply chain over stacked products and
reads all valuations with one padic._lam_read at K=2.  These tests compare
it, trial by trial, with the loop over RingElement at the full K that it
replaced (tests/oracles.py), on the same draws, on both of its product
routes, at K whose full modulus takes every route in the oracle, across
block boundaries and at the sweep workload's settings; check that its
products run mod p^2; force the failure branch, which no real trial
reaches; and bound its memory and time.
"""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pisingular import CAP, check_ppower_congruence, cli, new_context
from pisingular import verifier
from pisingular.ring import _route

import oracles


def _record(monkeypatch, override=None):
    """Wrap the campaign's valuation reader: the returned list collects the
    valuations of every trial, and blocks the rows per call.  override maps
    trial indices to the valuation they should read instead."""
    real = verifier._lam_read
    seen, blocks = [], []

    def read(p, K, rows):
        vals = real(p, K, rows)
        start = len(seen)
        vals = [override.get(start + i, v) if override else v for i, v in enumerate(vals)]
        seen.extend(vals)
        blocks.append(len(vals))
        return vals

    monkeypatch.setattr(verifier, "_lam_read", read)
    return seen, blocks


def _expected_report(p, K, trials, seed, vals) -> dict:
    failures = [
        {"trial": t, "valuation": "cap" if v is CAP else v}
        for t, v in enumerate(vals)
        if not v >= p + 1
    ]
    return {
        "overall": not failures,
        "claims": [
            {
                "id": "pth-power-congruence",
                "ref": "v(x) = 0 and x = y mod lam imply v(x^p - y^p) >= p+1",
                "holds": not failures,
                "data": {"p": p, "K": K, "trials": trials, "seed": seed, "failures": failures},
            }
        ],
    }


def _block(p: int) -> int:
    return verifier._BLOCK_BYTES // (32 * p)


SETTINGS = (
    [(p, K, 12, 100 * p + K) for p in (3, 5, 7, 23, 37, 79, 83, 101) for K in (2, 3)]
    + [
        # wide K, to show that the report does not depend on K
        (79, 4, 12, 1),  # the largest K on int64 at p=79
        (5, 14, 12, 2),  # object dtype at the full modulus
        (103, 5, 3, 3),  # object dtype at the full modulus
        (2039, 2, 2, 4),  # int64 past the float bound
        (101, 2, _block(101), 5),  # ends on a block boundary
        (101, 2, _block(101) + 1, 6),  # one trial past it
        # the sweep workload's three ppower ops at its seed 1
        (7, 2, 400, 418668),
        (23, 2, 150, 112929),
        (37, 2, 60, 420461),
    ]
)


@pytest.mark.parametrize("p, K, trials, seed", SETTINGS)
def test_lockstep_matches_per_trial_oracle(monkeypatch, p, K, trials, seed):
    ctx = new_context(p)
    seen, blocks = _record(monkeypatch)
    rep = check_ppower_congruence(ctx, K=K, trials=trials, seed=seed)
    want = oracles.ppower_valuations(ctx, K, trials, seed)
    # the campaign reads at K=2, where valuations from 2(p-1) on read CAP;
    # the report, against the full-K oracle, is the same at every K
    assert seen == [v if v < 2 * (p - 1) else CAP for v in want]
    assert rep.to_json_dict() == _expected_report(p, K, trials, seed, want)
    assert blocks == [min(_block(p), trials - s) for s in range(0, trials, _block(p))]


def test_settings_cover_every_route():
    # the campaign draws and computes mod p^2 at every K, so its route is
    # _route(p^2, p); the oracle computes at the full moduli p^K, which take
    # every route
    assert {_route(p * p, p) for p, _, _, _ in SETTINGS} == {"int64", "float"}
    assert {_route(p**K, p) for p, K, _, _ in SETTINGS} == {"int64", "float", "object"}
    assert _route(2039**2, 2039) == "int64" and _route(79**4, 79) == "int64"
    assert _route(79**5, 79) == "object"


@pytest.mark.parametrize("p, K", [(5, 14), (7, 3), (103, 5)])
def test_products_run_mod_p_squared(monkeypatch, p, K):
    # 5^14 and 103^5 are object dtype at the full modulus, 7^3 is int64
    real, seen = verifier._fold_mul, []

    def spy(a, b, p, modulus):
        seen.append((modulus, a.dtype, b.dtype))
        return real(a, b, p, modulus)

    monkeypatch.setattr(verifier, "_fold_mul", spy)
    check_ppower_congruence(new_context(p), K=K, trials=3, seed=1)
    assert set(seen) == {(p * p, np.dtype(np.int64), np.dtype(np.int64))}


@pytest.mark.parametrize(
    "p, K", [(3, 1), (7, 1), (7, 2), (23, 2), (37, 3), (5, 14), (103, 5), (2039, 6)]
)
def test_residue_draws_are_randranges(p, K):
    # the campaign draws by randrange's own rejection loop on getrandbits;
    # 5^14 and 103^5 take the object route, 2039^6 is past 64 bits
    m = p**K
    assert _route(5**14, 5) == _route(103**5, 103) == "object"
    for seed in (1, 2, 99):
        rng, ref = random.Random(seed), random.Random(seed)
        assert verifier._draw_residues(rng, m, 3 * p) == [ref.randrange(m) for _ in range(3 * p)]
        assert rng.getstate() == ref.getstate()


def test_failures_list_the_low_trials_in_order(monkeypatch):
    # No trial really fails.  Trials read p (one short of p+1) or CAP on
    # both sides of the block boundary at p=101; CAP never fails.
    p, trials = 101, _block(101) + 9
    low = [2, _block(p) - 1, _block(p), trials - 1]
    capped = [0, 5, _block(p) + 1]
    seen, blocks = _record(
        monkeypatch, {**{t: p for t in low}, **{t: CAP for t in capped}}
    )
    rep = check_ppower_congruence(new_context(p), K=2, trials=trials, seed=7)
    assert len(blocks) == 2
    assert not rep.overall
    assert rep.claims[0].data["failures"] == [{"trial": t, "valuation": p} for t in low]
    assert rep.to_json_dict() == _expected_report(p, 2, trials, 7, seen)


def test_cli_reports_failures(monkeypatch, capsys):
    _record(monkeypatch, {3: 5, 4: CAP})
    argv = ["ppower", "--p", "5", "--trials", "10", "--seed", "1"]
    assert cli.main(argv + ["--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is False
    assert doc["claims"][0]["data"]["failures"] == [{"trial": 3, "valuation": 5}]
    monkeypatch.undo()
    _record(monkeypatch, {3: 5, 4: CAP})
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "congruence claim: FAIL" in out
    assert "failures: [{'trial': 3, 'valuation': 5}]" in out


def test_memory_stays_within_the_block_budget():
    # 64 trials at p=1031 in one block would hold 64 * 2 * 1030 drawn Python
    # ints (about 4.7 MB) and stacks of 128 rows; blocks of _block(p) trials
    # keep the peak near 1.3 MB.  The first call builds the cached tables.
    ctx = new_context(1031)
    check_ppower_congruence(ctx, K=2, trials=1, seed=1)
    tracemalloc.start()
    try:
        assert check_ppower_congruence(ctx, K=2, trials=64, seed=2).overall
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_trial_cap_at_p7_runs_in_seconds():
    # 0.35 s from a fresh process on a shared 2-CPU host; one trial at a
    # time took 1.3 s.
    src = str(Path(__file__).resolve().parent.parent / "src")
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "pisingular", "ppower", "--p", "7", "--trials", "10000"],
        capture_output=True,
        text=True,
        env={**{k: v for k, v in os.environ.items() if k != "PI_SINGULAR_SEED"}, "PYTHONPATH": src},
    )
    assert r.returncode == 0, r.stderr
    assert "congruence claim: PASS" in r.stdout
    assert time.perf_counter() - t0 < 5
