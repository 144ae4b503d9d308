"""End-to-end command-line checks through subprocess."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pisingular import (
    CandidateBundle,
    ExactElement,
    bundle_to_json,
    eigen_project_unit,
    eigen_project_unit_exact,
    new_context,
    synthetic_unit_bundle,
    verify_unit_relation,
)
from pisingular import cli
from pisingular.verifier import _COEFF_MAX_DIGITS

from conftest import seeded


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "PI_SINGULAR_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pisingular", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_json(*args, env_extra=None):
    r = run_cli(*args, "--json", env_extra=env_extra)
    return r.returncode, json.loads(r.stdout)


def test_ctx_json():
    code, doc = run_json("ctx", "--p", "7")
    assert code == 0
    assert doc["p"] == 7 and doc["u"] == 3 and doc["half"] == 3
    assert doc["upow"] == [1, 3, 2, 6, 4, 5]
    assert doc["uindex"] == [None, 0, 2, 1, 4, 5, 3]
    assert doc["irregular_pairs"] == []


def test_ctx_text_mentions_tables():
    r = run_cli("ctx", "--p", "37")
    assert r.returncode == 0
    assert "p = 37" in r.stdout
    assert "irregular pairs: 32" in r.stdout


def test_ctx_explicit_primitive_root():
    code, doc = run_json("ctx", "--p", "7", "--u", "5")
    assert code == 0 and doc["u"] == 5
    r = run_cli("ctx", "--p", "7", "--u", "2")
    assert r.returncode == 2
    assert "primitive root" in r.stderr


def test_irregular_scan():
    code, doc = run_json("irregular", "--max", "40")
    assert code == 0
    assert doc["pairs"] == [[37, 32]]
    assert doc["primes_scanned"][0] == 3 and doc["primes_scanned"][-1] == 37


def test_eigen_all():
    code, doc = run_json("eigen", "--p", "5", "--all")
    assert code == 0
    reports = doc["reports"]
    assert [r["mu"] for r in reports] == [2, 3, 4]
    assert all(r["dimension"] == 1 and r["matches_closed_form"] for r in reports)
    assert reports[0]["vector"] == [1, 3, 2, 4]


def test_eigen_single_mu():
    code, doc = run_json("eigen", "--p", "13", "--mu", "4")
    assert code == 0
    (rep,) = doc["reports"]
    assert rep["valuation"] == rep["index_s"]


def test_eigen_requires_mu_or_all():
    r = run_cli("eigen", "--p", "5")
    assert r.returncode == 2
    r = run_cli("eigen", "--p", "5", "--mu", "2", "--all")
    assert r.returncode == 2


def test_eigen_rejects_trivial_mu():
    r = run_cli("eigen", "--p", "5", "--mu", "1")
    assert r.returncode == 2
    assert "2..p-1" in r.stderr


def test_expand_default_precision():
    code, doc = run_json("expand", "--p", "5", "--coeffs", "5,0,0,0")
    assert code == 0
    assert doc == {"digits": [0, 0, 0, 0, 4, 2], "precision": 6, "valuation": 4}


def test_expand_explicit_precision_text():
    r = run_cli("expand", "--p", "5", "--coeffs", "5,0,0,0", "--precision", "5")
    assert r.returncode == 0
    assert "valuation: 4" in r.stdout
    assert "digits: 0 0 0 0 4" in r.stdout


def test_expand_zero_reports_cap():
    code, doc = run_json("expand", "--p", "5", "--coeffs", "0,0,0,0")
    assert code == 0
    assert doc["valuation"] == "cap"


def test_expand_usage_errors():
    r = run_cli("expand", "--p", "5", "--coeffs", "1,2,3")
    assert r.returncode == 2 and "4 comma-separated" in r.stderr
    # int() also reads "1_0" as 10 and the Arabic-Indic digit three as 3
    for coeffs in ("1,2,3,x", "1_0,0,0,3", "1,0,0,\u0663"):
        r = run_cli("expand", "--p", "5", "--coeffs", coeffs)
        assert r.returncode == 2 and "decimal integers" in r.stderr, coeffs
        assert r.stdout == "", coeffs


def test_expand_names_the_bad_entry_and_cuts_its_echo():
    # one entry over the digit limit: the limit is the reason, not the format
    big = "9" * 50_000
    r = run_cli("expand", "--p", "7", "--coeffs", f"1,2,{big},4,5,6")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: --coeffs entry 2: a decimal integer of 50000 digits")
    assert f"over the limit of {_COEFF_MAX_DIGITS} digits" in r.stderr
    assert len(r.stderr) < 200
    # a long entry that is not a decimal integer: named, echoed cut to 40 characters
    r = run_cli("expand", "--p", "7", "--coeffs", "1,2,3,4,5," + "9" * 5_000 + "x")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: --coeffs entries must be decimal integers; entry 5 is not:")
    assert "(5003 characters)" in r.stderr
    assert len(r.stderr) < 200


def test_ppower_pass_and_seed_echo():
    code, doc = run_json("ppower", "--p", "5", "--trials", "50", "--seed", "7")
    assert code == 0
    assert doc["overall"] is True
    claim = doc["claims"][0]
    assert claim["data"]["seed"] == 7
    assert claim["data"]["trials"] == 50


def test_ppower_seed_from_environment():
    code, doc = run_json(
        "ppower", "--p", "5", "--trials", "10",
        env_extra={"PI_SINGULAR_SEED": "9"},
    )
    assert code == 0
    assert doc["claims"][0]["data"]["seed"] == 9
    # explicit flag wins over the environment
    code, doc = run_json(
        "ppower", "--p", "5", "--trials", "10", "--seed", "3",
        env_extra={"PI_SINGULAR_SEED": "9"},
    )
    assert doc["claims"][0]["data"]["seed"] == 3


def test_ppower_bad_environment_seed():
    r = run_cli(
        "ppower", "--p", "5", "--trials", "10",
        env_extra={"PI_SINGULAR_SEED": "ten"},
    )
    assert r.returncode == 2
    assert "PI_SINGULAR_SEED" in r.stderr


def test_ppower_depth_error():
    r = run_cli("ppower", "--p", "5", "--K", "1", "--trials", "10")
    assert r.returncode == 2
    assert "needs depth" in r.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_ppower_needs_a_trial(trials):
    r = run_cli("ppower", "--p", "5", "--trials", trials)
    assert r.returncode == 2
    assert "at least one trial" in r.stderr
    assert r.stdout == ""


def test_units_all():
    code, doc = run_json("units", "--p", "7", "--all")
    assert code == 0
    assert [r["two_m"] for r in doc["reports"]] == [2, 4]
    for rep in doc["reports"]:
        assert rep["relation_holds"] and rep["dichotomy_holds"]
    assert doc["reports"][0]["exponents"] == [1, 4, 2, 1, 4, 2]


def test_units_single_index():
    code, doc = run_json("units", "--p", "7", "--a", "3", "--two-m", "4")
    assert code == 0
    (rep,) = doc["reports"]
    assert rep["valuation_of_eta_pm1"] == 4
    assert rep["expansion_delta"] == 4


def test_units_usage_errors():
    r = run_cli("units", "--p", "7")
    assert r.returncode == 2
    r = run_cli("units", "--p", "7", "--two-m", "3")
    assert r.returncode == 2 and "even" in r.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        # --all at p=3 yields no index; the unit index is refused all the same
        (("--p", "3", "--a", "99", "--all"), "unit index must lie in [2, 1], got 99"),
        (("--p", "3", "--a", "2", "--all"), "unit index must lie in [2, 1], got 2"),
        (("--p", "7", "--a", "99", "--all"), "unit index must lie in [2, 3], got 99"),
        (("--p", "7", "--a", "99", "--two-m", "3"), "unit index must lie in [2, 3], got 99"),
        (("--p", "7", "--two-m", "8"), "projection index must be even in [2, 4], got 8"),
        (("--p", "7", "--K", "1", "--all"), "verification needs depth 8; K=1 caps at 6"),
    ],
)
def test_units_refuses_bad_indices_before_any_work(args, message):
    r = run_cli("units", *args)
    assert r.returncode == 2
    assert r.stderr == f"error: {message}\n"
    assert r.stdout == ""


def _bucket_route_json(p: int, a: int, K: int, two_ms) -> str:
    """units --json stdout as the projected-unit route built it."""
    ctx = new_context(p)
    docs = []
    for two_m in two_ms:
        eta, vec = eigen_project_unit(ctx, K, a, two_m)
        doc = verify_unit_relation(eta, two_m).to_json_dict()
        doc["exponents"] = list(vec.exponents)
        docs.append(doc)
    payload = {"p": p, "a": a, "K": K, "reports": docs}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_units_json_bytes_match_the_bucket_route():
    rng = seeded(67)
    for p in (37, 59, 67):  # the sweep benchmark's --all calls
        a = rng.randrange(2, (p - 1) // 2 + 1)
        r = run_cli("units", "--p", str(p), "--a", str(a), "--all", "--json")
        assert r.returncode == 0
        assert r.stdout == _bucket_route_json(p, a, 2, range(2, p - 2, 2)), (p, a)
    for p, K in ((101, 4), (103, 4), (257, 2)):  # the deep benchmark's settings
        two_m = rng.randrange(2, p - 2, 2)
        r = run_cli("units", "--p", str(p), "--K", str(K), "--two-m", str(two_m), "--json")
        assert r.returncode == 0
        assert r.stdout == _bucket_route_json(p, 2, K, [two_m]), (p, two_m)


def test_units_all_p257_within_budget():
    # The bucket route took about 3.2 s in process; the log route, 0.06 s.
    start = time.perf_counter()
    code, doc = run_json("units", "--p", "257", "--all")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert len(doc["reports"]) == 127
    assert elapsed < 3, f"units --p 257 --all took {elapsed:.1f}s"


def write_bundle(tmp_path, doc, name="bundle.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_positive_pass(tmp_path):
    doc = bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2, k=2, c=3))
    path = write_bundle(tmp_path, doc)
    r = run_cli("verify", "--file", path)
    assert r.returncode == 0
    assert "overall: PASS" in r.stdout
    code, payload = run_json("verify", "--file", path)
    assert code == 0 and payload["overall"] is True


def test_verify_corrupted_bundle_fails(tmp_path):
    doc = bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2))
    doc["B"][0] = str(int(doc["B"][0]) + 1)
    path = write_bundle(tmp_path, doc)
    r = run_cli("verify", "--file", path)
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_verify_witness_bundle(tmp_path):
    ctx = new_context(7)
    W = eigen_project_unit_exact(ctx, 2, 2)
    b = CandidateBundle(
        ctx=ctx, K=2, parity="negative", mu=ctx.upow[3],
        B=W * 2**7, eta=W * W, beta=ExactElement.from_integer(7, 4),
    )
    doc = bundle_to_json(b)
    path = write_bundle(tmp_path, doc)
    code, payload = run_json("verify", "--file", path)
    assert code == 0
    ids = [c["id"] for c in payload["claims"]]
    assert "witness-product" in ids and "twist-local-pth-power" in ids

    doc["eta"][0] = str(int(doc["eta"][0]) + 7)
    bad = write_bundle(tmp_path, doc, "bad.json")
    r = run_cli("verify", "--file", bad)
    assert r.returncode == 3
    assert "witness invalid" in r.stderr


def test_verify_structural_errors(tmp_path):
    r = run_cli("verify", "--file", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    doc = bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2))
    doc["K"] = 1
    path = write_bundle(tmp_path, doc, "shallow.json")
    r = run_cli("verify", "--file", path)
    assert r.returncode == 2
    assert "K >= 2" in r.stderr


def test_verify_p101_norm(tmp_path):
    # N(eta^k * c^p) = c^(p(p-1)) for a unit eta: at c=2 the p-th root is 2^(p-1).
    doc = bundle_to_json(synthetic_unit_bundle(new_context(101), a=2, two_m=4, c=2))
    path = write_bundle(tmp_path, doc)
    start = time.perf_counter()
    code, payload = run_json("verify", "--file", path)
    elapsed = time.perf_counter() - start
    assert code == 0 and payload["overall"] is True
    norm = next(c for c in payload["claims"] if c["id"] == "norm-shape")
    assert norm["holds"] is True
    assert norm["data"]["root"] == str(2**100)
    assert elapsed < 15, f"verify at p=101 took {elapsed:.1f}s"


def test_verify_norm_over_limit_exits_2(tmp_path):
    # At p=257 the norm bound of the constant 2^4000 needs 1024000 bits,
    # past the limit; the refusal comes before any residue is computed.
    ctx = new_context(257)
    B = ExactElement.from_integer(257, 2**4000)
    doc = bundle_to_json(
        CandidateBundle(ctx=ctx, K=2, parity="positive", mu=ctx.upow[4], B=B)
    )
    path = write_bundle(tmp_path, doc)
    start = time.perf_counter()
    r = run_cli("verify", "--json", "--file", path)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2
    assert r.stderr.startswith("error: norm_exact:") and "limit" in r.stderr
    assert r.stdout == ""
    assert elapsed < 2, f"refusal took {elapsed:.1f}s"


def test_verify_p_past_the_limit_exits_2(tmp_path):
    # Refused at load time (exit 2), before any table of size p^2 is built.
    p = 1000003
    doc = {"p": p, "K": 2, "parity": "positive", "mu": 4, "B": ["1"] * (p - 1)}
    path = write_bundle(tmp_path, doc)
    start = time.perf_counter()
    r = run_cli("verify", "--json", "--file", path)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2
    assert r.stderr.startswith("error: bundle field 'p': must be below 2049")
    assert r.stdout == ""
    assert elapsed < 2, f"refusal took {elapsed:.1f}s"


def test_verify_refuses_a_witness_power_past_the_cap(tmp_path):
    # p=37, B = eta = 1 and a random beta of 2^13-bit coefficients: beta^37
    # alone took seconds before the cap; now the load refuses it.
    rng = seeded(37)
    one = ["1"] + ["0"] * 35
    beta = [str(rng.getrandbits(2**13)) for _ in range(36)]
    ctx = new_context(37)
    doc = {"p": 37, "K": 2, "parity": "negative", "mu": ctx.upow[3], "B": one, "eta": one,
           "beta": beta}
    path = write_bundle(tmp_path, doc)
    start = time.perf_counter()
    r = run_cli("verify", "--json", "--file", path)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2
    assert r.stderr.startswith("error: bundle field 'beta': beta^p may need about ")
    assert "over the limit of 4194304 bits" in r.stderr
    assert r.stdout == ""
    assert elapsed < 2, f"refusal took {elapsed:.1f}s"


def test_verify_refuses_unknown_fields(tmp_path):
    # Broken witnesses under "Eta"/"Beta" were ignored, and the bundle passed.
    ctx = new_context(29)
    one = ExactElement.from_integer(29, 1)
    doc = bundle_to_json(CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=one))
    assert run_cli("verify", "--file", write_bundle(tmp_path, doc)).returncode == 0
    broken = {"eta": [str(c) for c in (one + one).coeffs], "beta": doc["B"]}
    r = run_cli("verify", "--file", write_bundle(tmp_path, dict(doc, **broken), "lower.json"))
    assert r.returncode == 3
    renamed = dict(doc, Eta=broken["eta"], Beta=broken["beta"])
    r = run_cli("verify", "--file", write_bundle(tmp_path, renamed, "upper.json"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: bundle field 'Eta': unknown; a bundle has only the fields")
    assert r.stdout == ""


@pytest.mark.parametrize("K, code", [(744, 0), (745, 2), (5000, 2), (20000, 2)])
def test_verify_precision_limit(tmp_path, K, code):
    # K*(p-1) <= 2^14: at p=23, K=744 verifies and K=745 is refused at load
    # time.  Unrefused, K=5000 took about 5 s and K=20000 over 40 s.
    doc = bundle_to_json(synthetic_unit_bundle(new_context(23), a=3, two_m=4, c=3))
    path = write_bundle(tmp_path, dict(doc, K=K))
    start = time.perf_counter()
    r = run_cli("verify", "--json", "--file", path)
    elapsed = time.perf_counter() - start
    assert r.returncode == code, r.stderr
    if code == 2:
        assert r.stderr.startswith("error: bundle field 'K': must be at most 744 at p=23")
        assert r.stdout == ""
    assert elapsed < 10, f"verify at K={K} took {elapsed:.1f}s"


@pytest.mark.parametrize(
    "args, message",
    [
        (("ctx", "--p", "20011"), "--p must be below 2049"),
        (("eigen", "--p", "20011", "--mu", "2"), "--p must be below 2049"),
        (("irregular", "--max", "100000"), "--max must be below 2049"),
        (("irregular", "--max", "2049"), "--max must be below 2049"),
        (("ppower", "--p", "7", "--K", "100000"), "--K must be at most 2730 at p=7, so that K*(p-1) <= 16384"),
        (("ppower", "--p", "7", "--K", "2731", "--trials", "1"), "--K must be at most 2730"),
        (("ppower", "--p", "7", "--trials", "1000000000"), "check takes at most 10000 trials"),
        (("ppower", "--p", "7", "--trials", "10001"), "check takes at most 10000 trials"),
        (("units", "--p", "13", "--two-m", "2", "--K", "1366"), "--K must be at most 1365 at p=13"),
        (("expand", "--p", "5", "--coeffs", "1,2,3,4", "--K", "4097"), "--K must be at most 4096 at p=5"),
        (("ctx", "--p", "2053"), "--p must be below 2049, the limit of bundles and of the exact norm, got 2053"),
    ],
)
def test_size_limits_exit_2_at_once(args, message):
    # Unrefused, ctx and eigen at p=20011 and irregular --max 100000 ran
    # past 10 s; ppower would run for its whole trial count.
    start = time.perf_counter()
    r = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {message}"), r.stderr
    assert r.stdout == ""
    assert elapsed < 2, f"refusal took {elapsed:.1f}s"


def test_size_limits_admit_their_edge():
    assert run_cli("ctx", "--p", "2039").returncode == 0  # the largest prime below 2049
    assert run_cli("ppower", "--p", "7", "--K", "2730", "--trials", "1").returncode == 0
    assert run_cli("ppower", "--p", "3", "--trials", "10000").returncode == 0
    r = run_cli("expand", "--p", "5", "--coeffs", "1,2,3,4", "--K", "4096", "--precision", "16384")
    assert r.returncode == 0


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("ctx").returncode == 2  # missing --p
    assert run_cli("ctx", "--p", "7", "--bogus").returncode == 2


def _main_in_process(args):
    """(exit code, stdout, stderr) of one cli.main call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as e:  # argparse refusals and --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "args",
    [
        ("ctx", "--p", "1_1"),
        ("ctx", "--p", " ١١"),  # Arabic-Indic digits
        ("ctx", "--p", "1" * 50000),
        ("ctx", "--p", "7", "--u", "3_0"),
        ("irregular", "--max", "4_0"),
        ("eigen", "--p", "7", "--mu", "٣"),
        ("expand", "--p", "5", "--coeffs", "1,2,3,4", "--K", "2_0"),
        ("expand", "--p", "5", "--coeffs", "1,2,3,4", "--precision", "5_0"),
        ("ppower", "--p", "5", "--trials", "1_0"),
        ("ppower", "--p", "5", "--seed", "1_0"),
        ("units", "--p", "7", "--all", "--a", "2_0"),
        ("units", "--p", "7", "--two-m", "2_0"),
    ],
)
def test_every_integer_option_is_strict(args):
    # int() reads "1_1" and " ١١" as 11, and argparse's refusal of a
    # 50000-digit value echoed every digit of it.
    code, out, err = _main_in_process(args)
    assert (code, out) == (2, "")
    assert f"invalid int value: {repr(args[-1])[:40]}" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("value", ["+11", " 11 "])
def test_integer_options_take_a_sign_and_spaces(value):
    assert _main_in_process(("ctx", "--p", value)) == _main_in_process(("ctx", "--p", "11"))


@pytest.mark.parametrize("seed", ["1_0", "٩", "9" * 50000])
def test_environment_seed_is_strict(seed, monkeypatch):
    monkeypatch.setenv("PI_SINGULAR_SEED", seed)
    code, out, err = _main_in_process(("ppower", "--p", "5", "--trials", "10"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: PI_SINGULAR_SEED must be an integer, got {repr(seed)[:40]}")
    assert len(err.encode()) < 300


def test_closed_pipe_exits_141_quietly():
    # eigen --all at p=2039 prints about 110 KB, past the pipe buffer, so
    # its writes after the reader has gone fail (EPIPE), as under `| head -1`.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pisingular", "eigen", "--p", "2039", "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert first.startswith(b"mu=2 (u^")
    assert err == b""


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    # One process runs every subcommand, argparse refusals and --help through
    # main, in order and then in reverse, so each call follows every other;
    # each must give the bytes and exit code of its own fresh process.
    # COLUMNS pins the width argparse wraps help at.
    monkeypatch.delenv("PI_SINGULAR_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    bundle = write_bundle(tmp_path, bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2)))
    calls = [
        ("ctx", "--p", "7"),
        ("nonsense", "--p", "7"),
        ("irregular", "--max", "40", "--json"),
        ("eigen", "--p", "5", "--mu", "2", "--all"),
        ("eigen", "--p", "7", "--mu", "2"),
        ("expand", "--coeffs", "1,2,3,4"),
        ("expand", "--p", "5", "--coeffs", "1,2,3,4", "--json"),
        ("ppower", "--p", "seven"),
        ("ppower", "--p", "7", "--trials", "20"),
        ("units", "--p", "7", "--two-m", "2", "--all"),
        ("units", "--p", "7", "--all", "--json"),
        ("ctx", "--p", "7", "--u", "14"),
        ("verify", "--file", bundle),
        ("--help",),
        ("verify", "--file", bundle, "--json"),
        ("units", "--help"),
        ("eigen", "--p", "7", "--all"),
        (),
        ("ctx", "--p", "7", "--json"),
    ]
    fresh = {}
    for args in calls:
        r = run_cli(*args, env_extra={"COLUMNS": "80"})
        fresh[args] = (r.returncode, r.stdout, r.stderr)
    for args in calls + calls[::-1]:
        assert _main_in_process(args) == fresh[args], args


def test_parser_is_built_lazily_and_once():
    # Importing the CLI builds no parser; twenty main calls build one.
    code = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import pisingular.cli
assert built == [], built
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for n in range(20):
        try:
            pisingular.cli.main(["ctx", "--p", "7"] if n % 2 else ["eigen", "--p", "5", "--all"])
        except SystemExit:
            pass
print(len(built), built[0])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    # the top-level parser and its seven subparsers, once each
    assert r.stdout.split() == ["8", "pisingular"]


def test_json_purity():
    """--json output must be exactly one parseable JSON document."""
    for args in (
        ("ctx", "--p", "5"),
        ("irregular", "--max", "10"),
        ("eigen", "--p", "5", "--all"),
        ("expand", "--p", "5", "--coeffs", "1,2,3,4"),
        ("ppower", "--p", "5", "--trials", "5", "--seed", "1"),
        ("units", "--p", "5", "--all"),
    ):
        r = run_cli(*args, "--json")
        assert r.returncode == 0, args
        json.loads(r.stdout)


@pytest.mark.parametrize(
    "args",
    [
        ("ppower", "--p", "5", "--trials", "100", "--seed", "5"),
        ("eigen", "--p", "13", "--all"),
        ("units", "--p", "11", "--all"),
    ],
)
def test_byte_identical_reruns(args):
    first = run_cli(*args, "--json")
    second = run_cli(*args, "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_units_p257_k4_within_budget():
    # K=4 at p=257 is past the int64 bound of ring products ((p-1) * (p^4-1)^2 >= 2^63).
    start = time.perf_counter()
    code, doc = run_json("units", "--p", "257", "--K", "4", "--two-m", "6")
    elapsed = time.perf_counter() - start
    assert code == 0
    (rep,) = doc["reports"]
    assert rep["relation_holds"] is True and rep["dichotomy_holds"] is True
    assert elapsed < 5, f"units at p=257, K=4 took {elapsed:.1f}s"


def _p7_bundle_with_b0(tmp_path, literal, name):
    doc = bundle_to_json(synthetic_unit_bundle(new_context(7), 2, 2))
    doc["B"] = ["X"] + ["0"] * 5
    path = tmp_path / name
    path.write_text(json.dumps(doc).replace('"X"', literal))
    return str(path)


def test_verify_coefficients_past_4300_digits(tmp_path):
    # Valid decimals of 4000 and 5000 digits, as strings and as a bare JSON
    # literal, are read and verified: the claims decide (exit 1), not the
    # int/str conversion limit.
    for name, literal in (
        ("s4000.json", '"' + "7" * 4000 + '"'),
        ("s5000.json", '"' + "7" * 5000 + '"'),
        ("n5000.json", "7" * 5000),
    ):
        code, payload = run_json("verify", "--file", _p7_bundle_with_b0(tmp_path, literal, name))
        assert code == 1, name
        norm = next(c for c in payload["claims"] if c["id"] == "norm-shape")
        assert norm["data"]["p_free_part_digits"] > 4300, name


def test_verify_malformed_and_oversized_coefficients_exit_2(tmp_path):
    for name, literal, message in (
        ("bad.json", '"' + "7" * 4999 + 'x"', "not a decimal integer"),
        ("underscore.json", '"1_000"', "not a decimal integer"),
        ("arabic.json", '"\\u0663"', "not a decimal integer"),
        ("over.json", '"' + "9" * (_COEFF_MAX_DIGITS + 1) + '"', "over the limit"),
        ("overlit.json", "9" * (_COEFF_MAX_DIGITS + 1), "over the limit"),
    ):
        r = run_cli("verify", "--json", "--file", _p7_bundle_with_b0(tmp_path, literal, name))
        assert r.returncode == 2, name
        assert message in r.stderr and len(r.stderr) < 300, name
        assert r.stdout == "", name
