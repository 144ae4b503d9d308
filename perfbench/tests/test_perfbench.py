"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule ------------------------------------------------------


def test_tail_is_the_eleventh_largest():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.tail_latency(samples) == (90, 90.0)


def test_tail_with_exactly_eleven_samples():
    value, pct = run.tail_latency([5.0] + [9.0] * 10)
    assert value == 5.0
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.tail_latency(list(range(10)))


def test_end_to_end_takes_each_calls_best_pass():
    # 12 calls, 3 passes; pass i slows call n to (n + 1) * (i + 1) ms.
    plain = [{"ops": [{"ns": (n + 1) * (i + 1) * 10**6} for n in range(12)],
              "setup_ns": (3 - i) * 10**8, "rss_kb": 1024} for i in range(3)]
    values, note = run.end_to_end(plain)
    assert values["wall_s"] == pytest.approx(sum(range(1, 13)) / 1e3)
    assert values["op_p50_ms"] == pytest.approx(6.5)
    # fastest 2 of 3 passes per call: 1..12 and 2, 4, .., 24; 11th largest 10
    assert values["op_tail_ms"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["peak_rss_mb"] == 1.0
    assert "of 24 latencies" in note


# -- self time and the derived ratios ----------------------------------------


def span(sid, name, start, end, parent, tag=None):
    return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "op": 0, "tag": tag}


TREE = [
    span(0, "cli.main", 0, 100, None),
    span(1, "padic.digits", 10, 60, 0, tag=4),  # 4 digits requested
    span(2, "padic.valuation", 12, 20, 1),
    span(3, "padic.valuation", 30, 40, 1),
    span(4, "ring.mul", 45, 50, 1, tag=1),  # object dtype
    span(5, "padic.is_primary", 70, 90, 0),
    span(6, "padic.valuation", 72, 75, 5),
    span(7, "ring.mul", 80, 81, 5),
]


def test_self_time_subtracts_children_only():
    # main: 100 - (50 + 20); digits: 50 - (8 + 10 + 5); is_primary: 20 - (3 + 1)
    assert tracer.self_times(TREE) == [30, 27, 8, 10, 5, 16, 3, 1]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span(0, "cli.main", 0, 100, None),
        span(1, "ring.mul", 10, 30, 0),
        span(2, "ring.mul", 20, 40, 0),
        span(3, "ring.mul", 90, 120, 0),
    ]
    assert tracer.self_times(spans)[0] == 100 - 30 - 10


def test_layer_metrics_on_a_synthetic_tree():
    m = tracer.layer_metrics(TREE)
    assert m["padic.valuation.calls"] == 3
    assert m["padic.valuation.self_s"] == pytest.approx(21e-9)
    assert m["ring.mul.calls"] == 2
    assert m["ring.mul_object.calls"] == 1
    assert m["padic.digits.probes_per_digit"] == pytest.approx(2 / 4)
    assert m["padic.pth_power.probes_per_call"] == pytest.approx(1.0)
    assert m["padic.pth_power.self_s"] == pytest.approx(16e-9)
    assert m["padic.self_s"] == pytest.approx((27 + 8 + 10 + 16 + 3) * 1e-9)
    assert m["cli.main.self_s"] == pytest.approx(30e-9)
    assert m["ring.norm_exact.calls"] == 0
    assert m["trace.spans"] == len(TREE)


def test_install_reaches_every_binding_site():
    import pisingular
    import pisingular.cli
    import pisingular.eigen
    import pisingular.padic
    from pisingular import RingElement, from_integer

    original = pisingular.padic.valuation
    recorder = tracer.Recorder()
    uninstall = tracer.install(recorder)
    try:
        for mod in (pisingular, pisingular.padic, pisingular.eigen, pisingular.verifier):
            assert mod.valuation is not original
        ctx = pisingular.new_context(7)
        x = from_integer(ctx, 2, 3) * RingElement(ctx, 2, [1, 2, 0, 0, 0, 0])
        pisingular.valuation(x)
    finally:
        uninstall()
    assert pisingular.eigen.valuation is original
    names = [s[0] for s in recorder.spans]
    assert names.count("ring.mul") == 1
    assert names.count("padic.valuation") == 1
    assert "context.new_context" in names


# -- output checks ------------------------------------------------------------


def test_expected_failure_codes_count_as_success():
    ops = [{"argv": ["verify"], "expect": 1}, {"argv": ["verify"], "expect": 3}]
    results = [
        {"code": 1, "sha256": "a", "error": None},
        {"code": 3, "sha256": "b", "error": None},
    ]
    assert run.check_pass(ops, results, ["a", "b"]) == []


def test_wrong_code_digest_digits_or_exception_fail():
    ops = [
        {"argv": ["verify"], "expect": 0},
        {"argv": ["verify"], "expect": 0},
        {"argv": ["expand"], "expect": 0, "digits": [1, 2]},
        {"argv": ["eigen"], "expect": 0},
    ]
    results = [
        {"code": 1, "sha256": "a", "error": None},
        {"code": 0, "sha256": "x", "error": None},
        {"code": 0, "sha256": "c", "error": None, "stdout": '{"digits": [1, 3]}'},
        {"code": None, "sha256": "d", "error": "KeyError: 1"},
    ]
    failures = run.check_pass(ops, results, ["a", "b", "c", "d"])
    assert len(failures) == 4


# -- whole runs ---------------------------------------------------------------


def bench(workload, *args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    result = bench(workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 11
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = (bench(workload, "--seed", "4", "--trace", "1") for _ in range(2))
    assert first["correct"] and second["correct"]
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == wanted
    counts = [n for n, unit, _ in tracer.METRICS if unit != "s" and n != "trace.overhead"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_package_source():
    bare = run.WORKDIR / "no-src"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""
