"""One timed pass: a fresh process runs a workload's operation list in order.

Usage: python3 perfbench/worker.py OPS_JSON TRACE_OUT_OR_DASH

The process imports the package first and stamps the monotonic clock when
the import is done; the parent stamped it before starting the process, so
the difference is the set-up time.  Each operation is one
``pisingular.cli.main(argv)`` call with stdout and stderr captured.  With a
trace path the layer tracer is installed after the stamp and the spans are
written there after the last operation.  One JSON object with the results
goes to stdout.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import pisingular.cli  # noqa: E402

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402


def run_op(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pisingular.cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an unexpected exception fails the operation
        code = None
        error = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter_ns() - start
    text = out.getvalue()
    return {
        "code": code,
        "ns": elapsed,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text,
        "error": error,
    }


def main(ops_path: str, trace_path: str) -> None:
    expected = os.path.join(_ROOT, "src", "pisingular")
    if os.path.dirname(os.path.abspath(pisingular.cli.__file__)) != expected:
        sys.exit(f"pisingular imported from {pisingular.cli.__file__}, not {expected}")
    with open(ops_path) as fh:
        ops = json.load(fh)
    recorder = None
    if trace_path != "-":
        recorder = tracer.Recorder()
        tracer.install(recorder)
    results = []
    start = time.perf_counter_ns()
    for n, op in enumerate(ops):
        if recorder:
            recorder.op = n
        result = run_op(op["argv"])
        if "digits" not in op:
            del result["stdout"]
        results.append(result)
    wall = time.perf_counter_ns() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder:
        recorder.write_jsonl(trace_path)
    json.dump({"ready_ns": READY_NS, "wall_ns": wall, "rss_kb": rss_kb, "ops": results},
              sys.stdout)


if __name__ == "__main__":
    main(*sys.argv[1:3])
