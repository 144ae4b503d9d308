"""Write reference.json: the stdout digest of every operation at the
reference seed, for each workload.

Run from the repository root:  python3 perfbench/capture_reference.py

The benchmark counts an operation whose stdout differs from its digest as
failed, which keeps the CLI output byte-identical.  Run this only for a
change that is meant to alter that output, and say so in the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    digests = {}
    for workload in run.WORKLOADS:
        rundir = run.WORKDIR / f"reference-{workload}"
        try:
            ops, ops_path = run.write_ops(workload, run.REFERENCE_SEED, rundir)
            results = run.run_pass(ops_path, None)["ops"]
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        digests[workload] = [r["sha256"] for r in results]
        failures = run.check_pass(ops, results, digests[workload])
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
    doc = {"seed": run.REFERENCE_SEED, "workloads": digests}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
