"""The traced benchmark binds every name it lists in perfbench/tracer.py.

The tracer wraps pisingular functions and methods by name from outside the
package, so renaming or removing one of them breaks `--trace 1` runs with
an AttributeError.  This test loads the tracer by path, installs it, and
undoes the install whatever happens.
"""

import importlib.util
from pathlib import Path

from pisingular import new_context, synthetic_unit_bundle, verifier

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    original = verifier.verify_positive_candidate
    recorder = tracer.Recorder()
    uninstall = tracer.install(recorder)
    try:
        report = verifier.verify_positive_candidate(
            synthetic_unit_bundle(new_context(7), 2, 2)
        )
    finally:
        uninstall()
    assert report.overall
    names = {span[0] for span in recorder.spans}
    assert {"verifier.verify_positive_candidate", "ring.norm_exact", "ring.mul"} <= names
    assert verifier.verify_positive_candidate is original
