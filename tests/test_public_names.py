"""The package root re-exports each module's __all__, in a pinned order,
and every public name is used somewhere a user reaches: the package
itself, the demos, perfbench or the README."""

import ast
import importlib
import re
from pathlib import Path

import pisingular

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "context": ["PrimeContext", "new_context", "is_prime", "smallest_primitive_root"],
    "ring": ["RingElement", "ExactElement", "from_integer", "zeta", "lam", "norm_exact"],
    "padic": [
        "CAP", "LambdaExpansion", "valuation", "digits", "is_semi_primary", "is_primary",
        "is_locally_pth_power",
    ],
    "eigen": [
        "EigenReport", "sigma_matrix", "eigenvector_element", "canonical_eigenvector",
        "expansion_matches",
    ],
    "units": [
        "UnitExponentVector", "UnitReport", "cyclotomic_unit", "cyclotomic_unit_exact",
        "eigen_project_unit", "eigen_project_unit_exact", "verify_unit_relation",
        "unit_reports",
    ],
    "verifier": [
        "BundleError", "PreconditionError", "WitnessInvalidError", "ClaimResult",
        "VerdictReport", "CandidateBundle", "load_bundle", "bundle_to_json",
        "synthetic_unit_bundle", "check_ppower_congruence", "verify_negative_candidate",
        "verify_b_prime", "verify_positive_candidate",
    ],
}


def test_all_is_pinned():
    names = [n for module_names in PUBLIC.values() for n in module_names]
    assert len(names) == 43
    assert pisingular.__all__ == names + ["__version__"]


def test_each_name_is_its_module_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"pisingular.{module_name}")
        for n in names:
            assert getattr(pisingular, n) is getattr(module, n), n


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from pisingular import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(pisingular.__all__)


def _source_without_own_lines(path: Path, name: str) -> str:
    """A module's text without the definition of name (its def or class
    statement, body included) and without its __all__ entry."""
    text = path.read_text()
    lines = text.splitlines()
    drop = set()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            drop.update(range(node.lineno - 1, node.end_lineno))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            drop.update(range(node.lineno - 1, node.end_lineno))
    return "\n".join(line for i, line in enumerate(lines) if i not in drop)


def test_every_public_name_is_used_outside_the_tests():
    # A name only the tests call is a second route: it belongs in
    # tests/oracles.py, not in the package's surface.
    others = [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "README.md",
    ]
    other_text = "\n".join(path.read_text() for path in others)
    modules = sorted((ROOT / "src" / "pisingular").glob("*.py"))
    unused = []
    for name in pisingular.__all__:
        if name == "__version__":
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if word.search(other_text):
            continue
        if not any(word.search(_source_without_own_lines(m, name)) for m in modules):
            unused.append(name)
    assert unused == []
