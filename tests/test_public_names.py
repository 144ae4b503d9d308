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


def _used_names(tree, skip: str | None = None) -> set[str]:
    """The names a module uses: Name and Attribute nodes, outside the
    top-level definition of skip and outside the __all__ assignment.
    Imports, strings and comments are no use."""
    nodes = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        nodes.append(node)
    used = set()
    for node in ast.walk(ast.Module(body=nodes, type_ignores=[])):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used_outside_the_tests():
    # A name only the tests call is a second route: it belongs in
    # tests/oracles.py, not in the package's surface.
    readme = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert readme
    scripts = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = [path.read_text() for path in scripts] + readme
    outside = set().union(*(_used_names(ast.parse(text)) for text in sources))
    modules = [ast.parse(m.read_text()) for m in sorted((ROOT / "src" / "pisingular").glob("*.py"))]
    unused = [
        name
        for name in pisingular.__all__
        if name != "__version__"
        and name not in outside
        and not any(name in _used_names(tree, skip=name) for tree in modules)
    ]
    assert unused == []


def test_a_mention_is_not_a_use():
    tree = ast.parse(
        '''
__all__ = ["f", "g"]
import h
def f():
    """Calls g."""
    return f()  # g
def g():
    return h.k(x.attr)
'''
    )
    assert _used_names(tree, skip="f") == {"h", "k", "x", "attr"}
    assert _used_names(tree, skip="g") == {"f"}
