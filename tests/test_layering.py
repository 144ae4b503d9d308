"""The package's module layering, read from the source with ast: its
relative imports form a DAG and all run at import time, the exact norm's
module imports nothing from the package, the norm's names stay out of the
ring, each shared check has one owner, and the README's layout lists every
module."""

import ast
import graphlib
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pisingular"

# The exact norm's names: norm.py defines them, ring.py none of them.
NORM_NAMES = (
    "_crt*", "_split_prime*", "_root_*", "_norm_*", "_conjugate*",
    "_Q_LIMIT", "_P_LIMIT", "_NORM_MAX_BITS",
)

# Checks with one owning module, which the others import, and removed
# helpers that no module defines again.
OWNERS = {
    "_check_depth": "padic", "_check_even_index": "context", "_check_odd_prime": "context",
    "_require_truncated": "padic",
    # the lam-basis kernels and the one unit inverse
    "_unit_inverse": "ring", "_shift": "ring", "_shift_tables": "ring",
    "_series_inverse": "ring", "_pascal_transposed_mod_p": "ring", "_is_unit": "ring",
}
GONE = (
    "_galois_index", "_float_conjugates", "_float_roots", "_FLOAT_MARGIN",
    "_root_block", "_ROOT_BLOCK", "_match_expansion",
    "_ClaimSpec", "_SPECS", "_verify", "_derive_ratio",
)


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _import_time(tree):
    """The nodes that run when the module is imported: all but the bodies
    of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _relative_imports(nodes) -> set[str]:
    """The package modules that the relative imports among nodes name."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def _defined(tree) -> set[str]:
    """Names bound at the top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _check_dag(graph):
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names a cycle


def test_import_time_imports_form_a_dag():
    graph = {name: _relative_imports(_import_time(tree)) for name, tree in _trees().items()}
    assert set().union(*graph.values()) <= set(graph)
    _check_dag(graph)


def test_no_deferred_imports():
    # A function-level import runs at call time, once both modules are
    # loaded, and so would hide a cycle from the DAG above.
    deferred = {}
    for name, tree in _trees().items():
        late = _relative_imports(ast.walk(tree)) - _relative_imports(_import_time(tree))
        if late:
            deferred[name] = late
    assert deferred == {}


def test_a_cycle_fails_the_dag_check():
    _check_dag({"a": {"b"}, "b": {"c"}, "c": set()})
    with pytest.raises(graphlib.CycleError):
        _check_dag({"a": {"b"}, "b": {"c"}, "c": {"a"}})


def test_norm_imports_no_package_module():
    tree = _trees()["norm"]
    assert _relative_imports(ast.walk(tree)) == set()
    absolute = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for alias in node.names
    ]
    assert not [m for m in absolute if m.split(".")[0] == "pisingular"]


def test_the_norm_names_live_in_norm_only():
    trees = _trees()
    in_norm, in_ring = _defined(trees["norm"]), _defined(trees["ring"])
    for pattern in NORM_NAMES:
        assert any(fnmatch(n, pattern) for n in in_norm), pattern
        assert not [n for n in in_ring if fnmatch(n, pattern)], pattern


def test_each_check_has_one_owner():
    trees = _trees()
    for name, owner in OWNERS.items():
        assert [m for m, tree in trees.items() if name in _defined(tree)] == [owner], name
    for name in GONE:
        assert not [m for m, tree in trees.items() if name in _defined(tree)], name


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^## Layout\n\n```\n(.*?)^```", readme, re.M | re.S)
    (lines,) = re.findall(r"^src/pisingular/\n((?:  .*\n)+)", block, re.M)
    named = set(re.findall(r"^  (\w+\.py)\b", lines, re.M))
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert named == modules
