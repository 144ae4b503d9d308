"""The package root re-exports each module's __all__, in a pinned order."""

import importlib

import pisingular

PUBLIC = {
    "context": ["PrimeContext", "new_context", "is_prime", "smallest_primitive_root"],
    "ring": ["RingElement", "ExactElement", "from_integer", "zeta", "lam", "norm_exact"],
    "padic": [
        "CAP", "LambdaExpansion", "to_lambda_basis", "from_lambda_basis", "valuation",
        "digits", "is_semi_primary", "is_primary", "is_locally_pth_power",
        "semi_primary_normalize",
    ],
    "eigen": [
        "EigenReport", "RecurrenceSolution", "sigma_matrix", "eigenvector_span_coords",
        "eigenvector_element", "span_coords", "canonical_eigenvector", "recurrence_solve",
        "expansion_matches",
    ],
    "units": [
        "UnitExponentVector", "UnitReport", "cyclotomic_unit", "cyclotomic_unit_exact",
        "eigen_project_unit", "eigen_project_unit_exact", "verify_unit_relation",
        "unit_reports", "solve_unit_adjustment",
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
    assert len(names) == 51
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
