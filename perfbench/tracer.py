"""Layer tracer for the benchmark, installed from outside the package.

``install`` wraps the public functions and methods of each pisingular module
at every place they are bound: the module attribute, every module that
re-imported the name, and the RingElement / ExactElement / PrimeContext
methods.  Each wrapped call records one span (name, start, end, parent span,
operation id, tag) in memory; ``write_jsonl`` writes them out when the pass
ends.  ``layer_metrics`` turns the spans into the per-layer metrics.  Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("context.new_context", "pisingular.context", "new_context"),
    ("context.irregular_pairs", "pisingular.context", "PrimeContext.irregular_pairs"),
    ("ring.mul", "pisingular.ring", "RingElement.__mul__"),
    ("ring.galois_apply", "pisingular.ring", "RingElement.galois_apply"),
    ("ring.invert", "pisingular.ring", "RingElement.invert"),
    ("ring.exact_mul", "pisingular.ring", "ExactElement.__mul__"),
    ("ring.exact_galois_apply", "pisingular.ring", "ExactElement.galois_apply"),
    ("ring.norm_exact", "pisingular.ring", "norm_exact"),
    ("padic.valuation", "pisingular.padic", "valuation"),
    ("padic.digits", "pisingular.padic", "digits"),
    ("padic.is_locally_pth_power", "pisingular.padic", "is_locally_pth_power"),
    ("padic.is_primary", "pisingular.padic", "is_primary"),
    ("eigen.canonical_eigenvector", "pisingular.eigen", "canonical_eigenvector"),
    ("eigen.expansion_matches", "pisingular.eigen", "expansion_matches"),
    ("units.eigen_project_unit", "pisingular.units", "eigen_project_unit"),
    ("units.verify_unit_relation", "pisingular.units", "verify_unit_relation"),
    ("verifier.load_bundle", "pisingular.verifier", "load_bundle"),
    ("verifier.verify_negative_candidate", "pisingular.verifier", "verify_negative_candidate"),
    ("verifier.verify_b_prime", "pisingular.verifier", "verify_b_prime"),
    ("verifier.verify_positive_candidate", "pisingular.verifier", "verify_positive_candidate"),
    ("verifier.check_ppower_congruence", "pisingular.verifier", "check_ppower_congruence"),
    ("cli.main", "pisingular.cli", "main"),
)

LAYERS = ("context", "ring", "padic", "eigen", "units", "verifier", "cli")

# Groups of spans reported under one metric name.
_PTH_POWER = ("padic.is_locally_pth_power", "padic.is_primary")
_VERIFY = (
    "verifier.verify_negative_candidate",
    "verifier.verify_b_prime",
    "verifier.verify_positive_candidate",
)


def _tag_object_dtype(args):
    # ring.mul on object-dtype coefficients: the big-integer fallback.
    return 1 if args[0].coeffs.dtype == object else None


def _tag_precision(args):
    # padic.digits: how many digits were requested.
    return args[1]


_TAGS = {"ring.mul": _tag_object_dtype, "padic.digits": _tag_precision}

# (name, unit, better); layer_metrics returns exactly these keys.
METRICS = (
    ("ring.norm_exact.calls", "count", "lower"),
    ("ring.norm_exact.self_s", "s", "lower"),
    ("ring.mul.calls", "count", "lower"),
    ("ring.mul.self_s", "s", "lower"),
    ("ring.mul_object.calls", "count", "lower"),
    ("ring.exact_mul.calls", "count", "lower"),
    ("ring.exact_mul.self_s", "s", "lower"),
    ("ring.galois_apply.calls", "count", "lower"),
    ("ring.galois_apply.self_s", "s", "lower"),
    ("ring.invert.calls", "count", "lower"),
    ("ring.invert.self_s", "s", "lower"),
    ("padic.valuation.calls", "count", "lower"),
    ("padic.valuation.self_s", "s", "lower"),
    ("padic.digits.self_s", "s", "lower"),
    ("padic.digits.probes_per_digit", "ratio", "lower"),
    ("padic.pth_power.self_s", "s", "lower"),
    ("padic.pth_power.probes_per_call", "ratio", "lower"),
    ("eigen.canonical_eigenvector.calls", "count", "lower"),
    ("eigen.canonical_eigenvector.self_s", "s", "lower"),
    ("eigen.expansion_matches.self_s", "s", "lower"),
    ("context.new_context.self_s", "s", "lower"),
    ("context.irregular_pairs.self_s", "s", "lower"),
    ("units.eigen_project_unit.self_s", "s", "lower"),
    ("units.verify_unit_relation.self_s", "s", "lower"),
    ("verifier.load_bundle.self_s", "s", "lower"),
    ("verifier.verify.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli") + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Recorder:
    """Spans of one pass, in call order; ``op`` is the current operation."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent, op, tag)
        self.current = None
        self.op = None

    def wrap(self, name, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = tag(args) if tag else None
            parent = self.current
            sid = len(self.spans)
            self.spans.append(None)
            self.current = sid
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.current = parent
                self.spans[sid] = (name, start, end, parent, self.op, value)

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, tag) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "tag": tag,
                }) + "\n")


def install(recorder: Recorder):
    """Wrap every target at every binding site; return an undo function."""
    undo = []
    for name, modname, attr in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(name, original, _TAGS.get(name)))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original, _TAGS.get(name))
        for mod in list(sys.modules.values()):
            modname2 = getattr(mod, "__name__", "")
            if modname2 != "pisingular" and not modname2.startswith("pisingular."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = []
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(s["id"], ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts, self times and probe ratios from one traced pass.

    ``trace.overhead`` needs an untraced pass and is left to the caller.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for s, own in zip(spans, selfs):
        calls[s["name"]] += 1
        self_ns[s["name"]] += own
    names = {s["id"]: s["name"] for s in spans}
    under = defaultdict(int)  # valuation probes by parent span name
    for s in spans:
        if s["name"] == "padic.valuation" and s["parent"] is not None:
            under[names[s["parent"]]] += 1

    def secs(*span_names):
        return sum(self_ns[n] for n in span_names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("ring.norm_exact", "ring.mul", "ring.exact_mul", "ring.galois_apply",
                 "ring.invert", "padic.valuation", "eigen.canonical_eigenvector"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = secs(name)
    m["ring.mul_object.calls"] = sum(
        1 for s in spans if s["name"] == "ring.mul" and s["tag"]
    )
    requested = sum(s["tag"] for s in spans if s["name"] == "padic.digits")
    m["padic.digits.self_s"] = secs("padic.digits")
    m["padic.digits.probes_per_digit"] = ratio(under["padic.digits"], requested)
    m["padic.pth_power.self_s"] = secs(*_PTH_POWER)
    m["padic.pth_power.probes_per_call"] = ratio(
        sum(under[n] for n in _PTH_POWER), sum(calls[n] for n in _PTH_POWER)
    )
    for name in ("eigen.expansion_matches", "context.new_context",
                 "context.irregular_pairs", "units.eigen_project_unit",
                 "units.verify_unit_relation", "verifier.load_bundle", "cli.main"):
        m[f"{name}.self_s"] = secs(name)
    m["verifier.verify.self_s"] = secs(*_VERIFY)
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = secs(*(n for n in self_ns if n.startswith(layer + ".")))
    m["trace.spans"] = len(spans)
    return {name: m[name] for name, _, _ in METRICS if name in m}
