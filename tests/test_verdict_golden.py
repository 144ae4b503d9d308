"""Verdicts pinned byte for byte across every branch of the verify paths.

Each case runs one verify entry point on a small bundle.  A case that
returns pins json.dumps(report.to_json_dict(), indent=2, sort_keys=True),
stored line by line; a case that raises pins the exception type and
message.  The pinned values live in tests/data/verdicts_golden.json.
Re-capture them only when a verdict is meant to change:

    PYTHONPATH=src python tests/test_verdict_golden.py
"""

import json
from pathlib import Path

import pytest

from pisingular import (
    CandidateBundle,
    ExactElement,
    PreconditionError,
    WitnessInvalidError,
    canonical_eigenvector,
    eigen_project_unit_exact,
    new_context,
    synthetic_unit_bundle,
    verify_b_prime,
    verify_negative_candidate,
    verify_positive_candidate,
)

GOLDEN = Path(__file__).parent / "data" / "verdicts_golden.json"


def _planted(ctx, mu):
    """1 + the closed-form eigenvector for mu, lifted to exact coefficients."""
    coords = canonical_eigenvector(ctx, mu).vector
    top = coords[ctx.p - 2]
    return ExactElement(ctx.p, [1 - top] + [coords[j] - top for j in range(ctx.p - 2)])


def _negative(ctx, s, B, eta=None, beta=None, K=2):
    return CandidateBundle(
        ctx=ctx, K=K, parity="negative", mu=ctx.upow[s], B=B, eta=eta, beta=beta
    )


def _positive(ctx, s, B, K=2):
    return CandidateBundle(ctx=ctx, K=K, parity="positive", mu=ctx.upow[s], B=B)


def _real_witness(ctx, s=3, b=2, twist=0):
    """B = z^twist * W * b^p with eta = W^2, beta = b^2; identities exact."""
    p = ctx.p
    W = eigen_project_unit_exact(ctx, 2, 2)
    B = W * b**p
    if twist:
        zc = [0] * (p - 1)
        zc[twist] = 1
        B = B * ExactElement(p, zc)
    return _negative(ctx, s, B, eta=W * W, beta=ExactElement.from_integer(p, b * b))


def _corrupted(bundle, i, bump):
    coeffs = list(bundle.B.coeffs)
    coeffs[i] += bump
    return CandidateBundle(
        ctx=bundle.ctx, K=bundle.K, parity=bundle.parity, mu=bundle.mu,
        B=ExactElement(bundle.ctx.p, coeffs),
    )


def _cases():
    """name -> (verify function, bundle)."""
    c7, c11 = new_context(7), new_context(11)
    one7 = ExactElement.from_integer(7, 1)
    seven = ExactElement.from_integer(7, 7)
    good = _real_witness(c7)
    pos, neg, bprime = verify_positive_candidate, verify_negative_candidate, verify_b_prime
    three_to_7 = ExactElement.from_integer(7, 3**7)  # rational p-th powers: primary
    two_to_11 = ExactElement.from_integer(11, 2**11)
    return {
        # positive: low index (expansion skipped), high index, failures, skips
        "positive-pass-low": (pos, synthetic_unit_bundle(c11, 2, 2, k=2, c=3)),
        "positive-pass-high": (pos, synthetic_unit_bundle(c11, 3, 8, k=1, c=2)),
        "positive-corrupted": (
            pos, _corrupted(synthetic_unit_bundle(c7, 2, 4, k=2, c=2), 1, 2)),
        "positive-rational-pth-power-high": (pos, _positive(c7, 4, three_to_7)),
        "positive-rational-pth-power-low": (pos, _positive(c11, 2, two_to_11)),
        "positive-non-unit": (pos, _positive(c7, 2, seven)),
        # negative: non-unit, planted eigenvector (claimed and honest), real B
        "negative-non-unit": (neg, _negative(c7, 3, seven)),
        "negative-planted-claimed": (neg, _negative(c7, 3, _planted(c7, c7.upow[5]))),
        "negative-planted-honest": (neg, _negative(c7, 5, _planted(c7, c7.upow[5]))),
        "negative-real-low": (neg, good),
        "negative-real-high": (neg, _real_witness(c11, s=7)),
        "negative-twisted": (neg, _real_witness(c7, twist=1)),
        # b_prime: trivial witnesses, real B, root-of-unity twist
        "b_prime-trivial": (bprime, _negative(c7, 3, one7, eta=one7, beta=one7)),
        "b_prime-real": (bprime, good),
        "b_prime-real-high": (bprime, _real_witness(c11, s=7)),
        "b_prime-twisted": (bprime, _real_witness(c7, twist=1)),
        # errors
        "error-broken-witness": (bprime, _negative(
            c7, 3, good.B, eta=good.eta + seven, beta=good.beta)),
        "error-non-unit-b_prime": (bprime, _negative(
            c7, 3, seven, eta=ExactElement.from_integer(7, 49), beta=one7)),
        "error-parity-negative": (neg, synthetic_unit_bundle(c7, 2, 2)),
        "error-parity-b_prime": (bprime, synthetic_unit_bundle(c7, 2, 2)),
        "error-parity-positive": (pos, good),
        "error-K1-positive": (pos, _positive(c7, 2, one7, K=1)),
        "error-K1-negative": (neg, _negative(c7, 3, one7, K=1)),
        "error-K1-b_prime": (bprime, _negative(c7, 3, one7, eta=one7, beta=one7, K=1)),
        "error-missing-witnesses": (bprime, _negative(c7, 3, one7)),
    }


def _outcome(fn, bundle) -> dict:
    try:
        report = fn(bundle)
    except (PreconditionError, WitnessInvalidError) as e:
        return {"raises": type(e).__name__, "message": str(e)}
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    return {"verdict": text.splitlines()}


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_is_byte_identical(name, golden):
    fn, bundle = CASES[name]
    assert _outcome(fn, bundle) == golden[name]


if __name__ == "__main__":
    doc = {name: _outcome(fn, bundle) for name, (fn, bundle) in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
