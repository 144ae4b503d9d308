"""Verdicts do not depend on the truncation K below the K=2 cap.

Every claim that verify makes is decided mod p^2: reduction mod p^2 is a
ring homomorphism, and the depths the claims read (p+1 for the twisted
local p-th power, p for primary, p-1 for the expansion) are all below
2(p-1).  Only a reported valuation can tell K apart, and only when it
reaches 2(p-1), where K=2 reads "cap".  These tests run the same bundles at
K=2 and at larger K and compare the verdict JSON whenever no reported
valuation reaches that cap.
"""

from dataclasses import replace

import pytest

from pisingular import (
    ExactElement,
    new_context,
    synthetic_unit_bundle,
    verify_b_prime,
    verify_negative_candidate,
    verify_positive_candidate,
)

from test_verifier import real_witness_bundle

PRIMES = (7, 11, 13, 23, 29)
DEEPER = (3, 5)


def _verdicts(bundle) -> list[dict]:
    """The JSON of every path that the verify command runs on bundle."""
    if bundle.parity == "positive":
        reps = [verify_positive_candidate(bundle)]
    else:
        reps = [verify_negative_candidate(bundle)]
        if bundle.eta is not None:
            reps.append(verify_b_prime(bundle))
    return [rep.to_json_dict() for rep in reps]


def _reported(docs) -> list:
    """The reported valuations: semi-primary's valuation and each measured."""
    return [
        c["data"][key]
        for doc in docs
        for c in doc["claims"]
        for key in ("valuation", "measured")
        if key in c["data"]
    ]


def _plus(B, i: int, d: int) -> ExactElement:
    """B + d*z^i in the power basis 1, z, ..., z^(p-2)."""
    coeffs = B.coeff_list()
    coeffs[i] += d
    return ExactElement(B.p, coeffs)


def _bundles():
    for p in PRIMES:
        ctx = new_context(p)
        for a in (2, 3):
            for two_m in range(2, p - 2, 2):
                b = synthetic_unit_bundle(ctx, a, two_m, k=1, c=2)
                yield b
                yield replace(b, B=_plus(b.B, two_m, 1))  # at z^(2m)
                yield replace(b, B=_plus(b.B, 0, p * a))  # at the constant term
        for twist in (0, 1, p - 2):
            yield real_witness_bundle(ctx, twist=twist)


def test_verdicts_agree_below_the_k2_cap():
    compared = skipped = 0
    for bundle in _bundles():
        p = bundle.ctx.p
        at2 = _verdicts(bundle)
        for K in DEEPER:
            deep = _verdicts(replace(bundle, K=K))
            if any(v == "cap" or v >= 2 * (p - 1) for v in _reported(deep)):
                skipped += 1
                continue
            assert deep == at2, (bundle.label, K)
            compared += 1
    assert (compared, skipped) == (438, 0)


@pytest.mark.parametrize("K", DEEPER)
def test_the_semi_primary_valuation_of_b_zero_mod_p2(K):
    # B = 0 mod p^2 reads "cap" at K=2 and its valuation 2(p-1) at larger K;
    # every other byte agrees, the quotient claims being skipped alike
    b = synthetic_unit_bundle(new_context(7), 2, 2, k=1, c=2)
    b = replace(b, B=b.B * 49)
    (at2,) = _verdicts(b)
    (deep,) = _verdicts(replace(b, K=K))
    assert at2["claims"][0]["data"] == {"valuation": "cap"}
    assert deep["claims"][0]["data"] == {"valuation": 12}
    at2["claims"][0]["data"]["valuation"] = 12
    assert deep == at2
