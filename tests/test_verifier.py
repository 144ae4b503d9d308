"""Bundle loading, claim checking, and the error taxonomy."""

import dataclasses
import functools
import json
import random
import re

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pisingular import (
    BundleError,
    CandidateBundle,
    ExactElement,
    PreconditionError,
    RingElement,
    WitnessInvalidError,
    bundle_to_json,
    canonical_eigenvector,
    check_ppower_congruence,
    cyclotomic_unit_exact,
    eigen_project_unit_exact,
    lam,
    load_bundle,
    new_context,
    synthetic_unit_bundle,
    valuation,
    verify_b_prime,
    verify_negative_candidate,
    verify_positive_candidate,
    zeta,
)

from pisingular import CAP
from pisingular.norm import _P_LIMIT, _norm_bound
from pisingular.verifier import (
    _COEFF_MAX_BITS,
    _COEFF_MAX_DIGITS,
    _PRECISION_LIMIT,
    _WITNESS_POWER_MAX_BITS,
    _decimal_int,
    _decimal_str,
    _integer_root,
)


def report_json(rep):
    return json.dumps(rep.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------- congruence


def test_ppower_congruence_hand_example():
    """p=3: alpha = z, beta = z + lam differ by lam; cubes differ by lam^4."""
    ctx = new_context(3)
    a = zeta(ctx, 3)
    b = a + lam(ctx, 3)
    assert b.coeff_list() == [26, 2]  # 2z - 1 mod 27
    assert valuation(a**3 - b**3) == 4
    # at K=2 the difference reaches the truncation cap
    a2, b2 = RingElement(ctx, 2, a.coeffs), RingElement(ctx, 2, b.coeffs)
    assert valuation(a2**3 - b2**3) is CAP


def test_ppower_congruence_trivial_pair(ctx5):
    x = zeta(ctx5, 2, 3)
    assert valuation(x**5 - x**5) is CAP


def test_ppower_congruence_campaign(ctx5):
    rep = check_ppower_congruence(ctx5, trials=200, seed=11)
    assert rep.overall
    (claim,) = rep.claims
    assert claim.claim_id == "pth-power-congruence"
    assert claim.data["trials"] == 200
    assert claim.data["seed"] == 11
    assert claim.data["failures"] == []


def test_ppower_congruence_deterministic(ctx7):
    r1 = check_ppower_congruence(ctx7, trials=50, seed=9)
    r2 = check_ppower_congruence(ctx7, trials=50, seed=9)
    assert report_json(r1) == report_json(r2)


def test_ppower_congruence_depth_precondition(ctx5):
    with pytest.raises(PreconditionError, match="needs depth"):
        check_ppower_congruence(ctx5, K=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_ppower_congruence_needs_a_trial(ctx5, trials):
    with pytest.raises(PreconditionError, match="at least one trial"):
        check_ppower_congruence(ctx5, trials=trials)


# ------------------------------------------------------------------ loading


def good_doc(**over):
    b = synthetic_unit_bundle(new_context(7), 2, 2, label="fixture")
    doc = bundle_to_json(b)
    doc.update(over)
    return doc


def test_load_bundle_round_trip():
    doc = good_doc()
    b = load_bundle(json.dumps(doc))
    assert b.ctx.p == 7 and b.K == 2
    assert b.parity == "positive" and b.mu == 2
    assert b.label == "fixture"
    assert bundle_to_json(b) == doc
    assert load_bundle(doc).B == b.B
    assert verify_positive_candidate(b).overall


def test_load_bundle_from_file(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(good_doc()))
    assert load_bundle(path).ctx.p == 7
    assert load_bundle(str(path)).ctx.p == 7


def test_load_bundle_refuses_deep_nesting_and_bad_bytes(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth
    # limit; and a bundle file is read as UTF-8 whatever the locale.
    deep = '{"p": ' + "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in (deep, path):
        with pytest.raises(BundleError, match="^bundle is not valid JSON: maximum recursion depth"):
            load_bundle(source)
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(BundleError, match=f"^cannot read bundle file {re.escape(str(path))}: 'utf-8' codec"):
        load_bundle(path)
    path.write_bytes(json.dumps(good_doc(label="\u03b6"), ensure_ascii=False).encode("utf-8"))
    assert load_bundle(path).label == "\u03b6"


def test_load_bundle_refuses_a_lone_surrogate_in_the_label():
    # Plain output would fail to encode it only after every claim had run.
    for source in (good_doc(label="x\ud800"), json.dumps(good_doc(label="x\ud800"))):
        with pytest.raises(BundleError, match="^bundle field 'label': not valid Unicode text"):
            load_bundle(source)


def test_load_bundle_missing_fields():
    for key in ("p", "K", "parity", "mu", "B"):
        doc = good_doc()
        del doc[key]
        with pytest.raises(BundleError, match=f"'{key}': missing"):
            load_bundle(doc)


def test_load_bundle_field_validation():
    cases = [
        ({"p": "7"}, "'p': must be an integer"),
        ({"p": True}, "'p': must be an integer"),
        ({"p": 6}, "odd prime"),
        ({"K": 0}, "integer >= 1"),
        ({"K": "2"}, "integer >= 1"),
        ({"parity": "neg"}, "'negative' or 'positive'"),
        ({"mu": 7}, r"\[0, 7\)"),
        ({"mu": -1}, r"\[0, 7\)"),
        ({"mu": 0}, "trivial eigenvalue"),
        ({"mu": 1}, "trivial eigenvalue"),
        ({"mu": 3}, "annihilator constraint at index 1"),
        ({"parity": "negative"}, "needs an odd power"),
        ({"mu": 6}, "needs an even power"),
        ({"B": ["1"] * 5}, "expected 6 coefficients"),
        ({"B": "111111"}, "expected a list"),
        ({"B": [True] + ["1"] * 5}, "entry 0 must be an integer"),
        ({"B": ["12x"] + ["1"] * 5}, "not a decimal integer"),
        ({"B": ["1_000"] + ["1"] * 5}, "not a decimal integer"),
        ({"B": ["\u0663"] + ["1"] * 5}, "not a decimal integer"),
        ({"label": 7}, "'label': must be a string"),
    ]
    for over, msg in cases:
        with pytest.raises(BundleError, match=msg):
            load_bundle(good_doc(**over))


@pytest.mark.parametrize("p", [2053, 1000003])
def test_load_bundle_refuses_p_past_the_norm_limit(p):
    # 2053 is the first prime past the limit.  The refusal comes before the
    # context tables are built and before any coefficient is read.
    doc = good_doc(p=p, B=["1"] * (p - 1))
    with pytest.raises(BundleError, match=f"'p': must be below 2049.*got {p}"):
        load_bundle(doc)


def test_load_bundle_accepts_the_largest_prime_below_the_limit():
    assert _P_LIMIT == 2049
    ctx = new_context(2039)
    b = load_bundle(good_doc(p=2039, mu=ctx.upow[2], B=["1"] * 2038))
    assert b.ctx.p == 2039


@pytest.mark.parametrize("p", [7, 23, 101, 2039])
def test_load_bundle_precision_limit(p):
    # K*(p-1) may reach 2^14 and no further: K=2731 at p=7, 744 at p=23,
    # 163 at p=101, 8 at p=2039.
    assert _PRECISION_LIMIT == 2**14
    kmax = _PRECISION_LIMIT // (p - 1)
    ctx = new_context(p)
    doc = good_doc(p=p, mu=ctx.upow[2], B=["1"] * (p - 1))
    assert load_bundle(dict(doc, K=kmax)).K == kmax
    for K in (kmax + 1, 5000, 20000, 10**40):
        with pytest.raises(BundleError, match=f"'K': must be at most {kmax} at p={p}"):
            load_bundle(dict(doc, K=K))


def negative_bundle() -> CandidateBundle:
    """A passing p=13 negative bundle with exact witnesses:
    B = gamma * beta^7, eta = gamma^2 * beta, gamma real."""
    ctx = new_context(13)
    gamma = eigen_project_unit_exact(ctx, 2, 4) * 2**13
    beta = cyclotomic_unit_exact(13, 2)
    return CandidateBundle(
        ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=gamma * beta**7,
        eta=gamma * gamma * beta, beta=beta,
    )


def test_load_bundle_refuses_unknown_fields():
    with pytest.raises(BundleError, match=r"^bundle field 'Eta': unknown; .* eta, beta, label$"):
        load_bundle(good_doc(Eta=["1"] * 6))
    with pytest.raises(BundleError, match=r"^bundle field 'x{39}\.\.\. \(102 characters\): unknown"):
        load_bundle(good_doc(**{"x" * 100: 1}))


def _witness_doc(p, beta) -> dict:
    one = ["1"] + ["0"] * (p - 2)
    return {"p": p, "K": 2, "parity": "negative", "mu": new_context(p).upow[3], "B": one,
            "eta": one, "beta": [str(c) for c in beta]}


def test_witness_power_cap_edge():
    # (p-1) * p * log2(sum |beta_i|) <= 2^22: at p=37, 1332 * 3148 is at the
    # cap and 1332 * 3149 past it; the refusal names the estimate and the cap.
    assert 36 * 37 * 3148 <= _WITNESS_POWER_MAX_BITS < 36 * 37 * 3149
    assert load_bundle(_witness_doc(37, [2**3148] + [0] * 35)).beta.coeffs[0] == 2**3148
    split = [2**3147, -(2**3147)] + [0] * 34  # the sum of |beta_i| counts, not the widest
    assert load_bundle(_witness_doc(37, split)).beta is not None
    with pytest.raises(BundleError, match=r"about 4194468 bits, over the limit of 4194304 bits"):
        load_bundle(_witness_doc(37, [2**3149] + [0] * 35))


def test_witness_power_cap_admits_xi_2_at_every_p():
    # xi_2 has sum |beta_i| = 2, so (p-1) * p bits: 4155482 at p=2039, the
    # largest prime below the bundle limit.
    assert 2038 * 2039 <= _WITNESS_POWER_MAX_BITS
    for p in (5, 37, 1031, 2039):
        beta = cyclotomic_unit_exact(p, 2)
        assert load_bundle(_witness_doc(p, beta.coeffs)).beta == beta
    assert load_bundle(bundle_to_json(negative_bundle())).beta == negative_bundle().beta


def test_load_bundle_checks_a_candidate_bundle():
    # A bundle built in process meets the caps of JSON input: beta with
    # 2^12-bit coefficients at p=37 ran 3 s in verify_b_prime to exit 3.
    ctx, rng = new_context(37), random.Random(50)
    one = ExactElement.from_integer(37, 1)
    wide = ExactElement(37, [rng.getrandbits(2**12) for _ in range(36)])
    bundle = CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=one,
                             eta=one, beta=wide)
    with pytest.raises(BundleError, match=r"^bundle field 'beta': beta\^p may need"):
        load_bundle(bundle)
    with pytest.raises(BundleError, match=r"^bundle field 'B': expected 36 coefficients"):
        load_bundle(CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3],
                                    B=ExactElement.from_integer(5, 1)))
    with pytest.raises(BundleError, match="supplied together"):
        load_bundle(CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=one,
                                    eta=one))
    with pytest.raises(BundleError, match="bundle field 'K': must be at most 455"):
        load_bundle(CandidateBundle(ctx=ctx, K=456, parity="negative", mu=ctx.upow[3], B=one))
    good = negative_bundle()
    assert load_bundle(good) is good


def test_load_bundle_witnesses_must_pair():
    doc = good_doc(eta=["1", "0", "0", "0", "0", "0"])
    with pytest.raises(BundleError, match="supplied together"):
        load_bundle(doc)


def test_load_bundle_source_errors(tmp_path):
    with pytest.raises(BundleError, match="cannot load a bundle from int"):
        load_bundle(42)
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle("{not json")
    with pytest.raises(BundleError, match="cannot read bundle file"):
        load_bundle(tmp_path / "missing.json")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(BundleError, match="must be an object"):
        load_bundle(arr)


def test_load_bundle_passthrough():
    b = synthetic_unit_bundle(new_context(7), 2, 2)
    assert load_bundle(b) is b


def test_synthetic_bundle_rejects_p_multiples(ctx7):
    with pytest.raises(ValueError, match="coprime"):
        synthetic_unit_bundle(ctx7, 2, 2, k=7)
    with pytest.raises(ValueError, match="coprime"):
        synthetic_unit_bundle(ctx7, 2, 2, c=14)


# ------------------------------------------------------------- verification


def test_synthetic_bundles_pass():
    for p in (7, 11):
        ctx = new_context(p)
        for two_m in range(2, p - 2, 2):
            for k, c in ((1, 1), (2, 3)):
                b = synthetic_unit_bundle(ctx, 2, two_m, k=k, c=c)
                rep = verify_positive_candidate(b)
                assert rep.overall, (p, two_m, k, c, rep.to_json_dict())


def test_report_shapes():
    b = synthetic_unit_bundle(new_context(7), 2, 2)
    rep = verify_positive_candidate(b)
    doc = rep.to_json_dict()
    assert set(doc) == {"overall", "claims"}
    ids = [c["id"] for c in doc["claims"]]
    assert ids == [
        "semi-primary",
        "norm-shape",
        "twist-local-pth-power",
        "power-valuation",
        "eigen-expansion",
    ]
    for c in doc["claims"]:
        assert set(c) == {"id", "ref", "holds", "data"}


def planted_element(ctx, mu):
    """1 + the closed-form eigenvector for mu, lifted to exact coefficients."""
    coords = canonical_eigenvector(ctx, mu).vector
    top = coords[ctx.p - 2]
    coeffs = [1 - top] + [coords[j] - top for j in range(ctx.p - 2)]
    return ExactElement(ctx.p, coeffs)


def test_wrong_eigencomponent_is_caught():
    """An element living in the u^5 eigenspace, claimed at u^3, must fail."""
    ctx = new_context(7)
    mu_true = ctx.upow[5]
    B = planted_element(ctx, mu_true)

    claimed = CandidateBundle(
        ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=B
    )
    rep = verify_negative_candidate(claimed)
    assert not rep.overall
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["twist-valuation"].holds is False
    assert by_id["twist-valuation"].data == {"expected": 3, "measured": 5}
    assert by_id["twist-local-pth-power"].holds is False

    honest = CandidateBundle(
        ctx=ctx, K=2, parity="negative", mu=mu_true, B=B
    )
    rep2 = verify_negative_candidate(honest)
    by_id2 = {c.claim_id: c for c in rep2.claims}
    # the crude mod-p lift satisfies the eigen-side diagnostics at the true
    # eigenvalue (and only there); it is still no genuine candidate, so the
    # deeper congruence claims keep failing
    assert by_id2["twist-valuation"].holds is True
    assert by_id2["eigen-expansion"].holds is True
    assert by_id2["eigen-expansion"].data["delta"] == 5
    assert by_id2["twist-local-pth-power"].holds is False


def test_norm_shape_failure(ctx5):
    # |norm(2)| = 16, which is not p^t times a 5th power
    B = ExactElement.from_integer(5, 2)
    b = CandidateBundle(ctx=ctx5, K=2, parity="positive", mu=4, B=B)
    rep = verify_positive_candidate(b)
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["norm-shape"].holds is False
    assert by_id["norm-shape"].data["sign"] == 1
    assert by_id["norm-shape"].data["p_exponent"] == 0
    assert by_id["norm-shape"].data["root"] is None
    assert not rep.overall


def _root_cases():
    """(n, k) with k from 3 to 2039 and n of 1 to 262144 bits, the norm's
    cap (k >= 37 past 16464 bits, to keep the test fast): random n, exact
    k-th powers and exact powers plus and minus 1."""
    rng = random.Random(2039)
    for bits in (1, 2, 5, 63, 64, 65, 127, 1000, 16464, 131072, 262144):
        for k in (3, 5, 37, 101, 257, 1031, 2039)[2 if bits > 16464 else 0 :]:
            yield rng.getrandbits(bits) | 1 << (bits - 1), k
            rbits = max(1, bits // k)
            r = rng.getrandbits(rbits) | 1 << (rbits - 1)
            yield from ((r**k + d, k) for d in (-1, 0, 1))


def test_integer_root_matches_sympy():
    # Newton must start at or above the root: a start below it returns None
    # for an exact power.  The start comes from the root of n's top bits,
    # so exact powers near the norm's cap, and their neighbours, check it.
    cases = list(_root_cases())
    assert len(cases) == 292
    for n, k in cases:
        root, exact = sympy.integer_nthroot(n, k)
        assert _integer_root(n, k) == (root if exact else None), (n.bit_length(), k)
    rng = random.Random(3)
    for k in (3, 5):
        r = rng.getrandbits(262144 // k)
        assert _integer_root(r**k, k) == r, k
        assert _integer_root(r**k - 1, k) is None and _integer_root(r**k + 1, k) is None, k


def test_nonunit_candidate_skips_quotient_claims(ctx7):
    B = ExactElement.from_integer(7, 7)
    b = CandidateBundle(ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3], B=B)
    rep = verify_negative_candidate(b)
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["semi-primary"].holds is False
    assert by_id["norm-shape"].holds is True  # 7^6 * 1^7 has the right shape
    for cid in ("twist-local-pth-power", "twist-valuation", "eigen-expansion"):
        assert by_id[cid].holds is None
        assert "not a unit" in by_id[cid].data["skipped"]
    assert not rep.overall


def real_witness_bundle(ctx, two_m=2, b=2, twist=0):
    """B = z^twist * W * b^p with eta = W^2, beta = b^2; identities exact."""
    p = ctx.p
    W = eigen_project_unit_exact(ctx, 2, two_m)
    B = W * b**p
    if twist:
        zc = [0] * (p - 1)
        zc[twist] = 1  # the basis is 1, z, ..., z^(p-2)
        B = B * ExactElement(p, zc)
    return CandidateBundle(
        ctx=ctx,
        K=2,
        parity="negative",
        mu=ctx.upow[3],
        B=B,
        eta=W * W,
        beta=ExactElement.from_integer(p, b * b),
    )


def test_b_prime_trivial_witnesses(ctx7):
    one = ExactElement.from_integer(7, 1)
    b = CandidateBundle(
        ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3],
        B=one, eta=one, beta=one,
    )
    rep = verify_b_prime(b)
    assert rep.overall
    ids = [c.claim_id for c in rep.claims]
    assert ids == [
        "witness-product",
        "witness-real",
        "adjusted-local-pth-power",
        "adjusted-valuation",
    ]


def test_b_prime_real_product_passes(ctx7):
    rep = verify_b_prime(real_witness_bundle(ctx7))
    assert rep.overall
    by_id = {c.claim_id: c for c in rep.claims}
    # B real makes B' = b^(2p), a p-th power, so the valuation claim skips
    assert by_id["adjusted-valuation"].holds is None
    assert by_id["adjusted-local-pth-power"].holds is True


def test_b_prime_consistent_but_wrong_fails_claims(ctx7):
    """A root-of-unity twist keeps both witness identities exact while
    breaking the adjusted element's congruences: claims fail, no raise."""
    rep = verify_b_prime(real_witness_bundle(ctx7, twist=1))
    assert not rep.overall
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["witness-product"].holds is True
    assert by_id["adjusted-local-pth-power"].holds is False
    assert by_id["adjusted-valuation"].holds is False


def test_b_prime_corrupted_witness_raises(ctx7):
    good = real_witness_bundle(ctx7)
    bad_eta = good.eta + ExactElement.from_integer(7, 7)
    bad = CandidateBundle(
        ctx=ctx7, K=2, parity="negative", mu=good.mu,
        B=good.B, eta=bad_eta, beta=good.beta,
    )
    with pytest.raises(WitnessInvalidError, match="B \\* conj\\(B\\)"):
        verify_b_prime(bad)


def test_preconditions_raise(ctx7):
    pos = synthetic_unit_bundle(ctx7, 2, 2)
    with pytest.raises(PreconditionError, match="parity"):
        verify_negative_candidate(pos)
    with pytest.raises(PreconditionError, match="parity"):
        verify_b_prime(pos)
    shallow = CandidateBundle(
        ctx=ctx7, K=1, parity="positive", mu=2, B=pos.B
    )
    with pytest.raises(PreconditionError, match="K >= 2"):
        verify_positive_candidate(shallow)
    neg = CandidateBundle(
        ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3],
        B=ExactElement.from_integer(7, 1),
    )
    with pytest.raises(PreconditionError, match="no eta/beta"):
        verify_b_prime(neg)


@pytest.mark.parametrize(
    "case", ["b_prime-no-witnesses", "b_prime-broken-eta", "positive-given-negative"]
)
def test_refusal_order(ctx7, monkeypatch, case):
    """Parity before K, and K before the witnesses and their exact products."""
    good = real_witness_bundle(ctx7)
    shallow = dataclasses.replace(good, K=1)
    broken = dataclasses.replace(shallow, eta=good.eta + ExactElement.from_integer(7, 7))
    verify, bundle, message = {
        "b_prime-no-witnesses": (
            verify_b_prime,
            dataclasses.replace(shallow, eta=None, beta=None),
            "verify_b_prime: verification needs K >= 2 (congruence depth p+1), got K=1",
        ),
        "b_prime-broken-eta": (
            verify_b_prime,
            broken,
            "verify_b_prime: verification needs K >= 2 (congruence depth p+1), got K=1",
        ),
        "positive-given-negative": (
            verify_positive_candidate,
            shallow,
            "verify_positive_candidate: bundle has parity 'negative', needs 'positive'",
        ),
    }[case]

    def no_product(*_):
        raise AssertionError("an exact product ran before the refusal")

    monkeypatch.setattr(ExactElement, "__mul__", no_product)
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        verify(bundle)


def test_outcome_taxonomy_is_distinguishable(ctx7):
    """Theorem violation, invalid witness, and precondition failure are
    three different events with three different signatures."""
    good = real_witness_bundle(ctx7)

    violation = verify_b_prime(real_witness_bundle(ctx7, twist=1))
    assert violation.overall is False  # report, not exception

    with pytest.raises(WitnessInvalidError):
        verify_b_prime(
            CandidateBundle(
                ctx=ctx7, K=2, parity="negative", mu=good.mu,
                B=good.B + ExactElement.from_integer(7, 7),
                eta=good.eta, beta=good.beta,
            )
        )
    with pytest.raises(PreconditionError):
        verify_b_prime(
            CandidateBundle(
                ctx=ctx7, K=1, parity="negative", mu=good.mu,
                B=good.B, eta=good.eta, beta=good.beta,
            )
        )
    assert not issubclass(WitnessInvalidError, PreconditionError)
    assert not issubclass(PreconditionError, WitnessInvalidError)


def test_verification_deterministic():
    b1 = synthetic_unit_bundle(new_context(11), 2, 4, k=2, c=3)
    b2 = synthetic_unit_bundle(new_context(11), 2, 4, k=2, c=3)
    assert report_json(verify_positive_candidate(b1)) == report_json(
        verify_positive_candidate(b2)
    )


def test_corruption_always_detected():
    rng_bumps = [1, 2, 3]
    b = synthetic_unit_bundle(new_context(7), 2, 4, k=2, c=2)
    assert verify_positive_candidate(b).overall
    for i, bump in enumerate(rng_bumps):
        coeffs = list(b.B.coeffs)
        coeffs[i] += bump
        corrupt = CandidateBundle(
            ctx=b.ctx, K=b.K, parity=b.parity, mu=b.mu,
            B=ExactElement(7, coeffs),
        )
        assert not verify_positive_candidate(corrupt).overall, (i, bump)


# ------------------------------------------------- decimals past 4300 digits


def test_decimal_helpers_match_decimal_module():
    # decimal converts ints exactly and without CPython's int/str digit
    # limit, so it is an independent oracle for the limit-free helpers.
    import decimal

    for digits in (1, 3999, 4000, 4001, 4300, 4301, 8001, 12345, _COEFF_MAX_DIGITS):
        for n in (10 ** (digits - 1), 10**digits - 1, 7 ** int(digits * 1.18)):
            for m in (n, -n):
                text = str(decimal.Decimal(m))
                assert _decimal_str(m) == text
                assert _decimal_int(text) == m
                assert _decimal_int(" +" + text.lstrip("-") + "\n") == abs(m)
    assert _decimal_str(0) == "0" and _decimal_int("-0") == 0


def test_coefficient_cap_follows_the_norm_limit():
    assert _COEFF_MAX_BITS == 2**17 + 1
    assert len(_decimal_str(2**_COEFF_MAX_BITS)) == _COEFF_MAX_DIGITS
    # at p=3 the constant 2^(2^17) - 1 has a norm bound of exactly 2^18
    # bits, the norm's limit, and fits under the coefficient cap
    c = 2 ** (2**17) - 1
    assert _norm_bound(ExactElement.from_integer(3, c)).bit_length() == 2**18
    assert c.bit_length() <= _COEFF_MAX_BITS


def _big_coeff_doc(B0):
    doc = good_doc()
    doc["B"] = [B0] + ["0"] * 5
    return doc


def test_load_bundle_reads_coefficients_past_4300_digits():
    big = "7" * 5000
    b = load_bundle(json.dumps(_big_coeff_doc(big)))
    assert b.B.coeffs[0] == _decimal_int(big)
    assert bundle_to_json(b)["B"][0] == big
    # the same value as a bare JSON integer literal
    text = json.dumps(_big_coeff_doc("X")).replace('"X"', big)
    assert load_bundle(text).B == b.B


def test_load_bundle_refuses_coefficients_over_the_cap():
    over = "9" * (_COEFF_MAX_DIGITS + 1)
    with pytest.raises(BundleError, match=r"entry 0: .*over the limit") as info:
        load_bundle(_big_coeff_doc(over))
    assert len(str(info.value)) < 200
    text = json.dumps(_big_coeff_doc("X")).replace('"X"', over)
    with pytest.raises(BundleError, match="over the limit") as info:
        load_bundle(text)
    assert len(str(info.value)) < 200
    with pytest.raises(BundleError, match=f"over the limit of {_COEFF_MAX_BITS} bits"):
        load_bundle(_big_coeff_doc(2**_COEFF_MAX_BITS))
    assert load_bundle(_big_coeff_doc(2**_COEFF_MAX_BITS - 1)).B.coeffs[0] > 0


def test_load_bundle_echoes_bad_values_briefly():
    bad = "7" * 4999 + "x"
    with pytest.raises(BundleError, match="entry 0 is not a decimal integer") as info:
        load_bundle(_big_coeff_doc(bad))
    assert len(str(info.value)) < 200
    with pytest.raises(BundleError, match="'negative' or 'positive'") as info:
        load_bundle(good_doc(parity="p" * 5000))
    assert len(str(info.value)) < 200


def test_norm_claim_prints_roots_past_4300_digits():
    # B = eta * c^7 with c of 801 digits: the coefficients pass 4300 digits
    # and the norm-shape root c^6 has 4801.
    ctx = new_context(7)
    c = 10**800 + 1
    b = synthetic_unit_bundle(ctx, 2, 2, c=c)
    assert max(abs(x) for x in b.B.coeffs).bit_length() > 4300 * 3.33
    b = load_bundle(json.dumps(bundle_to_json(b)))
    report = verify_positive_candidate(b)
    assert report.overall
    norm = next(c for c in report.claims if c.claim_id == "norm-shape")
    assert norm.data["root"] == _decimal_str(c**6)
    assert norm.data["p_free_part_digits"] == 42 * 800 + 1


# -- load_bundle on fuzzed JSON objects ------------------------------------

_ODD_STRINGS = [
    "12x", "0x1f", "1e5", "1.5", "", "-", "+-3", "NaN", "Infinity", "1 2",
    "\u0663", "\u00b2", "9" * 50000, "-" + "9" * 40000,
]
_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=8)
    | st.integers(-(2**80), 2**80)
    | st.sampled_from(_ODD_STRINGS)
    | st.sampled_from([0, 1, 2, 3, 13, 2039, 2049, 2053, 10**30, -7, 2**14, 2**63, 2**14000])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_FIELDS = ("p", "K", "parity", "mu", "B", "eta", "beta", "label", "extra")


@functools.cache
def _fuzz_bases() -> tuple[dict, dict]:
    return good_doc(), bundle_to_json(negative_bundle())


@st.composite
def fuzzed_bundles(draw):
    """A valid bundle with up to four fields deleted, replaced, or with one
    list entry replaced, by arbitrary JSON values."""
    doc = dict(draw(st.sampled_from(_fuzz_bases())))
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=4, unique=True)):
        action = draw(st.sampled_from(["delete", "replace", "entry"]))
        if action == "delete":
            doc.pop(name, None)
        elif action == "entry" and isinstance(doc.get(name), list) and doc[name]:
            doc[name] = list(doc[name])
            doc[name][draw(st.integers(0, len(doc[name]) - 1))] = draw(_JSON)
        else:
            doc[name] = draw(_JSON)
    return doc


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=fuzzed_bundles(), as_text=st.booleans())
def test_load_bundle_fuzz_raises_only_bundle_error(doc, as_text):
    try:
        bundle = load_bundle(json.dumps(doc) if as_text else doc)
    except BundleError:
        return
    assert isinstance(bundle, CandidateBundle)
