"""verify decides every claim mod p^2, and K reaches only one reported field.

Every claim that verify makes is decided mod p^2: reduction mod p^2 is a
ring homomorphism, and the depths the claims read (p+1 for the twisted
local p-th power, p for primary, 2 for semi-primary, p-1 for the
expansion) are all below 2(p-1).  A measured valuation is read only when
its element is not primary, and is then below p.  The one field that reads
the bundle's K is the semi-primary valuation of B, which reaches the K=2
cap when B = 0 mod p^2.  These tests compare verify, at K = 2 and above,
against oracles.verify_full_k, which evaluates every claim at the bundle's
own K, on pinned and on random bundles, and check with a spy that the
claims' products run mod p^2 and that no claim takes an inverse.  The
witness path reads the ratio's element, as B' = B^2/eta = C * beta^p: its
claims are C's, and eta enters only the witness identities: conj(eta) = eta
exactly, and B * conj(B) = eta * beta^p by values at split primes, with no
exact product on any path.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from pisingular import (
    CandidateBundle,
    ExactElement,
    RingElement,
    eigen_project_unit,
    eigenvector_element,
    from_integer,
    new_context,
    synthetic_unit_bundle,
    verify_b_prime,
    verify_negative_candidate,
    verify_positive_candidate,
    verify_unit_relation,
)
from pisingular import norm, ring, units, verifier
from pisingular.verifier import _verify_bundle

from test_verifier import real_witness_bundle

PRIMES = (7, 11, 13, 23, 29)
DEEPER = (3, 5)
VERIFY = {
    "negative": verify_negative_candidate,
    "b_prime": verify_b_prime,
    "positive": verify_positive_candidate,
}


def _paths(bundle) -> list[str]:
    """The verify paths that the verify command runs on bundle."""
    if bundle.parity == "positive":
        return ["positive"]
    return ["negative"] + (["b_prime"] if bundle.eta is not None else [])


def _verdicts(bundle) -> list[dict]:
    """The JSON, refs left out, of every path that the verify command runs."""
    docs = [VERIFY[path](bundle).to_json_dict() for path in _paths(bundle)]
    for doc in docs:
        for c in doc["claims"]:
            del c["ref"]
    return docs


def _check(bundle) -> list[dict]:
    """Assert that verify agrees with the full-K reference on bundle."""
    docs = _verdicts(bundle)
    want = [oracles.verify_full_k(bundle, path) for path in _paths(bundle)]
    assert docs == want, (bundle.label, bundle.K)
    return docs


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


def test_verify_matches_the_full_k_reference():
    compared = 0
    for bundle in _bundles():
        for K in DEEPER:
            _check(replace(bundle, K=K))
            compared += 1
    assert compared == 438


@pytest.mark.parametrize("K", (2,) + DEEPER)
def test_the_semi_primary_valuation_of_b_zero_mod_p2(K):
    # B = 0 mod p^2 reads "cap" at K=2 and its valuation 2(p-1) at larger
    # K, the one field that reads K; the quotient claims are skipped alike
    b = synthetic_unit_bundle(new_context(7), 2, 2, k=1, c=2)
    (doc,) = _check(replace(b, B=b.B * 49, K=K))
    assert doc["claims"][0]["data"] == {"valuation": "cap" if K == 2 else 12}


@pytest.mark.parametrize("K", [2, 3, 6, 12])
def test_multiples_of_p(K):
    # B * 7^k at p=7, both parities: the semi-primary valuation is 6k below
    # the cap 6K (the witnesses no longer fit B, so they are left out)
    ctx = new_context(7)
    for b in (synthetic_unit_bundle(ctx, 2, 2, k=1, c=2), real_witness_bundle(ctx)):
        for k in range(6):
            (doc,) = _check(replace(b, B=b.B * 7**k, K=K, eta=None, beta=None))
            assert doc["claims"][0]["data"] == {"valuation": 6 * k if k < K else "cap"}


def test_the_deepest_bundles_at_p23():
    # K = 744 is the most that K*(p-1) <= 2^14 allows at p=23
    ctx = new_context(23)
    for b in (synthetic_unit_bundle(ctx, 2, 18, k=1, c=2), real_witness_bundle(ctx, twist=1)):
        _check(replace(b, K=744))


@pytest.mark.parametrize("p", [7, 11])
def test_a_unit_past_the_k2_cap(p):
    # B = 1 + p^3 w has v(B^(p-1) - 1) >= 3(p-1), past the K=2 cap: it is
    # primary, so no verdict reports that valuation, at any K
    ctx = new_context(p)
    w = [(3 * i + 1) % p for i in range(p - 1)]
    B = ExactElement(p, [1 + p**3 * w[0]] + [p**3 * c for c in w[1:]])
    for parity, s in (("positive", 2), ("negative", 3)):
        for K in (2,) + DEEPER:
            b = replace(synthetic_unit_bundle(ctx, 2, 2), parity=parity, mu=ctx.upow[s], B=B, K=K)
            (doc,) = _check(b)
            assert doc["claims"][3]["data"] == {"skipped": f"{'B' if s == 2 else 'C'} is primary"}
    Bq = B.reduce(ctx, 5)
    assert oracles._valuation(oracles.power(Bq, p - 1) - from_integer(ctx, 5, 1)) == 3 * (p - 1)


def _record(monkeypatch) -> list:
    """The modulus of every ring product from here on, and "invert" for
    every RingElement.invert call, x ** -e included."""
    real, real_invert, seen = ring._fold_mul, RingElement.invert, []

    def spy(a, b, p, modulus):
        seen.append(modulus)
        return real(a, b, p, modulus)

    def invert(self):
        seen.append("invert")
        return real_invert(self)

    monkeypatch.setattr(ring, "_fold_mul", spy)
    monkeypatch.setattr(RingElement, "invert", invert)
    return seen


def test_claims_run_mod_p_squared(monkeypatch):
    # at K=5 every product of the three paths and of the verify command's
    # one pass is a truncated product mod p^2; none is exact (modulus None),
    # as the witness identity is decided by values at split primes
    ctx = new_context(7)
    unit = replace(synthetic_unit_bundle(ctx, 2, 2, k=1, c=2), K=5)
    witness = replace(real_witness_bundle(ctx), K=5)
    seen = _record(monkeypatch)
    verify_positive_candidate(unit)
    verify_negative_candidate(witness)
    assert set(seen) == {49}
    for verify in (verify_b_prime, _verify_bundle):
        del seen[:]
        verify(witness)
        assert set(seen) == {49}, verify


def test_the_twisted_quotient_runs_mod_p_squared(monkeypatch):
    # verify_unit_relation forms sigma(eta) * eta^(p-mu) mod p^2, and reads
    # v(eta^(p-1) - 1) at eta's own K
    p, K = 7, 5
    ctx = new_context(p)
    eta = RingElement(ctx, K, [1 + p**3] + [p**3] * (p - 2))
    seen, inside = _record(monkeypatch), []
    real = units._twisted_quotient

    def quotient(x, mu):
        start = len(seen)
        out = real(x, mu)
        inside.extend(seen[start:])
        return out

    monkeypatch.setattr(units, "_twisted_quotient", quotient)
    rep = verify_unit_relation(eta, 2)
    assert inside and set(inside) == {p * p}
    assert p**K in seen
    # past the K=2 cap 2(p-1) and below the K=5 cap
    want = oracles._valuation(oracles.power(eta, p - 1) - from_integer(ctx, K, 1))
    assert rep.valuation_of_eta_pm1 == want == 3 * (p - 1)
    assert rep.relation_holds and rep.local_pth_power


@pytest.mark.parametrize("K", [2, 5])
def test_no_claim_inverts(monkeypatch, K):
    # the three paths, high-range expansions included, and the twisted
    # relation multiply only: no RingElement.invert call, and so no x ** -e
    ctx = new_context(7)
    unit = replace(synthetic_unit_bundle(ctx, 2, 4, k=1, c=2), K=K)
    witness = replace(real_witness_bundle(ctx), K=K)
    eta, _ = eigen_project_unit(ctx, K, 2, 4)
    seen = _record(monkeypatch)
    verify_positive_candidate(unit)
    verify_negative_candidate(witness)
    verify_b_prime(witness)
    verify_unit_relation(eta, 4)
    assert seen and "invert" not in seen


# Random bundles against the full-K reference: dense B, planted expansions
# in the high range, where the sign of delta tells the power paths' Y = 2 - Z
# from Z, and real witnesses.  Each draws its prime, parity, mu and K.
RANDOM = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def _bundle(data, ctx, parity, B, high=False, **witnesses) -> CandidateBundle:
    """A bundle of B at a drawn K in {2, 3, 4} and a drawn mu = u^s of the
    parity, s in [2, p-2], past (p-1)/2 when high."""
    p = ctx.p
    odd = parity == "negative"
    low = (p - 1) // 2 + 1 if high else 2
    s = data.draw(st.sampled_from([s for s in range(low, p - 1) if s % 2 == odd]))
    K = data.draw(st.sampled_from((2, 3, 4)))
    return CandidateBundle(ctx=ctx, K=K, parity=parity, mu=ctx.upow[s], B=B, **witnesses)


def _coeffs(data, p: int, bits: int) -> list[int]:
    entries = st.integers(1 - 2**bits, 2**bits - 1)
    return data.draw(st.lists(entries, min_size=p - 1, max_size=p - 1))


@RANDOM
@given(data=st.data())
def test_dense_random_bundles(data):
    # 1- to 40-bit coefficients; about 1 in p is not a unit
    ctx = new_context(data.draw(st.sampled_from(SMALL_PRIMES)))
    parity = data.draw(st.sampled_from(("negative", "positive")))
    B = ExactElement(ctx.p, _coeffs(data, ctx.p, data.draw(st.integers(1, 40))))
    _check(_bundle(data, ctx, parity, B))


@RANDOM
@given(data=st.data())
def test_planted_expansions(data):
    # B = c * (1 - delta * e_mu) + p * w with s > (p-1)/2: C and B^(p-1)
    # expand along e_mu mod lam^(p-1), with delta times 2 and -1
    ctx = new_context(data.draw(st.sampled_from(SMALL_PRIMES[1:])))
    p = ctx.p
    parity = data.draw(st.sampled_from(("negative", "positive")))
    bundle = _bundle(data, ctx, parity, None, high=True)
    e = eigenvector_element(ctx, 1, bundle.mu).coeff_list()
    c = data.draw(st.integers(1, 2**20).filter(lambda c: c % p))
    delta = data.draw(st.integers(0, p - 1))
    w = _coeffs(data, p, data.draw(st.integers(1, 20)))
    planted = [c * ((i == 0) - delta * ei) + p * wi for i, (ei, wi) in enumerate(zip(e, w))]
    _check(replace(bundle, B=ExactElement(p, planted)))


def _witness_bundle(data) -> CandidateBundle:
    """B = z^t * g * beta^((p+1)/2), eta = g^2 * beta with g, beta real units:
    B * conj(B) = eta * beta^p and conj(eta) = eta hold exactly."""
    ctx = new_context(data.draw(st.sampled_from(SMALL_PRIMES)))
    p = ctx.p
    g, beta = (ExactElement(p, _coeffs(data, p, 3)) for _ in range(2))
    g, beta = g + g.conjugate(), beta + beta.conjugate()
    assume(all(sum(x.coeff_list()) % p for x in (g, beta)))
    zt = [0] * (p - 1)
    zt[data.draw(st.integers(0, p - 2))] = 1
    B = ExactElement(p, zt) * g * beta ** ((p + 1) // 2)
    return _bundle(data, ctx, "negative", B, eta=g * g * beta, beta=beta)


@RANDOM
@given(data=st.data())
def test_real_witnesses(data):
    _check(_witness_bundle(data))


@RANDOM
@given(data=st.data())
def test_b_prime_claims_are_the_ratios(data):
    # B' = B^2/eta = C * beta^p, and beta is a unit: on test_real_witnesses'
    # bundles, B''s two claims are C's twist claims, holds and data alike;
    # only the skip reason names B' for C
    bundle = _witness_bundle(data)
    ratio = verify_negative_candidate(bundle).to_json_dict()["claims"][2:4]
    adjusted = verify_b_prime(bundle).to_json_dict()["claims"][2:]
    assert [c["id"] for c in adjusted] == ["adjusted-local-pth-power", "adjusted-valuation"]
    for c, a in zip(ratio, adjusted, strict=True):
        assert a["holds"] == c["holds"]
        primary = c["data"] == {"skipped": "C is primary"}
        assert a["data"] == ({"skipped": "B' is primary"} if primary else c["data"])


def test_eta_enters_only_the_identities(monkeypatch):
    # verify_b_prime reduces B alone, mod p^2; eta takes part in no exact
    # product, in one conjugation (conj(eta) = eta), and in the identity
    # evaluated at split primes, each of whose evaluations carries eta and
    # beta; the claims run the negative path's truncated products, as both
    # derive C * conj(B)^p.  The verify command's pass evaluates B once, at
    # the norm's primes, which cover the identity's run here, and reads C's
    # element once for both paths.
    p = 7
    bundle = replace(real_witness_bundle(new_context(p), twist=1), K=5)
    eta = bundle.eta
    names = {id(bundle.B.coeffs): "B", id(eta.coeffs): "eta", id(bundle.beta.coeffs): "beta"}
    reduced, touched, evaluated = [], [], []
    real_reduce, real_mul, real_galois, real_evaluate = (
        ExactElement.reduce, ExactElement.__mul__, ExactElement.galois_apply, norm._evaluate
    )

    def reduce(self, ctx, K):
        reduced.append((self, K))
        return real_reduce(self, ctx, K)

    def mul(self, other):
        if self is eta or other is eta:
            touched.append("mul")
        return real_mul(self, other)

    def galois(self, j):
        if self is eta:
            touched.append(("galois", j))
        return real_galois(self, j)

    def evaluate(vectors, *args):
        evaluated.append([names[id(v)] for v in vectors])
        return real_evaluate(vectors, *args)

    monkeypatch.setattr(ExactElement, "reduce", reduce)
    monkeypatch.setattr(ExactElement, "__mul__", mul)
    monkeypatch.setattr(ExactElement, "galois_apply", galois)
    monkeypatch.setattr(norm, "_evaluate", evaluate)
    monkeypatch.setattr(verifier, "_evaluate", evaluate)
    seen = _record(monkeypatch)
    verify_negative_candidate(bundle)
    ratio = list(seen)
    assert evaluated == [["B"]] and touched == []
    del seen[:], reduced[:], evaluated[:]
    verify_b_prime(bundle)
    assert len(reduced) == 1 and reduced[0][0] is bundle.B and reduced[0][1] == 2
    assert touched == [("galois", p - 1)]
    assert evaluated and all(e == ["B", "eta", "beta"] for e in evaluated)
    assert ratio and seen == ratio == [p * p] * len(ratio)
    del seen[:], evaluated[:], touched[:]
    _verify_bundle(bundle)
    assert touched == [("galois", p - 1)]
    assert evaluated == [["B"], ["eta", "beta"]]
    assert seen == ratio
