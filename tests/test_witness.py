"""The witness identity B * conj(B) = eta * beta^p decided by values at split
primes, and the verify command's one pass over a negative bundle.

verifier._witness_sides evaluates both sides at r^j, j = 1 .. p-1, for each
prime q of the shortest run of split primes whose product M passes the
coefficient bound H = 4 max(|B|_1^2, |eta|_1 |beta|_1^p).  These tests
compare it with the exact products of oracles.witness_identity on right
witnesses, on eta + 1, on a Galois-twisted B and on a corruption divisible
by every prime of the run but the last, with B's values given on a drawn
prefix of the run or not at all; then the refusal when the primes below
2^26 cannot cover H; then the verify command against the two public
reports joined, in both output modes.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from pisingular import (
    CandidateBundle,
    ExactElement,
    PreconditionError,
    VerdictReport,
    bundle_to_json,
    cyclotomic_unit_exact,
    eigen_project_unit_exact,
    new_context,
    norm_exact,
    verify_b_prime,
    verify_negative_candidate,
)
from pisingular import cli
from pisingular.norm import _crt_primes
from pisingular.verifier import _witness_sides

from conftest import split_primes

DRAWS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PRIMES = (5, 7, 11, 13, 23)


def _bound(B, eta, beta) -> int:
    p = B.p
    l1 = [sum(map(abs, x.coeffs)) for x in (B, eta, beta)]
    return 4 * max(l1[0] ** 2, l1[1] * l1[2] ** p)


def _z(p: int, i: int) -> ExactElement:
    coeffs = [0] * (p - 1)
    coeffs[i] = 1
    return ExactElement(p, coeffs)


def _real(data, p: int, bits: int) -> ExactElement:
    x = ExactElement(p, data.draw(st.lists(st.integers(-(2**bits), 2**bits),
                                           min_size=p - 1, max_size=p - 1)))
    return x + x.conjugate()


def _sides(data, B, eta, beta) -> bool:
    """_witness_sides with B's values from the norm on a drawn prefix of
    the norm's run, or none."""
    p, known = B.p, None
    if data.draw(st.booleans()):
        known = norm_exact(B, values=True)[1]
        known = known[: data.draw(st.integers(0, known.shape[0]))]
    ctx = new_context(p)
    bundle = CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3],
                             B=B, eta=eta, beta=beta)
    return _witness_sides(bundle, known)


def _witnesses(data):
    """B = z^t * g * beta^((p+1)/2), eta = g^2 * beta for real g and beta."""
    p = data.draw(st.sampled_from(PRIMES))
    g, beta = (_real(data, p, data.draw(st.integers(1, 12))) for _ in range(2))
    assume(ExactElement.from_integer(p, 0) not in (g, beta))
    B = _z(p, data.draw(st.integers(0, p - 2))) * g * beta ** ((p + 1) // 2)
    return B, g * g * beta, beta


@DRAWS
@given(data=st.data())
def test_right_witnesses(data):
    B, eta, beta = _witnesses(data)
    assert oracles.witness_identity(B, eta, beta)
    assert _sides(data, B, eta, beta)


@DRAWS
@given(data=st.data())
def test_eta_plus_one(data):
    B, eta, beta = _witnesses(data)
    eta = eta + ExactElement.from_integer(B.p, 1)
    assert _sides(data, B, eta, beta) is oracles.witness_identity(B, eta, beta) is False


@DRAWS
@given(data=st.data())
def test_a_galois_twisted_b(data):
    # sigma_a(B) * conj(sigma_a(B)) = sigma_a(eta * beta^p), which is
    # eta * beta^p only when sigma_a fixes it
    B, eta, beta = _witnesses(data)
    B = B.galois_apply(data.draw(st.integers(2, B.p - 1)))
    assert _sides(data, B, eta, beta) is oracles.witness_identity(B, eta, beta)


@DRAWS
@given(data=st.data())
def test_a_corruption_only_the_last_prime_sees(data):
    # beta = 1 and eta = B * conj(B) + c * z^i, with c the product of every
    # prime of the run but the last: D = -c * z^i is 0 mod all of them, so
    # a run one prime short would pass it
    p = data.draw(st.sampled_from(PRIMES))
    B = ExactElement(p, data.draw(st.lists(st.integers(-(2**40), 2**40),
                                           min_size=p - 1, max_size=p - 1)))
    one, i = ExactElement.from_integer(p, 1), data.draw(st.integers(0, p - 2))
    q = [qi for qi, _ in itertools.islice(split_primes(p), 12)]
    for k in range(2, len(q) + 1):
        c = math.prod(q[: k - 1])
        eta = B * B.conjugate() + _z(p, i) * c
        run = _crt_primes(p, _bound(B, eta, one))[1][0]
        if run.size == k:
            break
    else:
        pytest.fail("no run ends where the corruption is seen")
    assert run.tolist() == q[:k]
    assert _sides(data, B, eta, one) is oracles.witness_identity(B, eta, one) is False


def test_the_bound_past_the_primes_is_refused(tmp_path):
    # at p=2039 the primes q = 1 (mod p) below 2^26 give about 47500 bits;
    # eta = 2^60000 makes H = 2^60002
    p = 2039
    ctx = new_context(p)
    one = ExactElement.from_integer(p, 1)
    bundle = CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=one,
                             eta=ExactElement.from_integer(p, 2**60000), beta=one)
    message = (
        "witness identity: its bound H = 4 max(|B|_1^2, |eta|_1 |beta|_1^p) has 60003 "
        "bits, more than the primes q = 1 (mod 2039) below 2^26 cover"
    )
    with pytest.raises(PreconditionError) as info:
        verify_b_prime(bundle)
    assert str(info.value) == message
    code, out, err = _verify(bundle, ("--json",), tmp_path / "bundle.json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- the verify command's one pass -----------------------------------------


def _two_calls(bundle) -> VerdictReport:
    """The verify command's report as the two public paths give it."""
    report = verify_negative_candidate(bundle)
    if bundle.eta is not None:
        extra = verify_b_prime(bundle)
        report = VerdictReport(report.overall and extra.overall, report.claims + extra.claims)
    return report


def _verify(bundle, mode, path) -> tuple:
    """(exit code, stdout, stderr) of verify on bundle written to path, in
    process."""
    path.write_text(json.dumps(bundle_to_json(bundle)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--file", str(path), *mode])
    return code, out.getvalue(), err.getvalue()


def _negative(p: int, s: int, twist: int = 0) -> CandidateBundle:
    """The verify workload's negative bundle: B = z^t * gamma * beta^((p+1)/2),
    gamma = W * 2^p, beta = xi_2 and eta = gamma^2 * beta."""
    ctx = new_context(p)
    gamma = eigen_project_unit_exact(ctx, 2, 2) * 2**p
    beta = cyclotomic_unit_exact(p, 2)
    B = _z(p, twist) * gamma * beta ** ((p + 1) // 2)
    return CandidateBundle(ctx=ctx, K=2, parity="negative", mu=ctx.upow[s], B=B,
                           eta=gamma * gamma * beta, beta=beta)


def _cases():
    ctx7 = new_context(7)
    lam = _z(7, 1) - ExactElement.from_integer(7, 1)
    good = _negative(23, 19)
    wide = ExactElement(7, [2**50000] + [1] * 5)  # its norm bound is past the cap
    return {
        "primary C": (good, 0),
        "real witnesses": (_negative(23, 5, twist=3), 1),
        "high index": (_negative(29, 25, twist=1), 1),
        "no witnesses": (replace(good, eta=None, beta=None), 0),
        "non-unit B": (CandidateBundle(ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3],
                                       B=lam, eta=lam * lam.conjugate(),
                                       beta=ExactElement.from_integer(7, 1)), 3),
        "broken eta": (replace(good, eta=good.eta + ExactElement.from_integer(23, 1)), 3),
        "norm refusal and broken eta": (
            CandidateBundle(ctx=ctx7, K=2, parity="negative", mu=ctx7.upow[3], B=wide,
                            eta=ExactElement.from_integer(7, 2),
                            beta=ExactElement.from_integer(7, 1)), 2),
    }


@pytest.mark.parametrize("mode", [(), ("--json",)])
@pytest.mark.parametrize("case", list(_cases()))
def test_verify_joins_the_two_reports(tmp_path, monkeypatch, case, mode):
    bundle, code = _cases()[case]
    got = _verify(bundle, mode, tmp_path / "bundle.json")
    monkeypatch.setattr(cli, "_verify_bundle", _two_calls)
    want = _verify(bundle, mode, tmp_path / "bundle.json")
    assert got == want
    assert got[0] == code
