"""Claim-by-claim verification of singular-candidate bundles.

A bundle carries an exact element B of Z[z]/(Phi_p) proposed as a singular
candidate for the eigenvalue mu = u^s, together with optional exact
witnesses (eta, beta) for the real-product decomposition.  Verification
checks only necessary consequences: norm shape, semi-primarity, the
twisted local p-th power condition, the valuation dichotomy, and the
leading eigen-expansion.  A bundle that passes is "not refuted"; no
class-group membership is ever decided here.

The three verify paths are one claim loop, _verify, over a table of claim
specs.  A spec derives the element X of its path -- C = B/conj(B), the
witnesses' B' = B^2/eta, or B -- with the leading claims (semi-primary and
norm shape, or the witness identities).  The loop checks parity and K, then
makes the same claims on X (or X^(p-1)): the twisted local p-th power, the
valuation unless X is primary, and the eigen-expansion if the spec has one.

Three failure modes are kept distinct:

  * theorem violation  -- a claim evaluates false; reported in the verdict.
  * witness invalid    -- an exact witness identity fails; raises
                          WitnessInvalidError.
  * precondition       -- malformed input or unusable truncation level;
                          raises BundleError / PreconditionError.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .context import PrimeContext, new_context
from .eigen import expansion_matches
from .padic import (
    _lam_read,
    _val_json,
    is_locally_pth_power,
    is_primary,
    is_semi_primary,
    valuation,
)
from .ring import (
    _BLOCK_BYTES,
    _NORM_MAX_BITS,
    _P_LIMIT,
    ExactElement,
    RingElement,
    _dtype_for,
    _fold,
    _fold_mul,
    _power,
    from_integer,
    norm_exact,
)
from .units import _twisted_quotient, eigen_project_unit_exact

__all__ = [
    "BundleError",
    "PreconditionError",
    "WitnessInvalidError",
    "ClaimResult",
    "VerdictReport",
    "CandidateBundle",
    "load_bundle",
    "bundle_to_json",
    "synthetic_unit_bundle",
    "check_ppower_congruence",
    "verify_negative_candidate",
    "verify_b_prime",
    "verify_positive_candidate",
]


class BundleError(ValueError):
    """Bundle cannot be parsed or violates a structural invariant."""


class PreconditionError(ValueError):
    """Inputs are well-formed but outside an operation's contract."""


class WitnessInvalidError(Exception):
    """An exact witness identity failed; the bundle is self-inconsistent."""


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    ref: str
    holds: bool | None  # None = skipped
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "ref": self.ref,
            "holds": self.holds,
            "data": self.data,
        }


@dataclass(frozen=True)
class VerdictReport:
    overall: bool
    claims: tuple[ClaimResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "overall": self.overall,
            "claims": [c.to_json_dict() for c in self.claims],
        }


def _verdict(claims: list[ClaimResult]) -> VerdictReport:
    executed = [c.holds for c in claims if c.holds is not None]
    return VerdictReport(overall=all(executed), claims=tuple(claims))


def _skip(claim_id: str, ref: str, reason: str) -> ClaimResult:
    return ClaimResult(claim_id, ref, None, {"skipped": reason})


@dataclass(frozen=True)
class CandidateBundle:
    """One candidate: exact element, eigenvalue, parity, optional witnesses."""

    ctx: PrimeContext
    K: int
    parity: str
    mu: int
    B: ExactElement
    eta: ExactElement | None = None
    beta: ExactElement | None = None
    label: str = ""

    @property
    def index_s(self) -> int:
        return self.ctx.index_of(self.mu)

    @functools.cached_property
    def _B_reduced(self) -> tuple[RingElement, int | float]:
        """B mod p^K and its valuation, shared by the verify paths."""
        Bq = self.B.reduce(self.ctx, self.K)
        return Bq, valuation(Bq)


# Coefficients may have at most 2^17 + 1 bits.  Any B that the norm accepts
# fits: its coefficients are b_i = (1/p) sum_{j>=1} B(z^j) (z^(-ij) - z^j),
# so |b_i|^2 <= 4 (p-1) S / p^2 < 4 S/(p-1) with S = sum_j |B(z^j)|^2, and a
# norm bound (S/(p-1))^((p-1)/2) of at most 2^18 bits forces S/(p-1) < 2^(2^18).
_COEFF_MAX_BITS = _NORM_MAX_BITS // 2 + 1
_COEFF_MAX_DIGITS = math.floor(_COEFF_MAX_BITS * math.log10(2)) + 1  # digits of 2^bits
_INT_STR_CHUNK = 4000  # digits int() and str() convert under CPython's 4300 limit
# A bundle's truncation K may have K*(p-1), its precision in powers of lam,
# up to 2^14.  verify at that precision takes under a second up to p=257
# (p=23: K=744; p=101: K=163), against 5 s at p=23, K=5000; past p=1000 the
# cost is mostly p itself (p=2039: 0.8 s at K=2, 1.9-2.1 s at K=8).
_PRECISION_LIMIT = 2**14
# The p-th power campaign may have up to 10^4 trials.  Run in lockstep, a
# campaign at the cap takes about 0.4 s at p=7, 1.2 s at p=37, 4 s at p=101
# and 8 s at p=257 from a fresh process, and a trial 5.5-7 ms at p=1031, so
# about a minute there (K=2; the default 1000 trials take a tenth of that).
_TRIALS_LIMIT = 10**4
# The witness identity forms beta^p.  Each coefficient of beta^p is at most
# L^p in absolute value, L = sum |beta_i|: it is (1/p) sum_j beta(z^j)^p z^(-ij)
# over all p-th roots of unity z^j, and |beta(z^j)| <= L.  So beta^p has at
# most (p-1) * p * log2(L) bits in all, and a bundle may ask for 2^22.  xi_2
# (L = 2) fits at every p < 2049, with 4155482 bits at p=2039; there the
# whole witness check takes 2.2 s, and 1.3-2.1 s for a random beta at the
# cap at p = 37..257 (in process, shared 2-CPU x86-64 host).
_WITNESS_POWER_MAX_BITS = 2**22
_BUNDLE_FIELDS = ("p", "K", "parity", "mu", "B", "eta", "beta", "label")


def _check_p(name: str, p: int, error: type[ValueError] = PreconditionError) -> None:
    """Refuse p at or past _P_LIMIT; callers run it before new_context
    builds any table.  name leads the message: "--p", "bundle field 'p':"."""
    if p >= _P_LIMIT:
        raise error(
            f"{name} must be below {_P_LIMIT}, the limit of bundles and of the "
            f"exact norm, got {_echo(p)}"
        )


def _check_K(name: str, p: int, K: int, error: type[ValueError] = PreconditionError) -> None:
    """Refuse a truncation K past K*(p-1) <= _PRECISION_LIMIT."""
    if K * (p - 1) > _PRECISION_LIMIT:
        raise error(
            f"{name} must be at most {_PRECISION_LIMIT // (p - 1)} at p={p}, "
            f"so that K*(p-1) <= {_PRECISION_LIMIT}, got {_echo(K)}"
        )


def _digits_to_int(d: str) -> int:
    if len(d) <= _INT_STR_CHUNK:
        return int(d)
    k = len(d) // 2
    return _digits_to_int(d[:-k]) * 10**k + _digits_to_int(d[-k:])


def _decimal_int(s: str) -> int:
    """int(s) for decimal strings of up to _COEFF_MAX_DIGITS digits.

    Only [+-]?[0-9]+ in ASCII passes (int() also takes "1_000" and
    non-ASCII digits), after strip().  int() refuses more than 4300 digits (a
    process-wide limit, left alone here), so longer strings are converted in
    halves.  Raises BundleError over the digit cap and ValueError on a
    malformed string.  It is also the json.loads parse_int hook of load_bundle.
    """
    t = s.strip()
    digits = t[1:] if t[:1] in ("+", "-") else t
    if len(digits) > _COEFF_MAX_DIGITS:
        raise BundleError(
            f"a decimal integer of {len(digits)} digits is over the limit of "
            f"{_COEFF_MAX_DIGITS} digits (2^{_COEFF_MAX_BITS} has that many)"
        )
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {_echo(s)}")
    if len(t) <= _INT_STR_CHUNK:
        return int(t)
    return (-1 if t[0] == "-" else 1) * _digits_to_int(digits)


def _decimal_str(n: int) -> str:
    """str(n) for integers of any size, as above for int()."""
    if n < 0:
        return "-" + _decimal_str(-n)
    if n.bit_length() <= 3 * _INT_STR_CHUNK:  # under 4000 digits
        return str(n)
    k = int(n.bit_length() * math.log10(2)) // 2  # hi below keeps a digit
    hi, lo = divmod(n, 10**k)
    return _decimal_str(hi) + _decimal_str(lo).zfill(k)


def _echo(v) -> str:
    """A value for an error message, cut to its first 40 characters."""
    r = _decimal_str(v) if isinstance(v, int) else repr(v)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def _parse_coeffs(p: int, name: str, raw) -> ExactElement:
    if not isinstance(raw, list):
        raise BundleError(f"bundle field '{name}': expected a list of decimal strings")
    if len(raw) != p - 1:
        raise BundleError(
            f"bundle field '{name}': expected {p - 1} coefficients, got {len(raw)}"
        )
    vals = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise BundleError(
                f"bundle field '{name}': entry {i} must be an integer or "
                f"decimal string, got {type(v).__name__}"
            )
        if isinstance(v, str):
            try:
                v = _decimal_int(v)
            except BundleError as e:
                raise BundleError(f"bundle field '{name}': entry {i}: {e}") from None
            except ValueError:
                raise BundleError(
                    f"bundle field '{name}': entry {i} is not a decimal integer: "
                    f"{_echo(v)}"
                ) from None
        if v.bit_length() > _COEFF_MAX_BITS:
            raise BundleError(
                f"bundle field '{name}': entry {i} has {v.bit_length()} bits, over "
                f"the limit of {_COEFF_MAX_BITS} bits"
            )
        vals.append(v)
    return ExactElement(p, vals)


def load_bundle(source) -> CandidateBundle:
    """Parse and structurally validate a bundle (dict, JSON text, or path)."""
    if isinstance(source, CandidateBundle):
        return source
    if isinstance(source, (str, Path)):
        text = None
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            path = Path(source)
            try:
                text = path.read_text()
            except OSError as e:
                raise BundleError(f"cannot read bundle file {path}: {e}") from None
        else:
            text = source
        try:
            doc = json.loads(text, parse_int=_decimal_int)
        except json.JSONDecodeError as e:
            raise BundleError(f"bundle is not valid JSON: {e}") from None
    elif isinstance(source, dict):
        doc = source
    else:
        raise BundleError(f"cannot load a bundle from {type(source).__name__}")

    if not isinstance(doc, dict):
        raise BundleError("bundle JSON must be an object")
    for key in doc:
        if key not in _BUNDLE_FIELDS:
            raise BundleError(
                f"bundle field {_echo(key)}: unknown; a bundle has only the fields "
                + ", ".join(_BUNDLE_FIELDS)
            )
    for key in ("p", "K", "parity", "mu", "B"):
        if key not in doc:
            raise BundleError(f"bundle field '{key}': missing")

    p = doc["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise BundleError("bundle field 'p': must be an integer")
    _check_p("bundle field 'p':", p, BundleError)
    try:
        ctx = new_context(p)
    except ValueError as e:
        raise BundleError(f"bundle field 'p': {e}") from None

    K = doc["K"]
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise BundleError("bundle field 'K': must be an integer >= 1")
    _check_K("bundle field 'K':", p, K, BundleError)

    parity = doc["parity"]
    if parity not in ("negative", "positive"):
        raise BundleError(
            f"bundle field 'parity': must be 'negative' or 'positive', got {_echo(parity)}"
        )

    mu = doc["mu"]
    if not isinstance(mu, int) or isinstance(mu, bool) or not (0 <= mu < p):
        raise BundleError(f"bundle field 'mu': must be an integer in [0, {p})")
    if mu % p in (0, 1):
        raise BundleError(
            "bundle field 'mu': the trivial eigenvalue 1 (and 0) is excluded"
        )
    s = ctx.index_of(mu)
    if s == 1:
        raise BundleError(
            "bundle field 'mu': the eigenvalue u itself is excluded; no "
            "candidate survives the standard annihilator constraint at index 1"
        )
    if s % 2 != (parity == "negative"):
        raise BundleError(
            f"bundle field 'parity': {parity} parity needs an "
            f"{'odd' if parity == 'negative' else 'even'} power of u, but mu={mu} = u^{s}"
        )

    B = _parse_coeffs(p, "B", doc["B"])
    eta = beta = None
    if ("eta" in doc) != ("beta" in doc):
        raise BundleError("bundle fields 'eta'/'beta': must be supplied together")
    if "eta" in doc:
        eta = _parse_coeffs(p, "eta", doc["eta"])
        beta = _parse_coeffs(p, "beta", doc["beta"])
        bits = (p - 1) * p * math.log2(max(sum(map(abs, beta.coeffs)), 1))
        if bits > _WITNESS_POWER_MAX_BITS:
            raise BundleError(
                f"bundle field 'beta': beta^p may need about {bits:.0f} bits, over the "
                f"limit of {_WITNESS_POWER_MAX_BITS} bits ((p-1) * p * log2(sum |beta_i|))"
            )
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise BundleError("bundle field 'label': must be a string")
    return CandidateBundle(
        ctx=ctx, K=K, parity=parity, mu=mu, B=B, eta=eta, beta=beta, label=label
    )


def bundle_to_json(bundle: CandidateBundle) -> dict:
    """JSON-ready dict using decimal strings for all coefficients."""
    doc = {
        "p": bundle.ctx.p,
        "K": bundle.K,
        "parity": bundle.parity,
        "mu": bundle.mu,
        "B": [_decimal_str(c) for c in bundle.B.coeffs],
        "label": bundle.label,
    }
    if bundle.eta is not None:
        doc["eta"] = [_decimal_str(c) for c in bundle.eta.coeffs]
        doc["beta"] = [_decimal_str(c) for c in bundle.beta.coeffs]
    return doc


def synthetic_unit_bundle(
    ctx: PrimeContext,
    a: int,
    two_m: int,
    k: int = 1,
    c: int = 1,
    K: int = 2,
    label: str = "",
) -> CandidateBundle:
    """Positive-parity bundle built from a projected unit: B = eta^k * c^p.

    Multiplying by a rational p-th power preserves every verified claim, so
    these bundles exercise the full checker surface and must pass.
    """
    if k % ctx.p == 0 or c % ctx.p == 0:
        raise ValueError("k and c must be coprime to p")
    eta = eigen_project_unit_exact(ctx, a, two_m)
    B = (eta**k) * (c**ctx.p)
    return CandidateBundle(
        ctx=ctx,
        K=K,
        parity="positive",
        mu=ctx.upow[two_m],
        B=B,
        label=label or f"unit p={ctx.p} a={a} 2m={two_m} k={k} c={c}",
    )


def _integer_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def _draw_residues(rng: random.Random, modulus: int, n: int) -> list[int]:
    """n draws of rng.randrange(modulus), by the same rejection loop on
    rng.getrandbits that randrange runs, so the same stream, with no
    Python frame of randrange per residue."""
    k = modulus.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(n):
        r = bits(k)
        while r >= modulus:
            r = bits(k)
        out.append(r)
    return out


def _random_unit(p: int, modulus: int, rng: random.Random) -> list[int]:
    """p-1 residues mod modulus, drawn again while their sum is 0 mod p."""
    while True:
        coeffs = _draw_residues(rng, modulus, p - 1)
        if sum(coeffs) % p != 0:
            return coeffs


def check_ppower_congruence(
    ctx: PrimeContext, K: int = 2, trials: int = 1000, seed: int = 1
) -> VerdictReport:
    """Randomized check that congruent units get congruent p-th powers.

    Samples units x and perturbations y = x + lam*g, then requires
    v(x^p - y^p) >= p+1.  Fixed seed makes the run bit-reproducible: for
    each trial in turn, x's p-1 residues mod p^K (the whole vector drawn
    again while their sum is 0 mod p, i.e. while x is not a unit), then g's
    p-1 residues.

    The trials run in lockstep, in blocks whose rows of [x; y] stay within
    _BLOCK_BYTES: y = x + z*g - g by one fold, one square-and-multiply chain
    (ring._power over ring._fold_mul) raises all 2 * block rows to the p-th
    power, and one _lam_read of x^p - y^p reads every trial's valuation.
    """
    p = ctx.p
    if trials < 1:
        raise PreconditionError(f"check needs at least one trial, got {trials}")
    if trials > _TRIALS_LIMIT:
        raise PreconditionError(
            f"check takes at most {_TRIALS_LIMIT} trials, got {trials}"
        )
    if K * (p - 1) < p + 1:
        raise PreconditionError(
            f"check needs depth {p + 1}; K={K} caps at {K * (p - 1)}"
        )
    rng = random.Random(seed)
    modulus = p**K
    dtype = _dtype_for(modulus, p)
    mul = functools.partial(_fold_mul, p=p, modulus=modulus, dtype=dtype)
    block = max(1, _BLOCK_BYTES // (32 * p))  # 2*block rows of 2p-3 int64 per product
    failures = []
    for start in range(0, trials, block):
        n = min(block, trials - start)
        draws = []
        for _ in range(n):
            draws.append(_random_unit(p, modulus, rng))
            draws.append(_draw_residues(rng, modulus, p - 1))
        xg = np.array(draws, dtype=dtype)
        x, g = xg[0::2], xg[1::2]
        slots = np.zeros((n, p), dtype=dtype)  # y = x + z*g - g: z*g is g one slot on
        slots[:, :-1] = x - g
        slots[:, 1:] += g
        powers = _power(np.concatenate([x, _fold(slots, modulus)]), p, mul)
        vals, _ = _lam_read(p, K, (powers[:n] - powers[n:]) % modulus)
        failures += [
            {"trial": start + i, "valuation": _val_json(v)}
            for i, v in enumerate(vals)
            if not v >= p + 1
        ]
    claim = ClaimResult(
        "pth-power-congruence",
        "v(x) = 0 and x = y mod lam imply v(x^p - y^p) >= p+1",
        holds=not failures,
        data={
            "p": p,
            "K": K,
            "trials": trials,
            "seed": seed,
            "failures": failures,
        },
    )
    return _verdict([claim])


def _norm_claim(bundle: CandidateBundle) -> ClaimResult:
    p = bundle.ctx.p
    N = norm_exact(bundle.B)
    ref = "abs(norm(B)) = p^t * n^p for integers t >= 0, n >= 1"
    if N == 0:
        return ClaimResult("norm-shape", ref, False, {"norm": "0"})
    t = 0
    rest = abs(N)
    while rest % p == 0:
        rest //= p
        t += 1
    root = _integer_root(rest, p)
    data = {
        "sign": 1 if N > 0 else -1,
        "p_exponent": t,
        "p_free_part_digits": len(_decimal_str(rest)),
        "root": _decimal_str(root) if root is not None else None,
    }
    return ClaimResult("norm-shape", ref, root is not None, data)


def _leading_claims(bundle: CandidateBundle):
    """Semi-primary and norm-shape claims on B; B mod p^K when it is a unit.

    This is also the derive of the positive path, whose X is B itself.
    """
    Bq, v = bundle._B_reduced
    claims = [
        ClaimResult(
            "semi-primary",
            "B is semi-primary in the truncated ring",
            holds=is_semi_primary(Bq),
            data={"valuation": _val_json(v)},
        ),
        _norm_claim(bundle),
    ]
    return claims, (Bq if v == 0 else None)


def _derive_ratio(bundle: CandidateBundle):
    """The conjugate ratio C = B / conj(B), whose expansion carries the odd
    eigencomponent directly."""
    claims, Bq = _leading_claims(bundle)
    return claims, (None if Bq is None else Bq * Bq.conjugate().invert())


def _derive_adjusted(bundle: CandidateBundle):
    """The adjusted element B' = B^2 / eta, after the exact witness identities.

    A failed identity means the bundle is self-inconsistent
    (WitnessInvalidError), a different event from a claim evaluating false.
    """
    if bundle.eta is None or bundle.beta is None:
        raise PreconditionError("verify_b_prime: bundle has no eta/beta witnesses")
    if bundle.B * bundle.B.conjugate() != bundle.eta * bundle.beta**bundle.ctx.p:
        raise WitnessInvalidError(
            "witness identity B * conj(B) = eta * beta^p fails exactly"
        )
    if bundle.eta.conjugate() != bundle.eta:
        raise WitnessInvalidError("witness identity conj(eta) = eta fails exactly")
    claims = [
        ClaimResult("witness-product", "B * conj(B) = eta * beta^p exactly", True, {}),
        ClaimResult("witness-real", "conj(eta) = eta exactly", True, {}),
    ]
    Bq, v = bundle._B_reduced
    etaq = bundle.eta.reduce(bundle.ctx, bundle.K)
    if v != 0 or valuation(etaq) != 0:
        raise WitnessInvalidError(
            "adjusted element undefined: B or eta is not a unit at the ramified prime"
        )
    return claims, Bq * Bq * etaq.invert()


@dataclass(frozen=True)
class _ClaimSpec:
    """One verify path: the element X it derives and the claims made on X.

    derive returns the leading claims and X, or None for X when X is
    undefined.  name is X in the "X is primary" skip reason; power says
    whether the valuation and expansion claims read X^(p-1) rather than X.
    Claims are (id, ref) pairs; a path without the expansion claim has None.
    """

    op: str
    parity: str
    derive: Callable[[CandidateBundle], tuple[list[ClaimResult], RingElement | None]]
    name: str
    power: bool
    local: tuple[str, str]
    valuation: tuple[str, str]
    expansion: tuple[str, str] | None


# The table: (op, parity, derive, name of X, power, local, valuation, expansion).
_SPECS = {spec.op: spec for spec in (
    _ClaimSpec(
        "verify_negative_candidate", "negative", _derive_ratio, "C", False,
        ("twist-local-pth-power",
         "sigma(C) * C^(-mu) is a local p-th power to depth p+1, C = B/conj(B)"),
        ("twist-valuation", "v(C - 1) = 2m+1 when C is not primary"),
        ("eigen-expansion",
         "C = 1 - delta*e_mu mod lam^(p-1), delta nonzero when C is not primary"),
    ),
    _ClaimSpec(
        "verify_b_prime", "negative", _derive_adjusted, "B'", True,
        ("adjusted-local-pth-power",
         "sigma(B') * B'^(-mu) is a local p-th power to depth p+1, B' = B^2/eta"),
        ("adjusted-valuation", "v(B'^(p-1) - 1) = 2m+1 when B' is not primary"),
        None,
    ),
    _ClaimSpec(
        "verify_positive_candidate", "positive", _leading_claims, "B", True,
        ("twist-local-pth-power", "sigma(B) * B^(-mu) is a local p-th power to depth p+1"),
        ("power-valuation", "v(B^(p-1) - 1) = 2m when B is not primary"),
        ("eigen-expansion",
         "B^(p-1) = 1 - delta*e_mu mod lam^(p-1), delta nonzero when B is not primary"),
    ),
)}


def _verify(bundle: CandidateBundle, spec: _ClaimSpec) -> VerdictReport:
    """Run one verify path: preconditions, derive X, then the claims on X."""
    if bundle.parity != spec.parity:
        raise PreconditionError(
            f"{spec.op}: bundle has parity {bundle.parity!r}, needs {spec.parity!r}"
        )
    if bundle.K < 2:
        raise PreconditionError(
            f"{spec.op}: verification needs K >= 2 (congruence depth p+1), got K={bundle.K}"
        )
    claims, X = spec.derive(bundle)
    if X is None:
        reason = "B is not a unit at the ramified prime; quotient checks undefined"
        on_x = (spec.local, spec.valuation, spec.expansion)
        return _verdict(claims + [_skip(*c, reason) for c in on_x if c])

    ctx, K, p = bundle.ctx, bundle.K, bundle.ctx.p
    s, mu = bundle.index_s, bundle.mu
    twisted = _twisted_quotient(X, mu)
    claims.append(
        ClaimResult(*spec.local, holds=is_locally_pth_power(twisted, p + 1), data={})
    )
    prim = is_primary(X)
    expand = spec.expansion is not None and s > (p - 1) // 2
    # the power is formed only when a claim reads it
    Y = X ** (p - 1) if spec.power and (expand or not prim) else X
    if prim:
        claims.append(_skip(*spec.valuation, f"{spec.name} is primary"))
    else:
        v = valuation(Y - from_integer(ctx, K, 1))
        data = {"expected": s, "measured": _val_json(v)}
        claims.append(ClaimResult(*spec.valuation, holds=v == s, data=data))
    if expand:
        matched, delta = expansion_matches(Y, mu, p - 1)
        holds = matched and (prim or (delta is not None and delta % p != 0))
        data = {"matched": matched, "delta": delta, "primary": prim}
        claims.append(ClaimResult(*spec.expansion, holds=holds, data=data))
    elif spec.expansion:
        reason = "index within the low range; expansion form not asserted"
        claims.append(_skip(*spec.expansion, reason))
    return _verdict(claims)


def verify_negative_candidate(bundle: CandidateBundle) -> VerdictReport:
    """Necessary-condition checks for an odd-index candidate, on C = B/conj(B)."""
    return _verify(bundle, _SPECS["verify_negative_candidate"])


def verify_b_prime(bundle: CandidateBundle) -> VerdictReport:
    """Witness-backed checks for the adjusted element B' = B^2 / eta."""
    return _verify(bundle, _SPECS["verify_b_prime"])


def verify_positive_candidate(bundle: CandidateBundle) -> VerdictReport:
    """Necessary-condition checks for an even-index candidate, on B."""
    return _verify(bundle, _SPECS["verify_positive_candidate"])
