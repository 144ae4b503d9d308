"""Claim-by-claim verification of singular-candidate bundles.

A bundle carries an exact element B of Z[z]/(Phi_p) proposed as a singular
candidate for the eigenvalue mu = u^s, together with optional exact
witnesses (eta, beta) for the real-product decomposition.  Verification
checks only necessary consequences: norm shape, semi-primarity, the
twisted local p-th power condition, the valuation dichotomy, and the
leading eigen-expansion.  A bundle that passes is "not refuted"; no
class-group membership is ever decided here.

Each verify path checks its parity, then K, makes its leading claims
(semi-primary and norm shape on B, or the witness identities) and hands its
element X -- C = B/conj(B), the witnesses' B' = B^2/eta, or B -- to one
reader, _read_claims.  That makes the same claims on X, or X^(p-1) for B'
and B, all read on one Z (below): the twisted local p-th power, the
valuation unless X is primary, and the eigen-expansion on C and B.
B' is read on C's element (below), so the verify command reads it once for
both negative paths (_negative_claims, _adjusted).
Each claim reads a depth below 2(p-1), so all run on B mod p^2 at every K,
and eta enters only the witness identities (_witness_claims); a valuation
read when X is not primary is below p (else X is its Teichmueller lift, a
rational p-th power, mod lam^p).  K gives only the reported semi-primary
valuation of B.

No claim takes an inverse: each is unchanged when X is multiplied by x^p for
a unit x, as x^p = x(1)^p mod lam^(p+1).  So the negative and witness paths
both form C * conj(B)^p, as B' = B^2 * beta^p / (B * conj(B)) = C * beta^p
once the identities hold, and every path forms sigma(X) * X^(p-mu); they
read Z = X * X(1)^(-p) mod p^2, which is 1 + y with v(y) >= 1.  X^(p-1) =
1/(1 + y) mod lam^p is read on Z too: v(X^(p-1) - 1) = v(y) = v(Z - 1),
and X^(p-1) - 1 = -(Z - 1) mod lam^(2v(y)), so mod lam^(p-1) once
v(y) >= s > (p-1)/2, where Z = 1 + delta*e_mu iff X^(p-1) = 1 - delta*e_mu;
below s, neither expands along e_mu.

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

import numpy as np

from .context import PrimeContext, new_context
from .eigen import expansion_matches
from .norm import _BLOCK_BYTES, _NORM_MAX_BITS, _P_LIMIT, _crt_primes, _evaluate, _powmod
from .padic import (
    _check_depth,
    _lam_read,
    _val_json,
    _vp,
    is_locally_pth_power,
    is_primary,
    is_semi_primary,
    valuation,
)
from .ring import (
    ExactElement,
    RingElement,
    _dtype_for,
    _fold,
    _fold_mul,
    _is_unit,
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


# Coefficients may have at most 2^17 + 1 bits.  Any B that the norm accepts
# fits: its coefficients are b_i = (1/p) sum_{j>=1} B(z^j) (z^(-ij) - z^j),
# so |b_i|^2 <= 4 (p-1) S / p^2 < 4 S/(p-1) with S = sum_j |B(z^j)|^2, and a
# norm bound (S/(p-1))^((p-1)/2) of at most 2^18 bits forces S/(p-1) < 2^(2^18).
_COEFF_MAX_BITS = _NORM_MAX_BITS // 2 + 1
_COEFF_MAX_DIGITS = math.floor(_COEFF_MAX_BITS * math.log10(2)) + 1  # digits of 2^bits
_INT_STR_CHUNK = 4000  # digits int() and str() convert under CPython's 4300 limit
# A bundle's truncation K may have K*(p-1), its precision in powers of lam,
# up to 2^14.  The claims run mod p^2 at every K, so K costs one reduction
# and one lam-read of B: verify takes about as long at p=23, K=744 (0.7-1.3 ms),
# p=101, K=163 (44-69 ms, mostly the norm) and p=2039, K=8 (B = 1 + z,
# 0.07-0.18 s) as at K=2 (in process, shared 2-CPU x86-64 host).
_PRECISION_LIMIT = 2**14
# The p-th power campaign may have up to 10^4 trials.  Run in lockstep, a
# campaign at the cap takes about 0.4 s at p=7, 1.2 s at p=37, 4 s at p=101
# and 8 s at p=257 from a fresh process, and a trial 5.5-7 ms at p=1031, so
# about a minute there, at every K, as it computes mod p^2.
_TRIALS_LIMIT = 10**4
# Each coefficient of beta^p is at most L^p in absolute value, L = sum |beta_i|:
# it is (1/p) sum_j beta(z^j)^p z^(-ij) over all p-th roots of unity z^j, and
# |beta(z^j)| <= L.  So beta^p has at most (p-1) * p * log2(L) bits in all, and
# a bundle may ask for 2^22, which keeps beta's share of the witness bound H
# to 2^22/(p-1) bits.  H itself must fit the split primes below 2^26, about
# 2^26/((p-1) ln 2) bits, or _witness_sides exits 2: only an eta past that
# reaches it (from about p = 740 on under the coefficient cap), or, through
# the API, a B past half of it.  xi_2 (L = 2) fits at every p < 2049; at
# p=2039 verify_b_prime takes 1.2 s on 80 primes, and 0.2-0.6 s for a random
# beta at the cap at p = 37..257 (in process, shared 2-CPU x86-64 host).
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
    """Parse and structurally validate a bundle (dict, JSON text, or path).

    A str that starts with "{" after leading whitespace is JSON text; any
    other str, and every Path, names a file, read as UTF-8.  A
    CandidateBundle passes the same checks through bundle_to_json and is
    returned as it is; the verify functions take their bundle unchecked.
    """
    if isinstance(source, CandidateBundle):
        load_bundle(bundle_to_json(source))
        return source
    if isinstance(source, (str, Path)):
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            path = Path(source)
            try:
                text = path.read_text(encoding="utf-8")  # the encoding JSON requires
            except (OSError, UnicodeDecodeError) as e:
                raise BundleError(f"cannot read bundle file {path}: {e}") from None
        else:
            text = source
        try:
            doc = json.loads(text, parse_int=_decimal_int)
        except (json.JSONDecodeError, RecursionError) as e:  # nesting too deep
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
    try:
        label.encode("utf-8")  # both output modes print it
    except UnicodeEncodeError as e:
        raise BundleError(f"bundle field 'label': not valid Unicode text: {e}") from None
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
    for key in ("eta", "beta"):
        if (w := getattr(bundle, key)) is not None:
            doc[key] = [_decimal_str(c) for c in w.coeffs]
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


def _floor_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, at doubling precision.

    Newton's step from any x at or above the root stays there and decreases
    to it.  x starts at (t + 1) * 2^h, t the floor root of n's top bits
    m = n >> (k*h), h about bits/(2k): (t + 1)^k > m, so x^k > n, and x is
    at most 2^h above the root, so right in about half the root's bits,
    and a step or two ends it.  Below 2k bits, where the root has at most
    2 bits, x starts at 2^ceil(bits/k).
    """
    if n < 2:
        return n
    bits = n.bit_length()
    h = bits // (2 * k)
    x = (_floor_root(n >> (k * h), k) + 1) << h if h else 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _integer_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 0:
        return None
    x = _floor_root(n, k)
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
    each trial in turn, x's p-1 residues mod p^2 (the whole vector drawn
    again while their sum is 0 mod p, i.e. while x is not a unit), then g's
    p-1 residues.

    Everything runs mod p^2 whatever K is: p+1 <= 2(p-1), so v >= p+1 is
    decided mod p^2, and a failing valuation, below p+1, reads the same at
    every K.  K is checked and reported only.  The trials run in lockstep, in
    blocks whose rows of [x; y] stay within _BLOCK_BYTES: y = x + z*g - g
    by one fold, one square-and-multiply chain (ring._power over
    ring._fold_mul) raises all 2 * block rows to the p-th power, and one
    _lam_read of x^p - y^p reads every trial's valuation.
    """
    p = ctx.p
    if trials < 1:
        raise PreconditionError(f"check needs at least one trial, got {trials}")
    if trials > _TRIALS_LIMIT:
        raise PreconditionError(
            f"check takes at most {_TRIALS_LIMIT} trials, got {trials}"
        )
    _check_depth("check", p, K, p + 1, PreconditionError)
    rng = random.Random(seed)
    m = p * p
    dtype = _dtype_for(m, p)
    mul = functools.partial(_fold_mul, p=p, modulus=m)
    block = max(1, _BLOCK_BYTES // (32 * p))  # 2*block rows of 2p-3 int64 per product
    failures = []
    for start in range(0, trials, block):
        n = min(block, trials - start)
        draws = []
        for _ in range(n):
            draws.append(_random_unit(p, m, rng))
            draws.append(_draw_residues(rng, m, p - 1))
        xg = np.array(draws, dtype=dtype)
        x, g = xg[0::2], xg[1::2]
        slots = np.zeros((n, p), dtype=dtype)  # y = x + z*g - g: z*g is g one slot on
        slots[:, :-1] = x - g
        slots[:, 1:] += g
        powers = _power(np.concatenate([x, _fold(slots, m)]), p, mul)
        vals = _lam_read(p, 2, (powers[:n] - powers[n:]) % m)
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


def _norm_claim(N: int, p: int) -> ClaimResult:
    ref = "abs(norm(B)) = p^t * n^p for integers t >= 0, n >= 1"
    if N == 0:
        return ClaimResult("norm-shape", ref, False, {"norm": "0"})
    t = _vp(N, p)
    rest = abs(N) // p**t
    root = _integer_root(rest, p)
    data = {
        "sign": 1 if N > 0 else -1,
        "p_exponent": t,
        "p_free_part_digits": len(_decimal_str(rest)),
        "root": _decimal_str(root) if root is not None else None,
    }
    return ClaimResult("norm-shape", ref, root is not None, data)


def _leading_claims(bundle: CandidateBundle):
    """Semi-primary and norm-shape claims on B; B mod p^2 when it is a unit;
    and B's values at the norm's split primes (ring.norm_exact)."""
    Bq = bundle.B.reduce(bundle.ctx, 2)
    N, values = norm_exact(bundle.B, values=True)
    claims = [
        ClaimResult(
            "semi-primary",
            "B is semi-primary in the truncated ring",
            holds=is_semi_primary(Bq),
            data={"valuation": _val_json(valuation(bundle.B.reduce(bundle.ctx, bundle.K)))},
        ),
        _norm_claim(N, bundle.ctx.p),
    ]
    return claims, (Bq if _is_unit(Bq) else None), values


def _ratio(Bq: RingElement | None) -> RingElement | None:
    """The conjugate ratio C = B / conj(B), whose expansion carries the odd
    eigencomponent directly, as B * conj(B)^(p-1) = C * conj(B)^p."""
    return None if Bq is None else Bq * Bq.conjugate() ** (Bq.p - 1)


def _witness_sides(bundle: CandidateBundle, known: np.ndarray | None) -> bool:
    """Whether B * conj(B) = eta * beta^p, decided by values at split primes.

    For a split prime q and r of order p mod q, evaluation at r^j,
    j = 1 .. p-1, is a ring isomorphism F_q[z]/(Phi_p) -> F_q^(p-1);
    conj(B) takes B's value at r^(p-j), and beta^p the p-th power of beta's
    value.  So the sides agree mod q exactly when their values do.  Each
    coefficient of a product in Z[x]/(x^p - 1) is at most the product of the
    factors' 1-norms; the fold c_i - c_(p-1) into the power basis at most
    doubles it, and the difference D of the two sides at most doubles the
    larger bound again.  So every |D_i| <= H = 4 max(|B|_1^2,
    |eta|_1 |beta|_1^p), and on the shortest run of split primes with
    product M > H (norm._crt_primes), D = 0 mod M gives D = 0.  known, when
    given, holds B's values at a largest-first prefix of the same primes
    (the norm's run), which stand for B there.  Blocks are compared in turn,
    and the first that differs ends the check.  PreconditionError when the
    primes below 2^26 cannot cover H (see _WITNESS_POWER_MAX_BITS).
    """
    p = bundle.ctx.p
    B, eta, beta = bundle.B.coeffs, bundle.eta.coeffs, bundle.beta.coeffs
    H = 4 * max(sum(map(abs, B)) ** 2, sum(map(abs, eta)) * sum(map(abs, beta)) ** p)
    try:
        r, tree = _crt_primes(p, max(H, 1))
    except ValueError:
        raise PreconditionError(
            f"witness identity: its bound H = 4 max(|B|_1^2, |eta|_1 |beta|_1^p) has "
            f"{H.bit_length()} bits, more than the primes q = 1 (mod {p}) below 2^26 cover"
        ) from None
    q = tree[0]
    k = 0 if known is None else min(len(known), q.size)

    def blocks():
        if k:
            for s, (e, w) in _evaluate([eta, beta], p, q[:k], r[:k]):
                yield q[s], known[s], e, w
        if k < q.size:
            for s, V in _evaluate([B, eta, beta], p, q[k:], r[k:]):
                yield q[k:][s], *V

    for qb, b, e, w in blocks():
        qc = qb[:, None]
        if not np.array_equal(b * b[:, ::-1] % qc, e * _powmod(w, p, qc) % qc):
            return False
    return True


def _witness_claims(bundle: CandidateBundle, Bq: RingElement | None, known=None):
    """The witness identities, given Bq = B mod p^2 when it is a unit (else
    None) and, from the norm, B's values at its primes (_witness_sides).

    _ratio of Bq is B' = B^2/eta up to a p-th power of a unit:
    _ratio's C * conj(B)^p = B' * (conj(B)/beta)^p, as B' = C * beta^p, and
    beta is a unit.  A failed identity means the bundle is self-inconsistent
    (WitnessInvalidError), a different event from a claim evaluating false.
    eta is a unit when B is: eta(1) * beta(1)^p = B(1)^2 mod lam.
    """
    if bundle.eta is None or bundle.beta is None:
        raise PreconditionError("verify_b_prime: bundle has no eta/beta witnesses")
    if not _witness_sides(bundle, known):
        raise WitnessInvalidError("witness identity B * conj(B) = eta * beta^p fails exactly")
    if bundle.eta.conjugate() != bundle.eta:
        raise WitnessInvalidError("witness identity conj(eta) = eta fails exactly")
    if Bq is None:
        raise WitnessInvalidError(
            "adjusted element undefined: B or eta is not a unit at the ramified prime"
        )
    return [
        ClaimResult("witness-product", "B * conj(B) = eta * beta^p exactly", True, {}),
        ClaimResult("witness-real", "conj(eta) = eta exactly", True, {}),
    ]


def _check_path(bundle: CandidateBundle, op: str, parity: str) -> None:
    """A verify path's preconditions: its parity, then K >= 2."""
    if bundle.parity != parity:
        raise PreconditionError(
            f"{op}: bundle has parity {bundle.parity!r}, needs {parity!r}"
        )
    if bundle.K < 2:
        raise PreconditionError(
            f"{op}: verification needs K >= 2 (congruence depth p+1), got K={bundle.K}"
        )


def _read_claims(
    bundle: CandidateBundle,
    X: RingElement | None,
    name: str,
    local: tuple[str, str],
    val: tuple[str, str],
    expansion: tuple[str, str] | None = None,
    negate: bool = False,
) -> list[ClaimResult]:
    """The claims on a path's element X, given up to a p-th power of a unit.

    local, val and expansion are (id, ref) pairs; a path without the
    expansion claim passes None.  name is X in the "X is primary" skip
    reason.  negate says the expansion claim is made on X^(p-1), whose
    delta is minus the one read on Z (module docstring).  X is None when
    it is undefined, and then every claim is skipped.
    """
    if X is None:
        reason = "B is not a unit at the ramified prime; quotient checks undefined"
        return [_skip(*c, reason) for c in (local, val, expansion) if c]

    ctx, p = bundle.ctx, bundle.ctx.p
    s, mu = bundle.index_s, bundle.mu
    Z = X * pow(int(X.coeffs.sum()), -p, p * p)  # X / omega(X(1)) = 1 mod lam
    twisted = _twisted_quotient(Z, mu)
    claims = [ClaimResult(*local, holds=is_locally_pth_power(twisted, p + 1))]
    prim = is_primary(Z)
    if prim:
        claims.append(_skip(*val, f"{name} is primary"))
    else:
        v = valuation(Z - from_integer(ctx, 2, 1))
        data = {"expected": s, "measured": _val_json(v)}
        claims.append(ClaimResult(*val, holds=v == s, data=data))
    if expansion and s > (p - 1) // 2:
        matched, delta = expansion_matches(Z, mu)
        if matched and negate:
            delta = -delta % p
        holds = matched and (prim or delta != 0)
        data = {"matched": matched, "delta": delta, "primary": prim}
        claims.append(ClaimResult(*expansion, holds=holds, data=data))
    elif expansion:
        reason = "index within the low range; expansion form not asserted"
        claims.append(_skip(*expansion, reason))
    return claims


# The (id, ref) pairs of the claims on C, and of the two that B' shares.
_C_CLAIMS = (
    ("twist-local-pth-power",
     "sigma(C) * C^(-mu) is a local p-th power to depth p+1, C = B/conj(B)"),
    ("twist-valuation", "v(C - 1) = 2m+1 when C is not primary"),
    ("eigen-expansion",
     "C = 1 - delta*e_mu mod lam^(p-1), delta nonzero when C is not primary"),
)
_B_PRIME_CLAIMS = (
    ("adjusted-local-pth-power",
     "sigma(B') * B'^(-mu) is a local p-th power to depth p+1, B' = B^2/eta"),
    ("adjusted-valuation", "v(B'^(p-1) - 1) = 2m+1 when B' is not primary"),
)


def _adjusted(read: list[ClaimResult]) -> list[ClaimResult]:
    """B''s claims from C's first two: B' is C's element up to a p-th power
    of a unit (_witness_claims), so holds and data are C's, under B''s ids
    and refs and with B' in the primary skip reason."""
    primary = {"skipped": "C is primary"}
    return [
        ClaimResult(*spec, c.holds, {"skipped": "B' is primary"} if c.data == primary else c.data)
        for spec, c in zip(_B_PRIME_CLAIMS, read)
    ]


def _negative_claims(bundle: CandidateBundle, witnesses: bool) -> list[ClaimResult]:
    """verify_negative_candidate's claims, then, when witnesses is set,
    verify_b_prime's, in one pass: the witness identity reads B's values at
    the norm's primes, and C's element is read once for both paths.  Errors
    keep the order of the two calls: a norm refusal comes before any witness
    error, as the norm runs first."""
    _check_path(bundle, "verify_negative_candidate", "negative")
    claims, Bq, values = _leading_claims(bundle)
    witness = _witness_claims(bundle, Bq, values) if witnesses else []
    read = _read_claims(bundle, _ratio(Bq), "C", *_C_CLAIMS)
    return claims + read + (witness + _adjusted(read) if witnesses else [])


def _verify_bundle(bundle: CandidateBundle) -> VerdictReport:
    """The verify command's report: the positive path, or the negative path
    joined with the witness path when the bundle has witnesses."""
    if bundle.parity == "positive":
        return verify_positive_candidate(bundle)
    return _verdict(_negative_claims(bundle, bundle.eta is not None))


def verify_negative_candidate(bundle: CandidateBundle) -> VerdictReport:
    """Necessary-condition checks for an odd-index candidate, on C = B/conj(B)."""
    return _verdict(_negative_claims(bundle, witnesses=False))


def verify_b_prime(bundle: CandidateBundle) -> VerdictReport:
    """Witness-backed checks for the adjusted element B' = B^2 / eta."""
    _check_path(bundle, "verify_b_prime", "negative")
    Bq = bundle.B.reduce(bundle.ctx, 2)
    claims = _witness_claims(bundle, Bq if _is_unit(Bq) else None)
    return _verdict(claims + _adjusted(_read_claims(bundle, _ratio(Bq), "C", *_C_CLAIMS[:2])))


def verify_positive_candidate(bundle: CandidateBundle) -> VerdictReport:
    """Necessary-condition checks for an even-index candidate, on B."""
    _check_path(bundle, "verify_positive_candidate", "positive")
    claims, Bq, _ = _leading_claims(bundle)
    return _verdict(claims + _read_claims(
        bundle, Bq, "B",
        ("twist-local-pth-power", "sigma(B) * B^(-mu) is a local p-th power to depth p+1"),
        ("power-valuation", "v(B^(p-1) - 1) = 2m when B is not primary"),
        ("eigen-expansion",
         "B^(p-1) = 1 - delta*e_mu mod lam^(p-1), delta nonzero when B is not primary"),
        negate=True,
    ))
