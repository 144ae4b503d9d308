"""Command-line front end.

Every subcommand takes --json for machine-readable output, in the bytes of
json.dumps(payload, indent=2, sort_keys=True) and a newline; with a fixed
seed the bytes on stdout are identical across runs.  Diagnostics go to
stderr.  Exit codes: 0 success, 1 a verified claim failed, 2 usage or
format error, 3 invalid witness data, 141 (128 + SIGPIPE) when the reader
of stdout closed it early, as in `eigen --p 2039 --all | head -1`.  Every
integer option, and PI_SINGULAR_SEED, must be a decimal integer in ASCII
of at most 4000 digits (_int_arg), or the call exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .context import is_prime, new_context
from .eigen import _eigen_reports
from .padic import digits
from .ring import RingElement
from .units import unit_reports
from .verifier import (
    BundleError,
    PreconditionError,
    WitnessInvalidError,
    _INT_STR_CHUNK,
    _check_K,
    _check_p,
    _decimal_int,
    _echo,
    _verify_bundle,
    check_ppower_congruence,
    load_bundle,
)

_DEFAULT_K = 2

_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT = {int}


def _write_json(o, nl: str, out: list) -> None:
    """Append o's JSON text to out as json.dumps(o, indent=2, sort_keys=True)
    writes it, byte for byte.  nl is a newline and the indent of o's line.
    A payload holds dicts with str keys, lists, tuples, str, int, bool and
    None; any other value is a TypeError."""
    t = type(o)
    if t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None or o is True or o is False:
        out.append(_CONSTANTS[o])
    elif not o and (t is dict or t is list or t is tuple):
        out.append("{}" if t is dict else "[]")
    elif t is dict:
        inner = nl + "  "
        sep = "," + inner
        head = "{" + inner
        for key in sorted(o):
            out.append(head + _quote(key) + ": ")
            _write_json(o[key], inner, out)
            head = sep
        out.append(nl + "}")
    elif t is list or t is tuple:
        inner = nl + "  "
        sep = "," + inner
        if _INT.issuperset(map(type, o)):  # bools are not ints here
            out.append("[" + inner + sep.join(map(int.__repr__, o)) + nl + "]")
            return
        head = "[" + inner
        for x in o:
            out.append(head)
            _write_json(x, inner, out)
            head = sep
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    """Print payload as JSON, or the text lines.  A character that stdout's
    encoding cannot carry, as in a label under an ASCII locale, is printed
    as a backslash escape; a stdout without an encoding (a StringIO) takes
    every line as it is."""
    if as_json:
        out = []
        _write_json(payload, "\n", out)
        print("".join(out))
        return
    encoding = getattr(sys.stdout, "encoding", None)
    for line in text_lines:
        if encoding:
            line = line.encode(encoding, "backslashreplace").decode(encoding)
        print(line)


def _int_arg(s: str) -> int:
    """An integer option: [+-]?[0-9]+ in ASCII, spaces around it allowed
    (verifier._decimal_int), of at most _INT_STR_CHUNK digits, which str()
    prints in the output.  A refusal is argparse's, exit 2, and echoes at
    most 40 characters of s."""
    try:
        n = _decimal_int(s)
    except BundleError:  # over the bundles' digit limit, far past this one
        n = 10**_INT_STR_CHUNK
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(s)}") from None
    if abs(n) >= 10**_INT_STR_CHUNK:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_echo(s)}, over the limit of {_INT_STR_CHUNK} digits"
        )
    return n


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("PI_SINGULAR_SEED")
    if env is not None:
        try:
            return _int_arg(env)
        except argparse.ArgumentTypeError as e:
            got = str(e).removeprefix("invalid int value: ")
            raise PreconditionError(f"PI_SINGULAR_SEED must be an integer, got {got}") from None
    return 1


def _context(p: int, u: int | None = None, K: int | None = None):
    """new_context(p, u), after the size limits on p and on K*(p-1)."""
    _check_p("--p", p)
    ctx = new_context(p, u)
    if K is not None:
        _check_K("--K", p, K)
    return ctx


def _cmd_ctx(args) -> int:
    ctx = _context(args.p, args.u)
    uindex = [None if i < 0 else i for i in ctx.uindex]
    payload = {
        "p": ctx.p,
        "u": ctx.u,
        "half": ctx.half,
        "upow": list(ctx.upow),
        "uindex": uindex,
        "irregular_pairs": ctx.irregular_pairs(),
    }
    lines = [
        f"p = {ctx.p}",
        f"u = {ctx.u}  (smallest primitive root)" if args.u is None else f"u = {ctx.u}",
        f"half = {ctx.half}",
        "upow:   " + " ".join(str(x) for x in ctx.upow),
        "uindex: " + " ".join("." if i < 0 else str(i) for i in ctx.uindex),
        "irregular pairs: "
        + (" ".join(str(m) for m in payload["irregular_pairs"]) or "(none)"),
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_irregular(args) -> int:
    _check_p("--max", args.max)
    pairs = []
    scanned = []
    for p in range(3, args.max + 1, 2):
        if not is_prime(p):
            continue
        scanned.append(p)
        ctx = new_context(p)
        for m in ctx.irregular_pairs():
            pairs.append([p, m])
    payload = {"max": args.max, "primes_scanned": scanned, "pairs": pairs}
    lines = [f"odd primes scanned up to {args.max}: {len(scanned)}"]
    if pairs:
        lines += [f"p={p} 2m={m}" for p, m in pairs]
    else:
        lines.append("no irregular pairs found")
    _emit(payload, args.json, lines)
    return 0


def _cmd_eigen(args) -> int:
    ctx = _context(args.p)
    mus = range(2, ctx.p) if args.all else [args.mu]
    reports = _eigen_reports(ctx, mus)
    ok = all(r.matches_closed_form for r in reports)
    # each form is built only when printed: at p=2039 the JSON dicts take 33 MB
    docs = [r.to_json_dict() for r in reports] if args.json else []
    payload = {"p": ctx.p, "u": ctx.u, "reports": docs}
    lines = (
        f"mu={r.mu} (u^{r.index_s}): dim={r.dimension} "
        f"valuation={r.valuation} closed_form={'ok' if r.matches_closed_form else 'MISMATCH'}"
        for r in reports
    )
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    ctx = _context(args.p, K=args.K)
    parts = [s.strip() for s in args.coeffs.split(",")]
    if len(parts) != ctx.p - 1:
        raise PreconditionError(
            f"--coeffs needs {ctx.p - 1} comma-separated integers, got {len(parts)}"
        )
    vals = []
    for i, s in enumerate(parts):
        try:
            vals.append(_decimal_int(s))
        except BundleError as e:  # over the digit limit
            raise PreconditionError(f"--coeffs entry {i}: {e}") from None
        except ValueError:
            why = f"--coeffs entries must be decimal integers; entry {i} is not: {_echo(s)}"
            raise PreconditionError(why) from None
    elem = RingElement(ctx, args.K, vals)
    N = args.precision
    if N is None:
        N = min(ctx.p + 1, args.K * (ctx.p - 1))  # p+1 may pass the cap at K=1
    exp = digits(elem, N)
    payload = exp.to_json_dict()
    lines = [
        f"valuation: {payload['valuation']}",
        "digits: " + " ".join(str(d) for d in exp.digits),
        f"precision: {exp.precision}",
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_ppower(args) -> int:
    seed = _resolve_seed(args.seed)
    ctx = _context(args.p, K=args.K)
    report = check_ppower_congruence(ctx, K=args.K, trials=args.trials, seed=seed)
    payload = report.to_json_dict()
    claim = report.claims[0]
    lines = [
        f"trials: {claim.data['trials']}  seed: {claim.data['seed']}",
        f"congruence claim: {'PASS' if report.overall else 'FAIL'}",
    ]
    if claim.data["failures"]:
        lines.append(f"failures: {claim.data['failures']}")
    _emit(payload, args.json, lines)
    return 0 if report.overall else 1


def _cmd_units(args) -> int:
    ctx = _context(args.p, K=args.K)
    two_ms = list(range(2, ctx.p - 2, 2)) if args.all else [args.two_m]
    reports = []
    for rep, vec in unit_reports(ctx, args.K, args.a, two_ms):
        doc = rep.to_json_dict()
        doc["exponents"] = list(vec.exponents)
        reports.append((rep, doc))
    ok = all(r.relation_holds and r.dichotomy_holds for r, _ in reports)
    payload = {"p": ctx.p, "a": args.a, "K": args.K, "reports": [doc for _, doc in reports]}
    lines = [
        f"2m={r.two_m} mu={r.mu}: relation={'ok' if r.relation_holds else 'FAIL'} "
        f"local_pth_power={r.local_pth_power} "
        f"v(eta^(p-1)-1)={doc['valuation_of_eta_pm1']} "
        f"delta={r.expansion_delta} "
        f"dichotomy={'ok' if r.dichotomy_holds else 'FAIL'}"
        for r, doc in reports
    ]
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    bundle = load_bundle(Path(args.file))  # a file name, even one that starts with '{'
    report = _verify_bundle(bundle)
    payload = report.to_json_dict()
    lines = [f"bundle: {bundle.label or args.file} (parity={bundle.parity}, mu={bundle.mu})"]
    for c in report.claims:
        if c.holds is None:
            lines.append(f"  {c.claim_id}: SKIP ({c.data.get('skipped', '')})")
        else:
            lines.append(f"  {c.claim_id}: {'PASS' if c.holds else 'FAIL'}")
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    _emit(payload, args.json, lines)
    return 0 if report.overall else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call.  Parsing
    leaves it unchanged, and argparse looks up sys.stdout, sys.stderr and the
    terminal width only when it prints, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="pisingular",
        description="pi-adic expansions, Galois eigenvectors, circular-unit "
        "projections, and candidate verification in prime cyclotomic rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON on stdout")

    sp = sub.add_parser("ctx", help="primitive-root tables and irregular pairs")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--u", type=_int_arg, default=None, help="primitive root (default: smallest)")
    add_json(sp)
    sp.set_defaults(func=_cmd_ctx)

    sp = sub.add_parser("irregular", help="scan primes for vanishing Bernoulli indices")
    sp.add_argument("--max", type=_int_arg, required=True)
    add_json(sp)
    sp.set_defaults(func=_cmd_irregular)

    sp = sub.add_parser("eigen", help="canonical sigma-eigenvectors over F_p")
    sp.add_argument("--p", type=_int_arg, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=_int_arg)
    group.add_argument("--all", action="store_true")
    add_json(sp)
    sp.set_defaults(func=_cmd_eigen)

    sp = sub.add_parser("expand", help="digit expansion along the uniformizer")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--coeffs", type=str, required=True, help='"c0,c1,...,c_(p-2)"')
    sp.add_argument("--K", type=_int_arg, default=_DEFAULT_K)
    sp.add_argument(
        "--precision",
        type=_int_arg,
        default=None,
        help="digits to extract (default min(p+1, K*(p-1)))",
    )
    add_json(sp)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("ppower", help="randomized p-th power congruence campaign")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--K", type=_int_arg, default=_DEFAULT_K)
    sp.add_argument("--trials", type=_int_arg, default=1000)
    sp.add_argument("--seed", type=_int_arg, default=None, help="default: $PI_SINGULAR_SEED or 1")
    add_json(sp)
    sp.set_defaults(func=_cmd_ppower)

    sp = sub.add_parser("units", help="project circular units and verify the twisted relation")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--a", type=_int_arg, default=2)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-m", dest="two_m", type=_int_arg)
    group.add_argument("--all", action="store_true")
    sp.add_argument("--K", type=_int_arg, default=_DEFAULT_K)
    add_json(sp)
    sp.set_defaults(func=_cmd_units)

    sp = sub.add_parser("verify", help="run all claims against a candidate bundle")
    sp.add_argument("--file", type=str, required=True, help="bundle JSON file")
    add_json(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (the flush above brings the last write's
        # error here).  Point fd 1 at devnull so that the flush at
        # interpreter exit stays quiet (the SIGPIPE note of Python's signal
        # docs), and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except WitnessInvalidError as e:
        print(f"witness invalid: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # BundleError and PreconditionError too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
