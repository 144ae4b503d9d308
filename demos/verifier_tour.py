"""Round-trip a candidate bundle through the claim verifier.

A synthetic positive-parity candidate built from a projected unit passes
every claim by construction.  The script serializes it, reloads it,
verifies it, then corrupts one coefficient and shows which claims notice.
Last, a negative-parity candidate with witnesses is verified on its ratio
C = B/conj(B) and on the adjusted element B' = B^2/eta.
"""

import argparse
import json

from pisingular import (
    CandidateBundle,
    ExactElement,
    bundle_to_json,
    eigen_project_unit_exact,
    load_bundle,
    new_context,
    synthetic_unit_bundle,
    verify_b_prime,
    verify_negative_candidate,
    verify_positive_candidate,
)


def print_report(rep):
    for c in rep.claims:
        if c.holds is None:
            status = f"SKIP ({c.data.get('skipped', '')})"
        else:
            status = "PASS" if c.holds else "FAIL"
        print(f"  {c.claim_id:<24s} {status}")
    print(f"  overall: {'PASS' if rep.overall else 'FAIL'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=11, help="odd prime (default 11)")
    ap.add_argument("--two-m", dest="two_m", type=int, default=4)
    ap.add_argument("--out", type=str, default=None, help="also write the bundle JSON here")
    args = ap.parse_args()

    ctx = new_context(args.p)
    bundle = synthetic_unit_bundle(ctx, 2, args.two_m, k=2, c=3)
    print(f"bundle: {bundle.label}")

    doc = bundle_to_json(bundle)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    reloaded = load_bundle(json.dumps(doc))
    print("\nverifying the round-tripped bundle:")
    print_report(verify_positive_candidate(reloaded))

    coeffs = list(reloaded.B.coeffs)
    coeffs[0] += 1
    corrupt = CandidateBundle(
        ctx=reloaded.ctx,
        K=reloaded.K,
        parity=reloaded.parity,
        mu=reloaded.mu,
        B=ExactElement(ctx.p, coeffs),
        label="corrupted copy",
    )
    print("\nverifying after bumping one coefficient of B:")
    print_report(verify_positive_candidate(corrupt))

    # B = W * 2^p for a real unit W, with eta = W^2 and beta = 4: then
    # B * conj(B) = eta * beta^p and conj(eta) = eta hold exactly.
    W = eigen_project_unit_exact(ctx, 2, args.two_m)
    negative = CandidateBundle(
        ctx=ctx, K=2, parity="negative", mu=ctx.upow[3], B=W * 2**ctx.p,
        eta=W * W, beta=ExactElement.from_integer(ctx.p, 4), label="negative with witnesses",
    )
    print("\nverifying a negative candidate on C = B/conj(B):")
    print_report(verify_negative_candidate(negative))
    print("and on B' = B^2/eta, after its witness identities:")
    print_report(verify_b_prime(negative))


if __name__ == "__main__":
    main()
