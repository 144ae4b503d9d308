"""Walk the Galois eigenvectors of a prime cyclotomic ring.

For each eigenvalue mu in 2..p-1 the automorphism z -> z^u has a
one-dimensional fixed direction over F_p with an explicit closed form.
This script prints the vector with the eigenspace dimension, which is 1
because u is a primitive root (j -> u*j is one (p-1)-cycle), and shows
that its valuation at the ramified prime recovers the discrete log of mu.
"""

import argparse

import numpy as np

from pisingular import (
    canonical_eigenvector,
    digits,
    eigenvector_element,
    new_context,
    sigma_matrix,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=11, help="odd prime (default 11)")
    args = ap.parse_args()

    ctx = new_context(args.p)
    p, u = ctx.p, ctx.u
    print(f"p = {p}, primitive root u = {u}")
    print(f"powers of u: {list(ctx.upow)}")

    M = sigma_matrix(ctx)
    print(f"\nautomorphism permutation matrix ({p-1}x{p-1}):")
    print(np.array2string(M, max_line_width=120))

    print("\nmu   s   vector on z^1..z^(p-1)          valuation  dim  closed form")
    for s in range(1, p - 1):
        mu = ctx.upow[s]
        rep = canonical_eigenvector(ctx, mu)
        vec = " ".join(f"{c}" for c in rep.vector)
        flag = "ok" if rep.matches_closed_form else "MISMATCH"
        print(
            f"{mu:3d} {s:3d}   [{vec:<28s}]  {rep.valuation:6d}  {rep.dimension:4d}  {flag}"
        )

    s_show = min(3, p - 2)
    mu = ctx.upow[s_show]
    e = eigenvector_element(ctx, 1, mu)
    exp = digits(e, p - 1)
    print(f"\nlambda-digits of the mu={mu} eigenvector: {list(exp.digits)}")
    print(f"leading digit sits at position {exp.valuation} = log_u({mu})")


if __name__ == "__main__":
    main()
