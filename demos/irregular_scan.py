"""Scan odd primes for Bernoulli numerators they divide.

A pair (p, 2m) with 2 <= 2m <= p-3 and p | B_{2m} marks the indices where
the simple unit-side arguments break down.  Every B_{2m} mod p of one prime
comes from one transform of the Fermat quotients (a^(p-1) - 1)/p over F_p,
B_k = -k * sum_a a^k (a^(p-1) - 1)/p mod p, so large primes cost little.
"""

import argparse
import time

from pisingular import is_prime, new_context


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=200, help="scan primes up to this bound")
    args = ap.parse_args()

    t0 = time.perf_counter()
    pairs = []
    scanned = 0
    for p in range(3, args.max + 1, 2):
        if not is_prime(p):
            continue
        scanned += 1
        ctx = new_context(p)
        for two_m in ctx.irregular_pairs():
            pairs.append((p, two_m))
            print(f"p = {p:5d}  divides B_{two_m}")
    dt = time.perf_counter() - t0

    print(f"\nscanned {scanned} odd primes up to {args.max} in {dt:.2f}s")
    print(f"found {len(pairs)} pairs")
    regular = scanned - len({p for p, _ in pairs})
    print(f"{regular} of the scanned primes divide none of their Bernoulli numerators")


if __name__ == "__main__":
    main()
