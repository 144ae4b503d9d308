"""Seeded inputs for the benchmark workloads.

Each builder turns a seed into a fixed list of operations.  One operation is
one ``pisingular.cli.main(argv)`` call, stored as a dict with ``argv``, the
exit code ``expect`` that its construction implies, and, for ``expand``, the
``digits`` it must print.  Inputs are made through the public API and bundle
files are written before the timed process starts.

The seed picks values that leave the amount of work unchanged: which
corruption, twist, eigenvalue, unit index or digit order.  What sets the
cost (the prime, the unit behind an exact norm, the precision, the multiset
of deep digits) is fixed per slot, so that every seed asks for the same work
and run-to-run spread measures the program, not the inputs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from pisingular import (
    ExactElement,
    bundle_to_json,
    cyclotomic_unit_exact,
    eigen_project_unit_exact,
    from_integer,
    lam,
    new_context,
    synthetic_unit_bundle,
)

# verify: the headline user action, one bundle per call.  Exact norm
# (Bareiss) is nearly all of its time; the truncated arithmetic stays at K=2
# and small p.  p >= 53 is left out: the norm alone takes 6.6 s at p=53.
# The exact norm's cost depends on the unit's structure, not only on its
# width, so the units (a, 2m) and rational factors c are fixed per prime:
# (positive, negative).  p=37, 2m=32 is the irregular pair.
VERIFY_UNITS = {
    23: ((3, 4, 3), (2, 8, 2)),
    29: ((2, 2, 2), (3, 6, 2)),
    31: ((4, 8, 2), (2, 2, 2)),
    37: ((5, 32, 2), (7, 10, 2)),
    41: ((4, 28, 2), (2, 12, 2)),
}
# The bundle with a broken witness sits at a light prime.
VERIFY_BROKEN_PRIME = 29

# sweep: research sweeps of many small int64 operations, with no norm.
# Per-call overhead of ring mul/galois_apply and padic.valuation, plus the
# context, eigen and units layers, do most of the work.
# The costliest command, units at p=67, runs twice with two seeded unit
# indices, so that the tail latency is the middle of a cluster of equal
# commands rather than the edge of a single one.
# The scan costs one Bernoulli table per prime up to --max, so the seed moves
# --max only between two primes: 293..306 scans the same primes.
SWEEP_IRREGULAR_MAX = 293  # the seed adds 0..13
SWEEP_EIGEN_PRIMES = (53, 67, 71)
SWEEP_UNITS_PRIMES = (37, 59, 67, 67)  # irregular primes
SWEEP_PPOWER = ((7, 400), (23, 150), (37, 60))  # (p, trials)

# deep: few large single-p commands in the ring and padic layers that sweep
# uses in small pieces.  Gauss-Jordan invert, digit probing and the
# object-dtype fold of p=103, K=4 dominate.  units at p=257, K=4 is left out:
# one call takes 8.2 s.
DEEP_SETTINGS = (
    # (p, K, expand precision); p=101 K=4 is int64, p=103 K=4 object dtype
    (101, 4, 200),
    (103, 4, 114),
    (257, 2, 272),
)
DEEP_CALLS_PER_SETTING = 2  # units and eigen calls per setting


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Operations for one workload; bundle files go under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return _verify_ops(rng, workdir)
    if workload == "sweep":
        return _sweep_ops(rng)
    if workload == "deep":
        return _deep_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _negative_bundle(ctx, rng: random.Random, unit, twist: int) -> dict:
    """Negative-parity bundle with exact witnesses.

    B = z^t * gamma * beta^((p+1)/2) with gamma = W * c^p and beta = xi_2,
    both real, and eta = gamma^2 * beta.  Then B * conj(B) = eta * beta^p and
    conj(eta) = eta hold exactly.  With t = 0, B is a real unit times c^p:
    C = B/conj(B) = 1 and B' = B^2/eta = beta^p, so every claim holds
    (exit 0).  With t != 0, B = z^t * (real unit) has lam^1 digit t times
    its unit digit, so B is not semi-primary and the verdict fails (exit 1).
    """
    p = ctx.p
    a, two_m, c = unit
    gamma = eigen_project_unit_exact(ctx, a, two_m) * c**p
    beta = cyclotomic_unit_exact(p, 2)
    B = gamma * beta ** ((p + 1) // 2)
    if twist:
        zt = [0] * (p - 1)
        zt[twist] = 1
        B = ExactElement(p, zt) * B
    eta = gamma * gamma * beta
    s = rng.randrange(3, p - 1, 2)  # odd index, s != 1
    return {
        "p": p,
        "K": 2,
        "parity": "negative",
        "mu": ctx.upow[s],
        "B": [str(x) for x in B.coeffs],
        "eta": [str(x) for x in eta.coeffs],
        "beta": [str(x) for x in beta.coeffs],
        "label": f"negative p={p} a={a} 2m={two_m} c={c} t={twist} s={s}",
    }


def _verify_ops(rng: random.Random, workdir: Path) -> list[dict]:
    docs = []  # (bundle json, expected exit code)
    for p, (pos_unit, neg_unit) in VERIFY_UNITS.items():
        ctx = new_context(p)
        a, two_m, c = pos_unit
        positive = bundle_to_json(synthetic_unit_bundle(ctx, a, two_m, k=1, c=c))
        docs.append((positive, 0))
        # Adding d * z^i (1 <= i <= p-2, d != 0 mod p) moves the lam^1 digit
        # by i*d != 0 mod p, so B stops being semi-primary: the verdict fails.
        corrupted = dict(positive, B=list(positive["B"]))
        i = rng.randrange(1, p - 1)
        d = rng.randrange(1, p)
        corrupted["B"][i] = str(int(corrupted["B"][i]) + d)
        corrupted["label"] += f" corrupted z^{i}+{d}"
        docs.append((corrupted, 1))
        docs.append((_negative_bundle(ctx, rng, neg_unit, 0), 0))
        docs.append((_negative_bundle(ctx, rng, neg_unit, rng.randrange(1, p - 1)), 1))
        if p == VERIFY_BROKEN_PRIME:
            # eta + 1 breaks B * conj(B) = eta * beta^p: witness invalid.
            broken = _negative_bundle(ctx, rng, neg_unit, 0)
            broken["eta"][0] = str(int(broken["eta"][0]) + 1)
            broken["label"] += " broken witness"
            docs.append((broken, 3))
    ops = []
    for n, (doc, expect) in enumerate(docs):
        path = workdir / f"bundle{n:02d}.json"
        path.write_text(json.dumps(doc))
        ops.append({"argv": ["verify", "--json", "--file", str(path)], "expect": expect})
    return ops


def _sweep_ops(rng: random.Random) -> list[dict]:
    argvs = [["irregular", "--max", str(SWEEP_IRREGULAR_MAX + rng.randrange(14))]]
    argvs += [["eigen", "--p", str(p), "--all"] for p in SWEEP_EIGEN_PRIMES]
    argvs += [
        ["units", "--p", str(p), "--a", str(rng.randrange(2, (p - 1) // 2 + 1)), "--all"]
        for p in SWEEP_UNITS_PRIMES
    ]
    argvs += [
        ["ppower", "--p", str(p), "--trials", str(t), "--seed", str(rng.randrange(1, 10**6))]
        for p, t in SWEEP_PPOWER
    ]
    # Every claim here is a theorem (closed-form eigenvectors, the twisted
    # unit relation and its dichotomy, the p-th power congruence): exit 0.
    return [{"argv": argv + ["--json"], "expect": 0} for argv in argvs]


def _digit_element(ctx, K: int, digits: list[int]):
    """sum d_i * lam^i, built by Horner's rule in the truncated ring."""
    lam1 = lam(ctx, K)
    acc = from_integer(ctx, K, 0)
    for d in reversed(digits):
        acc = acc * lam1 + from_integer(ctx, K, d)
    return acc


def _deep_ops(rng: random.Random) -> list[dict]:
    ops = []
    for p, K, precision in DEEP_SETTINGS:
        ctx = new_context(p)
        # Index with gcd(2m, p-1) = 2: mu = u^(2m) then has order (p-1)/2,
        # so every choice raises the orbit to the same multiset of exponents.
        indices = [m for m in range(2, p - 2, 2) if math.gcd(m, p - 1) == 2]
        for _ in range(DEEP_CALLS_PER_SETTING):
            two_m = rng.choice(indices)
            ops.append({"argv": ["units", "--p", str(p), "--K", str(K),
                                 "--two-m", str(two_m), "--json"], "expect": 0})
        for _ in range(DEEP_CALLS_PER_SETTING):
            mu = rng.randrange(2, p)
            ops.append({"argv": ["eigen", "--p", str(p), "--mu", str(mu), "--json"],
                        "expect": 0})
        # The digits are planted: nonzero below p-1 (one probe each), and past
        # it a shuffle of a fixed multiset, since a deep digit d costs d probes.
        n = K * (p - 1)
        deep = precision - (p - 1)
        planted = [rng.randrange(1, p) for _ in range(p - 1)]
        tail = [1 + j * (p - 1) // deep for j in range(deep)]
        rng.shuffle(tail)
        planted += tail + [rng.randrange(p) for _ in range(n - precision)]
        elem = _digit_element(ctx, K, planted)
        coeffs = ",".join(str(c) for c in elem.coeff_list())
        ops.append({
            "argv": ["expand", "--p", str(p), "--K", str(K), "--coeffs", coeffs,
                     "--precision", str(precision), "--json"],
            "expect": 0,
            "digits": planted[:precision],
        })
    return ops
