"""The exact norm of an element a of Z[z]/(Phi_p), on its coefficients.

N(a) is the field norm down to Q, the resultant of Phi_p and a's
polynomial.  The field is totally complex, so with z = e^(2 pi i/p)
N(a) = prod_(j=1)^((p-1)/2) |a(z^j)|^2 >= 0.  _norm computes it from
residues at the split primes q = 1 (mod p) below 2^26, where N(a) mod q is
the product of a(r^j), j = 1 .. p-1, for r of order p mod q, in four steps:
  * bound: the smaller of _norm_bound (Parseval and AM-GM, which alone
    decides the size refusal) and _conjugate_bound, the product of
    certified bounds u_j >= |a(z^j)| from one exact fixed-point pass over a
    table of roots of unity built from integers only (pi by Machin,
    e^(2 pi i/p) by Taylor);
  * sieve: a segmented sieve over m finds the primes q = 2pm + 1, largest
    first, and a root r of order p mod each, by one numpy search over the
    segment; segments are built on first use and cached; the run used is
    the shortest whose product M exceeds the bound, checked with exact
    integers;
  * evaluation and residues: _evaluate takes a block of primes per numpy
    pass, reduces the coefficients from 16-bit limbs, builds the powers of
    r by doubling and evaluates at all r^j by one gather-and-contract;
    _norm_residues multiplies a block's p-1 values by halving;
  * CRT: the cofactors M/q mod q come from a remainder tree and are
    inverted by pow(c, -1, q), and sum c_q M/q is formed up the product
    tree; the result is read in [0, M).
Limits (ValueError): p < _P_LIMIT = 2049 (ring.ExactElement takes only an
odd prime), so that the evaluation sums (p-1) * q^2 stay below 2^63; and the Parseval bound must fit
in _norm_bit_cap(p) = min(2^18, 2^25/(p-1)) bits, so that the primes
suffice and the CRT stays short.

ring.norm_exact is the element-level entry: it refuses truncated elements
and calls _norm, which can also hand back a's values.  _evaluate, the one
evaluation at split primes, also serves the verifier's witness identity.
This module imports nothing from the package.  Each
docstring carries the error analysis of its step; no result is checked
against a run-time distance.  Ref: Brent and Zimmermann, Modern Computer
Arithmetic, ch. 1-2 and 4.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_Q_LIMIT = 2**26  # residue primes for norm_exact lie below this
# norm_exact needs p below this, 2049: its int64 evaluation sums are below
# (p-1) * _Q_LIMIT^2, which must stay below 2^63.  Bundles are checked
# against it when they are loaded.
_P_LIMIT = 2**63 // _Q_LIMIT**2 + 1
# Bits of the norm bound that norm_exact accepts at prime p.  2^25/(p-1) is
# about a third of what the primes q = 1 (mod p) below 2^26 supply (their
# log2 sum is close to 2^26/(ln 2 * (p-1))), and 2^18 keeps a norm at the cap,
# whose remainder tree is quadratic in the bit count, to about a second.
_NORM_MAX_BITS = 2**18


def _norm_bit_cap(p: int) -> int:
    return min(_NORM_MAX_BITS, 2**25 // (p - 1))


# Multipliers m per sieve segment of the candidates q = 2pm + 1: about 450
# primes near 2^26, more than any verify-workload norm takes (20-134).
_SEGMENT = 1 << 12
# About 256 KB per int64 temporary of the residue blocks, of the conjugate
# pass and of verifier.check_ppower_congruence's blocks of rows.
_BLOCK_BYTES = 1 << 18
_GUARD = 64  # bits that _root_table carries below its W bits
# The widest table the exact pass builds.  A table costs about P^2.3: 4-13 ms
# at P = 4096 and 0.11-0.2 s at P = 16384 (p = 3 .. 2039, shared 2-CPU x86-64
# host), so wider coefficients bound each conjugate by sum |b_i|.
_EXACT_MAX_W = 2**12


def _norm_bound(a) -> int:
    """An integer F >= N(a) for an exact element a (read through a.p and
    a.coeffs): the floor of (S/(p-1))^((p-1)/2).

    S = p * sum(b_i^2) - (sum b_i)^2 is the sum of |a(z^j)|^2 over
    j = 1 .. p-1 (Parseval over the p-th roots of unity, minus the j = 0
    term), and AM-GM bounds the product of those p-1 squares by
    (S/(p-1))^(p-1).  Rational constants and roots of unity meet it exactly.
    Raises ValueError when F has more bits than the cap at p; a float
    estimate refuses far larger bounds before S^((p-1)/2) is formed.
    """
    p = a.p
    S = p * sum(c * c for c in a.coeffs) - sum(a.coeffs) ** 2
    if S == 0:
        return 0
    h = (p - 1) // 2
    cap = _norm_bit_cap(p)
    bits = h * (math.log2(S) - math.log2(p - 1))
    if bits <= cap + 1:
        bound = S**h // (p - 1) ** h
        if bound.bit_length() <= cap:
            return bound
        bits = bound.bit_length()
    raise ValueError(
        f"norm_exact: the norm bound needs about {bits:.0f} bits, over the "
        f"limit of {cap} bits at p={p} (min(2^18, 2^25/(p-1)))"
    )


def _arctan_inv(x: int, P: int) -> tuple[int, int]:
    """(A, e) with |A - 2^P arctan(1/x)| < e, for an integer x >= 2.

    arctan(1/x) = sum_k (-1)^k / ((2k+1) x^(2k+1)).  t_k = floor(2^P/x^(2k+1))
    comes from t_(k-1) by one more floor division, as floor(floor(y)/m) =
    floor(y/m) for integers m >= 1, so each term floor(t_k/(2k+1)) is below
    2^P/((2k+1) x^(2k+1)) by less than 1.  The loop stops at the first
    t_k = 0, where 2^P/x^(2k+1) < 1; the alternating tail from there is
    below its first term.  So k summed terms give e = k + 1.
    """
    x2 = x * x
    t = (1 << P) // x
    A = k = 0
    while t:
        A += -(t // (2 * k + 1)) if k & 1 else t // (2 * k + 1)
        t //= x2
        k += 1
    return A, k + 1


def _unit_root(p: int, P: int) -> tuple[int, int, int]:
    """(C, S, e): C and S lie within e of 2^P cos(theta) and 2^P sin(theta),
    theta = 2 pi/p, for P >= 64.

    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) is within e_pi of 2^P pi
    (_arctan_inv), so T = floor(2 pi 2^P / p) is within
    e_T = ceil(2 e_pi/p) + 1 of 2^P theta.  The Taylor terms
    tau_k = 2^P theta^k/k! are formed as t_k = floor(t_(k-1) T / (k 2^P)),
    a shift and a division by k (floor(floor(y)/k) = floor(y/k)), from
    t_0 = 2^P.  From
      t_(k-1) T - tau_(k-1) 2^P theta
        = (t_(k-1) - tau_(k-1)) T + tau_(k-1) (T - 2^P theta)
    and tau_(k-1) <= t_(k-1) + d_(k-1), the integer
      d_k = floor((d_(k-1) T + (t_(k-1) + d_(k-1)) e_T) / (k 2^P)) + 2
    bounds |t_k - tau_k| (one unit for the ceiling, one for the floor).  The
    terms go with their signs to C (k = 0, 2 mod 4) and S (k = 1, 3 mod 4).
    With theta > 2^-9 and P >= 64, t_k > 0 up to k = 4, so the loop stops at
    some k >= 5 > 2 theta; the tail from there is at most
    tau_k (1 + 1/2 + 1/4 + ...) <= 2 d_k, and e = d_0 + ... + d_(k-1) + 2 d_k.
    """
    a5, e5 = _arctan_inv(5, P)
    a239, e239 = _arctan_inv(239, P)
    T = 2 * (16 * a5 - 4 * a239) // p
    e_T = -(-2 * (16 * e5 + 4 * e239) // p) + 1
    CS = [0, 0]
    t, d, e, k = 1 << P, 0, 0, 0
    while t:
        CS[k & 1] += -t if k & 2 else t
        e += d
        k += 1
        d = ((d * T + (t + d) * e_T) >> P) // k + 2
        t = (t * T >> P) // k
    return CS[0], CS[1], e + 2 * d


@functools.lru_cache(maxsize=16)
def _root_table(p: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only object arrays (C_k), (S_k), k = 0 .. p-1, each entry within
    5/8 of 2^W cos(2 pi k/p), resp. 2^W sin(2 pi k/p); so C_k + i S_k is
    within 1 of 2^W z^k in modulus, z = e^(2 pi i/p).  Built on first use.

    At P = W + _GUARD bits, w~ = C + iS of _unit_root is within e_1 = 2e of
    2^P z in modulus (sqrt 2 < 2).  The powers z~_(k+1) = floor(z~_k w~/2^P),
    taken per component from z~_0 = 2^P, stay within eps_k of 2^P z^k, with
      eps_(k+1) = eps_k + e_1 + floor(e_1 eps_k/2^P) + 3:
    z~_k w~ - 2^(2P) z^(k+1) = z~_k (w~ - 2^P z) + 2^P z (z~_k - 2^P z^k),
    |z~_k| <= 2^P + eps_k, and the two floors move the result by less than
    sqrt 2 < 2.  The powers run to k = (p-1)/2, and z^(p-k) is the conjugate
    of z^k.  Rounding to nearest at W bits leaves each component within
    1/2 + eps_k/2^_GUARD of its value.  eps_k stays below 2^(_GUARD - 3),
    which makes that at most 5/8 (the assertion re-checks the tracked
    bound): e_pi < 4P + 40 and e_T < 3P + 30; past k = 4 each d_k is at
    most d_(k-1)/2 + 2 plus its share of e_T e^theta < 25P + 250, over at
    most P + 10 terms, so e < 30P + 400; with W <= _EXACT_MAX_W, P <= 4160
    and e_1 < 2^18, so eps_k < 1024 (e_1 + 4) < 2^29.
    """
    P = W + _GUARD
    C, S, e = _unit_root(p, P)
    e1 = 2 * e
    x, y, eps = 1 << P, 0, 0
    half = (p - 1) // 2
    xs, ys = [x], [y]
    for _ in range(half):
        x, y = (x * C - y * S) >> P, (x * S + y * C) >> P
        eps += e1 + ((e1 * eps) >> P) + 3
        xs.append(x)
        ys.append(y)
    assert eps < 1 << (_GUARD - 3)
    r = 1 << (_GUARD - 1)
    xs = [(v + r) >> _GUARD for v in xs]
    ys = [(v + r) >> _GUARD for v in ys]
    cos = np.array(xs + xs[half:0:-1], dtype=object)
    sin = np.array(ys + [-v for v in ys[half:0:-1]], dtype=object)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _conjugate_bound(p: int, b) -> int:
    """An integer E >= N(a) for the element a with integer coefficients b
    (an object array, not all zero), from certified bounds u_j >= |a(z^j)|,
    j = 1 .. (p-1)/2: N(a) = prod_j |a(z^j)|^2, so E = ceil(prod_j u_j^2).

    At W = bits(L) + 32 rounded up to a multiple of 64, L = sum |b_i|, the
    integers X_j + i Y_j = sum_i b_i (C + i S)_(ij mod p) over the nonzero
    b_i and _root_table(p, W) are within L of 2^W a(z^j), each entry being
    within 1 of 2^W z^(ij), so
      u_j = (isqrt(X_j^2 + Y_j^2) + 1 + L) / 2^W >= |a(z^j)|,
    as isqrt(n) + 1 > sqrt(n); and u_j exceeds |a(z^j)| by at most
    (2L + 1)/2^W < 2^-31 + 2^-W.  Past W = _EXACT_MAX_W it returns
    L^(p-1) (|a(z^j)| <= L), and the Parseval bound decides.  Blocks of j
    keep each index temporary within _BLOCK_BYTES.
    """
    L = sum(abs(c) for c in b)
    W = -(-(L.bit_length() + 32) // 64) * 64
    if W > _EXACT_MAX_W:
        return L ** (p - 1)
    C, S = _root_table(p, W)
    i = np.flatnonzero(b)
    b = b[i]
    half = (p - 1) // 2
    rows = max(1, _BLOCK_BYTES // (8 * i.size))
    X = 1
    for j in range(1, half + 1, rows):
        idx = np.multiply.outer(np.arange(j, min(j + rows, half + 1)), i) % p
        for x, y in zip((C[idx] @ b).tolist(), (S[idx] @ b).tolist()):
            X *= math.isqrt(x * x + y * y) + 1 + L
    return -(-(X * X) >> 2 * W * half)


def _powmod(base, exp, mod) -> np.ndarray:
    """base^exp mod mod elementwise on int64 arrays, by square and multiply
    over the bits of exp; a scalar exp multiplies only at its set bits.
    mod < 2^26, so each product is below 2^52."""
    base = np.asarray(base, dtype=np.int64) % mod
    exp = np.asarray(exp, dtype=np.int64)
    out = np.ones(np.broadcast_shapes(base.shape, exp.shape, np.shape(mod)), dtype=np.int64)
    for bit in range(int(exp.max(initial=0)).bit_length()):
        if exp.ndim:
            out = np.where((exp >> bit) & 1 == 1, out * base % mod, out)
        elif (int(exp) >> bit) & 1:
            out = out * base % mod
        base = base * base % mod
    return out


@functools.lru_cache(maxsize=1)
def _sieving_primes() -> np.ndarray:
    """The odd primes up to sqrt(2^26) = 8192."""
    n = math.isqrt(_Q_LIMIT) + 1
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)[1:]


def _segment_count(p: int) -> int:
    return -(-((_Q_LIMIT - 2) // (2 * p)) // _SEGMENT)


# The most segments that a norm at the bit cap reads: 23 at p = 61, 97, 107 and
# 127, 22 at p = 23 .. 37.  So a second such norm sieves nothing again.
@functools.lru_cache(maxsize=23)
def _split_prime_segment(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes q = 2pm + 1 < 2^26 whose m lies in segment s, largest
    first, and r of order p mod each: r = g^((q-1)/p) for the least g >= 2
    with r != 1.

    Segment s holds m in (hi - 2^12, hi] for hi = floor((2^26 - 2)/(2p)) - s*2^12.
    A sieve over m: an odd prime l != p divides 2pm + 1 exactly when
    m = -(2p)^(-1) (mod l), and a composite q < 2^26 has such a factor
    l <= 8192.  Each l strikes those m from the first one with q > l, so a q
    that is itself a sieving prime stays; an l at least the segment's width
    strikes at most that first m, and all of those go in one assignment.
    The roots come from g = 2 on every prime, then from g = 3 .. 10,
    11 .. 18, ... at once on the primes still at 1, each taking its first g
    with r != 1.
    """
    hi = (_Q_LIMIT - 2) // (2 * p) - s * _SEGMENT
    lo = max(hi - _SEGMENT, 0)
    ell = _sieving_primes()
    ell = ell[ell != p]
    m0 = -_powmod(2 * p, ell - 2, ell) % ell
    start = np.maximum(lo + 1, (ell - 1) // (2 * p) + 1)
    first = start + (m0 - start) % ell
    keep = np.ones(max(hi - lo, 0), dtype=bool)
    f = first - lo - 1
    wide = ell >= keep.size  # each strikes at most its first m
    keep[f[wide & (f < keep.size)]] = False
    for prime, f0 in zip(ell[~wide].tolist(), f[~wide].tolist()):
        keep[f0::prime] = False
    q = 2 * p * (lo + 1 + np.flatnonzero(keep)[::-1]) + 1
    e = (q - 1) // p
    r, g = _powmod(2, e, q), 3
    while (left := np.flatnonzero(r == 1)).size:  # about 1 in p; 8 g at a time
        R = _powmod(np.arange(g, g + 8)[:, None], e[left], q[left])
        r[left] = R[(R != 1).argmax(axis=0), np.arange(left.size)]
        g += 8
    q.setflags(write=False)
    r.setflags(write=False)
    return q, r


def _product_tree(q: np.ndarray) -> list:
    """Levels of the product tree over the primes q, leaves first.

    Level 0 is q itself; level 1 holds the products of pairs (below 2^52,
    formed in int64); the levels above are Python ints up to the root [M].
    A node without a sibling is carried up unchanged.
    """
    even = q.size // 2 * 2
    level = q[:even].reshape(-1, 2).prod(axis=1).tolist() + q[even:].tolist()
    tree = [q, level]
    while len(level) > 1:
        level = [x * y for x, y in zip(level[::2], level[1::2])] + level[len(level) // 2 * 2 :]
        tree.append(level)
    return tree


def _crt_primes(p: int, bound: int) -> tuple[np.ndarray, list]:
    """Roots r of order p and the product tree for the shortest run of split
    primes, largest first, whose product M exceeds bound >= 1.

    Summed log2 q pick the length; exact integers confirm M > bound and
    M/q_last <= bound, so the run is the shortest.  The roots are those of
    the segments read, cut to the run.
    """
    target = math.log2(bound)
    qs, rs, bits = [], [], 0.0
    for s in range(_segment_count(p)):
        q, r = _split_prime_segment(p, s)
        qs.append(q)
        rs.append(r)
        bits += float(np.log2(q).sum())
        if bits > target + 1:
            break
    q = np.concatenate(qs)
    k = int(np.searchsorted(np.cumsum(np.log2(q)), target, side="right")) + 1
    while k <= q.size:
        tree = _product_tree(q[:k])
        M = tree[-1][0]
        if M <= bound:
            k += 1
        elif M // int(q[k - 1]) > bound:
            k -= 1
        else:
            return np.concatenate(rs)[:k], tree
    raise ValueError(
        f"norm_exact: the primes q = 1 (mod {p}) below 2^26 do not cover "
        f"the norm bound of {bound.bit_length()} bits"
    )


def _powers(q: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
    """(len(q), n) int64: base^k mod q for k = 0 .. n-1, by doubling the
    filled prefix."""
    out = np.empty((q.size, n), dtype=np.int64)
    out[:, 0] = 1
    k, step = 1, base % q
    while k < n:
        m = min(k, n - k)
        out[:, k : k + m] = out[:, :m] * step[:, None] % q[:, None]
        step = step * step % q
        k += m
    return out


def _limbs(coeffs) -> np.ndarray:
    """(T, len(coeffs)) int64: column i holds the 16-bit limbs of |c_i|,
    least first, signed like c_i; T fits the widest coefficient."""
    coeffs = np.asarray(coeffs, dtype=object)
    mags = np.abs(coeffs).tolist()
    T = max(1, -(-max(map(int.bit_length, mags)) // 16))
    raw = b"".join([m.to_bytes(2 * T, "little") for m in mags])
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(mags), T).T.astype(np.int64)
    limbs[:, coeffs < 0] *= -1
    return limbs


def _evaluate(vectors, p: int, q: np.ndarray, r: np.ndarray):
    """Yield (s, V) for each block q[s] of the primes: V[k, t, j-1] =
    X_k(r_t^j) mod q_t, j = 1 .. p-1, for each coefficient vector X_k of
    vectors (p-1 integers each).

    The vectors share each gather.  A block's (rows, p) arrays, its values
    V, its (rows, limbs) array, each gather and each slice of the exponent
    table stay within _BLOCK_BYTES.  Up to p = 181 a gather takes every j
    for a sub-block of primes; past it, one prime's j in chunks.  Per block:
      * X_k mod q from 16-bit limbs: x = sum_t l_t (2^(16t) mod q), reduced
        mod q after each run of 2^20 limbs, so every sum of terms below
        2^42 stays below 2^63.
      * r^k for k = 0 .. p-1 by doubling, and X_k(r^j) for all j as one
        gather of r^((i*j) mod p) contracted with each X_k mod q: p-1
        products below q^2 each, below 2^63 as p < 2049.
    """
    n = p - 1
    limbs = [_limbs(X) for X in vectors]
    T = max(t.shape[0] for t in limbs)
    rows = max(1, _BLOCK_BYTES // (8 * max(len(limbs) * p, T)))
    chunk = min(n, max(1, _BLOCK_BYTES // (8 * n)))  # j per gather
    sub = max(1, _BLOCK_BYTES // (8 * chunk * n))  # primes per gather
    gathered = np.empty((min(sub, q.size), chunk, n), dtype=np.int64)
    for a in range(0, q.size, rows):
        qb, rb = q[a : a + rows], r[a : a + rows]
        qc = qb[:, None]
        radix = _powers(qb, np.full(qb.size, 1 << 16), T)
        x = np.zeros((len(limbs), qb.size, n), dtype=np.int64)
        for k, t in enumerate(limbs):
            for i in range(0, t.shape[0], 1 << 20):
                run = t[i : i + (1 << 20)]
                x[k] = (x[k] + radix[:, i : i + run.shape[0]] @ run) % qc
        powers = _powers(qb, rb, p)
        V = np.empty((len(limbs), qb.size, n), dtype=np.int64)
        for j in range(0, n, chunk):
            js = np.arange(j + 1, min(j + chunk, n) + 1)
            table = np.multiply.outer(js, np.arange(n)) % p
            for c in range(0, qb.size, sub):
                block = powers[c : c + sub]
                g = gathered[: block.shape[0], : js.size]
                np.take(block, table, axis=1, out=g, mode="clip")
                V[:, c : c + sub, j : j + js.size] = np.einsum("tji,kti->ktj", g, x[:, c : c + sub])
        V %= qc
        yield slice(a, a + qb.size), V


def _norm_residues(V: np.ndarray, q: np.ndarray) -> np.ndarray:
    """N(X) mod q_t for each row t of X's values V (_evaluate): the product
    of the row mod q_t, by halving the row padded with ones."""
    qc = q[:, None]
    prod = np.ones((q.size, 1 << (V.shape[1] - 1).bit_length()), dtype=np.int64)
    prod[:, : V.shape[1]] = V
    while prod.shape[1] > 1:
        h = prod.shape[1] // 2
        prod = prod[:, :h] * prod[:, h:] % qc
    return prod[:, 0]


def _crt(x: np.ndarray, tree: list) -> int:
    """The integer in [0, M) that is x_i mod each prime q_i of tree.

    x = sum_i c_i M/q_i with c_i = x_i (M/q_i)^(-1) mod q_i.  The cofactors
    M/q_i mod q_i come from a remainder tree: the product of the primes
    outside a node, reduced mod the node's product, descends from the root
    (1) to the pairs, and the last step runs in int64 for all primes at
    once; each cofactor is inverted by pow(., -1, q).  The sum is then formed
    up the product tree, a node's value being v_L * P_R + v_R * P_L.
    """
    q = tree[0]
    outside = [1]
    for level in reversed(tree[1:-1]):
        outside = [
            outside[i // 2] * level[i ^ 1] % level[i] if i ^ 1 < len(level) else outside[i // 2]
            for i in range(len(level))
        ]
    even = q.size // 2 * 2
    sibling = np.ones_like(q)
    sibling[:even] = q[:even].reshape(-1, 2)[:, ::-1].ravel()
    cofactor = np.array(outside, dtype=np.int64)[np.arange(q.size) // 2] % q * sibling % q
    inverse = [pow(f, -1, qi) for f, qi in zip(cofactor.tolist(), q.tolist())]
    c = x * np.array(inverse, dtype=np.int64) % q
    values = (c[:even:2] * q[1:even:2] + c[1:even:2] * q[:even:2]).tolist() + c[even:].tolist()
    for level in tree[1:-1]:
        values = [
            u * pv + v * pu
            for u, v, pu, pv in zip(values[::2], values[1::2], level[::2], level[1::2])
        ] + values[len(values) // 2 * 2 :]
    return values[0] % tree[-1][0]


def _norm(a, values: bool = False):
    """N(a) for an exact element a (read through a.p and a.coeffs), by the
    four steps of the module docstring; ValueError past its limits.  Both
    _norm_bound and _conjugate_bound are integers >= N(a), so the run of
    primes whose product M passes the smaller one reads N(a) in [0, M).
    With values, the pair (N(a), V), V holding a's values at the run's
    primes (_evaluate's rows for a; none when a = 0)."""
    p = a.p
    if p >= _P_LIMIT:  # ring.ExactElement refuses a p that is not an odd prime
        raise ValueError(
            f"norm_exact: p={p} is out of range; it needs p < {_P_LIMIT}, "
            f"so that int64 residues keep (p-1) * (2^26)^2 < 2^63"
        )
    bound = _norm_bound(a)
    if bound == 0:  # 0 only for the zero element, whose norm is 0
        return (0, np.empty((0, p - 1), dtype=np.int64)) if values else 0
    r, tree = _crt_primes(p, min(bound, _conjugate_bound(p, a.coeffs)))
    q = tree[0]
    residues = np.empty(q.size, dtype=np.int64)
    V = np.empty((q.size if values else 0, p - 1), dtype=np.int64)
    for s, (block,) in _evaluate([a.coeffs], p, q, r):
        residues[s] = _norm_residues(block, q[s])
        if values:
            V[s] = block
    N = _crt(residues, tree)
    return (N, V) if values else N
