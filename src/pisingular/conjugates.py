"""Certified bounds on the conjugates |a(z^j)| of an exact element of
Z[z]/(Phi_p), z = e^(2 pi i/p), for the CRT target of ring.norm_exact.

N(a) = prod_(j=1)^((p-1)/2) |a(z^j)|^2, so upper bounds u_j on the conjugates
bound the norm by prod_j u_j^2: _conjugate_bound.  Each u_j comes from a
float64 pass with a written error bound or, for the conjugates that pass
leaves open (the small conjugates of units), from an exact fixed-point pass
over a table of roots of unity built from integers only.  Each docstring
carries the error analysis of its step; no result is checked against a
run-time distance.  Refs: Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3; Brent and Zimmermann, Modern Computer Arithmetic, ch. 4.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_BLOCK_BYTES = 1 << 18  # about 256 KB per temporary, as for ring's residue blocks
_GUARD = 64  # bits that _root_table carries below its W bits
# The float pass settles a conjugate whose modulus is at least this many times
# its error radius; the others go to the exact fixed-point pass.
_FLOAT_MARGIN = 2.0**16
# The widest table the exact pass builds.  A table costs about P^2.3: 4-13 ms
# at P = 4096 and 0.11-0.2 s at P = 16384 (p = 3 .. 2039, shared 2-CPU x86-64
# host), so wider coefficients bound their open conjugates by sum |b_i|.
_EXACT_MAX_W = 2**12


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


@functools.lru_cache(maxsize=16)
def _float_roots(p: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k/p, k = 0 .. p-1, as read-only float64 arrays:
    the W = 64 table rounded to double, so each entry is within
    5/8 2^-64 + u (1 + 2^-64) < 1.001u of its value, u = 2^-53."""
    out = tuple(t.astype(np.float64) * 2.0**-64 for t in _root_table(p, 64))
    for t in out:
        t.setflags(write=False)
    return out


def _exponent_rows(p: int, js: np.ndarray) -> np.ndarray:
    """(i*j) mod p at [j, i], for the given j and i = 0 .. p-2."""
    idx = np.multiply.outer(js, np.arange(p - 1))
    idx %= p
    return idx


def _float_conjugates(p: int, b) -> tuple[np.ndarray, float, int]:
    """(t, eps, s) for nonzero integer coefficients b of a, with
    |a(z^j)|/2^s <= t_j (1 + 3u) + eps for j = 1 .. (p-1)/2 wherever
    t_j > 2^-40; z = e^(2 pi i/p), u = 2^-53.

    s is the largest bit length of the n = p-1 coefficients b_i, and
    beta_i = fl(floor(b_i/2^k)) 2^(k-s) with k = max(0, s - 1000): the
    integer is below 2^1000, so float() rounds it once and the scaling is
    exact, and |beta_i - b_i/2^s| <= u |b_i|/2^s + 2^-1000 (the floor, when
    k > 0).  y_j = sum_i beta_i
    z^(ij mod p) is two float64 dot products over _float_roots (BLAS, in
    any order, with or without FMA).  With Lambda = sum |b_i|/2^s, each
    component of y_j - a(z^j)/2^s is at most
      gamma_n (1 + 1.001u) sum |beta_i|   (the dot product; Higham,
                                           Accuracy and Stability of
                                           Numerical Algorithms, 3.1)
      + 1.001u sum |beta_i|               (the table)
      + u Lambda + n 2^-1000              (the rounding of beta),
    with gamma_n = nu/(1 - nu) <= nu (1 + 2^-41) for n < 2^11.  That is
    below (n + 3) u Lambda' + 2^-980, Lambda' = fl(sum |beta_i|) >= 1/2
    (the largest |beta_i| is at least 1/2), so the complex error is below
    eps = fl((n + 4) 2^-52 Lambda'), with room for its own rounding.
    t_j = fl(sqrt(fl(yr^2) + fl(yi^2))) takes three roundings, so
    |y_j| <= t_j (1 + 3u) while t_j > 2^-40 (no square underflows).
    Blocks of j keep each temporary within _BLOCK_BYTES.
    """
    n = p - 1
    s = max(abs(c).bit_length() for c in b)
    k = max(0, s - 1000)
    beta = (b >> k).astype(np.float64) * 2.0 ** (k - s)
    cos, sin = _float_roots(p)
    rows = max(1, _BLOCK_BYTES // (8 * n))
    t = np.empty(n // 2)
    for j in range(0, t.size, rows):
        idx = _exponent_rows(p, np.arange(j + 1, min(j + rows, t.size) + 1))
        yr, yi = cos[idx] @ beta, sin[idx] @ beta
        t[j : j + idx.shape[0]] = np.sqrt(yr * yr + yi * yi)
    return t, (n + 4) * 2.0**-52 * float(np.abs(beta).sum()), s


def _conjugate_bound(p: int, b) -> int:
    """An integer E >= N(a) for the element a with nonzero integer
    coefficients b (an object array), from certified bounds u_j >= |a(z^j)|,
    j = 1 .. (p-1)/2: N(a) = prod_j |a(z^j)|^2, so E = ceil(prod_j u_j^2).

    The float pass (_float_conjugates) settles each j with
    t_j >= _FLOAT_MARGIN eps:
      u_j = 2^s fl(fl(t_j + eps) (1 + 2^-48)) >= 2^s (|y_j| + eps) >= |a(z^j)|,
    as (1 - u)^2 (1 + 2^-48) > 1 + 3u.  Such a u_j exceeds |a(z^j)| by a
    factor below 1 + 2^-15, which over at most 1024 conjugates adds under
    0.1 bits to E.

    The exact pass takes the other j.  At W = bits(L) + 32 rounded up to a
    multiple of 64, L = sum |b_i|, the integers
    X_j + i Y_j = sum_i b_i (C + i S)_(ij mod p) over _root_table(p, W) are
    within L of 2^W a(z^j), each entry being within 1 of 2^W z^(ij), so
      u_j = (isqrt(X_j^2 + Y_j^2) + 1 + L) / 2^W,
    an error radius of at most 2^-32 + 2^-W.  It settles the small
    conjugates of units, which the float pass can only bound by 2^s eps.
    Past W = _EXACT_MAX_W the other j take u_j = L instead.
    """
    t, eps, s = _float_conjugates(p, b)
    settled = t >= _FLOAT_MARGIN * eps
    mant, expo = np.frexp((t[settled] + eps) * (1 + 2.0**-48))
    X = math.prod((mant * 2.0**53).astype(np.int64).tolist())
    shift = int(expo.sum()) + (s - 53) * int(settled.sum())
    rest = np.flatnonzero(~settled) + 1
    if rest.size:
        L = sum(abs(c) for c in b)
        W = -(-(L.bit_length() + 32) // 64) * 64
        if W > _EXACT_MAX_W:
            X *= L**rest.size  # |a(z^j)| <= sum |b_i|
        else:
            C, S = _root_table(p, W)
            rows = max(1, _BLOCK_BYTES // (8 * (p - 1)))
            for j in range(0, rest.size, rows):
                idx = _exponent_rows(p, rest[j : j + rows])
                for x, y in zip((C[idx] @ b).tolist(), (S[idx] @ b).tolist()):
                    X *= math.isqrt(x * x + y * y) + 1 + L
            shift -= W * rest.size
    E = X * X
    return E << 2 * shift if shift >= 0 else -(-E >> -2 * shift)
