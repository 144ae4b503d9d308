"""Brute-force routes kept as test oracles for the closed forms in src/.

Each function here is the search, elimination or schoolbook route the
package used before its closed form or its faster method: the mod-p
Bernoulli recurrence sum_j C(m+1, j) B_j = 0 over Pascal rows, the power
sums sum_a a^k = p*B_k mod p^2 taken one even k at a time, Gauss-Jordan
inversion over the local ring, the p^j candidate loop for rational p-th
powers, the p-candidate digit scan, the F_p nullspace of the Galois
permutation matrix and the cycle count that read its dimension off, the
Bareiss determinant for exact norms, the np.convolve fold that multiplied
object-dtype coefficient vectors, the per-conjugate power loop of the
unit projection, the right-to-left power from the constant 1, the np.add.at
scatter of the Galois maps, xi_a as a product of z^e by the geometric sum,
the lam-basis valuation of e_mu that the
eigen report once measured, the logarithm of xi_a^(p-1) by its plain
series with no argument reduction, and the per-mu eigen report (e_mu built
coordinate by coordinate as one RingElement, sigma applied by galois_apply)
with the hand-written Phi_p fold and constant elimination beside it,
the p-th power campaign one trial at a time, the lam-digit match of
1 - delta * e_mu to any depth (expansion_match_digits) that eigen once
solved, the witness identity B * conj(B) = eta * beta^p by exact products
(witness_identity), and the verify claims evaluated at the bundle's full K
(verify_full_k), with every inverse by Gauss-Jordan.
Nothing at runtime needs them; the property tests compare the package
against them.  The ring oracles compute with Python
ints (object dtype) at every modulus, so a wrong machine-word bound in the
package cannot pass on both sides; mul_mod, lambda_coeffs and
digits_remainder_valuation are plain Python-int routes for the product, the lam-basis and the digit
expansion at the edges of those bounds.  lambda_coeffs and from_digits are
Horner routes to and from the lam-basis, beside the package's Taylor
shift (ring._shift) and Pascal matrix mod p.  lambda_valuation is the minimum
formula min(i + (p-1) v_p(l_i)) that padic.valuation once applied; the
p-th power, digit and e_mu oracles read every valuation through it, not
through the package's reader, so a wrong reader cannot pass on both sides
either.

Five routes have no closed form in the package beside them, and no
command runs them; they live here for the tests that read them: the
first-order recurrence the eigen equation imposes on the normal-basis
coordinates (RecurrenceSolution and recurrence_solve, acceptance criterion
4), the twist of a unit to a semi-primary one (semi_primary_normalize),
the exponents that absorb leftover eigencomponents of a projected unit
(solve_unit_adjustment), the Jacobi sums over F_ell (jacobi_sum), dense
exact elements whose norm is known at every p, and Stickelberger's
indices (stickelberger_indices), the irregular pairs read from Jacobi sums
with no Bernoulli number.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from sympy import integer_log, integer_nthroot, multiplicity, primitive_root

from pisingular import (
    CAP,
    EigenReport,
    ExactElement,
    LambdaExpansion,
    PrimeContext,
    RingElement,
    eigenvector_element,
    from_integer,
    is_locally_pth_power,
    is_prime,
    is_primary,
    is_semi_primary,
    lam,
    new_context,
    norm_exact,
    zeta,
)
from pisingular.eigen import _indices, _inverse_powers
from pisingular.padic import _first_two_digits, _require_unit
from pisingular.ring import _fold, _normal_slots


def bernoulli_table(p: int) -> list[int]:
    """B_m mod p for 0 <= m <= p-3 by the recurrence sum_{j<=m} C(m+1, j) B_j = 0.

    Every inverse taken is of m+1 <= p-2, a unit mod p, so the classical
    denominators at the von Staudt-Clausen poles are never touched.
    """
    nmax = p - 3
    table = [0] * (nmax + 1)
    if nmax >= 0:
        table[0] = 1
    row = [1]  # Pascal row C(k, .) mod p, advanced as needed
    for m in range(1, nmax + 1):
        while len(row) < m + 2:
            row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
        acc = 0
        for j in range(m):
            acc = (acc + row[j] * table[j]) % p
        table[m] = -acc * pow(m + 1, -1, p) % p
    return table


def bernoulli_power_sums(p: int) -> list[int]:
    """B_k mod p for even 2 <= k <= p-3 from the power sums mod p^2: the sum
    of a^k over 1 <= a <= p-1 is p*B_k (mod p^2) (Ireland & Rosen, ch. 15),
    one int64 pass over every a per k, each product below p^4 < 2^63."""
    m = p * p
    power = a2 = np.arange(1, p, dtype=np.int64) ** 2 % m
    table = []
    for _ in range(2, p - 2, 2):
        table.append(int(power.sum()) % m // p)
        power = power * a2 % m
    return table


def _mult_matrix_mod(coeffs, p: int, modulus: int):
    """Matrix of multiplication by the element, columns a * z^j.

    Python ints (object dtype) whatever the modulus, so that the oracle does
    not share the package's choice of machine words.
    """
    cols = [np.array([int(c) for c in coeffs], dtype=object)]
    for _ in range(p - 2):
        prev = cols[-1]
        ext = np.zeros(p, dtype=object)
        ext[1:p] = prev
        nxt = (ext[: p - 1] - ext[p - 1]) % modulus
        cols.append(nxt)
    return np.stack(cols, axis=1)


def _solve_local_system(M, rhs, p: int, modulus: int):
    """Solve M x = rhs over Z/p^K by Gauss-Jordan with unit pivots.

    Every pivot must be a unit mod p; for the multiplication matrix of a
    unit this always succeeds because the matrix is invertible over the
    local ring.
    """
    n = M.shape[0]
    A = np.concatenate([M % modulus, rhs[:, None] % modulus], axis=1)
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if int(A[r, col]) % p != 0:
                piv = r
                break
        if piv < 0:
            raise ValueError("matrix is singular over the local ring")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
        inv = pow(int(A[col, col]), -1, modulus)
        A[col] = A[col] * inv % modulus
        factors = A[:, col].copy()
        factors[col] = 0
        A = (A - np.outer(factors, A[col])) % modulus
    return A[:, n]


def invert(a: RingElement) -> RingElement:
    """Inverse of a unit by solving the multiplication-matrix system M_a x = e_0."""
    p = a.ctx.p
    M = _mult_matrix_mod(a.coeffs, p, a.modulus)
    rhs = np.zeros(p - 1, dtype=M.dtype)
    rhs[0] = 1
    x = _solve_local_system(M, rhs, p, a.modulus)
    return RingElement(a.ctx, a.K, [int(c) for c in x])


def pth_power_to_depth(a: RingElement, depth: int) -> bool:
    """Whether a is congruent to c^p for some rational integer c mod lam^depth.

    c mod p^j determines c^p mod p^(j+1), so lifting the forced residue
    c = l_0 mod p through j levels covers every candidate.  a - c^p has the
    lam-coefficients of a with c^p taken off l_0.
    """
    p, m = a.ctx.p, a.modulus
    l0, *rest = lambda_coeffs(a.coeff_list(), m)
    j = max(0, -(-(depth - (p - 1)) // (p - 1)))
    for t in range(p**j):
        c = l0 % p + t * p
        if _min_valuation([(l0 - pow(c, p, m)) % m] + rest, p) >= depth:
            return True
    return False


def _valuation(a: RingElement) -> int | float:
    return lambda_valuation(a.coeff_list(), a.ctx.p, a.modulus)


def digits(a: RingElement, N: int) -> LambdaExpansion:
    """Greedy digit extraction: N digits, each certified by a valuation probe.

    For positions below p-1 the lam-coefficient mod p predicts the digit,
    so its probe succeeds immediately; deeper positions scan the p residues.
    """
    ctx, K, p = a.ctx, a.K, a.ctx.p
    nmax = K * (p - 1)
    if not (1 <= N <= nmax):
        raise ValueError(f"precision must lie in [1, {nmax}], got {N}")
    v0 = _valuation(a)
    r = a
    lam1 = lam(ctx, K)
    lam_pow = from_integer(ctx, K, 1)
    out = []
    vcur = v0
    for i in range(N):
        if vcur >= i + 1:
            out.append(0)
        else:
            # vcur == i exactly; exactly one digit in 1..p-1 clears it
            if i <= p - 2:
                first = lambda_coeffs(r.coeff_list(), p)[i]
                cands = [first] + [d for d in range(1, p) if d != first]
            else:
                cands = list(range(1, p))
            for d in cands:
                t = r - lam_pow * d
                vt = _valuation(t)
                if vt >= i + 1:
                    r = t
                    vcur = vt
                    out.append(d)
                    break
            else:
                raise AssertionError("no digit cleared the current term")
        lam_pow = lam_pow * lam1
    return LambdaExpansion(
        digits=tuple(out),
        valuation=v0 if v0 < N else CAP,
        precision=N,
    )


def nullspace_mod_p(M: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the kernel of M over F_p (row-reduction, unit pivots)."""
    A = M % p
    rows, cols = A.shape
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i, c] % p), None)
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        mask = np.arange(rows) != r
        A[mask] = (A[mask] - np.outer(A[mask, c], A[r])) % p
        pivot_of_col[c] = r
        r += 1
    basis = []
    for c in range(cols):
        if c in pivot_of_col:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[c] = 1
        for pc, pr in pivot_of_col.items():
            v[pc] = (-A[pr, c]) % p
        basis.append(v)
    return basis


def _eigenspace_dimension(p: int, u: int, mu: int) -> int:
    """Dimension over F_p of the mu-eigenspace of the permutation j -> u*j mod p.

    A permutation matrix splits into one block per cycle.  An L-cycle has
    eigenvalue mu iff mu^L = 1, with a one-dimensional eigenspace, since
    L < p makes x^L - 1 separable mod p.
    """
    seen = [False] * p
    dimension = 0
    for start in range(1, p):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = j * u % p
            length += 1
        if pow(mu, length, p) == 1:
            dimension += 1
    return dimension


def _bareiss_det(M: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss recurrence)."""
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def norm_bareiss(a: ExactElement) -> int:
    """Field norm as the determinant of the multiplication matrix."""
    p = a.p
    cols = [list(a.coeffs)]
    for _ in range(p - 2):
        prev = cols[-1]
        ext = [0] + prev  # multiply by z
        top = ext[p - 1]
        cols.append([ext[i] - top for i in range(p - 1)])
    M = [[cols[j][i] for j in range(p - 1)] for i in range(p - 1)]
    return _bareiss_det(M)


def fold_mul(a, b, p: int, modulus: int | None, dtype):
    """Multiply two coefficient vectors of length p-1, reduce by Phi_p.

    With object-dtype vectors every sum is a Python int, whatever the width.
    """
    conv = np.convolve(a, b)  # degrees 0 .. 2p-4
    ext = np.zeros(p, dtype=dtype)  # exponents 0 .. p-1 after z^p = 1
    ext[: min(p, conv.size)] += conv[:p]
    if conv.size > p:
        ext[: conv.size - p] += conv[p:]
    out = ext[: p - 1] - ext[p - 1]
    if modulus is not None:
        out = out % modulus
    return out


def mul_mod(a, b, p: int, modulus: int) -> list[int]:
    """Product of two coefficient lists mod Phi_p and modulus, in Python ints."""
    obj = [np.array([int(v) for v in x], dtype=object) for x in (a, b)]
    return [int(v) for v in fold_mul(obj[0], obj[1], p, modulus, object)]


def lambda_coeffs(coeffs, modulus: int) -> list[int]:
    """Coefficients over lam^0, lam^1, ... of a(z) = a(1 + lam), mod modulus.

    The Taylor shift of a by 1, by Horner's rule in Python ints:
    acc <- acc * (x + 1) + c from the top coefficient down.  It keeps the
    degree, so no reduction by Phi_p is needed.
    """
    acc: list[int] = []
    for c in reversed([int(v) for v in coeffs]):
        acc = [(x + y) % modulus for x, y in zip([c] + acc, acc + [0])]
    return acc


def lambda_valuation(coeffs, p: int, modulus: int) -> int | float:
    """min(i + (p-1) v_p(l_i)) over the nonzero lam-coefficients; CAP if none."""
    return _min_valuation(lambda_coeffs(coeffs, modulus), p)


def _min_valuation(lam_coeffs, p: int) -> int | float:
    best = CAP
    for i, li in enumerate(lam_coeffs):
        if li:
            v = 0
            while li % p == 0:
                li //= p
                v += 1
            best = min(best, i + (p - 1) * v)
    return best


def from_digits(ds, p: int, modulus: int) -> list[int]:
    """sum_i ds[i] * lam^i in the power basis, by Horner's rule in Python ints.

    acc * lam = acc * z - acc, where acc * z shifts the coefficients up and
    rewrites z^(p-1) = -(1 + z + ... + z^(p-2)).
    """
    acc = [0] * (p - 1)
    for d in reversed(ds):
        top = acc[-1]
        shifted = [-top] + [x - top for x in acc[:-1]]
        acc = [(s - x) % modulus for s, x in zip(shifted, acc)]
        acc[0] = (acc[0] + d) % modulus
    return acc


def digits_remainder_valuation(coeffs, ds, p: int, modulus: int) -> int | float:
    """v(a - sum_i ds[i] * lam^i): at least len(ds) when ds are a's digits."""
    rest = [(c - e) % modulus for c, e in zip(coeffs, from_digits(ds, p, modulus))]
    return lambda_valuation(rest, p, modulus)


def fold_galois(coeffs, j: int, p: int, modulus: int | None, dtype):
    """Apply z -> z^j by scattering the coefficients with np.add.at, which
    would also sum two terms sent to one slot."""
    ext = np.zeros(p, dtype=dtype)
    idx = (np.arange(p - 1, dtype=np.int64) * j) % p
    np.add.at(ext, idx, coeffs)
    out = ext[: p - 1] - ext[p - 1]
    if modulus is not None:
        out = out % modulus
    return out


def power(x, e: int):
    """x^e for e >= 0, right to left over the bits of e from the constant 1."""
    if isinstance(x, ExactElement):
        acc = ExactElement.from_integer(x.p, 1)
    else:
        acc = from_integer(x.ctx, x.K, 1)
    while e:
        if e & 1:
            acc = acc * x
        x = x * x
        e >>= 1
    return acc


def witness_identity(B: ExactElement, eta: ExactElement, beta: ExactElement) -> bool:
    """B * conj(B) = eta * beta^p by exact products, the route verify took
    before it decided the identity by values at split primes: the object
    np.convolve fold (fold_mul), conj by fold_galois, and beta^p right to
    left from the constant 1."""
    p = B.p
    b, e, w = (np.array([int(c) for c in x.coeffs], dtype=object) for x in (B, eta, beta))
    acc = np.array([1] + [0] * (p - 2), dtype=object)
    k = p
    while k:
        if k & 1:
            acc = fold_mul(acc, w, p, None, object)
        w = fold_mul(w, w, p, None, object)
        k >>= 1
    left = fold_mul(b, fold_galois(b, p - 1, p, None, object), p, None, object)
    return left.tolist() == fold_mul(e, acc, p, None, object).tolist()


def _xi_parts(p: int, a: int) -> tuple[int, list[int]]:
    """The exponent e = (1-a)/2 mod p and the geometric sum 1 + ... + z^(a-1)."""
    return (1 - a) * pow(2, -1, p) % p, [1] * a + [0] * (p - 1 - a)


def cyclotomic_unit(ctx: PrimeContext, K: int, a: int) -> RingElement:
    """xi_a = z^e * (1 + z + ... + z^(a-1)) by one ring product."""
    e, geom = _xi_parts(ctx.p, a)
    return zeta(ctx, K, e) * RingElement(ctx, K, geom)


def cyclotomic_unit_exact(p: int, a: int) -> ExactElement:
    """xi_a by one exact product of z^e and the geometric sum."""
    e, geom = _xi_parts(p, a)
    zpow = [0] * (p - 1)
    if e <= p - 2:
        zpow[e] = 1
    else:  # z^(p-1) = -(1 + z + ... + z^(p-2))
        zpow = [-1] * (p - 1)
    return ExactElement(p, zpow) * ExactElement(p, geom)


def eigen_project_unit(ctx: PrimeContext, K: int, a: int, two_m: int) -> RingElement:
    """eta = prod_j sigma^j(xi_a)^(c_j), one power per conjugate."""
    xi = cyclotomic_unit(ctx, K, a)
    exps = _inverse_powers(ctx, [two_m])[0].tolist()
    eta = from_integer(ctx, K, 1)
    for j, c in enumerate(exps):
        eta = eta * power(xi.galois_apply(ctx.upow[j]), c)
    return eta


def eigen_project_unit_exact(ctx: PrimeContext, a: int, two_m: int) -> ExactElement:
    """Exact-coefficient version of the per-conjugate power loop."""
    xi = cyclotomic_unit_exact(ctx.p, a)
    exps = _inverse_powers(ctx, [two_m])[0].tolist()
    eta = ExactElement.from_integer(ctx.p, 1)
    for j, c in enumerate(exps):
        eta = eta * power(xi.galois_apply(ctx.upow[j]), c)
    return eta


def jacobi_sum(p: int, ell: int, a: int, b: int) -> ExactElement:
    """J(chi^a, chi^b) = sum_(x != 0, 1) chi^a(x) * chi^b(1 - x) over F_ell,
    ell = 1 mod p, with chi(g^k) = z^k for sympy's primitive root g mod ell.

    One bincount over F_ell of the exponents a*ind(x) + b*ind(1 - x) mod p,
    ind the discrete log to base g, gives the counts of z^0, ..., z^(p-1),
    folded to the power basis by c_i - c_(p-1).
    """
    assert (ell - 1) % p == 0, (p, ell)
    g = primitive_root(ell)
    ind = np.zeros(ell, dtype=np.int64)
    gk = 1
    for k in range(ell - 1):
        ind[gk] = k
        gk = gk * g % ell
    x = np.arange(2, ell)
    counts = np.bincount((a * ind[x] + b * ind[ell + 1 - x]) % p, minlength=p)
    return ExactElement(p, fold(counts))


def stickelberger_indices(p: int, b: int | None = None) -> set[int]:
    """The odd s in 3..p-2 at which the ideal of the eigen-projection
    J_mu = prod_j sigma_(u^j)(J)^(mu^(-j)), mu = u^s, of the Jacobi sum
    J = J(chi, chi^b) is a p-th power, at the least prime ell = 2pm + 1.

    With r of order p mod ell, J(r^(u^j)) = 0 mod ell at the primes above
    ell in the ideal of J (Stickelberger), so the ideal of J_mu is a p-th
    power iff F_s = sum_j u^(-sj) w_j = 0 mod p, w_j = [J(r^(u^j)) = 0 mod
    ell].  b defaults, per s, to the least b with 1 + b^s != (1 + b)^s
    mod p, which keeps the b-dependent factor of the omega^s part of the
    Stickelberger element off zero; the zero set is then {1 - 2m mod (p-1)}
    over the irregular pairs (p, 2m) (Washington, Introduction to
    Cyclotomic Fields, ch. 6).
    """
    upow = np.array(new_context(p).upow, dtype=np.int64)
    ell = next(q for q in range(2 * p + 1, 2**31, 2 * p) if is_prime(q))
    r = next(x for x in (pow(g, (ell - 1) // p, ell) for g in range(2, ell)) if x != 1)
    r_pow = np.array([pow(r, k, ell) for k in range(p)], dtype=np.int64)
    exps = np.outer(upow, np.arange(p - 1)) % p  # row j: i * u^j
    zeros = {}  # b -> w
    out = set()
    for s in range(3, p - 1, 2):
        bs = b or next(c for c in range(1, p - 1) if (1 + c**s - (1 + c) ** s) % p)
        if bs not in zeros:
            coeffs = np.array(jacobi_sum(p, ell, 1, bs).coeff_list(), dtype=np.int64) % ell
            zeros[bs] = (r_pow[exps] * coeffs).sum(axis=1) % ell == 0
        w = zeros[bs]
        if int(upow[-s * np.arange(p - 1) % (p - 1)][w].sum()) % p == 0:
            out.add(s)
    return out


def eigenvector_valuation(ctx: PrimeContext, mu: int) -> int | float:
    """v(e_mu) measured over the lam-basis, at K=1."""
    return _valuation(eigenvector_element(ctx, 1, mu))


def expansion_match_digits(
    a: RingElement, mu: int, depth: int | None = None
) -> tuple[bool, int | None]:
    """Test a = 1 - delta * e_mu mod lam^depth (default p-1), digit by digit.

    With w, e the lam-coefficients mod p of a - 1 and e_mu (lambda_coeffs),
    below depth, it is w_i + delta * e_i = 0 mod p for every i < depth,
    solved at the first i with e_i != 0 (delta = 0 if there is none).
    Returns (matched, delta), or (False, None).
    """
    ctx, p = a.ctx, a.ctx.p
    depth = p - 1 if depth is None else depth
    assert 1 <= depth <= p - 1, depth
    w = lambda_coeffs((a - from_integer(ctx, a.K, 1)).coeffs, p)[:depth]
    e = lambda_coeffs(eigenvector_element(ctx, 1, mu).coeffs, p)[:depth]
    first = next((i for i, ei in enumerate(e) if ei), None)
    delta = 0 if first is None else -w[first] * pow(e[first], -1, p) % p
    if any((wi + delta * ei) % p for wi, ei in zip(w, e)):
        return False, None
    return True, delta


def unit_log(ctx: PrimeContext, K: int, a: int) -> list[int]:
    """Normal-basis coordinates of log(xi_a^(p-1)) mod p^K, the coefficient
    of z^(u^i) at index i, by the plain series sum (-1)^(n+1) Y^n / n with
    Y = xi_a^(p-1) - 1 and no argument reduction.

    v(Y) >= 2, so the term n has valuation at least 2n - (p-1) log_p(n),
    which is at least K(p-1) from n = K(p-1) on (p^K >= 1 + K(p-1)) and
    grows after.  The terms below are taken mod p^(K+g), with g guard
    digits for the division by p^(v_p(n)) <= n < p^(g+1).
    """
    p = ctx.p
    nterms = K * (p - 1)
    g = 0
    while p ** (g + 1) <= nterms:
        g += 1
    mK = p**K
    Y = power(cyclotomic_unit(ctx, K + g, a), p - 1) - from_integer(ctx, K + g, 1)
    total = [0] * (p - 1)
    term = from_integer(ctx, K + g, 1)
    for n in range(1, nterms):
        term = term * Y
        v, k = 0, n
        while k % p == 0:
            v, k = v + 1, k // p
        sign_inv = (-1) ** (n + 1) * pow(k, -1, mK)
        for i, c in enumerate(term.coeff_list()):
            assert c % p**v == 0
            total[i] = (total[i] + c // p**v * sign_inv) % mK
    span = [c - total[0] for c in total] + [-total[0]]  # over z^1 .. z^(p-1)
    return [span[j] % mK for j in ctx.upow]


def fold(slots) -> list[int]:
    """Power-basis coefficients of the p slots of z^0, ..., z^(p-1), by
    z^(p-1) = -(1 + z + ... + z^(p-2)), in Python ints."""
    top = int(slots[-1])
    return [int(c) - top for c in slots[:-1]]


def unfold(coeffs) -> list[int]:
    """The p slots of z^0, ..., z^(p-1) with slot 0 cleared, by
    1 = -(z + ... + z^(p-1)), in Python ints."""
    c0 = int(coeffs[0])
    return [0] + [int(c) - c0 for c in coeffs[1:]] + [-c0]


def span_to_element(ctx: PrimeContext, K: int, coords) -> RingElement:
    """The element with coordinates coords over z^1, ..., z^(p-1)."""
    return RingElement(ctx, K, fold([0] + [int(c) for c in coords]))


def canonical_eigenvector(ctx: PrimeContext, mu: int) -> EigenReport:
    """The per-mu report: coords[u^i - 1] = mu^(-i) mod p by pow, e_mu as
    one RingElement at K=1, and sigma(e_mu) = mu * e_mu checked by
    RingElement.galois_apply."""
    p = ctx.p
    mu = mu % p
    coords = [0] * (p - 1)
    for i in range(p - 1):
        coords[ctx.upow[i] - 1] = pow(mu, -i, p)
    elem = span_to_element(ctx, 1, coords)
    s = ctx.index_of(mu)
    return EigenReport(
        p=p,
        mu=mu,
        index_s=s,
        dimension=1,
        vector=tuple(coords),
        valuation=s,
        matches_closed_form=elem.galois_apply(ctx.u) == elem * mu,
    )


def ppower_valuations(ctx: PrimeContext, K: int, trials: int, seed: int) -> list:
    """v(x^p - y^p) of each trial of the p-th power campaign, one trial at a
    time: x a random unit, y = x + lam*g, both raised by RingElement ** at
    the full K and the difference read by lambda_valuation.  The draws are
    the campaign's, mod p^2 in its order: x's p-1 residues (drawn again
    while x is not a unit), then g's."""
    p, modulus = ctx.p, ctx.p**2
    rng = random.Random(seed)
    lam_K = lam(ctx, K)
    out = []
    for _ in range(trials):
        while True:
            xs = [rng.randrange(modulus) for _ in range(p - 1)]
            if sum(xs) % p != 0:
                break
        x = RingElement(ctx, K, xs)
        g = RingElement(ctx, K, [rng.randrange(modulus) for _ in range(p - 1)])
        out.append(_valuation(x**p - (x + lam_K * g) ** p))
    return out


# Each verify path's claims on its element X: the ids of the local p-th
# power, valuation and expansion claims (None: the path has none), the name
# of X, and whether the valuation and expansion read X^(p-1).
_VERIFY_PATHS = {
    "negative": (("twist-local-pth-power", "twist-valuation", "eigen-expansion"), "C", False),
    "b_prime": (("adjusted-local-pth-power", "adjusted-valuation", None), "B'", True),
    "positive": (("twist-local-pth-power", "power-valuation", "eigen-expansion"), "B", True),
}


def _json_valuation(v) -> int | str:
    return "cap" if v is CAP else int(v)


def _norm_shape(B: ExactElement) -> tuple[bool, dict]:
    """The norm-shape claim |N(B)| = p^t * n^p, n read by sympy's integer root.
    The digits are counted by integer_log, as str() refuses past 4300 digits."""
    p, N = B.p, norm_exact(B)
    if N == 0:
        return False, {"norm": "0"}
    t = multiplicity(p, N)
    rest = abs(N) // p**t
    root, exact = integer_nthroot(rest, p)
    data = {
        "sign": 1 if N > 0 else -1,
        "p_exponent": t,
        "p_free_part_digits": integer_log(rest, 10)[0] + 1,
        "root": str(root) if exact else None,
    }
    return bool(exact), data


def verify_full_k(bundle, path: str) -> dict:
    """The verdict JSON, refs left out, of the verify path "negative",
    "b_prime" or "positive", with every claim evaluated on B and eta mod
    p^K at the bundle's own K: the public predicates on B.reduce(ctx, K),
    each inverse by Gauss-Jordan (invert), each power by power and each
    reported valuation by lambda_valuation, and the expansion by
    expansion_match_digits on X or X^(p-1) itself.  The witness identities read no
    K; they are checked exactly and must hold."""
    ctx, K, p = bundle.ctx, bundle.K, bundle.ctx.p
    s, mu = ctx.index_of(bundle.mu), bundle.mu
    (local, val_id, exp_id), name, raised = _VERIFY_PATHS[path]
    B = bundle.B.reduce(ctx, K)
    if path == "b_prime":
        assert witness_identity(bundle.B, bundle.eta, bundle.beta)
        assert bundle.eta.conjugate() == bundle.eta
        claims = [("witness-product", True, {}), ("witness-real", True, {})]
        X = B * B * invert(bundle.eta.reduce(ctx, K))
    else:
        v = _valuation(B)
        claims = [
            ("semi-primary", is_semi_primary(B), {"valuation": _json_valuation(v)}),
            ("norm-shape", *_norm_shape(bundle.B)),
        ]
        X = None if v else B * invert(B.conjugate()) if path == "negative" else B
    if X is None:
        reason = "B is not a unit at the ramified prime; quotient checks undefined"
        claims += [(c, None, {"skipped": reason}) for c in (local, val_id, exp_id) if c]
    else:
        twisted = X.galois_apply(ctx.u) * invert(power(X, mu))
        claims.append((local, is_locally_pth_power(twisted, p + 1), {}))
        prim = is_primary(X)
        Y = power(X, p - 1) if raised else X
        if prim:
            claims.append((val_id, None, {"skipped": f"{name} is primary"}))
        else:
            v = _valuation(Y - from_integer(ctx, K, 1))
            claims.append((val_id, v == s, {"expected": s, "measured": _json_valuation(v)}))
        if exp_id and s > (p - 1) // 2:
            matched, delta = expansion_match_digits(Y, mu)
            holds = matched and (prim or (delta is not None and delta % p != 0))
            claims.append((exp_id, holds, {"matched": matched, "delta": delta, "primary": prim}))
        elif exp_id:
            reason = "index within the low range; expansion form not asserted"
            claims.append((exp_id, None, {"skipped": reason}))
    return {
        "overall": all(h for _, h, _ in claims if h is not None),
        "claims": [{"id": c, "holds": h, "data": d} for c, h, d in claims],
    }


@dataclass(frozen=True)
class RecurrenceSolution:
    """Coefficient solution of the eigen equation in the affine picture.

    The element gamma + sum_i gammas[i] * z^(u^i) (i = 0..p-3) satisfies
    sigma(V) = mu * V; gammas[p-3] equals the free parameter and the
    constant term is gamma = -free / (mu - 1) mod p.
    """

    p: int
    mu: int
    free: int
    gamma: int
    gammas: tuple[int, ...]

    def to_ring_element(self, ctx: PrimeContext) -> RingElement:
        if ctx.p != self.p:
            raise ValueError(f"context prime {ctx.p} != solution prime {self.p}")
        slots = _normal_slots(ctx, np.array(self.gammas + (0,), dtype=np.int64))
        slots[0] = self.gamma
        return RingElement(ctx, 1, _fold(slots))


def recurrence_solve(ctx: PrimeContext, mu: int, free: int) -> RecurrenceSolution:
    """Solve the linear recurrence the eigen equation imposes coefficientwise.

    Closing the loop forces gammas[p-3] back to the free parameter; that
    consistency is asserted rather than assumed.
    """
    p = ctx.p
    _indices(ctx, [mu])  # refuses mu = 0, 1
    mu = mu % p
    free = free % p
    minv = pow(mu, -1, p)
    gammas = [(-free) * minv % p]
    for _ in range(1, p - 2):
        gammas.append((gammas[-1] - free) * minv % p)
    assert gammas[p - 3] == free, "recurrence failed to close"
    gamma = (-free) * pow(mu - 1, -1, p) % p
    return RecurrenceSolution(p=p, mu=mu, free=free, gamma=gamma, gammas=tuple(gammas))


def semi_primary_normalize(a: RingElement) -> tuple[int, RingElement]:
    """Return (w, a * z^w) with the product semi-primary.

    The twist exponent solves d1 + w*d0 = 0 mod p on the leading digits,
    and is the unique such w mod p.
    """
    _require_unit(a, "semi_primary_normalize")
    p = a.ctx.p
    d0, d1 = _first_two_digits(a)
    w = (-d1 * pow(d0, -1, p)) % p
    b = a * zeta(a.ctx, a.K, w)
    assert is_semi_primary(b)
    return w, b


def solve_unit_adjustment(
    ctx: PrimeContext, mu: int, components: list[tuple[int, int]]
) -> list[int]:
    """Exponents rho_j with rho_j * (nu_j - mu) = l_j mod p, one per component.

    Combining W_j^rho_j for units with twist eigenvalues nu_j != mu absorbs
    the leftover eigencomponents l_j; a component with nu_j = mu cannot be
    adjusted and is rejected by index.
    """
    p = ctx.p
    mu = mu % p
    if mu == 0:
        raise ValueError("mu must be invertible mod p")
    out = []
    for idx, (nu, ell) in enumerate(components):
        nu = nu % p
        if nu == mu:
            raise ValueError(
                f"component {idx}: twist eigenvalue {nu} equals mu; "
                "no adjustment exponent exists"
            )
        out.append(ell * pow(nu - mu, -1, p) % p)
    return out
