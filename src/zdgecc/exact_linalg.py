"""Exact integer/rational dense linear algebra.

Arbitrary-precision throughout: characteristic polynomials of integer
matrices, exact determinants, integer roots and certified real roots, and
the block-matrix determinant identities (Schur complement, coronel of a
matrix, all-ones shifts, rank-one adjugate perturbations) used to derive
closed-form eccentricity spectra.

The characteristic polynomial is computed modulo primes below 2^26, all in
one numpy pass (Hessenberg reduction, then Cohen's recurrence), and lifted
by the Chinese remainder theorem.  The primes' product exceeds twice a
coefficient bound, the least of (1 + r)^k, r = isqrt(ceil(||M||_F^2 / k)) + 1
for a k x k matrix (Schur's and Maclaurin's inequalities), and the products
of 1 + ||row|| and of 1 + ||column|| (Hadamard's inequality), so the lift is
exact without any probabilistic check.  Matrices of one order can share one
pass.  Determinants, inverses and the identity checks are implemented here
independently, so the routes cross-validate.
``integrality_certificate`` runs it only on the twin quotient of a matrix:
twin blocks (``twin_partition``) form an equitable partition, checked on every
call, whose ``k x k`` quotient carries every eigenvalue but the block factors
``(x - d + c)^(m-1)`` (Godsil and Royle, *Algebraic Graph Theory*, ch. 9).
Given row weights it certifies the blow-up the rows stand for, which is how a
class model is certified from its sample without any ``V x V`` matrix, and
without any polynomial of degree V: a certificate stores only its integer
roots and residual, and expands the whole polynomial (``poly``) when read.

The quotient is similar to a symmetric matrix, so its roots are real and
each lies within a few ulps of one of that matrix's float eigenvalues
(Weyl's inequality: Horn and Johnson, *Matrix Analysis*, ch. 4).  Those
eigenvalues seed the roots: integers near them are deflated exactly, and the
other roots are bracketed around them and certified by exact sign tests, so
a float error can only send the certificate to the complete path, never
make it wrong.  The complete path needs no floats: Yun's square-free
decomposition over an exact integer gcd, then Descartes' rule of signs with
exact bisection, which both finds the integer roots and isolates the rest,
in one pass whose isolation the certificate keeps.  Either way a
certificate's isolation is None only when the residual has a non-real root.
Real roots are reported as midpoints of cells of one fixed 2^-44 grid, so
both paths give the same floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from zdgecc.number_theory import is_prime

RatMatrix = list[list[Fraction]]


class SingularBlockError(ValueError):
    """Leading block is singular where the Schur complement needs its inverse."""


class EvaluationAtEigenvalueError(ValueError):
    """xI - M is singular at the requested evaluation point."""


class EquitabilityError(ValueError):
    """Raised when a partition is not equitable for the given matrix."""


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1 and not self.is_zero

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(tuple(out))

    def deflate(self, root: int) -> tuple["IntPoly", int]:
        """Synthetic division by (x - root); returns (quotient, remainder)."""
        desc = list(reversed(self.coeffs))
        out = [desc[0]]
        for c in desc[1:]:
            out.append(c + root * out[-1])
        rem = out.pop()
        return IntPoly(tuple(reversed(out))), rem

    def text(self) -> str:
        """Ascending text form like ``-4 - 6*x + x^3``."""
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            terms.append((c < 0, body))
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    @classmethod
    def from_descending(cls, coeffs) -> "IntPoly":
        return cls(tuple(reversed([int(c) for c in coeffs])))


def _as_fraction_matrix(mat) -> RatMatrix:
    rows = [[Fraction(x) for x in row] for row in np.asarray(mat, dtype=object)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def determinant(mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _as_fraction_matrix(mat)
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else Fraction(1)


@functools.cache
def _prime_below(n: int) -> int:
    """The largest prime below n, found when first needed."""
    return next(m for m in range(n - 1, 1, -1) if is_prime(m))


def _primes(bits: int, bound: int) -> list[int]:
    """The fewest primes below 2^bits, largest first, whose product exceeds bound."""
    out, prod, p = [], 1, 1 << bits
    while prod <= bound:
        p = _prime_below(p)
        out.append(p)
        prod *= p
    return out


def _char_poly_mod(h: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(xI - M) mod p, one row per prime p, from
    the stack h of M mod p (shape (P, k, k), int64, overwritten).

    Each step is one array operation over every prime.  First h is reduced
    to upper Hessenberg form by similarity: at column j the rows below j + 1
    are cleared with multiples of row j + 1, and the same multiples of their
    columns are added to column j + 1; only a prime whose pivot is 0 swaps a
    row and column pair first.  Then the polynomial p_m of each leading
    m x m block follows from the smaller ones (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.2.9):
    p_m = x p_(m-1) - sum over i <= m of h_im t_i p_(i-1), where t_i is the
    product of the subdiagonal entries h_(i+1,i) ... h_(m,m-1) (t_m = 1), so
    that t for m is t for m - 1 times h_(m,m-1), then 1.  Entries stay in
    [0, p), so each sum of products is below k (p - 1)^2 < 2^63: exact.
    """
    n_primes, k = len(primes), h.shape[-1]
    col, cube = primes[:, None], primes[:, None, None]
    plist = primes.tolist()
    for j in range(k - 2):
        pivots = h[:, j + 1, j]
        if not pivots.all():
            for q in np.flatnonzero(pivots == 0).tolist():
                below = np.flatnonzero(h[q, j + 2 :, j])
                if below.size:
                    i, hq = j + 2 + int(below[0]), h[q]
                    hq[[j + 1, i]] = hq[[i, j + 1]]
                    hq[:, [j + 1, i]] = hq[:, [i, j + 1]]
        inv = [pow(x, -1, p) if x else 0 for x, p in zip(pivots.tolist(), plist)]
        u = h[:, j + 2 :, j] * np.array(inv, dtype=np.int64)[:, None] % col
        h[:, j + 2 :, j:] = (h[:, j + 2 :, j:] - u[:, :, None] * h[:, None, j + 1, j:]) % cube
        h[:, :, j + 1] = (h[:, :, j + 1] + (h[:, :, j + 2 :] @ u[:, :, None])[:, :, 0]) % col
    polys = np.zeros((n_primes, k + 1, k + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    t = np.ones((n_primes, k), dtype=np.int64)
    for m in range(1, k + 1):
        if m > 1:
            t[:, : m - 1] = t[:, : m - 1] * h[:, m - 1, m - 2, None] % col
        w = h[:, :m, m - 1] * t[:, :m] % col
        new = polys[:, m, : m + 1]
        new[:, 1:] = polys[:, m - 1, :m]
        new[:, :m] -= (w[:, None, :] @ polys[:, :m, :m])[:, 0]
        new %= col
    return polys[:, k]


def _norm_product(squares: list[int]) -> int:
    """The product of 1 + ceil(sqrt(s)) over the squared norms s."""
    out = 1
    for s in squares:
        root = math.isqrt(s)
        out *= 1 + root + (root * root < s)
    return out


def _coefficient_bounds(stack: np.ndarray) -> list[int]:
    """A bound on every coefficient of det(xI - M), for each integer matrix
    M of a (G, k, k) stack (int64, or object for entries beyond int64).

    It is the least of three bounds.  With F = ||M||_F^2, Schur's
    inequality gives sum |lambda_i|^2 <= F; then Maclaurin's inequality and
    the power mean give |e_i(lambda)| <= C(k, i) r^i with
    r = isqrt(ceil(F / k)) + 1, so (1 + r)^k bounds every coefficient.  The
    coefficient of x^(k-i) is, up to sign, the sum of the i x i principal
    minors; Hadamard's inequality bounds each minor by the product of its
    rows' norms, each at most the whole row's norm, so the sum is at most
    e_i of the row norms, and every coefficient is at most the product of
    1 + ||row|| (norms rounded up); the same holds for the columns.
    """
    k = stack.shape[-1]
    big = stack.dtype == object or k * int(np.abs(stack).max(initial=0)) ** 2 >= 1 << 63
    squares = stack.astype(object) ** 2 if big else stack * stack
    out = []
    for rows, cols in zip(squares.sum(axis=2).tolist(), squares.sum(axis=1).tolist()):
        r = math.isqrt(-(-sum(rows) // k)) + 1
        out.append(min((1 + r) ** k, _norm_product(rows), _norm_product(cols)))
    return out


def _char_polys_of_order(stack: np.ndarray) -> list[IntPoly]:
    """det(xI - M) of each integer matrix M of a (G, k, k) stack: one
    ``_char_poly_mod`` pass over every (matrix, prime) pair, with the
    primes of the largest coefficient bound in the stack.  Each pass holds
    at most about 2^22 matrix entries; the residues are lifted by the
    Chinese remainder theorem to symmetric residues."""
    g, k = stack.shape[0], stack.shape[-1]
    if k == 0:
        return [IntPoly((1,))] * g
    bound = max(_coefficient_bounds(stack))
    primes = _primes(min(26, (63 - (k - 1).bit_length()) // 2), 2 * bound)
    parr = np.array(primes, dtype=np.int64)
    per_pass = max(1, (1 << 22) // (k * k))  # (matrix, prime) pairs
    p_step = min(len(primes), per_pass)
    m_step = per_pass // p_step
    residues = np.empty((g, len(primes), k + 1), dtype=np.int64)
    for a in range(0, g, m_step):
        mats = stack[a : a + m_step, None]
        for b in range(0, len(primes), p_step):
            ps = parr[b : b + p_step]
            h = (mats % ps.astype(stack.dtype)[:, None, None]).astype(np.int64, copy=False)
            polys = _char_poly_mod(h.reshape(-1, k, k), np.tile(ps, len(mats)))
            residues[a : a + m_step, b : b + p_step] = polys.reshape(len(mats), len(ps), k + 1)
    modulus = math.prod(primes)
    cofactors = [modulus // p for p in primes]
    weights = np.array([pow(c, -1, p) for c, p in zip(cofactors, primes)], dtype=np.int64)
    scaled = (residues * weights[:, None] % parr[:, None]).transpose(0, 2, 1).astype(object)
    lifted = (scaled @ np.array(cofactors, dtype=object) % modulus).tolist()
    return [IntPoly(tuple(c - modulus if 2 * c > modulus else c for c in row)) for row in lifted]


def _by_order(stacks: list[np.ndarray], kernel) -> list:
    """``kernel`` applied once to the concatenation of the (G, k, k) stacks
    of each matrix order k, its result split back per stack."""
    out: list = [None] * len(stacks)
    by_order: dict[int, list[int]] = {}
    for i, stack in enumerate(stacks):
        by_order.setdefault(stack.shape[-1], []).append(i)
    for idx in by_order.values():
        result = kernel(np.concatenate([stacks[i] for i in idx]))
        start = 0
        for i in idx:
            out[i] = result[start : start + len(stacks[i])]
            start += len(stacks[i])
    return out


def char_poly(mat) -> IntPoly:
    """Exact monic characteristic polynomial det(xI - M) of an integer matrix.

    Computed modulo primes below 2^26 (``_char_poly_mod``, all primes in one
    pass) and lifted by the Chinese remainder theorem to symmetric residues.
    Their product exceeds 2B for a bound B on every coefficient
    (``_coefficient_bounds``), so the lift is exact.  The prime size keeps
    k (p - 1)^2 below 2^63 for a k x k matrix, and each pass holds at most
    about 2^22 matrix entries.  This is the batch of one of
    ``_char_polys_of_order``.
    """
    arr = np.asarray(mat)
    k = arr.shape[0]
    if arr.shape != (k, k):
        raise ValueError("matrix must be square")
    rows = []
    for row in arr.tolist():
        out = []
        for v in row:
            iv = int(v)
            if iv != v:
                raise ValueError(f"non-integer entry {v!r}")
            out.append(iv)
        rows.append(out)
    try:
        exact = np.array(rows, dtype=np.int64).reshape(k, k)
    except OverflowError:  # an entry beyond int64 is reduced as a Python int
        exact = np.array(rows, dtype=object)
    return _char_polys_of_order(exact[None])[0]


def _sign_at(desc: list[int], num: int, den: int) -> int:
    """Sign at num / den (den > 0) of the polynomial with descending coefficients desc."""
    acc, scale = desc[0], 1
    for c in desc[1:]:
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


# Real roots are refined on one fixed dyadic grid of step 1/_GRID < 1e-13.
# A root of a monic integer polynomial with no integer root is irrational, so
# it is never a grid point: whichever route isolated it, it is reported as
# the midpoint of the same grid cell.  A bracket (lo, hi) of grid indices
# holds exactly one root strictly between lo / _GRID and hi / _GRID, with a
# sign change between them when hi - lo > 1.
_GRID = 1 << 44


def _cell(desc: list[int], lo: int, hi: int) -> int:
    """Left end of the grid cell that holds the root of bracket (lo, hi):
    steps doubling out from the bracket's midpoint (a seeded bracket's
    seed) until the sign changes, then bisection."""
    if hi - lo == 1:
        return lo
    sign_lo = _sign_at(desc, lo, _GRID)
    step, mid = 1, (lo + hi) // 2
    if _sign_at(desc, mid, _GRID) == sign_lo:
        lo = mid
        while lo + step < hi:
            if _sign_at(desc, lo + step, _GRID) != sign_lo:
                hi = lo + step
                break
            lo, step = lo + step, 2 * step
    else:
        hi = mid
        while hi - step > lo:
            if _sign_at(desc, hi - step, _GRID) == sign_lo:
                lo = hi - step
                break
            hi, step = hi - step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_at(desc, mid, _GRID) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo


def _refine(isolation) -> tuple[tuple[float, int], ...]:
    """Ascending (root, multiplicity) pairs of an isolation, a tuple of
    (descending coefficients, multiplicity, brackets) per square-free part:
    each root is the midpoint of its grid cell (``_cell``)."""
    out = []
    for desc, mult, brackets in isolation:
        for lo, hi in brackets:
            cell = _cell(desc, lo, hi)
            out.append((float(Fraction(2 * cell + 1, 2 * _GRID)), mult))
    return tuple(sorted(out))


def _snap(desc: list[int], a: Fraction, b: Fraction) -> tuple[int, int]:
    """Grid bracket of the one root of desc in (a, b), neither end a root."""
    lo, hi = -(-a.numerator * _GRID // a.denominator), b.numerator * _GRID // b.denominator
    if lo > hi:  # no grid point in [a, b]
        return hi, hi + 1
    sign_a = _sign_at(desc, a.numerator, a.denominator)
    if _sign_at(desc, lo, _GRID) != sign_a:
        return lo - 1, lo
    if _sign_at(desc, hi, _GRID) == sign_a:
        return hi, hi + 1
    return lo, hi


def _trim(p: list[int]) -> list[int]:
    """p without leading zero coefficients; [] is the zero polynomial."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _primitive(p: list[int]) -> list[int]:
    """Nonzero p divided by its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    return [c // g for c in p] if p[0] > 0 else [-c // g for c in p]


def _derivative(p: list[int]) -> list[int]:
    return [c * k for c, k in zip(p, range(len(p) - 1, 0, -1))]


def _sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + a, [0] * (n - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def _divide(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a in Z[x]."""
    a, lead, out = list(a), b[0], []
    for i in range(len(a) - len(b) + 1):
        q = a[i] // lead
        out.append(q)
        if q:
            for j in range(1, len(b)):
                a[i + j] -= q * b[j]
    return _trim(out)


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Greatest common divisor of nonzero integer polynomials, primitive
    with a positive leading coefficient, by the primitive remainder sequence
    (Cohen, *A Course in Computational Algebraic Number Theory*, §3.3)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = a  # the pseudo-remainder of a by b, up to a constant factor
        while len(r) >= len(b):
            head, tail = r[0], r[1:]
            if head:
                lead = b[0]
                tail = [lead * x - head * y for x, y in zip(tail, b[1:])] + [
                    lead * x for x in tail[len(b) - 1 :]
                ]
            r = tail
        r = _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _parts(poly: IntPoly) -> list[tuple[list[int], int]]:
    """Square-free decomposition by Yun's algorithm (SYMSAC 1976): the
    parts of positive degree, as (descending coefficients, multiplicity) with
    multiplicities ascending, of f = prod part^mult up to its content.

    With a_1 = gcd(f, f'), b_1 = f / a_1 and c_1 = f' / a_1, each step
    takes d_i = c_i - b_i', the part a_i = gcd(b_i, d_i), then
    b_(i+1) = b_i / a_i and c_(i+1) = d_i / a_i, until b is constant.  Every
    gcd is primitive, so by Gauss's lemma every division is exact in Z[x].
    """
    f = _trim(list(reversed(poly.coeffs)))
    if len(f) < 2:
        return []
    f = _primitive(f)
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    parts, mult = [], 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d) if d else b
        if len(a) > 1:
            parts.append((a, mult))
        b, c = _divide(b, a), _divide(d, a)
        mult += 1
    return parts


def _taylor_shift(p: list[int]) -> list[int]:
    """Ascending coefficients of p(x + 1), p ascending."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _variations(p: list[int]) -> int:
    """Sign changes in a coefficient sequence, zeros skipped, counted up to 2."""
    count, last = 0, 0
    for c in p:
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    return 2
            last = c
    return count


def _positive_intervals(p: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Ascending isolating intervals of the positive roots of a square-free
    integer polynomial p (ascending coefficients), by Descartes' rule of
    signs with exact bisection (Collins and Akritas, SYMSAC 1976).

    Every root lies below 2^e (Cauchy's bound), so those of q(x) = p(2^e x)
    lie in (0, 1).  On an interval, mapped to (0, 1), the sign changes of
    (x + 1)^n q(1 / (x + 1)) bound its roots in the open interval and match
    their parity: none drops it, one isolates a root, more halve it.  A
    midpoint that is a root is returned as (r, r), and an interval with a
    root at an end is halved again, so no end of (a, b) is a root.
    """
    bound = 1 + -(-max(abs(c) for c in p[:-1]) // abs(p[-1]))
    e = bound.bit_length()
    q = [c << (e * i) for i, c in enumerate(p)]
    out, stack = [], [(q, 0, 0, p[0] == 0, False)]
    while stack:
        q, c, k, lo_root, hi_root = stack.pop()
        v = _variations(_taylor_shift(q[::-1]))
        if v == 0:
            continue
        if v == 1 and not (lo_root or hi_root):
            out.append((Fraction(c << e, 1 << k), Fraction((c + 1) << e, 1 << k)))
            continue
        m = len(q) - 1
        left = [a << (m - i) for i, a in enumerate(q)]  # 2^m q(x / 2) on (0, 1/2)
        g = math.gcd(*left)
        left = [a // g for a in left]
        right = _taylor_shift(left)  # on (1/2, 1)
        mid_root = right[0] == 0
        if mid_root:
            mid = Fraction((2 * c + 1) << e, 1 << (k + 1))
            out.append((mid, mid))
        stack += [(right, 2 * c + 1, k + 1, mid_root, hi_root),
                  (left, 2 * c, k + 1, lo_root, mid_root)]
    return sorted(out)


def _root_intervals(desc: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Ascending isolating intervals (a, b) of the real roots of a
    square-free integer polynomial with descending coefficients desc:
    exactly one root in (a, b), neither end a root, or a = b, a root."""
    p = list(reversed(desc))
    if len(p) < 2:
        return []
    flipped = [-c if i % 2 else c for i, c in enumerate(p)]  # p(-x)
    zero = [(Fraction(0), Fraction(0))] if p[0] == 0 else []
    return [(-b, -a) for a, b in reversed(_positive_intervals(flipped))] + zero + _positive_intervals(p)


def _integer_in(desc: list[int], a: Fraction, b: Fraction) -> int | None:
    """The root of desc in the isolating interval (a, b) if it is an
    integer, else None: O(log(b - a)) exact sign tests, not b - a."""
    if a == b:
        return int(a) if a.denominator == 1 else None
    lo, hi = math.floor(a) + 1, math.ceil(b) - 1  # the integers inside
    if lo > hi:
        return None
    sign_a = _sign_at(desc, a.numerator, a.denominator)
    s = _sign_at(desc, lo, 1)
    if s != sign_a:
        return lo if s == 0 else None
    s = _sign_at(desc, hi, 1)
    if s == sign_a:
        return None
    if s == 0:
        return hi
    while hi - lo > 1:  # the root is in (lo, hi), whose signs differ
        mid = (lo + hi) // 2
        s = _sign_at(desc, mid, 1)
        if s == 0:
            return mid
        lo, hi = (mid, hi) if s == sign_a else (lo, mid)
    return None


def _complete(poly: IntPoly, bound: int) -> tuple[list[tuple[int, int]], IntPoly, tuple | None]:
    """``integer_roots``' roots and residual, and the residual's isolation
    (see ``_refine``): one square-free decomposition (``_parts``) and one
    ``_root_intervals`` call per part serve both.  Each integer root found
    is also divided out of its part, exactly, and the part's other intervals
    are snapped to the grid.  The isolation is None when a part has a
    non-real root; it holds every root of the residual only when the bound
    covers every real root.
    """
    work = poly
    found: dict[int, int] = {}
    while work.degree > 0 and work.coeffs[0] == 0:
        work, _ = work.deflate(0)
        found[0] = found.get(0, 0) + 1
    isolation: list | None = []
    for desc, mult in _parts(work):
        intervals, part, rest = _root_intervals(desc), desc, []
        for a, b in intervals:
            z = None if b < -bound or a > bound else _integer_in(desc, a, b)
            if z is None or abs(z) > bound:
                rest.append((a, b))
                continue
            for _ in range(mult):
                work, rem = work.deflate(z)
                if rem:
                    raise ArithmeticError(f"{z} is not a root of multiplicity {mult}")
            found[z] = mult
            part = _divide(part, [1, -z])
        if len(intervals) != len(desc) - 1:
            isolation = None
        elif isolation is not None and rest:
            isolation.append((tuple(part), mult, tuple(_snap(part, a, b) for a, b in rest)))
    return sorted(found.items()), work, None if isolation is None else tuple(isolation)


def integer_roots(poly: IntPoly, bound: int) -> tuple[list[tuple[int, int]], IntPoly]:
    """All integer roots in [-bound, bound] of a monic polynomial, with
    multiplicities, plus the residual.

    Each square-free part (``_parts``) has its real roots isolated
    (``_root_intervals``); inside each interval that meets [-bound, bound],
    bisection on integers finds the root if it is an integer.  The root is
    then deflated as often as its part's multiplicity, each extraction
    verified by exact synthetic division.  The time grows with the log of
    the bound, not the bound.  This is ``_complete`` without the residual's
    isolation, which is sound only for a bound that covers every real root.
    """
    if not poly.is_monic:
        raise ValueError("integer_roots requires a monic polynomial")
    roots, residual, _ = _complete(poly, int(bound))
    return roots, residual


def real_roots(poly: IntPoly) -> list[tuple[float, int]]:
    """Ascending real roots, with exact multiplicities, of a monic integer
    polynomial, such as the ``integer_roots`` residual.

    One ``_complete`` pass bounded by Cauchy's bound, so its isolation holds
    every real root but the integer ones, which are exact.  Each isolated
    root is bisected with exact integer sign tests to its cell of the 2^-44
    grid (no grid point is a root), whose midpoint is reported.  A None
    isolation, from a square-free part with fewer real roots than its
    degree, raises ArithmeticError.
    """
    roots, _, isolation = _complete(poly, 1 + max(map(abs, poly.coeffs)))
    if isolation is None:
        raise ArithmeticError(f"{poly.text()} has a non-real root")
    return sorted([(float(z), m) for z, m in roots] + list(_refine(isolation)))


@dataclass(frozen=True)
class IntegralityCertificate:
    """Exact characteristic polynomial split into integer linear factors and
    the residual that has no integer root.

    ``isolation`` holds the residual's roots as grid brackets (see
    ``_refine``), kept from the pass that found the integer roots;
    ``residual_roots`` refines them once, when first read.  It is None only
    when a square-free part of the residual has a non-real root, and then
    reading ``residual_roots`` raises ArithmeticError.
    """

    roots: tuple[tuple[int, int], ...]
    residual: IntPoly
    isolation: tuple | None = field(compare=False, repr=False)

    @property
    def integral(self) -> bool:
        return self.residual.degree == 0

    @functools.cached_property
    def poly(self) -> IntPoly:
        """The whole characteristic polynomial, residual * (x - r)^m over
        ``roots``, expanded once, when first read: its degree is the
        matrix order, which reaches millions on a class model."""
        poly = self.residual
        for root, mult in self.roots:
            poly = poly * _power_of_linear(root, mult)
        return poly

    @functools.cached_property
    def residual_roots(self) -> tuple[tuple[float, int], ...]:
        """Ascending real roots of the residual, with multiplicities."""
        if self.isolation is None:
            raise ArithmeticError(f"{self.residual.text()} has a non-real root")
        return _refine(self.isolation)

    def text(self) -> str:
        parts = []
        for root, mult in self.roots:
            if root == 0:
                base = "x"
            else:
                base = f"(x - {root})" if root > 0 else f"(x + {-root})"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        if not self.integral:
            parts.append(f"({self.residual.text()})")
        return " * ".join(parts) if parts else "1"


def _integer_matrix(mat) -> np.ndarray:
    """The square matrix as int64; a non-integer entry raises ValueError
    before anything is truncated."""
    arr = np.asarray(mat)
    n = arr.shape[0] if arr.ndim else -1
    if arr.shape != (n, n):
        raise ValueError("matrix must be square")
    if arr.dtype.kind not in "bi":
        for v in arr.ravel().tolist():
            if int(v) != v:
                raise ValueError(f"non-integer entry {v!r}")
    return arr.astype(np.int64, copy=False)


def twin_partition(mat) -> tuple[tuple[int, ...], ...]:
    """Twin blocks of a symmetric integer matrix, singletons included,
    ordered by smallest index.

    Rows i != j are twins iff M[i, i] = M[j, j] = d and the rows agree in every
    column but i and j, where they read (d, c) and (c, d), c = M[i, j]: iff the
    diagonals match and A[i, j] = V - 2 [c != d], A = sum over distinct entries
    v of (M == v)(M == v)^T counting agreeing columns (exact in float64).
    Transitive: i ~ j and j ~ k give c = M[i, j] = M[k, i] = M[i, k] = M[j, k]
    by symmetry, so rows i and k agree off {i, k}.  So a block is c(J - I) + dI
    and every block-to-block submatrix is constant: the partition is equitable.
    """
    arr = np.asarray(mat)
    agree = np.zeros(arr.shape)
    for value in set(arr.ravel().tolist()):
        hits = (arr == value).astype(np.float64)
        agree += hits @ hits.T
    diag = np.diagonal(arr)[:, None]
    twin = (agree == len(arr) - 2 * (arr != diag)) & (diag == diag.T)
    heads = twin.argmax(axis=1).tolist() if len(arr) else []  # smallest twin, the row included
    blocks: dict[int, list[int]] = {}
    for i, h in enumerate(heads):
        blocks.setdefault(h, []).append(i)
    return tuple(tuple(b) for b in blocks.values())


def _equitable_quotient(mat, blocks, sizes=None) -> np.ndarray:
    """Block row-sum matrix (int64) of an equitable partition of an integer
    matrix, else EquitabilityError naming the first offending block pair.

    Row i stands for ``sizes[i]`` twins of itself (one by default), so its
    sum into its own block gains (sizes[i] - 1) * (c - d), c the block's
    entry between two of its rows and d the row's diagonal entry.  A block
    standing for no row, or for several rows but holding one (its c unseen),
    raises ValueError.  ``sizes`` may also be a (G, rows) stack of
    weightings; the result is then the (G, B, B) stack of their quotients,
    and the first weighting at fault names the error.
    """
    arr = _integer_matrix(mat)
    sizes = np.ones(len(arr), dtype=np.int64) if sizes is None else np.asarray(sizes, dtype=np.int64)
    if sizes.shape[-1:] != (len(arr),) or sizes.ndim > 2:
        raise ValueError(f"{sizes.size} sizes for {len(arr)} rows")
    stack = np.atleast_2d(sizes)
    owner = np.empty(len(arr), dtype=np.int64)  # block index of each row
    for a, block in enumerate(blocks):
        owner[list(block)] = a
    member = np.eye(len(blocks), dtype=np.int64)[owner]
    totals = stack @ member
    wrong = (totals == 0) | ((member.sum(axis=0) == 1) & (totals > 1))
    if wrong.any():
        g, a = np.unravel_index(int(wrong.argmax()), wrong.shape)
        raise ValueError(f"block {a} holds {len(blocks[a])} rows standing for {totals[g, a]}")
    reps = [b[0] for b in blocks]
    c = arr[reps, [b[len(b) > 1] for b in blocks]]  # a one-row block reads d: c - d = 0
    sums = arr @ (stack[:, :, None] * member)
    sums += member * ((stack - 1) * (c[owner] - np.diagonal(arr)))[:, :, None]
    bad = sums != sums[:, reps][:, owner]
    if bad.any():
        g = int(bad.any(axis=(1, 2)).argmax())
        i = int(owner[bad[g].any(axis=1)].min())
        rows = list(blocks[i])
        j = int(bad[g, rows].any(axis=0).argmax())
        raise EquitabilityError(
            f"blocks ({i}, {j}): rows {[r for r in rows if bad[g, r, j]]} have block sums "
            f"{sorted(set(sums[g, rows, j].tolist()))}, expected constant"
        )
    quotients = sums[:, reps]
    return quotients if sizes.ndim == 2 else quotients[0]


def _power_of_linear(root: int, m: int) -> IntPoly:
    """(x - root)^m, each coefficient from the one above it: that of
    x^(k-1) is that of x^k times k (-root) / (m - k + 1), an exact division."""
    desc = [1]
    for k in range(m, 0, -1):
        desc.append(desc[-1] * k * -root // (m - k + 1))
    return IntPoly.from_descending(desc)


def _symmetrizable(quotient: np.ndarray, totals) -> bool:
    """Whether t_a Q_ab = t_b Q_ba throughout, checked exactly: then Q is
    similar to the symmetric diag(sqrt t) Q diag(1/sqrt t)."""
    weighted = np.array(totals, dtype=object)[:, None] * quotient.astype(object)
    return bool((weighted == weighted.T).all())


def _seeds(quotient: np.ndarray, totals: list[int]) -> np.ndarray | None:
    """Float eigenvalues, ascending, of a quotient whose blocks stand for
    ``totals`` rows, or None unless it is ``_symmetrizable``.  Then every
    eigenvalue is real, and LAPACK returns each to within a few ulps of the
    symmetric matrix's norm (Weyl)."""
    if not _symmetrizable(quotient, totals):
        return None
    root = np.sqrt(np.array(totals, dtype=np.float64))
    try:
        seeds = np.linalg.eigvalsh(quotient * root[:, None] / root[None, :])
    except np.linalg.LinAlgError:
        return None
    return seeds if np.isfinite(seeds).all() else None


def _seeded_brackets(desc: list[int], seeds: list[float], delta: float) -> tuple | None:
    """Grid brackets of the roots of a square-free monic integer polynomial,
    one at seed +- delta for each ascending seed, or None unless they
    certify: as many as the degree, disjoint, each with a sign change (so
    each holds exactly one root) and no integer root inside (so none is
    rational).  Correctness never depends on delta."""
    if len(seeds) != len(desc) - 1:
        return None
    brackets, prev = [], None
    for mu in seeds:
        lo, hi = math.floor((mu - delta) * _GRID), math.ceil((mu + delta) * _GRID)
        if prev is not None and lo < prev:
            return None
        if _sign_at(desc, lo, _GRID) * _sign_at(desc, hi, _GRID) != -1:
            return None
        for z in range(-(-lo // _GRID), hi // _GRID + 1):
            if _sign_at(desc, z, 1) == 0:
                return None
        brackets.append((lo, hi))
        prev = hi
    return tuple(brackets)


def _seeded_roots(poly: IntPoly, seeds: np.ndarray):
    """(integer roots, residual, isolation) of a quotient's characteristic
    polynomial from its float eigenvalues, or None when they do not certify.

    Each integer within delta of a seed is deflated exactly as often as it
    divides, and must account for as many seeds.  The residual's roots are
    bracketed around the other seeds (``_seeded_brackets``); when seeds
    cluster within 2 delta (a repeated root), each part of the residual's
    square-free decomposition (``_parts``) is bracketed around the centres
    of the clusters of its multiplicity.
    """
    seeds = seeds.tolist()
    delta = 2.0**-32 * max([1.0, *map(abs, seeds)])
    roots, work = [], poly
    for z in sorted({round(mu) for mu in seeds if abs(mu - round(mu)) <= delta}):
        mult = 0
        while work.degree > 0:
            quo, rem = work.deflate(z)
            if rem:
                break
            work, mult = quo, mult + 1
        if mult:
            rest = [mu for mu in seeds if abs(mu - z) > delta]
            if len(seeds) - len(rest) != mult:
                return None
            roots.append((z, mult))
            seeds = rest
    clusters: list[list[float]] = []
    for mu in seeds:
        if clusters and mu - clusters[-1][-1] <= 2 * delta:
            clusters[-1].append(mu)
        else:
            clusters.append([mu])
    simple = len(clusters) == len(seeds)
    isolation = []
    for part, mult in [(list(reversed(work.coeffs)), 1)] if simple else _parts(work):
        centres = [sum(c) / mult for c in clusters if len(c) == mult]
        brackets = _seeded_brackets(part, centres, delta)
        if brackets is None:
            return None
        isolation.append((tuple(part), mult, brackets))
    return roots, work, tuple(isolation)


def integrality_certificate(mat, sizes=None) -> IntegralityCertificate:
    """Factor the exact characteristic polynomial of a symmetric integer
    matrix, or of its blow-up in which row i stands for ``sizes[i]`` twins of
    itself (a class model's sample: ``graphs.Decomposition.certificate``).

    The polynomial is computed once, on the twin quotient: with the blocks
    of ``twin_partition`` as an equitable partition, det(xI - M) is
    det(xI - Q) times (x - d_A + c_A)^(m_A - 1) for each block A standing
    for m_A rows, with off-diagonal entry c_A and diagonal entry d_A, where
    Q is the block row-sum matrix, checked equitable on every call (a matrix
    without twins is its own quotient).  The roots of det(xI - Q) are found
    once, from Q's float eigenvalues (``_seeds``, ``_seeded_roots``): integer
    roots by exact deflation, the others as isolating brackets certified by
    exact sign tests, refined only when ``residual_roots`` is read.  When
    the seeds do not certify, the complete path runs: ``_complete``
    bounded by Q's maximum absolute row sum, which bounds every eigenvalue,
    so one square-free decomposition gives both the integer roots and the
    residual's isolation.  Nothing of the blow-up's order is
    expanded: the block factors join ``roots``, and ``poly`` multiplies
    everything out only when read.
    """
    return _certificates([(mat, None if sizes is None else [sizes], None)])[0][0]


def _char_polys(stack: np.ndarray) -> list[IntPoly]:
    """det(xI - M) of each matrix of a (G, k, k) stack: ``char_poly`` for a
    stack of one, one ``_char_polys_of_order`` pass for more."""
    return [char_poly(stack[0])] if len(stack) == 1 else _char_polys_of_order(stack)


def _certificates(jobs) -> list[list[IntegralityCertificate]]:
    """``integrality_certificate(mat, sizes)`` for each weighting ``sizes``
    of each job ``(mat, weightings, eigenvalues)``: ``weightings`` a list of
    sizes rows, or None for the one weighting of all ones; ``eigenvalues``
    None, or one ascending float row per weighting of the symmetric
    diag(sqrt t) Q diag(1/sqrt t) of a quotient with that many blocks (a
    class model's S, when its classes are its twin blocks).

    Each matrix's twin blocks are found once and all its quotients built by
    one ``_equitable_quotient`` call; the quotients' characteristic
    polynomials take one pass per quotient order.  Given eigenvalues seed a
    quotient's roots once t_a Q_ab = t_b Q_ba holds exactly; otherwise
    ``_seeds`` computes them.
    """
    prepared = []
    for mat, weightings, eigenvalues in jobs:
        arr = _integer_matrix(mat)
        if not np.array_equal(arr, arr.T):
            raise ValueError("integrality test expects a symmetric integer matrix")
        blocks = twin_partition(arr)
        weights = np.array([[1] * len(arr)] if weightings is None else weightings, dtype=np.int64)
        quotients = _equitable_quotient(arr, blocks, weights)
        prepared.append((arr, blocks, weights.tolist(), eigenvalues, quotients))
    polys = _by_order([quotients for *_, quotients in prepared], _char_polys)
    out = []
    for (arr, blocks, weights, eigenvalues, quotients), job_polys in zip(prepared, polys):
        certs = []
        for g, (row, quotient, poly) in enumerate(zip(weights, quotients, job_polys)):
            totals = [sum(row[i] for i in block) for block in blocks]
            if eigenvalues is not None and len(eigenvalues[g]) == len(blocks):
                seeds = eigenvalues[g] if _symmetrizable(quotient, totals) else None
            else:
                seeds = _seeds(quotient, totals)
            certs.append(_certify(arr, blocks, totals, quotient, poly, seeds))
        out.append(certs)
    return out


def _certify(arr, blocks, totals, quotient, poly, seeds) -> IntegralityCertificate:
    """The certificate of a matrix ``arr`` whose twin ``blocks`` stand for
    ``totals`` rows, from its ``quotient``, the quotient's characteristic
    polynomial ``poly`` and its float eigenvalues ``seeds`` (None when there
    are none): the seeded roots, else the complete path, then the block
    factors."""
    seeded = None if seeds is None else _seeded_roots(poly, seeds)
    if seeded is None:  # the complete path, bounded by Q's maximum absolute row sum
        seeded = _complete(poly, int(np.abs(quotient).sum(axis=1).max()) if quotient.size else 0)
    roots, residual, isolation = seeded
    found = dict(roots)
    for block, total in zip(blocks, totals):
        if total > 1:  # the block factor (x - d + c)^(total - 1)
            root = int(arr[block[0], block[0]] - arr[block[0], block[1]])
            found[root] = found.get(root, 0) + total - 1
    return IntegralityCertificate(tuple(sorted(found.items())), residual, isolation)


def is_integral_spectrum(mat) -> tuple[bool, IntegralityCertificate]:
    """Whether the exact characteristic polynomial splits into integer linear factors."""
    cert = integrality_certificate(mat)
    return cert.integral, cert


def _identity(n: int) -> RatMatrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _x_i_minus(mat: RatMatrix, x: Fraction) -> RatMatrix:
    n = len(mat)
    return [
        [(x if i == j else Fraction(0)) - mat[i][j] for j in range(n)]
        for i in range(n)
    ]


def _solve(mat: RatMatrix, rhs: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Solve mat @ X = rhs exactly; None when mat is singular."""
    n = len(mat)
    a = [row[:] + r[:] for row, r in zip(mat, rhs)]
    w = len(a[0])
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [v * inv for v in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [v - f * w_ for v, w_ in zip(a[r], a[k])]
    return [row[n:w] for row in a]


def inverse(mat) -> RatMatrix:
    a = _as_fraction_matrix(mat)
    inv = _solve(a, _identity(len(a)))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def schur_complement(mat, k: int) -> RatMatrix:
    """D - C A^{-1} B for the leading k x k block A."""
    m = _as_fraction_matrix(mat)
    n = len(m)
    if not 0 < k < n:
        raise ValueError(f"block size {k} out of range for order {n}")
    a = [row[:k] for row in m[:k]]
    b = [row[k:] for row in m[:k]]
    c = [row[:k] for row in m[k:]]
    d = [row[k:] for row in m[k:]]
    a_inv_b = _solve(a, b)
    if a_inv_b is None:
        raise SingularBlockError(f"leading {k}x{k} block is singular")
    size = n - k
    out = [
        [
            d[i][j] - sum(c[i][t] * a_inv_b[t][j] for t in range(k))
            for j in range(size)
        ]
        for i in range(size)
    ]
    return out


def schur_det_check(mat, k: int) -> bool:
    """det(M) == det(A) * det(M/A), exactly."""
    m = _as_fraction_matrix(mat)
    a = [row[:k] for row in m[:k]]
    comp = schur_complement(m, k)
    return determinant(m) == determinant(a) * determinant(comp)


def coronel(mat, x) -> Fraction:
    """Total sum of the entries of (xI - M)^{-1}."""
    m = _as_fraction_matrix(mat)
    x = Fraction(x)
    shifted = _x_i_minus(m, x)
    ones = [[Fraction(1)] for _ in m]
    sol = _solve(shifted, ones)
    if sol is None:
        raise EvaluationAtEigenvalueError(f"xI - M is singular at x = {x}")
    return sum(row[0] for row in sol)


def det_shifted_J(mat, beta, x) -> Fraction:
    """det(xI - A - beta*J), computed directly and via the coronel identity.

    The two routes must agree exactly: det(xI - A - beta*J) equals
    (1 - beta * coronel(A, x)) * det(xI - A).
    """
    a = _as_fraction_matrix(mat)
    beta = Fraction(beta)
    x = Fraction(x)
    shifted = _x_i_minus(a, x)
    direct_rows = [[v - beta for v in row] for row in shifted]
    direct = determinant(direct_rows)
    via_identity = (1 - beta * coronel(a, x)) * determinant(shifted)
    if direct != via_identity:
        raise ArithmeticError(
            f"shift identity violated: direct {direct} != identity {via_identity}"
        )
    return direct


def adjugate(mat) -> RatMatrix:
    """Adjugate matrix: det(M) * M^{-1} when invertible, cofactors otherwise."""
    m = _as_fraction_matrix(mat)
    n = len(m)
    det = determinant(m)
    if det != 0:
        inv = inverse(m)
        return [[det * inv[i][j] for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            sign = -1 if (i + j) % 2 else 1
            out[i][j] = sign * determinant(minor)
    return out


def det_rank_one_update(mat, u: Sequence, v: Sequence) -> Fraction:
    """det(M + u v^T), computed directly and as det(M) + v^T adj(M) u."""
    m = _as_fraction_matrix(mat)
    n = len(m)
    uu = [Fraction(x) for x in u]
    vv = [Fraction(x) for x in v]
    if len(uu) != n or len(vv) != n:
        raise ValueError("vector lengths must match matrix order")
    perturbed = [[m[i][j] + uu[i] * vv[j] for j in range(n)] for i in range(n)]
    direct = determinant(perturbed)
    adj = adjugate(m)
    via_identity = determinant(m) + sum(
        vv[i] * adj[i][j] * uu[j] for i in range(n) for j in range(n)
    )
    if direct != via_identity:
        raise ArithmeticError(
            f"rank-one identity violated: direct {direct} != identity {via_identity}"
        )
    return direct
