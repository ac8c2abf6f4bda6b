"""Exact integer/rational dense linear algebra.

Arbitrary-precision throughout: characteristic polynomials of integer
matrices, exact determinants, integer roots and certified real roots, and
the block-matrix determinant identities (Schur complement, coronel of a
matrix, all-ones shifts, rank-one adjugate perturbations) used to derive
closed-form eccentricity spectra.

The characteristic polynomial is delegated to sympy's DomainMatrix over ZZ
(division-free Berkowitz); determinants, inverses and the identity checks
are implemented here independently, so the two routes cross-validate.
``integrality_certificate`` runs it only on the twin quotient of a matrix:
twin blocks (``twin_partition``) form an equitable partition, checked on every
call, whose ``k x k`` quotient carries every eigenvalue but the block factors
``(x - d + c)^(m-1)`` (Godsil and Royle, *Algebraic Graph Theory*, ch. 9).
Given row weights it certifies the blow-up the rows stand for, which is how a
class model is certified from its sample without any ``V x V`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from sympy import ZZ, Poly, Symbol
from sympy.polys.matrices import DomainMatrix

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


def char_poly(mat) -> IntPoly:
    """Exact monic characteristic polynomial det(xI - M) of an integer matrix."""
    arr = np.asarray(mat)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError("matrix must be square")
    rows = []
    for row in arr.tolist():
        out = []
        for v in row:
            iv = int(v)
            if iv != v:
                raise ValueError(f"non-integer entry {v!r}")
            out.append(ZZ(iv))
        rows.append(out)
    dm = DomainMatrix(rows, (n, n), ZZ)
    return IntPoly.from_descending([int(c) for c in dm.charpoly()])


def integer_roots(poly: IntPoly, bound: int) -> tuple[list[tuple[int, int]], IntPoly]:
    """All integer roots in [-bound, bound] of a monic polynomial, with
    multiplicities, plus the residual.

    A nonzero integer root divides the constant term, so only its divisors
    are deflated, and every extraction is verified by exact synthetic
    division.  The scan takes time linear in the bound.
    """
    if not poly.is_monic:
        raise ValueError("integer_roots requires a monic polynomial")
    work = poly
    found: dict[int, int] = {}
    while work.degree > 0 and work.coeffs[0] == 0:
        work, _ = work.deflate(0)
        found[0] = found.get(0, 0) + 1
    for cand in range(-int(bound), int(bound) + 1):
        while work.degree > 0 and cand and work.coeffs[0] % cand == 0:
            quo, rem = work.deflate(cand)
            if rem != 0:
                break
            work = quo
            found[cand] = found.get(cand, 0) + 1
    return sorted(found.items()), work


def _sign_at(desc: list[int], num: int, den: int) -> int:
    """Sign at num / den (den > 0) of the polynomial with descending coefficients desc."""
    acc, scale = desc[0], 1
    for c in desc[1:]:
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def real_roots(poly: IntPoly) -> list[tuple[float, int]]:
    """Ascending real roots, with exact multiplicities, of a monic integer
    polynomial with no rational root, such as the ``integer_roots`` residual.

    Multiplicities come from sympy's ``sqf_list``.  Each root of a square-free
    part is isolated by ``Poly.intervals`` and bisected with exact integer
    sign tests (no midpoint is a root) to width <= 1e-13 before rounding.
    A part with fewer real roots than its degree raises ArithmeticError.
    """
    _, parts = Poly(list(reversed(poly.coeffs)), Symbol("x")).sqf_list()
    out = []
    for part, mult in parts:
        desc = [int(c) for c in part.all_coeffs()]
        intervals = part.intervals(sqf=True)
        if len(intervals) != part.degree():
            raise ArithmeticError(f"{part.as_expr()} has a non-real root")
        for a, b in intervals:
            den = int(a.q) * int(b.q)
            lo, hi = int(a.p) * int(b.q), int(b.p) * int(a.q)
            sign_lo = _sign_at(desc, lo, den)
            while (hi - lo) * 10**13 > den:
                lo, hi, den = 2 * lo, 2 * hi, 2 * den
                mid = (lo + hi) // 2
                if _sign_at(desc, mid, den) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            out.append((float(Fraction(lo + hi, 2 * den)), mult))
    return sorted(out)


@dataclass(frozen=True)
class IntegralityCertificate:
    """Exact characteristic polynomial split into integer linear factors and
    the residual that has no integer root."""

    roots: tuple[tuple[int, int], ...]
    residual: IntPoly
    poly: IntPoly

    @property
    def integral(self) -> bool:
        return self.residual.degree == 0

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
    # return_inverse: plain np.unique imports numpy.ma
    values, codes = np.unique(arr, return_inverse=True)
    for code in range(len(values)):
        hits = (codes == code).astype(np.float64)
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
    raises ValueError.
    """
    arr = _integer_matrix(mat)
    sizes = np.ones(len(arr), dtype=np.int64) if sizes is None else np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (len(arr),):
        raise ValueError(f"{sizes.size} sizes for {len(arr)} rows")
    owner = np.empty(len(arr), dtype=np.int64)  # block index of each row
    for a, block in enumerate(blocks):
        owner[list(block)] = a
    member = np.eye(len(blocks), dtype=np.int64)[owner]
    totals = sizes @ member
    wrong = (totals == 0) | ((member.sum(axis=0) == 1) & (totals > 1))
    if wrong.any():
        a = int(wrong.argmax())
        raise ValueError(f"block {a} holds {len(blocks[a])} rows standing for {totals[a]}")
    reps = [b[0] for b in blocks]
    c = arr[reps, [b[len(b) > 1] for b in blocks]]  # a one-row block reads d: c - d = 0
    sums = arr @ (sizes[:, None] * member)
    sums += member * ((sizes - 1) * (c[owner] - np.diagonal(arr)))[:, None]
    bad = sums != sums[reps][owner]
    if bad.any():
        i = int(owner[bad.any(axis=1)].min())
        rows = list(blocks[i])
        j = int(bad[rows].any(axis=0).argmax())
        raise EquitabilityError(
            f"blocks ({i}, {j}): rows {[r for r in rows if bad[r, j]]} have block sums "
            f"{sorted(set(sums[rows, j].tolist()))}, expected constant"
        )
    return sums[reps]


def _power_of_linear(root: int, m: int) -> IntPoly:
    """(x - root)^m, expanded with binomial coefficients."""
    return IntPoly(tuple(math.comb(m, k) * (-root) ** (m - k) for k in range(m + 1)))


def integrality_certificate(mat, sizes=None) -> IntegralityCertificate:
    """Factor the exact characteristic polynomial of a symmetric integer
    matrix, or of its blow-up in which row i stands for ``sizes[i]`` twins of
    itself (a class model's sample: ``graphs.Decomposition.certificate``).

    The polynomial is computed once, on the twin quotient: with the blocks
    of ``twin_partition`` as an equitable partition, det(xI - M) is
    det(xI - Q) times (x - d_A + c_A)^(m_A - 1) for each block A standing
    for m_A rows, with off-diagonal entry c_A and diagonal entry d_A, where
    Q is the block row-sum matrix, checked equitable on every call (a matrix
    without twins is its own quotient).  The root search is exhaustive:
    every eigenvalue of Q lies within its maximum absolute row sum, which
    bounds the candidate integers.  Each block factor is expanded, so only
    a blow-up of modest order can be certified.
    """
    arr = _integer_matrix(mat)
    if not np.array_equal(arr, arr.T):
        raise ValueError("integrality test expects a symmetric integer matrix")
    sizes = [1] * len(arr) if sizes is None else [int(m) for m in sizes]
    blocks = twin_partition(arr)
    quotient = _equitable_quotient(arr, blocks, sizes)
    factors: dict[int, int] = {}
    for block in blocks:
        mult = sum(sizes[i] for i in block) - 1
        if mult > 0:
            root = int(arr[block[0], block[0]] - arr[block[0], block[1]])
            factors[root] = factors.get(root, 0) + mult
    poly = char_poly(quotient)
    bound = int(np.abs(quotient).sum(axis=1).max()) if quotient.size else 0
    roots, residual = integer_roots(poly, bound)
    found = dict(roots)
    for root, mult in sorted(factors.items()):
        found[root] = found.get(root, 0) + mult
        poly = poly * _power_of_linear(root, mult)
    return IntegralityCertificate(tuple(sorted(found.items())), residual, poly)


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
