"""Floating and exact spectra: a LAPACK eigensolver behind a backward-error
check, multiplicity clustering, energy, spectral radius, and the energy gap
between a graph and its complement.

Exact mode reads every eigenvalue from the exact certificate alone (no
eigensolver, no clustering): the integer roots exactly, the irrational ones
as certified real roots with exact multiplicities, refined once per
certificate (``IntegralityCertificate.residual_roots``) to the midpoint of
their 2^-44 grid cell.

``spectrum`` takes a dense matrix or a class model (``graphs.ClassGraph``).
On a class model with sizes m and class eccentricity data C (c on its
diagonal, both read off the eccentricity matrix of the model's sample), the
float path runs the eigensolver on the k x k matrix
S = diag(sqrt m) C diag(sqrt m) - diag(c), which is similar to the quotient,
and adds -c_d with multiplicity m_d - 1 per class (the generalized-join
spectrum: Cardoso, de Freitas, Martins and Robbiano, Discrete Math., 2013);
the exact path reads the model's ``certificate``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from zdgecc.exact_linalg import IntegralityCertificate, integrality_certificate
from zdgecc.graphs import ClassGraph, Decomposition
from zdgecc.number_theory import factorize

DEFAULT_EXACT_CAP = 150
DEFAULT_CLUSTER_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """The eigensolver failed or its backward error exceeds the tolerance."""


class OversizeError(ValueError):
    """Exact spectrum requested above the configured order cap."""


class NotApplicableError(ValueError):
    """Requested family formula does not apply to this modulus."""


def eigenvalues_symmetric(mat, tol: float = 1e-8) -> list[float]:
    """Eigenvalues of a real symmetric matrix by LAPACK (numpy.linalg.eigh),
    ascending.

    Verifies the backward error ||M V - V diag(w)||_F <= tol * max(1, ||M||_F)
    on the returned eigenvectors before returning, so every eigenvalue handed
    out carries the same residual bound whatever the solver did internally.
    This is the batch of one of ``_eigenvalues_checked``.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return _eigenvalues_checked(a[None], tol)[0].tolist()


def _eigenvalues_checked(stack: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Ascending eigenvalues (G, k) of each real symmetric matrix of a
    (G, k, k) float64 stack, from one LAPACK call, with the backward error
    of ``eigenvalues_symmetric`` checked on each matrix."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(stack).all():
        raise ValueError("matrix has a non-finite entry")
    if stack.size and float(np.abs(stack - stack.transpose(0, 2, 1)).max()) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from None
    bound = tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    back = np.linalg.norm(stack @ v - v * w[:, None, :], axis=(1, 2))
    if not (back <= bound).all():  # also fails on NaN
        raise ConvergenceError(
            f"backward error {float(back.max()):g} exceeds {tol:g} * max(1, ||M||)"
        )
    return w


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct eigenvalue: exact rational or clustered float."""

    value: Fraction | float
    multiplicity: int
    exact: bool
    tol: float | None = None

    @property
    def float_value(self) -> float:
        return float(self.value)

    def value_text(self) -> str:
        if self.exact:
            return str(self.value)
        return "%.12g" % self.value


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset with strictly increasing distinct values."""

    entries: tuple[SpectrumEntry, ...]
    # exact mode: the factorization the entries were read from
    certificate: IntegralityCertificate | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = [e.float_value for e in self.entries]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum values must be strictly increasing")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be positive")

    @property
    def order(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    @property
    def all_exact(self) -> bool:
        return all(e.exact for e in self.entries)

    def expand(self) -> list[SpectrumEntry]:
        out = []
        for e in self.entries:
            out.extend([e] * e.multiplicity)
        return out

    def energy(self) -> float:
        return float(sum(abs(e.float_value) * e.multiplicity for e in self.entries))

    def energy_exact(self) -> Fraction | None:
        if not self.all_exact:
            return None
        return sum(
            (abs(e.value) * e.multiplicity for e in self.entries), Fraction(0)
        )

    def spectral_radius(self) -> float:
        return max(abs(e.float_value) for e in self.entries)

    def least(self) -> float:
        return self.entries[0].float_value

    def eigen_sum(self) -> float:
        return float(sum(e.float_value * e.multiplicity for e in self.entries))

    def text(self) -> str:
        return "{" + ", ".join(
            f"{e.value_text()}^{e.multiplicity}" for e in self.entries
        ) + "}"

    @classmethod
    def from_pairs(cls, pairs) -> "Spectrum":
        """Build from (value, multiplicity, exact) triples, merging duplicates.

        Values equal exactly (both exact) or within 1e-9 (any float involved)
        are combined; zero multiplicities are dropped.  This builds the
        claimed spectra of ``claims``; a computed float spectrum is its
        clusters, one entry each (``_float_spectrum``).
        """
        items = [
            (Fraction(v) if exact else float(v), int(m), bool(exact))
            for v, m, exact in pairs
            if m
        ]
        items.sort(key=lambda t: float(t[0]))
        merged: list[list] = []
        for v, m, exact in items:
            if merged:
                pv, pm, pexact = merged[-1]
                same = (
                    pv == v
                    if (exact and pexact)
                    else abs(float(pv) - float(v)) <= 1e-9
                )
                if same:
                    merged[-1][1] = pm + m
                    merged[-1][2] = pexact and exact
                    continue
            merged.append([v, m, exact])
        return cls(tuple(SpectrumEntry(v if exact else float(v), m, exact) for v, m, exact in merged))


def _cluster(pairs: list[tuple[float, int]], tol: float) -> list[tuple[float, int]]:
    """Group (value, multiplicity) pairs, ascending by value, into
    (mean, count) clusters at absolute tol; the mean is weighted by
    multiplicity (its sum taken left to right, as ``sum`` would)."""
    out: list[tuple[float, int]] = []
    last = None
    for v, m in pairs:
        if last is None or v - last > tol:
            if last is not None:
                out.append((total / count, count))
            total = count = 0
        total += v * m
        count += m
        last = v
    if last is not None:
        out.append((total / count, count))
    return out


def _class_matrices(ecc: np.ndarray, sizes) -> np.ndarray:
    """The (G, k, k) stack of S = diag(sqrt m) C diag(sqrt m) - diag(c), one
    per row m of ``sizes`` (G x k), for class eccentricity data ``ecc``
    (C with c on its diagonal)."""
    root = np.sqrt(np.array(sizes, dtype=np.float64))
    return ecc * (root[:, :, None] * root[:, None, :]) - np.diag(np.diagonal(ecc))


def _class_pairs(eigenvalues, ecc: np.ndarray, sizes) -> list[tuple[float, int]]:
    """Ascending (eigenvalue, multiplicity) pairs of a class model with
    sizes m: S's eigenvalues, plus -c_d with multiplicity m_d - 1 per class."""
    pairs = [(v, 1) for v in eigenvalues]
    pairs += [(-float(cd), m - 1) for cd, m in zip(np.diagonal(ecc).tolist(), sizes) if m > 1]
    return sorted(pairs)


def _float_pairs(source) -> list[tuple[float, int]]:
    """Ascending (eigenvalue, multiplicity) pairs from the eigensolver: of
    the matrix itself, or of a class model's S plus its class eigenvalues."""
    if not isinstance(source, ClassGraph):
        return [(v, 1) for v in eigenvalues_symmetric(source)]
    s = _class_matrices(source.ecc, [source.sizes])[0]
    return _class_pairs(eigenvalues_symmetric(s), source.ecc, source.sizes)


def _float_spectrum(pairs: list[tuple[float, int]], cluster_tol: float) -> Spectrum:
    """The float spectrum of ascending (eigenvalue, multiplicity) pairs: one
    entry per cluster at cluster_tol (``_cluster``), its mean and count."""
    return Spectrum(tuple(SpectrumEntry(v, m, False, cluster_tol) for v, m in _cluster(pairs, cluster_tol)))


def spectrum(
    source,
    mode: str = "auto",
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> Spectrum:
    """Spectrum of a symmetric integer matrix, or of the eccentricity matrix
    of a class model (``graphs.ClassGraph``).

    mode "float": eigensolver values clustered at cluster_tol.
    mode "exact": integer roots of the exact characteristic polynomial as
    exact entries, the certified roots of its residual (the certificate's
    ``residual_roots``) as floats with exact multiplicities, cluster_tol
    unused; the factorization is kept as the result's ``certificate``.  Raises
    OversizeError when the order (the vertex count) is above exact_cap.
    mode "auto" picks "exact" when the order allows it.
    """
    model = source if isinstance(source, ClassGraph) else None
    n = np.shape(source)[0] if model is None else model.n_vertices
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= exact_cap else "float"
    if mode == "float":
        return _float_spectrum(_float_pairs(source), cluster_tol)
    if n > exact_cap:
        raise OversizeError(f"order {n} exceeds exact cap {exact_cap}")
    cert = integrality_certificate(source) if model is None else model.certificate
    entries = [SpectrumEntry(Fraction(r), m, True) for r, m in cert.roots]
    entries.extend(SpectrumEntry(v, m, False) for v, m in cert.residual_roots)
    entries.sort(key=lambda e: e.float_value)
    return Spectrum(tuple(entries), certificate=cert)


def energy(spec: Spectrum) -> float:
    """Sum of absolute eigenvalues."""
    return spec.energy()


def spectral_radius(spec: Spectrum) -> float:
    """Largest absolute eigenvalue."""
    return spec.spectral_radius()


@dataclass(frozen=True)
class GapResult:
    gap: float
    bound: float
    within_bound: bool


def _is_integer(x) -> bool:
    """An integer of any integral type (numpy's too), but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def energy_gap(arg, *, exact_cap: int = DEFAULT_EXACT_CAP) -> GapResult:
    """Absolute eccentricity-energy gap between a zero-divisor graph and its
    complement, with the family bound.

    Accepts n = p1*p2 for two distinct primes, or an explicit (p1, p2) pair
    (theorem 6.3), or n = p^3 (theorem 6.4).  The hypotheses, the graph and
    the bound are those of ``CLAIMS["6.3"]`` and ``CLAIMS["6.4"]``.  Anything
    else raises NotApplicableError.
    """
    from zdgecc.claims import CLAIMS  # claims imports this module

    if isinstance(arg, tuple) and len(arg) == 2 and all(map(_is_integer, arg)):
        p1, p2 = map(int, arg)
        claim_id, params = "6.3", {"p1": p1, "p2": p2}
    elif _is_integer(arg):
        arg = int(arg)
        fac = factorize(arg).factors if arg >= 2 else ()
        primes, exponents = [p for p, _ in fac], [a for _, a in fac]
        if exponents == [1, 1]:
            claim_id, params = "6.3", {"p1": primes[0], "p2": primes[1]}
        elif exponents == [3]:
            claim_id, params = "6.4", {"p": primes[0]}
        else:
            raise NotApplicableError(
                f"n = {arg} is neither a product of two distinct primes nor a prime cube"
            )
    else:
        raise NotApplicableError(f"{arg!r} is neither an int nor a pair of ints")
    claim = CLAIMS[claim_id]
    ok, why = claim.applicable(params)
    if not ok:
        raise NotApplicableError(f"{arg!r}: theorem {claim_id} {why}")
    n = claim.ring(params)
    e_g, e_gc = (
        spectrum(model, "auto", exact_cap=exact_cap).energy()
        for model in (claim.graph(n), Decomposition.of(n, "complement"))
    )
    gap = abs(e_g - e_gc)
    bound = claim.payload(params)
    return GapResult(gap=gap, bound=float(bound), within_bound=gap <= bound)
