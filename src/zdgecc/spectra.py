"""Floating and exact spectra: a LAPACK eigensolver behind a backward-error
check, multiplicity clustering, energy, spectral radius, and the energy gap
between a graph and its complement.

Exact mode reads every eigenvalue from the characteristic polynomial alone
(no eigensolver, no clustering): the integer roots exactly, the irrational
ones as certified real roots with exact multiplicities, rounded to floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from zdgecc import graphs
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import IntegralityCertificate, integrality_certificate, real_roots
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
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if a.size and float(np.abs(a - a.T).max()) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from None
    bound = tol * max(1.0, float(np.linalg.norm(a, "fro")))
    back = float(np.linalg.norm(a @ v - v * w, "fro"))
    if not back <= bound:  # also fails on NaN
        raise ConvergenceError(f"backward error {back:g} exceeds {tol:g} * max(1, ||M||)")
    return w.tolist()


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
    def from_pairs(cls, pairs, *, cluster_tol: float | None = None) -> "Spectrum":
        """Build from (value, multiplicity, exact) triples, merging duplicates.

        Values equal exactly (both exact) or within 1e-9 (any float involved)
        are combined; zero multiplicities are dropped.
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
        entries = tuple(
            SpectrumEntry(
                v if exact else float(v), m, exact,
                None if exact else cluster_tol,
            )
            for v, m, exact in merged
        )
        return cls(entries)


def _cluster(values: list[float], tol: float) -> list[tuple[float, int]]:
    """Group ascending floats into (mean, count) clusters at absolute tol."""
    out: list[tuple[float, int]] = []
    group: list[float] = []
    for v in values:
        if group and v - group[-1] > tol:
            out.append((sum(group) / len(group), len(group)))
            group = []
        group.append(v)
    if group:
        out.append((sum(group) / len(group), len(group)))
    return out


def spectrum(
    mat,
    mode: str = "auto",
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> Spectrum:
    """Spectrum of a symmetric integer matrix.

    mode "float": eigenvalues_symmetric values clustered at cluster_tol.
    mode "exact": integer roots of the exact characteristic polynomial as
    exact entries, the certified roots of its residual (``real_roots``) as
    floats with exact multiplicities, cluster_tol unused; the
    factorization is kept as the result's ``certificate``.  Raises OversizeError above exact_cap.
    mode "auto" picks "exact" when the order allows it.
    """
    arr = np.asarray(mat)
    n = arr.shape[0]
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= exact_cap else "float"
    if mode == "float":
        eigs = eigenvalues_symmetric(arr)
        return Spectrum.from_pairs(
            [(v, m, False) for v, m in _cluster(eigs, cluster_tol)],
            cluster_tol=cluster_tol,
        )
    if n > exact_cap:
        raise OversizeError(f"order {n} exceeds exact cap {exact_cap}")
    cert = integrality_certificate(arr)
    entries = [SpectrumEntry(Fraction(r), m, True) for r, m in cert.roots]
    entries.extend(SpectrumEntry(v, m, False) for v, m in real_roots(cert.residual))
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


def energy_gap(arg, *, exact_cap: int = DEFAULT_EXACT_CAP) -> GapResult:
    """Absolute eccentricity-energy gap between a zero-divisor graph and its
    complement, with the family bound.

    Accepts n = p1*p2 for two distinct primes, or an explicit (p1, p2) pair
    (theorem 6.3), or n = p^3 (theorem 6.4).  The hypotheses, the graph and
    the bound are those of ``CLAIMS["6.3"]`` and ``CLAIMS["6.4"]``.  Anything
    else raises NotApplicableError.
    """
    from zdgecc.claims import CLAIMS  # claims imports this module

    if isinstance(arg, tuple):
        p1, p2 = arg
        claim_id, params = "6.3", {"p1": p1, "p2": p2}
    else:
        fac = factorize(int(arg)).factors
        primes, exponents = [p for p, _ in fac], [a for _, a in fac]
        if exponents == [1, 1]:
            claim_id, params = "6.3", {"p1": primes[0], "p2": primes[1]}
        elif exponents == [3]:
            claim_id, params = "6.4", {"p": primes[0]}
        else:
            raise NotApplicableError(
                f"n = {arg} is neither a product of two distinct primes nor a prime cube"
            )
    claim = CLAIMS[claim_id]
    ok, why = claim.applicable(params)
    if not ok:
        raise NotApplicableError(f"{arg!r}: theorem {claim_id} {why}")
    g = claim.graph(claim.ring(params))
    e_g = spectrum(eccentricity_matrix(g), "auto", exact_cap=exact_cap).energy()
    gc = graphs.complement(g)
    e_gc = spectrum(eccentricity_matrix(gc), "auto", exact_cap=exact_cap).energy()
    gap = abs(e_g - e_gc)
    bound = claim.payload(params)
    return GapResult(gap=gap, bound=float(bound), within_bound=gap <= bound)
