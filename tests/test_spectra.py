import math
from fractions import Fraction

import numpy as np
import pytest

from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.graphs import build_zdg, build_extended_zdg, complement, complete_graph
from zdgecc.number_theory import is_prime, primes_up_to
from zdgecc.spectra import (
    ConvergenceError,
    NotApplicableError,
    OversizeError,
    Spectrum,
    eigenvalues_symmetric,
    energy,
    energy_gap,
    spectral_radius,
    spectrum,
)


def ecc(n):
    return eccentricity_matrix(build_zdg(n))


# ---------------------------------------------------------------------------
# eigensolver


def test_jacobi_diagonal():
    got = eigenvalues_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert got == [1.0, 2.0, 3.0]


def test_jacobi_z8():
    got = eigenvalues_symmetric(ecc(8))
    expected = [-2.0, 1 - math.sqrt(3), 1 + math.sqrt(3)]
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9


def test_jacobi_z27():
    got = eigenvalues_symmetric(ecc(27))
    expected = sorted(
        [-2.0] * 5 + [-1.0, (11 - math.sqrt(129)) / 2, (11 + math.sqrt(129)) / 2]
    )
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9


def test_jacobi_matches_lapack_on_random():
    rng = np.random.default_rng(3)
    for n in (5, 20, 60):
        m = rng.integers(0, 4, (n, n)).astype(float)
        m = np.triu(m, 1)
        m = m + m.T
        got = np.array(eigenvalues_symmetric(m))
        ref = np.linalg.eigvalsh(m)
        assert np.abs(got - ref).max() < 1e-8 * max(1, np.abs(ref).max())


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_jacobi_rejects_bad_tol():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.eye(2), tol=0.0)


@pytest.mark.parametrize(
    "mat", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 1.0], [1.0, 0.0]]]
)
def test_eigensolver_rejects_non_finite_entries(mat):
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues_symmetric(np.array(mat))


def test_eigensolver_backward_error_bound_is_tol():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((20, 20))
    m = m + m.T
    assert len(eigenvalues_symmetric(m)) == 20
    with pytest.raises(ConvergenceError, match="backward error"):
        eigenvalues_symmetric(m, tol=1e-20)


# ---------------------------------------------------------------------------
# spectrum assembly


def test_spectrum_k4_exact():
    spec = spectrum(eccentricity_matrix(complete_graph(range(4))), "exact")
    assert [(e.value, e.multiplicity, e.exact) for e in spec.entries] == [
        (Fraction(-1), 3, True),
        (Fraction(3), 1, True),
    ]


def test_spectrum_z35_exact():
    spec = spectrum(ecc(35), "exact")
    assert [(e.value, e.multiplicity) for e in spec.entries] == [
        (Fraction(-2), 8),
        (Fraction(6), 1),
        (Fraction(10), 1),
    ]
    assert spec.all_exact


def test_spectrum_extended_z8():
    spec = spectrum(eccentricity_matrix(build_extended_zdg(8)), "exact")
    assert [(e.value, e.multiplicity) for e in spec.entries] == [
        (Fraction(-1), 2),
        (Fraction(2), 1),
    ]


def test_spectrum_mixed_exact_and_float():
    spec = spectrum(ecc(27), "exact")
    exact_part = [(e.value, e.multiplicity) for e in spec.entries if e.exact]
    assert exact_part == [(Fraction(-2), 5), (Fraction(-1), 1)]
    floats = sorted(e.float_value for e in spec.entries if not e.exact)
    expected = [(11 - math.sqrt(129)) / 2, (11 + math.sqrt(129)) / 2]
    assert max(abs(a - b) for a, b in zip(floats, expected)) < 1e-9


def test_spectrum_float_mode_clusters():
    spec = spectrum(ecc(35), "float")
    assert [e.multiplicity for e in spec.entries] == [8, 1, 1]
    assert not spec.all_exact
    assert spec.entries[0].tol == 1e-6


def test_spectrum_modes_agree():
    for n in (8, 12, 27, 35, 60):
        exact = spectrum(ecc(n), "exact")
        flt = spectrum(ecc(n), "float")
        flt_values = [
            (e.float_value, e.multiplicity) for e in flt.entries
        ]
        for entry in exact.entries:
            best = min(flt_values, key=lambda t: abs(t[0] - entry.float_value))
            assert abs(best[0] - entry.float_value) < 1e-6


def test_spectrum_oversize():
    with pytest.raises(OversizeError):
        spectrum(ecc(60), "exact", exact_cap=10)


def test_spectrum_auto_respects_cap():
    spec = spectrum(ecc(60), "auto", exact_cap=10)
    assert not spec.all_exact  # fell back to float


def test_spectrum_trace_zero():
    for n in (8, 12, 27, 35, 81):
        spec = spectrum(ecc(n), "exact")
        assert abs(spec.eigen_sum()) < 1e-7 * spec.order


def test_spectrum_single_vertex():
    spec = spectrum(eccentricity_matrix(build_zdg(4)), "exact")
    assert [(e.value, e.multiplicity) for e in spec.entries] == [(Fraction(0), 1)]


# ---------------------------------------------------------------------------
# union spectrum (disjoint components)


def test_union_spectrum_on_complements():
    for p1, p2 in ((3, 5), (5, 7), (3, 7)):
        comp = complement(build_zdg(p1 * p2))
        whole = spectrum(eccentricity_matrix(comp), "exact")
        # components are K_{p1-1} and K_{p2-1}
        parts: list[tuple] = []
        for m in (p1 - 1, p2 - 1):
            part = spectrum(eccentricity_matrix(complete_graph(range(m))), "exact")
            parts.extend(
                (e.value, e.multiplicity) for e in part.entries
            )
        merged: dict = {}
        for v, mult in parts:
            merged[v] = merged.get(v, 0) + mult
        got = {e.value: e.multiplicity for e in whole.entries}
        assert got == merged


# ---------------------------------------------------------------------------
# Perron-type checks


def test_largest_eigenvalue_simple_and_positive():
    from zdgecc.eccentricity import is_irreducible

    for n in range(4, 151):
        if is_prime(n):
            continue
        mat = ecc(n)
        if mat.shape[0] < 2:
            continue
        spec = spectrum(mat, "float")
        top = spec.entries[-1]
        if is_irreducible(mat):
            assert top.float_value > 0
            assert top.multiplicity == 1


def test_largest_simple_for_semiprime_reducible():
    for p1, p2 in ((3, 5), (3, 7), (5, 7), (5, 11)):
        spec = spectrum(ecc(p1 * p2), "exact")
        assert spec.entries[-1].multiplicity == 1
        assert spec.entries[-1].value == 2 * p2 - 4


# ---------------------------------------------------------------------------
# energy, spectral radius, gap


def test_energy_z35():
    spec = spectrum(ecc(35), "exact")
    assert energy(spec) == 32.0
    assert spec.energy_exact() == 32
    assert spectral_radius(spec) == 10.0


def test_energy_zero_matrix():
    spec = spectrum(np.zeros((4, 4), dtype=int), "exact")
    assert energy(spec) == 0.0
    assert spectral_radius(spec) == 0.0


def test_energy_complement_z35():
    spec = spectrum(eccentricity_matrix(complement(build_zdg(35))), "exact")
    assert spec.energy_exact() == 2 * (5 + 7 - 4)


def test_energy_bound_per_eigenvalue():
    for p1 in primes_up_to(31):
        if p1 < 3:
            continue
        for p2 in primes_up_to(31):
            if p2 <= p1:
                continue
            spec = spectrum(ecc(p1 * p2), "exact")
            assert max(abs(e.float_value) for e in spec.entries) <= 2 * (p1 + p2 - 2)


def test_energy_gap_examples():
    res = energy_gap((5, 7))
    assert res.gap == 16.0
    assert res.bound == 300.0
    assert res.within_bound

    res35 = energy_gap(35)
    assert res35.gap == 16.0

    res27 = energy_gap(27)
    assert res27.bound == 3 * (9 - 1) ** 2
    assert res27.within_bound

    res_small = energy_gap((3, 5))
    assert res_small.bound == 108.0
    assert res_small.within_bound


def test_energy_gap_not_applicable():
    with pytest.raises(NotApplicableError):
        energy_gap(12)
    with pytest.raises(NotApplicableError):
        energy_gap((4, 6))
    with pytest.raises(NotApplicableError):
        energy_gap(16)
    with pytest.raises(NotApplicableError):
        energy_gap((5, 5))
    for n in (1, 0, -35):
        with pytest.raises(NotApplicableError):
            energy_gap(n)


@pytest.mark.parametrize(
    "arg", [15.7, "15", 35.0, (5.0, 7), (5, "7"), [5, 7], None, True, (True, 7), np.bool_(1)]
)
def test_energy_gap_rejects_non_integers(arg):
    with pytest.raises(NotApplicableError):
        energy_gap(arg)


@pytest.mark.parametrize(
    "arg, plain", [(np.int64(35), 35), (np.int32(27), 27), ((np.int64(5), np.uint8(7)), (5, 7))]
)
def test_energy_gap_accepts_numpy_integers(arg, plain):
    assert energy_gap(arg) == energy_gap(plain)


@pytest.mark.parametrize(
    "arg, claim_id, params",
    [
        ((p1, p2), "6.3", {"p1": p1, "p2": p2})
        for p1, p2 in ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7))
    ]
    + [(p**3, "6.4", {"p": p}) for p in (2, 3, 5, 7)],
)
def test_energy_gap_agrees_with_audit_evidence(arg, claim_id, params):
    from zdgecc.claims import audit
    from zdgecc.report import fmt_value

    res = energy_gap(arg)
    evidence = audit(claim_id, params).evidence
    assert fmt_value(res.bound) == evidence["bound"]
    assert fmt_value(res.gap) == evidence["gap"]


# ---------------------------------------------------------------------------
# Spectrum construction rules


def test_spectrum_merges_and_drops():
    spec = Spectrum.from_pairs([(3, 1, True), (Fraction(3), 2, True), (-1, 0, True)])
    assert [(e.value, e.multiplicity) for e in spec.entries] == [(Fraction(3), 3)]


def test_spectrum_requires_increasing():
    from zdgecc.spectra import SpectrumEntry

    with pytest.raises(ValueError):
        Spectrum((SpectrumEntry(Fraction(2), 1, True), SpectrumEntry(Fraction(1), 1, True)))


# ---------------------------------------------------------------------------
# exact mode is read from the polynomial alone


def test_exact_spectrum_runs_no_eigensolver(monkeypatch):
    from zdgecc import spectra

    def boom(*args, **kwargs):
        raise AssertionError("eigensolver called in exact mode")

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", boom)
    spec = spectrum(ecc(27), "exact")
    assert [e.multiplicity for e in spec.entries] == [5, 1, 1, 1]
    assert all(e.tol is None for e in spec.entries)


def test_exact_spectrum_ignores_cluster_tol():
    assert spectrum(ecc(27), "exact", cluster_tol=20) == spectrum(ecc(27), "exact")


def test_exact_and_float_spectra_agree_for_every_variant():
    from zdgecc.graphs import VARIANTS, Decomposition

    for variant in VARIANTS:
        for n in range(4, 61):
            if is_prime(n):
                continue
            mat = eccentricity_matrix(Decomposition.of(n, variant).dense())
            exact = spectrum(mat, "exact")
            flt = spectrum(mat, "float")
            assert [e.multiplicity for e in exact.entries] == [
                e.multiplicity for e in flt.entries
            ], (n, variant)
            for a, b in zip(exact.entries, flt.entries):
                x = a.float_value
                assert abs(x - b.float_value) <= 1e-9 * max(1.0, abs(x)), (n, variant)


# ---------------------------------------------------------------------------
# clustering: a float spectrum is its clusters, one entry each


def test_float_spectrum_at_tolerance_zero_has_every_distinct_eigenvalue():
    """Z_240's eigensolver returns 0 150 times and five values within
    1e-13 of it: at cluster_tol 0 each is its own entry, and the eigen_sum
    is the sum of the eigenvalues."""
    from zdgecc.graphs import Decomposition
    from zdgecc.spectra import _float_pairs

    model = Decomposition.of(240, "zdg")
    pairs = _float_pairs(model)
    distinct: dict[float, int] = {}
    for v, m in pairs:
        distinct[v] = distinct.get(v, 0) + m
    spec = spectrum(model, "float", cluster_tol=0)
    assert [(e.value, e.multiplicity) for e in spec.entries] == sorted(distinct.items())
    assert all(e.tol == 0 for e in spec.entries)
    assert math.isclose(spec.eigen_sum(), math.fsum(v * m for v, m in pairs), rel_tol=0, abs_tol=1e-12)


def test_float_spectra_at_the_default_tolerance_cluster_as_before():
    """Clustering once gives what clustering and then merging within 1e-9
    (``Spectrum.from_pairs``) gave: at the default tolerance, cluster means
    lie more than 1e-9 apart."""
    from zdgecc.graphs import VARIANTS, Decomposition
    from zdgecc.spectra import DEFAULT_CLUSTER_TOL, _cluster, _float_pairs

    for variant in VARIANTS:
        for n in [*range(4, 401), 720, 1024, 5040, 10**6]:
            if is_prime(n):
                continue
            model = Decomposition.of(n, variant)
            pairs = _float_pairs(model)
            twice = Spectrum.from_pairs([(v, m, False) for v, m in _cluster(pairs, DEFAULT_CLUSTER_TOL)])
            spec = spectrum(model, "float")
            assert [(e.value, e.multiplicity) for e in spec.entries] == [
                (e.value, e.multiplicity) for e in twice.entries
            ], (n, variant)
            assert {e.tol for e in spec.entries} == {DEFAULT_CLUSTER_TOL}
