"""The class-level engine (``graphs.Decomposition``) against the dense engine,
and moduli whose graphs the dense engine cannot build."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zdgecc import claims, exact_linalg
from zdgecc.eccentricity import eccentricity_matrix, is_irreducible
from zdgecc.exact_linalg import EquitabilityError, char_poly, integrality_certificate
from zdgecc.graphs import (
    VARIANTS, Decomposition, Graph, build_zdg, is_complete, is_connected, is_star, is_tree,
)
from zdgecc.number_theory import is_prime
from zdgecc.spectra import _float_pairs, eigenvalues_symmetric, spectrum

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("variant", VARIANTS)
def test_class_model_agrees_with_dense_engine_up_to_200(variant):
    for n in range(4, 201):
        if is_prime(n):
            continue
        model = Decomposition.of(n, variant)
        g = model.dense()
        mat = eccentricity_matrix(g)
        case = (n, variant)
        assert (model.n_vertices, model.n_edges) == (g.n_vertices, g.n_edges), case
        flags = (model.connected, model.tree, model.star, model.complete)
        assert flags == (is_connected(g), is_tree(g), is_star(g), is_complete(g)), case
        assert model.irreducible == is_irreducible(mat), case
        # E is C on every pair of distinct vertices, class by class
        cls = np.searchsorted(model.divisors, np.gcd(g.labels, n))
        blocks = model.ecc[np.ix_(cls, cls)]
        np.fill_diagonal(blocks, 0)
        assert np.array_equal(blocks, mat), case
        if g.n_vertices <= 150:
            assert model.certificate == integrality_certificate(mat), case
        got = np.array([v for v, m in _float_pairs(model) for _ in range(m)])
        want = np.array(eigenvalues_symmetric(mat))
        assert (np.abs(got - want) <= 1e-9 * np.maximum(1, np.abs(want))).all(), case


def test_class_model_keeps_the_decomposition():
    model = Decomposition.of(27, "zdg")
    assert model.divisors == (3, 9)
    assert model.sizes == (6, 2)
    assert model.skeleton == Graph((3, 9), [[False, True], [True, False]])
    assert model.dense() == build_zdg(27)
    assert Decomposition.of(27, "zdg") is model  # cached per (n, variant)
    assert Decomposition.of(10**12, "compressed").sizes == (1,) * 167
    # a class of 2 * 10^11 vertices (gcd 2), never materialized
    assert max(Decomposition.of(10**12, "zdg").sizes) == 2 * 10**11


def _spectrum_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "zdgecc.cli", "spectrum", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("variant", VARIANTS)
def test_spectrum_of_a_million_exits_0(variant):
    code, out, err = _spectrum_cli("--n", "1000000", "--variant", variant)
    assert code == 0, err
    item = json.loads(out)["items"][0]
    assert sum(e["multiplicity"] for e in item["spectrum"]) == item["vertices"]


def test_spectrum_of_two_to_the_63_exits_0():
    code, out, err = _spectrum_cli("--n", str(2**63))
    assert code == 0, err
    item = json.loads(out)["items"][0]
    assert item["vertices"] == 2**62 - 1
    assert sum(e["multiplicity"] for e in item["spectrum"]) == 2**62 - 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_sample_is_the_dense_engine_on_two_vertices_per_class(variant, monkeypatch):
    """The sample's E is the dense E on the first two ring elements of each
    class, and the model's certificate, weighted by class size, hands
    char_poly the very matrix the dense path does."""
    Decomposition.of.cache_clear()  # fresh models: none has a cached certificate
    seen = []

    def spy(mat):
        seen.append(np.asarray(mat).tolist())
        return char_poly(mat)

    monkeypatch.setattr(exact_linalg, "char_poly", spy)
    for n in range(4, 201):
        if is_prime(n):
            continue
        model = Decomposition.of(n, variant)
        g = model.dense()
        mat = eccentricity_matrix(g)
        case = (n, variant)
        members = [np.flatnonzero(np.gcd(g.labels, n) == d)[:2] for d in model.divisors]
        picked = [m[0] for m in members] + [m[1] for m in members if len(m) == 2]
        assert np.array_equal(eccentricity_matrix(model.sample), mat[np.ix_(picked, picked)]), case
        seen.clear()
        model.certificate
        integrality_certificate(mat)
        assert len(seen) == 2 and seen[0] == seen[1], case


@pytest.mark.parametrize("variant", VARIANTS)
def test_class_certificate_checks_its_partition_is_equitable(variant, monkeypatch):
    """The class path builds its quotient with the dense path's checked
    builder: a partition that is not the twin partition is caught."""
    Decomposition.of.cache_clear()  # a fresh model: its certificate is not cached
    monkeypatch.setattr(exact_linalg, "twin_partition", lambda mat: (tuple(range(len(mat))),))
    with pytest.raises(EquitabilityError):
        spectrum(Decomposition.of(12, variant), "exact")
    Decomposition.of.cache_clear()  # drop the model built under the patch


def test_tree_audits_agree_with_the_dense_engine_up_to_500():
    trees = claims._tree_ns(500)
    assert trees[:4] == (4, 6, 8, 9)
    for n in trees:
        g = build_zdg(n)
        mat = eccentricity_matrix(g)
        assert is_tree(g), n
        least = claims.audit("4.1", {"n": n})
        irreducible = claims.audit("4.2", {"n": n})
        assert irreducible.evidence == {"irreducible": is_irreducible(mat)}, n
        if g.n_vertices < 3:
            assert least.verdict is claims.Verdict.NOT_APPLICABLE, n
            continue
        assert least.evidence["star"] == is_star(g), n
        want = min(eigenvalues_symmetric(mat))
        assert abs(float(least.evidence["least_eigenvalue"]) - want) <= 1e-9, n
