"""One exact pipeline: each characteristic polynomial is computed once, and
the exact spectrum carries the factorization it was read from."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zdgecc import claims, exact_linalg, graphs
from zdgecc.claims import Verdict, audit
from zdgecc.cli import main
from zdgecc.eccentricity import Partition, eccentricity_matrix, quotient_matrix
from zdgecc.exact_linalg import (
    char_poly,
    integrality_certificate,
    is_integral_spectrum,
    twin_partition,
)
from zdgecc.graphs import EmptyGraphError, build_zdg_zpzp
from zdgecc.number_theory import is_prime
from zdgecc.spectra import spectrum
from zdgecc.survey import VARIANTS, variant_graph, variant_order


@pytest.fixture
def char_poly_orders(monkeypatch):
    """Orders of the matrices passed to char_poly, counted at every module
    that binds it."""
    original = exact_linalg.char_poly
    orders = []

    def counting(mat):
        orders.append(np.asarray(mat).shape[0])
        return original(mat)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zdgecc") and getattr(mod, "char_poly", None) is original:
            monkeypatch.setattr(mod, "char_poly", counting)
    return orders


def test_spectrum_command_computes_char_poly_once(capsys, char_poly_orders):
    assert main(["spectrum", "--n", "36", "--variant", "zdg"]) == 0
    capsys.readouterr()
    assert char_poly_orders == [7]


@pytest.mark.parametrize(
    "claim_id, params, order",
    [("5.1", {"p": 3, "t": 2}, 1), ("6.1", {"p1": 3, "p2": 5}, 2)],
)
def test_audit_computes_char_poly_once(char_poly_orders, claim_id, params, order):
    assert audit(claim_id, params).verdict is Verdict.VERIFIED
    assert char_poly_orders == [order]


def test_exact_spectrum_certificate_is_the_integrality_certificate():
    for variant in VARIANTS:
        for n in range(4, 61):
            if is_prime(n):
                continue
            mat = eccentricity_matrix(variant_graph(n, variant))
            cert = spectrum(mat, "exact").certificate
            assert cert == is_integral_spectrum(mat)[1], (n, variant)
            assert cert.poly == char_poly(mat), (n, variant)


def test_certificate_polynomial_is_computed_on_the_twin_quotient(monkeypatch):
    """The matrix passed to char_poly is the block row-sum matrix of the twin
    partition, as the equitability-checking quotient_matrix computes it."""
    seen = []

    def spy(mat):
        seen.append(np.asarray(mat).tolist())
        return char_poly(mat)

    monkeypatch.setattr(exact_linalg, "char_poly", spy)
    cases = [
        (f"{variant} {n}", eccentricity_matrix(variant_graph(n, variant)))
        for variant in VARIANTS
        for n in range(4, 61)
        if not is_prime(n)
    ]
    cases += [(f"Z_{p} x Z_{p}", eccentricity_matrix(build_zdg_zpzp(p))) for p in (3, 5, 7, 11)]
    for case, mat in cases:
        seen.clear()
        integrality_certificate(mat)
        assert seen == [quotient_matrix(mat, Partition(twin_partition(mat)))], case


def test_audit_catalogue_builds_each_tree_modulus_once(capsys, monkeypatch):
    """Theorems 4.1 and 4.2 enumerate the tree moduli from one set of builds;
    every verdict equals the benchmark's pinned verdicts."""
    original = graphs.build_zdg
    built = []

    def counting(n):
        built.append(n)
        return original(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zdgecc") and getattr(mod, "build_zdg", None) is original:
            monkeypatch.setattr(mod, "build_zdg", counting)
    for claim_id, claim in claims.CLAIMS.items():
        if claim.graph is original:
            monkeypatch.setitem(claims.CLAIMS, claim_id, replace(claim, graph=counting))
    claims._tree_ns.cache_clear()
    main(["audit", "--theorem", "all", "--primes-up-to", "7", "--exact-cap", "100"])
    items = json.loads(capsys.readouterr().out)["items"]
    assert len(built) == 220
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins" / "audit-catalogue.json"
    got = {
        item["theorem"] + ":" + ";".join(f"{k}={v}" for k, v in sorted(item["params"].items())):
        item["verdict"]
        for item in items
    }
    assert got == json.loads(pins.read_text())["verdicts"]


def test_float_spectrum_has_no_certificate():
    mat = eccentricity_matrix(variant_graph(12, "zdg"))
    assert spectrum(mat, "float").certificate is None


def test_non_integer_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError):
        spectrum([[0.5, 0], [0, 1]], "exact")
    with pytest.raises(ValueError):
        is_integral_spectrum([[0.5, 0], [0, 1]])


def test_variant_order_counts_vertices_without_building():
    for variant in VARIANTS:
        for n in range(4, 121):
            if is_prime(n):
                continue
            assert variant_order(n, variant) == variant_graph(n, variant).n_vertices
        for n in (-5, 0, 1, 2, 3, 7, 97):
            with pytest.raises(EmptyGraphError):
                variant_order(n, variant)
