"""One exact pipeline: each characteristic polynomial is computed once, and
the exact spectrum carries the factorization it was read from."""

import sys

import numpy as np
import pytest

from zdgecc import exact_linalg
from zdgecc.claims import Verdict, audit
from zdgecc.cli import main
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import char_poly, is_integral_spectrum
from zdgecc.graphs import EmptyGraphError
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
    assert char_poly_orders == [23]


@pytest.mark.parametrize(
    "claim_id, params, order",
    [("5.1", {"p": 3, "t": 2}, 2), ("6.1", {"p1": 3, "p2": 5}, 6)],
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
