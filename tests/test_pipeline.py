"""One exact pipeline: each characteristic polynomial is computed once, and
the exact spectrum carries the factorization it was read from."""

import json
import os
import subprocess
import sys
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
from zdgecc.graphs import VARIANTS, Decomposition, EmptyGraphError, build_zdg_zpzp
from zdgecc.number_theory import is_prime
from zdgecc.spectra import spectrum


@pytest.fixture
def char_poly_orders(monkeypatch):
    """Orders of the matrices passed to char_poly, counted at every module
    that binds it, from fresh class models (none has a cached certificate)."""
    Decomposition.of.cache_clear()
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


def test_energy_then_gap_audit_certify_each_model_once(char_poly_orders):
    """6.1 reads the complement of Z_15, 6.3 the graph and its complement:
    two distinct models, so char_poly runs twice, the complement's
    certificate read from its cached model the second time."""
    for claim_id in ("6.1", "6.3"):
        assert audit(claim_id, {"p1": 3, "p2": 5}).verdict is Verdict.VERIFIED
    assert char_poly_orders == [2, 2]  # each model's twin quotient has order 2


def test_exact_spectrum_certificate_is_the_integrality_certificate():
    for variant in VARIANTS:
        for n in range(4, 61):
            if is_prime(n):
                continue
            mat = eccentricity_matrix(Decomposition.of(n, variant).dense())
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
        (f"{variant} {n}", eccentricity_matrix(Decomposition.of(n, variant).dense()))
        for variant in VARIANTS
        for n in range(4, 61)
        if not is_prime(n)
    ]
    cases += [(f"Z_{p} x Z_{p}", eccentricity_matrix(build_zdg_zpzp(p))) for p in (3, 5, 7, 11)]
    for case, mat in cases:
        seen.clear()
        integrality_certificate(mat)
        assert seen == [quotient_matrix(mat, Partition(twin_partition(mat)))], case


def test_audit_catalogue_builds_no_dense_zdg(capsys, monkeypatch):
    """Every theorem reads a class model, Z_p x Z_p's for 5.3 included, so
    the benchmark's audit builds no dense graph; every verdict equals the
    pinned verdicts."""
    original = graphs.build_zdg
    built = []

    def counting(n):
        built.append(n)
        return original(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("zdgecc") and getattr(mod, "build_zdg", None) is original:
            monkeypatch.setattr(mod, "build_zdg", counting)
    dense = graphs.Decomposition.dense
    expanded = []

    def counting_dense(model):
        expanded.append((model.n, model.variant))
        return dense(model)

    monkeypatch.setattr(graphs.Decomposition, "dense", counting_dense)
    claims._tree_ns.cache_clear()
    main(["audit", "--theorem", "all", "--primes-up-to", "7", "--exact-cap", "100"])
    items = json.loads(capsys.readouterr().out)["items"]
    assert built == [] and expanded == []
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins" / "audit-catalogue.json"
    got = {
        item["theorem"] + ":" + ";".join(f"{k}={v}" for k, v in sorted(item["params"].items())):
        item["verdict"]
        for item in items
    }
    assert got == json.loads(pins.read_text())["verdicts"]


def test_float_spectrum_has_no_certificate():
    mat = eccentricity_matrix(Decomposition.of(12, "zdg").dense())
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
            model = Decomposition.of(n, variant)
            assert model.n_vertices == model.dense().n_vertices
        for n in (-5, 0, 1, 2, 3, 7, 97):
            with pytest.raises(EmptyGraphError):
                Decomposition.of(n, variant).n_vertices


def test_dense_exact_path_does_not_import_numpy_ma():
    """Plain np.unique imports numpy.ma (16-19 ms and 1.25 MB per process);
    the dense exact path, which Z_p x Z_p still takes, avoids it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; from zdgecc.cli import main; "
        "main(['audit', '--theorem', '5.3', '--primes', '3', '--output', '-']); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
