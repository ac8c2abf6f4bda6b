"""Property tests: the library against the naive oracles on random composite
moduli, and the CLI's exit codes on malformed arguments."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_ecc_matrix, brute_zdg_edges
from zdgecc.cli import main
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import IntPoly, char_poly, integer_roots, integrality_certificate
from zdgecc.graphs import build_zdg
from zdgecc.number_theory import is_prime

COMPOSITES = [n for n in range(4, 61) if not is_prime(n)]

PROPERTY = settings(max_examples=50, deadline=None, database=None)


@PROPERTY
@given(st.sampled_from(COMPOSITES))
def test_zdg_and_eccentricity_matrix_match_oracles(n):
    g = build_zdg(n)
    edges = brute_zdg_edges(n)
    assert g.edge_set() == edges
    assert eccentricity_matrix(g).tolist() == brute_ecc_matrix(list(g.labels), edges)


@PROPERTY
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 4)), max_size=6))
def test_integer_roots_without_bound_return_the_chosen_roots(chosen):
    no_real_root = IntPoly((1, 1, 1))  # x^2 + x + 1
    poly, expected = no_real_root, {}
    for root, mult in chosen:
        for _ in range(mult):
            poly = poly * IntPoly((-root, 1))
        expected[root] = expected.get(root, 0) + mult
    roots, residual = integer_roots(poly)
    assert roots == sorted(expected.items())
    assert residual == no_real_root


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of order <= 12, entries 0-3, zero diagonal, with up
    to three planted twin blocks (a later block may break an earlier one)."""
    n = draw(st.integers(1, 12))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = draw(
        st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    m = m + m.T
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        block = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        m[block, :] = m[block[0], :]
        m[:, block] = m[:, [block[0]]]
        m[np.ix_(block, block)] = draw(st.integers(0, 3))
        np.fill_diagonal(m, 0)
    return m


@PROPERTY
@given(symmetric_matrices())
def test_integrality_certificate_matches_the_dense_route(m):
    poly = char_poly(m)
    roots, residual = integer_roots(poly, bound=int(m.sum(axis=1).max()))
    cert = integrality_certificate(m)
    assert cert.roots == tuple(roots)
    assert cert.residual == residual
    assert cert.poly == poly


# Malformed argv grammar: each option may be missing or take a valid,
# non-numeric, negative, NaN or infinite value; moduli stay small and every
# report goes to stdout.
N = st.sampled_from(["4", "8", "15", "36", "60", "7", "0", "-5", "abc", "nan", "1.5"])
TOL = st.sampled_from(["0", "1e-6", "-1", "nan", "inf", "abc"])
MAX_N = st.sampled_from(["4", "12", "30", "3", "0", "-3", "nan", "abc"])
THEOREM = st.sampled_from(["3.1", "4.3", "9.9", "abc", ""])
EXTRA = st.sampled_from([
    [], ["--bogus"], ["--bogus", "1"], ["-x"], ["--csv"], ["--output", "-"],
    ["--method", "exact", "--exact-cap", "5"], ["--variant", "nope"],
])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["spectrum", "audit", "survey", "nope"]))
    argv = [command]

    def option(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    if command == "spectrum":
        option("--n", N)
    elif command == "audit":
        option("--theorem", THEOREM)
        option("--tol", TOL)
        option("--max-n", MAX_N)
        argv.extend(["--primes-up-to", "5", "--max-power", "16"])
    elif command == "survey":
        option("--max-n", MAX_N)
    option("--cluster-tol", TOL)
    return argv + draw(EXTRA)


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@PROPERTY
@given(argvs())
def test_cli_exit_code_in_documented_set(argv):
    assert exit_code(argv) in {0, 1, 2, 3, 4}
