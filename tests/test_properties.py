"""Property tests: the library against the naive oracles on random composite
moduli, and the CLI's exit codes on malformed arguments."""

import contextlib
import io
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_ecc_matrix, brute_twin_blocks, brute_zdg_edges, sympy_char_poly
from zdgecc import exact_linalg
from zdgecc.cli import main
from zdgecc.eccentricity import eccentricity_matrix, is_irreducible
from zdgecc.exact_linalg import (
    IntPoly,
    char_poly,
    integer_roots,
    integrality_certificate,
    twin_partition,
)
from zdgecc.graphs import (
    ClassGraph, build_zdg, is_complete, is_connected, is_star, is_tree,
)
from zdgecc.number_theory import is_prime
from zdgecc.spectra import _float_pairs, eigenvalues_symmetric

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
    roots, residual = integer_roots(poly, bound=60)  # every chosen root is within 60
    assert roots == sorted(expected.items())
    assert residual == no_real_root


@st.composite
def symmetric_matrices(draw, diagonal=False):
    """Symmetric matrices of order <= 12, entries 0-3, with up to three
    planted twin blocks (a later block may break an earlier one).  The
    diagonal is zero or, with ``diagonal=True``, drawn from 1-3 and made
    constant on each planted block."""
    n = draw(st.integers(1, 12))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, 1)] = draw(
        st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    m = m + m.T
    diag = np.zeros(n, dtype=np.int64)
    if diagonal:
        diag[:] = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        block = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        m[block, :] = m[block[0], :]
        m[:, block] = m[:, [block[0]]]
        m[np.ix_(block, block)] = draw(st.integers(0, 3))
        diag[block] = diag[block[0]]
    np.fill_diagonal(m, diag)
    return m


@PROPERTY
@given(st.one_of(symmetric_matrices(), symmetric_matrices(diagonal=True)))
def test_twin_partition_matches_the_pairwise_definition(m):
    assert twin_partition(m) == brute_twin_blocks(m.tolist())


@PROPERTY
@given(symmetric_matrices())
def test_integrality_certificate_matches_the_dense_route(m):
    poly = char_poly(m)
    roots, residual = integer_roots(poly, bound=int(m.sum(axis=1).max()))
    cert = integrality_certificate(m)
    assert cert.roots == tuple(roots)
    assert cert.residual == residual
    assert cert.poly == poly


@PROPERTY
@given(st.one_of(symmetric_matrices(), symmetric_matrices(diagonal=True)), st.data())
def test_weighted_certificate_is_the_certificate_of_the_blow_up(m, data):
    """Row i with weight sizes[i] is sizes[i] twins of itself: two copies of
    a row read its twin block's off-diagonal entry c, and a weight-0 row of
    a block of two or more is dropped from the blow-up."""
    twins = [block for block in twin_partition(m) if len(block) > 1]
    sizes = [1] * len(m)
    for block in twins:
        drawn = data.draw(st.lists(st.integers(0, 3), min_size=len(block), max_size=len(block)))
        drawn[0] = max(drawn[0], 1)  # a block stands for at least one row
        for i, size in zip(block, drawn):
            sizes[i] = size
    rows = np.repeat(np.arange(len(m)), sizes)
    blow_up = m[np.ix_(rows, rows)]
    for block in twins:
        for i in block:
            copies = np.flatnonzero(rows == i)
            blow_up[np.ix_(copies, copies)] = m[block[0], block[1]]
            blow_up[copies, copies] = m[i, i]
    cert = integrality_certificate(m, sizes)
    assert cert == integrality_certificate(blow_up)
    assert cert.poly == char_poly(blow_up)


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


@PROPERTY
@given(symmetric_matrices(), st.integers(1, 3), st.data())
def test_seeded_certificate_equals_the_complete_path(m, copies, data):
    """Block-diagonal copies repeat every eigenvalue, irrational ones too,
    and twin blocks carry drawn row weights."""
    m = np.kron(np.eye(copies, dtype=np.int64), m)
    sizes = [1] * len(m)
    for block in twin_partition(m):
        if len(block) > 1:
            drawn = data.draw(st.lists(st.integers(0, 3), min_size=len(block), max_size=len(block)))
            drawn[0] = max(drawn[0], 1)  # a block stands for at least one row
            for i, size in zip(block, drawn):
                sizes[i] = size
    seeded = integrality_certificate(m, sizes)
    with mock.patch.object(exact_linalg, "_seeds", lambda quotient, totals: None), \
            mock.patch.object(exact_linalg, "_complete", wraps=exact_linalg._complete) as spy:
        complete = integrality_certificate(m, sizes)
    assert spy.call_count == 1  # the complete path ran
    assert seeded == complete
    assert seeded.residual_roots == complete.residual_roots


@st.composite
def class_graphs(draw):
    """1-6 classes of 1-4 vertices with a random symmetric loop-flagged
    adjacency (disconnected ones included), where a class may copy another's
    adjacency row, so that the two classes are twins of each other."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    adj = np.zeros((k, k), dtype=bool)
    adj[np.triu_indices(k)] = draw(
        st.lists(st.booleans(), min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2)
    )
    adj |= adj.T
    for _ in range(draw(st.integers(0, 2)) if k > 1 else 0):
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        adj[b] = adj[a]
        adj[:, b] = adj[:, a]  # so adj[a, b] = adj[b, b] = adj[a, a]
    return ClassGraph(sizes, adj)


@PROPERTY
@given(class_graphs())
def test_class_graph_equals_the_dense_engine_on_its_expansion(model):
    g = model._induced(np.repeat(range(len(model.sizes)), model.sizes), range(model.n_vertices))
    mat = eccentricity_matrix(g)
    assert (model.n_vertices, model.n_edges) == (g.n_vertices, g.n_edges)
    flags = (model.connected, model.tree, model.star, model.complete)
    assert flags == (is_connected(g), is_tree(g), is_star(g), is_complete(g))
    assert model.irreducible == is_irreducible(mat)
    assert model.certificate == integrality_certificate(mat)
    got = np.array([v for v, m in _float_pairs(model) for _ in range(m)])
    want = np.array(eigenvalues_symmetric(mat))
    assert (np.abs(got - want) <= 1e-9 * np.maximum(1, np.abs(want))).all()


# Besides small entries, the kernel's first two primes and their negatives:
# each is 0 modulo itself and not modulo the other primes, so a pivot can
# vanish modulo a single prime, and only that prime swaps a row and column.
_FIRST_PRIMES = exact_linalg._primes(26, 1 << 26)
_ENTRIES = [0, 1, -1, 2, -2, 7, -7, *_FIRST_PRIMES, *(-p for p in _FIRST_PRIMES)]
_NEAR_2_62 = st.integers(2**62 - 2**10, 2**62) | st.integers(-(2**62), -(2**62) + 2**10)


@st.composite
def integer_matrices(draw):
    """Integer matrices of order 0-24, not symmetric, entries from
    ``_ENTRIES`` and up to three near +-2^62, which need many primes."""
    k = draw(st.integers(0, 24))
    cells = draw(st.lists(st.sampled_from(_ENTRIES), min_size=k * k, max_size=k * k))
    m = np.array(cells, dtype=np.int64).reshape(k, k)
    if k:
        index = st.integers(0, k - 1)
        for i, j, v in draw(st.lists(st.tuples(index, index, _NEAR_2_62), max_size=3)):
            m[i, j] = v
    return m


@PROPERTY
@given(integer_matrices())
def test_char_poly_equals_sympys_berkowitz(m):
    assert char_poly(m).coeffs == sympy_char_poly(m)


@PROPERTY
@given(integer_matrices())
def test_char_poly_coefficients_lie_within_the_certified_bound(m):
    """Every coefficient is within the least of the three bounds, which is
    never above the bound (1 + r)^k from the Frobenius norm alone."""
    import math

    k = len(m)
    bound = exact_linalg._coefficient_bounds(m.astype(object)[None])[0] if k else 1
    assert all(abs(c) <= bound for c in sympy_char_poly(m))
    if k:
        frob = sum(int(v) ** 2 for v in m.ravel().tolist())
        r = math.isqrt(-(-frob // k)) + 1
        assert bound <= (1 + r) ** k
        assert exact_linalg._coefficient_bounds(m[None]) == [bound]


@PROPERTY
@given(st.lists(integer_matrices(), min_size=1, max_size=4))
def test_char_polys_in_one_batch_equal_char_poly_alone(mats):
    stacks = [m[None] for m in mats]
    batched = exact_linalg._by_order(stacks, exact_linalg._char_polys_of_order)
    assert [polys[0] for polys in batched] == [char_poly(m) for m in mats]
