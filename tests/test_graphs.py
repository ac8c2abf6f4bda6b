import numpy as np
import pytest

from oracles import brute_extended_edges, brute_zdg_edges, brute_zdg_vertices
from zdgecc.graphs import (
    EmptyGraphError,
    Graph,
    UNREACHABLE,
    build_compressed_zdg,
    build_extended_zdg,
    build_zdg,
    build_zdg_zpzp,
    complement,
    complete_graph,
    decompose_zdg,
    distances,
    generalized_join,
    is_complete,
    is_connected,
    is_star,
    is_tree,
    null_graph,
    to_adjacency_text,
    upsilon,
)
from zdgecc.number_theory import ClassKind, euler_phi, is_prime, primes_up_to


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph([1, 1], np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        Graph([1, 2], np.eye(2, dtype=bool))
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError):
        Graph([1, 2], adj)


def test_build_zdg_examples():
    g8 = build_zdg(8)
    assert g8.labels == (2, 4, 6)
    assert g8.edge_set() == {(2, 4), (4, 6)}

    g14 = build_zdg(14)
    assert is_star(g14)
    center = [v for v in g14.labels if g14.degrees()[g14.index_of(v)] > 1]
    assert center == [7]
    assert set(g14.labels) == {2, 4, 6, 7, 8, 10, 12}

    g35 = build_zdg(35)
    a5 = {5, 10, 15, 20, 25, 30}
    a7 = {7, 14, 21, 28}
    expected = {(min(u, v), max(u, v)) for u in a5 for v in a7}
    assert g35.edge_set() == expected


def test_build_zdg_matches_brute_force():
    for n in range(4, 200):
        if is_prime(n):
            continue
        g = build_zdg(n)
        assert list(g.labels) == brute_zdg_vertices(n)
        assert g.edge_set() == brute_zdg_edges(n)


def test_build_zdg_errors():
    for n in (2, 3, 5, 7, 97):
        with pytest.raises(EmptyGraphError):
            build_zdg(n)
        with pytest.raises(EmptyGraphError):
            build_extended_zdg(n)
        with pytest.raises(EmptyGraphError):
            build_compressed_zdg(n)


def test_vertex_count_up_to_2000():
    for n in range(4, 2001):
        if is_prime(n):
            continue
        g = build_zdg(n)
        assert g.n_vertices == n - euler_phi(n) - 1


def test_extended_zdg_examples():
    assert is_complete(build_extended_zdg(8))
    for p, t in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        g = build_extended_zdg(p**t)
        assert is_complete(g)
        assert g.n_vertices == p ** (t - 1) - 1
    assert build_extended_zdg(35).edge_set() == build_zdg(35).edge_set()


def test_extended_rule_against_exponent_search_small():
    """Genuine exponent search on small n validates the closed rule directly."""
    for n in range(4, 61):
        if is_prime(n):
            continue
        g = build_extended_zdg(n)
        assert g.edge_set() == brute_extended_edges(n, max_exp=6)


def test_extended_rule_monotone_powers_up_to_500():
    """u^B v^B mod n with B = r * max(alpha) decides membership: exponent
    monotonicity collapses the search to its top corner."""
    from zdgecc.number_theory import factorize

    for n in range(4, 501):
        if is_prime(n):
            continue
        fac = factorize(n)
        b = fac.max_exponent * fac.num_primes
        labels = np.array(brute_zdg_vertices(n), dtype=object)
        powered = np.array([pow(int(u), b, n) for u in labels], dtype=object)
        joint = np.outer(powered, powered)
        brute = (joint % n) == 0
        np.fill_diagonal(brute, False)
        g = build_extended_zdg(n)
        assert np.array_equal(g.adj, brute)


def test_subgraph_invariant_up_to_2000():
    for n in range(4, 2001):
        if is_prime(n):
            continue
        plain = build_zdg(n)
        ext = build_extended_zdg(n)
        assert not (plain.adj & ~ext.adj).any()


def test_compressed_examples():
    g35 = build_compressed_zdg(35)
    assert g35.labels == (5, 7)
    assert g35.edge_set() == {(5, 7)}

    g8 = build_compressed_zdg(8)
    assert g8.labels == (2, 4)
    assert g8.edge_set() == {(2, 4)}

    for p in (2, 3, 5, 7):
        gp2 = build_compressed_zdg(p * p)
        assert gp2.n_vertices == 1
        assert gp2.n_edges == 0


def test_compressed_matches_upsilon():
    """Annihilator classes of Z_n are the gcd classes, so the compressed graph
    coincides with the proper-divisor skeleton."""
    for n in range(4, 200):
        if is_prime(n):
            continue
        assert build_compressed_zdg(n).edge_identical(upsilon(n))


def test_complement():
    km = complete_graph(range(5))
    assert complement(km).n_edges == 0
    g35 = build_zdg(35)
    comp = complement(g35)
    a5 = {5, 10, 15, 20, 25, 30}
    a7 = {7, 14, 21, 28}
    expected = {
        (min(u, v), max(u, v))
        for block in (a5, a7)
        for u in block
        for v in block
        if u != v
    }
    assert comp.edge_set() == expected
    assert complement(comp) == g35


def test_upsilon_examples():
    assert upsilon(35).edge_set() == {(5, 7)}
    assert upsilon(8).edge_set() == {(2, 4)}
    assert upsilon(30).edge_set() == {
        (2, 15), (3, 10), (5, 6), (6, 10), (6, 15), (10, 15)
    }


def test_generalized_join():
    skel = Graph([0, 1], np.array([[False, True], [True, False]]))
    joined = generalized_join(skel, [null_graph([10, 11, 12, 13]), null_graph(range(4, 10))])
    assert joined.n_vertices == 10
    assert joined.n_edges == 24  # complete bipartite K_{4,6}

    no_edges = Graph([0, 1], np.zeros((2, 2), dtype=bool))
    parts = [complete_graph([1, 2]), complete_graph([3, 4, 5])]
    assert generalized_join(no_edges, parts).n_edges == 1 + 3

    with pytest.raises(ValueError):
        generalized_join(skel, [null_graph([1])])


def test_join_reconstructs_z27():
    skel = Graph([3, 9], np.array([[False, True], [True, False]]))
    a3 = null_graph((3, 6, 12, 15, 21, 24))
    a9 = complete_graph((9, 18))
    assert generalized_join(skel, [a3, a9]).edge_identical(build_zdg(27))


def test_decompose_examples():
    dec = decompose_zdg(35)
    assert dec.skeleton.labels == (5, 7)
    assert [kind for _, kind in dec.parts] == [ClassKind.NULL, ClassKind.NULL]

    dec27 = decompose_zdg(27)
    assert dec27.skeleton.labels == (3, 9)
    assert [kind for _, kind in dec27.parts] == [ClassKind.NULL, ClassKind.COMPLETE]

    dec9 = decompose_zdg(9)
    assert dec9.skeleton.n_vertices == 1
    assert [kind for _, kind in dec9.parts] == [ClassKind.COMPLETE]


def test_reconstruction_up_to_1000():
    for n in range(4, 1001):
        if is_prime(n):
            continue
        assert decompose_zdg(n).reconstruct().edge_identical(build_zdg(n))


def test_distances_examples():
    g8 = build_zdg(8)
    d = distances(g8)
    assert d[g8.index_of(2), g8.index_of(6)] == 2
    km = complete_graph(range(5))
    dk = distances(km)
    assert (dk[~np.eye(5, dtype=bool)] == 1).all()
    two_k2 = Graph(
        [0, 1, 2, 3],
        np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=bool,
        ),
    )
    dd = distances(two_k2)
    assert dd[0, 2] == UNREACHABLE
    assert dd[1, 3] == UNREACHABLE
    assert dd[0, 1] == 1


def test_distance_table_invariants():
    for n in (8, 12, 27, 30, 35, 60):
        g = build_zdg(n)
        d = distances(g)
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()
        adj_pairs = d == 1
        assert np.array_equal(adj_pairs, g.adj)
        m = g.n_vertices
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if d[i, j] >= 0 and d[j, k] >= 0 and d[i, k] >= 0:
                        assert d[i, k] <= d[i, j] + d[j, k]


def test_tree_and_star_predicates():
    g14 = build_zdg(14)
    assert is_tree(g14) and is_star(g14)
    assert not is_tree(build_zdg(15))
    g8 = build_zdg(8)
    assert is_tree(g8) and is_star(g8)
    # K1 and K2 count as degenerate stars
    assert is_star(build_zdg(4))
    assert is_star(build_zdg(9))
    # path on 4 vertices is a tree but not a star
    p4 = Graph(
        [0, 1, 2, 3],
        np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=bool,
        ),
    )
    assert is_tree(p4) and not is_star(p4)


def test_zp2_is_complete_for_primes_up_to_50():
    for p in primes_up_to(50):
        g = build_zdg(p * p)
        assert is_complete(g)
        assert g.n_vertices == p - 1


def test_2p_star_for_primes_up_to_200():
    for p in primes_up_to(200):
        assert is_star(build_zdg(2 * p))


def test_zpzp_is_complete_bipartite():
    for p in (2, 3, 5, 7):
        g = build_zdg_zpzp(p)
        assert g.n_vertices == 2 * (p - 1)
        assert g.n_edges == (p - 1) ** 2
        left = set(g.labels[: p - 1])
        expected = {
            (min(u, v), max(u, v))
            for u in left
            for v in set(g.labels) - left
        }
        assert g.edge_set() == expected


def test_adjacency_text():
    g8 = build_zdg(8)
    assert to_adjacency_text(g8) == "2: 4\n4: 2,6\n6: 4\n"
    lonely = null_graph([3])
    assert to_adjacency_text(lonely) == "3:\n"


def test_connectivity():
    assert is_connected(build_zdg(30))
    assert not is_connected(complement(build_zdg(35)))


# ---------------------------------------------------------------------------
# class-level adjacency


def test_class_adjacency_does_not_overflow_int64():
    from zdgecc.graphs import _class_adjacency

    # u = v = (p - 1) * p is a zero divisor of Z_{p^2} and u * v = 0 there,
    # but u * u wraps in int64 (p^2 itself still fits)
    p = 3037000493
    assert is_prime(p) and p * p < 2**63 <= ((p - 1) * p) ** 2
    assert _class_adjacency([p], p * p)[0, 0]
    assert not _class_adjacency([p], p * p * p)[0, 0]


def test_dense_build_allocates_only_boolean_vxv():
    import tracemalloc

    n = 4096
    order = n - euler_phi(n) - 1
    tracemalloc.start()
    try:
        g = build_zdg(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_vertices == order
    assert peak < 3 * order * order
