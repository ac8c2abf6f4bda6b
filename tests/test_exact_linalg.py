import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import naive_det
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import (
    EvaluationAtEigenvalueError,
    IntPoly,
    SingularBlockError,
    char_poly,
    coronel,
    det_rank_one_update,
    det_shifted_J,
    determinant,
    integer_roots,
    integrality_certificate,
    is_integral_spectrum,
    real_roots,
    schur_complement,
    schur_det_check,
)
from zdgecc.graphs import build_extended_zdg, build_zdg, complete_graph


def ecc(n, extended=False):
    builder = build_extended_zdg if extended else build_zdg
    return eccentricity_matrix(builder(n))


def j_minus_i(m):
    return [[0 if i == j else 1 for j in range(m)] for i in range(m)]


def rand_int_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def rand_rat_matrix(rng, n):
    return [
        [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# determinant


def test_determinant_examples():
    assert determinant(np.eye(3, dtype=int)) == 1
    assert determinant(j_minus_i(3)) == 2
    # (x+2)(x^2-2x-2) at 0 gives -4; det = (-1)^3 * (-4)
    assert determinant(ecc(8)) == 4


def test_determinant_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_rat_matrix(rng, n)
        assert determinant(m) == naive_det(m)


def test_determinant_singular():
    assert determinant([[1, 2], [2, 4]]) == 0


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_z8():
    # Matches the explicit matrix [[0,1,2],[1,0,1],[2,1,0]] and its spectrum
    # {-2, 1+sqrt(3), 1-sqrt(3)}: (x+2)(x^2-2x-2) = x^3 - 6x - 4.
    assert char_poly(ecc(8)).coeffs == (-4, -6, 0, 1)


def test_char_poly_extended_z8():
    assert char_poly(ecc(8, extended=True)).coeffs == (-2, -3, 0, 1)


def test_char_poly_z27_factors():
    # (x+2)^5 (x+1) (x^2 - 11x - 2), built by independent polynomial multiplication
    prod = IntPoly((1,))
    for _ in range(5):
        prod = prod * IntPoly((2, 1))
    prod = prod * IntPoly((1, 1)) * IntPoly((-2, -11, 1))
    assert char_poly(ecc(27)) == prod


def test_char_poly_matches_determinant_interpolation():
    rng = random.Random(2024)
    for _ in range(20):
        n = 6
        m = rand_int_matrix(rng, n)
        poly = char_poly(m)
        assert poly.is_monic and poly.degree == n
        for t in (-3, 0, 1, 5):
            shifted = [
                [(t if i == j else 0) - m[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert poly(t) == determinant(shifted)


def test_char_poly_trace_zero_coefficient():
    for n in (8, 12, 27, 35):
        poly = char_poly(ecc(n))
        assert poly.coeffs[-2] == 0  # zero trace: no x^(k-1) term


def test_char_poly_rejects_non_integer():
    with pytest.raises(ValueError):
        char_poly([[0.5, 0], [0, 1]])


# ---------------------------------------------------------------------------
# integer roots


def test_integer_roots_no_roots():
    poly = IntPoly((-6, -4, 0, 1))  # x^3 - 4x - 6: -2 is not a root
    roots, residual = integer_roots(poly)
    assert roots == []
    assert residual == poly


X2_MINUS_2 = IntPoly((-2, 0, 1))  # no integer root

# (integer roots with multiplicities, residual factor, bound); without a
# bound the search must still be exhaustive
EXPANDED_PRODUCTS = [
    ([(-2, 8), (6, 1), (10, 1)], IntPoly((1,)), 20),
    ([(10, 25), (11, 25), (12, 25), (13, 25)], X2_MINUS_2, None),
    ([(-999, 5), (1000, 5), (1001, 5)], X2_MINUS_2, None),
    ([(-2, 100), (50, 20)], X2_MINUS_2, None),
]


def test_integer_roots_expanded_product():
    for chosen, rest, bound in EXPANDED_PRODUCTS:
        prod = rest
        for root, mult in chosen:
            for _ in range(mult):
                prod = prod * IntPoly((-root, 1))
        roots, residual = integer_roots(prod, bound=bound)
        assert roots == chosen
        assert residual == rest


def test_integer_roots_residual_quadratic():
    roots, residual = integer_roots(IntPoly((-2, -11, 1)))
    assert roots == []
    assert residual.coeffs == (-2, -11, 1)


def test_integer_roots_deflation_reconstructs():
    rng = random.Random(5)
    for _ in range(25):
        chosen = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        poly = IntPoly((1,))
        for r in chosen:
            poly = poly * IntPoly((-r, 1))
        # multiply by an integer-root-free quadratic
        poly_full = poly * IntPoly((1, 1, 1))  # x^2 + x + 1 has no real roots
        roots, residual = integer_roots(poly_full, bound=10)
        rebuilt = residual
        for root, mult in roots:
            for _ in range(mult):
                rebuilt = rebuilt * IntPoly((-root, 1))
        assert rebuilt == poly_full


def test_integer_roots_zero_root():
    poly = IntPoly((0, 0, -4, 1))  # x^2 (x - 4)
    roots, residual = integer_roots(poly, bound=5)
    assert roots == [(0, 2), (4, 1)]
    assert residual.coeffs == (1,)


def test_integer_roots_requires_monic():
    with pytest.raises(ValueError):
        integer_roots(IntPoly((1, 2)))


# ---------------------------------------------------------------------------
# integrality verdicts


def test_integral_spectrum_k4():
    mat = eccentricity_matrix(complete_graph(range(4)))
    integral, cert = is_integral_spectrum(mat)
    assert integral
    assert dict(cert.roots) == {-1: 3, 3: 1}
    assert cert.text() == "(x + 1)^3 * (x - 3)"


def test_non_integral_z8():
    integral, cert = is_integral_spectrum(ecc(8))
    assert not integral
    assert dict(cert.roots) == {-2: 1}
    assert cert.residual.coeffs == (-2, -2, 1)  # x^2 - 2x - 2


def test_non_integral_z27():
    integral, cert = is_integral_spectrum(ecc(27))
    assert not integral
    assert cert.residual.coeffs == (-2, -11, 1)


def test_integrality_certificate_rejects_non_integer_twins():
    # rows 0-2 are twins, so the entries would vanish into the quotient's
    # row sums if they were cast before the check
    with pytest.raises(ValueError, match="non-integer"):
        integrality_certificate([[0, 1.5, 1.5], [1.5, 0, 1.5], [1.5, 1.5, 0]])


def test_integrality_certificate_factors_twin_blocks():
    # K_4 with a doubled diagonal: one twin block, eigenvalue 2 - 1 three times
    mat = np.ones((4, 4), dtype=np.int64) + np.eye(4, dtype=np.int64)
    cert = integrality_certificate(mat)
    assert cert.roots == ((1, 3), (5, 1))
    assert cert.poly == char_poly(mat)


# ---------------------------------------------------------------------------
# Schur complement


def test_schur_block_diagonal():
    m = [[2, 0, 0], [0, 3, 1], [0, 1, 3]]
    assert schur_complement(m, 1) == [
        [Fraction(3), Fraction(1)],
        [Fraction(1), Fraction(3)],
    ]


def test_schur_2x2():
    comp = schur_complement([[2, 1], [1, 2]], 1)
    assert comp == [[Fraction(3, 2)]]
    assert schur_det_check([[2, 1], [1, 2]], 1)


def test_schur_singular_block():
    with pytest.raises(SingularBlockError):
        schur_complement([[0, 1], [1, 0]], 1)


def test_schur_identity_100_seeds():
    rng = random.Random(11)
    done = 0
    while done < 100:
        m = rand_int_matrix(rng, 6)
        a = [row[:3] for row in m[:3]]
        if determinant(a) == 0:
            continue
        assert schur_det_check(m, 3)
        done += 1


# ---------------------------------------------------------------------------
# coronel


def test_coronel_constant_row_sum():
    # row sum alpha gives n / (x - alpha)
    m = [[1, 2, 3], [3, 1, 2], [2, 3, 1]]  # alpha = 6
    assert coronel(m, 10) == Fraction(3, 10 - 6)


def test_coronel_zero_matrix():
    n = 5
    assert coronel([[0] * n for _ in range(n)], 1) == n


def test_coronel_2j_minus_2i():
    m = [[0 if i == j else 2 for j in range(6)] for i in range(6)]
    assert coronel(m, 3) == Fraction(-6, 7)


def test_coronel_at_eigenvalue():
    with pytest.raises(EvaluationAtEigenvalueError):
        coronel([[1, 0], [0, 2]], 2)


# ---------------------------------------------------------------------------
# beta*J shift


def test_det_shifted_j_beta_zero():
    m = [[1, 2], [3, 4]]
    x = Fraction(7)
    direct = det_shifted_J(m, 0, x)
    shifted = [[(7 if i == j else 0) - m[i][j] for j in range(2)] for i in range(2)]
    assert direct == determinant(shifted)


def test_det_shifted_j_example():
    a = [[-2 if i == j else 0 for j in range(6)] for i in range(6)]
    assert det_shifted_J(a, 2, 3) == -21875


def test_det_shifted_j_100_seeds():
    rng = random.Random(23)
    for _ in range(100):
        a = rand_rat_matrix(rng, 5)
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        det_shifted_J(a, beta, 10**6)  # raises ArithmeticError on mismatch


# ---------------------------------------------------------------------------
# rank-one update


def test_rank_one_zero_vector():
    m = [[4, 1], [2, 9]]
    assert det_rank_one_update(m, [0, 0], [1, 1]) == determinant(m)


def test_rank_one_identity_example():
    assert det_rank_one_update([[1, 0], [0, 1]], [1, 1], [1, 1]) == 3


def test_rank_one_100_seeds():
    rng = random.Random(31)
    for _ in range(100):
        m = rand_int_matrix(rng, 5)
        u = [rng.randint(-5, 5) for _ in range(5)]
        v = [rng.randint(-5, 5) for _ in range(5)]
        det_rank_one_update(m, u, v)  # raises ArithmeticError on mismatch


def test_rank_one_singular_matrix_adjugate_path():
    singular = [[1, 2], [2, 4]]
    got = det_rank_one_update(singular, [1, 0], [0, 1])
    assert got == determinant([[1, 3], [2, 4]])


# ---------------------------------------------------------------------------
# polynomial text form


def test_poly_text():
    assert IntPoly((-4, -6, 0, 1)).text() == "-4 - 6*x + x^3"
    assert IntPoly((0,)).text() == "0"
    assert IntPoly((1, 0, 2)).text() == "1 + 2*x^2"
    assert IntPoly((0, -1)).text() == "-x"
    assert IntPoly((5,)).text() == "5"


# ---------------------------------------------------------------------------
# certified real roots


def test_real_roots_multiplicities_from_square_free_parts():
    x2_minus_2 = IntPoly((-2, 0, 1))
    poly = x2_minus_2 * x2_minus_2 * x2_minus_2 * IntPoly((-3, 0, 1))
    roots = real_roots(poly)
    assert [m for _, m in roots] == [1, 3, 3, 1]
    expected = [-3**0.5, -2**0.5, 2**0.5, 3**0.5]
    assert all(abs(v - e) < 1e-13 for (v, _), e in zip(roots, expected))


def test_real_roots_reject_a_non_real_root():
    with pytest.raises(ArithmeticError):
        real_roots(IntPoly((1, 0, 1)))


def test_real_roots_of_a_constant():
    assert real_roots(IntPoly((1,))) == []
