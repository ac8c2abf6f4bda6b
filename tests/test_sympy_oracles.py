"""The runtime's own exact arithmetic against sympy.

``number_theory`` (sieve, Miller–Rabin, Baillie–PSW, Pollard–Brent rho) and
``exact_linalg``'s polynomial routines (Yun's square-free decomposition,
Descartes isolation) replaced sympy calls; sympy is imported here, in the
tests, only.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from sympy import Poly, Symbol
from sympy.ntheory.primetest import is_strong_lucas_prp

from zdgecc import exact_linalg, number_theory
from zdgecc.exact_linalg import IntPoly, integer_roots, real_roots
from zdgecc.number_theory import (
    euler_phi,
    factorize,
    is_prime,
    num_proper_divisors,
    proper_divisors,
)

X = Symbol("x")
PRIMES_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# ---------------------------------------------------------------------------
# number theory


def test_arithmetic_of_every_n_below_20000_matches_sympy():
    for n in range(1, 20000):
        assert is_prime(n) is sympy.isprime(n), n
        assert euler_phi(n) == sympy.totient(n), n
        if n < 2:
            continue
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n
        assert proper_divisors(n) == sympy.divisors(n)[1:-1], n
        assert num_proper_divisors(n) == sympy.divisor_count(n) - 2, n


def _korselt(n):
    """Korselt's criterion, from sympy's factorization: n is Carmichael."""
    fac = sympy.factorint(n)
    return len(fac) > 1 and all(a == 1 and (n - 1) % (p - 1) == 0 for p, a in fac.items())


def _chernick(k_from):
    """The first Carmichael number (6k + 1)(12k + 1)(18k + 1) with k >= k_from."""
    k = k_from
    while not all(sympy.isprime(m * k + 1) for m in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
              3215031751]


def test_carmichael_numbers_are_composite():
    numbers = CARMICHAEL + [_chernick(10**k) for k in (3, 5, 7, 9)]
    assert max(numbers) > 3.3e24  # past the Miller–Rabin table: Baillie–PSW
    for n in numbers:
        assert _korselt(n), n
        assert is_prime(n) is False, n
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_strong_pseudoprimes_to_many_bases_are_composite():
    # 3215031751 is the least strong pseudoprime to 2, 3, 5 and 7
    for n, bases in ((3215031751, PRIMES_TO_41[:4]),
                     (3825123056546413051, PRIMES_TO_41[:9]),
                     (318665857834031151167461, PRIMES_TO_41[:12])):
        assert number_theory._strong_probable_prime(n, bases), n
        assert is_prime(n) is False, n
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_strong_lucas_test_matches_sympy():
    for n in range(5, 60000, 2):
        if math.isqrt(n) ** 2 != n:
            assert number_theory._strong_lucas(n) == is_strong_lucas_prp(n), n


def test_large_integers_match_sympy():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.getrandbits(rng.randrange(17, 200))
        for m in (n, sympy.nextprime(n)):
            assert is_prime(m) is sympy.isprime(m), m
    for e in (61, 89, 107, 127, 521):  # Mersenne primes, and their neighbours
        for m in (2**e - 1, 2**e + 1, 2**e - 3):
            assert is_prime(m) is sympy.isprime(m), m


def test_factorization_of_semiprimes_and_prime_powers():
    rng = random.Random(30)
    for _ in range(4):
        p, q = (sympy.nextprime(rng.getrandbits(30) | 1 << 29) for _ in range(2))
        assert dict(factorize(p * q).factors) == ({p: 1, q: 1} if p != q else {p: 2})
    for _ in range(20):
        n = math.prod(sympy.nextprime(rng.getrandbits(rng.randrange(2, 26))) ** rng.randrange(1, 4)
                      for _ in range(rng.randrange(1, 5)))
        if n > 1:
            assert dict(factorize(n).factors) == sympy.factorint(n), n
    big = sympy.nextprime(2**40)
    assert factorize(big**3 * 6).factors == ((2, 1), (3, 1), (big, 3))


@pytest.mark.parametrize("sympy_installed", [True, False])
def test_a_cofactor_rho_cannot_split_in_budget_is_still_factored(monkeypatch, sympy_installed):
    monkeypatch.setattr(number_theory, "_RHO_BUDGET", 1)
    if not sympy_installed:
        monkeypatch.setitem(sys.modules, "sympy", None)  # import raises
    p, q = 1000003, 1000033
    assert number_theory._rho(p * q, 1) is None
    assert number_theory.factorize.__wrapped__(6 * p * q).factors == ((2, 1), (3, 1), (p, 1), (q, 1))


# ---------------------------------------------------------------------------
# polynomials


def _random_product(rng, monic):
    """A product of random integer polynomials, each to a random power."""
    poly = IntPoly((1,))
    for _ in range(rng.randint(1, 4)):
        lead = 1 if monic else rng.choice((-3, -2, -1, 1, 2, 3))
        factor = IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))) + (lead,))
        for _ in range(rng.randint(1, 3)):
            poly = poly * factor
    return poly


def _sympy_parts(poly):
    _, parts = Poly(list(reversed(poly.coeffs)), X).sqf_list()
    return [([int(c) for c in part.all_coeffs()], mult) for part, mult in parts]


def test_square_free_parts_match_sympys_sqf_list():
    rng = random.Random(7)
    for trial in range(300):
        poly = _random_product(rng, monic=trial % 2 == 0)
        assert exact_linalg._parts(poly) == _sympy_parts(poly), poly


def test_the_compressed_residual_of_1140_splits_like_sympy():
    from zdgecc.graphs import Decomposition

    residual = Decomposition.of(1140, "compressed").certificate.residual
    parts = exact_linalg._parts(residual)
    assert parts == _sympy_parts(residual)
    assert [(len(desc) - 1, mult) for desc, mult in parts] == [(8, 1), (4, 2)]


def test_root_intervals_isolate_the_roots_sympy_isolates():
    rng = random.Random(8)
    for trial in range(200):
        poly = _random_product(rng, monic=trial % 2 == 0)
        for desc, _ in exact_linalg._parts(poly):
            ours = exact_linalg._root_intervals(desc)
            theirs = Poly(desc, X).intervals(sqf=True)
            assert len(ours) == len(theirs), desc
            for (a, b), (c, d) in zip(ours, theirs):
                c, d = sympy.Rational(c), sympy.Rational(d)
                assert a <= d and c <= b, (desc, a, b, c, d)  # the same root
                if a == b:
                    assert exact_linalg._sign_at(desc, a.numerator, a.denominator) == 0
                else:
                    signs = [exact_linalg._sign_at(desc, x.numerator, x.denominator) for x in (a, b)]
                    assert signs[0] * signs[1] == -1, (desc, a, b)


def _real_rooted(rng):
    """A monic product, with repeated factors, of quadratics x^2 - s x - t
    with two irrational real roots: no rational root, every root real."""
    poly = IntPoly((1,))
    for _ in range(rng.randint(1, 3)):
        while True:
            s, t = rng.randint(-6, 6), rng.randint(-30, 30)
            disc = s * s + 4 * t
            if disc > 0 and math.isqrt(disc) ** 2 != disc:
                break
        for _ in range(rng.randint(1, 3)):
            poly = poly * IntPoly((-t, -s, 1))
    return poly


def test_isolation_gives_the_grid_cells_sympys_intervals_give():
    rng = random.Random(9)
    for _ in range(60):
        poly = _real_rooted(rng)
        reference = tuple(
            (tuple(desc), mult, tuple(
                exact_linalg._snap(desc, Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
                for a, b in Poly(desc, X).intervals(sqf=True)))
            for desc, mult in _sympy_parts(poly)
        )
        assert real_roots(poly) == list(exact_linalg._refine(reference)), poly


def test_integer_roots_match_sympys_roots():
    rng = random.Random(10)
    for _ in range(150):
        chosen = {rng.randint(-10**6, 10**6) if rng.random() < 0.3 else rng.randint(-40, 40):
                  rng.randint(1, 3) for _ in range(rng.randint(0, 5))}
        poly = _random_product(rng, monic=True)
        for root, mult in chosen.items():
            for _ in range(mult):
                poly = poly * IntPoly((-root, 1))
        bound = rng.choice((0, 5, 40, 10**6, 10**30))
        roots, residual = integer_roots(poly, bound)
        _, factors = Poly(list(reversed(poly.coeffs)), X).factor_list()
        linear = [(-int(f.all_coeffs()[1]), m) for f, m in factors if f.degree() == 1]
        want = sorted((r, m) for r, m in linear if abs(r) <= bound)
        assert roots == want, (poly, bound)
        rebuilt = residual
        for root, mult in roots:
            for _ in range(mult):
                rebuilt = rebuilt * IntPoly((-root, 1))
        assert rebuilt == poly


def test_integer_roots_take_time_logarithmic_in_the_bound():
    roots, residual = integer_roots(IntPoly((-10**400, 1)), 10**401)
    assert roots == [(10**400, 1)] and residual == IntPoly((1,))
    poly = IntPoly((-10**7, 1)) * IntPoly((-2, 0, 1))
    assert integer_roots(poly, 10**8) == ([(10**7, 1)], IntPoly((-2, 0, 1)))
    assert integer_roots(poly, 10**7 - 1) == ([], poly)


def test_the_complete_path_splits_like_sympys_sqf_list():
    """One square-free decomposition gives ``_complete`` both the integer
    roots and the residual's isolation.  On products, with repeated
    factors, of integer linear factors and real-rooted quadratics, the
    decomposition is sympy's ``sqf_list``, the roots are the linear factors,
    the isolation's parts are the residual's ``sqf_list`` and its grid cells
    are those of sympy's isolating intervals, so the integer roots taken out
    of each part leave the residual's own decomposition."""
    rng = random.Random(11)
    for _ in range(80):
        chosen = {rng.randint(-20, 20): rng.randint(1, 3) for _ in range(rng.randint(0, 3))}
        poly = _real_rooted(rng)
        for root, mult in chosen.items():
            for _ in range(mult):
                poly = poly * IntPoly((-root, 1))
        assert exact_linalg._parts(poly) == _sympy_parts(poly), poly
        roots, residual, isolation = exact_linalg._complete(poly, 1 + max(map(abs, poly.coeffs)))
        assert roots == sorted(chosen.items()), poly
        rebuilt = residual
        for root, mult in roots:
            for _ in range(mult):
                rebuilt = rebuilt * IntPoly((-root, 1))
        assert rebuilt == poly
        assert [(list(desc), mult) for desc, mult, _ in isolation] == _sympy_parts(residual), poly
        reference = tuple(
            (tuple(desc), mult, tuple(
                exact_linalg._snap(desc, Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
                for a, b in Poly(desc, X).intervals(sqf=True)))
            for desc, mult in _sympy_parts(residual)
        )
        assert exact_linalg._refine(isolation) == exact_linalg._refine(reference), poly
