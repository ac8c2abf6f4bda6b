import math

import pytest

from zdgecc.number_theory import (
    ClassKind,
    class_graph_kind,
    divisor_class,
    euler_phi,
    factorize,
    is_prime,
    num_proper_divisors,
    primes_up_to,
    proper_divisors,
)


def test_factorize_examples():
    assert factorize(35).factors == ((5, 1), (7, 1))
    assert factorize(8).factors == ((2, 3),)
    assert factorize(72).factors == ((2, 3), (3, 2))


def test_factorize_invariants():
    for n in range(2, 500):
        fac = factorize(n)
        prod = 1
        for p, a in fac.factors:
            assert is_prime(p)
            assert a >= 1
            prod *= p**a
        assert prod == n
        assert list(fac.factors) == sorted(fac.factors)


def test_factorize_domain_error():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(35) == 24
    assert euler_phi(8) == 4


def test_euler_phi_matches_gcd_count():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_proper_divisors_examples():
    assert proper_divisors(35) == [5, 7]
    assert proper_divisors(8) == [2, 4]
    assert proper_divisors(12) == [2, 3, 4, 6]
    assert num_proper_divisors(12) == 4


def test_divisor_class_examples():
    assert divisor_class(35, 5).elements == (5, 10, 15, 20, 25, 30)
    assert divisor_class(35, 7).elements == (7, 14, 21, 28)
    assert divisor_class(8, 4).elements == (4,)


def test_divisor_class_domain_error():
    with pytest.raises(ValueError):
        divisor_class(35, 6)
    with pytest.raises(ValueError):
        divisor_class(35, 35)
    with pytest.raises(ValueError):
        divisor_class(35, 1)


def test_class_graph_kind_examples():
    assert class_graph_kind(35, 5) is ClassKind.NULL
    assert class_graph_kind(27, 9) is ClassKind.COMPLETE
    for p in (2, 3, 5, 7):
        assert class_graph_kind(p**3, p) is ClassKind.NULL


def test_primes_up_to():
    assert primes_up_to(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert primes_up_to(1) == []


def test_partition_and_cardinality_up_to_2000():
    """Divisor classes partition the zero divisors; |A(d)| = phi(n/d); s(n) identity."""
    for n in range(4, 2001):
        if is_prime(n):
            continue
        divs = proper_divisors(n)
        expected_sn = 1
        for _, a in factorize(n).factors:
            expected_sn *= a + 1
        assert len(divs) == expected_sn - 2
        union: set[int] = set()
        total = 0
        for d in divs:
            cls = divisor_class(n, d)
            assert len(cls) == euler_phi(n // d)
            assert not (union & set(cls.elements))
            union.update(cls.elements)
            total += len(cls)
        zero_divisors = {k for k in range(1, n) if math.gcd(k, n) != 1}
        assert union == zero_divisors
        assert total == n - euler_phi(n) - 1


def test_huge_moduli_in_plain_ints():
    # far beyond trial division up to sqrt(n)
    divs = proper_divisors(2**70)
    assert divs == [2**k for k in range(1, 70)]
    assert num_proper_divisors(10**12) == 167
    assert euler_phi(2**70) == 2**69
    assert is_prime(10**39 + 3) is True
    assert factorize(10**12).factors == ((2, 12), (5, 12))
    flat = [x for pair in factorize(10**12).factors for x in pair]
    results = [*divs, num_proper_divisors(10**12), euler_phi(2**70), *flat]
    assert all(type(x) is int for x in results)


def test_below_two_domain():
    for n in (1, 0, -7):
        assert is_prime(n) is False
        with pytest.raises(ValueError):
            proper_divisors(n)
        with pytest.raises(ValueError):
            num_proper_divisors(n)
    with pytest.raises(ValueError):
        euler_phi(0)
