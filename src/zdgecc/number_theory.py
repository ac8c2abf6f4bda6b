"""Integer arithmetic behind the divisor-class decomposition of Z_n.

Everything here is deterministic and pure: factorization, primality,
Euler's totient and divisors from ``sympy.ntheory`` (so huge n does not
hang), and the partition of the nonzero zero divisors of Z_n into gcd
classes.  Every result is a plain Python int.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from sympy import divisor_count, divisors, factorint, isprime, totient


class ClassKind(enum.Enum):
    """Kind of subgraph a divisor class induces in the zero-divisor graph."""

    COMPLETE = "complete"
    NULL = "null"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p_i^a_i with strictly increasing primes."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def radical(self) -> int:
        """Product of the distinct primes dividing n."""
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    @property
    def max_exponent(self) -> int:
        return max(a for _, a in self.factors)

    @property
    def num_primes(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class DivisorClass:
    """Elements of [1, n-1] whose gcd with n is exactly d."""

    n: int
    d: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Factor n >= 2."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    return Factorization(n, tuple(sorted(factorint(n).items())))


def is_prime(n: int) -> bool:
    return isprime(n)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (simple sieve)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, alive in enumerate(sieve) if alive]


def euler_phi(n: int) -> int:
    """Euler's totient; phi(1) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    return int(totient(n))


def proper_divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, ascending."""
    if n < 2:
        raise ValueError(f"proper_divisors requires n >= 2, got {n}")
    return divisors(n)[1:-1]


def num_proper_divisors(n: int) -> int:
    """s(n) = prod(a_i + 1) - 2, the number of proper divisors."""
    if n < 2:
        raise ValueError(f"num_proper_divisors requires n >= 2, got {n}")
    return int(divisor_count(n)) - 2


def divisor_class(n: int, d: int) -> DivisorClass:
    """The gcd class {k in [1, n-1] : gcd(k, n) = d} for a proper divisor d."""
    if not (1 < d < n and n % d == 0):
        raise ValueError(f"{d} is not a proper divisor of {n}")
    elements = tuple(k for k in range(d, n, d) if math.gcd(k, n) == d)
    return DivisorClass(n, d, elements)


def class_graph_kind(n: int, d: int) -> ClassKind:
    """COMPLETE when n | d^2 (the class induces a clique), NULL otherwise."""
    if not (1 < d < n and n % d == 0):
        raise ValueError(f"{d} is not a proper divisor of {n}")
    return ClassKind.COMPLETE if (d * d) % n == 0 else ClassKind.NULL
