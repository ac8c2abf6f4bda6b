"""Integer arithmetic behind the divisor-class decomposition of Z_n.

Everything here is deterministic and pure Python, and every result is a
plain Python int:

- primality: a sieve below 2^16; above it, trial division by the primes
  below 2^8, then Miller–Rabin with fixed prime bases, which is a proof
  below 3.3·10^24 (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math.
  Comp. 2017), and the Baillie–PSW test, with no known counterexample,
  above that (Baillie and Wagstaff, Math. Comp. 1980);
- factorization: trial division by the primes below 2^10, then
  Pollard–Brent rho on the cofactor (Brent, BIT 1980; Cohen, *A Course in
  Computational Algebraic Number Theory*, §8.2 and §8.5); a cofactor rho
  does not split within a fixed budget goes to sympy, where installed;
- Euler's totient and divisors, read off the cached factorization;
- the partition of the nonzero zero divisors of Z_n into gcd classes.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache


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


def _sieve(limit: int) -> bytearray:
    """Byte k is 1 iff k <= limit is prime (Eratosthenes; limit >= 1)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sieve


_SIEVE_LIMIT = 1 << 16
_SIEVE = _sieve(_SIEVE_LIMIT - 1)
_TRIAL = [p for p in range(1 << 10) if _SIEVE[p]]  # trial divisors of factorize
_PRIMORIAL = math.prod(p for p in range(1 << 8) if _SIEVE[p])

# (bound, bases): Miller–Rabin to these bases proves n < bound prime.
_MR_BASES = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# Pollard–Brent iterations spent on one cofactor before handing it on.
_RHO_BUDGET = 1 << 20


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller–Rabin: whether odd n > every base is a strong probable prime to each base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2 that is not a square,
    with Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D / n) = -1, P = 1, Q = (1 - D) / 4.  Writing n + 1 = d 2^s with d odd,
    n passes iff U_d = 0 or V_(d 2^r) = 0 for some 0 <= r < s."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:  # x / 2 mod n
        return (x + n if x & 1 else x) // 2 % n

    u, v, qk = 1, 1, Q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime: proved below 3.3·10^24, and by the
    Baillie–PSW test, which has no known counterexample, above."""
    if n < _SIEVE_LIMIT:
        return n > 1 and _SIEVE[n] == 1
    n = operator.index(n)
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    for bound, bases in _MR_BASES:
        if n < bound:
            return _strong_probable_prime(n, bases)
    if not _strong_probable_prime(n, (2,)):
        return False
    return math.isqrt(n) ** 2 != n and _strong_lucas(n)


def _rho(n: int, budget: int | None) -> int | None:
    """A factor 1 < f < n of the odd composite n by Pollard–Brent rho with
    x -> x^2 + c, trying c = 1, 2, ... in turn; None once ``budget``
    iterations are spent without one (None: no budget)."""
    spent, c = 0, 0
    while budget is None or spent < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            spent += 2 * r
            r *= 2
            if budget is not None and spent >= budget and g == 1:
                return None
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _split(m: int, out: dict[int, int]) -> None:
    """Add the prime factorization of m > 1, which has no prime factor
    below 2^10, to ``out``.  A cofactor rho does not split within its
    budget goes to ``sympy.factorint`` where sympy is installed."""
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        f = _rho(m, _RHO_BUDGET)
        if f is None:
            try:  # two large prime factors: hand over to ECM and the rest
                from sympy import factorint
            except ImportError:
                f = _rho(m, None)
            else:
                for p, a in factorint(m).items():
                    out[int(p)] = out.get(int(p), 0) + int(a)
                continue
        stack += [f, m // f]


@lru_cache(maxsize=512)
def factorize(n: int) -> Factorization:
    """Factor n >= 2, cached for the most recent 512 n (a survey factors
    each n once; a model reads n's factorization twice in a row)."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    out: dict[int, int] = {}
    m = n
    for p in _TRIAL:
        if p * p > m:  # m has no prime factor below its square root
            if m > 1:
                out[m] = 1
            break
        if m % p == 0:
            a = 1
            m //= p
            while m % p == 0:
                m //= p
                a += 1
            out[p] = a
    else:
        if m > 1:
            _split(m, out)
    return Factorization(n, tuple(sorted(out.items())))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (simple sieve)."""
    if limit < 2:
        return []
    sieve = _sieve(limit)
    return [i for i, alive in enumerate(sieve) if alive]


def euler_phi(n: int) -> int:
    """Euler's totient; phi(1) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    phi = 1
    for p, a in factorize(n).factors:
        phi *= (p - 1) * p ** (a - 1)
    return phi


def proper_divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, ascending."""
    if n < 2:
        raise ValueError(f"proper_divisors requires n >= 2, got {n}")
    divs = [1]
    for p, a in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(a + 1)]
    divs.sort()
    return divs[1:-1]


def num_proper_divisors(n: int) -> int:
    """s(n) = prod(a_i + 1) - 2, the number of proper divisors."""
    if n < 2:
        raise ValueError(f"num_proper_divisors requires n >= 2, got {n}")
    return math.prod(a + 1 for _, a in factorize(n).factors) - 2


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
