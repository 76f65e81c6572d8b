"""Exact integer arithmetic: extended gcd, modular inverses (single and
batched), factorization, divisor enumeration, and the multiplicative
functions (tau, phi, omega, kernel) the rest of the package leans on.

Everything here is deterministic and uses exact Python integers.  The
factoring routine is guaranteed below FACTOR_CEILING (2**63); larger
inputs are rejected rather than silently mis-factored.
"""

import math
from collections import namedtuple

__all__ = [
    "FACTOR_CEILING",
    "NotInvertible",
    "Factorization",
    "ext_gcd",
    "mod_inv",
    "batch_mod_inv",
    "is_prime",
    "factorize",
    "divisors",
    "primes_up_to",
]

# factorize() is deterministic below this bound: the Miller-Rabin witness
# set below is a proven-deterministic primality test for n < 3.3e24, and
# Brent-rho splits 63-bit composites quickly.
FACTOR_CEILING = 2**63

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotInvertible(ValueError):
    """x has no inverse modulo m, i.e. gcd(x, m) != 1."""


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, u, v) with g = gcd(a, b) >= 0 and a*u + b*v = g."""
    sa = -1 if a < 0 else 1
    sb = -1 if b < 0 else 1
    old_r, r = abs(a), abs(b)
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, sa * old_u, sb * old_v


def mod_inv(x: int, m: int) -> int:
    """Inverse of x modulo m, in [1, m-1].  Raises NotInvertible if gcd(x, m) != 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    g, u, _ = ext_gcd(x % m, m)
    if g != 1:
        raise NotInvertible(f"{x} is not invertible mod {m} (gcd = {g})")
    return u % m


def batch_mod_inv(xs: list[int], m: int) -> list[int]:
    """Inverses of all xs mod m with one ext_gcd and O(len(xs)) multiplications.

    Prefix-product trick: invert the total product once, then peel inverses
    off backwards.  Every x must be a unit mod m (NotInvertible otherwise).
    """
    if not xs:
        return []
    prefix = [0] * len(xs)
    acc = 1
    for i, x in enumerate(xs):
        acc = acc * x % m
        prefix[i] = acc
    inv_acc = mod_inv(acc, m)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = inv_acc * prefix[i - 1] % m
        inv_acc = inv_acc * xs[i] % m
    out[0] = inv_acc
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 2**63 with these witnesses)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n.  Deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
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
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in practice


class _Checked:
    """The first base of each validated value type: a subclass of a
    namedtuple that checks and normalises its fields in its own __new__.
    The namedtuple's _make, which _replace builds through, bypasses
    __new__; this one calls the class, so every way of building a value
    checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Factorization(_Checked, namedtuple("Factorization", "factors")):
    """Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    The empty tuple represents 1.  Every prime is checked, except in the
    results of factorize, the one place that makes them unchecked: it lists
    only primes.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]):
        factors = tuple(map(tuple, factors))  # stored as a tuple of tuples, hashable
        prev = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization: {factors}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
        return tuple.__new__(cls, (factors,))

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    @property
    def tau(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    @property
    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** (e - 1) * (p - 1)
        return out

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def kernel(self) -> int:
        """Product of the distinct prime divisors (the squarefree core)."""
        out = 1
        for p, _ in self.factors:
            out *= p
        return out


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((n - p * p) // p + 1)
    return [i for i in range(2, n + 1) if sieve[i]]


# trial-division wheel before handing the remainder to rho
_TRIAL_PRIMES = tuple(primes_up_to(1000))


def factorize(n: int) -> Factorization:
    """Factor n >= 1.  Trial division below 1000, then Brent rho on what is
    left, each factor of it tested by is_prime once.  The result is built
    unchecked: it holds only trial primes and factors is_prime passed."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n >= FACTOR_CEILING:
        raise ValueError(f"{n} exceeds the factoring ceiling 2**63")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            d = _brent_rho(v)
            stack.append(d)
            stack.append(v // d)
    return tuple.__new__(Factorization, (tuple(sorted(counts.items())),))


def divisors(f: Factorization | int) -> list[int]:
    """Sorted list of all positive divisors; length equals tau."""
    if isinstance(f, int):
        f = factorize(f)
    divs = [1]
    for p, e in f.factors:
        pk = 1
        step = []
        for _ in range(e):
            pk *= p
            step.extend(d * pk for d in divs)
        divs.extend(step)
    return sorted(divs)

