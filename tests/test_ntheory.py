import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from modhull import ntheory
from modhull.ntheory import (
    Factorization,
    NotInvertible,
    _brent_rho,
    batch_mod_inv,
    divisors,
    ext_gcd,
    factorize,
    is_prime,
    mod_inv,
    primes_up_to,
)


def test_ext_gcd_examples():
    assert ext_gcd(3, 7) == (1, -2, 1)
    assert ext_gcd(0, 5) == (5, 0, 1)
    assert ext_gcd(12, 18) == (6, -1, 1)


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_ext_gcd_identity(a, b):
    g, u, v = ext_gcd(a, b)
    assert g == math.gcd(a, b) >= 0
    assert a * u + b * v == g


def test_mod_inv_examples():
    assert mod_inv(3, 7) == 5
    assert mod_inv(1, 97) == 1
    with pytest.raises(NotInvertible):
        mod_inv(4, 6)


def test_mod_inv_random_pairs():
    # splitmix-free: plain LCG walk is enough to pick 10^4 valid pairs
    state = 12345
    checked = 0
    while checked < 10_000:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        m = 2 + state % 999_983
        x = 1 + (state >> 32) % (m - 1)
        if math.gcd(x, m) != 1:
            continue
        inv = mod_inv(x, m)
        assert 1 <= inv <= m - 1
        assert x * inv % m == 1
        checked += 1


def test_batch_mod_inv_matches_single():
    m = 10_007
    xs = [x for x in range(1, 500) if math.gcd(x, m) == 1]
    assert batch_mod_inv(xs, m) == [mod_inv(x, m) for x in xs]


def test_batch_mod_inv_rejects_nonunit():
    with pytest.raises(NotInvertible):
        batch_mod_inv([2, 3], 6)


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(1000003).factors == ((1000003, 1),)


def test_factorize_trial_division_oracle():
    # 1000003 prime by direct trial division
    n = 1000003
    assert all(n % d for d in range(2, math.isqrt(n) + 1))


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 999_983
    f = factorize(p * q)
    assert f.factors == ((q, 1), (p, 1))


_TRIAL_PRIMES = primes_up_to(1000)


def reference_factorize(n: int) -> Factorization:
    """factorize as it was before it built its result unchecked: the checked
    Factorization tests every prime again."""
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
            if ntheory.is_prime(v):
                counts[v] = counts.get(v, 0) + 1
                continue
            d = _brent_rho(v)
            stack.append(d)
            stack.append(v // d)
    return Factorization(tuple(sorted(counts.items())))


def test_factorize_equals_its_reference(monkeypatch):
    # below 5*10^4 factorize gives the prime factorization, which the least
    # prime factor of each n spells out; the reference runs on a sample
    # below 2*10^5, on seeded n below 2^62 (and on the rho paths, below).
    # A memo of is_prime changes no answer and halves the time of the sweep
    monkeypatch.setattr(ntheory, "is_prime", functools.cache(is_prime))
    n_max = 5 * 10**4
    least = list(range(n_max))
    for p in reversed(primes_up_to(math.isqrt(n_max))):  # the least prime is written last
        least[p * p :: p] = [p] * len(range(p * p, n_max, p))

    def sieve_factors(n):
        factors = []
        while n > 1:
            p, e = least[n], 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        return tuple(factors)

    swept = list(map(factorize, range(1, n_max)))
    assert [f.factors for f in swept] == list(map(sieve_factors, range(1, n_max)))
    assert {type(f) for f in swept} == {Factorization}
    rng = random.Random(21)
    sample = [rng.randrange(1, 2 * 10**5) for _ in range(2000)]
    sample += [rng.randrange(1, 2 ** rng.randrange(1, 63)) for _ in range(200)]
    assert list(map(factorize, sample)) == list(map(reference_factorize, sample))


def test_factorize_rho_paths():
    # everything here is past trial division, so rho splits it.  When the
    # batched gcd reaches n (prime squares often do this), rho backtracks
    # one step at a time; two 31-bit primes need the longest walks
    rng = random.Random(20)

    def prime_in(lo, hi):
        while not is_prime(p := rng.randrange(lo, hi)):
            pass
        return p

    cases = []
    for _ in range(40):
        p, q = prime_in(1001, 2**20), prime_in(1001, 2**20)
        cases += [[p, p], [p, q], [p, p, q]]
    cases += [[prime_in(2**30, 2**31), prime_in(2**30, 2**31)] for _ in range(4)]
    for primes in cases:
        n = math.prod(primes)
        d = _brent_rho(n)
        assert 1 < d < n and n % d == 0, (primes, d)
        f = factorize(n)
        assert f.factors == tuple(sorted(Counter(primes).items())), primes
        assert Factorization(f.factors) == f == reference_factorize(n)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # zero exponent


def test_divisors_examples():
    assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]
    assert divisors(factorize(1)) == [1]
    assert divisors(factorize(7)) == [1, 7]
    assert divisors(720) == sorted(d for d in range(1, 721) if 720 % d == 0)


def test_divisor_count_against_sieve():
    # independent tau oracle: count every divisor by direct enumeration
    n_max = 100_000
    tau = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for k in range(d, n_max + 1, d):
            tau[k] += 1
    for n in range(1, n_max + 1):
        f = factorize(n)
        assert f.tau == tau[n]
        if n <= 2000:
            assert len(divisors(f)) == tau[n]
    # divisor lists stay consistent with tau on a sparse tail sample
    for n in range(2001, n_max + 1, 997):
        assert len(divisors(factorize(n))) == tau[n]


def test_phi_brute_force():
    for n in range(2, 10_001):
        expected = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
        assert factorize(n).phi == expected


def test_is_prime_small():
    sieve = set(primes_up_to(10_000))
    for n in range(10_000):
        assert is_prime(n) == (n in sieve)


def _strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin test to the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1 for r in range(1, s))


def test_is_prime_rejects_strong_pseudoprimes():
    # each n fools every base in its row, so is_prime needs a witness past them
    cases = [
        # the least strong pseudoprime to the bases 2, 3, 5 and 7 (Pomerance,
        # Selfridge and Wagstaff, Math. Comp. 35, 1980)
        (3_215_031_751, (151, 751, 28_351), (2, 3, 5, 7)),
        # the least to every prime base up to 17, and to 19 (Jaeschke, Math.
        # Comp. 61, 1993)
        (341_550_071_728_321, (10_670_053, 32_010_157), (2, 3, 5, 7, 11, 13, 17, 19)),
        # the least to every prime base up to 31 (Jiang and Deng, Math. Comp.
        # 83, 2014); of the twelve witnesses only 37 catches it
        (3_825_123_056_546_413_051, (149_491, 747_451, 34_233_211), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    ]
    for n, factors, fooled in cases:
        assert math.prod(factors) == n and all(_strong_probable_prime(n, a) for a in fooled), n
        assert not is_prime(n), n
        assert factorize(n).factors == tuple((p, 1) for p in factors), n


def test_factorization_statistics_examples():
    # t = n / kernel and the squarefree flag are derived by the sweep records
    # (tests/test_experiments.py); these are the statistics they start from
    stats = lambda f: (f.n, f.tau, f.phi, f.omega, f.kernel)
    assert stats(factorize(12)) == (12, 6, 4, 2, 6)
    assert stats(factorize(30)) == (30, 8, 8, 3, 30)
    assert stats(factorize(2)) == (2, 2, 1, 1, 2)


def test_kernel_squarefree_same_support():
    # the sweep records' t = n / kernel and squarefree = (kernel == n) are
    # checked against these in tests/test_experiments.py
    for n in range(2, 3000):
        f = factorize(n)
        k = factorize(f.kernel)
        assert all(e == 1 for _, e in k.factors)
        assert [p for p, _ in k.factors] == [p for p, _ in f.factors]
        assert n % f.kernel == 0
        assert (f.kernel == n) == all(e == 1 for _, e in f.factors)
