import math

import numpy as np
import pytest

from charzero import sieve


def test_primes_up_to_small():
    assert list(sieve.primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(sieve.primes_up_to(1)) == []
    assert list(sieve.primes_up_to(2)) == [2]


def test_prime_counting_milestone():
    assert len(sieve.primes_up_to(10**6)) == 78498


def test_is_prime_edges():
    assert not sieve.is_prime(0)
    assert not sieve.is_prime(1)
    assert sieve.is_prime(2)
    assert not sieve.is_prime(561)  # Carmichael number
    assert sieve.is_prime(10007)


def test_von_mangoldt_values():
    lam = sieve.von_mangoldt_array(30)
    assert lam[8] == pytest.approx(math.log(2), abs=1e-15)
    assert lam[9] == pytest.approx(math.log(3), abs=1e-15)
    assert lam[27] == pytest.approx(math.log(3), abs=1e-15)
    assert lam[12] == 0.0
    assert lam[1] == 0.0
    # Chebyshev psi(1e5) stays close to 1e5
    big = sieve.von_mangoldt_array(10**5)
    assert abs(big.sum() - 1e5) < 1e5 * 0.01


def test_euler_phi():
    assert sieve.euler_phi(1) == 1
    assert sieve.euler_phi(12) == 4
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        m = int(rng.integers(2, 300))
        n = int(rng.integers(2, 300))
        if math.gcd(m, n) == 1:
            assert sieve.euler_phi(m * n) == sieve.euler_phi(m) * sieve.euler_phi(n)


def test_legendre_symbol_euler_criterion():
    rng = np.random.default_rng(20260814)
    for q in (5, 13, 101, 10007):
        for _ in range(30):
            n = int(rng.integers(1, q))
            ls = sieve.legendre_symbol(n, q)
            assert ls == (1 if pow(n, (q - 1) // 2, q) == 1 else -1)
        assert sieve.legendre_symbol(q, q) == 0


def test_legendre_multiplicative():
    rng = np.random.default_rng(1)
    q = 101
    for _ in range(200):
        m = int(rng.integers(1, 10**6))
        n = int(rng.integers(1, 10**6))
        assert sieve.legendre_symbol(m * n, q) == sieve.legendre_symbol(
            m, q
        ) * sieve.legendre_symbol(n, q)


def test_multiplicative_order_divides_phi():
    for q in (7, 9, 22, 25, 101):
        phi = sieve.euler_phi(q)
        for n in range(2, q):
            if math.gcd(n, q) == 1:
                d = sieve.multiplicative_order(n, q)
                assert phi % d == 0
                assert pow(n, d, q) == 1


def test_primitive_root():
    for q in (3, 5, 7, 11, 13, 101, 10007):
        g = sieve.primitive_root(q)
        assert sieve.multiplicative_order(g, q) == q - 1


def test_crt_pair():
    n = sieve.crt_pair(2, 3, 3, 5)
    assert n % 3 == 2 and n % 5 == 3


@pytest.mark.parametrize(
    "segment, large",
    [(16, (10**4,)), (128, (10**4, 65536, 10**5 + 3)), (1024, (10**5 + 3, 999983, 10**6))],
)
def test_segmented_sieve_matches_dense(monkeypatch, segment, large):
    # the segmented branch only runs above 2^25; a short segment makes small
    # n cross many segment boundaries (it never receives n = 2 or 3)
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    for n in (*range(4, 400), *large):
        assert np.array_equal(sieve._segmented_sieve(n), sieve._odd_sieve(n)), n
