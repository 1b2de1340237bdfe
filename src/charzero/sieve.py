"""Prime sieves, factorization, and elementary arithmetic helpers.

Everything here is deterministic and cache-backed: the prime list grows
monotonically and is shared by all callers in a process.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SieveLimitError

DEFAULT_SIEVE_LIMIT = 10**8

_SEGMENT = 1 << 22  # segment length keeps peak memory near 4 MB per block

_cache_n = 0
_cache_primes = np.empty(0, dtype=np.int64)


def check_limit(n: float, what: str = "argument") -> None:
    if n > DEFAULT_SIEVE_LIMIT:
        raise SieveLimitError(
            f"{what} {n} exceeds the sieve limit {DEFAULT_SIEVE_LIMIT}"
        )


def _odd_sieve(n: int) -> np.ndarray:
    """All primes <= n by a dense odd-only sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n < 3:
        return np.array([2], dtype=np.int64)
    half = (n + 1) // 2  # index i represents 2i + 1
    comp = np.zeros(half, dtype=bool)
    comp[0] = True  # 1 is not prime
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if not comp[i]:
            p = 2 * i + 1
            comp[(p * p) // 2 :: p] = True
    odds = 2 * np.nonzero(~comp)[0] + 1
    return np.concatenate(([2], odds)).astype(np.int64)


def _segmented_sieve(n: int) -> np.ndarray:
    base = _odd_sieve(math.isqrt(n))
    out = [base]
    lo = math.isqrt(n) + 1
    base_odd = base[1:]  # skip 2; segments hold odd numbers only
    while lo <= n:
        hi = min(lo + _SEGMENT - 1, n)
        first = lo | 1  # smallest odd >= lo
        size = (hi - first) // 2 + 1
        comp = np.zeros(size, dtype=bool)
        for p in base_odd:
            p = int(p)
            start = ((first + p - 1) // p) * p
            if start % 2 == 0:
                start += p
            if start > hi:
                continue
            comp[(start - first) // 2 :: p] = True
        out.append((first + 2 * np.nonzero(~comp)[0]).astype(np.int64))
        lo = hi + 1
    return np.concatenate(out)


def primes_up_to(n: float) -> np.ndarray:
    """Sorted array of primes <= n (int64). Cached and monotone."""
    n = int(n)
    check_limit(n, "primes_up_to argument")
    global _cache_n, _cache_primes
    if n > _cache_n:
        _cache_primes = _odd_sieve(n) if n <= (1 << 25) else _segmented_sieve(n)
        _cache_n = n
    idx = np.searchsorted(_cache_primes, n, side="right")
    return _cache_primes[:idx]


def von_mangoldt_array(n: int) -> np.ndarray:
    """Lambda(k) for k = 0..n: log p at prime powers p^j, else 0."""
    check_limit(n, "von_mangoldt_array argument")
    lam = np.zeros(n + 1)
    for p in primes_up_to(n):
        p = int(p)
        logp = math.log(p)
        pk = p
        while pk <= n:
            lam[pk] = logp
            pk *= p
    return lam


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p ascending."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    for p in primes_up_to(math.isqrt(n)) if n > 3 else [2, 3]:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def multiplicative_order(a: int, n: int) -> int:
    phi = euler_phi(n)
    order = phi
    for p, _ in factorize(phi):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def primitive_root(p: int, e: int = 1) -> int:
    """Smallest primitive root mod p^e for odd prime p."""
    if p == 2:
        raise ValueError("no primitive root logic for powers of 2 here")
    pe = p**e
    phi = euler_phi(pe)
    fac = [q for q, _ in factorize(phi)]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // q, pe) != 1 for q in fac):
            return g
        g += 1


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """x mod m1*m2 with x = r1 (mod m1), x = r2 (mod m2); moduli coprime."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)
