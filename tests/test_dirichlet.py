import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from charzero import dirichlet, sieve
from charzero.errors import DomainError


def brute_conductor(chi):
    """Smallest d | q such that chi is trivial on units congruent to 1 mod d."""
    q = chi.q
    for d in sieve.divisors(q):
        if all(
            chi.angle(n) == Fraction(0)
            for n in range(1, q + 1)
            if math.gcd(n, q) == 1 and n % d == 1 % d
        ):
            return d
    return q


def test_group_sizes():
    for q in range(1, 60):
        chars = dirichlet.enumerate_characters(q)
        assert len(chars) == sieve.euler_phi(q)
        assert len({c.conrey for c in chars}) == len(chars)


def test_primitive_counts():
    # phi-like inclusion-exclusion over conductors; spot values
    assert len(dirichlet.enumerate_characters(5, primitive_only=True)) == 3
    assert len(dirichlet.enumerate_characters(12, primitive_only=True)) == 1
    assert len(dirichlet.enumerate_characters(8, primitive_only=True)) == 2
    for q in range(1, 80):
        chars = dirichlet.enumerate_characters(q)
        prim = [c for c in chars if c.is_primitive]
        assert prim == [c for c in chars if c.conductor == q]
        # every character is induced by a primitive one mod its conductor
        for c in chars:
            assert c.conductor == brute_conductor(c)


def test_multiplicativity_exact_angles():
    rng = np.random.default_rng(20260814)
    for q in (5, 8, 12, 45, 101, 120):
        chars = dirichlet.enumerate_characters(q)
        for _ in range(40):
            chi = chars[int(rng.integers(len(chars)))]
            m = int(rng.integers(1, 4 * q))
            n = int(rng.integers(1, 4 * q))
            am, an, amn = chi.angle(m), chi.angle(n), chi.angle(m * n)
            if am is None or an is None:
                assert amn is None
            else:
                assert amn == (am + an) % 1


def test_orthogonality_exact():
    for q in range(2, 201):
        for chi in dirichlet.enumerate_characters(q):
            s = dirichlet.character_sum_exact(chi, q)
            if chi.is_principal:
                assert s.to_complex() == sieve.euler_phi(q)
            else:
                assert s.is_zero()


def test_conjugate_and_parity():
    for q in (5, 7, 12, 40):
        for chi in dirichlet.enumerate_characters(q):
            bar = chi.conjugate()
            for n in range(1, q + 1):
                a, b = chi.angle(n), bar.angle(n)
                if a is None:
                    assert b is None
                else:
                    assert (a + b) % 1 == 0
            # parity matches the sign of chi(-1)
            assert chi.angle(q - 1 if q > 1 else 1) == Fraction(chi.parity, 2) % 1


def test_order_is_minimal():
    for q in (9, 11, 24, 35):
        for chi in dirichlet.enumerate_characters(q):
            assert chi.power(chi.order).is_principal
            for d in range(1, chi.order):
                if chi.order % d == 0:
                    assert not chi.power(d).is_principal


def test_legendre_agrees():
    for q in (5, 13, 101):
        chi = dirichlet.character(q, sieve.primitive_root(q) ** 2 % q)
        # quadratic character of conductor q
        quad = [c for c in dirichlet.enumerate_characters(q) if c.order == 2]
        assert len(quad) == 1
        chi = quad[0]
        for n in range(1, q):
            assert chi(n) == pytest.approx(sieve.legendre_symbol(n, q), abs=1e-14)


def test_gauss_sum_magnitude():
    for q in (3, 4, 5, 7, 8, 11, 12, 13):
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            tau = dirichlet.gauss_sum(chi)
            assert abs(tau) == pytest.approx(math.sqrt(q), rel=1e-12)


def test_gauss_sum_chi4():
    chi = dirichlet.character(4, 3)
    assert dirichlet.gauss_sum(chi) == pytest.approx(2j, abs=1e-12)


def test_partial_sum_basics():
    chi = dirichlet.character(5, 2)  # order 4
    full = dirichlet.partial_sum(chi, 5)
    assert full.value == pytest.approx(0, abs=1e-12)
    assert dirichlet.partial_sum(chi, 1).value == pytest.approx(1, abs=1e-15)
    leg = [c for c in dirichlet.enumerate_characters(5) if c.order == 2][0]
    # 1 + chi(2) + chi(3) = 1 - 1 - 1
    assert dirichlet.partial_sum(leg, 3).value == pytest.approx(-1, abs=1e-12)


def test_partial_sum_bound_and_period():
    rng = np.random.default_rng(3)
    for q in (7, 12, 101):
        chars = dirichlet.enumerate_characters(q)
        for _ in range(20):
            chi = chars[int(rng.integers(len(chars)))]
            x = float(rng.uniform(1, 3000))
            ps = dirichlet.partial_sum(chi, x)
            assert abs(ps.value) <= x + 1e-9
            if not chi.is_principal:
                shifted = dirichlet.partial_sum(chi, x + q)
                assert shifted.value == pytest.approx(ps.value, abs=1e-9)


def test_twisted_partial_sum_zero_twist_matches():
    chi = dirichlet.character(12, 7)
    for x in (1.0, 37.5, 500.0):
        a = dirichlet.partial_sum(chi, x)
        b = dirichlet.twisted_partial_sum(chi, 0.0, x)
        assert a.value == b.value  # bit-identical route
        assert a.N == b.N


def test_twisted_partial_sum_hand_value():
    # principal chi mod 1 twisted by n^{-i} at x = 3: 1 + 2^{-i} + 3^{-i}
    chi = dirichlet.principal_character(1)
    got = dirichlet.twisted_partial_sum(chi, 1.0, 3.0)
    want = 1 + cmath.exp(-1j * math.log(2)) + cmath.exp(-1j * math.log(3))
    assert got.value == pytest.approx(want, abs=1e-14)
    assert got.phi == 1.0


def test_partial_sum_normalization():
    chi = dirichlet.character(5, 2)
    ps = dirichlet.partial_sum(chi, 30)
    if abs(ps.value) > 0:
        assert ps.N == pytest.approx(30 / abs(ps.value), rel=1e-12)


def test_value_table_matches_calls():
    # chi(n) reads the table; both must match the exact rational angle
    for q in (8, 15):
        for chi in dirichlet.enumerate_characters(q):
            table = dirichlet.value_table(chi)
            for n in range(q):
                ang = chi.angle(n)
                want = 0j if ang is None else cmath.exp(2j * cmath.pi * float(ang))
                assert table[n] == pytest.approx(want, abs=1e-14)
                assert chi(n) == table[n]


def test_real_character_tables_exact():
    real = [
        chi
        for q in range(3, 30)
        for chi in dirichlet.enumerate_characters(q, primitive_only=True)
        if chi.order == 2
    ]
    assert len(real) == 19
    for chi in real:
        table = dirichlet.value_table(chi)
        assert np.all(table.imag == 0.0)
        assert set(table.real.tolist()) <= {-1.0, 0.0, 1.0}


def test_character_errors():
    with pytest.raises(DomainError):
        dirichlet.character(10, 2)  # not coprime
    with pytest.raises(DomainError):
        dirichlet.character(0, 1)
    with pytest.raises(DomainError):
        dirichlet.character(5, 2) * dirichlet.character(7, 2)


def _invariants_by_character(chi):
    """(order, parity, conductor) of one character alone, as the package
    computed them before the group record: order as the lcm of its orders
    on the generators, parity from chi(-1), conductor as the least d | q
    with chi trivial on the units = 1 mod d."""
    g = dirichlet._group(chi.q)
    a = np.array(chi.exponents, dtype=np.int64)
    order = 1
    for aj, dj in zip(chi.exponents, (g.D // g.weights).tolist()):
        order = math.lcm(order, dj // math.gcd(dj, aj))
    nums = g.expmat @ (a * g.weights) % g.D
    parity = int(nums[-1] != 0)  # the last unit is q - 1
    conductor = next(f for f in sieve.divisors(chi.q) if np.all(nums[g.units % f == 1 % f] == 0))
    return order, parity, conductor


def test_group_invariants_match_per_character_definitions():
    for q in range(1, 201):
        chars = dirichlet.enumerate_characters(q)
        for chi in chars:
            assert (chi.order, chi.parity, chi.conductor) == _invariants_by_character(chi), chi
            assert chi.is_primitive == (chi.conductor == q)
        # primitive characters mod p^e number phi(p^e) - phi(p^(e-1))
        want = math.prod(
            sieve.euler_phi(p**e) - sieve.euler_phi(p ** (e - 1)) for p, e in sieve.factorize(q)
        ) if q > 1 else 1
        assert sum(chi.is_primitive for chi in chars) == want, q
