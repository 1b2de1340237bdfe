import math

import numpy as np
import pytest

from charzero import spectral
from charzero.errors import ContourError, DomainError


def test_h_at_zero():
    assert spectral.h_eval(0.0) == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-15)


def test_h_at_minus_one():
    assert spectral.h_eval(-1.0) == pytest.approx(1.21089303895523, abs=1e-11)


def test_h_conjugate_symmetry():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        z = complex(rng.uniform(-8, 4), rng.uniform(0, 40))
        assert spectral.h_eval(z.conjugate()) == pytest.approx(
            complex(spectral.h_eval(z)).conjugate(), rel=1e-12, abs=1e-13
        )


def test_h_production_matches_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        a = complex(spectral.h_eval(z))
        b = spectral.h_series_oracle(z)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_h_vector_matches_scalar():
    zs = np.array([0.1 + 0.2j, -3 + 30j, -1.0, 2.0 + 0j, -5 + 70j])
    vec = spectral.h_eval(zs)
    for z, v in zip(zs, vec):
        assert v == pytest.approx(complex(spectral.h_eval(complex(z))), rel=1e-13)


def test_h_matches_mpmath_e1_across_strips():
    # H = (2/z)(1/2 - E1(az) + E1(z)) at 30 digits, over the boxes whose
    # winding numbers find_h_zeros counts and where its Newton steps land
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    with mpmath.workdps(30):
        a = mpmath.exp(-0.5)
        for _ in range(180):
            k = int(rng.integers(1, 201))
            re_lo = -math.log(math.pi * k) - 3.0
            z = complex(
                rng.uniform(re_lo, 1.0),
                rng.uniform(2 * math.pi * k - math.pi, 2 * math.pi * k + math.pi),
            )
            zm = mpmath.mpc(z.real, z.imag)
            ref = complex(2 / zm * (0.5 - mpmath.e1(a * zm) + mpmath.e1(zm)))
            got = spectral.h_eval(z)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (k, z)


def test_find_zeros_residuals_and_strips():
    zs = spectral.find_h_zeros(20)
    assert [z.k for z in zs] == list(range(1, 21))
    for rec in zs:
        assert abs(spectral.h_eval(rec.z)) <= 1e-10
        assert rec.residual <= 1e-10
        assert rec.z.real < 0
        lo, hi = 2 * math.pi * rec.k - math.pi, 2 * math.pi * rec.k + math.pi
        assert lo < rec.z.imag < hi
        # conjugate zero pairs with it
        assert abs(spectral.h_eval(rec.z.conjugate())) <= 1e-10


def test_first_zero_frozen():
    z1 = spectral.find_h_zeros(1)[0]
    assert z1.z == pytest.approx(
        -0.5651399964350501 + 7.930227356935015j, abs=1e-9
    )
    assert z1.asymptotic_gap == pytest.approx(0.5845834843554107, abs=1e-6)


def test_seed_gap_definition():
    zs = spectral.find_h_zeros(5)
    for rec in zs:
        assert rec.asymptotic_gap == pytest.approx(
            abs(rec.z - spectral.asymptotic_seed(rec.k)), abs=1e-12
        )


def test_gap_envelope_decreasing_band():
    zs = spectral.find_h_zeros(50)
    gap5 = zs[4].asymptotic_gap
    for rec in zs[19:]:
        assert rec.asymptotic_gap <= gap5


def test_find_zeros_count_validation():
    with pytest.raises(DomainError):
        spectral.find_h_zeros(0)
    with pytest.raises(DomainError):
        spectral.find_h_zeros(201)


def test_failed_newton_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_newton_k", lambda z0, k: None)
    with pytest.raises(ContourError, match="no zero found in strip 1"):
        spectral.find_h_zeros(1)


def test_delta_constants():
    c = spectral.delta_constants()
    assert c.delta0 == pytest.approx(0.1715004931415361, abs=1e-13)
    assert c.delta1 == pytest.approx(-0.6569990137169278, abs=1e-13)
    assert c.integral == pytest.approx(0.07278873866082139, abs=1e-13)
    assert c.delta1 - (2 * c.delta0 - 1) == 0.0
    assert 0 < c.quad_error < 1e-10


def test_delta_quadrature_error_honest():
    # quad_error and the delta bounds of delta_constants' docstring hold
    # against an independent quadrature at 30 digits
    mpmath = pytest.importorskip("mpmath")
    c = spectral.delta_constants()
    u = 2.0**-53
    with mpmath.workdps(30):
        i_mp = mpmath.quad(lambda t: mpmath.log(t) / (t + 1), [1, mpmath.sqrt(mpmath.e)])
        delta0_mp = 1 - mpmath.log(1 + mpmath.sqrt(mpmath.e)) + 2 * i_mp
        delta1_mp = 2 * delta0_mp - 1
        assert abs(c.integral - i_mp) <= c.quad_error
        assert abs(c.delta0 - delta0_mp) <= 2 * c.quad_error + u * abs(c.delta0)
        assert abs(c.delta1 - delta1_mp) <= 4 * c.quad_error + u * (
            2 * abs(c.delta0) + abs(c.delta1)
        )
    assert c.quad_error < 1e-14


def test_bounds_values():
    assert spectral.mean_value_upper_bound(1.0) == pytest.approx(
        0.6569990137169278, abs=1e-13
    )
    assert spectral.nonresidue_density_lower_bound(1.0) == pytest.approx(
        0.1715004931415361, abs=1e-13
    )
    assert spectral.nonresidue_density_lower_bound(math.exp(-0.5)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert spectral.nonresidue_density_lower_bound(0.75) == pytest.approx(
        0.1672390251898483, abs=1e-12
    )


def test_bounds_domain():
    for bad in (0.0, 0.5, 1.2):
        with pytest.raises(DomainError):
            spectral.mean_value_upper_bound(bad)
        with pytest.raises(DomainError):
            spectral.nonresidue_density_lower_bound(bad)


def test_bound_shapes():
    # the mean-value bound grows once alpha leaves 1; the density bound shrinks
    us = np.linspace(math.exp(-0.5) + 1e-9, 1.0, 30)
    dens = [spectral.nonresidue_density_lower_bound(float(u)) for u in us]
    assert all(b >= a - 1e-12 for a, b in zip(dens, dens[1:]))
    ms = [spectral.mean_value_upper_bound(float(u)) for u in us]
    assert all(m >= abs(spectral.delta_constants().delta1) - 1e-12 or m >= 0.5 for m in ms)
