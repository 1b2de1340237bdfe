import cmath
import math

import numpy as np
import pytest

from charzero import special


def test_log_gamma_real_axis():
    for x in (0.5, 1.0, 2.5, 7.0, 30.0, 150.5):
        assert special.log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13)
        assert abs(special.log_gamma(x).imag) < 1e-13


def test_log_gamma_recurrence():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        z = complex(rng.uniform(0.2, 5), rng.uniform(-40, 40))
        lhs = special.log_gamma(z + 1)
        rhs = special.log_gamma(z) + cmath.log(z)
        assert cmath.exp(lhs - rhs) == pytest.approx(1, abs=1e-12)


def test_log_gamma_reflection():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-20, 20))
        total = special.log_gamma(z) + special.log_gamma(1 - z)
        want = cmath.log(cmath.pi / cmath.sin(cmath.pi * z))
        assert cmath.exp(total - want) == pytest.approx(1, abs=1e-11)


def test_gamma_known_values():
    assert np.exp(special.log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert np.exp(special.log_gamma(5)) == pytest.approx(24, rel=1e-14)


def test_gauss_legendre_polynomial_exactness():
    # n nodes integrate degree 2n-1 exactly
    for n in (4, 8, 16):
        xs, ws = special.gauss_legendre(n, 0.0, 2.0)
        for deg in range(2 * n):
            got = float(ws @ xs**deg)
            want = 2.0 ** (deg + 1) / (deg + 1)
            assert got == pytest.approx(want, rel=1e-12)


def test_gauss_legendre_panels_matches_analytic():
    xs, ws = special.gauss_legendre_panels(1.0, math.e, 6, 16)
    assert float(ws @ (1 / xs)) == pytest.approx(1.0, abs=1e-14)
    assert float(ws @ np.log(xs)) == pytest.approx(1.0, abs=1e-14)
