import math

import numpy as np
import pytest

from charzero import special


def test_gauss_legendre_polynomial_exactness():
    # n nodes integrate degree 2n-1 exactly
    for n in (4, 8, 16):
        xs, ws = special.gauss_legendre_panels(0.0, 2.0, 1, n)
        for deg in range(2 * n):
            got = float(ws @ xs**deg)
            want = 2.0 ** (deg + 1) / (deg + 1)
            assert got == pytest.approx(want, rel=1e-12)


def test_gauss_legendre_panels_matches_analytic():
    xs, ws = special.gauss_legendre_panels(1.0, math.e, 6, 16)
    assert float(ws @ (1 / xs)) == pytest.approx(1.0, abs=1e-14)
    assert float(ws @ np.log(xs)) == pytest.approx(1.0, abs=1e-14)
