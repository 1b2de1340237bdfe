import numpy as np
import pytest

from charzero.contour import arg_change, winding_number
from charzero.errors import ContourError

SQUARE = [-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j]


def test_simple_zero():
    assert winding_number(lambda z: z, SQUARE) == 1


def test_no_zero():
    assert winding_number(lambda z: z - 5, SQUARE) == 0


def test_multiplicity():
    assert winding_number(lambda z: z**3, SQUARE) == 3
    assert winding_number(lambda z: (z - 0.5) * (z + 0.5j), SQUARE) == 2


def test_pole_counts_negative():
    assert winding_number(lambda z: 1 / z, SQUARE) == -1


def test_resolution_invariance():
    f = lambda z: (z - 0.9) * (z + 0.9) * (z - 0.9j)
    counts = {winding_number(f, SQUARE, points_per_unit=p) for p in (20, 40, 80)}
    assert counts == {3}


def test_entire_nonvanishing():
    assert winding_number(np.exp, SQUARE) == 0


def test_zero_on_contour_raises():
    with pytest.raises(ContourError):
        winding_number(lambda z: z - 1, SQUARE)


def test_open_path_arg_change():
    # z turns through half a revolution from 1 to -1 over the upper half plane
    path = [1 + 0j, 1 + 1j, -1 + 1j, -1 + 0j]
    assert arg_change(lambda z: z, path) == pytest.approx(np.pi, abs=1e-12)
    assert arg_change(lambda z: z, path[::-1]) == pytest.approx(-np.pi, abs=1e-12)
