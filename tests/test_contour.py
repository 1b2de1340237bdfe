import numpy as np
import pytest

from charzero.contour import arg_change, track, winding_number
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


def test_rows_tracked_together():
    # three functions on one set of points: per-row totals, each as alone
    fs = [lambda z: z, lambda z: z**3, lambda z: (z - 5) * np.exp(z)]
    stacked = lambda z: np.array([f(z) for f in fs])
    assert winding_number(stacked, SQUARE) == [1, 3, 0]
    path = [1 + 0j, 1 + 1j, -1 + 1j, -1 + 0j]
    both = arg_change(stacked, path)
    assert both.shape == (3,)
    for f, total in zip(fs, both):
        assert total == pytest.approx(arg_change(f, path), abs=1e-12)


def test_failed_row_is_nan_and_others_count():
    # row 1 has a zero on the contour and row 2 a pole: neither settles
    def stacked(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.array([z, z - 1, 1 / (z - 1)])

    turns = arg_change(stacked, SQUARE + [SQUARE[0]])
    assert turns[0] == pytest.approx(2 * np.pi, abs=1e-12)
    assert np.isnan(turns[1]) and np.isnan(turns[2])
    with pytest.raises(ContourError):
        winding_number(stacked, SQUARE)


def test_refinement_evaluates_each_point_once():
    seen = []

    def f(z):
        seen.extend(z.tolist())
        return z**8

    # eight turns on a mesh of 8 points per edge: refinement must add points
    assert winding_number(f, SQUARE, points_per_unit=2.0) == 8
    edges = len(SQUARE)
    assert len(seen) > 8 * edges
    # the corners are shared by consecutive edges; nothing else repeats
    assert len(seen) - len(set(seen)) == edges


def test_first_edge_reason_wins():
    # the first edge starts on a zero and a later edge ends on a pole: the
    # error names the first edge's reason, for one function and for a row
    def f(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return z / (z - (1 + 1j))

    path = [0j, 1 + 0j, 1 + 1j]
    with pytest.raises(ContourError, match="passes through a zero"):
        arg_change(f, path)
    stacked = lambda z: np.array([f(z), z - 5])
    turns = arg_change(stacked, path)
    assert np.isnan(turns[0]) and np.isfinite(turns[1])


def test_one_call_per_refinement_round():
    sizes = []

    def counted(f):
        def g(z):
            sizes.append(len(z))
            return f(z)

        return g

    # z - 5 needs no refinement at 20 points per unit: one call holds the
    # 44-point first mesh of all four edges
    for f in (lambda z: z - 5, lambda z: np.array([z - 5, np.exp(z)])):
        sizes.clear()
        winding_number(counted(f), SQUARE)
        assert sizes == [4 * 44]
    # z^8 at 2 points per unit: each edge's 8-point mesh steps by up to
    # 2.27 in arg, so all 7 gaps of every edge are split in the first round
    # and the steps fall below pi/4 after the second: three calls in all
    for f, count in ((lambda z: z**8, 8), (lambda z: np.array([z**8, z - 5]), [8, 0])):
        sizes.clear()
        assert winding_number(counted(f), SQUARE, points_per_unit=2.0) == count
        assert len(sizes) == 3 and sizes[:2] == [4 * 8, 4 * 7]


def test_failed_row_asks_for_no_refinement():
    sizes = []

    # row 1 is z^8, which needs refinement at 2 points per unit, but it is
    # NaN on part of the last edge: once it fails it is dead on the whole
    # path, so the first mesh of 4 * 8 points is the only call
    def f(z):
        sizes.append(len(z))
        row = z**8
        row[(z.real == -1) & (-1 < z.imag) & (z.imag < 0)] = np.nan
        return np.array([z - 5, row])

    turns = arg_change(f, SQUARE + [SQUARE[0]], points_per_unit=2.0)
    assert sizes == [4 * 8]
    assert turns[0] == pytest.approx(0.0, abs=1e-12) and np.isnan(turns[1])


def test_pieces_share_one_mesh():
    sizes = []

    def f(z):
        sizes.append(len(z))
        return z

    # the two vertical edges of SQUARE as pieces: each turns z by pi/2, and
    # the jump from the first's end to the second's start (another pi/2, a
    # step of more than pi/4 at 2 points per unit) turns nothing and is
    # never refined
    pieces = [[1 - 1j, 1 + 1j], [-1 + 1j, -1 - 1j]]
    total, ends = track(f, pieces, points_per_unit=2.0)
    assert sizes == [2 * 8]
    assert total == pytest.approx(np.pi, abs=1e-12)
    assert ends.tolist() == pieces
    assert arg_change(f, pieces, points_per_unit=2.0) == total
    stacked = lambda z: np.array([z, z - 5])
    both, rows = track(stacked, pieces)
    assert both[0] == pytest.approx(np.pi, abs=1e-12)
    assert rows.shape == (2, 2, 2) and rows[1].tolist() == (np.array(pieces) - 5).tolist()
