"""Winding numbers along rectangle boundaries by continuous-argument tracking."""
from __future__ import annotations

import math

import numpy as np

from .errors import ContourError

_MAX_REFINE = 24
_STEP_CAP = math.pi / 4


def _check(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise ContourError("function not finite on the contour")
    if np.any(np.abs(vals) < 1e-280):
        raise ContourError("contour passes through a zero")


def _edge_increment(func, a: complex, b: complex, init_points: int) -> float:
    """Total argument change of func along the segment a -> b.

    Refines by midpoint insertion until every increment is below pi/4.
    """
    t = np.linspace(0.0, 1.0, max(init_points, 4))
    vals = func(a + (b - a) * t)
    _check(vals)
    for _ in range(_MAX_REFINE):
        d = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(d) >= _STEP_CAP
        if not bad.any():
            return float(np.sum(d))
        mids = 0.5 * (t[:-1][bad] + t[1:][bad])
        t = np.sort(np.concatenate([t, mids]))
        vals = func(a + (b - a) * t)
        _check(vals)
    raise ContourError("argument tracking failed to settle")


def arg_change(func, path, points_per_unit: float = 20.0) -> float:
    """Total change of arg func along the open polyline through `path`.

    func must accept a complex ndarray.
    """
    total = 0.0
    for a, b in zip(path[:-1], path[1:]):
        n0 = int(math.ceil(abs(b - a) * points_per_unit)) + 4
        total += _edge_increment(func, a, b, n0)
    return total


def whole_turns(turns: float) -> int:
    """The integer nearest a tracked turn count; raises if it drifted off."""
    k = round(turns)
    if abs(turns - k) > 0.05:
        raise ContourError(f"winding drifted off an integer: {turns}")
    return int(k)


def winding_number(func, corners, points_per_unit: float = 20.0) -> int:
    """Zero count (argument principle) of an analytic func inside the closed
    polygon through `corners`.  func must accept a complex ndarray.
    """
    closed = list(corners) + [corners[0]]
    return whole_turns(arg_change(func, closed, points_per_unit) / (2.0 * math.pi))
