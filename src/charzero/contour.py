"""Winding numbers along rectangle boundaries by continuous-argument tracking.

A tracked function maps an array of n points to n values, or to a (k x n)
array: k functions tracked together on the same points, refined wherever
any of them needs it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContourError

_MAX_REFINE = 24
_STEP_CAP = math.pi / 4


def _screen(vals: np.ndarray, failed: dict) -> None:
    """Record in `failed` (row -> reason) each row of vals that is not finite
    or passes within 1e-280 of zero, then set every failed row to 1 so that
    it turns no argument and asks for no refinement."""
    for reason, hit in (
        ("function not finite on the contour", ~np.isfinite(vals).all(axis=1)),
        ("contour passes through a zero", (np.abs(vals) < 1e-280).any(axis=1)),
    ):
        for i in np.nonzero(hit)[0]:
            failed.setdefault(int(i), reason)
    if failed:
        vals[list(failed)] = 1.0


def _edge_increment(func, a: complex, b: complex, init_points: int, failed: dict):
    """Argument change of each row of func along the segment a -> b, and
    whether func is 1-D.

    Inserts midpoints wherever a row's increment reaches pi/4 and evaluates
    only those.  A row still that steep after the last refinement is
    recorded in `failed`.
    """
    t = np.linspace(0.0, 1.0, max(init_points, 4))
    first = np.asarray(func(a + (b - a) * t))
    vals = first.reshape(-1, len(t)).copy()  # _screen writes to it
    _screen(vals, failed)
    for attempt in range(_MAX_REFINE):
        d = np.angle(vals[:, 1:] / vals[:, :-1])
        steep = np.abs(d) >= _STEP_CAP
        gaps = np.nonzero(steep.any(axis=0))[0]
        if not gaps.size or attempt == _MAX_REFINE - 1:
            break
        mids = 0.5 * (t[gaps] + t[gaps + 1])
        new = np.asarray(func(a + (b - a) * mids)).reshape(-1, len(mids))
        t = np.insert(t, gaps + 1, mids)
        vals = np.insert(vals, gaps + 1, new, axis=1)
        _screen(vals, failed)
    for i in np.nonzero(steep.any(axis=1))[0]:
        failed.setdefault(int(i), "argument tracking failed to settle")
    return d.sum(axis=1), first.ndim == 1


def arg_change(func, path, points_per_unit: float = 20.0):
    """Total change of arg func along the open polyline through `path`.

    func must accept a complex ndarray.  A 1-D func gives a float, and
    ContourError if its values are not finite, pass within 1e-280 of zero or
    do not settle.  A (k x n) func gives a length-k array, NaN in each row
    that fails so.
    """
    total, flat, failed = 0.0, True, {}
    for a, b in zip(path[:-1], path[1:]):
        n0 = int(math.ceil(abs(b - a) * points_per_unit)) + 4
        inc, flat = _edge_increment(func, a, b, n0, failed)
        total = total + inc
        if len(failed) == len(inc):
            break
    if flat:
        if failed:
            raise ContourError(failed[0])
        return float(np.sum(total))
    total[list(failed)] = math.nan
    return total


def whole_turns(turns: float) -> int:
    """The integer nearest a tracked turn count; raises if it drifted off
    (or is NaN: a row arg_change could not track)."""
    if math.isnan(turns):
        raise ContourError("argument not tracked along the contour")
    k = round(turns)
    if abs(turns - k) > 0.05:
        raise ContourError(f"winding drifted off an integer: {turns}")
    return int(k)


def winding_number(func, corners, points_per_unit: float = 20.0):
    """Zero count (argument principle) of an analytic func inside the closed
    polygon through `corners`.  func must accept a complex ndarray; a
    (k x n) func gives a list of k counts, and raises if any row fails.
    """
    closed = list(corners) + [corners[0]]
    turns = arg_change(func, closed, points_per_unit) / (2.0 * math.pi)
    if np.ndim(turns) == 0:
        return whole_turns(turns)
    return [whole_turns(x) for x in turns]
