"""Winding numbers along rectangle boundaries by continuous-argument tracking.

A tracked function maps an array of n points to n values, or to a (k x n)
array: k functions tracked together on the same points, refined wherever
any of them needs it.  It is called once for the first mesh of every edge of
a path and once per refinement round for the new points of every edge, so a
closed count costs 1 + (refinement rounds) calls.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContourError

_MAX_REFINE = 24
_STEP_CAP = math.pi / 4


def _evaluate(func, pieces):
    """func at every array of points in `pieces`, from one call: a list of
    (rows x len(piece)) arrays, one per piece, and whether func is 1-D."""
    out = np.asarray(func(np.concatenate(pieces)))
    vals = out.reshape(-1, out.shape[-1]).copy()  # _screen writes to it
    cuts = np.cumsum([len(p) for p in pieces[:-1]])
    return np.split(vals, cuts, axis=1), out.ndim == 1


def _screen(vals: list, fails: list, edges) -> None:
    """Record in fails[e] (row -> reason), for each edge e in `edges`, each
    row of vals[e] that is not finite or passes within 1e-280 of zero.  Then
    set to 1, on every edge, each row that failed on it or an earlier edge,
    so that it turns no argument and asks for no refinement there."""
    for e in edges:
        for reason, hit in (
            ("function not finite on the contour", ~np.isfinite(vals[e]).all(axis=1)),
            ("contour passes through a zero", (np.abs(vals[e]) < 1e-280).any(axis=1)),
        ):
            for i in np.nonzero(hit)[0]:
                fails[e].setdefault(int(i), reason)
    seen = set()
    for v, failed in zip(vals, fails):
        seen.update(failed)
        if seen:
            v[list(seen)] = 1.0


def arg_change(func, path, points_per_unit: float = 20.0):
    """Total change of arg func along the open polyline through `path`.

    func must accept a complex ndarray.  A 1-D func gives a float, and
    ContourError if its values are not finite, pass within 1e-280 of zero or
    do not settle.  A (k x n) func gives a length-k array, NaN in each row
    that fails so; a row that fails on several edges is reported by the
    first of them.

    One call of func evaluates the first mesh of every edge, and each
    refinement round one more: the midpoints of every gap in which some row
    still steps by pi/4 or more, on every edge at once.  A row still that
    steep after the last round fails.
    """
    ends = list(zip(path[:-1], path[1:]))

    def points(e, t):
        a, b = ends[e]
        return a + (b - a) * t

    ts = [
        np.linspace(0.0, 1.0, int(math.ceil(abs(b - a) * points_per_unit)) + 4)
        for a, b in ends
    ]
    vals, flat = _evaluate(func, [points(e, t) for e, t in enumerate(ts)])
    fails = [{} for _ in ends]
    _screen(vals, fails, range(len(ends)))
    d, steep = [None] * len(ends), [None] * len(ends)
    todo = range(len(ends))  # the edges whose values changed
    for attempt in range(_MAX_REFINE):
        gaps = {}
        for e in todo:
            d[e] = np.angle(vals[e][:, 1:] / vals[e][:, :-1])
            steep[e] = np.abs(d[e]) >= _STEP_CAP
            g = np.nonzero(steep[e].any(axis=0))[0]
            if g.size:
                gaps[e] = g
        if not gaps or attempt == _MAX_REFINE - 1:
            break
        mids = {e: 0.5 * (ts[e][g] + ts[e][g + 1]) for e, g in gaps.items()}
        new, _ = _evaluate(func, [points(e, m) for e, m in mids.items()])
        for (e, g), v in zip(gaps.items(), new):
            ts[e] = np.insert(ts[e], g + 1, mids[e])
            vals[e] = np.insert(vals[e], g + 1, v, axis=1)
        _screen(vals, fails, gaps)
        todo = list(gaps)
    total, failed = 0.0, {}
    for e in range(len(ends)):
        for i in np.nonzero(steep[e].any(axis=1))[0]:
            fails[e].setdefault(int(i), "argument tracking failed to settle")
        for i, reason in fails[e].items():
            failed.setdefault(i, reason)
        total = total + d[e].sum(axis=1)
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
