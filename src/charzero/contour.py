"""Winding numbers along polygon boundaries by continuous-argument tracking.

A tracked function maps an array of n points to n values, or to a (k x n)
array: k functions tracked together on the same points, refined wherever
any of them needs it.  A path is one open polyline or several (pieces);
track keeps one mesh for all of them (each point's edge and parameter t on
it, and one value array) and calls the function once for the first mesh and
once per refinement round, so a closed count costs 1 + (refinement rounds)
calls.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContourError

_MAX_REFINE = 24
_STEP_CAP = math.pi / 4


def arg_change(func, path, points_per_unit: float = 20.0):
    """Total change of arg func along the open polyline through `path`, or
    along several pieces: the total of track."""
    return track(func, path, points_per_unit)[0]


def track(func, path, points_per_unit: float = 20.0):
    """(total change of arg func along `path`, func's values at each piece's
    first and last point).

    `path` is one open polyline (a sequence of points) or a list of them,
    tracked on one mesh; the gap from one piece's last point to the next
    piece's first turns no argument and is never refined.  func must accept
    a complex ndarray.  A 1-D func gives a float and (pieces x 2) end values,
    and ContourError if its values are not finite, pass within 1e-280 of
    zero or do not settle.  A (k x n) func gives a length-k array, NaN in
    each row that fails so, and (k x pieces x 2) end values; a row is
    reported by its first failure along the path and is then set to 1 on the
    whole path, so that it turns no argument and asks for no refinement.

    Each edge keeps both of its ends, so a corner is evaluated twice and the
    zero-length gap between its copies turns no argument.  Each refinement
    round evaluates, in one call of func, the midpoints of every gap of the
    mesh in which some row still steps by pi/4 or more.  A row still that
    steep after the last round fails.
    """
    pieces = [path] if np.ndim(path[0]) == 0 else path
    a, b, opens = [], [], []  # each edge's ends; each piece's first edge
    for p in pieces:
        opens.append(len(a))
        a += list(p[:-1])
        b += list(p[1:])
    a = np.array(a, dtype=complex)
    ab = np.array(b, dtype=complex) - a
    sizes = [int(math.ceil(abs(x) * points_per_unit)) + 4 for x in ab]
    edge = np.repeat(np.arange(len(sizes)), sizes)
    t = np.concatenate([np.linspace(0.0, 1.0, n) for n in sizes])
    out = np.asarray(func(a[edge] + ab[edge] * t))
    vals = out.reshape(-1, out.shape[-1]).copy()  # failed rows are overwritten
    failed = {}
    for attempt in range(_MAX_REFINE):
        not_finite = ~np.isfinite(vals)
        bad = not_finite | (np.abs(vals) < 1e-280)
        rows = np.nonzero(bad.any(axis=1))[0]
        for i, first in zip(rows, bad[rows].argmax(axis=1)):
            failed[int(i)] = (
                "function not finite on the contour"
                if not_finite[i, first]
                else "contour passes through a zero"
            )
        vals[rows] = 1.0
        d = np.angle(vals[:, 1:] / vals[:, :-1])
        if len(opens) > 1:
            d[:, np.searchsorted(edge, opens[1:]) - 1] = 0.0
        steep = np.abs(d) >= _STEP_CAP
        g = np.nonzero(steep.any(axis=0))[0]
        if not g.size or attempt == _MAX_REFINE - 1:
            break
        mid = 0.5 * (t[g] + t[g + 1])
        new = np.asarray(func(a[edge[g]] + ab[edge[g]] * mid))
        t, edge = np.insert(t, g + 1, mid), np.insert(edge, g + 1, edge[g])
        vals = np.insert(vals, g + 1, new.reshape(len(vals), -1), axis=1)
    for i in np.nonzero(steep.any(axis=1))[0]:
        failed[int(i)] = "argument tracking failed to settle"
    total = d.sum(axis=1)
    cuts = np.searchsorted(edge, opens + [len(ab)])
    ends = vals[:, np.stack([cuts[:-1], cuts[1:] - 1], 1)]
    if out.ndim == 1:
        if failed:
            raise ContourError(failed[0])
        return float(total[0]), ends[0]
    total[list(failed)] = math.nan
    return total, ends


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
