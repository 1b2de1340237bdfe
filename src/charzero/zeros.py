"""Nontrivial zeros of L(s, chi): counting, locating, and the zero-sum checks.

Counting uses the completed xi along rectangle boundaries (no Gamma poles or
trivial zeros interfere inside the strip); a box symmetric about Re s = 1/2
is counted from its right half through the functional equation.  A box that
spans the strip (sigma1 <= 0, sigma2 >= 1) holds every zero of its height,
since L does not vanish on Re s >= 1 (nor, by the functional equation, xi
on Re s <= 0), so it may be counted as Rectangle(-1, 2, t1, t2): only that
box's two horizontal half edges, from 1/2 to 2, are sampled, and the edge
Re s = 2 is added in closed form from its two corners, since there
|L(s) - 1| <= zeta(2) - 1 < 1 keeps L in the right half-plane.  That path is
taken where it samples less than the box's own contour: at sigma2 = 1, on a
box taller than 2.  Counting and locating both serve the characters of one
modulus together, one xi evaluation per point for them all
(count_zeros_family, locate_zeros_family);
count_zeros and locate_zeros are the one-character cases.  Locating has one
route, "critical-line": on a box that meets Re s = 1/2, the real Hardy
function Z(t) of every character with a nonzero count is sampled in one
kernel call at the Chebyshev nodes of fixed panels along the box's piece of
the line, and each panel becomes an interpolant (halved and sampled again
where its Chebyshev tail is not small).  The interpolants' sign changes are
counted at the scan spacing, halved up to _HALVINGS times until they number
the winding count.  Then every zero is simple and on the line, and each is
solved on its interpolant by safeguarded Newton (beta = 1/2 exactly), with
no further kernel call but the one residual read at the roots.  A count the
line cannot account for is a CountMismatchError, never a second search.
Every box must lie in the evaluator's fixed window, lfunction.WINDOW.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import contour, dirichlet, multfn
from .errors import (
    ContourError,
    ConvergenceError,
    CountMismatchError,
    CoverageError,
    DomainError,
)
from .lfunction import (
    WINDOW,
    LEvaluator,
    Paired,
    _density_tail,
    _log_gamma_factor,
    family_values,
    family_xi,
)

_PERTURB = 1.37e-4
# the real part of the right edge of a strip-spanning box's count, which
# the count reads off the edge's two corners
_RIGHT = 2.0
# a line scan whose sign changes miss the winding count is repeated at half
# the spacing, at most this many times, down to 1/64 of the step asked for.
# From step 1.0, every primitive chi with q <= 50 on [0, 20] matches within
# 2 halvings; a mismatch that survives 6 costs at most 127 first scans
_HALVINGS = 6
# Z's interpolants: panels at most _PANEL long with _NODES first-kind
# Chebyshev nodes on a whole panel (a shorter panel scales the count to its
# length, but takes at least _MIN_NODES).  There, over every primitive chi
# with q <= 50 on [0, 20], the last two coefficients stay within 4.8e-15 of
# the largest, the rounding floor of Z's values (at most 1.5e-14 up to
# q = 2003 and t = 50, where halving a panel no longer lowers them).
# _TAIL_TOL sits about 100 times above that floor; a panel past it is
# halved, each half with the same node count, at most _SPLITS times
_PANEL = 4.0
_NODES = 48
_MIN_NODES = 16
_TAIL_TOL = 1e-12
_SPLITS = 4
# temporaries of the interpolants' DCT and evaluation hold at most this many
# entries, unless one panel's or one point's row needs more
_EVAL_CHUNK = 1 << 16
# Newton on an interpolant: the step or bracket width at which a root is
# settled, and the step cap past which it raises
_GAMMA_TOL = 1e-13
_NEWTON_CAP = 30
# C in the smoothed bound |L(1 - lam + it)| <= C (1/lam) exp(sum 2 lam^2/|s0 - rho|^2)
_LEMMA_C = 10.0


@dataclass(frozen=True)
class Rectangle:
    sigma1: float
    sigma2: float
    t1: float
    t2: float

    def __post_init__(self):
        if not (self.sigma1 < self.sigma2 and self.t1 < self.t2):
            raise DomainError("rectangle needs a nonempty interior")

    def expand(self, d: float) -> "Rectangle":
        return Rectangle(self.sigma1 - d, self.sigma2 + d, self.t1 - d, self.t2 + d)

    def corners(self):
        return (
            complex(self.sigma1, self.t1),
            complex(self.sigma2, self.t1),
            complex(self.sigma2, self.t2),
            complex(self.sigma1, self.t2),
        )

    def contains(self, z: complex) -> bool:
        return (
            self.sigma1 <= z.real <= self.sigma2 and self.t1 <= z.imag <= self.t2
        )


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("disk needs a positive radius")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class ZeroRecord:
    q: int
    conrey: int
    beta: float
    gamma: float
    residual: float
    method: str

    @property
    def rho(self) -> complex:
        return complex(self.beta, self.gamma)


def _require_primitive(chi: dirichlet.Character) -> None:
    if not chi.is_primitive or chi.is_principal:
        raise DomainError("zero machinery needs a primitive nonprincipal character")


def count_zeros(chi: dirichlet.Character, rect: Rectangle) -> int:
    """Winding number of xi around the rectangle: count_zeros_family for chi
    alone."""
    return count_zeros_family([chi], rect)[0]


def count_zeros_family(chars, rect: Rectangle) -> list:
    """Winding numbers of xi around the rectangle for primitive nonprincipal
    characters of one modulus, in the order given.

    Each contour point is evaluated once for all of them (lfunction.family_xi)
    and refined wherever any of them needs it.  A character whose contour is
    unusable (xi not finite or within 1e-280 of zero on it, tracking that
    does not settle, or a count that drifted off an integer) is counted again
    alone with the others on a contour perturbed outward, up to 5 times;
    then ContourError names it.

    A box symmetric about Re s = 1/2 is counted from its right half alone:
    xi(s) = eps conj(xi(1 - conj(s))) gives the left half the same argument
    change, so the winding number is the change along
    1/2 + it1 -> sigma2 + it1 -> sigma2 + it2 -> 1/2 + it2 divided by pi.

    A box with sigma1 <= 0 and sigma2 >= 1 holds the zeros of
    Rectangle(-1, 2, t1, t2): xi has none with Re s >= 1, where L(s, chi) does
    not vanish, nor with Re s <= 0, by the functional equation.  Where the
    two horizontal half edges 1/2 + it -> 2 + it of that box, 3 units in
    all, are shorter than this box's own contour (at sigma2 = 1, when
    t2 - t1 > 2), the count samples only them, as two pieces of one mesh
    (contour.track), and divides by pi as for a symmetric box.  The edge
    Re s = 2 between them is added in closed form from xi at its two
    corners, which that mesh holds (_right_edge): there
    |L - 1| <= zeta(2) - 1 < 0.65, so L stays in the right half-plane.
    """
    chars = list(chars)
    for chi in chars:
        _require_primitive(chi)
    WINDOW.validate(rect.corners())
    symmetric = rect.sigma1 + rect.sigma2 == 1.0
    height = rect.t2 - rect.t1
    # the sampled length of the box's own contour, against the strip path's
    # two half edges
    if symmetric:
        length = 2.0 * (rect.sigma2 - 0.5) + height
    else:
        length = 2.0 * (rect.sigma2 - rect.sigma1 + height)
    strip = rect.sigma1 <= 0.0 and rect.sigma2 >= 1.0 and 2.0 * (_RIGHT - 0.5) < length
    per_turn = math.pi if symmetric or strip else 2.0 * math.pi
    counts = [None] * len(chars)
    todo, why = list(range(len(chars))), {}
    for attempt in range(6):
        if not todo:
            break
        r = rect.expand(attempt * _PERTURB)
        if strip:
            path = [
                [complex(0.5, r.t1), complex(_RIGHT, r.t1)],
                [complex(_RIGHT, r.t2), complex(0.5, r.t2)],
            ]
        elif symmetric:
            path = [
                complex(0.5, r.t1),
                complex(r.sigma2, r.t1),
                complex(r.sigma2, r.t2),
                complex(0.5, r.t2),
            ]
        else:
            path = list(r.corners()) + [r.corners()[0]]
        group = [chars[i] for i in todo]
        turns, ends = contour.track(lambda s: family_xi(group, s), path)
        if strip:
            turns = turns + _right_edge(group, r.t1, r.t2, ends[:, 0, 1], ends[:, 1, 0])
        retry = []
        for i, x in zip(todo, turns / per_turn):
            try:
                counts[i] = contour.whole_turns(x)
            except ContourError as exc:
                why[i] = exc
                retry.append(i)
        todo = retry
    if todo:
        chi = chars[todo[0]]
        raise ContourError(
            f"contour unusable after 5 perturbations "
            f"(q={chi.q}, conrey={chi.conrey}): {why[todo[0]]}"
        )
    return counts


def _right_edge(chars, t1: float, t2: float, xi1, xi2) -> np.ndarray:
    """The change of arg xi along _RIGHT + it1 -> _RIGHT + it2 for each
    character of one modulus, from its xi values xi1 and xi2 at the two ends.

    xi = G L with G = (q/pi)^z Gamma(z), z = (s + a)/2.  G's argument changes
    as Im of its continuous log, lfunction._log_gamma_factor, since Re z > 0;
    and at Re s = 2, |L - 1| <= sum_{n>=2} n^-2 = zeta(2) - 1 < 0.65, so
    Re L > 0.35 and arg L changes as its principal angle L = xi / G.
    """
    s = np.array([complex(_RIGHT, t1), complex(_RIGHT, t2)])
    q = chars[0].q
    arg_g = {a: _log_gamma_factor(q, a, s).imag for a in {chi.parity for chi in chars}}
    g = np.array([arg_g[chi.parity] for chi in chars])
    arg_l = np.angle(np.stack([xi1, xi2], axis=1) * np.exp(-1j * g))
    return g[:, 1] - g[:, 0] + arg_l[:, 1] - arg_l[:, 0]


def hardy_z(chars, t):
    """Z(t) = xi(1/2 + it) eps^(-1/2), eps = tau(chi) / (i^a sqrt q), as a
    (k x points) array for k characters of one modulus, from one family_xi.

    The functional equation xi(s) = eps conj(xi(1 - conj(s))) makes Z real;
    the complex values are returned so that their rounding can be checked.
    """
    chars = list(chars)
    return _hardy_z(chars, t, _root_eps(chars))


def _hardy_z(chars, t, root_eps) -> np.ndarray:
    """hardy_z with each character's eps^(1/2) given, as _root_eps forms it."""
    s = 0.5 + 1j * np.asarray(t, dtype=np.float64)
    return family_xi(chars, s) / root_eps[:, None]


def _root_eps(chars) -> np.ndarray:
    """eps^(1/2) of each character, eps = tau(chi) / (i^a sqrt q)."""
    return np.sqrt(
        [dirichlet.gauss_sum(chi) / (1j**chi.parity * math.sqrt(chi.q)) for chi in chars]
    )


def locate_zeros(
    chi: dirichlet.Character, rect: Rectangle, spacing: float = 0.05
) -> list:
    """The zeros in the rectangle: locate_zeros_family for chi alone."""
    return _locate([chi], rect, spacing)[0]


def locate_zeros_family(chars, rect: Rectangle, spacing: float = 0.05) -> list:
    """All zeros in the rectangle of primitive nonprincipal characters of one
    modulus, one record list per character in the order given, each zero on
    the critical line and cross-checked against its winding count.

    `spacing` must be finite and positive.  A count of 0 certifies an empty
    box: that character gets [] without a scan.  On a box with
    sigma1 <= 1/2 <= sigma2, Z is sampled for every character with a nonzero
    count at once, in one kernel call at the Chebyshev nodes of fixed panels
    along the box's piece of the line, and a panel whose interpolant has not
    converged is halved and sampled again (ConvergenceError after _SPLITS
    halvings).  The interpolants' sign changes are counted at `spacing`; the
    rows whose sign changes miss their count are scanned again at half the
    spacing, at most _HALVINGS times.  Then every bracket is solved on its
    interpolant by safeguarded Newton (beta = 1/2 exactly, method
    "critical-line"), and one kernel call at the roots gives each residual
    |L(1/2 + i gamma)|.  A box with an edge on the line takes this route too,
    since its count, perturbed outward off the zeros on that edge, holds them.
    A count the line cannot account for (a multiple zero, a zero off the
    line, or a box that misses the line with a nonzero count) raises
    CountMismatchError naming the first such character: a zero is never
    dropped silently.
    """
    return _locate(chars, rect, spacing)


def _locate(chars, rect: Rectangle, spacing: float) -> list:
    if not (math.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and positive, got {spacing}")
    chars = list(chars)
    targets = count_zeros_family(chars, rect)
    located = [i for i, n in enumerate(targets) if n]
    if located and not rect.sigma1 <= 0.5 <= rect.sigma2:
        chi = chars[located[0]]
        raise CountMismatchError(
            f"winding count is {targets[located[0]]} in a box off the critical line "
            f"(q={chi.q}, conrey={chi.conrey}, rect={rect})"
        )
    records = [[] for _ in chars]
    if not located:
        return records
    # every root number once: a family larger than gauss_sum's cache would
    # evict its own sums
    family = [chars[i] for i in located]
    panels = _fit_panels(family, _root_eps(family), rect)
    found = {}  # row of family -> (a, b, Z(a), Z(b), panel of a, panel of b)
    todo = list(range(len(family)))
    for k in range(_HALVINGS + 1):
        if not todo:
            break
        n = max(1, math.ceil((rect.t2 - rect.t1) / (spacing / 2**k)))
        ts = np.linspace(rect.t1, rect.t2, n + 1)
        missed = []  # (row, sign changes) of the rows to rescan
        z_rows, at_rows = _scan(panels, todo, ts)
        for j, z, at in zip(todo, z_rows, at_rows):
            # a scan point where the interpolant is exactly 0 makes the scan a miss
            sign = np.sign(z)
            lo = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            if len(lo) == targets[located[j]] and sign.all():
                found[j] = (ts[lo], ts[lo + 1], z[lo], z[lo + 1], at[lo], at[lo + 1])
            else:
                missed.append((j, len(lo)))
        todo = [j for j, _ in missed]
    if todo:
        j, changes = missed[0]
        chi = family[j]
        raise CountMismatchError(
            f"Z changes sign {changes} times at spacing {spacing / 2**_HALVINGS!r} "
            f"but winding count is {targets[located[j]]} (q={chi.q}, "
            f"conrey={chi.conrey}, rect={rect})"
        )
    rows = np.concatenate([np.full(len(found[j][0]), j) for j in sorted(found)])
    ends = (np.concatenate(v) for v in zip(*(found[j] for j in sorted(found))))
    gammas = _solve(panels, family, rows, *ends)
    lvals, _ = family_values(Paired(family, rows), 0.5 + 1j * gammas)
    for g, r, j in zip(gammas, np.abs(lvals), rows):
        records[located[j]].append(
            ZeroRecord(
                q=family[j].q,
                conrey=family[j].conrey,
                beta=0.5,
                gamma=float(g),
                residual=float(r),
                method="critical-line",
            )
        )
    return records


# Z on the line as Chebyshev interpolants.  A panel [lo, hi] is sampled at
# the first-kind nodes t_k = mid + half cos(theta_k), theta_k = pi (k + 1/2)/m,
# and its series p(t) = sum_j c_j cos(j theta), t = mid + half cos(theta),
# takes c_j = (2/m) sum_k Z(t_k) cos(j theta_k) (c_0 halved), one DCT per
# panel as a per-panel sum over k.  Every value, coefficient and root of a
# character comes from its own samples by sums in a fixed order, so a
# family's records equal the one-character records bit for bit.


class _Panels(NamedTuple):
    """Chebyshev interpolants of Z, one per panel, sorted by row and then by
    lo; each row's panels tile the box's piece of the line."""

    row: np.ndarray  # index into the located characters
    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray  # (panels x nodes)


@lru_cache(maxsize=None)
def _chebyshev(m: int):
    """(cos theta_k, the (m x m) DCT matrix taking node values to
    coefficients) for m first-kind nodes."""
    theta = np.pi * (np.arange(m) + 0.5) / m
    dct = (2.0 / m) * np.cos(np.outer(np.arange(m), theta))
    dct[0] *= 0.5
    x = np.cos(theta)
    x.flags.writeable = dct.flags.writeable = False
    return x, dct


def _fit_panels(family, root_eps, rect: Rectangle) -> _Panels:
    """Each character's interpolants along the box's piece of the line:
    ceil(length / _PANEL) equal panels of m nodes (_NODES on a whole panel,
    at least _MIN_NODES), each panel whose last two coefficients exceed
    _TAIL_TOL of its largest halved, with m nodes per half, up to _SPLITS
    times.  One _hardy_z call per round."""
    length = rect.t2 - rect.t1
    count = math.ceil(length / _PANEL)
    m = max(_MIN_NODES, math.ceil(_NODES * length / count / _PANEL))
    edges = rect.t1 + (length / count) * np.arange(count + 1)
    edges[-1] = rect.t2
    row = np.repeat(np.arange(len(family)), count)
    lo, hi = np.tile(edges[:-1], len(family)), np.tile(edges[1:], len(family))
    done = []
    for depth in range(_SPLITS + 1):
        coef = _coefficients(family, root_eps, row, lo, hi, m)
        tail = np.abs(coef[:, -2:]).max(axis=1)
        # NaN samples fail this test too
        bad = ~(tail <= _TAIL_TOL * np.abs(coef).max(axis=1))
        done.append(_Panels(row[~bad], lo[~bad], hi[~bad], coef[~bad]))
        if not bad.any():
            break
        if depth == _SPLITS:
            i = np.flatnonzero(bad)[0]
            chi = family[row[i]]
            raise ConvergenceError(
                f"Z's interpolant on [{lo[i]!r}, {hi[i]!r}] did not converge after "
                f"{_SPLITS} halvings (q={chi.q}, conrey={chi.conrey})"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        row = np.repeat(row[bad], 2)
        lo, hi = np.stack([lo[bad], mid], 1).ravel(), np.stack([mid, hi[bad]], 1).ravel()
    parts = [np.concatenate(v) for v in zip(*done)]
    order = np.lexsort((parts[1], parts[0]))
    return _Panels(*(v[order] for v in parts))


def _coefficients(family, root_eps, row, lo, hi, m: int) -> np.ndarray:
    """(panels x m) coefficients of Z of family[row[i]] on [lo[i], hi[i]], from
    one _hardy_z call for the characters named at every panel's nodes."""
    x, dct = _chebyshev(m)
    spans, span_of = np.unique(np.stack([lo, hi], 1), axis=0, return_inverse=True)
    users, user_of = np.unique(row, return_inverse=True)
    mid, half = 0.5 * (spans[:, 0] + spans[:, 1]), 0.5 * (spans[:, 1] - spans[:, 0])
    t = (mid[:, None] + half[:, None] * x).ravel()
    z = _hardy_z([family[i] for i in users], t, root_eps[users]).real
    vals = z.reshape(len(users), len(spans), m)[user_of.ravel(), span_of.ravel()]
    coef = np.empty_like(vals)
    step = max(1, _EVAL_CHUNK // (m * m))
    for i in range(0, len(vals), step):
        coef[i : i + step] = np.sum(vals[i : i + step, None, :] * dct, axis=-1)
    return coef


def _evaluate(panels: _Panels, at: np.ndarray, t: np.ndarray, slope=False):
    """The interpolant of panel at[i] at t[i], as sum_j c_j cos(j theta) per
    point; with `slope`, also its derivative in t,
    sum_j j c_j sin(j theta) / (half sin theta)."""
    lo, hi = panels.lo[at], panels.hi[at]
    half = 0.5 * (hi - lo)
    theta = np.arccos(np.clip((t - 0.5 * (lo + hi)) / half, -1.0, 1.0))
    m = panels.coef.shape[1]
    j = np.arange(m)
    val, der = np.empty(len(t)), np.empty(len(t))
    step = max(1, _EVAL_CHUNK // m)
    for i in range(0, len(t), step):
        sl = slice(i, i + step)
        c, jt = panels.coef[at[sl]], np.multiply.outer(theta[sl], j)
        val[sl] = np.sum(c * np.cos(jt), axis=-1)
        if slope:
            der[sl] = np.sum(c * j * np.sin(jt), axis=-1)
    if not slope:
        return val
    # at theta = 0 or pi the slope is not finite, and _solve bisects instead
    with np.errstate(divide="ignore", invalid="ignore"):
        return val, der / (half * np.sin(theta))


def _scan(panels: _Panels, rows, ts):
    """((rows x len(ts)) values of each row's interpolant on the grid ts,
    the panel index behind each value); ts runs from the box's t1 to t2."""
    pick = np.flatnonzero(np.isin(panels.row, rows))
    lo, hi = panels.lo[pick], panels.hi[pick]
    first = np.searchsorted(ts, lo)
    # a row's last panel ends at ts[-1] and takes that point too
    stop = np.where(hi == ts[-1], len(ts), np.searchsorted(ts, hi))
    size = stop - first
    at = np.repeat(pick, size)
    point = np.arange(len(at)) - np.repeat(np.cumsum(size) - size - first, size)
    vals = _evaluate(panels, at, ts[point])
    return vals.reshape(len(rows), len(ts)), at.reshape(len(rows), len(ts))


def _solve(panels: _Panels, family, rows, a, b, za, zb, pa, pb) -> np.ndarray:
    """The root of each row's interpolant in its bracket [a_i, b_i], where the
    values za and zb differ in sign (float arrays, updated in place) and come
    from panels pa and pb: safeguarded Newton in one panel, every bracket at
    once.

    A bracket that spans panels first shrinks to the one panel its sign
    change lies in.  Each step keeps the bracket and takes the Newton point,
    or the midpoint when that leaves the bracket; a root is settled once a
    step or the bracket is at most _GAMMA_TOL, or the interpolant vanishes.
    """
    while np.any(span := pa != pb):
        i = np.flatnonzero(span)
        e, nxt = panels.hi[pa[i]], pa[i] + 1
        ze = _evaluate(panels, nxt, e)
        right = np.sign(ze) == np.sign(za[i])
        r, left = i[right], i[~right]
        a[r], za[r], pa[r] = e[right], ze[right], nxt[right]
        b[left] = e[~right]
        zb[left] = _evaluate(panels, pa[left], b[left])
        pb[left] = pa[left]
    # a sign change that rounding moved onto a panel's end is settled there
    t = np.where(np.abs(za) <= np.abs(zb), a, b)
    live = np.flatnonzero(np.sign(za) != np.sign(zb))
    t[live] = b[live] - zb[live] * (b[live] - a[live]) / (zb[live] - za[live])
    for _ in range(_NEWTON_CAP):
        if not live.size:
            return t
        tl, al, bl = t[live], a[live], b[live]
        z, dz = _evaluate(panels, pa[live], tl, slope=True)
        to_a = np.sign(z) == np.sign(za[live])
        al, bl = np.where(to_a, tl, al), np.where(to_a, bl, tl)
        a[live], b[live] = al, bl
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = tl - z / dz
        close = np.isfinite(dz) & (np.abs(newton - tl) <= _GAMMA_TOL)
        # a long step that leaves the open bracket, or is not finite, bisects
        inside = close | ((al < newton) & (newton < bl))
        t[live] = np.where(z == 0, tl, np.where(inside, newton, 0.5 * (al + bl)))
        live = live[~((z == 0) | close | (bl - al <= _GAMMA_TOL))]
    chi = family[rows[live[0]]]
    raise ConvergenceError(
        f"Newton on Z's interpolant did not settle in {_NEWTON_CAP} steps "
        f"(q={chi.q}, conrey={chi.conrey})"
    )


# ---------------------------------------------------------------------------
# zero-sum identities


@dataclass(frozen=True)
class HadamardReport:
    lhs: float
    rhs: float
    log_gap: float
    lemma_value: float
    lemma_bound: float
    lemma_ok: bool
    tail_log_bound: float
    T_cover: float


def hadamard_ratio_check(
    chi: dirichlet.Character,
    lam: float,
    t: float,
    zeros,
    T_cover: float,
) -> HadamardReport:
    """|L(1-lam+it)/L(1+lam+it)| against (q(1+|t|))^lam prod |s1-rho|/|s0-rho|.

    Also evaluates the smoothed bound (1/lam) exp(sum 2 lam^2/|s0-rho|^2) and
    checks |L(s1)| <= C times it, C = _LEMMA_C.
    """
    _require_primitive(chi)
    if not (0 < lam <= 0.5):
        raise DomainError("lam must lie in (0, 1/2]")
    if T_cover < abs(t) + 20:
        raise CoverageError("zeros must be supplied to height |t| + 20")
    zeros = list(zeros)  # read twice: the product and the quadratic sum
    ev = LEvaluator(chi)
    s0 = 1.0 + lam + 1j * t
    s1 = 1.0 - lam + 1j * t
    L0, _ = ev.values(s0)
    L1, _ = ev.values(s1)
    lhs = abs(L1) / abs(L0)
    log_prod = math.fsum(
        math.log(abs(s1 - r.rho)) - math.log(abs(s0 - r.rho)) for r in zeros
    )
    rhs = (chi.q * (1.0 + abs(t))) ** lam * math.exp(log_prod)
    # far zeros: |log(|s1-rho|/|s0-rho|)| <= 2 lam/(gamma-t)^2 against density
    tail = 4.0 * lam * _density_tail(chi.q, abs(t), T_cover)
    quad = math.fsum(2.0 * lam * lam / abs(s0 - r.rho) ** 2 for r in zeros)
    quad_tail = 4.0 * lam * lam * _density_tail(chi.q, abs(t), T_cover)
    lemma_bound = (1.0 / lam) * math.exp(quad + quad_tail)
    return HadamardReport(
        lhs=lhs,
        rhs=rhs,
        log_gap=abs(math.log(lhs) - math.log(rhs)),
        lemma_value=abs(L1),
        lemma_bound=lemma_bound,
        lemma_ok=abs(L1) <= _LEMMA_C * lemma_bound,
        tail_log_bound=tail,
        T_cover=T_cover,
    )


def zero_sum_functional(
    chi: dirichlet.Character,
    lam: float,
    phi: float,
    xi_shift: float,
    zeros,
    T_cover: float | None = None,
) -> float:
    """sum over zeros of lam/|1+lam+i phi+i xi - rho|^2, plus a density tail
    when a coverage height is supplied."""
    if lam <= 0:
        raise DomainError("needs lam > 0")
    s = 1.0 + lam + 1j * (phi + xi_shift)
    total = math.fsum(lam / abs(s - r.rho) ** 2 for r in zeros)
    if T_cover is not None:
        if T_cover <= 0:
            raise CoverageError("T_cover must be positive when supplied")
        total += 2.0 * lam * _density_tail(chi.q, abs(phi + xi_shift), T_cover)
    return total


# ---------------------------------------------------------------------------
# disk counts


@dataclass(frozen=True)
class DiskAuditReport:
    q: int
    conrey: int
    x: float
    L_param: float
    N: float | None
    phi: float
    disk: Disk
    count: int
    threshold_360: float
    threshold_400: float
    x_range_ok: bool
    N_ok: bool
    L_ok: bool
    vacuous: bool
    conclusion_ok: bool | None


def disk_count_audit(
    chi: dirichlet.Character, x: float, L_param: float, abs_c: float = 1.0
) -> DiskAuditReport:
    """Count zeros in the disk |s - (1+i phi)| < L log q/(log x)^2 and report
    it against the L/360 and L/400 thresholds with hypothesis flags.

    At desk scale the hypotheses are typically unsatisfiable; the report says
    so (vacuous) instead of claiming the theorem's conclusion.
    """
    _require_primitive(chi)
    if not (math.isfinite(x) and math.isfinite(L_param)):
        raise DomainError(f"the disk audit needs finite x and L, got x = {x}, L = {L_param}")
    if x <= 1:
        raise DomainError("need x > 1")
    logx = math.log(x)
    S = dirichlet.partial_sum(chi, x)
    # S = 0 has no finite N: every N hypothesis fails, and the report says null
    N = S.N if S.N is not None else math.inf
    data = multfn.find_phi_and_M(multfn.CharacterFunction(chi), x)
    phi = data.phi
    radius = L_param * math.log(chi.q) / logx**2
    disk = Disk(center=complex(1.0, phi), radius=radius)
    lo = max(1e-4, 1.0 - radius)
    if lo >= 1.0 or radius <= 1e-9:
        count = 0
    else:
        rect = Rectangle(lo, 1.0, phi - radius, phi + radius)
        inside = [r for r in locate_zeros(chi, rect) if disk.contains(r.rho)]
        count = len(inside)
    x_range_ok = math.exp(math.sqrt(math.log(chi.q))) <= x <= math.sqrt(chi.q)
    N_ok = 1.0 <= N <= logx ** (1.0 / 100.0)
    L_ok = (logx / 2.0 >= L_param) and (L_param >= abs_c * N**6)
    vacuous = not (x_range_ok and N_ok and L_ok)
    conclusion = None if vacuous else count >= L_param / 360.0
    return DiskAuditReport(
        q=chi.q,
        conrey=chi.conrey,
        x=float(x),
        L_param=float(L_param),
        N=S.N,
        phi=phi,
        disk=disk,
        count=count,
        threshold_360=L_param / 360.0,
        threshold_400=L_param / 400.0,
        x_range_ok=x_range_ok,
        N_ok=N_ok,
        L_ok=L_ok,
        vacuous=vacuous,
        conclusion_ok=conclusion,
    )
