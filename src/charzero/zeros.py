"""Nontrivial zeros of L(s, chi): counting, locating, and the zero-sum checks.

Counting uses the completed xi along rectangle boundaries (no Gamma poles or
trivial zeros interfere inside the strip); a box symmetric about Re s = 1/2
is counted from its right half through the functional equation.  Counting
and locating both serve the characters of one modulus together, one xi
evaluation per point for them all (count_zeros_family, locate_zeros_family);
count_zeros and locate_zeros are the one-character cases.  Locating has one
route, "critical-line": on a box that meets Re s = 1/2, the sign changes of
the real Hardy function Z(t) are counted at the scan spacing, halved up to
_HALVINGS times until they number the winding count.  Then every zero is
simple and on the line, and each is refined on the line by a bracketing
root finder (beta = 1/2 exactly).  A count the line cannot account for is a
CountMismatchError, never a second search.  Every box must lie in the
evaluator's fixed window, lfunction.WINDOW.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    _density_tail,
    _paired_xi,
    family_values,
    family_xi,
)

_PERTURB = 1.37e-4
# a line scan whose sign changes miss the winding count is repeated at half
# the spacing, at most this many times, down to 1/64 of the step asked for.
# From step 1.0, every primitive chi with q <= 50 on [0, 20] matches within
# 2 halvings; a mismatch that survives 6 costs at most 127 first scans
_HALVINGS = 6
# the critical-line root finder: bracket width at which a root is settled,
# and the step cap past which it raises
_GAMMA_TOL = 1e-13
_FINDER_CAP = 60
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
    """
    chars = list(chars)
    for chi in chars:
        _require_primitive(chi)
    WINDOW.validate(rect.corners())
    symmetric = rect.sigma1 + rect.sigma2 == 1.0
    counts = [None] * len(chars)
    todo, why = list(range(len(chars))), {}
    for attempt in range(6):
        if not todo:
            break
        r = rect.expand(attempt * _PERTURB)
        if symmetric:
            path = [
                complex(0.5, r.t1),
                complex(r.sigma2, r.t1),
                complex(r.sigma2, r.t2),
                complex(0.5, r.t2),
            ]
        else:
            path = list(r.corners()) + [r.corners()[0]]
        group = [chars[i] for i in todo]
        turns = contour.arg_change(lambda s: family_xi(group, s), path)
        retry = []
        for i, x in zip(todo, turns / (math.pi if symmetric else 2.0 * math.pi)):
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


def _refine_on_line(chars, root_eps, rows, a, b, za, zb):
    """Roots of the real Z in the brackets [a_i, b_i] of chars[rows_i], za and
    zb of opposite signs (float arrays, updated in place), by the Illinois
    method; root_eps holds each character's eps^(1/2), as _root_eps forms
    it.  One kernel pass per step serves every bracket, and each bracket's
    point is contracted with its own character alone (lfunction._paired_xi);
    Z there equals hardy_z's value bit for bit.

    A bracket stops once it is at most _GAMMA_TOL wide or Z vanishes at its
    new point; each root is the end with the smaller |Z|.
    """
    kept = np.zeros(len(a), dtype=int)  # end kept last step: -1 a, +1 b, 0 none
    for _ in range(_FINDER_CAP):
        live = np.nonzero(b - a > _GAMMA_TOL)[0]
        if not live.size:
            return np.where(np.abs(za) <= np.abs(zb), a, b)
        al, bl, zal, zbl = a[live], b[live], za[live], zb[live]
        c = bl - zbl * (bl - al) / (zbl - zal)
        # step at least half the tolerance in from each end, so a root sitting
        # at an end closes its bracket on the next step
        c = np.clip(c, al + 0.5 * _GAMMA_TOL, bl - 0.5 * _GAMMA_TOL)
        pick = rows[live]
        zc = (_paired_xi(chars, pick, 0.5 + 1j * c) / root_eps[pick]).real
        hit = zc == 0
        a[live[hit]] = b[live[hit]] = c[hit]
        # replace the end whose sign zc shares; halve the other end's value
        # when it was kept twice running, so both ends keep moving
        to_a = ~hit & (np.sign(zc) == np.sign(zal))
        to_b = ~hit & ~to_a
        ia, ib = live[to_a], live[to_b]
        a[ia], za[ia] = c[to_a], zc[to_a]
        b[ib], zb[ib] = c[to_b], zc[to_b]
        zb[ia[kept[ia] == 1]] *= 0.5
        za[ib[kept[ib] == -1]] *= 0.5
        kept[ia], kept[ib] = 1, -1
    chi = chars[rows[live[0]]]
    raise ConvergenceError(
        f"critical-line root finder did not settle in {_FINDER_CAP} steps "
        f"(q={chi.q}, conrey={chi.conrey})"
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
    sigma1 <= 1/2 <= sigma2, Z is scanned at `spacing` along the box's piece
    of the line for every character with a nonzero count at once; the rows
    whose sign changes miss their count are scanned again at half the
    spacing, at most _HALVINGS times.  Then all the brackets are refined
    together (beta = 1/2 exactly, method "critical-line").  A box with an
    edge on the line takes this route too, since its count, perturbed
    outward off the zeros on that edge, holds them.  A count the line cannot
    account for (a multiple zero, a zero off the line, or a box that misses
    the line with a nonzero count) raises CountMismatchError naming the
    first such character: a zero is never dropped silently.
    """
    return _locate(chars, rect, spacing)


def _locate(chars, rect: Rectangle, spacing: float) -> list:
    if not (math.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and positive, got {spacing}")
    chars = list(chars)
    targets = count_zeros_family(chars, rect)
    todo = [i for i, n in enumerate(targets) if n]
    if todo and not rect.sigma1 <= 0.5 <= rect.sigma2:
        chi = chars[todo[0]]
        raise CountMismatchError(
            f"winding count is {targets[todo[0]]} in a box off the critical line "
            f"(q={chi.q}, conrey={chi.conrey}, rect={rect})"
        )
    # every root number once, for the characters the line scan and the finder
    # both use: a family larger than gauss_sum's cache would evict its own
    root_eps = np.ones(len(chars), dtype=np.complex128)
    root_eps[todo] = _root_eps([chars[i] for i in todo])
    found = {}  # character index -> (a, b, Z(a), Z(b)) of its brackets
    for k in range(_HALVINGS + 1):
        if not todo:
            break
        n = max(1, math.ceil((rect.t2 - rect.t1) / (spacing / 2**k)))
        ts = np.linspace(rect.t1, rect.t2, n + 1)
        missed = []  # (character index, sign changes) of the rows to rescan
        z_rows = _hardy_z([chars[i] for i in todo], ts, root_eps[todo]).real
        for i, z in zip(todo, z_rows):
            # a scan point where Z is exactly 0 makes the scan a miss
            sign = np.sign(z)
            lo = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            if len(lo) == targets[i] and sign.all():
                found[i] = (ts[lo], ts[lo + 1], z[lo], z[lo + 1])
            else:
                missed.append((i, len(lo)))
        todo = [i for i, _ in missed]
    if todo:
        i, changes = missed[0]
        chi = chars[i]
        raise CountMismatchError(
            f"Z changes sign {changes} times at spacing {spacing / 2**_HALVINGS!r} "
            f"but winding count is {targets[i]} (q={chi.q}, conrey={chi.conrey}, "
            f"rect={rect})"
        )
    records = [[] for _ in chars]
    if not found:
        return records
    located = sorted(found)
    family = [chars[i] for i in located]
    rows = np.concatenate([np.full(len(found[i][0]), j) for j, i in enumerate(located)])
    ends = (np.concatenate(v) for v in zip(*(found[i] for i in located)))
    gammas = _refine_on_line(family, root_eps[located], rows, *ends)
    lvals, _ = family_values(family, 0.5 + 1j * gammas)
    for g, r, j in zip(gammas, np.abs(lvals[rows, np.arange(len(rows))]), rows):
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
