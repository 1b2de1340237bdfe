"""Nontrivial zeros of L(s, chi): counting, locating, and the zero-sum checks.

Counting uses the completed xi along rectangle boundaries (no Gamma poles or
trivial zeros interfere inside the strip); a box symmetric about Re s = 1/2
is counted from its right half through the functional equation.  Locating
has two routes, picked by the box:
- "critical-line": on a box that meets Re s = 1/2, the sign changes of the
  real Hardy function Z(t) are counted at the scan spacing.  When they number
  the winding count, every zero is simple and on the line, and each is
  refined on the line by a bracketing root finder (beta = 1/2 exactly).
- "grid+newton": otherwise |L| is scanned on a grid and the local minima are
  polished with Newton on numerically differentiated L.
Either way the located zeros must number the winding count exactly.  Every
box must lie in the evaluator's fixed window, lfunction.WINDOW.
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
from .lfunction import WINDOW, LEvaluator, _density_tail

_PERTURB = 1.37e-4
_NEWTON_H = 1e-6
_RESIDUAL_TARGET = 1e-10
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
    """Winding number of xi around the rectangle; auto-perturbs the contour
    outward up to 5 times if it runs into a zero.

    A box symmetric about Re s = 1/2 is counted from its right half alone:
    xi(s) = eps conj(xi(1 - conj(s))) gives the left half the same argument
    change, so the winding number is the change along
    1/2 + it1 -> sigma2 + it1 -> sigma2 + it2 -> 1/2 + it2 divided by pi.
    """
    _require_primitive(chi)
    WINDOW.validate(rect.corners())
    ev = LEvaluator(chi)
    symmetric = rect.sigma1 + rect.sigma2 == 1.0
    err = None
    for attempt in range(6):
        r = rect.expand(attempt * _PERTURB)
        try:
            if not symmetric:
                return contour.winding_number(ev.xi_values, r.corners())
            half = (
                complex(0.5, r.t1),
                complex(r.sigma2, r.t1),
                complex(r.sigma2, r.t2),
                complex(0.5, r.t2),
            )
            return contour.whole_turns(contour.arg_change(ev.xi_values, half) / math.pi)
        except ContourError as exc:
            err = exc
    raise ContourError(f"contour unusable after 5 perturbations: {err}")


def hardy_z(chi: dirichlet.Character, t):
    """Z(t) = xi(1/2 + it) eps^(-1/2), eps = tau(chi) / (i^a sqrt q).

    The functional equation xi(s) = eps conj(xi(1 - conj(s))) makes Z real;
    the complex value is returned so that its rounding can be checked.
    """
    eps = dirichlet.gauss_sum(chi) / (1j**chi.parity * math.sqrt(chi.q))
    s = 0.5 + 1j * np.asarray(t, dtype=np.float64)
    return LEvaluator(chi).xi_values(s) / np.sqrt(eps)


def _refine_on_line(chi, a, b, za, zb):
    """Roots of the real Z in the brackets [a_i, b_i], za and zb of opposite
    signs, by the Illinois method with one hardy_z call per step.

    A bracket stops once it is at most _GAMMA_TOL wide or Z vanishes at its
    new point; each root is the end with the smaller |Z|.
    """
    a, b, za, zb = (np.array(v, dtype=np.float64) for v in (a, b, za, zb))
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
        zc = hardy_z(chi, c).real
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
    raise ConvergenceError(
        f"critical-line root finder did not settle in {_FINDER_CAP} steps "
        f"(q={chi.q}, conrey={chi.conrey})"
    )


def _newton_polish(ev: LEvaluator, seeds, rect: Rectangle) -> list:
    """Newton on all seeds together; entry i is (z, |L(z)|) for seed i, or None.

    Each iteration makes one L call on z, z + h and z - h of every seed still
    running.  A seed stops
    - with its point once |L| <= 1e-12;
    - with None when it leaves the box or the window, or when its difference
      quotient is zero or not finite;
    - after a step below 1e-14 or after 50 iterations, keeping its point only
      if the final |L| is at most _RESIDUAL_TARGET.
    """
    h = _NEWTON_H
    box = rect.expand(0.3)
    z = np.array(seeds, dtype=np.complex128)
    out = [None] * len(z)
    live = np.arange(len(z))
    settled = []
    for _ in range(50):
        live = np.array(
            [i for i in live if box.contains(z[i]) and WINDOW.contains(z[i])],
            dtype=int,
        )
        if not live.size:
            break
        zl = z[live]
        vals, _ = ev.values(np.concatenate([zl, zl + h, zl - h]), check_window=False)
        v, vp, vm = np.split(vals, 3)
        hit = np.abs(v) <= 1e-12
        for i, r in zip(live[hit], np.abs(v[hit])):
            out[i] = (complex(z[i]), float(r))
        dv = (vp - vm) / (2.0 * h)
        go = ~hit & (dv != 0) & np.isfinite(dv)
        step = v[go] / dv[go]
        live = live[go]
        z[live] -= step
        small = np.abs(step) < 1e-14
        settled.extend(live[small])
        live = live[~small]
    settled.extend(live)
    if settled:
        vals, _ = ev.values(z[settled], check_window=False)
        for i, r in zip(settled, np.abs(vals)):
            if r <= _RESIDUAL_TARGET:
                out[i] = (complex(z[i]), float(r))
    return out


def _scan_candidates(ev: LEvaluator, rect: Rectangle, spacing: float):
    sig = np.arange(rect.sigma1, rect.sigma2 + spacing * 0.5, spacing)
    ts = np.arange(rect.t1, rect.t2 + spacing * 0.5, spacing)
    A = np.abs(ev.grid(sig, ts))
    padded = np.full((A.shape[0] + 2, A.shape[1] + 2), np.inf)
    padded[1:-1, 1:-1] = A
    local_min = np.ones_like(A, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            local_min &= A <= padded[1 + di : 1 + di + A.shape[0], 1 + dj : 1 + dj + A.shape[1]]
    local_min &= A < 1.0
    ii, jj = np.nonzero(local_min)
    return [complex(sig[i], ts[j]) for i, j in zip(ii, jj)]


def _locate_at_spacing(chi, ev, rect, spacing):
    found = []
    for hit in _newton_polish(ev, _scan_candidates(ev, rect, spacing), rect):
        if hit is None:
            continue
        z, resid = hit
        if not rect.contains(z):
            continue
        # keep to the open strip: the trivial zero at s = 0 (even chi) and any
        # stray convergence to Re s near 0 or 1 are not nontrivial-strip zeros
        if not (1e-4 < z.real < 1.0 - 1e-4):
            continue
        found.append((z, resid))
    found.sort(key=lambda pair: (pair[0].imag, pair[0].real))
    dedup = []
    for z, resid in found:
        if dedup and abs(z - dedup[-1][0]) < 1e-6:
            if resid < dedup[-1][1]:
                dedup[-1] = (z, resid)
            continue
        dedup.append((z, resid))
    return [
        ZeroRecord(
            q=chi.q,
            conrey=chi.conrey,
            beta=float(z.real),
            gamma=float(z.imag),
            residual=float(resid),
            method="grid+newton",
        )
        for z, resid in dedup
    ]


def _locate_on_line(chi, rect: Rectangle, spacing: float, target: int):
    """Zeros on the box's piece of Re s = 1/2, or None unless Z has exactly
    `target` sign changes there at step `spacing`.

    Each sign change is a zero on the line, so when they number the winding
    count every zero in the box is simple and on the line.
    """
    n = max(1, math.ceil((rect.t2 - rect.t1) / spacing))
    ts = np.linspace(rect.t1, rect.t2, n + 1)
    z = hardy_z(chi, ts).real
    sign = np.sign(z)
    lo = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(lo) != target or not sign.all():
        return None
    gammas = _refine_on_line(chi, ts[lo], ts[lo + 1], z[lo], z[lo + 1])
    lvals, _ = LEvaluator(chi).values(0.5 + 1j * gammas)
    return [
        ZeroRecord(
            q=chi.q,
            conrey=chi.conrey,
            beta=0.5,
            gamma=float(g),
            residual=float(r),
            method="critical-line",
        )
        for g, r in zip(gammas, np.abs(lvals))
    ]


def locate_zeros(
    chi: dirichlet.Character, rect: Rectangle, spacing: float = 0.05
) -> list:
    """All zeros in the rectangle, cross-checked against the winding count.

    `spacing` must be finite and positive.  A winding count of 0 certifies an
    empty box, so it returns [] without a scan.  A box with
    sigma1 <= 1/2 <= sigma2 first scans the real Hardy Z at `spacing` along
    its piece of the line; if the sign changes number the winding count,
    every zero is refined on the line (beta = 1/2 exactly, method
    "critical-line").  A box with an edge on the line takes this route too,
    since its count, perturbed outward off the zeros on that edge, holds
    them.  Otherwise, and on every other box, |L| is scanned on a grid and
    polished by Newton (method "grid+newton"); on a count mismatch that scan
    is retried once at spacing 0.01, then the mismatch is an error: an
    incomplete search must never pass silently.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and positive, got {spacing}")
    target = count_zeros(chi, rect)
    if target == 0:
        return []
    if rect.sigma1 <= 0.5 <= rect.sigma2:
        records = _locate_on_line(chi, rect, spacing, target)
        if records is not None:
            return records
    ev = LEvaluator(chi)
    records = _locate_at_spacing(chi, ev, rect, spacing)
    if len(records) != target and spacing > 0.01:
        records = _locate_at_spacing(chi, ev, rect, 0.01)
    if len(records) != target:
        raise CountMismatchError(
            f"located {len(records)} zeros but winding count is {target} "
            f"(q={chi.q}, conrey={chi.conrey}, rect={rect})"
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

    def to_dict(self):
        return {
            "q": self.q,
            "conrey": self.conrey,
            "x": self.x,
            "L_param": self.L_param,
            "N": self.N,
            "phi": self.phi,
            "center_re": self.disk.center.real,
            "center_im": self.disk.center.imag,
            "radius": self.disk.radius,
            "count": self.count,
            "threshold_360": self.threshold_360,
            "threshold_400": self.threshold_400,
            "x_range_ok": self.x_range_ok,
            "N_ok": self.N_ok,
            "L_ok": self.L_ok,
            "vacuous": self.vacuous,
            "conclusion_ok": self.conclusion_ok,
        }


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
