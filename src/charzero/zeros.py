"""Nontrivial zeros of L(s, chi): counting, locating, and the zero-sum checks.

Counting uses the completed xi along rectangle boundaries (no Gamma poles or
trivial zeros interfere inside the strip); locating scans |L| on a grid and
polishes with Newton on numerically differentiated L.  Counts from the two
routes must agree exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour, dirichlet, multfn
from .errors import (
    ContourError,
    CountMismatchError,
    CoverageError,
    DomainError,
    WindowError,
)
from .lfunction import LEvaluator, Window, _density_tail

_PERTURB = 1.37e-4
_NEWTON_H = 1e-6
_RESIDUAL_TARGET = 1e-10
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


def _check_rect_window(rect: Rectangle, window: Window) -> None:
    for z in rect.corners():
        window.validate(z)


def count_zeros(chi: dirichlet.Character, rect: Rectangle) -> int:
    """Winding number of xi around the rectangle; auto-perturbs the contour
    outward up to 5 times if it runs into a zero."""
    _require_primitive(chi)
    ev = LEvaluator(chi)
    _check_rect_window(rect, ev.window)
    err = None
    for attempt in range(6):
        r = rect.expand(attempt * _PERTURB)
        try:
            return contour.winding_number(ev.xi_values, r.corners())
        except ContourError as exc:
            err = exc
    raise ContourError(f"contour unusable after 5 perturbations: {err}")


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
            [i for i in live if box.contains(z[i]) and ev.window.contains(z[i])],
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


def locate_zeros(
    chi: dirichlet.Character, rect: Rectangle, spacing: float = 0.05
) -> list:
    """All zeros in the rectangle, cross-checked against the winding count.

    A winding count of 0 certifies an empty box, so it returns [] without a
    scan.  Otherwise, on a count mismatch the scan is retried once at spacing
    0.01, then the mismatch is an error: an incomplete search must never pass
    silently.
    """
    target = count_zeros(chi, rect)
    if target == 0:
        return []
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
    L0, _ = ev.L(s0)
    L1, _ = ev.L(s1)
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
    ev = LEvaluator(chi)
    lo = max(1e-4, 1.0 - radius)
    if lo >= 1.0 or radius <= 1e-9:
        count = 0
    else:
        rect = Rectangle(lo, 1.0, phi - radius, phi + radius)
        for z in rect.corners():
            if not ev.window.contains(z):
                raise WindowError(f"disk region corner {z} outside the window")
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
