"""Gaussian-weighted twisted sums against Gaussian-weighted L-integrals.

The identity under test: for nonprincipal chi, real phi, T > 0, 0 <= lam <= 1/2,

  sqrt(2 pi T) * integral of S(e^y, chi_phi) e^{lam y - T y^2/2} / e^y dy
    = integral of L(1 - lam + i phi + i xi, chi) / (1 - lam + i xi)
        * e^{-xi^2/(2T)} d xi.

The left side collapses to a sum of erfc terms (one per n), the right side is
done by adaptive Simpson quadrature: two deliberately different routes, so
agreement is strong evidence both are right.  The identity is exact; any
residual beyond the stated tails is an implementation bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv

from . import dirichlet
from .errors import ConvergenceError, DomainError
from .lfunction import LEvaluator
from .special import gauss_legendre

_COMPONENT_TOL = 1e-9


@dataclass(frozen=True)
class PlancherelCase:
    chi: dirichlet.Character
    phi: float
    lam: float
    T: float

    def __post_init__(self):
        if self.chi.is_principal:
            raise DomainError("the identity needs a nonprincipal character")
        if not (0.0 <= self.lam <= 0.5):
            raise DomainError("lam must lie in [0, 1/2]")
        if self.T <= 0:
            raise DomainError("T must be positive")

    def label(self):
        return (self.chi.q, self.chi.conrey, self.phi, self.T, self.lam)


def required_n_max(lam: float, T: float, tol: float = _COMPONENT_TOL) -> int:
    """Smallest N with pi e^{lam^2/(2T)} erfc(sqrt(T/2)(log N - lam/T)) < tol."""
    target = tol / (math.pi * math.exp(lam * lam / (2.0 * T)))
    z = float(erfcinv(min(target, 1.0)))
    log_n = lam / T + z / math.sqrt(T / 2.0)
    return max(2, int(math.ceil(math.exp(log_n))))


def _twist_values(chi: dirichlet.Character, phi: float, n_max: int) -> np.ndarray:
    """chi(n) n^{-i phi} for n = 1..n_max."""
    table = dirichlet.value_table(chi)
    n = np.arange(1, n_max + 1)
    vals = table[n % chi.q].astype(np.complex128)
    if phi != 0.0:
        vals *= np.exp(-1j * phi * np.log(n.astype(np.float64)))
    return vals


def lhs_gaussian_sum(case: PlancherelCase, tol: float = _COMPONENT_TOL, _shared=None):
    """(value, tail_bound, n_max): the erfc closed-form route.

    Completing the square with b = lam - 1 turns each n-integral into
    e^{b^2/(2T)} sqrt(pi/(2T)) erfc(sqrt(T/2)(log n - b/T)); all erfc
    arguments are real.
    """
    lam, T = case.lam, case.T
    n_max = required_n_max(lam, T, tol)
    if _shared is not None and len(_shared[0]) >= n_max:
        vals = _shared[0][:n_max]
        logn = _shared[1][:n_max]
    else:
        vals = _twist_values(case.chi, case.phi, n_max)
        logn = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    b = lam - 1.0
    z = math.sqrt(T / 2.0) * (logn - b / T)
    total = complex(np.sum(vals * erfc(z)))
    value = math.pi * math.exp(b * b / (2.0 * T)) * total
    tail = (
        math.pi
        * math.exp(lam * lam / (2.0 * T))
        * float(erfc(math.sqrt(T / 2.0) * (math.log(n_max) - lam / T)))
    )
    return value, tail, n_max


def lhs_quadrature_oracle(case: PlancherelCase, n_max: int, nodes: int = 12) -> complex:
    """Independent route: integrate S(e^y, chi_phi) e^{(lam-1)y - T y^2/2}
    piecewise over [log n, log(n+1)) where the partial sum is constant."""
    vals = _twist_values(case.chi, case.phi, n_max)
    partial = np.cumsum(vals)
    lam, T = case.lam, case.T
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        lo, hi = math.log(n), math.log(n + 1)
        xs, ws = gauss_legendre(nodes, lo, hi)
        total += partial[n - 1] * complex(
            np.sum(ws * np.exp((lam - 1.0) * xs - T * xs * xs / 2.0))
        )
    return math.sqrt(2.0 * math.pi * T) * total


def rhs_L_integral(case: PlancherelCase, tol: float = _COMPONENT_TOL):
    """(value, tail_bound, xi_max, intervals): Simpson's rule on the L-line,
    doubling from 64 intervals until two estimates agree to tol.

    Raises ConvergenceError if 12 doublings (262 144 intervals) do not get
    there.
    """
    lam, T, phi = case.lam, case.T, case.phi
    ev = LEvaluator(case.chi)
    xi_max = 10.0 * math.sqrt(T)
    base = complex(1.0 - lam, 0.0)

    max_abs_l = 0.0

    def integrand(xs: np.ndarray) -> np.ndarray:
        nonlocal max_abs_l
        s = (1.0 - lam) + 1j * (phi + xs)
        lv, _ = ev.values(s)
        lv = np.atleast_1d(lv)
        max_abs_l = max(max_abs_l, float(np.max(np.abs(lv))))
        return lv / (base + 1j * xs) * np.exp(-xs * xs / (2.0 * T))

    n = 64
    xs = np.linspace(-xi_max, xi_max, n + 1)
    fx = integrand(xs)
    h = 2.0 * xi_max / n
    est = complex((h / 3.0) * (fx[0] + fx[-1] + 4.0 * fx[1::2].sum() + 2.0 * fx[2:-1:2].sum()))
    for _ in range(12):
        mids = 0.5 * (xs[:-1] + xs[1:])
        fm = integrand(mids)
        merged_x = np.empty(2 * n + 1)
        merged_f = np.empty(2 * n + 1, dtype=np.complex128)
        merged_x[0::2], merged_x[1::2] = xs, mids
        merged_f[0::2], merged_f[1::2] = fx, fm
        n *= 2
        xs, fx = merged_x, merged_f
        h = 2.0 * xi_max / n
        new = complex(
            (h / 3.0) * (fx[0] + fx[-1] + 4.0 * fx[1::2].sum() + 2.0 * fx[2:-1:2].sum())
        )
        if abs(new - est) < tol:
            est = new
            break
        est = new
    else:
        raise ConvergenceError(
            f"L-line Simpson did not reach tol {tol} in {n} intervals "
            f"(q={case.chi.q}, conrey={case.chi.conrey}, phi={phi}, lam={lam}, T={T})"
        )
    tail = (
        max_abs_l
        * (2.0 / xi_max)
        * math.sqrt(math.pi * T / 2.0)
        * float(erfc(xi_max / math.sqrt(2.0 * T)))
    )
    return est, tail, xi_max, n


@dataclass(frozen=True)
class CaseResult:
    q: int
    conrey: int
    phi: float
    lam: float
    T: float
    lhs: complex
    rhs: complex
    residual: float
    lhs_tail: float
    rhs_tail: float
    n_max: int
    xi_max: float

    def to_dict(self):
        return {
            "q": self.q,
            "conrey": self.conrey,
            "phi": self.phi,
            "lam": self.lam,
            "T": self.T,
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "residual": self.residual,
            "n_max": self.n_max,
            "xi_max": self.xi_max,
        }


def verify_case(case: PlancherelCase, _shared=None) -> CaseResult:
    lhs, lhs_tail, n_max = lhs_gaussian_sum(case, _shared=_shared)
    rhs, rhs_tail, xi_max, _ = rhs_L_integral(case)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return CaseResult(
        q=case.chi.q,
        conrey=case.chi.conrey,
        phi=case.phi,
        lam=case.lam,
        T=case.T,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        lhs_tail=lhs_tail,
        rhs_tail=rhs_tail,
        n_max=n_max,
        xi_max=xi_max,
    )


GRID_MODULI = (3, 4, 5, 7, 8, 11)
GRID_LAMS = (0.0, 0.1, 0.25, 0.5)
GRID_TS = (0.25, 1.0, 4.0)
GRID_PHIS = (0.0, 0.3, -1.7)


def run_grid(moduli=GRID_MODULI, lams=GRID_LAMS, Ts=GRID_TS, phis=GRID_PHIS) -> list:
    """All (primitive nonprincipal chi, phi, T, lam) cases in canonical order.

    Each (chi, phi) block shares one twisted-value array, sized for the
    largest n_max over lams and Ts, across its lam/T cases.  A block's
    cases run right after its array is built, and the array is dropped
    before the next block is built, so peak memory is that of one block.
    """
    n_worst = max(required_n_max(lam, T) for lam in lams for T in Ts)
    logn = np.log(np.arange(1, n_worst + 1, dtype=np.float64))
    results = []
    for q in moduli:
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            if chi.is_principal:
                continue
            for phi in phis:
                shared = (_twist_values(chi, phi, n_worst), logn)
                for T in Ts:
                    for lam in lams:
                        results.append(verify_case(PlancherelCase(chi, phi, lam, T), shared))
                del shared
    return results
