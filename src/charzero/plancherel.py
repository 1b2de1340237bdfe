"""Gaussian-weighted twisted sums against Gaussian-weighted L-integrals.

The identity under test: for nonprincipal chi, real phi, T > 0, 0 <= lam <= 1/2,

  sqrt(2 pi T) * integral of S(e^y, chi_phi) e^{lam y - T y^2/2} / e^y dy
    = integral of L(1 - lam + i phi + i xi, chi) / (1 - lam + i xi)
        * e^{-xi^2/(2T)} d xi.

The left side collapses to a sum of erfc terms (one per n), the right side is
done by the trapezoid rule on the L-line: two deliberately different routes, so
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
from .special import gauss_legendre_panels

_COMPONENT_TOL = 1e-9
# values of n per erfc chunk (rounded down to a multiple of q)
_CHUNK = 2**16


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


def required_n_max(lam: float, T: float, tol: float = _COMPONENT_TOL) -> int:
    """Smallest N with pi e^{lam^2/(2T)} erfc(sqrt(T/2)(log N - lam/T)) < tol."""
    target = tol / (math.pi * math.exp(lam * lam / (2.0 * T)))
    z = float(erfcinv(min(target, 1.0)))
    log_n = lam / T + z / math.sqrt(T / 2.0)
    return max(2, int(math.ceil(math.exp(log_n))))


def _erfc_class_sums(q: int, phi: float, lam_Ts, tol: float):
    """(sums, n_maxes): sums[k, r] adds n^{-i phi} erfc(sqrt(T/2)(log n - (lam-1)/T))
    over n <= n_maxes[k], n = r mod q, for the k-th (lam, T) of lam_Ts.

    Each chunk of n starts at 1 mod q, so it folds into residue classes by
    reshape.  A case's last chunk is zero-padded to whole rows, so its sums do
    not depend on the other cases in lam_Ts.
    """
    n_maxes = [required_n_max(lam, T, tol) for lam, T in lam_Ts]
    sums = np.zeros((len(lam_Ts), q), dtype=np.complex128)
    step = _CHUNK // q * q
    twist = np.empty(step, dtype=np.complex128)
    for start in range(1, max(n_maxes) + 1, step):
        logn = np.log(np.arange(start, start + step, dtype=np.float64))
        if phi:
            # n^{-i phi} = cos(phi log n) - i sin(phi log n), written in place
            arg = phi * logn
            np.cos(arg, out=twist.real)
            np.sin(arg, out=twist.imag)
            np.negative(twist.imag, out=twist.imag)
        for k, ((lam, T), n_max) in enumerate(zip(lam_Ts, n_maxes)):
            m = min(step, n_max - start + 1)
            if m <= 0:
                continue
            terms = np.zeros(-(-m // q) * q, dtype=np.complex128)
            terms[:m] = erfc(math.sqrt(T / 2.0) * (logn[:m] - (lam - 1.0) / T))
            if phi:
                terms[:m] *= twist[:m]
            # summing rows of the transposed copy is pairwise, hence accurate
            sums[k] += np.ascontiguousarray(terms.reshape(-1, q).T).sum(axis=1)
    # column c holds the class n = c + 1 mod q
    return np.roll(sums, 1, axis=1), n_maxes


def _lhs_from_sums(case: PlancherelCase, class_sums: np.ndarray, n_max: int):
    lam, T = case.lam, case.T
    total = complex(dirichlet.value_table(case.chi) @ class_sums)
    value = math.pi * math.exp((lam - 1.0) ** 2 / (2.0 * T)) * total
    tail = math.pi * math.exp(lam * lam / (2.0 * T)) * float(
        erfc(math.sqrt(T / 2.0) * (math.log(n_max) - lam / T))
    )
    return value, tail, n_max


def lhs_gaussian_sum(case: PlancherelCase, tol: float = _COMPONENT_TOL):
    """(value, tail_bound, n_max): the erfc closed-form route.

    Completing the square with b = lam - 1 turns each n-integral into
    e^{b^2/(2T)} sqrt(pi/(2T)) erfc(sqrt(T/2)(log n - b/T)); all erfc
    arguments are real.
    """
    sums, (n_max,) = _erfc_class_sums(case.chi.q, case.phi, [(case.lam, case.T)], tol)
    return _lhs_from_sums(case, sums[0], n_max)


def lhs_quadrature_oracle(case: PlancherelCase, n_max: int, nodes: int = 12) -> complex:
    """Independent route: integrate S(e^y, chi_phi) e^{(lam-1)y - T y^2/2}
    piecewise over [log n, log(n+1)) where the partial sum is constant."""
    n = np.arange(1, n_max + 1)
    vals = dirichlet.value_table(case.chi)[n % case.chi.q] * np.exp(-1j * case.phi * np.log(n))
    partial = np.cumsum(vals)
    lam, T = case.lam, case.T
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        lo, hi = math.log(n), math.log(n + 1)
        xs, ws = gauss_legendre_panels(lo, hi, 1, nodes)
        total += partial[n - 1] * complex(
            np.sum(ws * np.exp((lam - 1.0) * xs - T * xs * xs / 2.0))
        )
    return math.sqrt(2.0 * math.pi * T) * total


def rhs_L_integral(case: PlancherelCase, tol: float = _COMPONENT_TOL):
    """(value, tail_bound, xi_max, intervals): the trapezoid rule on the
    L-line, doubling from 64 intervals until two estimates agree to tol.  It
    converges exponentially for this analytic, Gaussian-weighted integrand
    (Trefethen & Weideman, SIAM Review 56, 2014).

    Raises ConvergenceError if 12 doublings (262 144 intervals) do not get there.
    """
    lam, T, phi = case.lam, case.T, case.phi
    ev = LEvaluator(case.chi)
    xi_max = 10.0 * math.sqrt(T)

    max_abs_l = 0.0

    def integrand(xs: np.ndarray) -> np.ndarray:
        nonlocal max_abs_l
        s = (1.0 - lam) + 1j * (phi + xs)
        lv, _ = ev.values(s)
        lv = np.atleast_1d(lv)
        max_abs_l = max(max_abs_l, float(np.max(np.abs(lv))))
        return lv / ((1.0 - lam) + 1j * xs) * np.exp(-xs * xs / (2.0 * T))

    n = 64
    fx = integrand(np.linspace(-xi_max, xi_max, n + 1))
    # the trapezoid sum: interior points in full, the two ends halved
    total = complex(fx.sum() - 0.5 * (fx[0] + fx[-1]))
    h = 2.0 * xi_max / n
    est = h * total
    for _ in range(12):
        # the new points are the midpoints of the current intervals
        total += complex(integrand(-xi_max + h * (np.arange(n) + 0.5)).sum())
        n, h = 2 * n, h / 2.0
        prev, est = est, h * total
        if abs(est - prev) < tol:
            break
    else:
        raise ConvergenceError(
            f"L-line trapezoid did not reach tol {tol} in {n} intervals "
            f"(q={case.chi.q}, conrey={case.chi.conrey}, phi={phi}, lam={lam}, T={T})"
        )
    tail = max_abs_l * (2.0 / xi_max) * math.sqrt(math.pi * T / 2.0) * float(
        erfc(xi_max / math.sqrt(2.0 * T))
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
    n_max: int
    xi_max: float
    lhs_tail: float
    rhs_tail: float


def _case_result(case: PlancherelCase, lhs: complex, lhs_tail: float, n_max: int) -> CaseResult:
    rhs, rhs_tail, xi_max, _ = rhs_L_integral(case)
    return CaseResult(
        q=case.chi.q,
        conrey=case.chi.conrey,
        phi=case.phi,
        lam=case.lam,
        T=case.T,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)),
        lhs_tail=lhs_tail,
        rhs_tail=rhs_tail,
        n_max=n_max,
        xi_max=xi_max,
    )


def verify_case(case: PlancherelCase) -> CaseResult:
    return _case_result(case, *lhs_gaussian_sum(case))


GRID_MODULI = (3, 4, 5, 7, 8, 11)
GRID_LAMS = (0.0, 0.1, 0.25, 0.5)
GRID_TS = (0.25, 1.0, 4.0)
GRID_PHIS = (0.0, 0.3, -1.7)


def run_grid(moduli=GRID_MODULI, lams=GRID_LAMS, Ts=GRID_TS, phis=GRID_PHIS) -> list:
    """All (primitive nonprincipal chi, phi, T, lam) cases in canonical order.

    The erfc sums by residue class are computed once per (q, phi) for every
    (lam, T), streamed in chunks of n, and contracted with each character's
    value table, the same path `lhs_gaussian_sum` takes for one case.
    """
    lam_Ts = [(lam, T) for T in Ts for lam in lams]
    results = []
    for q in moduli:
        by_phi = {}
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            if chi.is_principal:
                continue
            for phi in phis:
                if phi not in by_phi:
                    by_phi[phi] = _erfc_class_sums(q, phi, lam_Ts, _COMPONENT_TOL)
                sums, n_maxes = by_phi[phi]
                for (lam, T), class_sums, n_max in zip(lam_Ts, sums, n_maxes):
                    case = PlancherelCase(chi, phi, lam, T)
                    results.append(_case_result(case, *_lhs_from_sums(case, class_sums, n_max)))
    return results
