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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dirichlet, lfunction, sieve
from .errors import ConvergenceError, DomainError

_COMPONENT_TOL = 1e-9
# values of n per erfc chunk (rounded down to a multiple of q)
_CHUNK = 2**16
# most erfc terms one left side may sum: 3-5 s on one core of a 2-vCPU Xeon VM
_N_MAX_CAP = 10**8


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
        t_min = (1.0 - self.lam) ** 2 / 1400.0  # below it e^{(lam-1)^2/(2T)} passes e^700
        if not (t_min < self.T < math.inf):
            raise DomainError(f"T must lie in ((1-lam)^2/1400, inf) = ({t_min}, inf), got {self.T}")
        # the L-line 1 - lam + i(phi + xi), |xi| <= 10 sqrt(T); a NaN phi fails too
        if not abs(self.phi) + _xi_max(self.T) <= lfunction.WINDOW.t_max:
            raise DomainError(
                f"phi = {self.phi}, T = {self.T}: the L-line leaves the window {lfunction.WINDOW}"
            )


def _xi_max(T: float) -> float:
    return 10.0 * math.sqrt(T)  # ten standard deviations of the weight e^{-xi^2/(2T)}


@functools.lru_cache(maxsize=64)
def _chi_sum_bound(q: int) -> float:
    """phi(q)/2, a bound on |sum of chi(n) over any run of consecutive n| for
    every nonprincipal chi mod q: a run and the rest of its periods sum to
    minus each other, and one of the two holds at most phi(q)/2 units."""
    return sieve.euler_phi(q) / 2.0


def _lhs_tail(q: int, phi: float, lam: float, T: float, n_max: int) -> float:
    """Bound on the left side's terms with n > n_max, for nonprincipal chi mod q:
    pi e^{(lam-1)^2/(2T)} times the bound below on the erfc sum they form.

    With E(u) = erfc(c (u - d)), c = sqrt(T/2), d = (lam - 1)/T, partial
    summation against the partial sums of chi (at most phi(q)/2 in modulus)
    bounds |sum_{n > N} chi(n) n^{-i phi} E(log n)| by
    (phi(q)/2) (E(log N) + |phi| int_{log N}^inf E(u) du), and for
    z = c (log N - d) > 0 that integral is ierfc(z)/c <= e^{-z^2}/(2 z^2 sqrt(pi) c).
    """
    c = math.sqrt(T / 2.0)
    z = c * (math.log(n_max) - (lam - 1.0) / T)
    rest = math.erfc(z) + abs(phi) * math.exp(-z * z) / (2.0 * z * z * math.sqrt(math.pi) * c)
    return math.pi * math.exp((lam - 1.0) ** 2 / (2.0 * T)) * _chi_sum_bound(q) * rest


def required_n_max(q: int, phi: float, lam: float, T: float, tol: float = _COMPONENT_TOL) -> int:
    """Least N with
    pi e^{(lam-1)^2/(2T)} (phi(q)/2) (erfc(z) + |phi| e^{-z^2}/(2 z^2 sqrt(pi) c)) < tol,
    where c = sqrt(T/2) and z = c (log N - (lam - 1)/T): `_lhs_tail`'s bound on
    the left side's terms n > N, for any nonprincipal character mod q.

    The bound falls as N grows, so N is found by doubling, then bisection.
    Raises DomainError unless tol is finite and positive, and, before any
    sum, if N would pass _N_MAX_CAP.
    """
    if not (0.0 < tol < math.inf):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    lo, hi = 0, 1
    while _lhs_tail(q, phi, lam, T, hi) >= tol:
        if hi >= _N_MAX_CAP:
            raise DomainError(
                f"the erfc sum needs more than {_N_MAX_CAP} terms "
                f"(q={q}, phi={phi}, lam={lam}, T={T}, tol={tol})"
            )
        lo, hi = hi, min(2 * hi, _N_MAX_CAP)
    # the bound is below tol at hi and not at lo (or lo = 0 is untested)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _lhs_tail(q, phi, lam, T, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def _erfc_class_sums(q: int, phi: float, lam_Ts, tol: float):
    """(sums, n_maxes): sums[k, r] adds n^{-i phi} erfc(sqrt(T/2)(log n - (lam-1)/T))
    over n <= n_maxes[k], n = r mod q, for the k-th (lam, T) of lam_Ts.

    Each chunk of n starts at 1 mod q, so it folds into residue classes by
    reshape.  A case's last chunk is zero-padded to whole rows, so its sums do
    not depend on the other cases in lam_Ts.
    """
    # imported on first use: scipy.special takes about 0.1 s to import
    from scipy.special import erfc

    n_maxes = [required_n_max(q, phi, lam, T, tol) for lam, T in lam_Ts]
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
    return value, _lhs_tail(case.chi.q, case.phi, lam, T, n_max), n_max


def lhs_gaussian_sum(case: PlancherelCase, tol: float = _COMPONENT_TOL):
    """(value, tail_bound, n_max): the erfc closed-form route.

    Completing the square with b = lam - 1 turns each n-integral into
    e^{b^2/(2T)} sqrt(pi/(2T)) erfc(sqrt(T/2)(log n - b/T)); all erfc
    arguments are real.  The sum stops at n_max = required_n_max(q, phi, lam,
    T, tol), and tail_bound (below tol) bounds the terms past it by partial
    summation against chi's partial sums, which a nonprincipal chi mod q
    keeps within phi(q)/2 (see `_lhs_tail`).
    """
    sums, (n_max,) = _erfc_class_sums(case.chi.q, case.phi, [(case.lam, case.T)], tol)
    return _lhs_from_sums(case, sums[0], n_max)


def lhs_quadrature_oracle(case: PlancherelCase, n_max: int) -> complex:
    """Independent route: integrate S(e^y, chi_phi) e^{(lam-1)y - T y^2/2} by 12-point
    Gauss-Legendre on each [log n, log(n+1)), where the partial sum is constant."""
    n = np.arange(1, n_max + 1)
    vals = dirichlet.value_table(case.chi)[n % case.chi.q] * np.exp(-1j * case.phi * np.log(n))
    partial = np.cumsum(vals)
    lam, T = case.lam, case.T
    base_x, base_w = np.polynomial.legendre.leggauss(12)
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        lo, hi = math.log(n), math.log(n + 1)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs, ws = mid + half * base_x, half * base_w
        total += partial[n - 1] * complex(
            np.sum(ws * np.exp((lam - 1.0) * xs - T * xs * xs / 2.0))
        )
    return math.sqrt(2.0 * math.pi * T) * total


def _rhs_tail(q: int, phi: float, lam: float, T: float, xi_max: float) -> float:
    """Bound on the right side's integral over |xi| > xi_max, for nonprincipal
    chi mod q.

    With sigma = 1 - lam and s = sigma + i(phi + xi), partial summation past
    n = q against the partial sums of chi (at most phi(q)/2 in modulus) gives
    |L(s, chi)| <= sum_{n <= q, (n, q) = 1} n^{-sigma} + (phi(q)/2) |s| q^{-sigma}/sigma,
    and |s| <= sigma + |phi| + |xi|, so |L| <= A + B |xi|.  As
    1/|sigma + i xi| <= 1/|xi|, each of the two sides xi > X and xi < -X,
    X = xi_max, adds at most (A/X + B) sqrt(pi T/2) erfc(X/sqrt(2T)).
    """
    sigma = 1.0 - lam
    B = _chi_sum_bound(q) * q**-sigma / sigma
    A = sum(n**-sigma for n in range(1, q + 1) if math.gcd(n, q) == 1) + B * (sigma + abs(phi))
    side = (A / xi_max + B) * math.sqrt(math.pi * T / 2.0) * math.erfc(xi_max / math.sqrt(2.0 * T))
    return 2.0 * side


def _rhs_family(chars, cases, tol: float) -> list:
    """rhs_L_integral's (value, tail_bound, xi_max, intervals) for each of k
    nonprincipal characters of one modulus at each (phi, lam, T) of cases:
    out[c][j] is cases[c] for chars[j].

    Every trapezoid runs in lockstep.  Round 0 takes every case's 65 points
    and each later round the midpoints of every case still running, each
    round in one family_values call for every character.  A case keeps its
    own xi_max, h, n and tail, each of its characters its own sum and stop
    test, and it leaves the batch once all its characters have converged.
    Each (case, character) adds its own points in the same order whatever
    shares the call, and a point's L value does not depend on the other
    points or characters of its call, so every result equals the one-case,
    one-character loop's bit for bit.
    """
    xi_maxes = [_xi_max(T) for _, _, T in cases]
    tails = [_rhs_tail(chars[0].q, *case, x) for case, x in zip(cases, xi_maxes)]

    def integrand(xss: dict, active: dict) -> dict:
        """{c: {j: values}} at the points xss[c] of each case c, for its running
        characters active[c], from one kernel call."""
        s = np.concatenate([(1.0 - cases[c][1]) + 1j * (cases[c][0] + xs) for c, xs in xss.items()])
        lv, _ = lfunction.family_values(chars, s)
        out, start = {}, 0
        for c, xs in xss.items():
            _, lam, T = cases[c]
            denom, gauss = (1.0 - lam) + 1j * xs, np.exp(-xs * xs / (2.0 * T))
            rows = lv[:, start : start + len(xs)]
            out[c] = {j: rows[j] / denom * gauss for j in active[c]}
            start += len(xs)
        return out

    n = 64
    active = {c: list(range(len(chars))) for c in range(len(cases))}
    fxs = integrand({c: np.linspace(-x, x, n + 1) for c, x in enumerate(xi_maxes)}, active)
    # the trapezoid sums: interior points in full, the two ends halved
    totals = [
        {j: complex(fx.sum() - 0.5 * (fx[0] + fx[-1])) for j, fx in rows.items()}
        for rows in fxs.values()
    ]
    hs = [2.0 * x / n for x in xi_maxes]
    ests = [{j: h * total for j, total in row.items()} for h, row in zip(hs, totals)]
    done = [[None] * len(chars) for _ in cases]
    for _ in range(12):
        # the new points are the midpoints of each running case's intervals
        fxs = integrand({c: -xi_maxes[c] + hs[c] * (np.arange(n) + 0.5) for c in active}, active)
        n = 2 * n
        for c, rows in fxs.items():
            hs[c] /= 2.0
            for j, fx in rows.items():
                totals[c][j] += complex(fx.sum())
                prev, ests[c][j] = ests[c][j], hs[c] * totals[c][j]
                if abs(ests[c][j] - prev) < tol:
                    done[c][j] = (ests[c][j], tails[c], xi_maxes[c], n)
            active[c] = [j for j in active[c] if done[c][j] is None]
        active = {c: js for c, js in active.items() if js}
        if not active:
            return done
    c, js = next(iter(active.items()))
    chi, (phi, lam, T) = chars[js[0]], cases[c]
    raise ConvergenceError(
        f"L-line trapezoid did not reach tol {tol} in {n} intervals "
        f"(q={chi.q}, conrey={chi.conrey}, phi={phi}, lam={lam}, T={T})"
    )


def rhs_L_integral(case: PlancherelCase, tol: float = _COMPONENT_TOL):
    """(value, tail_bound, xi_max, intervals): the trapezoid rule on the
    L-line |xi| <= xi_max = 10 sqrt(T), doubling from 64 intervals until two
    estimates agree to tol.  It converges exponentially for this analytic,
    Gaussian-weighted integrand (Trefethen & Weideman, SIAM Review 56, 2014).
    tail_bound bounds the integral over |xi| > xi_max (see `_rhs_tail`); it
    does not cover the trapezoid's own error, which the stop test watches.

    The one-case, one-character call of the lockstep loop `_rhs_family`,
    which run_grid runs for every (phi, lam, T) and character of a modulus
    at once.  Raises ConvergenceError if 12 doublings (262 144 intervals)
    do not get there.
    """
    return _rhs_family([case.chi], [(case.phi, case.lam, case.T)], tol)[0][0]


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


def _case_result(case: PlancherelCase, lhs_parts: tuple, rhs_parts: tuple) -> CaseResult:
    """The row of one case from its lhs_gaussian_sum and rhs_L_integral tuples."""
    lhs, lhs_tail, n_max = lhs_parts
    rhs, rhs_tail, xi_max, _ = rhs_parts
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
    return _case_result(case, lhs_gaussian_sum(case), rhs_L_integral(case))


GRID_MODULI = (3, 4, 5, 7, 8, 11)
GRID_LAMS = (0.0, 0.1, 0.25, 0.5)
GRID_TS = (0.25, 1.0, 4.0)
GRID_PHIS = (0.0, 0.3, -1.7)


def run_grid(moduli=GRID_MODULI, lams=GRID_LAMS, Ts=GRID_TS, phis=GRID_PHIS) -> list:
    """All (primitive nonprincipal chi, phi, T, lam) cases in canonical order.

    Every case of a modulus is built first, so a phi or T out of range
    raises DomainError before any sum.  The erfc sums by residue class are
    computed once per (q, phi) for every (lam, T), streamed in chunks of n,
    and contracted with each character's value table, the same path
    `lhs_gaussian_sum` takes for one case.  One lockstep trapezoid loop per
    modulus, `_rhs_family`, serves every (phi, lam, T) and character of q:
    one kernel call per doubling round, the loop `rhs_L_integral` runs for
    one case.  Rows equal verify_case's, bit for bit.
    """
    lam_Ts = [(lam, T) for T in Ts for lam in lams]
    results = []
    for q in moduli:
        chars = [
            chi
            for chi in dirichlet.enumerate_characters(q, primitive_only=True)
            if not chi.is_principal
        ]
        if not chars:
            continue
        grid = [(phi, lam, T) for phi in phis for lam, T in lam_Ts]
        cases = [[PlancherelCase(chi, *key) for chi in chars] for key in grid]
        # (class_sums, n_max) for each (phi, lam, T) of grid, in its order
        lhs = [
            part for phi in phis for part in zip(*_erfc_class_sums(q, phi, lam_Ts, _COMPONENT_TOL))
        ]
        rhs = _rhs_family(chars, grid, _COMPONENT_TOL)
        # canonical order: by character, then (phi, lam, T) in the order of grid
        for j in range(len(chars)):
            for family, (class_sums, n_max), family_rhs in zip(cases, lhs, rhs):
                lhs_parts = _lhs_from_sums(family[j], class_sums, n_max)
                results.append(_case_result(family[j], lhs_parts, family_rhs[j]))
    return results
