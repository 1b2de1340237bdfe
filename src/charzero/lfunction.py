"""Dirichlet L-functions on a finite window via Hurwitz zeta continuation.

L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q), with each Hurwitz zeta
evaluated by Euler-Maclaurin and a certified remainder bound.  The completed
function xi multiplies in the (q/pi)^((s+a)/2) Gamma((s+a)/2) factor and is
the object used for argument-principle work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dirichlet, sieve
from .errors import CoverageError, DomainError, PoleError, WindowError
from .special import log_gamma

_BERNOULLI_FRAC = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
    30: Fraction(8615841276005, 14322),
    32: Fraction(-7709321041217, 510),
}

# B_{2j} / (2j)! as floats, the only form the numerics need
_BERN_OVER_FACT = {
    k: float(v) / math.factorial(k) for k, v in _BERNOULLI_FRAC.items()
}


# no kernel temporary holds more than this many complex entries (512 KB)
_CHUNK = 1 << 15


@dataclass(frozen=True)
class HurwitzParams:
    """Euler-Maclaurin truncation controls.

    shift_terms = 0 means automatic: N = max(50, ceil(2 |Im s|)), which keeps
    the remainder decreasing on the supported window.  bernoulli_terms must be
    even and at most 30.
    """

    shift_terms: int = 0
    bernoulli_terms: int = 20

    def __post_init__(self):
        b = self.bernoulli_terms
        if b % 2 != 0 or not (2 <= b <= 30):
            raise DomainError("bernoulli_terms must be even and within [2, 30]")
        if self.shift_terms < 0:
            raise DomainError("shift_terms must be nonnegative")

    def resolve_n(self, im_max: float) -> int:
        if self.shift_terms:
            return self.shift_terms
        return max(50, int(math.ceil(2.0 * abs(im_max))))


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, stable near z = 0."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.ones_like(z)
    small = np.abs(z) < 0.25
    zs = z[small]
    acc = np.zeros_like(zs)
    for k in range(13, 0, -1):
        acc = (acc + 1.0) * zs / (k + 1)
    out[small] = 1.0 + acc
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1.0) / zb
    return out


# The Euler-Maclaurin kernel.  For a 1-D array of points s, shifts
# 0 < x <= 1 and weights w_x it sums
#     sum_x w_x (zeta(s, x) - 1/(s - 1))
#   = sum_x w_x sum_{n<N} (n + x)^-s                     (main sum)
#   + sum_x w_x [((N + x)^(1-s) - 1)/(s - 1) + (N + x)^-s / 2
#                + sum_j B_2j/(2j)! (s)_{2j-1} (N + x)^(1-s-2j)]   (tails)
# The main sums over all shifts are one Dirichlet polynomial of N len(x)
# terms; the tails are (points x shifts) arrays contracted against the
# weights.  Every temporary is cut to at most _CHUNK entries.  Sums run along
# each point's own row, never across points, so a point's value does not
# depend on the batch it came in.


def _dirichlet_terms(xs: np.ndarray, weights: np.ndarray, N: int):
    """(log(n + x), w_x) over n < N and every shift: the main sum's terms."""
    logs = np.log(np.arange(N)[:, None] + xs[None, :]).ravel()
    return logs, np.tile(weights, N)


def _em_tail(s: np.ndarray, xs: np.ndarray, weights: np.ndarray, N: int, B: int):
    """The tails past the first N terms, and the summed remainder bound.

    Valid whenever Re s + B + 1 > 0.
    """
    sigma = s.real
    denom = sigma + B + 1
    if np.any(denom <= 0):
        raise DomainError("Re s too far left for this Bernoulli depth")
    w = N + xs
    lw = np.log(w)
    # row j - 1: B_2j/(2j)! (N + x)^(1-2j)
    bern = np.array(
        [_BERN_OVER_FACT[2 * j] * w ** (1.0 - 2 * j) for j in range(1, B // 2 + 1)]
    )
    rem = w ** -(B + 1.0)
    total = np.empty(s.shape, dtype=np.complex128)
    bound = np.empty(s.shape)
    rows = max(1, _CHUNK // len(xs))
    for lo in range(0, len(s), rows):
        sc = s[lo : lo + rows]
        ws = np.exp(-np.multiply.outer(sc, lw))
        # 1/2 + sum_j B_2j/(2j)! (s)_{2j-1} (N + x)^(1-2j), per point and shift
        series = np.full(ws.shape, 0.5, dtype=np.complex128)
        poch = sc.copy()
        for j, row in enumerate(bern, start=1):
            series += np.multiply.outer(poch, row)
            poch = poch * (sc + (2 * j - 1)) * (sc + 2 * j)
        # ((N + x)^(1-s) - 1)/(s - 1), continued through s = 1
        pole_reg = -lw * _phi1(np.multiply.outer(1.0 - sc, lw))
        total[lo : lo + rows] = np.sum((pole_reg + ws * series) * weights, axis=1)
        # poch is now (s)_{B+1}; the remainder is
        # |B_{B+2}/(B+2)!| |(s)_{B+2}| (N + x)^-(sigma+B+1) / (sigma+B+1)
        bound[lo : lo + rows] = (
            abs(_BERN_OVER_FACT[B + 2])
            * np.abs(poch * (sc + B + 1))
            * np.sum(np.abs(ws) * rem, axis=1)
            / denom[lo : lo + rows]
        )
    return total, bound


def _em_sum(s: np.ndarray, xs: np.ndarray, weights: np.ndarray, N: int, B: int):
    """(sum_x w_x (zeta(s, x) - 1/(s-1)), remainder bound) for a 1-D array s."""
    total, bound = _em_tail(s, xs, weights, N, B)
    logs, coef = _dirichlet_terms(xs, weights, N)
    step = min(len(logs), _CHUNK)
    for t0 in range(0, len(logs), step):
        lc, cc = logs[t0 : t0 + step], coef[t0 : t0 + step]
        rows = max(1, _CHUNK // len(lc))
        for lo in range(0, len(s), rows):
            terms = np.exp(-np.multiply.outer(s[lo : lo + rows], lc))
            total[lo : lo + rows] += np.sum(terms * cc, axis=1)
    return total, bound


def hurwitz_zeta(s: complex, a: float, params: HurwitzParams | None = None):
    """(zeta(s, a), error bound) for 0 < a <= 1; errors at the s = 1 pole."""
    if not (0 < a <= 1):
        raise DomainError("hurwitz_zeta needs a shift in (0, 1]")
    if s == 1:
        raise PoleError("hurwitz zeta has its pole at s = 1")
    p = params or HurwitzParams()
    N = p.resolve_n(complex(s).imag)
    val, bound = _em_sum(
        np.array([s], dtype=np.complex128), np.array([float(a)]), np.ones(1), N,
        p.bernoulli_terms,
    )
    return complex(val[0]) + 1.0 / (complex(s) - 1.0), float(bound[0])


@dataclass(frozen=True)
class Window:
    """Half-strip on which evaluations are supported."""

    t_max: float = 50.0
    sigma_min: float = -1.0
    sigma_max: float = 3.0

    def contains(self, s: complex) -> bool:
        return (
            self.sigma_min <= s.real <= self.sigma_max and abs(s.imag) <= self.t_max
        )

    def validate(self, s) -> None:
        """Raise WindowError naming the first point of s (a scalar or an
        array) outside the window; NaN points are outside."""
        pts = np.asarray(s, dtype=np.complex128).ravel()
        inside = (
            (self.sigma_min <= pts.real)
            & (pts.real <= self.sigma_max)
            & (np.abs(pts.imag) <= self.t_max)
        )
        if not inside.all():
            bad = complex(pts[np.argmin(inside)])
            raise WindowError(f"point {bad} lies outside the window {self}")


class LEvaluator:
    """Window-checked evaluator for one character's L and xi values."""

    def __init__(
        self,
        chi: dirichlet.Character,
        params: HurwitzParams | None = None,
        window: Window | None = None,
    ):
        self.chi = chi
        self.params = params or HurwitzParams()
        self.window = window or Window()
        if chi.q == 1:
            self._units = np.array([1.0])
            self._weights = np.array([1.0 + 0j])
        else:
            units, _, _, _ = dirichlet._basis_tables(chi.q)
            self._units = units.astype(np.float64)
            self._weights = dirichlet.value_table(chi)[units]

    # -- scalar / vector values ------------------------------------------

    def values(self, s_array, check_window: bool = True):
        """(L values, error bounds) for an arbitrary array of points."""
        s = np.asarray(s_array, dtype=np.complex128).ravel()
        if check_window:
            self.window.validate(s)
        if self.chi.is_principal and np.any(s == 1.0):
            raise PoleError("principal character: L has a pole at s = 1")
        q = self.chi.q
        N = self.params.resolve_n(float(np.max(np.abs(s.imag))) if s.size else 0.0)
        vals, bounds = _em_sum(
            s, self._units / q, self._weights, N, self.params.bernoulli_terms
        )
        if self.chi.is_principal:
            vals += sieve.euler_phi(q) / (s - 1.0)
        qfac = np.exp(-s * math.log(q)) if q > 1 else 1.0
        out = qfac * vals
        out_bounds = np.abs(qfac) * bounds if q > 1 else bounds
        if np.isscalar(s_array) or np.asarray(s_array).ndim == 0:
            return complex(out[0]), float(out_bounds[0])
        return out, out_bounds

    def L(self, s: complex):
        """(L(s, chi), error bound)."""
        return self.values(s)

    def grid(self, sigmas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """L on the rectangle grid sigmas x ts, exploiting separability.

        Returns a (len(sigmas), len(ts)) matrix.  Nonprincipal characters only.
        """
        if self.chi.is_principal:
            raise DomainError("grid evaluation expects a nonprincipal character")
        sig = np.asarray(sigmas, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        tm = float(np.max(np.abs(ts))) if ts.size else 0.0
        self.window.validate(complex(sig.min(), tm))
        self.window.validate(complex(sig.max(), tm))
        q = self.chi.q
        N = self.params.resolve_n(float(np.max(np.abs(ts))) if ts.size else 0.0)
        B = self.params.bernoulli_terms
        xs = self._units / q
        s_grid = sig[:, None] + 1j * ts[None, :]
        tail, _ = _em_tail(s_grid.ravel(), xs, self._weights, N, B)
        acc = tail.reshape(s_grid.shape)
        # main sum: n^-s = n^-sigma n^-it, one matrix product per term chunk
        logs, coef = _dirichlet_terms(xs, self._weights, N)
        step = max(1, _CHUNK // max(len(sig), len(ts)))
        for t0 in range(0, len(logs), step):
            lc = logs[t0 : t0 + step]
            P = np.exp(-np.multiply.outer(sig, lc)) * coef[t0 : t0 + step]
            Q = np.exp(-1j * np.multiply.outer(ts, lc))
            acc += P @ Q.T
        qfac = np.exp(-s_grid * math.log(q))
        return qfac * acc

    # -- completed function ----------------------------------------------

    def xi_values(self, s_array):
        """xi(s) = (q/pi)^((s+a)/2) Gamma((s+a)/2) L(s, chi); primitive only."""
        if not self.chi.is_primitive or self.chi.is_principal:
            raise DomainError("xi is defined for primitive nonprincipal characters")
        s = np.asarray(s_array, dtype=np.complex128)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        lvals, _ = self.values(s)
        apar = self.chi.parity
        z = 0.5 * (s + apar)
        # at trivial zeros the Gamma pole meets an L zero; the NaN that
        # inf * 0 produces is caught by the contour code, so keep it quiet
        with np.errstate(invalid="ignore", over="ignore"):
            pref = np.exp(z * math.log(self.chi.q / math.pi) + log_gamma(z))
            out = pref * np.atleast_1d(lvals)
        return complex(out[0]) if scalar else out

    def xi(self, s: complex) -> complex:
        return self.xi_values(s)


def l_value(chi: dirichlet.Character, s: complex, params: HurwitzParams | None = None):
    """Convenience scalar L(s, chi) with error bound."""
    return LEvaluator(chi, params).L(s)


def xi_value(chi: dirichlet.Character, s: complex) -> complex:
    return LEvaluator(chi).xi(s)


def l_series_truncated(chi: dirichlet.Character, s: complex, n_max: int):
    """Direct Dirichlet series sum_{n<=n_max} chi(n) n^{-s} with a tail bound.

    Only meaningful for Re s > 1; the bound integral-compares the tail.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DomainError("direct series needs Re s > 1")
    table = dirichlet.value_table(chi)
    n = np.arange(1, n_max + 1)
    vals = table[n % chi.q] if chi.q > 1 else np.ones(n_max)
    total = complex(np.sum(vals * np.exp(-complex(s) * np.log(n))))
    tail = n_max ** (1 - sigma) / (sigma - 1)
    return total, tail


# ---------------------------------------------------------------------------
# prime-side identities

# c in the zero count N(T + 1) - N(T) <= c log(q(|T| + 2)) behind every
# far-zero tail; the paper leaves it unspecified
_DENSITY_C = 1.0


def _density_tail(q: int, offset: float, T_cover: float) -> float:
    """Integral of c log(q(2+offset+u))/u^2 over u > T_cover (one side)."""
    B = 2.0 + offset
    return _DENSITY_C * (
        math.log(q * (B + T_cover)) / T_cover + math.log((B + T_cover) / T_cover) / B
    )


def von_mangoldt_series(lam: float, n_max: int = 10**6):
    """sum_n Lambda(n) n^{-1-lam}: truncated sum plus an integral tail estimate.

    The tail uses the average Lambda(n) ~ 1, so the completed value carries a
    small model error on top of the truncation; both pieces are returned.
    Returns (completed_value, truncated_sum, tail_estimate).
    """
    if lam <= 0:
        raise DomainError("needs lam > 0")
    lamarr = sieve.von_mangoldt_array(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    partial = float(np.sum(lamarr * n ** (-1.0 - lam)))
    tail = n_max ** (-lam) / lam
    return partial + tail, partial, tail


@dataclass(frozen=True)
class BalanceReport:
    s0: complex
    lhs: float
    rhs: float
    residual: float
    zero_sum: float
    zero_tail_bound: float
    lhs_tail_bound: float
    mangoldt_value: float
    mangoldt_gap: float


def explicit_formula_balance(
    chi: dirichlet.Character,
    lam: float,
    t: float,
    zeros,
    T_cover: float,
    n_max: int = 10**6,
) -> BalanceReport:
    """Check -Re L'/L(1+lam+it) against 1/2 log(q(1+|t|)) minus the zero sum.

    `zeros` must list all zeros (both signs of height) with |Im rho - t| <=
    T_cover; far zeros are absorbed into a density-based tail bound.
    """
    if not (0 < lam <= 0.5):
        raise DomainError("lam must lie in (0, 1/2]")
    if chi.is_principal:
        raise DomainError("balance check expects a nonprincipal character")
    if T_cover <= 0 or not list(zeros):
        raise CoverageError("zero coverage is empty; supply zeros up to T_cover")
    q = chi.q
    s0 = 1.0 + lam + 1j * t
    lamarr = sieve.von_mangoldt_array(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    table = dirichlet.value_table(chi)
    chi_vals = table[np.arange(n_max + 1) % q] if q > 1 else np.ones(n_max + 1)
    lhs = float(
        np.sum(lamarr * (chi_vals * np.exp(-s0 * np.log(n))).real)
    )
    lhs_tail = n_max ** (-lam) / lam
    zero_sum = 0.0
    for rho in zeros:
        beta, gamma = _rho_parts(rho)
        zero_sum += ((1.0 + lam - beta) / abs(s0 - (beta + 1j * gamma)) ** 2)
    tail = 2.0 * (1.0 + lam) * _density_tail(q, abs(t), T_cover)
    rhs = 0.5 * math.log(q * (1.0 + abs(t))) - zero_sum
    mang_value, _, _ = von_mangoldt_series(lam, n_max)
    return BalanceReport(
        s0=s0,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs),
        zero_sum=zero_sum,
        zero_tail_bound=tail,
        lhs_tail_bound=lhs_tail,
        mangoldt_value=mang_value,
        mangoldt_gap=abs(mang_value - 1.0 / lam),
    )


def _rho_parts(rho) -> tuple[float, float]:
    if hasattr(rho, "beta"):
        return float(rho.beta), float(rho.gamma)
    rho = complex(rho)
    return rho.real, rho.imag
