"""The kernel H(z) = (2/z) int_{1/sqrt e}^1 (1 - e^{-zu}) du/u, its zeros,
and the two spectrum constants delta_0, delta_1.

H is entire (removable singularity at 0).  Work goes through
K(z) = z H(z)/2 = 1/2 - G(z) with G(z) = int_a^1 e^{-zu}/u du, a = e^{-1/2}:
K has the same zeros away from 0 and a closed-form derivative
K'(z) = (e^{-za} - e^{-z})/z.  G(z) = E1(az) - E1(z) (Abramowitz-Stegun
5.1.1), with E1 from scipy.special.exp1; near 0, where 1/2 - G cancels, H
comes from its Taylor series, which also serves as the independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour
from .errors import ContourError, DomainError

_A = math.exp(-0.5)
_SERIES_RADIUS = 0.1


def _h_series(z: np.ndarray, terms: int = 40) -> np.ndarray:
    """2 sum_{m>=1} (-1)^{m+1} z^{m-1} (1-e^{-m/2})/(m m!); entire, used
    near 0 and as an independent oracle elsewhere."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros_like(z)
    zpow = np.ones_like(z)
    fact = 1.0
    for m in range(1, terms + 1):
        fact *= m
        coeff = (1.0 - math.exp(-m / 2.0)) / (m * fact)
        out += (coeff if m % 2 == 1 else -coeff) * zpow
        zpow = zpow * z
    return 2.0 * out


def _k_values(z) -> np.ndarray:
    """K(z) = 1/2 - G(z) = 1/2 - (E1(az) - E1(z)).  1/2 - G cancels near 0,
    so callers keep |z| >= _SERIES_RADIUS: the strip contours have
    |z| >= pi, and Newton's iterates stay at Im z >= pi - 2."""
    # imported on first use: scipy.special takes about 0.1 s to import
    from scipy.special import exp1

    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return 0.5 - (exp1(_A * z) - exp1(z))


def _k_prime(z: complex) -> complex:
    return (np.exp(-z * _A) - np.exp(-z)) / z


def h_eval(z):
    """H at a complex point or array."""
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = np.empty_like(zz)
    small = np.abs(zz) < _SERIES_RADIUS
    if small.any():
        out[small] = _h_series(zz[small])
    if (~small).any():
        zb = zz[~small]
        out[~small] = 2.0 * _k_values(zb) / zb
    return complex(out[0]) if scalar else out


def h_series_oracle(z, terms: int = 60) -> complex:
    """Taylor route alone; independent cross-check for moderate |z|."""
    return complex(_h_series(np.array([z]), terms)[0])


@dataclass(frozen=True)
class HZero:
    """The zero of H in strip k.  `residual` is |H(z)|; `asymptotic_gap` is
    |z - asymptotic_seed(k)|, the distance from the first-order seed, which
    stays above 0.1 for every k <= 200 (see `asymptotic_seed`)."""

    k: int
    z: complex
    residual: float
    asymptotic_gap: float


def asymptotic_seed(k: int) -> complex:
    """Leading-order location -log(pi k) + 2 pi i (k + 1/4) of the k-th zero.

    It keeps only the u = 1 endpoint term -e^{-z}/z of the integration by
    parts of G and drops the u = a = e^{-1/2} endpoint term e^{-za}/(za).
    Relative to the kept term the dropped one has size
    e^{(1-a) Re z}/a ~ (pi k)^{-0.39}/0.61, about 0.42 at k = 10, so the
    seed is a Newton starting point, not a close estimate: its gap to the
    true zero is 0.47 at k = 10 and stays above 0.1 (minimum 0.126) for
    every k <= 200.
    """
    return complex(-math.log(math.pi * k), 2.0 * math.pi * (k + 0.25))


def _strip_box(k: int):
    re_lo = -math.log(math.pi * k) - 3.0
    im_lo = 2.0 * math.pi * k - math.pi
    im_hi = 2.0 * math.pi * k + math.pi
    return re_lo, im_lo, im_hi


def _newton_k(z0: complex, k: int):
    re_lo, im_lo, im_hi = _strip_box(k)
    z = z0
    for _ in range(60):
        v = complex(_k_values(z)[0])
        if abs(v) <= 1e-13 * max(1.0, abs(z)):
            return z
        dv = _k_prime(z)
        z = z - v / dv
        if not (re_lo - 1.0 <= z.real <= 1.0 and im_lo - 2.0 <= z.imag <= im_hi + 2.0):
            return None
    return None


def find_h_zeros(count: int) -> list:
    """The first `count` upper-half-plane zeros, one per strip
    Im in (2 pi k - pi, 2 pi k + pi), Newton-refined from the asymptotic seed.
    Each strip's winding number must be 1, else ContourError.
    Each record's `asymptotic_gap` is measured from that first-order seed.
    """
    if not (1 <= count <= 200):
        raise DomainError("count must lie in [1, 200]")
    out = []
    for k in range(1, count + 1):
        seed = asymptotic_seed(k)
        z = _newton_k(seed, k)
        if z is None:
            raise ContourError(f"no zero found in strip {k}")
        re_lo, im_lo, im_hi = _strip_box(k)
        if not (im_lo < z.imag < im_hi and z.real < 0):
            raise ContourError(f"zero escaped strip {k}: {z}")
        corners = (
            complex(re_lo, im_lo),
            complex(0.0, im_lo),
            complex(0.0, im_hi),
            complex(re_lo, im_hi),
        )
        w = contour.winding_number(_k_values, corners, points_per_unit=8.0)
        if w != 1:
            raise ContourError(f"strip {k} winding is {w}, expected 1")
        z = complex(z)
        out.append(
            HZero(
                k=k,
                z=z,
                residual=float(abs(h_eval(z))),
                asymptotic_gap=float(abs(z - seed)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# spectrum constants


@dataclass(frozen=True)
class SpectrumConstants:
    delta0: float
    delta1: float
    integral: float
    quad_error: float


_LI2_TERMS = 60


def delta_constants() -> SpectrumConstants:
    """delta0 = 1 - log(1+sqrt e) + 2I and delta1 = 2 delta0 - 1, with I the
    integral of log t/(t+1) over [1, sqrt e], in closed form.  The
    antiderivative log t log(1+t) + Li2(-t), Li2(-1) = -pi^2/12 and the
    inversion Li2(-x) + Li2(-1/x) = -pi^2/6 - (log x)^2/2 (Lewin,
    Polylogarithms and Associated Functions, 1981) give, with a = e^{-1/2},
    I = log(1+sqrt e)/2 - pi^2/12 - 1/8 - Li2(-a) and
    delta0 = 3/4 - pi^2/6 - 2 Li2(-a).  Li2(-a) = sum (-a)^k/k^2 alternates
    with falling terms: its first _LI2_TERMS = 60 leave a^61/61^2 < 1.6e-17.

    quad_error bounds |integral - I| by that tail plus 10u of rounding,
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, chs.
    3-4), for binary64 rounding to nearest, correctly rounded sqrt and fsum,
    and math.exp, math.log and ** within one ulp (relative error <= 2u).
    In units of u, to first order: the k-th term is off by (2k+3)u a^k/k^2
    (exp(-1/2) by 2u, raised to the k, ** by 2u, /k^2 by u), 4.08 in all;
    the series' fsum, |Li2(-a)| < 0.54; pi*pi/12, 4 x 0.823 < 3.30;
    log(1+sqrt e)/2, whose argument e, sqrt and + move by 1.94u,
    (1.94 + 2 x 0.975)/2 < 1.95; the last fsum, |I| < 0.08.  That is 9.95;
    second-order terms and the tail's own rounding fit in the 0.05u left.
    delta0, one fsum with twice the series and pi^2/12 errors, is within
    2 quad_error + u|delta0|, delta1 within 4 quad_error + (2|delta0| +
    |delta1|)u.
    """
    li2 = math.fsum((-_A) ** k / (k * k) for k in range(1, _LI2_TERMS + 1))
    pi2_12 = math.pi * math.pi / 12.0
    delta0 = math.fsum((0.75, -2.0 * pi2_12, -2.0 * li2))
    return SpectrumConstants(
        delta0=delta0,
        delta1=2.0 * delta0 - 1.0,
        integral=math.fsum((0.5 * math.log(1.0 + math.sqrt(math.e)), -pi2_12, -0.125, -li2)),
        quad_error=_A ** (_LI2_TERMS + 1) / (_LI2_TERMS + 1) ** 2 + 10.0 * 2.0**-53,
    )


def _check_unit_range(v: float, name: str) -> None:
    if not (1.0 / math.sqrt(math.e) <= v <= 1.0):
        raise DomainError(f"{name} must lie in [1/sqrt(e), 1]")


def mean_value_upper_bound(alpha: float) -> float:
    """max(|delta1|, 1/2 + 2 (log alpha)^2) for alpha in [1/sqrt e, 1]."""
    _check_unit_range(alpha, "alpha")
    c = delta_constants()
    return max(abs(c.delta1), 0.5 + 2.0 * math.log(alpha) ** 2)


def nonresidue_density_lower_bound(u: float) -> float:
    """min(delta0, 1/4 - (log u)^2) for u in [1/sqrt e, 1]."""
    _check_unit_range(u, "u")
    c = delta_constants()
    return min(c.delta0, 0.25 - math.log(u) ** 2)
