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
from .special import gauss_legendre_panels

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


def _log_ratio_integral(nodes: int) -> float:
    xs, ws = gauss_legendre_panels(1.0, math.sqrt(math.e), 4, nodes=nodes)
    return float(np.sum(ws * np.log(xs) / (xs + 1.0)))


def delta_constants() -> SpectrumConstants:
    """delta0 = 1 - log(1+sqrt e) + 2I, delta1 = 1 - 2 log(1+sqrt e) + 4I
    with I the integral of log t/(t+1) over [1, sqrt e]; the quadrature error
    is bounded by a node-doubling comparison."""
    i64 = _log_ratio_integral(64)
    i128 = _log_ratio_integral(128)
    err = abs(i64 - i128) + 1e-15
    ls = math.log(1.0 + math.sqrt(math.e))
    return SpectrumConstants(
        delta0=1.0 - ls + 2.0 * i128,
        delta1=1.0 - 2.0 * ls + 4.0 * i128,
        integral=i128,
        quad_error=err,
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
