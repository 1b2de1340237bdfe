"""Complex log-gamma via a fixed Lanczos rational approximation, plus small
quadrature helpers shared by several modules."""
from __future__ import annotations

import numpy as np

# g = 7, 9-term coefficient set; relative accuracy ~1e-14 on Re z > 0.5
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_HALF_LOG_2PI = 0.9189385332046727417803297364056176


def log_gamma(z):
    """log Gamma(z) for complex z (scalar or array), poles excluded.

    Values left of Re z = 0.5 go through the reflection formula, so exp of the
    result is always the true Gamma value; the imaginary part may differ from
    the principal branch by multiples of 2 pi there.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    left = z.real < 0.5
    if np.any(left):
        zl = z[left]
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z); at the
        # poles sin vanishes and the inf propagates to the caller unwarned
        with np.errstate(divide="ignore"):
            out[left] = (
                np.log(np.pi) - np.log(np.sin(np.pi * zl)) - _core_log_gamma(1.0 - zl)
            )
    if np.any(~left):
        out[~left] = _core_log_gamma(z[~left])
    return out[0] if scalar else out


def _core_log_gamma(z):
    z = z - 1.0
    x = np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, len(_LANCZOS_C)):
        x = x + _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(x)


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gauss_legendre_panels(
    a: float, b: float, panels: int, nodes: int = 24
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `panels` equal panels of `nodes` points."""
    xs, ws = [], []
    edges = np.linspace(a, b, panels + 1)
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)
