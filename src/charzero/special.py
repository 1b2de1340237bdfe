"""The composite Gauss-Legendre rule shared by several modules.

The special functions themselves come from scipy.special: loggamma for the
Gamma factor of xi (lfunction) and exp1 for the kernel H (spectral).
"""
from __future__ import annotations

import numpy as np


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
