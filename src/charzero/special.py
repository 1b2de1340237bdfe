"""The composite Gauss-Legendre rule shared by several modules.

The special functions themselves come from scipy.special, each imported on
first use at its one use site: loggamma in lfunction._gamma_factor (the Gamma
factor of xi), erfc in plancherel._erfc_class_sums (the erfc sum of the
Plancherel left side) and exp1 in spectral._k_values (the kernel H).  Code
that calls none of them never loads scipy.special.
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
