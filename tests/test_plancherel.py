import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from charzero import dirichlet, harness, plancherel
from charzero.errors import ConvergenceError, DomainError

CHI4 = dirichlet.character(4, 3)


def test_case_validation():
    with pytest.raises(DomainError):
        plancherel.PlancherelCase(dirichlet.principal_character(4), 0.0, 0.1, 1.0)
    with pytest.raises(DomainError):
        plancherel.PlancherelCase(CHI4, 0.0, 0.7, 1.0)
    with pytest.raises(DomainError):
        plancherel.PlancherelCase(CHI4, 0.0, 0.1, 0.0)


def test_required_n_max_monotone():
    # softer Gaussians (small T) need far more terms
    assert plancherel.required_n_max(0.5, 0.25) > plancherel.required_n_max(0.5, 4.0)
    n = plancherel.required_n_max(0.0, 1.0, tol=1e-9)
    assert n >= plancherel.required_n_max(0.0, 1.0, tol=1e-6)


def test_lhs_tail_honest():
    case = plancherel.PlancherelCase(CHI4, 0.3, 0.25, 1.0)
    v1, tail1, n1 = plancherel.lhs_gaussian_sum(case, tol=1e-8)
    v2, _, n2 = plancherel.lhs_gaussian_sum(case, tol=1e-14)
    assert n2 > n1
    assert abs(v1 - v2) <= tail1 + 1e-12


@pytest.mark.parametrize("q, conrey, phi", [(7, 3, 0.9), (7, 3, 0.0), (11, 2, -1.7)])
def test_lhs_matches_per_n_sum(q, conrey, phi):
    # lam = 1/2, T = 1/4 runs n to 2.5 million: about 39 chunk boundaries, and
    # neither 7 nor 11 divides the chunk length, so a residue class misplaced
    # at a chunk edge would show here
    chi = dirichlet.character(q, conrey)
    assert chi.order > 2
    lam, T = 0.5, 0.25
    value, _, n_max = plancherel.lhs_gaussian_sum(plancherel.PlancherelCase(chi, phi, lam, T))
    n = np.arange(1, n_max + 1)
    logn = np.log(n)
    z = math.sqrt(T / 2.0) * (logn - (lam - 1.0) / T)
    terms = dirichlet.value_table(chi)[n % q] * np.exp(-1j * phi * logn) * erfc(z)
    direct = math.pi * math.exp((lam - 1.0) ** 2 / (2.0 * T)) * complex(np.sum(terms))
    assert abs(value - direct) <= 1e-13 * abs(direct), (value, direct)


def test_lhs_against_quadrature_oracle():
    case = plancherel.PlancherelCase(CHI4, 0.0, 0.25, 1.0)
    closed, tail, n_max = plancherel.lhs_gaussian_sum(case, tol=1e-10)
    direct = plancherel.lhs_quadrature_oracle(case, n_max)
    assert abs(closed - direct) <= 1e-6 * (1 + abs(closed))


def test_verify_case_residuals():
    for q, conrey in ((3, 2), (4, 3), (5, 2)):
        chi = dirichlet.character(q, conrey)
        for phi, lam, T in ((0.0, 0.0, 1.0), (0.3, 0.25, 4.0), (-1.7, 0.5, 1.0)):
            res = plancherel.verify_case(plancherel.PlancherelCase(chi, phi, lam, T))
            assert res.residual <= 1e-9
            assert res.lhs_tail < 1e-6 and res.rhs_tail < 1e-6


def test_verify_case_heavy_tail():
    # softest Gaussian with the widest spectral window in the default grid
    res = plancherel.verify_case(plancherel.PlancherelCase(CHI4, 0.0, 0.5, 0.25))
    assert res.residual <= 1e-9
    assert res.n_max > 10**4


def test_conjugate_case_mirrors():
    chi = dirichlet.character(5, 2)
    a = plancherel.verify_case(plancherel.PlancherelCase(chi, 0.4, 0.1, 1.0))
    b = plancherel.verify_case(
        plancherel.PlancherelCase(chi.conjugate(), -0.4, 0.1, 1.0)
    )
    assert b.lhs == pytest.approx(a.lhs.conjugate(), abs=1e-9)
    assert b.rhs == pytest.approx(a.rhs.conjugate(), abs=1e-9)


def test_case_result_dict():
    res = plancherel.verify_case(plancherel.PlancherelCase(CHI4, 0.0, 0.1, 1.0))
    d = harness.report_dict(res)
    assert d["q"] == 4 and d["conrey"] == 3
    assert d["residual"] == res.residual
    assert math.isfinite(d["lhs_re"]) and math.isfinite(d["rhs_im"])
    assert d["lhs_tail"] == res.lhs_tail and d["rhs_tail"] == res.rhs_tail


def test_small_grid_runs():
    results = plancherel.run_grid(moduli=(3, 4), lams=(0.0, 0.5), Ts=(1.0,), phis=(0.0,))
    assert len(results) == 4  # two primitive characters, two lams
    assert all(r.residual <= 1e-9 for r in results)


def test_run_grid_rows_equal_verify_case():
    # lam = 0 stops its erfc sum chunks before lam = 1/4 does; q = 4 divides
    # the chunk length and q = 7 does not
    rows = plancherel.run_grid(moduli=(4, 7), lams=(0.0, 0.25), Ts=(0.25,), phis=(0.0, 0.3))
    assert len(rows) == (1 + 5) * 2 * 2
    for row in rows:
        chi = dirichlet.character(row.q, row.conrey)
        assert row == plancherel.verify_case(plancherel.PlancherelCase(chi, row.phi, row.lam, row.T))


def test_rhs_unconverged_raises():
    # the stop test |new - est| < 0 never holds, so all 12 doublings run
    case = plancherel.PlancherelCase(dirichlet.character(3, 2), 0.0, 0.25, 1.0)
    with pytest.raises(ConvergenceError, match="trapezoid .* 262144 intervals"):
        plancherel.rhs_L_integral(case, tol=0.0)


def test_grid_peak_memory_flat_in_blocks():
    # q = 5, lam = 1/2, T = 1/4: three characters and 2.5 million erfc
    # terms per phi, streamed in chunks; a second phi doubles the passes
    def peak(phis):
        tracemalloc.start()
        try:
            plancherel.run_grid(moduli=(5,), lams=(0.5,), Ts=(0.25,), phis=phis)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak((0.3,)), peak((0.3, -1.7))
    assert two <= 1.2 * one, (one, two)


def test_grid_peak_memory_bounded():
    # the erfc sums stream n in chunks; no array spans all 2.5 million terms
    tracemalloc.start()
    try:
        plancherel.run_grid(moduli=(5,), lams=(0.5,), Ts=(0.25,), phis=(0.3,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak
