import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from charzero import dirichlet, harness, lfunction, plancherel
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
    assert plancherel.required_n_max(4, 0.0, 0.5, 0.25) > plancherel.required_n_max(4, 0.0, 0.5, 4.0)
    n = plancherel.required_n_max(4, 0.0, 0.0, 1.0, tol=1e-9)
    assert n >= plancherel.required_n_max(4, 0.0, 0.0, 1.0, tol=1e-6)


def test_required_n_max_caps_terms():
    # at lam = 1/4 the least N is 2.0e7 at T = 0.05 and 7.6e8 at T = 0.02;
    # past the cap it raises from the doubling alone, before any sum
    assert plancherel.required_n_max(4, 0.0, 0.25, 0.05) <= plancherel._N_MAX_CAP
    for T in (0.02, 0.01, 0.002):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"{plancherel._N_MAX_CAP} terms .*T={T}"):
            plancherel.required_n_max(4, 0.0, 0.25, T)
        assert time.perf_counter() - start < 1.0


def test_required_n_max_rejects_bad_tol():
    case = plancherel.PlancherelCase(CHI4, 0.0, 0.0, 1.0)
    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(DomainError, match="tol"):
            plancherel.required_n_max(4, 0.0, 0.0, 1.0, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            plancherel.lhs_gaussian_sum(case, tol=tol)


# n_max of the absolute truncation rule pi e^{lam^2/(2T)} erfc(sqrt(T/2)(log N - lam/T)) < 1e-9
# at lam = 1/2, T = 1/4, which ignored the character's cancellation
ABSOLUTE_RULE_N_MAX = 2_504_294


def _tail_cases():
    rng = random.Random(20)
    for q in (5, 7, 11):
        chars = [c for c in dirichlet.enumerate_characters(q, primitive_only=True) if not c.is_principal]
        yield rng.choice(chars)
    # imprimitive: mod 8, induced from the character mod 4
    yield dirichlet.character(8, 7)


@pytest.mark.parametrize("chi", list(_tail_cases()), ids=lambda c: f"{c.q}.{c.conrey}")
def test_lhs_tail_covers_truncation(chi):
    # the cancellation-aware tail bound covers the truncation error against a
    # sum cut where its own bound is below 1e-14
    for phi in (0.0, 0.3, -1.7):
        for lam, T in ((0.5, 0.25), (0.0, 0.25), (0.25, 1.0)):
            case = plancherel.PlancherelCase(chi, phi, lam, T)
            value, tail, n_max = plancherel.lhs_gaussian_sum(case)
            ref, ref_tail, _ = plancherel.lhs_gaussian_sum(case, tol=1e-14)
            assert abs(value - ref) <= tail + ref_tail, (phi, lam, T, abs(value - ref), tail)
            if (lam, T) == (0.5, 0.25):
                assert n_max < ABSOLUTE_RULE_N_MAX


def test_lhs_tail_honest():
    case = plancherel.PlancherelCase(CHI4, 0.3, 0.25, 1.0)
    v1, tail1, n1 = plancherel.lhs_gaussian_sum(case, tol=1e-8)
    v2, _, n2 = plancherel.lhs_gaussian_sum(case, tol=1e-14)
    assert n2 > n1
    assert abs(v1 - v2) <= tail1 + 1e-12


@pytest.mark.parametrize("q, conrey, phi", [(7, 3, 0.9), (7, 3, 0.0), (11, 2, -1.7)])
def test_lhs_matches_per_n_sum(q, conrey, phi):
    # lam = 1/2, T = 1/4 at tol 1e-14 runs n past 1.4 million: over 20 chunk
    # boundaries, and neither 7 nor 11 divides the chunk length, so a residue
    # class misplaced at a chunk edge would show here
    chi = dirichlet.character(q, conrey)
    assert chi.order > 2
    lam, T = 0.5, 0.25
    case = plancherel.PlancherelCase(chi, phi, lam, T)
    value, _, n_max = plancherel.lhs_gaussian_sum(case, tol=1e-14)
    assert n_max > 2 * plancherel._CHUNK
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
    # lam = 0 stops its erfc sum before lam = 1/4 does, inside their shared
    # chunk; q = 4 divides the chunk length and q = 7 does not.  xi_max is 5
    # at T = 1/4 and 20 at T = 4, so the lockstep trapezoids' rounds differ
    # in size and stop at different rounds
    rows = plancherel.run_grid(moduli=(4, 7), lams=(0.0, 0.25), Ts=(0.25, 4.0), phis=(0.0, 0.3))
    assert len(rows) == (1 + 5) * 2 * 2 * 2
    assert len({r.xi_max for r in rows}) == 2
    # at q = 5, phi = 0, lam = 1/2, T = 1 the real character's trapezoid
    # stops at fewer intervals than the complex ones, so the family loop
    # runs on after one of its characters has dropped out
    stops = plancherel.run_grid(moduli=(5,), lams=(0.5,), Ts=(1.0,), phis=(0.0,))
    cases = [plancherel.PlancherelCase(dirichlet.character(5, r.conrey), 0.0, 0.5, 1.0) for r in stops]
    assert len({plancherel.rhs_L_integral(case)[3] for case in cases}) > 1
    for row in rows + stops:
        chi = dirichlet.character(row.q, row.conrey)
        assert row == plancherel.verify_case(plancherel.PlancherelCase(chi, row.phi, row.lam, row.T))


def _count_family_calls(monkeypatch) -> list:
    calls = []
    family_values = lfunction.family_values

    def counted(chars, s):
        calls.append(np.size(s))
        return family_values(chars, s)

    monkeypatch.setattr(lfunction, "family_values", counted)
    return calls


def test_run_grid_one_kernel_call_per_round(monkeypatch):
    # every (phi, lam, T) trapezoid of a modulus runs in lockstep: round 0
    # takes every case's 65 points in one call, each doubling one call more
    # for the cases still running
    calls = _count_family_calls(monkeypatch)
    rows = plancherel.run_grid(moduli=(5,), phis=(0.0, 1.3))
    cases = {(r.phi, r.lam, r.T) for r in rows}
    assert len(cases) == 2 * len(plancherel.GRID_LAMS) * len(plancherel.GRID_TS)
    assert calls[0] == 65 * len(cases)
    n_calls = len(calls)
    rounds = []
    for r in rows:
        case = plancherel.PlancherelCase(dirichlet.character(5, r.conrey), r.phi, r.lam, r.T)
        intervals = plancherel.rhs_L_integral(case)[3]  # 64 * 2**rounds
        rounds.append((intervals // 64).bit_length() - 1)
    assert len(set(rounds)) > 1
    assert n_calls == 1 + max(rounds), (n_calls, rounds)


def test_run_grid_rejects_bad_case_before_kernel(monkeypatch):
    # phi = 45 with xi_max = 10 leaves the window |t| <= 50
    calls = _count_family_calls(monkeypatch)
    with pytest.raises(DomainError, match="window"):
        plancherel.run_grid(moduli=(5,), lams=(0.25,), Ts=(1.0,), phis=(0.0, 45.0))
    assert calls == []


def test_rhs_unconverged_raises():
    # the stop test |new - est| < 0 never holds, so all 12 doublings run
    case = plancherel.PlancherelCase(dirichlet.character(3, 2), 0.0, 0.25, 1.0)
    with pytest.raises(ConvergenceError, match="trapezoid .* 262144 intervals"):
        plancherel.rhs_L_integral(case, tol=0.0)


def test_grid_peak_memory_flat_in_blocks():
    # q = 5, phi = 0.3, tol 1e-14: 1.3 million erfc terms for lam = 1/2,
    # T = 1/4, streamed in chunks; the second pass adds every other (lam, T)
    # of the grid, whose terms share those chunks
    def peak(lam_Ts):
        tracemalloc.start()
        try:
            _, n_maxes = plancherel._erfc_class_sums(5, 0.3, lam_Ts, 1e-14)
            return tracemalloc.get_traced_memory()[1], max(n_maxes)
        finally:
            tracemalloc.stop()

    grid = [(lam, T) for T in plancherel.GRID_TS for lam in plancherel.GRID_LAMS]
    (one, n_max), (two, _) = peak([(0.5, 0.25)]), peak(grid)
    assert n_max > 2 * plancherel._CHUNK
    assert two <= 1.2 * one, (one, two)


def test_grid_peak_memory_bounded():
    # the erfc sums stream n in chunks; no array spans all 1.3 million terms
    case = plancherel.PlancherelCase(dirichlet.character(5, 2), 0.3, 0.5, 0.25)
    tracemalloc.start()
    try:
        _, _, n_max = plancherel.lhs_gaussian_sum(case, tol=1e-14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_max > 2 * plancherel._CHUNK
    assert peak <= 32 * 2**20, peak
