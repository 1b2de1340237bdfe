import cmath
import math

import numpy as np
import pytest

from charzero import dirichlet, lfunction
from charzero.errors import CoverageError, DomainError, PoleError, WindowError

CATALAN = 0.915965594177219015054603514932

CHI4 = dirichlet.character(4, 3)
LEG5 = dirichlet.character(5, 4)  # order-2 character mod 5


def test_hurwitz_riemann_point():
    val, bound = lfunction.hurwitz_zeta(2.0, 1.0)
    assert val.real == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert abs(val.imag) < 1e-14
    assert bound < 1e-10


def test_hurwitz_half_shift():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    val, _ = lfunction.hurwitz_zeta(2.0, 0.5)
    assert val.real == pytest.approx(3 * math.pi**2 / 6, abs=1e-11)


def test_hurwitz_at_zero():
    for a in (1.0, 0.5, 0.3, 1 / 7):
        val, _ = lfunction.hurwitz_zeta(0.0, a)
        assert val.real == pytest.approx(0.5 - a, abs=1e-11)


def test_hurwitz_multiplication_theorem():
    # sum_{j=1..m} zeta(s, j/m) = m^s zeta(s), checked at m = 4
    for s in (1.5 + 3j, 2.0 - 7j, -0.5 + 0.25j):
        parts = [lfunction.hurwitz_zeta(s, j / 4) for j in (1, 2, 3, 4)]
        total = sum(v for v, _ in parts)
        budget = sum(b for _, b in parts)
        ref, ref_b = lfunction.hurwitz_zeta(s, 1.0)
        assert abs(total - 4**s * ref) <= budget + abs(4**s) * ref_b + 1e-10


def test_hurwitz_errors():
    with pytest.raises(PoleError):
        lfunction.hurwitz_zeta(1.0, 0.5)
    with pytest.raises(DomainError):
        lfunction.hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        lfunction.hurwitz_zeta(2.0, 1.5)


def test_error_bound_honesty():
    # a refined evaluation must stay inside the coarse run's reported bound
    rng = np.random.default_rng(20260814)
    coarse = lfunction.HurwitzParams(shift_terms=30, bernoulli_terms=8)
    fine = lfunction.HurwitzParams(shift_terms=200, bernoulli_terms=24)
    for _ in range(40):
        s = complex(rng.uniform(-1, 3), rng.uniform(-20, 20))
        a = float(rng.uniform(0.05, 1.0))
        if abs(s - 1) < 0.1:
            continue
        v1, b1 = lfunction.hurwitz_zeta(s, a, coarse)
        v2, _ = lfunction.hurwitz_zeta(s, a, fine)
        assert abs(v1 - v2) <= b1 + 1e-11


def test_l_known_values():
    val, bound = lfunction.l_value(CHI4, 2.0)
    assert val.real == pytest.approx(CATALAN, abs=1e-12)
    assert bound < 1e-9
    val, _ = lfunction.l_value(CHI4, 1.0)
    assert val.real == pytest.approx(math.pi / 4, abs=1e-12)
    chi0 = dirichlet.principal_character(6)
    val, _ = lfunction.l_value(chi0, 2.0)
    assert val.real == pytest.approx(math.pi**2 / 9, abs=1e-11)


def test_l_principal_pole():
    chi0 = dirichlet.principal_character(6)
    with pytest.raises(PoleError):
        lfunction.l_value(chi0, 1.0)
    # residue: (s-1) L(s) -> phi(q)/q as s -> 1
    eps = 1e-7
    val, _ = lfunction.l_value(chi0, 1.0 + eps)
    assert eps * val.real == pytest.approx(2 / 6, abs=1e-6)


def test_l_against_direct_series():
    rng = np.random.default_rng(11)
    for q in (3, 4, 20, 47, 100):
        chars = dirichlet.enumerate_characters(q)
        chi = chars[int(rng.integers(len(chars)))]
        ev = lfunction.LEvaluator(chi)
        for _ in range(4):
            s = complex(rng.uniform(2.0, 3.0), rng.uniform(-20, 20))
            lv, lb = ev.L(s)
            sv, st = lfunction.l_series_truncated(chi, s, 200000)
            assert abs(lv - sv) <= lb + st


def test_l_conjugation_symmetry():
    ev = lfunction.LEvaluator(dirichlet.character(7, 3))
    ev_bar = lfunction.LEvaluator(dirichlet.character(7, 3).conjugate())
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = complex(rng.uniform(-1, 3), rng.uniform(-45, 45))
        a, _ = ev.L(s)
        b, _ = ev_bar.L(s.conjugate())
        assert b == pytest.approx(a.conjugate(), abs=1e-11 * max(1, abs(a)))


def test_grid_matches_pointwise():
    sigmas = np.array([-0.5, 0.5, 1.0, 2.5])
    cases = [
        (4, 3, np.array([-10.0, 0.0, 3.25, 40.0])),
        (23, 5, np.linspace(-10.0, 40.0, 12)),
        # 4 x 90 cells times 100 shifts, and 8000 terms against 90 ordinates,
        # each pass more than one of the kernel's chunks
        (101, 2, np.linspace(-10.0, 40.0, 90)),
    ]
    for q, conrey, ts in cases:
        ev = lfunction.LEvaluator(dirichlet.character(q, conrey))
        grid = ev.grid(sigmas, ts)
        for i, sg in enumerate(sigmas):
            for j, t in enumerate(ts):
                ref, _ = ev.L(complex(sg, t))
                assert grid[i, j] == pytest.approx(ref, abs=1e-10 * max(1, abs(ref)))


def test_values_batch_spanning_chunks_matches_pointwise():
    chi = dirichlet.character(101, 2)
    ev = lfunction.LEvaluator(chi)
    rng = np.random.default_rng(20261018)
    s = rng.uniform(-1, 3, 400) + 1j * rng.uniform(-20, 20, 400)
    # every point shares N = 50: 5000 terms and 100 shifts per point
    terms, shifts = 50 * len(ev._units), len(ev._units)
    assert len(s) > 2 * (lfunction._CHUNK // terms)
    assert len(s) > lfunction._CHUNK // shifts
    vals, bounds = ev.values(s)
    for pt, val, bnd in zip(s, vals, bounds):
        ref, ref_b = ev.L(complex(pt))
        assert abs(val - ref) <= 1e-12 * max(1, abs(ref))
        assert bnd == pytest.approx(ref_b, rel=1e-12)


def test_values_match_mpmath_dirichlet():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    with mpmath.workdps(20):
        for q in (4, 7, 23):
            chars = dirichlet.enumerate_characters(q)
            chi = chars[int(rng.integers(len(chars)))]
            table = [mpmath.mpc(v.real, v.imag) for v in dirichlet.value_table(chi)]
            s = rng.uniform(-1, 3, 6) + 1j * rng.uniform(-20, 20, 6)
            vals, _ = lfunction.LEvaluator(chi).values(s)
            for pt, val in zip(s, vals):
                ref = complex(mpmath.dirichlet(mpmath.mpc(pt.real, pt.imag), table))
                assert abs(val - ref) <= 1e-11 * max(1, abs(ref)), (q, chi.conrey, pt)


def test_window_enforced():
    ev = lfunction.LEvaluator(CHI4)
    with pytest.raises(WindowError):
        ev.L(4.0 + 0j)
    with pytest.raises(WindowError):
        ev.L(0.5 + 51j)
    with pytest.raises(WindowError):
        ev.grid(np.array([0.5]), np.array([80.0]))
    # a batch names its first point outside the window; NaN is outside
    batch = np.array([0.5 + 1j, 0.5 + 60j, complex(math.nan, 0.0), 4.0 + 0j])
    with pytest.raises(WindowError, match=r"point \(0\.5\+60j\)"):
        ev.values(batch)
    with pytest.raises(WindowError, match="nan"):
        ev.values(np.array([0.5 + 1j, complex(math.nan, 2.0)]))
    # explicit window override widens the domain
    wide = lfunction.LEvaluator(CHI4, window=lfunction.Window(t_max=100.0))
    val, _ = wide.L(0.5 + 80j)
    assert np.isfinite(val.real)


def test_xi_functional_equation_magnitudes():
    rng = np.random.default_rng(20260814)
    for q, conrey in ((4, 3), (5, 2), (7, 3), (12, 11)):
        chi = dirichlet.character(q, conrey)
        ev = lfunction.LEvaluator(chi)
        ev_bar = lfunction.LEvaluator(chi.conjugate())
        for _ in range(20):
            s = complex(rng.uniform(-0.8, 1.8), rng.uniform(-30, 30))
            x1 = ev.xi(s)
            assert abs(x1) == pytest.approx(
                abs(ev_bar.xi(1 - s)), rel=1e-8
            )
            assert abs(x1) == pytest.approx(
                abs(ev.xi(1 - s.conjugate())), rel=1e-8
            )


def test_xi_rejects_imprimitive():
    with pytest.raises(DomainError):
        lfunction.xi_value(dirichlet.character(8, 7), 0.5)  # conductor 4
    with pytest.raises(DomainError):
        lfunction.xi_value(dirichlet.principal_character(3), 0.5)


def test_von_mangoldt_series_values():
    value, partial, tail = lfunction.von_mangoldt_series(0.05, 10**5)
    assert value == pytest.approx(partial + tail, abs=1e-12)
    assert abs(value - 1 / 0.05) < 1.0
    for lam in (0.1, 0.25, 0.5):
        value, _, _ = lfunction.von_mangoldt_series(lam, 10**5)
        assert abs(value - 1 / lam) < 1.0
    with pytest.raises(DomainError):
        lfunction.von_mangoldt_series(0.0)


def test_balance_report_chi4():
    zeros = [
        complex(0.5, 6.0209489046975962),
        complex(0.5, -6.0209489046975962),
        complex(0.5, 10.243770304166563),
        complex(0.5, -10.243770304166563),
    ]
    rep = lfunction.explicit_formula_balance(
        CHI4, 0.25, 0.0, zeros, T_cover=11.0, n_max=2 * 10**5
    )
    assert rep.residual <= rep.zero_tail_bound + rep.lhs_tail_bound
    assert rep.mangoldt_gap < 1.0
    assert rep.zero_sum > 0


def test_balance_requires_coverage():
    with pytest.raises(CoverageError):
        lfunction.explicit_formula_balance(CHI4, 0.25, 0.0, [], T_cover=11.0)
    with pytest.raises(DomainError):
        lfunction.explicit_formula_balance(
            CHI4, 0.75, 0.0, [complex(0.5, 6.02)], T_cover=11.0
        )
