import cmath
import inspect
import math

import numpy as np
import pytest

from charzero import dirichlet, lfunction, multfn
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


def _em_hurwitz(s, a, N, B):
    """(zeta(s, a) - 1/(s - 1), bound) from the kernel at shift N, depth B."""
    rows, bound = lfunction._em_sum(np.array([s]), np.array([a]), N, B)
    return complex(rows[0, 0]), float(bound[0])


def test_error_bound_honesty():
    # a refined evaluation must stay inside the coarse run's reported bound
    rng = np.random.default_rng(20260814)
    for _ in range(40):
        s = complex(rng.uniform(-1, 3), rng.uniform(-20, 20))
        a = float(rng.uniform(0.05, 1.0))
        if abs(s - 1) < 0.1:
            continue
        v1, b1 = _em_hurwitz(s, a, 32, 8)
        v2, _ = _em_hurwitz(s, a, 200, 24)
        assert abs(v1 - v2) <= b1 + 1e-11


def test_one_kernel_configuration_and_window():
    # one shift rule and one Bernoulli depth serve every entry point.  Each
    # point's N is the least multiple of 8 (at least 8) whose per-unit
    # remainder bound |B_32/32!| |(s)_32| N^-(sigma+31) / (sigma+31) meets
    # the target
    rng = np.random.default_rng(20261101)
    pts = rng.uniform(-1, 3, 200) + 1j * rng.uniform(-50, 50, 200)
    pts = np.concatenate([pts, [-1.0, 0.0, 0.5, 3.0, -1 + 50j, 3 - 50j]])
    c = abs(lfunction._BERN_OVER_FACT[lfunction._BERNOULLI + 2])

    def unit_bound(s, n):
        d = s.real + lfunction._BERNOULLI + 1
        poch = math.prod(abs(s + k) for k in range(lfunction._BERNOULLI + 2))
        return c * poch * n ** -d / d

    shifts = lfunction._shift_n(pts)
    for s, n in zip(pts, shifts.tolist()):
        assert n >= 8 and n % 8 == 0
        assert unit_bound(s, n) <= lfunction._TARGET
        assert n == 8 or unit_bound(s, n - 8) > lfunction._TARGET
    for s, a in ((2.0 + 0j, 1.0), (0.3 - 31.7j, 0.25), (-0.5 + 44j, 0.9)):
        val, bound = lfunction.hurwitz_zeta(s, a)
        ref, ref_b = _em_hurwitz(s, a, lfunction._shift_n(s), lfunction._BERNOULLI)
        assert val == ref + 1.0 / (s - 1.0) and bound == ref_b
    assert list(inspect.signature(lfunction.LEvaluator).parameters) == ["chi"]
    assert list(inspect.signature(lfunction.hurwitz_zeta).parameters) == ["s", "a"]
    # the window is fixed, and its error names it in full
    msg = "point (4+0j) lies outside the window Window(t_max=50.0, sigma_min=-1.0, sigma_max=3.0)"
    with pytest.raises(WindowError) as err:
        lfunction.LEvaluator(CHI4).values(4.0 + 0j)
    assert str(err.value) == msg


def test_kernel_terms_match_direct_powers():
    # for every q <= 200 and every shift N the window needs, the main-sum
    # terms built by multiplicativity (one exp per prime m, one product per
    # composite m) agree with exp(-s log m) at every m = nq + a within
    # 8 eps (1 + |s| log m) relative: both sides round -s log m, and each
    # product adds the rounding of its factors and its own
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261020)
    sig, t = np.meshgrid(np.linspace(-1, 3, 9), np.linspace(-50, 50, 21))
    n_max = int(lfunction._shift_n((sig + 1j * t).ravel()).max())
    assert n_max >= 40
    for q in range(1, 201):
        units = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        for n in range(8, n_max + 1, 8):
            s = rng.uniform(-1, 3, 3) + 1j * rng.uniform(-50, 50, 3)
            table = lfunction._terms(lfunction._modulus_plan(q, n), s)
            m = (np.arange(n)[:, None] * q + units).ravel()
            ref = np.exp(-np.multiply.outer(np.log(m), s))
            tol = 8 * eps * (1 + np.abs(s) * np.log(m)[:, None]) * np.abs(ref)
            assert np.all(np.abs(table - ref) <= tol), (q, n)


def test_hurwitz_matches_family_rows():
    # hurwitz_zeta(s, a/q), whose terms are all exps, against the family
    # path's row for each unit a, which carries q^-s: they agree within both
    # remainder bounds plus 4 eps (1 + |s| log Nq) times the sum of the
    # main-sum terms' moduli
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261021)
    for q in (1, 2, 12, 60, 97, 128, 200):
        xs, _ = lfunction._character_table([dirichlet.principal_character(q)])
        s = rng.uniform(-1, 3, 2) + 1j * rng.uniform(-50, 50, 2)
        N = lfunction._shift_n(s)
        rows, bound = lfunction._em_sum(s, xs, N, lfunction._BERNOULLI, q)
        for i, pt in enumerate(s):
            qfac = np.exp(-pt * math.log(q))
            for j, x in enumerate(xs):
                val, b = lfunction.hurwitz_zeta(pt, x)
                m = np.arange(N[i]) * q + round(x * q)
                size = np.sum(m ** -pt.real)
                slack = 4 * eps * (1 + abs(pt) * math.log(N[i] * q)) * size
                err = abs(rows[i, j] - qfac * (val - 1 / (pt - 1)))
                assert err <= bound[i] + abs(qfac) * b + slack, (q, pt, x)


def test_l_known_values():
    val, bound = lfunction.LEvaluator(CHI4).values(2.0)
    assert val.real == pytest.approx(CATALAN, abs=1e-12)
    assert bound < 1e-9
    val, _ = lfunction.LEvaluator(CHI4).values(1.0)
    assert val.real == pytest.approx(math.pi / 4, abs=1e-12)
    chi0 = dirichlet.principal_character(6)
    val, _ = lfunction.LEvaluator(chi0).values(2.0)
    assert val.real == pytest.approx(math.pi**2 / 9, abs=1e-11)


def test_l_principal_pole():
    chi0 = dirichlet.principal_character(6)
    with pytest.raises(PoleError):
        lfunction.LEvaluator(chi0).values(1.0)
    # residue: (s-1) L(s) -> phi(q)/q as s -> 1
    eps = 1e-7
    val, _ = lfunction.LEvaluator(chi0).values(1.0 + eps)
    assert eps * val.real == pytest.approx(2 / 6, abs=1e-6)


def test_l_against_direct_series():
    rng = np.random.default_rng(11)
    for q in (3, 4, 20, 47, 100):
        chars = dirichlet.enumerate_characters(q)
        chi = chars[int(rng.integers(len(chars)))]
        ev = lfunction.LEvaluator(chi)
        for _ in range(4):
            s = complex(rng.uniform(2.0, 3.0), rng.uniform(-20, 20))
            lv, lb = ev.values(s)
            sv, st = multfn.truncated_F(multfn.CharacterFunction(chi), s, 200000)
            assert abs(lv - sv) <= lb + st


def test_l_conjugation_symmetry():
    ev = lfunction.LEvaluator(dirichlet.character(7, 3))
    ev_bar = lfunction.LEvaluator(dirichlet.character(7, 3).conjugate())
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = complex(rng.uniform(-1, 3), rng.uniform(-45, 45))
        a, _ = ev.values(s)
        b, _ = ev_bar.values(s.conjugate())
        assert b == pytest.approx(a.conjugate(), abs=1e-11 * max(1, abs(a)))


def test_values_batch_spanning_chunks_matches_pointwise():
    rng = np.random.default_rng(20261018)
    s = rng.uniform(-1, 3, 400) + 1j * rng.uniform(-20, 20, 400)
    for q, conrey in ((101, 2), (5, 2), (23, 5), (60, 7)):
        chi = dirichlet.character(q, conrey)
        ev = lfunction.LEvaluator(chi)
        if q == 101:
            # 100 shifts per point: the batch spans two _contract blocks of
            # 327 points.  In the first, _shift_n gives N = 8, 16 and 24 (10,
            # 291 and 26 points); the N = 16 and 24 groups each span more
            # than one _em_sum block of _CHUNK // (100 N) points, and the
            # N = 8 group fits in one block of 40
            step = lfunction._CHUNK // (q - 1)
            assert len(s) > step
            N = lfunction._shift_n(s[:step])
            spans = {
                int(n): np.count_nonzero(N == n) > lfunction._CHUNK // (n * (q - 1))
                for n in np.unique(N)
            }
            assert spans == {8: False, 16: True, 24: True}
        vals, bounds = ev.values(s)
        for pt, val, bnd in zip(s, vals, bounds):
            assert ev.values(complex(pt)) == (val, bnd)
        # the same values from a family call over every character mod q
        family = dirichlet.enumerate_characters(q)
        fam_vals, fam_bounds = lfunction.family_values(family, s)
        assert fam_vals.shape == (len(family), len(s))
        row = [c.conrey for c in family].index(conrey)
        assert np.array_equal(fam_vals[row], vals)
        assert np.array_equal(fam_bounds, bounds)


def test_values_independent_of_batch():
    # a point's value and bound are the same bits alone, beside any other
    # points of the window, and in a family row; 0.5 + 40j needs a larger
    # shift than 0.5 + 5j
    rng = np.random.default_rng(20261102)
    s = rng.uniform(-1, 3, 60) + 1j * rng.uniform(-50, 50, 60)
    s = np.concatenate([[0.5 + 5j, 0.5 + 40j], s])
    for q, conrey in ((7, 3), (23, 5), (60, 7)):
        chi = dirichlet.character(q, conrey)
        ev = lfunction.LEvaluator(chi)
        vals, bounds = ev.values(s)
        family = dirichlet.enumerate_characters(q)
        fam_vals, fam_bounds = lfunction.family_values(family, s)
        row = [c.conrey for c in family].index(conrey)
        for k, pt in enumerate(s):
            alone, alone_b = ev.values(complex(pt))
            assert (vals[k], bounds[k]) == (alone, alone_b), pt
            assert (fam_vals[row, k], fam_bounds[k]) == (alone, alone_b), pt
        # every bound stays under phi(q) _TARGET per unit, scaled by |q^-s|
        cap = (q - 1) * lfunction._TARGET * np.abs(np.exp(-s * math.log(q)))
        assert np.all(bounds <= cap)


def test_family_xi_matches_evaluator():
    rng = np.random.default_rng(20261019)
    s = rng.uniform(-0.9, 1.9, 200) + 1j * rng.uniform(-30, 30, 200)
    for q in (5, 12, 43):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        xi = lfunction.family_xi(family, s)
        for chi, row in zip(family, xi):
            assert np.array_equal(row, lfunction.LEvaluator(chi).xi_values(s))
    with pytest.raises(DomainError):
        lfunction.family_xi(dirichlet.enumerate_characters(8), s)  # imprimitive
    with pytest.raises(DomainError):
        lfunction.family_values([CHI4, LEG5], s)  # two moduli
    with pytest.raises(WindowError):
        lfunction.family_values([CHI4], np.array([4.0 + 0j]))


def test_paired_read_is_the_diagonal():
    # each point read with its own character only, bit for bit the entry of
    # the full read; 500 points of q = 47 make one kernel block
    rng = np.random.default_rng(20261021)
    for q, n in ((12, 40), (47, 500), (101, 900)):
        family = dirichlet.enumerate_characters(q)
        s = rng.uniform(-1, 3, n) + 1j * rng.uniform(-50, 50, n)
        row = rng.integers(len(family), size=n)
        full, bounds = lfunction.family_values(family, s)
        vals, paired_bounds = lfunction.family_values(lfunction.Paired(family, row), s)
        assert np.array_equal(vals, full[row, np.arange(n)]), q
        assert np.array_equal(paired_bounds, bounds), q
    family = dirichlet.enumerate_characters(12)
    principal = [chi.is_principal for chi in family].index(True)
    at_one = np.array([1.0 + 0j, 2.0 + 0j])
    other = 1 - principal  # q = 12 has one principal character among four
    lfunction.family_values(lfunction.Paired(family, [other, principal]), at_one)
    with pytest.raises(PoleError):
        lfunction.family_values(lfunction.Paired(family, [principal, 0]), at_one)
    for names in ([0], [0, -1], [0, len(family)]):
        with pytest.raises(DomainError):
            lfunction.family_values(lfunction.Paired(family, names), at_one)


def test_family_memory_stays_chunked():
    # 209 characters mod 211 at 500 points: besides its outputs and the
    # character table, a family evaluation holds at most 8 temporaries of
    # _CHUNK entries at a time (it needs about 6); one (points x units)
    # array, 3.2 such chunks here, would not fit
    tracemalloc = pytest.importorskip("tracemalloc")
    family = dirichlet.enumerate_characters(211, primitive_only=True)
    assert len(family) == 209
    s = 0.5 + 1j * np.linspace(-20.0, 20.0, 500)
    lfunction.family_xi(family, s[:2])  # fill the value-table caches
    out_bytes = 16 * len(family) * len(s) + 8 * len(s)
    table_bytes = 16 * len(family) * 210
    for fn in (lfunction.family_values, lfunction.family_xi):
        tracemalloc.start()
        try:
            fn(family, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + table_bytes + 8 * 16 * lfunction._CHUNK, (fn, peak)


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


def test_values_left_half_plane_match_mpmath():
    # the main sum cancels against the tail at sigma < 0, more for a longer
    # sum; each tolerance is 1.25 times the worst error measured on this draw.
    # The reference is L = q^-s sum_a chi(a) zeta(s, a/q) from mpmath's
    # Hurwitz zeta, which is what mpmath.dirichlet sums, at a few ms a point
    # where mpmath.dirichlet takes a second
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261103)
    with mpmath.workdps(30):
        for q, conrey, tol in ((7, 5, 2.9e-13), (23, 5, 8.5e-12)):
            chi = dirichlet.character(q, conrey)
            table = dirichlet.value_table(chi)
            s = rng.uniform(-1, -0.5, 12) + 1j * rng.uniform(-3, 3, 12)
            vals, _ = lfunction.LEvaluator(chi).values(s)
            for pt, val in zip(s, vals):
                sm = mpmath.mpc(pt.real, pt.imag)
                ref = complex(
                    mpmath.power(q, -sm)
                    * mpmath.fsum(
                        mpmath.mpc(table[a].real, table[a].imag)
                        * mpmath.zeta(sm, mpmath.mpf(a) / q)
                        for a in range(1, q)
                        if table[a] != 0
                    )
                )
                assert abs(val - ref) <= tol * abs(ref), (q, conrey, pt)


def test_values_near_one_and_left_edge_match_mpmath():
    # near s = 1 the tail's ((N + x)^(1-s) - 1)/(s - 1) comes from expm1,
    # and at s = 1 from its limit -log(N + x); sigma = -1 is the window's
    # edge.  The reference sums chi(a) (zeta(s, a/q) - 1/(s - 1)), and
    # -digamma(a/q) at s = 1, so the float table's sum, 1e-16 off 0, adds
    # no pole term
    mpmath = pytest.importorskip("mpmath")

    def reference(chi, pt):
        table = dirichlet.value_table(chi)
        with mpmath.workdps(30):
            sm = mpmath.mpc(pt.real, pt.imag)
            total = mpmath.fsum(
                mpmath.mpc(table[a].real, table[a].imag)
                * (
                    -mpmath.digamma(mpmath.mpf(a) / chi.q)
                    if pt == 1
                    else mpmath.zeta(sm, mpmath.mpf(a) / chi.q) - 1 / (sm - 1)
                )
                for a in range(1, chi.q)
                if table[a] != 0
            )
            return complex(mpmath.power(chi.q, -sm) * total)

    near_one = np.array([1, 1 + 1e-9, 1 - 1e-9j, 1 + 5e-10 - 7e-10j, 1 - 1e-10])
    left = np.array([-1, -1 + 0.5j, -1 - 2.7j, -0.99, -0.99 + 1.3j, -0.99 - 0.05j])
    # the tolerances of the two oracle tests above; L(-1) = 0 for odd chi
    for (q, conrey), pts, tol in (
        ((4, 3), near_one, 1e-11),
        ((7, 3), near_one, 1e-11),
        ((23, 5), near_one, 1e-11),
        ((7, 5), left, 2.9e-13),
        ((23, 5), left, 8.5e-12),
    ):
        chi = dirichlet.character(q, conrey)
        vals, _ = lfunction.LEvaluator(chi).values(pts)
        for pt, val in zip(pts, vals):
            ref = reference(chi, pt)
            assert abs(val - ref) <= tol * max(1, abs(ref)), (q, conrey, pt)


def test_gamma_factor_matches_mpmath():
    # the factor (q/pi)^((s+a)/2) Gamma((s+a)/2) that turns L into xi, read
    # back as xi / L for every primitive character, over the whole window
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    worst = 0.0
    with mpmath.workdps(30):
        for q in (3, 4, 5, 7, 8, 23, 24, 41, 101):
            chars = dirichlet.enumerate_characters(q, primitive_only=True)
            s = rng.uniform(-1, 3, 24) + 1j * rng.uniform(-50, 50, 24)
            lvals, _ = lfunction.family_values(chars, s)
            factors = lfunction.family_xi(chars, s) / lvals
            for parity in {chi.parity for chi in chars}:
                zs = [(mpmath.mpc(pt.real, pt.imag) + parity) / 2 for pt in s]
                ref = np.array(
                    [complex(mpmath.power(q / mpmath.pi, z) * mpmath.gamma(z)) for z in zs]
                )
                rows = factors[[chi.parity == parity for chi in chars]]
                worst = max(worst, float(np.max(np.abs(rows - ref) / np.abs(ref))))
    assert worst <= 5e-14, worst


def test_window_enforced():
    ev = lfunction.LEvaluator(CHI4)
    with pytest.raises(WindowError):
        ev.values(4.0 + 0j)
    with pytest.raises(WindowError):
        ev.values(0.5 + 51j)
    # a batch names its first point outside the window; NaN is outside
    batch = np.array([0.5 + 1j, 0.5 + 60j, complex(math.nan, 0.0), 4.0 + 0j])
    with pytest.raises(WindowError, match=r"point \(0\.5\+60j\)"):
        ev.values(batch)
    with pytest.raises(WindowError, match="nan"):
        ev.values(np.array([0.5 + 1j, complex(math.nan, 2.0)]))


def test_xi_functional_equation_magnitudes():
    rng = np.random.default_rng(20260814)
    for q, conrey in ((4, 3), (5, 2), (7, 3), (12, 11)):
        chi = dirichlet.character(q, conrey)
        ev = lfunction.LEvaluator(chi)
        ev_bar = lfunction.LEvaluator(chi.conjugate())
        for _ in range(20):
            s = complex(rng.uniform(-0.8, 1.8), rng.uniform(-30, 30))
            x1 = ev.xi_values(s)
            assert abs(x1) == pytest.approx(
                abs(ev_bar.xi_values(1 - s)), rel=1e-8
            )
            assert abs(x1) == pytest.approx(
                abs(ev.xi_values(1 - s.conjugate())), rel=1e-8
            )


def test_xi_rejects_imprimitive():
    with pytest.raises(DomainError):
        lfunction.LEvaluator(dirichlet.character(8, 7)).xi_values(0.5)  # conductor 4
    with pytest.raises(DomainError):
        lfunction.LEvaluator(dirichlet.principal_character(3)).xi_values(0.5)


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


def test_family_beyond_the_old_table_cache_matches_evaluator():
    # 855 primitive characters mod 1003, more than value_table's cache holds
    family = dirichlet.enumerate_characters(1003, primitive_only=True)
    assert len(family) == 855
    s = np.array([0.5 + 0.1j, 0.75 - 3.0j, 2.0 + 14.0j])
    vals, bounds = lfunction.family_values(family, s)
    for chi, row in zip(family, vals):
        want, want_bounds = lfunction.LEvaluator(chi).values(s)
        assert np.array_equal(row, want) and np.array_equal(bounds, want_bounds)
