import csv
import io
import json
import math

import numpy as np
import pytest

from charzero import contour, dirichlet, harness, lfunction, zeros
from charzero.errors import (
    ContourError,
    ConvergenceError,
    CountMismatchError,
    CoverageError,
    DomainError,
    WindowError,
)

CHI4 = dirichlet.character(4, 3)

# reference low-lying ordinates for the conductor-4 odd character
CHI4_HEIGHTS = [6.0209489047, 10.2437703042, 12.9880980123, 16.3426071046, 18.2919931961]


def test_rectangle_and_disk_validation():
    with pytest.raises(DomainError):
        zeros.Rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        zeros.Rectangle(0.0, 1.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        zeros.Disk(center=1 + 0j, radius=-2.0)
    d = zeros.Disk(center=1 + 0j, radius=2.0)
    assert d.contains(0.5 + 1j)
    assert not d.contains(1 + 2.5j)


def test_count_zeros_chi4_prefix():
    assert zeros.count_zeros(CHI4, zeros.Rectangle(0, 1, 0, 5)) == 0
    assert zeros.count_zeros(CHI4, zeros.Rectangle(0, 1, 0, 7)) == 1
    assert zeros.count_zeros(CHI4, zeros.Rectangle(0, 1, 0, 11)) == 2
    assert zeros.count_zeros(CHI4, zeros.Rectangle(0, 1, -7, 7)) == 2


def test_locate_zeros_chi4():
    recs = zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, 20))
    assert len(recs) == len(CHI4_HEIGHTS)
    for r, want in zip(recs, CHI4_HEIGHTS):
        assert r.beta == pytest.approx(0.5, abs=1e-6)
        assert r.gamma == pytest.approx(want, abs=1e-6)
        assert r.residual < 1e-8
        assert r.q == 4 and r.conrey == 3


def test_locate_zeros_conjugate_mirror():
    chi = dirichlet.character(5, 2)
    up = zeros.locate_zeros(chi, zeros.Rectangle(0, 1, 0, 10))
    down = zeros.locate_zeros(chi.conjugate(), zeros.Rectangle(0, 1, -10, 0))
    assert len(up) == len(down)
    mirrored = sorted(-r.gamma for r in down)
    for got, want in zip(sorted(r.gamma for r in up), mirrored):
        assert got == pytest.approx(want, abs=1e-8)


def test_zero_density_per_unit_window():
    recs = zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, 20))
    for t0 in range(20):
        n = sum(1 for r in recs if t0 <= r.gamma <= t0 + 1)
        assert n <= 3 + math.log(4 * (2 + t0))


def test_requires_primitive():
    with pytest.raises(DomainError):
        zeros.count_zeros(dirichlet.character(8, 7), zeros.Rectangle(0, 1, 0, 5))
    with pytest.raises(DomainError):
        zeros.count_zeros(dirichlet.principal_character(4), zeros.Rectangle(0, 1, 0, 5))


def test_rect_outside_window():
    with pytest.raises(WindowError):
        zeros.count_zeros(CHI4, zeros.Rectangle(0, 1, 0, 80))


def test_zeros_to_csv_roundtrip():
    recs = zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, 12))
    text = harness.rows_to_csv(harness.report_dict(recs))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["q", "conrey", "beta", "gamma", "residual", "method"]
    assert len(rows) == len(recs) + 1
    for row, r in zip(rows[1:], recs):
        assert int(row[0]) == r.q and int(row[1]) == r.conrey
        assert float(row[2]) == r.beta  # repr round-trips exactly
        assert float(row[3]) == r.gamma


def _chi4_zero_list(t_max: float):
    recs = zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, t_max))
    # L(s, chi4) has real coefficients, so zeros mirror across the real axis
    mirrored = [
        zeros.ZeroRecord(
            q=r.q,
            conrey=r.conrey,
            beta=r.beta,
            gamma=-r.gamma,
            residual=r.residual,
            method=r.method,
        )
        for r in recs
    ]
    return recs + mirrored


def test_hadamard_ratio_small_lambda():
    zlist = _chi4_zero_list(25.0)
    rep = zeros.hadamard_ratio_check(CHI4, 1e-4, 0.0, zlist, T_cover=25.0)
    assert rep.log_gap <= 1e-2
    assert rep.lemma_ok


def test_hadamard_ratio_quarter():
    zlist = _chi4_zero_list(50.0)
    rep = zeros.hadamard_ratio_check(CHI4, 0.25, 0.0, zlist, T_cover=50.0)
    assert rep.log_gap <= 2.0
    assert rep.lemma_ok
    assert rep.lhs > 0 and rep.rhs > 0


def test_hadamard_coverage_guard():
    zlist = _chi4_zero_list(25.0)
    with pytest.raises(CoverageError):
        zeros.hadamard_ratio_check(CHI4, 0.25, 10.0, zlist, T_cover=25.0)
    with pytest.raises(DomainError):
        zeros.hadamard_ratio_check(CHI4, 0.75, 0.0, zlist, T_cover=25.0)


def test_zero_sum_functional_order_free():
    zlist = _chi4_zero_list(25.0)
    a = zeros.zero_sum_functional(CHI4, 0.25, 0.0, 0.0, zlist)
    b = zeros.zero_sum_functional(CHI4, 0.25, 0.0, 0.0, list(reversed(zlist)))
    assert a == pytest.approx(b, abs=1e-12)
    with_tail = zeros.zero_sum_functional(CHI4, 0.25, 0.0, 0.0, zlist, T_cover=25.0)
    assert with_tail > a
    with pytest.raises(DomainError):
        zeros.zero_sum_functional(CHI4, -0.1, 0.0, 0.0, zlist)
    with pytest.raises(CoverageError):
        zeros.zero_sum_functional(CHI4, 0.25, 0.0, 0.0, zlist, T_cover=0.0)


def test_zero_sum_shift_decreases():
    # pushing the evaluation point away from every zero shrinks the sum
    zlist = _chi4_zero_list(25.0)
    near = zeros.zero_sum_functional(CHI4, 0.25, 6.0, 0.0, zlist)
    far = zeros.zero_sum_functional(CHI4, 0.25, 40.0, 0.0, zlist)
    assert far < near


def test_disk_audit_chi4_desk_scale():
    rep = zeros.disk_count_audit(CHI4, 10.0, 2.0)
    assert rep.count == 0
    assert not rep.x_range_ok  # 10 > sqrt(4)
    assert rep.vacuous and rep.conclusion_ok is None
    assert rep.threshold_360 == pytest.approx(2.0 / 360.0)
    assert rep.threshold_400 == pytest.approx(2.0 / 400.0)
    d = harness.report_dict(rep)
    assert d["radius"] == pytest.approx(2.0 * math.log(4) / math.log(10.0) ** 2)
    assert d["vacuous"] is True


def test_disk_audit_q5_example():
    chi = dirichlet.character(5, 4)
    x = math.sqrt(5.0)
    rep = zeros.disk_count_audit(chi, x, math.log(x) / 2.0)
    assert rep.count == 0
    assert rep.vacuous


def test_disk_audit_zero_sum_reports_null_N():
    # chi4 summed over two whole periods is exactly 0, so N = x/|S| has no value
    rep = zeros.disk_count_audit(CHI4, 8.0, 1.0)
    assert rep.N is None
    assert not rep.N_ok and not rep.L_ok and rep.vacuous
    json.dumps(harness.report_dict(rep), allow_nan=False)


def test_disk_audit_window_guard():
    with pytest.raises(WindowError):
        zeros.disk_count_audit(CHI4, 10.0, 360.0)


def test_locate_zeros_empty_box_skips_scan(monkeypatch):
    # a winding count of 0 certifies the box empty: no line scan
    def fail(*args, **kwargs):
        raise AssertionError("scanned an empty box")

    monkeypatch.setattr(zeros, "_hardy_z", fail)
    for chi in (CHI4, dirichlet.character(51, 2)):
        for rect in (
            zeros.Rectangle(0.75, 1.0, -0.25, 0.25),
            zeros.Rectangle(0.0, 1.0, -0.25, 0.25),
        ):
            assert zeros.count_zeros(chi, rect) == 0
            assert zeros.locate_zeros(chi, rect) == []


def _closed_count(chi, rect):
    """Closed-contour winding count with count_zeros's outward perturbation
    (an even character's closed contour meets s = 0)."""
    ev = zeros.LEvaluator(chi)
    for attempt in range(6):
        try:
            r = rect.expand(attempt * zeros._PERTURB)
            return contour.winding_number(ev.xi_values, r.corners())
        except ContourError:
            pass
    raise AssertionError(f"closed contour unusable for {chi.q}.{chi.conrey}")


def test_half_count_matches_closed_winding():
    rect = zeros.Rectangle(0, 1, 0, 20)
    for q in range(3, 31):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        for chi, n in zip(family, zeros.count_zeros_family(family, rect)):
            assert n == zeros.count_zeros(chi, rect) == _closed_count(chi, rect), (q, chi.conrey)


def test_symmetric_count_stays_right_of_line(monkeypatch):
    seen = []
    family_xi = zeros.family_xi

    def recording(chars, s):
        seen.append(np.min(np.real(s)))
        return family_xi(chars, s)

    monkeypatch.setattr(zeros, "family_xi", recording)
    # 5.4 is even, so a closed contour through s = 0 would have to perturb
    for chi in (CHI4, dirichlet.character(5, 4), dirichlet.character(23, 9)):
        for rect in (zeros.Rectangle(0, 1, 0, 20), zeros.Rectangle(0.25, 0.75, -3, 12)):
            zeros.count_zeros(chi, rect)
    assert seen and min(seen) >= 0.5 - 6 * zeros._PERTURB


# boxes that span the strip, counted from their horizontal half edges; the
# third stays off |t| = 50 so that a perturbed retry stays in the window
STRIP_BOXES = (
    zeros.Rectangle(0, 1, 0, 20),
    zeros.Rectangle(0, 1, -20, -3),
    zeros.Rectangle(-0.5, 1.5, 30, 49.5),
    zeros.Rectangle(-0.2, 1.3, 2, 9),
)


def test_strip_count_matches_closed_winding():
    for q in range(3, 31):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        for rect in STRIP_BOXES:
            counts = zeros.count_zeros_family(family, rect)
            assert counts == [_closed_count(chi, rect) for chi in family], (q, rect)


def test_right_edge_closed_form_matches_tracking():
    # the change of arg xi along Re s = 2 from its two corners, against the
    # sampled change along that edge; and the premise |L - 1| <= zeta(2) - 1
    rng = np.random.default_rng(2027)
    for q in (5, 23, 101):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        for parity in (0, 1):
            chars = [chi for chi in family if chi.parity == parity]
            chi = chars[rng.integers(len(chars))]
            for _ in range(3):
                t1, t2 = np.sort(rng.uniform(-50, 50, 2))
                ends = np.array([complex(2, t1), complex(2, t2)])
                xi1, xi2 = zeros.family_xi([chi], ends)[0]
                exact = zeros._right_edge([chi], t1, t2, [xi1], [xi2])[0]
                sampled = contour.arg_change(lambda s: zeros.family_xi([chi], s)[0], ends)
                assert exact == pytest.approx(sampled, abs=1e-9), (q, chi.conrey, t1, t2)
                on_edge = 2 + 1j * np.concatenate([[t1, t2], np.linspace(t1, t2, 201)])
                lvals, _ = zeros.family_values([chi], on_edge)
                assert np.all(lvals.real >= 2 - math.pi**2 / 6 - 1e-12), (q, chi.conrey)


def test_strip_count_samples_horizontal_edges_only(monkeypatch):
    sizes, points = [], []
    family_xi = zeros.family_xi

    def recording(chars, s):
        sizes.append(np.size(s))
        points.append(np.asarray(s))
        return family_xi(chars, s)

    monkeypatch.setattr(zeros, "family_xi", recording)
    family = dirichlet.enumerate_characters(23, primitive_only=True)
    zeros.count_zeros_family(family, zeros.Rectangle(0, 1, 0, 20))
    # two half edges of length 3/2, each ceil(3/2 * 20) + 4 points
    assert sizes[0] == 68
    s = np.concatenate(points)
    assert np.all((s.imag == 0) | (s.imag == 20))
    assert np.all((0.5 <= s.real) & (s.real <= 2))
    sizes.clear()
    # the hypothesis box keeps its right half: three edges of length 1/2
    zeros.count_zeros_family(family, zeros.Rectangle(0, 1, -0.25, 0.25))
    assert sizes[0] == 42


def test_hardy_z_real_on_scan_points():
    ts = np.linspace(0.0, 20.0, 401)
    for q in range(3, 31):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        if not family:
            continue
        for chi, z in zip(family, zeros.hardy_z(family, ts)):
            assert np.all(np.abs(z.imag) <= 1e-9 * np.abs(z)), (q, chi.conrey)


def test_critical_line_matches_mpmath_findroot():
    mpmath = pytest.importorskip("mpmath")
    rect = zeros.Rectangle(0, 1, 0, 20)
    for q, conrey in ((4, 3), (5, 2), (23, 9), (24, 5)):
        chi = dirichlet.character(q, conrey)
        table = [mpmath.mpc(v.real, v.imag) for v in dirichlet.value_table(chi)]
        recs = zeros.locate_zeros(chi, rect)
        assert len(recs) == zeros.count_zeros(chi, rect)
        refs = []
        with mpmath.workdps(30):
            for r in recs:
                assert r.method == "critical-line" and r.beta == 0.5
                assert r.residual <= 1e-10
                g = mpmath.mpf(r.gamma)
                root = mpmath.findroot(
                    lambda t: mpmath.dirichlet(mpmath.mpf(1) / 2 + 1j * t, table),
                    (g, g + mpmath.mpf("1e-8")),
                )
                assert abs(mpmath.im(root)) <= 1e-12, (q, conrey, r.gamma)
                refs.append(float(mpmath.re(root)))
        # every located ordinate sits on its own zero of the reference L
        assert all(b - a > 1e-3 for a, b in zip(refs, refs[1:])), (q, conrey)
        for r, g in zip(recs, refs):
            assert abs(r.gamma - g) <= 1e-12, (q, conrey, r.gamma, g)


def test_coarse_line_scan_falls_back(monkeypatch):
    grids = []
    scan = zeros._scan

    def recording(panels, rows, ts):
        grids.append(len(ts))
        return scan(panels, rows, ts)

    monkeypatch.setattr(zeros, "_scan", recording)
    rect = zeros.Rectangle(0, 1, 0, 20)
    # the interpolant at five points 5 apart misses most of the five sign
    # changes; at nine points 2.5 apart it catches them all
    recs = zeros.locate_zeros(CHI4, rect, spacing=5.0)
    assert grids == [5, 9]
    assert len(recs) == len(CHI4_HEIGHTS)
    assert all(r.method == "critical-line" and r.beta == 0.5 for r in recs)
    for r, want in zip(recs, CHI4_HEIGHTS):
        assert r.gamma == pytest.approx(want, abs=1e-6)


def test_count_mismatch_on_line_raises_after_last_halving(monkeypatch):
    scans = []
    scan, count_family = zeros._scan, zeros.count_zeros_family

    def recording(panels, rows, ts):
        scans.append(len(ts))
        return scan(panels, rows, ts)

    monkeypatch.setattr(zeros, "_scan", recording)
    # one zero more than the line holds: no halving can account for it
    monkeypatch.setattr(
        zeros, "count_zeros_family", lambda chars, r: [n + 1 for n in count_family(chars, r)]
    )
    rect = zeros.Rectangle(0, 1, 0, 11)
    assert count_family([CHI4], rect) == [2]
    want = r"2 times .* winding count is 3 \(q=4, conrey=3"
    with pytest.raises(CountMismatchError, match=want):
        zeros.locate_zeros(CHI4, rect, spacing=0.5)
    # the scans at spacing 0.5, 0.25, ..., 0.5 / 2^_HALVINGS and nothing else
    assert scans == [22 * 2**k + 1 for k in range(zeros._HALVINGS + 1)]


def test_off_line_nonzero_count_raises_without_scan(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scanned the line of a box that does not straddle it")

    monkeypatch.setattr(zeros, "_hardy_z", fail)
    monkeypatch.setattr(zeros, "count_zeros_family", lambda chars, rect: [1] * len(chars))
    rect = zeros.Rectangle(0.75, 1.0, -0.25, 0.25)
    with pytest.raises(CountMismatchError, match=r"winding count is 1 .*q=4, conrey=3"):
        zeros.locate_zeros(CHI4, rect)


def test_off_line_box_never_calls_hardy_z(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scanned the line of a box that does not straddle it")

    monkeypatch.setattr(zeros, "_hardy_z", fail)
    for chi in (CHI4, dirichlet.character(51, 2)):
        assert zeros.locate_zeros(chi, zeros.Rectangle(0.75, 1.0, -2.0, 2.0)) == []


def test_edge_on_line_box_matches_straddling_box():
    # a box whose edge is the line holds the zeros on that edge, because its
    # count perturbs the contour outward off them; it reports exactly the
    # zeros of the box that straddles the line
    for q, conrey in ((4, 3), (5, 2), (23, 9), (51, 2)):
        chi = dirichlet.character(q, conrey)
        ref = zeros.locate_zeros(chi, zeros.Rectangle(0, 1, 0, 20))
        assert ref and all(r.method == "critical-line" for r in ref)
        for half in (zeros.Rectangle(0, 0.5, 0, 20), zeros.Rectangle(0.5, 1, 0, 20)):
            assert zeros.locate_zeros(chi, half) == ref, (q, conrey, half)


def test_locate_zeros_rejects_bad_spacing():
    for spacing in (0.0, -0.05, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="spacing"):
            zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, 20), spacing=spacing)


def _audit_rectangles(q):
    """The fixed-window and near-1 rectangles of the corollary audit at
    eps = 0.9 (harness._audit_modulus)."""
    eps = 0.9
    sigma_lo = 1.0 - 1.0 / (eps**8 * math.log(q))
    height = 1.0 / eps
    return (
        zeros.Rectangle(0.75, 1.0, -0.25, 0.25),
        zeros.Rectangle(max(1e-3, sigma_lo), 1.0, -height, height),
    )


def test_family_count_matches_per_character():
    for q in [*range(3, 21), 51, 52, 101]:
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        for rect in _audit_rectangles(q):
            counts = zeros.count_zeros_family(family, rect)
            assert counts == [zeros.count_zeros(chi, rect) for chi in family], (q, rect)
    assert zeros.count_zeros_family([], rect) == []


def test_family_count_perturbs_only_failed_rows(monkeypatch):
    # the closed contour of this box meets s = 0, where the even character
    # 5.4 has its trivial zero; the odd 5.2 and 5.3 count on the first try
    groups = []
    family_xi = zeros.family_xi

    def recording(chars, s):
        groups.append(tuple(chi.conrey for chi in chars))
        return family_xi(chars, s)

    monkeypatch.setattr(zeros, "family_xi", recording)
    family = dirichlet.enumerate_characters(5, primitive_only=True)
    rect = zeros.Rectangle(0, 0.9, 0, 5)
    counts = zeros.count_zeros_family(family, rect)
    assert counts == [_closed_count(chi, rect) for chi in family]
    assert groups[0] == (2, 3, 4) and set(groups) == {(2, 3, 4), (4,)}


def test_family_count_names_unusable_character(monkeypatch):
    family = dirichlet.enumerate_characters(7, primitive_only=True)
    family_xi = zeros.family_xi

    def broken(chars, s):
        out = family_xi(chars, s)
        out[[chi.conrey == 3 for chi in chars]] = np.nan
        return out

    monkeypatch.setattr(zeros, "family_xi", broken)
    with pytest.raises(ContourError, match=r"q=7, conrey=3"):
        zeros.count_zeros_family(family, zeros.Rectangle(0.75, 1.0, -0.25, 0.25))


def test_locate_family_matches_per_character(monkeypatch):
    calls, scans = [], []
    hardy_z, scan, count_family = zeros._hardy_z, zeros._scan, zeros.count_zeros_family

    def recording(chars, t, root_eps):
        calls.append(len(chars))
        return hardy_z(chars, t, root_eps)

    def scanning(panels, rows, ts):
        scans.append(len(rows))
        return scan(panels, rows, ts)

    monkeypatch.setattr(zeros, "_hardy_z", recording)
    monkeypatch.setattr(zeros, "_scan", scanning)
    rect = zeros.Rectangle(0, 1, 0, 20)
    partial = 0
    for q in (5, 23, 24, 51):
        family = dirichlet.enumerate_characters(q, primitive_only=True)
        for spacing in (0.05, 5.0):
            calls.clear()
            scans.clear()
            rows = zeros.locate_zeros_family(family, rect, spacing)
            # one node call and one per round of panel splits, whatever the
            # family size or the spacing
            assert 1 <= len(calls) <= 1 + zeros._SPLITS, (q, spacing)
            # a row whose scan matched is not scanned again
            partial += scans[-1] < scans[0]
            want = [zeros.locate_zeros(chi, rect, spacing) for chi in family]
            assert rows == want, (q, spacing)
    assert partial
    assert zeros.locate_zeros_family([], rect) == []
    # a count one row's line cannot account for names that row's character
    family = dirichlet.enumerate_characters(23, primitive_only=True)
    bad = family[5]

    def one_more(chars, rect):
        return [n + (chi is bad) for chi, n in zip(chars, count_family(chars, rect))]

    monkeypatch.setattr(zeros, "count_zeros_family", one_more)
    want = rf"winding count is \d+ \(q=23, conrey={bad.conrey},"
    with pytest.raises(CountMismatchError, match=want):
        zeros.locate_zeros_family(family, rect)


def test_locate_makes_one_node_call_and_one_residual_read(monkeypatch):
    # beyond its counts, a locate evaluates the kernel once at the panels'
    # nodes (no panel splits here) and once at the roots, however many zeros
    calls = []
    family_xi, family_values = zeros.family_xi, zeros.family_values

    def xi(chars, s):
        calls.append(("xi", np.size(s)))
        return family_xi(chars, s)

    def values(chars, s):
        calls.append(("values", np.size(s)))
        return family_values(chars, s)

    monkeypatch.setattr(zeros, "family_xi", xi)
    monkeypatch.setattr(zeros, "family_values", values)
    family = dirichlet.enumerate_characters(23, primitive_only=True)
    rect = zeros.Rectangle(0, 1, 0, 20)
    zeros.count_zeros_family(family, rect)
    counting = list(calls)
    calls.clear()
    rows = zeros.locate_zeros_family(family, rect)
    found = sum(map(len, rows))
    assert found > 10 * len(family)
    panels = math.ceil(20 / zeros._PANEL)
    assert calls == counting + [("xi", panels * zeros._NODES), ("values", found)]


def test_split_panels_match_unsplit(monkeypatch):
    # below the rounding floor of Z's values halving a panel does not lower
    # its tail, so the panels are made to split by sampling them too thinly
    rect = zeros.Rectangle(0, 1, 0, 20)
    family = dirichlet.enumerate_characters(23, primitive_only=True)
    want = zeros.locate_zeros_family(family, rect)
    calls = []
    hardy_z = zeros._hardy_z

    def recording(chars, t, root_eps):
        calls.append(np.size(t))
        return hardy_z(chars, t, root_eps)

    monkeypatch.setattr(zeros, "_hardy_z", recording)
    monkeypatch.setattr(zeros, "_NODES", zeros._MIN_NODES)
    got = zeros.locate_zeros_family(family, rect)
    assert 2 < len(calls) <= 1 + zeros._SPLITS
    for chi, g, w in zip(family, got, want):
        assert len(g) == len(w), chi.conrey
        for a, b in zip(g, w):
            assert abs(a.gamma - b.gamma) <= 1e-12, (chi.conrey, a.gamma, b.gamma)


def test_unsettled_split_names_character(monkeypatch):
    monkeypatch.setattr(zeros, "_TAIL_TOL", 0.0)
    with pytest.raises(ConvergenceError, match=r"4 halvings \(q=4, conrey=3\)"):
        zeros.locate_zeros(CHI4, zeros.Rectangle(0, 1, 0, 8))


def test_locate_q101_to_height_50_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rect = zeros.Rectangle(0, 1, 0, 50)
    family = dirichlet.enumerate_characters(101, primitive_only=True)
    rows = zeros.locate_zeros_family(family, rect)
    assert [len(r) for r in rows] == [zeros.count_zeros(chi, rect) for chi in family]
    # the top zero of every character, in its least resolved panel, against
    # mpmath's own L (float context)
    for chi, recs in zip(family, rows):
        table = [complex(v) for v in dirichlet.value_table(chi)]
        g = recs[-1].gamma
        root = mpmath.fp.findroot(
            lambda t: mpmath.fp.dirichlet(0.5 + 1j * t, table), (g, g + 1e-8)
        )
        assert abs(complex(root) - g) <= 1e-12, (chi.conrey, g, root)


def test_locate_forms_each_root_number_once():
    # the line scans and the root finder share one eps^(1/2) per located
    # character, so a family larger than gauss_sum's cache cannot evict its
    # own sums; the characters with an empty box need none
    family = dirichlet.enumerate_characters(97, primitive_only=True)
    dirichlet.gauss_sum.cache_clear()
    rows = zeros.locate_zeros_family(family, zeros.Rectangle(0, 1, 0, 2))
    located = sum(1 for recs in rows if recs)
    assert 0 < located < len(family)
    info = dirichlet.gauss_sum.cache_info()
    assert info.misses <= located
    assert info.hits + info.misses == located


def test_zero_identities_read_a_generator_like_a_list():
    chi = dirichlet.character(5, 2)
    recs = zeros.locate_zeros(chi, zeros.Rectangle(0, 1, -39.0, 41.0))
    for check in (zeros.hadamard_ratio_check, lfunction.explicit_formula_balance):
        want = check(chi, 0.3, 1.0, recs, T_cover=40.0)
        assert check(chi, 0.3, 1.0, (r for r in recs), T_cover=40.0) == want
        assert check(chi, 0.3, 1.0, iter(recs), T_cover=40.0) == want
