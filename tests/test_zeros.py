import csv
import io
import json
import math

import numpy as np
import pytest

from charzero import contour, dirichlet, harness, zeros
from charzero.errors import (
    ContourError,
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
    d = rep.to_dict()
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
    json.dumps(rep.to_dict(), allow_nan=False)


def test_disk_audit_window_guard():
    with pytest.raises(WindowError):
        zeros.disk_count_audit(CHI4, 10.0, 360.0)


def test_newton_batch_matches_single_seeds():
    ev = zeros.LEvaluator(CHI4)
    rect = zeros.Rectangle(0, 1, 0, 20)
    seeds = zeros._scan_candidates(ev, rect, 0.05)
    batch = zeros._newton_polish(ev, seeds, rect)
    assert sum(hit is not None for hit in batch) == len(CHI4_HEIGHTS)
    for seed, hit in zip(seeds, batch):
        (alone,) = zeros._newton_polish(ev, [seed], rect)
        assert (hit is None) == (alone is None)
        if hit is not None:
            assert abs(hit[0] - alone[0]) <= 1e-12
            assert hit[1] <= 1e-10


def test_newton_seed_leaving_box_is_dropped_alone():
    ev = zeros.LEvaluator(CHI4)
    rect = zeros.Rectangle(0, 1, 0, 20)
    seeds = zeros._scan_candidates(ev, rect, 0.05)
    # Newton heads for the trivial zero at s = -1, outside the box
    stray = complex(-0.25, 0.0)
    assert zeros._newton_polish(ev, [stray], rect) == [None]
    base = zeros._newton_polish(ev, seeds, rect)
    mixed = zeros._newton_polish(ev, seeds[:2] + [stray] + seeds[2:], rect)
    assert mixed[2] is None
    for want, got in zip(base, mixed[:2] + mixed[3:]):
        assert (want is None) == (got is None)
        if want is not None:
            assert abs(want[0] - got[0]) <= 1e-12


def test_locate_zeros_empty_box_skips_scan(monkeypatch):
    # a winding count of 0 certifies the box empty: no grid scan, no Newton
    def fail(*args, **kwargs):
        raise AssertionError("scanned an empty box")

    monkeypatch.setattr(zeros.LEvaluator, "grid", fail)
    monkeypatch.setattr(zeros, "_newton_polish", fail)
    rect = zeros.Rectangle(0.75, 1.0, -0.25, 0.25)
    for chi in (CHI4, dirichlet.character(51, 2)):
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
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            assert zeros.count_zeros(chi, rect) == _closed_count(chi, rect), (q, chi.conrey)


def test_symmetric_count_stays_right_of_line(monkeypatch):
    seen = []
    xi_values = zeros.LEvaluator.xi_values

    def recording(self, s):
        seen.append(np.min(np.real(s)))
        return xi_values(self, s)

    monkeypatch.setattr(zeros.LEvaluator, "xi_values", recording)
    # 5.4 is even, so a closed contour through s = 0 would have to perturb
    for chi in (CHI4, dirichlet.character(5, 4), dirichlet.character(23, 9)):
        for rect in (zeros.Rectangle(0, 1, 0, 20), zeros.Rectangle(0.25, 0.75, -3, 12)):
            zeros.count_zeros(chi, rect)
    assert seen and min(seen) >= 0.5 - 6 * zeros._PERTURB


def test_hardy_z_real_on_scan_points():
    ts = np.linspace(0.0, 20.0, 401)
    for q in range(3, 31):
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            z = zeros.hardy_z(chi, ts)
            assert np.all(np.abs(z.imag) <= 1e-9 * np.abs(z)), (q, chi.conrey)


def test_critical_line_matches_grid_newton():
    rect = zeros.Rectangle(0, 1, 0, 20)
    for q, conrey in ((4, 3), (5, 2), (23, 9), (24, 5)):
        chi = dirichlet.character(q, conrey)
        recs = zeros.locate_zeros(chi, rect)
        ref = zeros._locate_at_spacing(chi, zeros.LEvaluator(chi), rect, 0.05)
        assert len(recs) == len(ref) == zeros.count_zeros(chi, rect)
        for r, g in zip(recs, ref):
            assert r.method == "critical-line" and r.beta == 0.5
            assert abs(r.gamma - g.gamma) <= 1e-12
            assert r.residual <= 1e-10


def test_coarse_line_scan_falls_back(monkeypatch):
    calls = []
    hardy_z = zeros.hardy_z

    def counting(chi, t):
        calls.append(np.size(t))
        return hardy_z(chi, t)

    monkeypatch.setattr(zeros, "hardy_z", counting)
    rect = zeros.Rectangle(0, 1, 0, 20)
    # five points 5 apart miss most of the five sign changes
    recs = zeros.locate_zeros(CHI4, rect, spacing=5.0)
    assert calls == [5]
    assert len(recs) == len(CHI4_HEIGHTS)
    assert all(r.method == "grid+newton" for r in recs)
    for r, want in zip(recs, CHI4_HEIGHTS):
        assert r.gamma == pytest.approx(want, abs=1e-6)


def test_off_line_box_never_calls_hardy_z(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scanned the line of a box that does not straddle it")

    monkeypatch.setattr(zeros, "hardy_z", fail)
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
