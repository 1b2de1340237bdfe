import json
import math

import pytest

from charzero import dirichlet, harness, multfn, spectral, zeros
from charzero.errors import CountMismatchError, DomainError

LEG5 = multfn.parse_function("char:5.4")


def test_constants_echo():
    c = harness.Constants()
    d = c.to_dict()
    assert set(d) == {"abs_c", "witness_c", "sum_bound_C", "version"}
    assert d["abs_c"] == 1.0
    assert d["witness_c"] == 3.0
    custom = harness.Constants(abs_c=2.0)
    assert custom.to_dict()["abs_c"] == 2.0


def test_scenario_config_validation():
    with pytest.raises(DomainError):
        harness.ScenarioConfig(q_min=5, q_max=3, eps=0.5)
    with pytest.raises(DomainError):
        harness.ScenarioConfig(q_min=0, q_max=3, eps=0.5)
    with pytest.raises(DomainError):
        harness.ScenarioConfig(q_min=3, q_max=5, eps=0.0)
    with pytest.raises(DomainError):
        harness.ScenarioConfig(q_min=3, q_max=5, eps=0.5, selector="nope")


def test_fixed_window_audit_small_family():
    cfg = harness.ScenarioConfig(q_min=3, q_max=8, eps=0.9)
    rep = harness.corollary_zero_budget_audit(cfg)
    assert rep.selector == "fixed-window"
    assert [(r.q, r.conrey) for r in rep.rows] == sorted(
        (r.q, r.conrey) for r in rep.rows
    )
    by_q = {}
    for r in rep.rows:
        by_q.setdefault(r.q, []).append(r)
        assert r.zero_count == 0  # no zeros that close to s = 1 at these q
        assert r.budget == 0
        assert r.budget_ok
        assert not r.vacuous
        assert r.s_abs <= r.x + 1e-9
    assert set(by_q) == {3, 4, 5, 7, 8}
    # eps = 0.9 fails the hypothesis eps > (log q)^{-1/3} only at q = 3
    assert all(not r.hypothesis_ok and r.conclusion_ok is None for r in by_q[3])
    for q in (4, 5, 7, 8):
        assert all(r.hypothesis_ok and r.conclusion_ok is True for r in by_q[q])


def test_twisted_window_audit():
    cfg = harness.ScenarioConfig(
        q_min=5, q_max=5, eps=0.9, T=1.0, selector="twisted-window"
    )
    rep = harness.corollary_zero_budget_audit(cfg)
    assert len(rep.rows) == 3
    for r in rep.rows:
        assert r.hypothesis_ok
        assert r.conclusion_ok is True
    # T above the admissible cap knocks the hypothesis out
    cfg2 = harness.ScenarioConfig(
        q_min=5, q_max=5, eps=0.9, T=30.0, selector="twisted-window"
    )
    rep2 = harness.corollary_zero_budget_audit(cfg2)
    assert all(not r.hypothesis_ok for r in rep2.rows)


def test_twisted_window_nonzero_count_raises(monkeypatch):
    # zeros in Re >= 3/4 lie off the critical line and cannot be located,
    # so a nonzero count leaves the worst window unknown
    monkeypatch.setattr(zeros, "count_zeros_family", lambda chars, rect: [1] * len(chars))
    cfg = harness.ScenarioConfig(
        q_min=5, q_max=5, eps=0.9, T=1.0, selector="twisted-window"
    )
    with pytest.raises(CountMismatchError) as err:
        harness.corollary_zero_budget_audit(cfg)
    rect = zeros.Rectangle(0.75, 1.0, -1.25, 1.25)
    assert str(err.value) == (
        f"winding count is 1 in a box off the critical line (q=5, conrey=2, rect={rect})"
    )


def test_audit_json_deterministic():
    cfg = harness.ScenarioConfig(q_min=3, q_max=5, eps=0.9)
    a = harness.to_json(harness.corollary_zero_budget_audit(cfg))
    b = harness.to_json(harness.corollary_zero_budget_audit(cfg))
    assert a == b
    payload = json.loads(a)
    assert payload["selector"] == "fixed-window"
    assert {row["q"] for row in payload["rows"]} == {3, 4, 5}
    keys = [(row["q"], row["conrey"]) for row in payload["rows"]]
    assert keys == sorted(keys)


def test_audit_counts_match_located_zeros():
    # rows read winding counts; locating the zeros of the same rectangles
    # (|L| grid scan and Newton wherever the count is nonzero) is a second
    # route to the same numbers.  The Re >= 3/4 windows hold no zeros here;
    # the near-1 rectangles reach the critical line, and some hold zeros.
    fixed = harness.ScenarioConfig(q_min=3, q_max=20, eps=0.9)
    twisted = harness.ScenarioConfig(
        q_min=5, q_max=7, eps=0.9, T=1.5, selector="twisted-window"
    )
    near_flags = []
    for cfg in (fixed, twisted):
        for r in harness.corollary_zero_budget_audit(cfg).rows:
            chi = dirichlet.character(r.q, r.conrey)
            span = 0.25 if cfg is fixed else cfg.T + 0.25
            rect = zeros.Rectangle(0.75, 1.0, -span, span)
            assert r.zero_count == len(zeros.locate_zeros(chi, rect))
            near_rect = zeros.Rectangle(
                max(1e-3, r.near_one_sigma), 1.0, -r.near_one_height, r.near_one_height
            )
            located_near = zeros.locate_zeros(chi, near_rect)
            assert r.near_one_has_zero == bool(located_near)
            near_flags.append(r.near_one_has_zero)
    # both outcomes of the near-1 count occur
    assert any(near_flags) and not all(near_flags)


def test_census_frozen_point():
    rep = harness.nonresidue_census(10007, 1.0)
    assert rep.count == 3
    assert rep.x == pytest.approx(10007**0.25, rel=1e-12)
    assert rep.density == pytest.approx(3 / 10007**0.25, rel=1e-12)
    assert rep.bound == pytest.approx(
        spectral.nonresidue_density_lower_bound(1.0) * rep.x, rel=1e-12
    )
    assert rep.bound_ok


def test_census_monotone_in_u():
    counts = [harness.nonresidue_census(101, u).count for u in (0.8, 0.9, 1.0)]
    assert counts == sorted(counts)


def test_census_validation_and_edge():
    with pytest.raises(DomainError):
        harness.nonresidue_census(100, 1.0)
    with pytest.raises(DomainError):
        harness.nonresidue_census(2, 1.0)
    edge = harness.nonresidue_census(101, math.exp(-0.5))
    assert edge.bound == pytest.approx(0.0, abs=1e-10)
    assert edge.bound_ok


def test_full_period_count():
    for q in (5, 13, 101, 10007):
        assert harness.full_period_nonresidue_count(q) == (q - 1) // 2
    with pytest.raises(DomainError):
        harness.full_period_nonresidue_count(100)


def test_product_search_legendre_square():
    rep = harness.product_large_sum_search(LEG5, LEG5, 1000.0, 1000.0, eta=0.05)
    # chi^2 kills only the prime 5: mean over n <= 1000 is exactly 4/5
    assert rep.product_mean_abs == pytest.approx(0.8, abs=1e-12)
    assert not rep.hypothesis_ok  # each factor's own mean is tiny
    assert rep.phi == pytest.approx(rep.phi1 + rep.phi2, abs=1e-12)
    assert rep.M_triangle >= 0
    assert rep.witness_mean_abs >= rep.restricted_mean_abs - 1e-12
    assert rep.restricted_y >= rep.x_lower * (1 - 1e-9)
    assert rep.label == "(char:5.4)*(char:5.4)"


def test_product_search_twist_cancellation():
    f1 = multfn.ArchimedeanTwist(0.5)
    f2 = multfn.ArchimedeanTwist(-0.5)
    rep = harness.product_large_sum_search(f1, f2, 2000.0, 2000.0, eta=0.5)
    assert rep.hypothesis_ok
    assert rep.phi == pytest.approx(0.0, abs=0.05)
    assert rep.product_mean_abs == pytest.approx(1.0, abs=1e-9)
    assert rep.mean_ok
    assert rep.witness_mean_abs >= rep.xi_report


def test_product_search_eta_validation():
    with pytest.raises(DomainError):
        harness.product_large_sum_search(LEG5, LEG5, 100.0, 100.0, eta=0.0)
    with pytest.raises(DomainError):
        harness.product_large_sum_search(LEG5, LEG5, 100.0, 100.0, eta=1.5)


def test_power_search_constant_one():
    one = multfn.ConstantOne()
    rep = harness.power_large_sum_search(one, 2000.0, k=2, eta=0.5)
    assert rep.hypothesis_ok
    assert rep.mean_ok
    assert rep.k == 2
    assert rep.xi_report == pytest.approx(0.5**8)
    assert rep.phi == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        harness.power_large_sum_search(one, 2000.0, k=0, eta=0.5)


def test_power_search_triangle_scaling():
    rep = harness.power_large_sum_search(LEG5, 2000.0, k=3, eta=0.05)
    d = multfn.find_phi_and_M(LEG5, 2000.0)
    t = multfn.distance(LEG5, multfn.ArchimedeanTwist(d.phi), 2000.0)
    assert rep.M_triangle == pytest.approx((3 * t) ** 2, rel=1e-12)
    assert rep.phi == pytest.approx(3 * d.phi, rel=1e-12)


def test_disk_count_experiment_q101():
    rep = harness.disk_count_experiment(101, 2, 10.0, L_grid=(0.5, 1.0, 2.0))
    assert rep.q == 101 and rep.conrey == 2
    assert rep.x_range_ok  # exp(sqrt(log 101)) ~ 8.6 <= 10 <= sqrt(101)*... no: 10 <= 10.05
    assert not rep.N_ok
    assert len(rep.rows) == 3
    assert all(row.vacuous for row in rep.rows)
    assert rep.phi_bound_first > 0
    d = harness.report_dict(rep)
    assert [r["L_param"] for r in d["rows"]] == [0.5, 1.0, 2.0]
    # nested rows keep their flat CSV columns, not an expanded `disk`
    assert "center_re" in d["rows"][0] and "disk" not in d["rows"][0]
    assert list(d)[:3] == ["q", "conrey", "x"]


def test_disk_count_experiment_high_order_no_overflow():
    rep = harness.disk_count_experiment(101, 3, 10.0, L_grid=(0.5,))
    assert rep.phi_bound_orderk == math.inf or rep.phi_bound_orderk > 0


def test_to_json_stable():
    s = harness.to_json({"b": 1.5, "a": 3})
    assert s.endswith("\n")
    payload = json.loads(s)
    assert payload["b"] == 1.5
    assert list(payload) == ["a", "b"]  # sorted keys


def test_report_dict_walks_dict_values():
    rep = harness.disk_count_experiment(101, 2, 10.0, L_grid=(0.5,))
    d = harness.report_dict({"exp": rep, "rows": [rep.rows[0]]})
    assert d["exp"] == harness.report_dict(rep)
    assert d["rows"][0] == harness.report_dict(rep.rows[0])
    assert json.loads(harness.to_json({"exp": rep}))["exp"]["rows"][0]["center_re"] == 1.0


def test_rows_to_csv():
    rows = [
        {"a": 1, "b": 2.5, "c": "x,y"},
        {"a": 2, "b": -1.0, "c": "plain"},
    ]
    text = harness.rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == '1,2.5,"x,y"'
    assert harness.rows_to_csv([]) == ""
