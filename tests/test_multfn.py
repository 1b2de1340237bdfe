import cmath
import math

import numpy as np
import pytest

from charzero import dirichlet, harness, multfn, sieve
from charzero.errors import DomainError, SieveLimitError

ONE = multfn.ConstantOne()
LEG5 = multfn.CharacterFunction(dirichlet.character(5, 4))


def test_values_completely_multiplicative():
    rng = np.random.default_rng(20260814)
    funcs = [
        ONE,
        multfn.ArchimedeanTwist(0.7),
        LEG5,
        multfn.RandomPMFunction(seed=42),
        multfn.TwistedFunction(LEG5, -1.3),
        multfn.ProductFunction(LEG5, multfn.ArchimedeanTwist(0.2)),
        multfn.PowerFunction(LEG5, 3),
        multfn.ProductFunction(multfn.RandomPMFunction(7), LEG5),
    ]
    cases = [(f, 5000) for f in funcs]
    # a complex base past 16,384 entries, where numpy's temporary elision
    # would swap the operands of a `*` product (which rounds by their order)
    chi73 = multfn.CharacterFunction(dirichlet.character(7, 3))
    cases.append((multfn.TwistedFunction(chi73, -1.3), 3 * 10**5))
    for f, x in cases:
        ps = sieve.primes_up_to(x)
        vals = f.values_up_to(x)
        assert np.array_equal(vals[ps], f.prime_values(ps))
        assert vals[1] == pytest.approx(1, abs=1e-14)
        for _ in range(60):
            m = int(rng.integers(2, 70))
            n = int(rng.integers(2, 70))
            assert vals[m * n] == pytest.approx(vals[m] * vals[n], abs=1e-12)
        assert np.all(np.abs(vals[1:]) <= 1 + 1e-12)


def test_archimedean_twist_values():
    f = multfn.ArchimedeanTwist(0.5)
    vals = f.values_up_to(10)
    for n in range(1, 11):
        assert vals[n] == pytest.approx(cmath.exp(0.5j * math.log(n)), abs=1e-14)


def test_randpm_deterministic_and_pm1():
    a = multfn.RandomPMFunction(seed=9).values_up_to(2000)
    b = multfn.RandomPMFunction(seed=9).values_up_to(2000)
    assert np.array_equal(a, b)
    c = multfn.RandomPMFunction(seed=10).values_up_to(2000)
    assert not np.array_equal(a, c)
    ps = sieve.primes_up_to(2000)
    pv = multfn.RandomPMFunction(seed=9).prime_values(ps)
    assert set(np.unique(pv.real)) <= {-1.0, 1.0}
    assert np.allclose(pv.imag, 0)


def test_parse_function_specs():
    assert isinstance(multfn.parse_function("one"), multfn.ConstantOne)
    f = multfn.parse_function("ntoi:0.5")
    assert isinstance(f, multfn.ArchimedeanTwist)
    g = multfn.parse_function("char:5.4")
    assert isinstance(g, multfn.CharacterFunction)
    assert isinstance(multfn.parse_function("randpm:3"), multfn.RandomPMFunction)
    with pytest.raises(DomainError):
        multfn.parse_function("zeta")


def test_mean_value_one():
    assert multfn.mean_value(ONE, 1000.0) == pytest.approx(1.0, abs=1e-12)
    assert multfn.mean_value(ONE, 1000.5).real == pytest.approx(
        1000 / 1000.5, abs=1e-12
    )


def test_mean_value_memory_stays_blocked():
    # an n^{i alpha} block needs its int64 n and two complex temporaries;
    # one array over all 2^21 + 5 terms, 2 blocks of complex, would not fit
    tracemalloc = pytest.importorskip("tracemalloc")
    f = multfn.ArchimedeanTwist(1.0)
    tracemalloc.start()
    try:
        multfn.mean_value(f, 2**21 + 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * dirichlet._BLOCK, peak


def test_block_sums_match_partial_sums_and_cumsum():
    # past one block: the character mean is partial_sum's block sum, and the
    # witness prefix sums carry across blocks exactly as one cumsum does
    chi = dirichlet.character(7, 3)
    x = dirichlet._BLOCK + 4321.0
    assert multfn.mean_value(multfn.CharacterFunction(chi), x) == (
        dirichlet.partial_sum(chi, x).value / x
    )
    f = multfn.ArchimedeanTwist(1.0)
    data = multfn.HalaszData(x=x, phi=0.0, M=0.25, grid_trace=[])
    rep = multfn.large_mean_witness(f, x, data=data, y_min=dirichlet._BLOCK + 1.0)
    assert rep.y > dirichlet._BLOCK
    assert rep.mean == np.cumsum(f.values_up_to(x))[int(rep.y)] / rep.y


def test_twisted_partial_sum_is_the_twist_block_sum():
    # a twisted partial sum is the block sum of the twisted character's
    # values, bit for bit, below and past numpy's 16,384-entry elision size
    chi = dirichlet.character(7, 3)
    f = multfn.TwistedFunction(multfn.CharacterFunction(chi), -1.3)
    for x in (1000, 16383, 16384, 10**5):
        got = dirichlet.twisted_partial_sum(chi, -1.3, x).value
        assert got == dirichlet._blocked_sum(f.values_at, x), x


def test_distance_hand_value():
    # primes 2, 3, 7 are nonresidues mod 5: term 2/p each; residue primes drop
    got = multfn.distance_sq(ONE, LEG5, 10.0)
    assert got == pytest.approx(1 + 2 / 3 + 1 / 5 + 2 / 7, abs=1e-12)
    assert got == pytest.approx(2.1523809523809523, abs=1e-15)


def test_distance_symmetry_and_self():
    for x in (50.0, 800.0):
        assert multfn.distance_sq(ONE, LEG5, x) == multfn.distance_sq(LEG5, ONE, x)
    assert multfn.distance_sq(LEG5, LEG5, 1000.0) == 0.0
    twist = multfn.ArchimedeanTwist(0.3)
    d = multfn.distance_sq(twist, twist, 500.0)
    assert d == 0.0


def test_distance_monotone_in_x():
    xs = [10.0, 100.0, 1000.0, 10000.0]
    ds = [multfn.distance_sq(ONE, LEG5, x) for x in xs]
    assert all(a <= b + 1e-15 for a, b in zip(ds, ds[1:]))


def test_triangle_inequality_seeded():
    rng = np.random.default_rng(20260814)
    pool = [
        ONE,
        LEG5,
        multfn.ArchimedeanTwist(0.5),
        multfn.ArchimedeanTwist(-1.1),
        multfn.RandomPMFunction(seed=1),
        multfn.RandomPMFunction(seed=2),
        multfn.CharacterFunction(dirichlet.character(7, 3)),
        multfn.TwistedFunction(LEG5, 0.4),
    ]
    x = 1000.0
    for _ in range(1000):
        f, g, h = (pool[int(i)] for i in rng.integers(0, len(pool), size=3))
        lhs = multfn.distance(f, h, x)
        rhs = multfn.distance(f, g, x) + multfn.distance(g, h, x)
        assert lhs <= rhs + 1e-12


def test_truncated_F_zeta():
    val, tail = multfn.truncated_F(ONE, 2.0, 10**5)
    assert abs(val - math.pi**2 / 6) <= tail
    with pytest.raises(DomainError):
        multfn.truncated_F(ONE, 1.0, 100)


def test_truncated_F_geometric():
    # supported on powers of 2 only: F(s) = 1/(1 - 2^{-s})
    class TwoOnly(multfn.CompletelyMultiplicativeFunction):
        limit = 10**6

        def prime_values(self, primes):
            return (primes == 2).astype(np.complex128)

    f = TwoOnly()
    val, tail = multfn.truncated_F(f, 3.0, 2**14)
    assert val == pytest.approx(1 / (1 - 2**-3.0), abs=1e-12)


def test_truncated_F_matches_l_value():
    from charzero import lfunction

    chi = dirichlet.character(5, 4)
    f = multfn.CharacterFunction(chi)
    val, tail = multfn.truncated_F(f, 2.0, 10**5)
    ref, bound = lfunction.LEvaluator(chi).values(2.0)
    assert abs(val - ref) <= tail + bound
    assert abs(val - ref) < 1e-9


def test_euler_product_agrees():
    val = multfn.euler_product_F(ONE, 2.5, 10**5)
    direct, tail = multfn.truncated_F(ONE, 2.5, 10**5)
    assert val == pytest.approx(direct, abs=1e-4)


def test_find_phi_one():
    data = multfn.find_phi_and_M(ONE, 10**4)
    assert data.phi == 0.0
    assert data.M == 0.0
    assert len(data.grid_trace) > 100


def test_find_phi_recovers_twist():
    data = multfn.find_phi_and_M(multfn.ArchimedeanTwist(0.5), 10**4)
    assert data.phi == pytest.approx(0.5, abs=2e-2)
    # M evaluated at the returned phi must match a direct distance computation
    direct = multfn.distance_sq(
        multfn.ArchimedeanTwist(0.5), multfn.ArchimedeanTwist(data.phi), 10**4
    )
    assert data.M == pytest.approx(direct, abs=1e-12)


def test_find_phi_domain():
    with pytest.raises(DomainError):
        multfn.find_phi_and_M(ONE, 1.5)


def test_grid_trace_is_argmax():
    data = multfn.find_phi_and_M(LEG5, 2000.0)
    ts = np.array([t for t, _ in data.grid_trace])
    vs = np.array([v for _, v in data.grid_trace])
    top = vs.max()
    # refined point must beat every grid point
    lp, w = multfn._euler_weights(LEG5, 2000.0)
    refined = float(np.exp(multfn._log_abs_F(lp, w, [data.phi])[0]))
    assert refined >= top - 1e-9
    assert abs(ts).max() <= math.log(2000.0) + 1e-12


def _direct_grid(f, x):
    logx = math.log(x)
    step = 1.0 / (10.0 * logx)
    jmax = int(math.floor(logx / step))
    ts = np.arange(-jmax, jmax + 1, dtype=np.float64) * step
    lp, w = multfn._euler_weights(f, x)
    return lp, w, step, jmax, ts, multfn._log_abs_F(lp, w, ts)


@pytest.mark.parametrize("x", [2000.0, 1e4, 1e5])
@pytest.mark.parametrize("spec", ["one", "char:5.4", "randpm:3", "ntoi:0.5", "char:7.3"])
def test_nufft_grid_matches_direct(spec, x):
    lp, w, step, jmax, ts, direct = _direct_grid(multfn.parse_function(spec), x)
    vals, tail = multfn._log_abs_F_grid(lp, w, step, jmax)
    assert tail <= 1e-13
    assert np.max(np.abs(vals - direct)) <= multfn._GRID_GUARD / 100


@pytest.mark.parametrize("spec", ["char:5.4", "randpm:3", "randpm:11", "char:8.3"])
def test_grid_tie_break_smallest_abs_t(spec):
    # For a real f the direct values at +-t tie exactly; the NUFFT ranks +t
    # first for randpm:11.
    f = multfn.parse_function(spec)
    _, _, step, _, ts, direct = _direct_grid(f, 1e4)
    cand = np.flatnonzero(direct >= direct.max())
    j_best = min(cand, key=lambda j: (abs(ts[j]), ts[j]))
    data = multfn.find_phi_and_M(f, 1e4)
    assert abs(data.phi - ts[j_best]) <= step


@pytest.mark.parametrize("spec", ["char:19.18", "char:24.11", "char:28.27", "char:29.28"])
def test_real_character_grid_is_even_in_t(spec):
    # with an exact +-1 table log|F| ties at +-t, so the tie-break gives
    # phi <= 0; a table holding -1 + 1.2e-16i gave these four phi > 0
    f = multfn.parse_function(spec)
    *_, direct = _direct_grid(f, 1e4)
    assert np.array_equal(direct, direct[::-1])
    assert multfn.find_phi_and_M(f, 1e4).phi <= 0


def test_halasz_bound_pinned_values():
    # hex floats from the direct grid scan that the NUFFT scan replaced; the
    # char:5.2 mean is exactly 0 (5 divides 2e4), so its observed and ratio
    # are rounding noise of the block sum
    pinned = {
        "randpm:1": {
            "phi": "0x0.0p+0",
            "M": "0x1.ea8e19f78c2c3p+0",
            "observed": "0x1.0624dd2f1a9fcp-10",
            "bound": "0x1.f0b52323cdefcp-1",
            "ratio": "0x1.316b580ef1901p-9",
        },
        "char:5.2": {
            "phi": "-0x1.be605bb23755fp+2",
            "M": "0x1.fa3517b971736p+0",
            "observed": "0x1.855da6f125d61p-55",
            "bound": "0x1.2f716c998a5b0p-1",
            "ratio": "0x1.d6d82235cac34p-51",
        },
    }
    for spec, want in pinned.items():
        got = harness.report_dict(multfn.halasz_bound(multfn.parse_function(spec), 2e4))
        assert {k: got[k].hex() for k in want} == want


def test_find_phi_rejects_prime_weight_above_one():
    class TooLarge(multfn.CompletelyMultiplicativeFunction):
        def prime_values(self, primes):
            return np.where(primes == 2, 3.0, 1.0).astype(np.complex128)

    with pytest.raises(DomainError):
        multfn.find_phi_and_M(TooLarge(), 1000.0)
    with pytest.raises(DomainError):
        multfn.eq22_gap(TooLarge(), 1000.0, 0.0)


def test_halasz_bound_one():
    rep = multfn.halasz_bound(ONE, 10**4)
    assert rep.ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.observed <= rep.bound
    assert rep.main_term == pytest.approx(1.0, abs=1e-6)


def test_halasz_bound_random_corpus():
    for seed in range(10):
        rep = multfn.halasz_bound(multfn.RandomPMFunction(seed=seed), 10**5)
        assert rep.ratio <= 20.0
        assert rep.observed <= rep.bound * 20.0


def test_halasz_report_dict():
    rep = multfn.halasz_bound(LEG5, 10**4)
    d = harness.report_dict(rep)
    assert list(d) == [
        "x", "phi", "M", "observed", "bound", "ratio", "main_term", "secondary_term"
    ]
    assert "grid_trace" not in d
    assert d["ratio"] == rep.ratio


def test_slow_variation_trivial():
    rep = multfn.slow_variation_probe(ONE, 10**4, 10**4)
    assert rep.hal3_delta == pytest.approx(0.0, abs=1e-12)
    assert rep.hal2_residual < 1e-3
    with pytest.raises(DomainError):
        multfn.slow_variation_probe(ONE, 10**4, 50.0)


def test_slow_variation_legendre():
    for x in (10**4, 10**5):
        rep = multfn.slow_variation_probe(LEG5, x, x / 10)
        assert rep.hal3_delta <= 10.0 * rep.hal3_reference


def test_witness_constant_one():
    rep = multfn.large_mean_witness(ONE, 10**4)
    assert abs(rep.mean) >= rep.guarantee / 2
    assert rep.guarantee == pytest.approx(1.0, abs=1e-9)
    assert rep.y <= 10**4 * (1 + 1e-9)


def test_witness_twist():
    rep = multfn.large_mean_witness(multfn.ArchimedeanTwist(1.0), 10**4)
    assert abs(rep.mean) >= rep.guarantee / 2


def test_witness_legendre_floor():
    rep = multfn.large_mean_witness(LEG5, 10**4)
    assert abs(rep.mean) >= rep.guarantee / 50


def test_witness_caller_data_and_floor():
    data = multfn.HalaszData(x=1e4, phi=0.0, M=0.25, grid_trace=[])
    rep = multfn.large_mean_witness(ONE, 10**4, data=data, y_min=100.0)
    assert rep.y >= 100.0
    assert rep.M == 0.25
    with pytest.raises(DomainError):
        multfn.large_mean_witness(ONE, 10**4, data=data, y_min=10**5)


def test_eq22_gap_corpus():
    for f in (ONE, LEG5, multfn.RandomPMFunction(seed=3)):
        for t in (0.0, 0.5, -2.0):
            assert abs(multfn.eq22_gap(f, 10**4, t)) <= 2.0


def test_sieve_limit_guard():
    small = multfn.RandomPMFunction(seed=1, limit=100)
    with pytest.raises(SieveLimitError):
        small.values_up_to(200)
    with pytest.raises(SieveLimitError):
        multfn.mean_value(small, 200)
    with pytest.raises(SieveLimitError):
        multfn.distance_sq(small, ONE, 500.0)


def _strided_sieve(f, top):
    # the one-pass reference: every prime power strides over 1..top
    ps = sieve.primes_up_to(top)
    vals = np.ones(top + 1, dtype=np.complex128)
    for p, v in zip(ps, f.prime_values(ps)):
        pk = p
        while pk <= top:
            vals[pk::pk] *= v
            pk *= p
    return vals


class _UnitPrimes(multfn.CompletelyMultiplicativeFunction):
    # complex f(p) = e^{i sqrt p}, given on primes only
    def prime_values(self, primes):
        return np.exp(1j * np.sqrt(np.asarray(primes, dtype=np.float64)))


# randpm:8 has f(2) = f(5) = -1, so f(4) and f(25) show a square factor
# that took one factor instead of two
@pytest.mark.parametrize(
    "f", [multfn.RandomPMFunction(seed=8), _UnitPrimes()], ids=["randpm", "complex"]
)
def test_generic_sieve_matches_strided_loop(f):
    big = 10**5 + 3
    # the large primes' multiples at this top fill more than one gather
    ps = sieve.primes_up_to(big)
    assert np.sum(big // ps[ps > math.isqrt(big)]) > multfn._SIEVE_CHUNK
    for top in (1, 2, 3, 4, 8, 9, 24, 25, 26, big):
        n = np.arange(1, top + 1, dtype=np.int64)
        assert np.array_equal(f.values_at(n), _strided_sieve(f, top)[1:]), top
    rng = np.random.default_rng(2022)
    n = rng.integers(1, big + 1, size=5000)
    n[:50] = n[50:100]  # repeats, in no order
    assert np.array_equal(f.values_at(n), _strided_sieve(f, int(n.max()))[n])


def test_generic_values_need_primes_and_positive_n():
    f = multfn.RandomPMFunction(seed=1)
    with pytest.raises(DomainError):
        f.prime_values(np.array([4]))  # a composite between primes
    with pytest.raises(DomainError):
        f.prime_values(np.array([999_999]))  # past the last prime <= 10^6
    with pytest.raises(DomainError):
        f.prime_values(np.array([3, 1]))
    with pytest.raises(DomainError):
        f.values_at(np.array([3, 0]))
    with pytest.raises(DomainError):
        _UnitPrimes().values_at(np.array([-2, 5]))
    assert f.values_at(np.array([], dtype=np.int64)).size == 0


def _nufft_reference(freqs, coefs, step, jmax):
    # the spreader with int64 cells reduced % mr and the Gaussian taken from
    # (cells - u); the masked spreader must match it bit for bit
    n = 2 * jmax + 1
    mr = 1 << math.ceil(math.log2(multfn._OVERSAMPLE * n))
    ratio = mr / n
    tau = math.pi * multfn._SPREAD / (n * n * ratio * (ratio - 0.5))
    h = 2.0 * math.pi / mr
    u = np.mod(step * freqs, 2.0 * math.pi) / h
    offs = np.arange(1 - multfn._SPREAD, multfn._SPREAD + 1)
    re = np.zeros(mr)
    im = np.zeros(mr)
    for lo in range(0, len(u), multfn._SOURCE_CHUNK):
        uc = u[lo : lo + multfn._SOURCE_CHUNK]
        cc = coefs[lo : lo + multfn._SOURCE_CHUNK]
        cells = np.floor(uc).astype(np.int64)[:, None] + offs
        g = np.exp(-((cells - uc[:, None]) * h) ** 2 / (4.0 * tau))
        cells = (cells % mr).ravel()
        re += np.bincount(cells, (g * cc.real[:, None]).ravel(), minlength=mr)
        im += np.bincount(cells, (g * cc.imag[:, None]).ravel(), minlength=mr)
    spec = np.fft.fft(re + 1j * im)
    j = np.arange(-jmax, jmax + 1)
    return spec[j % mr] * (math.sqrt(math.pi / tau) / mr * np.exp(j * j * tau))


def test_nufft_spreader_matches_modulo_cells():
    x = 1e4
    step = 1.0 / (10.0 * math.log(x))
    jmax = int(math.floor(math.log(x) / step))
    for spec in ("char:5.4", "ntoi:0.5", "randpm:3"):
        freqs, coefs, _ = multfn._log_series(*multfn._euler_weights(multfn.parse_function(spec), x))
        got = multfn._nufft_type1(freqs, coefs, step, jmax)
        assert np.array_equal(got, _nufft_reference(freqs, coefs, step, jmax)), spec
    # sources at both ends of the fine grid: u = 0, u just below mr, and a
    # tiny negative step * freq that np.mod rounds up to 2 pi, so u = mr
    mr = 1 << math.ceil(math.log2(multfn._OVERSAMPLE * (2 * jmax + 1)))
    below = np.nextafter(2.0 * math.pi, 0.0) / step
    freqs = np.array([0.0, below, -1e-300 / step, 1.0])
    u = np.mod(step * freqs, 2.0 * math.pi) / (2.0 * math.pi / mr)
    assert u[0] == 0.0 and mr - 1 <= u[1] < mr and u[2] == mr
    coefs = np.array([0.3 - 0.1j, 0.2 + 0.4j, -0.5 + 0.25j, 0.1 + 0.1j])
    got = multfn._nufft_type1(freqs, coefs, step, jmax)
    assert np.array_equal(got, _nufft_reference(freqs, coefs, step, jmax))
