"""Completely multiplicative functions with |f| <= 1 and their mean values.

The toolkit: the pretentious distance, truncated Dirichlet series, the
maximizing twist (phi, M) of |F(1 + 1/log x + it)|, the resulting mean-value
bound, the slow-variation residuals, and the large-mean witness search used
by the product/power scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dirichlet, sieve
from .errors import DomainError, SieveLimitError

DEFAULT_FUNCTION_LIMIT = 10**7
_SIEVE_CHUNK = 1 << 14  # large-prime multiples gathered at once by values_at


def _floor(x) -> int:
    """floor(x) as an int; DomainError unless x is finite."""
    if not math.isfinite(x):
        raise DomainError(f"need a finite x, got {x}")
    return int(math.floor(x))


class CompletelyMultiplicativeFunction:
    """Base: values determined by unimodular-or-zero data on primes.

    A subclass states its values once, either in closed form as `values_at`
    or on primes as `prime_values`; each default is built from the other.
    The generic `values_at` sieves 1..max(n) from `prime_values`: a strided
    pass per prime power for the primes p with p^2 <= max(n), then the
    larger primes, each dividing an n at most once, multiplied onto their
    multiples in gathers of at most _SIEVE_CHUNK entries. Its memory is the
    complex array over 1..max(n), the prime values and those bounded
    temporaries. A kind given only on primes is summed by re-sieving from 1
    for every block of dirichlet._BLOCK terms, so keep its limit within one
    block.
    """

    limit: int = DEFAULT_FUNCTION_LIMIT
    label: str = "abstract"

    def values_at(self, n: np.ndarray) -> np.ndarray:
        """f(n) for an int64 array of n >= 1.

        Every n takes its prime factors in increasing order, one factor per
        multiplication, whichever pass applies them.
        """
        if np.min(n, initial=1) < 1:
            raise DomainError("f(n) needs n >= 1")
        top = int(np.max(n, initial=1))
        ps = sieve.primes_up_to(top)
        pv = self.prime_values(ps)
        vals = np.ones(top + 1, dtype=np.complex128)
        small = int(np.searchsorted(ps, math.isqrt(top), side="right"))
        for p, v in zip(ps[:small], pv[:small]):
            pk = p
            while pk <= top:
                vals[pk::pk] *= v
                pk *= p
        # p^2 > top: no n <= top has two such factors, so a gather over the
        # multiples of several of them holds each n once, and reaches it
        # after every smaller prime has been applied. A group takes as many
        # primes as the multiples of its first (the most) fit in the chunk.
        lo = small
        while lo < len(ps):
            hi = lo + max(1, _SIEVE_CHUNK // int(top // ps[lo]))
            c = top // ps[lo:hi]
            m = np.arange(1, np.sum(c) + 1) - np.repeat(np.cumsum(c) - c, c)
            vals[np.repeat(ps[lo:hi], c) * m] *= np.repeat(pv[lo:hi], c)
            lo = hi
        del pv  # free the prime values before the result's copy
        return vals[n]

    def prime_values(self, primes: np.ndarray) -> np.ndarray:
        return self.values_at(np.asarray(primes))

    def values_up_to(self, x) -> np.ndarray:
        """Array v with v[n] = f(n) for 0 <= n <= floor(x); v[0] = 0."""
        n = self._check_range(x)
        vals = np.zeros(n + 1, dtype=np.complex128)
        vals[1:] = self.values_at(np.arange(1, n + 1, dtype=np.int64))
        return vals

    def _check_range(self, x) -> int:
        n = _floor(x)
        if n < 1:
            raise DomainError("need x >= 1")
        if n > self.limit:
            raise SieveLimitError(f"{x} exceeds function limit {self.limit}")
        return n

    def __mul__(self, other: "CompletelyMultiplicativeFunction"):
        return ProductFunction(self, other)

    def power(self, k: int) -> "CompletelyMultiplicativeFunction":
        return PowerFunction(self, k)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class ConstantOne(CompletelyMultiplicativeFunction):
    label = "one"

    def values_at(self, n):
        return np.ones(len(n), dtype=np.complex128)


class ArchimedeanTwist(CompletelyMultiplicativeFunction):
    """f(n) = n^{i alpha}."""

    def __init__(self, alpha: float):
        if not math.isfinite(alpha):
            raise DomainError(f"ntoi needs a finite alpha, got {alpha}")
        self.alpha = float(alpha)
        self.label = f"ntoi:{self.alpha:g}"

    def values_at(self, n):
        return np.exp(1j * self.alpha * np.log(n))


class CharacterFunction(CompletelyMultiplicativeFunction):
    def __init__(self, chi: dirichlet.Character):
        self.chi = chi
        self.label = f"char:{chi.q}.{chi.conrey}"

    def values_at(self, n):
        return dirichlet.value_table(self.chi)[n % self.chi.q]


class RandomPMFunction(CompletelyMultiplicativeFunction):
    """Independent +-1 on each prime, drawn once from a seeded generator."""

    def __init__(self, seed: int, limit: int = 10**6):
        self.seed = int(seed)
        self.limit = int(limit)
        self.label = f"randpm:{self.seed}"
        ps = sieve.primes_up_to(self.limit)
        rng = np.random.default_rng(self.seed)
        self._signs = np.where(rng.random(len(ps)) < 0.5, -1.0, 1.0)
        self._primes = ps

    def prime_values(self, primes):
        primes = np.asarray(primes)
        if np.max(primes, initial=0) > self.limit:
            raise SieveLimitError("prime beyond the sampled range")
        idx = np.searchsorted(self._primes, primes)
        if not (np.all(idx < len(self._primes)) and np.array_equal(self._primes[idx], primes)):
            raise DomainError("prime_values needs primes")
        return self._signs[idx].astype(np.complex128)


# The combinators keep prime_values from their parts' prime_values, so a
# caller that needs only primes never runs a part's generic sieve.


class TwistedFunction(CompletelyMultiplicativeFunction):
    """f_phi(n) = f(n) n^{-i phi}; a view, never a new prime table."""

    def __init__(self, base: CompletelyMultiplicativeFunction, phi: float):
        self.base = base
        self.phi = float(phi)
        self.limit = base.limit
        self.label = f"twist({base.label},{self.phi:g})"

    # both methods multiply as n^{-i phi} * f(n) through np.multiply: a
    # complex product rounds by its operand order, and with `*` numpy's
    # temporary elision swaps the operands of arrays past 16,384 entries
    def values_at(self, n):
        return self.values_from(n, self.base.values_at(n))

    def values_from(self, n, base_values):
        """f_phi(n) from n and the base's values f(n)."""
        return np.multiply(np.exp(-1j * self.phi * np.log(n)), base_values)

    def prime_values(self, primes):
        lp = np.log(np.asarray(primes, dtype=np.float64))
        return np.multiply(np.exp(-1j * self.phi * lp), self.base.prime_values(primes))


class ProductFunction(CompletelyMultiplicativeFunction):
    def __init__(self, f, g):
        self.f, self.g = f, g
        self.limit = min(f.limit, g.limit)
        self.label = f"({f.label})*({g.label})"

    def values_at(self, n):
        return self.f.values_at(n) * self.g.values_at(n)

    def prime_values(self, primes):
        return self.f.prime_values(primes) * self.g.prime_values(primes)


class PowerFunction(CompletelyMultiplicativeFunction):
    def __init__(self, f, k: int):
        if k < 1:
            raise DomainError("power needs k >= 1")
        self.f, self.k = f, int(k)
        self.limit = f.limit
        self.label = f"({f.label})^{k}"

    def values_at(self, n):
        return self.f.values_at(n) ** self.k

    def prime_values(self, primes):
        return self.f.prime_values(primes) ** self.k


def parse_function(spec: str) -> CompletelyMultiplicativeFunction:
    """CLI function specs: one | ntoi:<alpha> | char:<q>.<conrey> | randpm:<seed>."""
    if spec == "one":
        return ConstantOne()
    kind, _, arg = spec.partition(":")
    if kind == "ntoi" and arg:
        return ArchimedeanTwist(float(arg))
    if kind == "char" and arg:
        qs, _, cs = arg.partition(".")
        return CharacterFunction(dirichlet.character(int(qs), int(cs)))
    if kind == "randpm" and arg:
        return RandomPMFunction(int(arg))
    raise DomainError(f"unrecognized function spec: {spec!r}")


# ---------------------------------------------------------------------------
# distance and Dirichlet series


def mean_value(f: CompletelyMultiplicativeFunction, x) -> complex:
    return dirichlet._blocked_sum(f.values_at, f._check_range(x)) / x


def distance_sq(f, g, x) -> float:
    """Sum over p <= x of (1 - Re f(p) conj g(p))/p; terms clamped to >= 0."""
    n = _floor(x)
    if n > f.limit or n > g.limit:
        raise SieveLimitError("x exceeds a function limit")
    if f is g:
        return 0.0
    ps = sieve.primes_up_to(n)
    if len(ps) == 0:
        return 0.0
    w = f.prime_values(ps) * np.conj(g.prime_values(ps))
    terms = np.maximum(1.0 - w.real, 0.0) / ps
    return float(np.sum(terms))


def distance(f, g, x) -> float:
    return math.sqrt(distance_sq(f, g, x))


def truncated_F(f, s: complex, n_max: int):
    """(sum_{n<=n_max} f(n) n^{-s}, integral-comparison tail bound); Re s > 1."""
    s = complex(s)
    if s.real <= 1:
        raise DomainError("Dirichlet series needs Re s > 1 under |f| <= 1")

    def terms(n):
        # n^{-s} * f(n) in one fixed order, as in TwistedFunction
        return np.multiply(np.exp(-s * np.log(n)), f.values_at(n))

    total = dirichlet._blocked_sum(terms, f._check_range(n_max))
    tail = n_max ** (1.0 - s.real) / (s.real - 1.0)
    return total, tail


def euler_product_F(f, s: complex, x) -> complex:
    """Truncated Euler product over p <= x of (1 - f(p) p^{-s})^{-1}."""
    s = complex(s)
    if s.real <= 1:
        raise DomainError("Euler product needs Re s > 1")
    ps = sieve.primes_up_to(_floor(x))
    z = f.prime_values(ps) * np.exp(-s * np.log(ps.astype(np.float64)))
    return complex(np.exp(-np.sum(np.log(1.0 - z))))


def _euler_weights(f, x):
    """(log p, w_p = f(p) p^{-sigma0}) over primes p <= x, sigma0 = 1 + 1/log x.

    Raises DomainError unless every |w_p| < 1, which |f| <= 1 guarantees and
    both the Euler product and its log series need.
    """
    sigma0 = 1.0 + 1.0 / math.log(x)
    ps = sieve.primes_up_to(int(math.floor(x)))
    lp = np.log(ps.astype(np.float64))
    w = f.prime_values(ps) * np.exp(-sigma0 * lp)
    if np.any(np.abs(w) >= 1.0):
        raise DomainError("need |f(p)| p^{-1-1/log x} < 1 for every prime p <= x")
    return lp, w


def _abs_parts(w):
    """(Re w, Im w, |w|^2) as contiguous arrays, formed once per search."""
    a, b = np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)
    return a, b, a * a + b * b


def _log_abs_F_at(primes_log, parts, ts) -> np.ndarray:
    """log|F(1 + 1/log x + it)| via the Euler product, vectorized over t.

    parts = _abs_parts(w) for w = f(p) p^{-sigma0}, |w| < 1;
    |1 - w e^{-i theta}|^2 expanded in real arithmetic to avoid complex
    exponentials.
    """
    a, b, w2 = parts
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(len(ts))
    chunk = max(1, (1 << 23) // max(1, len(primes_log)))
    for lo in range(0, len(ts), chunk):
        theta = np.multiply.outer(ts[lo : lo + chunk], primes_log)
        m2 = 1.0 + w2 - 2.0 * (np.cos(theta) * a + np.sin(theta) * b)
        out[lo : lo + chunk] = -0.5 * np.sum(np.log(m2), axis=1)
    return out


def _log_abs_F(primes_log, w, ts) -> np.ndarray:
    """_log_abs_F_at from the weights w themselves."""
    return _log_abs_F_at(primes_log, _abs_parts(w), ts)


# The grid scan sums log F = sum_p sum_k (w_p^k / k) e^{-ikt log p} by a
# type-1 NUFFT with Gaussian gridding (Greengard-Lee, SIAM Review 46, 2004).
_SERIES_TAIL = 1e-13  # bound on the summed truncation tails of the log series
_SPREAD = 12  # Gaussian half-width in fine-grid cells
_OVERSAMPLE = 3  # fine grid >= this many times the number of modes
_SOURCE_CHUNK = 1 << 14  # sources spread at once; bounds the spreading memory
# Grid points whose NUFFT value lies within this of the NUFFT top are
# re-evaluated directly; it must stay >= 2x the NUFFT error (about 1e-13).
_GRID_GUARD = 1e-9


def _log_series(primes_log, w):
    """Frequencies k log p, coefficients w^k/k and the summed tail bound.

    K_p is the least K with |w|^{K+1}/((K+1)(1-|w|)) within an equal share of
    _SERIES_TAIL; needs |w| < 1.
    """
    r = np.abs(w)
    share = _SERIES_TAIL / max(1, len(w))
    freqs, coefs, tail = [], [], 0.0
    idx, wk, k = np.arange(len(w)), w, 1
    while idx.size:
        freqs.append(k * primes_log[idx])
        coefs.append(wk / k)
        rk = r[idx]
        bound = rk ** (k + 1) / ((k + 1) * (1.0 - rk))
        more = bound > share
        tail += float(np.sum(bound[~more]))
        idx = idx[more]
        wk = wk[more] * w[idx]
        k += 1
    return np.concatenate(freqs), np.concatenate(coefs), tail


def _nufft_type1(freqs, coefs, step, jmax) -> np.ndarray:
    """sum_m coefs_m e^{-i j step freqs_m} for j = -jmax..jmax."""
    n = 2 * jmax + 1
    mr = 1 << math.ceil(math.log2(_OVERSAMPLE * n))
    ratio = mr / n
    tau = math.pi * _SPREAD / (n * n * ratio * (ratio - 0.5))
    h = 2.0 * math.pi / mr
    u = np.mod(step * freqs, 2.0 * math.pi) / h
    offs = np.arange(1 - _SPREAD, _SPREAD + 1)
    re = np.zeros(mr)
    im = np.zeros(mr)
    for lo in range(0, len(u), _SOURCE_CHUNK):
        uc = u[lo : lo + _SOURCE_CHUNK]
        cc = coefs[lo : lo + _SOURCE_CHUNK]
        # u >= 0 makes u - floor(u) exact, so offs - (u - floor(u)) is the
        # distance (floor(u) + offs) - u rounded once; mr is a power of two,
        # so the mask reduces a cell mod mr, also below 0
        first = np.floor(uc)
        g = offs - (uc - first)[:, None]
        g *= h
        np.square(g, out=g)
        np.negative(g, out=g)
        g /= 4.0 * tau
        np.exp(g, out=g)
        cells = ((first.astype(np.int64)[:, None] + offs) & (mr - 1)).ravel()
        re += np.bincount(cells, (g * cc.real[:, None]).ravel(), minlength=mr)
        im += np.bincount(cells, (g * cc.imag[:, None]).ravel(), minlength=mr)
    spec = np.fft.fft(re + 1j * im)
    j = np.arange(-jmax, jmax + 1)
    return spec[j % mr] * (math.sqrt(math.pi / tau) / mr * np.exp(j * j * tau))


def _log_abs_F_grid(primes_log, w, step, jmax):
    """(log|F(sigma0 + i j step)| for j = -jmax..jmax, series tail bound).

    Agrees with _log_abs_F to the tail bound plus the NUFFT error.
    """
    freqs, coefs, tail = _log_series(primes_log, w)
    return _nufft_type1(freqs, coefs, step, jmax).real, tail


@dataclass(frozen=True)
class HalaszData:
    """Maximizing twist phi of |F(1+1/log x+it)| on |t| <= log x, and
    M = distance_sq(f, n^{i phi}, x)."""

    x: float
    phi: float
    M: float
    grid_trace: list = field(repr=False)


def find_phi_and_M(f, x) -> HalaszData:
    """Grid search (step 1/(10 log x)) plus golden-section refinement.

    The grid comes from the NUFFT; the points within _GRID_GUARD of its top
    are re-evaluated directly and the maximum taken over those exact values.
    Ties broken by smallest |t|, then by negative t.
    """
    n = _floor(x)
    if n < 2:
        raise DomainError("need x >= 2")
    if n > f.limit:
        raise SieveLimitError("x exceeds the function limit")
    logx = math.log(x)
    lp, w = _euler_weights(f, x)

    step = 1.0 / (10.0 * logx)
    jmax = int(math.floor(logx / step))
    ts = np.arange(-jmax, jmax + 1, dtype=np.float64) * step
    vals, _ = _log_abs_F_grid(lp, w, step, jmax)
    parts = _abs_parts(w)
    near = np.flatnonzero(vals >= np.max(vals) - _GRID_GUARD)
    vals[near] = _log_abs_F_at(lp, parts, ts[near])

    top = np.max(vals[near])
    cand = near[vals[near] >= top]
    j_best = min(cand, key=lambda j: (abs(ts[j]), ts[j]))
    t_best, v_best = float(ts[j_best]), float(vals[j_best])

    def g(t):
        return float(_log_abs_F_at(lp, parts, [t])[0])

    # golden-section maximization on the bracketing interval
    lo = max(-logx, t_best - step)
    hi = min(logx, t_best + step)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c_ = hi - inv * (hi - lo)
    d_ = lo + inv * (hi - lo)
    gc, gd = g(c_), g(d_)
    best_t, best_v = t_best, v_best
    for pt, pv in ((c_, gc), (d_, gd)):
        if pv > best_v:
            best_t, best_v = pt, pv
    while hi - lo > 1e-6:
        if gc >= gd:
            hi, d_, gd = d_, c_, gc
            c_ = hi - inv * (hi - lo)
            gc = g(c_)
            if gc > best_v:
                best_t, best_v = c_, gc
        else:
            lo, c_, gc = c_, d_, gd
            d_ = lo + inv * (hi - lo)
            gd = g(d_)
            if gd > best_v:
                best_t, best_v = d_, gd
    phi = best_t
    M = distance_sq(f, ArchimedeanTwist(phi), x)
    trace = list(zip(ts.tolist(), np.exp(vals).tolist()))
    return HalaszData(x=float(x), phi=phi, M=M, grid_trace=trace)


# ---------------------------------------------------------------------------
# mean-value bounds


@dataclass(frozen=True)
class HalaszReport:
    data: HalaszData
    observed: float
    bound: float
    ratio: float
    main_term: float
    secondary_term: float


def halasz_bound(f, x) -> HalaszReport:
    """Observed mean |S_f(x)|/x against (M+1)e^{-M}/(1+|phi|) + (log x)^{-(2-sqrt 3)}.

    The o(1) in the secondary exponent is instantiated at 0.  ratio compares
    the observed mean to the leading term alone, since the secondary term
    carries an unspecified constant.
    """
    data = find_phi_and_M(f, x)
    observed = abs(mean_value(f, x))
    main = (data.M + 1.0) * math.exp(-data.M) / (1.0 + abs(data.phi))
    secondary = math.log(x) ** (-(2.0 - math.sqrt(3.0)))
    return HalaszReport(
        observed=observed,
        main_term=main,
        secondary_term=secondary,
        bound=main + secondary,
        ratio=observed / main,
        data=data,
    )


@dataclass(frozen=True)
class SlowVariationReport:
    hal2_residual: float
    hal3_delta: float
    hal3_reference: float
    phi: float


def slow_variation_probe(f, x, z) -> SlowVariationReport:
    """Residual of the mean-value transfer and the slow-variation delta.

    hal2: |mean_x(f) - x^{i phi} (1+i phi)^{-1} mean_x(f_phi)|.
    hal3: |mean_x(f_phi) - mean_z(f_phi)| against ((1+|log(x/z)|)/log x)^{1-2/pi}.
    """
    if not (math.sqrt(x) <= z <= x * x):
        raise DomainError("need sqrt(x) <= z <= x^2")
    data = find_phi_and_M(f, x)
    phi = data.phi
    f_phi = TwistedFunction(f, phi)
    m, mz = f._check_range(x), f._check_range(z)
    # one blocked pass takes f and f_phi from the same values of f; each of
    # the three sums keeps dirichlet._blocked_sum's order, so each mean
    # equals mean_value's bit for bit
    parts = ([], [], [])  # block sums of f to x, of f_phi to x and to z
    for n in dirichlet._blocks(max(m, mz)):
        vals = f.values_at(n)
        twisted = f_phi.values_from(n, vals)
        for part, v, end in zip(parts, (vals, twisted, twisted), (m, m, mz)):
            if n[0] <= end:
                part.append(np.sum(v[: end - n[0] + 1]))
    mean_f_x, mean_fphi_x, mean_fphi_z = (
        complex(np.sum(np.array(p))) / d for p, d in zip(parts, (x, x, z))
    )
    rotate = x ** (1j * phi) / (1.0 + 1j * phi)
    hal2 = abs(mean_f_x - rotate * mean_fphi_x)
    hal3 = abs(mean_fphi_x - mean_fphi_z)
    ref = ((1.0 + abs(math.log(x / z))) / math.log(x)) ** (1.0 - 2.0 / math.pi)
    return SlowVariationReport(
        hal2_residual=hal2, hal3_delta=hal3, hal3_reference=ref, phi=phi
    )


@dataclass(frozen=True)
class WitnessReport:
    y: float
    mean: complex
    guarantee: float
    lam: float
    phi: float
    M: float
    grid_points: int


def large_mean_witness(
    f, x, c: float = 3.0, data: HalaszData | None = None, y_min: float | None = None
) -> WitnessReport:
    """Search y in [x^{1/(lam e^lam)}, x] maximizing |mean of f up to y|.

    lam = M + log(1+|phi|) + c; the geometric grid carries 10*lam*e^lam
    points.  The guarantee e^{-M}/|1+i phi| is the target the large mean
    should be commensurate with (implied constant unknown).  A caller that
    already holds a (phi, M) pair for f (e.g. from a triangle-inequality
    bound on a product) may pass it via `data` to skip the internal search.
    """
    if data is None:
        data = find_phi_and_M(f, x)
    lam = data.M + math.log(1.0 + abs(data.phi)) + c
    expo = lam * math.exp(lam)
    lo = x ** (1.0 / expo)
    if y_min is not None:
        lo = max(lo, y_min)
    if not (lo <= x):
        raise DomainError("degenerate witness range")
    count = max(2, int(math.ceil(10.0 * expo)))
    n_lo, n_hi = int(math.ceil(lo)), int(math.floor(x))
    if count > n_hi - n_lo + 1:
        # grid denser than the integers: |mean| on [n, n+1) peaks at y = n,
        # so scanning the integer cut points (plus lo) is exact and bounded
        ys = np.unique(
            np.concatenate(([lo], np.arange(n_lo, n_hi + 1, dtype=np.float64)))
        )
        count = len(ys)
    else:
        ys = np.exp(np.linspace(math.log(lo), math.log(x), count))
    # prefix sums S(floor y), one block at a time; each block's cumsum starts
    # from the previous block's total, so they match one cumsum over 0..x
    f._check_range(x)
    idx = np.minimum(np.floor(ys).astype(np.int64), n_hi)
    sums = np.zeros(len(idx), dtype=np.complex128)
    carry = 0j
    for n in dirichlet._blocks(n_hi):
        csum = np.cumsum(np.concatenate(([carry], f.values_at(n))))
        a, b = np.searchsorted(idx, [n[0], n[-1] + 1])
        sums[a:b] = csum[idx[a:b] - n[0] + 1]
        carry = csum[-1]
    means = sums / ys
    j = int(np.argmax(np.abs(means)))
    guarantee = math.exp(-data.M) / abs(1.0 + 1j * data.phi)
    return WitnessReport(
        y=float(ys[j]),
        mean=complex(means[j]),
        guarantee=guarantee,
        lam=lam,
        phi=data.phi,
        M=data.M,
        grid_points=count,
    )


def eq22_gap(f, x, t: float) -> float:
    """log|F(1+1/log x+it)| minus (log log x - distance_sq(f, n^{it}, x))."""
    lp, w = _euler_weights(f, x)
    logF = float(_log_abs_F(lp, w, [t])[0])
    d2 = distance_sq(f, ArchimedeanTwist(t), x)
    return logF - (math.log(math.log(x)) - d2)
