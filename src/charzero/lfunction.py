"""Dirichlet L-functions on a finite window via Hurwitz zeta continuation.

L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q), with each Hurwitz zeta
evaluated by Euler-Maclaurin and a certified remainder bound.  The completed
function xi multiplies in the (q/pi)^((s+a)/2) Gamma((s+a)/2) factor, with
log Gamma from scipy.special.loggamma, and is the object used for
argument-principle work.

One Euler-Maclaurin kernel, _em_sum, gives a row of
q^-s (zeta(s, a/q) - 1/(s - 1)) per unit a mod q.  Its main sum runs over the
m = nq + a (n < N) coprime to q, and it builds their terms m^-s by
multiplicativity: one exp per prime m, and each composite m as the product
of the terms of its least prime factor and of its cofactor, in a
(terms x points) table filled from a plan cached per (q, N).  Those rows
depend on q and s but not on chi, so family_values and family_xi evaluate
every character of one modulus from one kernel pass, and contract the rows
with each character's values.  The evaluator for one
character, LEvaluator(chi), is the one-character case and has no options:
`values` gives L with its bounds and `xi_values` gives xi.  The kernel always
runs Bernoulli terms through B_30, past a shift N that each point sizes for
itself (_shift_n) so that its remainder bound per unit a is at most _TARGET;
a point's value and bound therefore never depend on the batch it came in.
The Euler-Maclaurin remainder bound holds at any Bernoulli depth (Johansson,
Numer. Algorithms 69, 2015), and a deeper tail lets N, and so the main sum,
shrink.  Every point is checked against the one fixed window WINDOW:
-1 <= sigma <= 3, |t| <= 50.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import dirichlet, sieve
from .errors import CoverageError, DomainError, PoleError, WindowError

_BERNOULLI_FRAC = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
    30: Fraction(8615841276005, 14322),
    32: Fraction(-7709321041217, 510),
}

# B_{2j} / (2j)! as floats, the only form the numerics need, by index 2j
# and as the array of the tail's coefficients j = 1, 2, ...
_BERN_OVER_FACT = {
    k: float(v) / math.factorial(k) for k, v in _BERNOULLI_FRAC.items()
}
_BERN_COEF = np.array([_BERN_OVER_FACT[k] for k in sorted(_BERN_OVER_FACT)])


# no kernel temporary holds more than this many complex entries (512 KB),
# unless one point's main-sum table or one point's row of units needs more
_CHUNK = 1 << 15


# Euler-Maclaurin depth: the tail series runs through B_30
_BERNOULLI = 30

# remainder bound per unit a that each point's shift N is sized for
_TARGET = 1e-20


def _shift_n(s) -> np.ndarray:
    """Euler-Maclaurin shift N for each point of s: the least multiple of 8,
    at least 8, at which the per-unit remainder bound
    |B_32/32!| |(s)_32| N^-(sigma+31) / (sigma+31) is at most _TARGET.

    _em_tail bounds each unit past N + x > N, so its bound per unit stays
    below _TARGET.  The rule reads the point alone.
    """
    s = np.asarray(s, dtype=np.complex128)
    d = s.real + _BERNOULLI + 1
    # (s)_32 vanishes at s = 0 and -1; a point with d <= 0 gets no valid N,
    # and _em_tail rejects it
    with np.errstate(divide="ignore", invalid="ignore"):
        log_poch = np.log(np.abs(s[..., None] + np.arange(_BERNOULLI + 2))).sum(-1)
        log_n = (
            math.log(abs(_BERN_OVER_FACT[_BERNOULLI + 2]) / _TARGET)
            + log_poch
            - np.log(d)
        ) / d
        return 8 * np.maximum(1, np.ceil(np.exp(log_n) / 8)).astype(np.int64)


# The Euler-Maclaurin kernel.  For a 1-D array of points s, a shift N per
# point and shifts 0 < x <= 1 it gives one row per shift,
#     zeta(s, x) - 1/(s - 1)
#   = sum_{n<N} (n + x)^-s                                 (main sum)
#   + ((N + x)^(1-s) - 1)/(s - 1) + (N + x)^-s / 2
#   + sum_j B_2j/(2j)! (s)_{2j-1} (N + x)^(1-s-2j)         (tail)
# as a (points x shifts) array.  _em_tail forms the last two lines: the
# bracket from complex expm1 (its limit -log(N + x) at s = 1), and the
# Bernoulli sum by Horner's rule in (N + x)^-2 from per-point coefficients,
# one cumulative product of s + k giving every Pochhammer symbol.
#
# _em_sum, the kernel's one entry point, adds the main sum to the tail from
# a (terms x points) table that a _Plan fixes for one shift N; _terms hands
# it over in the order of n and then of the shift.  For the shifts a/q over
# the units a mod q (_modulus_plan, cached per (q, N)) the terms are m^-s
# over m = nq + a, since (n + a/q)^-s = q^s m^-s, and m -> m^-s is
# completely multiplicative: a prime m (and m = 1) costs one exp, and any
# other m is the product of the rows of its least prime factor p and of
# m / p, both coprime to q.  The table fills level by level in the number of
# prime factors of m, so both factors are there before their product, one
# multiplication of gathered rows per level.  Those rows carry q^-s: _em_sum
# scales the tail by q^-s instead of the main sum by q^s, and _contract
# needs no final q^-s.  A float shift (_shift_plan) has a plan whose every
# term is an exp and that has no product step.  A block of points that share
# N holds at most _CHUNK table entries, or one point's column when that is
# longer.  Every entry depends on its point and the plan alone, and each
# point sums its own column in one fixed pairwise order over n, so its value
# does not depend on the batch it came in.


def _em_tail(s: np.ndarray, xs: np.ndarray, N: np.ndarray, B: int):
    """The (points x shifts) tails past each point's first N terms, and each
    point's remainder bound summed over the shifts.

    N holds one shift per point.  Valid whenever Re s + B + 1 > 0.  s comes
    in blocks of at most _CHUNK // max(len(xs), B + 2) points, so that the
    (points x shifts) arrays and the table of B + 2 Pochhammer products per
    point each stay within _CHUNK entries.
    """
    denom = s.real + B + 1
    if np.any(denom <= 0):
        raise DomainError("Re s too far left for this Bernoulli depth")
    sc = s[:, None]
    lw = np.log(N[:, None] + xs)
    w = 1.0 / (N[:, None] + xs)
    ws = np.exp(-sc * lw)
    # ((N + x)^(1-s) - 1)/(s - 1), and its limit -log(N + x) at s = 1
    rows = np.asarray(-lw, dtype=np.complex128)
    np.divide(np.expm1((1.0 - sc) * lw), sc - 1.0, out=rows, where=sc != 1.0)
    # poch[:, k] = (s)_{k+1}; the tail's coefficient j is B_2j/(2j)! (s)_{2j-1}
    poch = np.cumprod(sc + np.arange(B + 2), axis=1)
    coef = _BERN_COEF[: B // 2] * poch[:, 0:B:2]
    # 1/2 + sum_j coef_j w^(2j-1), by Horner's rule in w^2, in place (a
    # product with the real w rounds the same in either operand order)
    w2 = w * w
    series = np.zeros(ws.shape, dtype=np.complex128)
    for j in range(B // 2 - 1, -1, -1):
        series *= w2
        series += coef[:, j : j + 1]
    series *= w
    series += 0.5
    rows += ws * series
    # the remainder is |B_{B+2}/(B+2)!| |(s)_{B+2}| (N + x)^-(sigma+B+1) /
    # (sigma+B+1) per shift, and |(N + x)^-s| = (N + x)^-sigma
    per_unit = np.sum(np.abs(ws) * w ** (B + 1), axis=1)
    bound = abs(_BERN_OVER_FACT[B + 2]) * np.abs(poch[:, B + 1]) * per_unit / denom
    return rows, bound


class _Plan(NamedTuple):
    """How _em_sum fills the (terms x points) table at one shift N: rows
    0 .. len(logs) - 1 by exp, then each step's rows lo .. hi - 1 as the
    products of rows a and b.  The term of n + xs[j] sits at row
    order[n len(xs) + j]."""

    logs: np.ndarray
    steps: tuple  # of (lo, hi, a, b), in order
    order: np.ndarray


@lru_cache(maxsize=128)
def _modulus_plan(q: int, N: int) -> _Plan:
    """The plan for the shifts a/q over the units a mod q (a = 1 at q = 1),
    whose terms are m^-s over the m = nq + a, the m <= Nq coprime to q.  The
    primes and m = 1 come first, then one step per number of prime factors;
    each composite m takes the rows of its least prime factor p and of m/p."""
    top = N * q
    lpf = np.zeros(top + 1, dtype=np.int64)  # least prime factor; 0 at primes
    for p in sieve.primes_up_to(math.isqrt(top))[::-1].tolist():
        lpf[p * p :: p] = p
    m = np.flatnonzero(np.gcd(np.arange(top + 1), q) == 1)
    m = m[m > 0]
    comp = m[lpf[m] > 0]
    cof = comp // lpf[comp]
    # number of prime factors: each pass settles the next one up
    omega = np.ones(top + 1, dtype=np.int64)
    while not np.array_equal(omega[comp], omega[cof] + 1):
        omega[comp] = omega[cof] + 1
    # rows in order of omega, m = 1 with the primes (its term exp(0) is 1);
    # level k starts at row start[k - 1]
    by_row = m[np.argsort(omega[m], kind="stable")]
    row = np.zeros(top + 1, dtype=np.intp)
    row[by_row] = np.arange(len(by_row))
    start = np.searchsorted(omega[by_row], np.arange(1, omega[by_row[-1]] + 2)).tolist()
    steps = []
    for lo, hi in zip(start[1:], start[2:]):
        c = by_row[lo:hi]
        steps.append((lo, hi, row[lpf[c]], row[c // lpf[c]]))
    logs = np.log(by_row[: start[1]].astype(np.float64))
    return _Plan(logs, tuple(steps), row[m])


def _shift_plan(xs: np.ndarray, N: int) -> _Plan:
    """The plan for any shifts: every term (n + x)^-s comes from exp."""
    logs = np.log(np.arange(N)[:, None] + xs).ravel()
    return _Plan(logs, (), np.arange(len(logs)))


def _terms(plan: _Plan, s: np.ndarray) -> np.ndarray:
    """The plan's (terms x points) table at a 1-D s, in the order of n and
    then of the shift: row n len(xs) + j holds the term of n + xs[j]."""
    table = np.empty((len(plan.order), len(s)), dtype=np.complex128)
    e = table[: len(plan.logs)]
    np.multiply.outer(plan.logs, -s, out=e)
    np.exp(e, out=e)
    for lo, hi, a, b in plan.steps:
        np.multiply(table.take(a, axis=0), table.take(b, axis=0), out=table[lo:hi])
    return table.take(plan.order, axis=0)


def _em_sum(s: np.ndarray, xs: np.ndarray, N, B: int, q: int | None = None):
    """((points x shifts) array of zeta(s, x) - 1/(s-1), remainder bound per
    point) for a 1-D array s, past a shift N per point (an array, or one int
    for every point).  Given a modulus q, xs must be the shifts a/q over the
    units a mod q, as _character_table gives, and rows and bounds both come
    scaled by q^-s.  The bound holds for every row contracted against
    weights of modulus at most 1."""
    N = np.broadcast_to(np.asarray(N, dtype=np.int64), s.shape)
    rows, bound = _em_tail(s, xs, N, B)
    if q is not None:
        qfac = np.exp(-s * math.log(q))
        rows = qfac[:, None] * rows
        bound = bound * np.abs(qfac)
    u = len(xs)
    for n in np.unique(N).tolist():
        at = np.flatnonzero(N == n)
        plan = _modulus_plan(q, n) if q is not None else _shift_plan(xs, n)
        step = max(1, _CHUNK // (n * u))
        for lo in range(0, len(at), step):
            idx = at[lo : lo + step]
            # each point's sum over n, by folding the upper half of the
            # remaining n onto the lower half (a fixed pairwise order)
            terms = _terms(plan, s[idx]).reshape(n, u, len(idx))
            k = n
            while k > 1:
                h = k // 2
                terms[:h] += terms[k - h : k]
                k -= h
            rows[idx] += terms[0].T
    return rows, bound


def hurwitz_zeta(s: complex, a: float):
    """(zeta(s, a), error bound) for 0 < a <= 1; errors at the s = 1 pole."""
    if not (0 < a <= 1):
        raise DomainError("hurwitz_zeta needs a shift in (0, 1]")
    if s == 1:
        raise PoleError("hurwitz zeta has its pole at s = 1")
    pts = np.array([s], dtype=np.complex128)
    rows, bound = _em_sum(pts, np.array([float(a)]), _shift_n(pts), _BERNOULLI)
    return complex(rows[0, 0]) + 1.0 / (complex(s) - 1.0), float(bound[0])


@dataclass(frozen=True)
class Window:
    """Half-strip on which evaluations are supported."""

    t_max: float = 50.0
    sigma_min: float = -1.0
    sigma_max: float = 3.0

    def validate(self, s) -> None:
        """Raise WindowError naming the first point of s (a scalar or an
        array) outside the window; NaN points are outside."""
        pts = np.asarray(s, dtype=np.complex128).ravel()
        inside = (
            (self.sigma_min <= pts.real)
            & (pts.real <= self.sigma_max)
            & (np.abs(pts.imag) <= self.t_max)
        )
        if not inside.all():
            bad = complex(pts[np.argmin(inside)])
            raise WindowError(f"point {bad} lies outside the window {self}")


# the one window every evaluation is checked against
WINDOW = Window()


def _character_table(chars) -> tuple[np.ndarray, np.ndarray]:
    """(shifts a/q over the units a mod q, (k x units) table of chi(a)) for
    characters of one modulus q."""
    if not chars:
        raise DomainError("a character family needs at least one character")
    q = chars[0].q
    if any(chi.q != q for chi in chars):
        raise DomainError("a character family shares one modulus")
    # mod 1 the one unit is a = 1, which the group lists as residue 0
    xs = dirichlet._group(q).units / q if q > 1 else np.ones(1)
    return xs, dirichlet._unit_values(chars)


def _contract(chars, xs: np.ndarray, table: np.ndarray, s: np.ndarray, row=None):
    """((k x points) L values, bound per point) at a window-checked 1-D s,
    or, given the index row[i] of each point's character, the one value of
    chars[row[i]] at each s[i].

    The kernel rows are built once for all k characters, a block of points
    at a time, and each point's kernel row is contracted with a character's
    table row by a per-point sum in a fixed order: a value does not depend
    on which other characters or points share the call, nor on whether it is
    read alone (row) or with every character.
    """
    principal = np.array([chi.is_principal for chi in chars])
    # the entries of the result that carry the principal pole (rows, or the
    # points of a paired read), and the points they are read at
    pole_at = principal if row is None else principal[row]
    pole_s = s if row is None else s[pole_at]
    if pole_at.any() and np.any(pole_s == 1.0):
        raise PoleError("principal character: L has a pole at s = 1")
    q = chars[0].q
    shape = (len(chars), len(s)) if row is None else s.shape
    vals = np.empty(shape, dtype=np.complex128)
    bounds = np.empty(len(s))
    # a block's kernel rows and its tail's table of _BERNOULLI + 2
    # Pochhammer products per point each fit in _CHUNK entries
    step = max(1, _CHUNK // max(len(xs), _BERNOULLI + 2))
    for lo in range(0, len(s), step):
        blk = s[lo : lo + step]
        rows, bounds[lo : lo + step] = _em_sum(blk, xs, _shift_n(blk), _BERNOULLI, q)
        if row is None:
            for j, weights in enumerate(table):
                vals[j, lo : lo + step] = np.sum(rows * weights, axis=1)
        else:
            # one character's points at a time, by the broadcast of its table
            # row that the full read uses: numpy's product of two
            # (points x units) arrays rounds some terms differently
            at = row[lo : lo + step]
            for j in np.unique(at):
                mine = np.flatnonzero(at == j)
                vals[lo + mine] = np.sum(rows[mine] * table[j], axis=1)
        del rows  # free this block's rows before the next block's kernel
    if pole_at.any():
        pole = sieve.euler_phi(q) * np.exp(-pole_s * math.log(q)) / (pole_s - 1.0)
        vals[pole_at] += pole
    return vals, bounds


class Paired(NamedTuple):
    """Characters of one modulus and, for each point of a 1-D s, the index
    of the one character read there: family_values(Paired(chars, row), s)."""

    chars: list
    row: np.ndarray


def family_values(chars, s):
    """((k x points) L values, error bound per point) for k characters of
    one modulus at a 1-D array of points.  Given Paired(chars, row), the
    values are the one value of chars[row[i]] at each s[i] instead, bit for
    bit those entries of the (k x points) array, at the cost of one
    contraction per point.

    One kernel pass serves every character.  The bound holds for each row,
    since |chi(a)| <= 1.  Row j equals LEvaluator(chars[j]).values(s), bit
    for bit.
    """
    row = None
    if isinstance(chars, Paired):
        chars, row = chars
        row = np.asarray(row, dtype=np.intp).ravel()
    chars = list(chars)
    s = np.asarray(s, dtype=np.complex128).ravel()
    WINDOW.validate(s)
    if row is not None and (row.shape != s.shape or np.any((row < 0) | (row >= len(chars)))):
        raise DomainError("a paired read names one character of the family per point")
    xs, table = _character_table(chars)
    return _contract(chars, xs, table, s, row)


def _require_xi(chars) -> None:
    if not all(chi.is_primitive and not chi.is_principal for chi in chars):
        raise DomainError("xi is defined for primitive nonprincipal characters")


def _log_gamma_factor(q: int, a: int, s: np.ndarray) -> np.ndarray:
    """z log(q/pi) + loggamma(z), z = (s+a)/2, point by point: a log of the
    Gamma factor (q/pi)^z Gamma(z), and its continuous one on Re z > 0, where
    loggamma (the principal branch) is analytic."""
    # imported on first use: scipy.special takes about 0.1 s to import
    from scipy.special import loggamma

    z = 0.5 * (s + a)
    return z * math.log(q / math.pi) + loggamma(z)


def _gamma_factor(q: int, a: int, s: np.ndarray) -> np.ndarray:
    """(q/pi)^((s+a)/2) Gamma((s+a)/2), point by point.

    At trivial zeros the Gamma pole meets an L zero; loggamma gives NaN at
    the pole and the contour code catches it, so callers form the factor
    and its product with L under np.errstate(invalid=..., over="ignore").
    """
    return np.exp(_log_gamma_factor(q, a, s))


def family_xi(chars, s) -> np.ndarray:
    """(k x points) xi values of k primitive nonprincipal characters of one
    modulus; row j equals LEvaluator(chars[j]).xi_values(s), bit for bit."""
    chars = list(chars)
    _require_xi(chars)
    s = np.asarray(s, dtype=np.complex128).ravel()
    lvals, _ = family_values(chars, s)
    with np.errstate(invalid="ignore", over="ignore"):
        pref = {a: _gamma_factor(chars[0].q, a, s) for a in {c.parity for c in chars}}
        for j, chi in enumerate(chars):
            lvals[j] = pref[chi.parity] * lvals[j]
    return lvals


class LEvaluator:
    """Window-checked evaluator for one character's L and xi values: the
    one-character case of family_values and family_xi."""

    def __init__(self, chi: dirichlet.Character):
        self.chi = chi
        self._xs, self._table = _character_table([chi])

    # -- scalar / vector values ------------------------------------------

    def values(self, s_array):
        """(L values, error bounds) for an array of points, or
        (complex, float) for a scalar point."""
        s = np.asarray(s_array, dtype=np.complex128).ravel()
        WINDOW.validate(s)
        vals, bounds = _contract([self.chi], self._xs, self._table, s)
        if np.ndim(s_array) == 0:
            return complex(vals[0, 0]), float(bounds[0])
        return vals[0], bounds

    # -- completed function ----------------------------------------------

    def xi_values(self, s_array):
        """xi(s) = (q/pi)^((s+a)/2) Gamma((s+a)/2) L(s, chi); primitive only."""
        out = family_xi([self.chi], s_array)[0]
        return complex(out[0]) if np.ndim(s_array) == 0 else out


# ---------------------------------------------------------------------------
# prime-side identities

# c in the zero count N(T + 1) - N(T) <= c log(q(|T| + 2)) behind every
# far-zero tail; the paper leaves it unspecified
_DENSITY_C = 1.0


def _density_tail(q: int, offset: float, T_cover: float) -> float:
    """Integral of c log(q(2+offset+u))/u^2 over u > T_cover (one side)."""
    B = 2.0 + offset
    return _DENSITY_C * (
        math.log(q * (B + T_cover)) / T_cover + math.log((B + T_cover) / T_cover) / B
    )


def von_mangoldt_series(lam: float, n_max: int = 10**6):
    """sum_n Lambda(n) n^{-1-lam}: truncated sum plus an integral tail estimate.

    The tail uses the average Lambda(n) ~ 1, so the completed value carries a
    small model error on top of the truncation; both pieces are returned.
    Returns (completed_value, truncated_sum, tail_estimate).
    """
    if lam <= 0:
        raise DomainError("needs lam > 0")
    lamarr = sieve.von_mangoldt_array(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    partial = float(np.sum(lamarr * n ** (-1.0 - lam)))
    tail = n_max ** (-lam) / lam
    return partial + tail, partial, tail


@dataclass(frozen=True)
class BalanceReport:
    s0: complex
    lhs: float
    rhs: float
    residual: float
    zero_sum: float
    zero_tail_bound: float
    lhs_tail_bound: float
    mangoldt_value: float
    mangoldt_gap: float


def explicit_formula_balance(
    chi: dirichlet.Character,
    lam: float,
    t: float,
    zeros,
    T_cover: float,
    n_max: int = 10**6,
) -> BalanceReport:
    """Check -Re L'/L(1+lam+it) against 1/2 log(q(1+|t|)) minus the zero sum.

    `zeros` must list all zeros (both signs of height) with |Im rho - t| <=
    T_cover; far zeros are absorbed into a density-based tail bound.
    """
    if not (0 < lam <= 0.5):
        raise DomainError("lam must lie in (0, 1/2]")
    if chi.is_principal:
        raise DomainError("balance check expects a nonprincipal character")
    zeros = list(zeros)  # read twice: the coverage check and the sum
    if T_cover <= 0 or not zeros:
        raise CoverageError("zero coverage is empty; supply zeros up to T_cover")
    q = chi.q
    s0 = 1.0 + lam + 1j * t
    lamarr = sieve.von_mangoldt_array(n_max)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    table = dirichlet.value_table(chi)
    chi_vals = table[np.arange(n_max + 1) % q] if q > 1 else np.ones(n_max + 1)
    lhs = float(
        np.sum(lamarr * (chi_vals * np.exp(-s0 * np.log(n))).real)
    )
    lhs_tail = n_max ** (-lam) / lam
    zero_sum = 0.0
    for rho in zeros:
        beta, gamma = _rho_parts(rho)
        zero_sum += ((1.0 + lam - beta) / abs(s0 - (beta + 1j * gamma)) ** 2)
    tail = 2.0 * (1.0 + lam) * _density_tail(q, abs(t), T_cover)
    rhs = 0.5 * math.log(q * (1.0 + abs(t))) - zero_sum
    # von_mangoldt_series(lam, n_max)[0], from the Lambda table built above
    mang_value = float(np.sum(lamarr * n ** (-1.0 - lam))) + lhs_tail
    return BalanceReport(
        s0=s0,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs),
        zero_sum=zero_sum,
        zero_tail_bound=tail,
        lhs_tail_bound=lhs_tail,
        mangoldt_value=mang_value,
        mangoldt_gap=abs(mang_value - 1.0 / lam),
    )


def _rho_parts(rho) -> tuple[float, float]:
    if hasattr(rho, "beta"):
        return float(rho.beta), float(rho.gamma)
    rho = complex(rho)
    return rho.real, rho.imag
