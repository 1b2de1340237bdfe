"""Dirichlet characters mod q: one character group per modulus, Conrey
labels, exact root-of-unity values, and deterministic partial sums.

Everything about the characters mod q comes from one cached record per
modulus, _group(q): the units in ascending order, each unit's exponents over
canonical generators of (Z/q)^*, and the order, parity and conductor of
every character as arrays in unit order.  By the Conrey pairing the
character labelled units[i] has the exponents of units[i], so a character is
one row of the record, and the values of k characters at every unit are one
integer product and a gather from the record's roots of unity.  Nothing else
is cached per modulus; value_table and gauss_sum cache one character's table
and sum for the callers that want one character.

Character values are rational angles (fractions of a full turn), so algebraic
identities (multiplicativity, orthogonality) can be checked exactly; complex
floats enter only at the arithmetic boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import sieve
from .errors import DomainError

_BLOCK = 1 << 20  # sums over n accumulate in fixed blocks, pairwise inside


@dataclass(frozen=True)
class _Group:
    """The characters mod q, as arrays over the ascending units.

    The generators of (Z/q)^* come block by block, prime-power factors in
    ascending prime order: the smallest primitive root for an odd p^e, 3 for
    4, and the pair (-1, 5) of orders (2, 2^(e-2)) for 2^e with e >= 3, each
    CRT-lifted to a residue mod q.

    units: ascending residues coprime to q, shape (phi,).
    expmat[i, j]: exponent of generator j in units[i]; also the exponents of
        the character labelled units[i] (Conrey pairing).
    D = lcm of the generator orders d_j, weights[j] = D // d_j: the character
        with exponents a has angle (expmat[i] . (a * weights)) / D at units[i].
    roots[m] = e(m / D).
    order, parity, conductor: of the character labelled units[i], at i.
    """

    units: np.ndarray
    expmat: np.ndarray
    D: int
    weights: np.ndarray
    roots: np.ndarray
    order: np.ndarray
    parity: np.ndarray
    conductor: np.ndarray


@lru_cache(maxsize=128)
def _group(q: int) -> _Group:
    """The character group mod q; the only cache of character data.

    With a_j the character's exponent on generator j of order d_j, its
    restriction there has order o_j = d_j / gcd(d_j, a_j), and
    - its order is the lcm of the o_j;
    - it is odd when its angle at q - 1 (the last unit) is nonzero;
    - its conductor is the lcm, over j with o_j > 1, of c_j gcd(o_j, m_j),
      with (c, m) = (p, p^(e-1)) for an odd p^e, (4, 1) for the generator
      of 4 and for -1 mod 2^e, and (4, 2^(e-2)) for 5 mod 2^e.
    The conductor rule holds because the characters mod p^e of conductor
    dividing p^f are those trivial on the units = 1 mod p^f.  For odd p that
    subgroup of the cyclic group has order p^(e-f), so a restriction of
    order o has conductor p^(1 + v_p(o)), or 1 when o = 1.  Mod 2^e the units
    = 1 mod 2^f (f >= 2) are the powers of 5^(2^(f-2)), so a restriction to
    <5> of order o > 1 has conductor 4 o, and one to <-1> has conductor 4.
    The conductor of a product over coprime moduli, or of two powers of 2,
    is the lcm of the factors' conductors.
    """
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    sieve.check_limit(q, "modulus")
    gens = []  # (generator mod q, its order d, c, m)
    for p, e in sieve.factorize(q) if q > 1 else ():
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            block = [(3, 2, 4, 1)] if e == 2 else [(pe - 1, 2, 4, 1), (5, pe // 4, 4, pe // 4)]
        else:
            block = [(sieve.primitive_root(p, e), sieve.euler_phi(pe), p, pe // p)]
        cof = q // pe
        gens += [(g if cof == 1 else sieve.crt_pair(g, pe, 1, cof), d, c, m) for g, d, c, m in block]
    # every unit as a product of generator powers, generator by generator
    units = np.array([1 % q], dtype=np.int64)
    expmat = np.zeros((1, 0), dtype=np.int64)
    for g, d, _, _ in gens:
        powers = [1]
        for _ in range(d - 1):
            powers.append(powers[-1] * g % q)
        expmat = np.column_stack([np.repeat(expmat, d, axis=0), np.tile(np.arange(d), len(units))])
        units = (units[:, None] * np.array(powers, dtype=np.int64) % q).ravel()
    perm = np.argsort(units)
    units, expmat = units[perm], expmat[perm]
    _, d, c, m = np.array(gens, dtype=np.int64).reshape(-1, 4).T
    D = math.lcm(*d.tolist())
    weights = D // d
    o = d // np.gcd(d, expmat)  # each character's order on each generator
    return _Group(
        units=units,
        expmat=expmat,
        D=D,
        weights=weights,
        roots=np.exp(2j * np.pi * (np.arange(D) / D)),
        order=np.lcm.reduce(o, axis=1, initial=1),
        parity=((expmat * weights) @ expmat[-1] % D != 0).astype(np.int64),
        conductor=np.lcm.reduce(np.where(o > 1, c * np.gcd(o, m), 1), axis=1, initial=1),
    )


def _angles(chars) -> np.ndarray:
    """(k x units) angle numerators over D of k characters of one modulus."""
    g = _group(chars[0].q)
    a = np.array([chi.exponents for chi in chars], dtype=np.int64)
    return (a * g.weights) @ g.expmat.T % g.D


def _unit_values(chars) -> np.ndarray:
    """(k x units) values of k characters of one modulus at the units.

    A character of order <= 2 gets exactly +-1: exp(i pi) would carry an
    imaginary part of 1.2e-16, and chi would no longer be real.
    """
    nums = _angles(chars)
    vals = _group(chars[0].q).roots[nums]
    for j, chi in enumerate(chars):
        if chi.order <= 2:
            vals[j] = np.where(nums[j] == 0, 1.0, -1.0)
    return vals


@dataclass(frozen=True)
class Character:
    """A Dirichlet character mod q in the Conrey labeling.

    `exponents[j]` is the numerator c_j in chi(g_j) = e(c_j / d_j) against the
    generators g_j of order d_j of _group(q).
    """

    q: int
    conrey: int
    exponents: tuple[int, ...]
    order: int
    parity: int  # 0 even, 1 odd
    conductor: int
    is_primitive: bool

    @property
    def is_principal(self) -> bool:
        return self.order == 1

    def angle(self, n: int) -> Fraction | None:
        """chi(n) as a fraction of a full turn in [0, 1); None when chi(n) = 0."""
        n %= self.q
        g = _group(self.q)
        i = int(np.searchsorted(g.units, n))
        if i == len(g.units) or g.units[i] != n:
            return None
        a = np.asarray(self.exponents, dtype=np.int64)
        return Fraction(int(g.expmat[i] @ (a * g.weights)) % g.D, g.D)

    def __call__(self, n: int) -> complex:
        return complex(value_table(self)[n % self.q])

    def conjugate(self) -> "Character":
        return character(self.q, pow(self.conrey, -1, self.q) if self.q > 1 else 1)

    def __mul__(self, other: "Character") -> "Character":
        if self.q != other.q:
            raise DomainError("character product needs a common modulus")
        return character(self.q, self.conrey * other.conrey % self.q if self.q > 1 else 1)

    def power(self, k: int) -> "Character":
        return character(self.q, pow(self.conrey, k, self.q) if self.q > 1 else 1)


def _characters(q: int, rows) -> list[Character]:
    """The characters mod q > 1 labelled by units[rows] of _group(q)."""
    g = _group(q)
    cols = (g.units, g.expmat, g.order, g.parity, g.conductor)
    return [
        Character(q, u, tuple(a), o, p, f, f == q)
        for u, a, o, p, f in zip(*(col[rows].tolist() for col in cols))
    ]


def character(q: int, conrey: int) -> Character:
    """The Dirichlet character mod q with the given Conrey label."""
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if q == 1:
        return Character(1, 1, (), 1, 0, 1, True)
    conrey %= q
    if math.gcd(conrey, q) != 1:
        raise DomainError(f"Conrey label {conrey} is not coprime to modulus {q}")
    return _characters(q, [int(np.searchsorted(_group(q).units, conrey))])[0]


def principal_character(q: int) -> Character:
    return character(q, 1)


def enumerate_characters(q: int, primitive_only: bool = False) -> list[Character]:
    """All characters mod q in ascending Conrey-label order."""
    if q == 1:
        return [character(1, 1)]
    g = _group(q)
    return _characters(q, g.conductor == q if primitive_only else slice(None))


@lru_cache(maxsize=512)
def value_table(chi: Character) -> np.ndarray:
    """chi(r) for r = 0..q-1 as complex128 (zeros off the unit group)."""
    table = np.zeros(chi.q, dtype=np.complex128)
    table[_group(chi.q).units] = _unit_values([chi])[0]
    return table


# ---------------------------------------------------------------------------
# exact cyclotomic accumulation


@lru_cache(maxsize=256)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, ascending degree, by exact integer division."""
    poly = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    for d in sieve.divisors(k):
        if d == k:
            continue
        phi_d = cyclotomic_polynomial(d)
        poly = _poly_div_exact(poly, list(phi_d))
    return tuple(poly)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@dataclass
class CyclotomicSum:
    """An integer combination of k-th roots of unity: sum coeffs[j] * e(j/k)."""

    k: int
    coeffs: np.ndarray  # int64, length k

    def to_complex(self) -> complex:
        js = np.arange(self.k)
        return complex(np.sum(self.coeffs * np.exp(2j * np.pi * js / self.k)))

    def is_zero(self) -> bool:
        """Exact zero test: reduce mod Phi_k over the integers."""
        if self.k == 1:
            return int(self.coeffs[0]) == 0
        if np.all(self.coeffs == self.coeffs[0]):
            # equal weight on every k-th root of unity sums to zero (k > 1)
            return True
        phi = list(cyclotomic_polynomial(self.k))
        rem = [int(c) for c in self.coeffs]
        deg_phi = len(phi) - 1
        for i in range(len(rem) - 1, deg_phi - 1, -1):
            c = rem[i]
            if c:
                for j, pj in enumerate(phi):
                    rem[i - deg_phi + j] -= c * pj
        return all(v == 0 for v in rem)


def character_sum_exact(chi: Character, m: int) -> CyclotomicSum:
    """sum_{n<=m} chi(n) held exactly as a cyclotomic integer."""
    q, k = chi.q, chi.order
    units = _group(q).units
    # angles reduce to denominator k = order
    red = _angles([chi])[0] * k // _group(q).D
    full, rest = divmod(m, q)
    # every unit once per full period, then the units up to the remainder
    coeffs = full * np.bincount(red, minlength=k)
    coeffs += np.bincount(red[(0 < units) & (units <= rest)], minlength=k)
    return CyclotomicSum(k, coeffs)


# ---------------------------------------------------------------------------
# partial sums


@dataclass(frozen=True)
class PartialSum:
    """S(x) = sum_{n<=x} chi(n) n^{-i phi}, with N = x / |S| when S != 0."""

    x: float
    value: complex
    phi: float
    N: float | None


def _blocks(m: int):
    """1..m as consecutive int64 arrays of at most _BLOCK entries."""
    for start in range(1, m + 1, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, m + 1), dtype=np.int64)


def _blocked_sum(values_at, m: int) -> complex:
    """sum of values_at(n) over 1 <= n <= m in a fixed order.

    numpy sums each block pairwise, then the block sums are summed, so memory
    stays at one block and the result never depends on the caller.
    """
    return complex(np.sum(np.array([np.sum(values_at(n)) for n in _blocks(m)])))


def _partial_sum(chi: Character, phi: float, x: float) -> PartialSum:
    if not (math.isfinite(x) and math.isfinite(phi)):
        raise DomainError(f"partial sums need finite x and phi, got x = {x}, phi = {phi}")
    if x < 1:
        raise DomainError("partial sums need x >= 1")
    sieve.check_limit(x, "partial-sum length")
    phi = float(phi)
    table = value_table(chi)

    # multiplied as n^{-i phi} * chi(n) through np.multiply, the order of
    # multfn.TwistedFunction: a complex product rounds by its operand order
    def values_at(n):
        vals = table[n % chi.q]
        return np.multiply(np.exp(-1j * phi * np.log(n)), vals) if phi else vals

    value = _blocked_sum(values_at, int(math.floor(x)))
    N = x / abs(value) if value != 0 else None
    return PartialSum(x, value, phi, N)


def partial_sum(chi: Character, x: float) -> PartialSum:
    """sum of chi(n) for 1 <= n <= floor(x), deterministic pairwise order."""
    return _partial_sum(chi, 0.0, x)


def twisted_partial_sum(chi: Character, phi: float, x: float) -> PartialSum:
    """sum of chi(n) n^{-i phi}; phi = 0 reproduces partial_sum bit-for-bit."""
    return _partial_sum(chi, phi, x)


@lru_cache(maxsize=512)
def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q)."""
    q = chi.q
    a = np.arange(q if q > 1 else 1)
    return complex(np.sum(value_table(chi) * np.exp(2j * np.pi * a / max(q, 1))))
