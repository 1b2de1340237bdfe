"""Dirichlet characters mod q: canonical unit-group bases, Conrey labels,
exact root-of-unity values, and deterministic partial sums.

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
class UnitGroupBasis:
    """Generators of (Z/q)^* as a product of cyclic groups.

    Blocks are listed with prime-power factors in ascending prime order.  For
    2^e with e >= 3 the block contributes the pair (-1, 5) with orders
    (2, 2^(e-2)); odd prime powers contribute their smallest primitive root.
    Generators are CRT-lifted to residues mod q.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    generators: tuple[int, ...]
    generator_orders: tuple[int, ...]


@lru_cache(maxsize=256)
def unit_group_basis(q: int) -> UnitGroupBasis:
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    sieve.check_limit(q, "modulus")
    factors = tuple(sieve.factorize(q)) if q > 1 else ()
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factors:
        pe = p**e
        cof = q // pe
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                block = [(3, 2)]
            else:
                block = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            block = [(sieve.primitive_root(p, e), sieve.euler_phi(pe))]
        for g, d in block:
            lifted = g if cof == 1 else sieve.crt_pair(g, pe, 1, cof)
            gens.append(lifted)
            orders.append(d)
    return UnitGroupBasis(q, factors, tuple(gens), tuple(orders))


@lru_cache(maxsize=128)
def _basis_tables(q: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """(units, exponent matrix, D, weights) for mod-q discrete logs.

    units: ascending residues coprime to q, shape (phi,).
    expmat[i, j]: exponent of generator j in units[i].
    D = lcm of generator orders; weights[j] = D // order_j, so the angle of
    a character with exponents a at units[i] is (expmat[i] . (a * weights)) / D.
    """
    basis = unit_group_basis(q)
    gens, orders = basis.generators, basis.generator_orders
    ngen = len(gens)
    table: dict[int, tuple[int, ...]] = {1 % q: (0,) * ngen}
    # enumerate the group generator by generator
    for j, (g, d) in enumerate(zip(gens, orders)):
        current = list(table.items())
        for r, exps in current:
            acc = r
            for k in range(1, d):
                acc = acc * g % q
                e = list(exps)
                e[j] = k
                table[acc] = tuple(e)
    units = np.array(sorted(table), dtype=np.int64)
    expmat = np.array([table[int(u)] for u in units], dtype=np.int64)
    if expmat.size == 0:
        expmat = expmat.reshape(len(units), 0)
    D = 1
    for d in orders:
        D = D * d // math.gcd(D, d)
    weights = np.array([D // d for d in orders], dtype=np.int64)
    return units, expmat, D, weights


@lru_cache(maxsize=128)
def _unit_index(q: int) -> dict[int, int]:
    """Position of each unit residue in the ascending `units` of _basis_tables."""
    units, _, _, _ = _basis_tables(q)
    return {int(u): i for i, u in enumerate(units)}


@dataclass(frozen=True)
class Character:
    """A Dirichlet character mod q in the Conrey labeling.

    `exponents[j]` is the numerator c_j in chi(g_j) = e(c_j / d_j) against the
    canonical basis generators g_j of order d_j.
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
        if self.q == 1:
            return Fraction(0)
        idx = _unit_index(self.q).get(n)
        if idx is None:
            return None
        _, expmat, D, weights = _basis_tables(self.q)
        a = np.asarray(self.exponents, dtype=np.int64)
        num = int(expmat[idx] @ (a * weights)) % D
        return Fraction(num, D)

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


def _angle_numerators(q: int, exponents: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Angle numerators over denominator D at every unit residue (ascending)."""
    _, expmat, D, weights = _basis_tables(q)
    a = np.asarray(exponents, dtype=np.int64)
    if expmat.shape[1] == 0:
        return np.zeros(expmat.shape[0], dtype=np.int64), D
    return (expmat @ (a * weights)) % D, D


def _invariants(q: int, exponents: tuple[int, ...]) -> tuple[int, int, int]:
    """(order, parity, conductor) from the exponent tuple."""
    basis = unit_group_basis(q)
    order = 1
    for a, d in zip(exponents, basis.generator_orders):
        o = d // math.gcd(d, a)
        order = order * o // math.gcd(order, o)
    nums, D = _angle_numerators(q, exponents)
    units, _, _, _ = _basis_tables(q)
    if q <= 2:
        parity = 0
    else:
        idx = _unit_index(q)[q - 1]
        parity = 0 if nums[idx] == 0 else 1
    conductor = q
    for f in sieve.divisors(q):
        mask = units % f == 1 % f
        if np.all(nums[mask] == 0):
            conductor = f
            break
    return order, parity, conductor


def _exponents_from_conrey(q: int, n: int) -> tuple[int, ...]:
    """Discrete log of the Conrey label against the canonical basis.

    The character with label n sends each generator g_j to e(a_j / d_j) where
    (a_j) is the exponent vector of n itself.  This realizes the symmetric
    Conrey pairing chi_q(n, m) = e(sum a_j b_j / d_j).
    """
    idx = _unit_index(q).get(n % q)
    if idx is None:
        raise DomainError(f"Conrey label {n} is not coprime to modulus {q}")
    _, expmat, _, _ = _basis_tables(q)
    return tuple(int(v) for v in expmat[idx])


@lru_cache(maxsize=4096)
def character(q: int, conrey: int) -> Character:
    """The Dirichlet character mod q with the given Conrey label."""
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if q == 1:
        return Character(1, 1, (), 1, 0, 1, True)
    conrey %= q
    if math.gcd(conrey, q) != 1:
        raise DomainError(f"Conrey label {conrey} is not coprime to modulus {q}")
    exps = _exponents_from_conrey(q, conrey)
    order, parity, conductor = _invariants(q, exps)
    return Character(q, conrey, exps, order, parity, conductor, conductor == q)


def principal_character(q: int) -> Character:
    return character(q, 1)


def enumerate_characters(q: int, primitive_only: bool = False) -> list[Character]:
    """All characters mod q in ascending Conrey-label order."""
    if q == 1:
        chars = [character(1, 1)]
    else:
        units, _, _, _ = _basis_tables(q)
        chars = [character(q, int(u)) for u in units]
    if primitive_only:
        chars = [c for c in chars if c.is_primitive]
    return chars


@lru_cache(maxsize=512)
def value_table(chi: Character) -> np.ndarray:
    """chi(r) for r = 0..q-1 as complex128 (zeros off the unit group).

    A character of order <= 2 gets exactly +-1: exp(i pi) would carry an
    imaginary part of 1.2e-16, and chi would no longer be real.
    """
    q = chi.q
    table = np.zeros(q if q > 1 else 1, dtype=np.complex128)
    if q == 1:
        table[0] = 1.0
        return table
    nums, D = _angle_numerators(q, chi.exponents)
    units, _, _, _ = _basis_tables(q)
    if chi.order <= 2:
        table[units] = np.where(nums == 0, 1.0, -1.0)
    else:
        table[units] = np.exp(2j * np.pi * (nums / D))
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
    nums, D = _angle_numerators(q, chi.exponents)
    units, _, _, _ = _basis_tables(q)
    # angles reduce to denominator k = order
    red = nums * k // D
    coeffs = np.zeros(k, dtype=np.int64)
    full, rest = divmod(m, q)
    for u, r in zip(units, red):
        count = full + (1 if u != 0 and u <= rest else 0)
        if q == 1:
            count = m
        coeffs[int(r)] += count
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
