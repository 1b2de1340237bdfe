"""The benchmark workloads: seeded inputs, cache warm-up, the calls a pass
makes, and a correctness check for each call's output.

Every check rests on a fact that needs no stored reference output.  For
q <= 400 000 GRH has been verified far above the heights used here (Platt,
Math. Comp. 85 (2016)), so every zero must have beta = 1/2 and no zero may
lie in Re s >= 3/4.  See README.md for why each workload is included.
"""
from __future__ import annotations

import math
import random

BETA_TOL = 1e-6
RESIDUAL_MAX = 1e-6
HALASZ_REL_TOL = 1e-9

# first zero of L(s, chi_4), chi_4 = (4, 3)
CHI4_FIRST_GAMMA = 6.0209489047


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q, from q's factorisation alone
    (p - 2 for p || q, p^k - 2p^(k-1) + p^(k-2) for p^k || q with k >= 2)."""
    count, n, p = 1, q, 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k == 1:
            count *= p - 2
        elif k >= 2:
            count *= p**k - 2 * p ** (k - 1) + p ** (k - 2)
        p += 1
    return count


class Workload:
    """A seeded input list.  ``calls`` are (label, thunk) pairs; a thunk
    looks its library function up when called, so tracing wrappers apply."""

    name = ""

    def warm(self) -> None:
        """Fill the caches that every invocation of the CLI pays for."""

    def items(self, label) -> int:
        """Items one call is answerable for, counted in failed_frac."""
        return 1

    def check(self, label, out) -> int:
        """Number of this call's items whose output is wrong."""
        raise NotImplementedError


# One character per modulus keeps the mix of moduli, and so the amount of
# work, nearly the same for every seed; 3..24 keeps a pass near 2 s, so that
# every call is timed often in one run.
SWEEP_Q_MAX = 24


class ZeroSweep(Workload):
    """locate_zeros on Rectangle(0, 1, 0, 20) for one seeded primitive
    character of every modulus 3..24 that has one."""

    name = "zero-sweep"

    def __init__(self, cz, seed: int, smoke: bool):
        self.cz = cz
        rng = random.Random(seed)
        q_max, t2 = (8, 10.0) if smoke else (SWEEP_Q_MAX, 20.0)
        self.rect = cz.zeros.Rectangle(0.0, 1.0, 0.0, t2)
        self.chars = [
            rng.choice(cz.dirichlet.enumerate_characters(q, primitive_only=True))
            for q in range(3, q_max + 1)
            if primitive_count(q)
        ]
        self.calls = [
            (f"{chi.q}.{chi.conrey}", lambda chi=chi: cz.zeros.locate_zeros(chi, self.rect))
            for chi in self.chars
        ]

    def warm(self):
        for chi in self.chars:
            self.cz.lfunction.LEvaluator(chi)

    def check(self, label, out):
        ok = bool(out) and all(
            abs(r.beta - 0.5) <= BETA_TOL and self.rect.contains(r.rho) for r in out
        )
        if label == "4.3":
            ok = ok and abs(out[0].gamma - CHI4_FIRST_GAMMA) <= BETA_TOL
        return int(not ok)


# The fixed-window audit runs over one window, not a seeded one: single
# moduli near 50-70 take from 0 s (q = 54, 58: no primitive character) to
# 9 s (q = 53), so a seeded window would make the time follow the seed rather
# than the code.  51..52 takes about 2 s.
AUDIT_WINDOW = (51, 52)


class CorollaryAudit(Workload):
    """corollary_zero_budget_audit, fixed-window selector at eps = 0.9 over
    q = 51..52, plus the twisted-window slice q = 5..7 at a seeded T."""

    name = "corollary-audit"
    eps = 0.9

    def __init__(self, cz, seed: int, smoke: bool):
        self.cz = cz
        h = cz.harness
        lo, hi = (11, 12) if smoke else AUDIT_WINDOW
        # one call per modulus: the same rows and work as one call over the
        # window, in pieces a host slowdown spoils one of
        self.configs = {
            f"fixed:{q}": h.ScenarioConfig(q_min=q, q_max=q, eps=self.eps)
            for q in range(lo, hi + 1)
            if primitive_count(q)
        }
        self.configs["twisted:5-7"] = h.ScenarioConfig(
            q_min=5, q_max=5 if smoke else 7, eps=self.eps,
            T=random.Random(seed).uniform(1.0, 2.0), selector="twisted-window",
        )
        self.calls = [
            (label, lambda c=c: cz.harness.corollary_zero_budget_audit(c))
            for label, c in self.configs.items()
        ]

    def warm(self):
        for c in self.configs.values():
            for q in range(c.q_min, c.q_max + 1):
                for chi in self.cz.dirichlet.enumerate_characters(q, primitive_only=True):
                    self.cz.lfunction.LEvaluator(chi)

    def items(self, label):
        c = self.configs[label]
        return sum(primitive_count(q) for q in range(c.q_min, c.q_max + 1))

    def check(self, label, report):
        c = self.configs[label]
        rows = report.rows
        bad = abs(self.items(label) - len(rows))
        bad += len(rows) - len({(r.q, r.conrey) for r in rows})
        for r in rows:
            bad += int(not (c.q_min <= r.q <= c.q_max) or not self._row_ok(r))
        return bad

    def _row_ok(self, row) -> bool:
        """No zero in Re s >= 3/4.  The near-1 rectangle reaches Re s = 1/2
        below q ~ 105 at eps = 0.9, so there it must hold a zero exactly when
        the critical line does at those heights, counted independently."""
        if row.zero_count != 0:
            return False
        if row.near_one_sigma > 0.5:
            return not row.near_one_has_zero
        zeros, dirichlet = self.cz.zeros, self.cz.dirichlet
        h = row.near_one_height
        strip = zeros.Rectangle(0.45, 0.55, -h, h)
        on_line = zeros.count_zeros(dirichlet.character(row.q, row.conrey), strip)
        return row.near_one_has_zero == (on_line > 0)


class PlancherelGrid(Workload):
    """run_grid over the moduli (3, 4, 5, 8), the grid's lam and T values and
    one seeded phi with 1/2 <= |phi| <= 2, one call per modulus."""

    name = "plancherel-grid"

    def __init__(self, cz, seed: int, smoke: bool):
        pl = cz.plancherel
        rng = random.Random(seed)
        if smoke:
            self.moduli, self.lams, self.Ts = (3, 4), (0.0, 0.25), (1.0,)
        else:
            self.moduli, self.lams, self.Ts = (3, 4, 5, 8), pl.GRID_LAMS, pl.GRID_TS
        # phi = 0 skips the twist and near 0 Simpson stops earlier; away from
        # 0 the work hardly depends on phi
        self.phi = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        self.cz = cz
        # one run_grid call per modulus: run_grid builds every (chi, phi)
        # array of its moduli before it evaluates a case, which sets the
        # peak memory
        self.calls = [
            (
                f"q{q}",
                lambda q=q: cz.plancherel.run_grid(
                    moduli=(q,), lams=self.lams, Ts=self.Ts, phis=(self.phi,)
                ),
            )
            for q in self.moduli
        ]

    def warm(self):
        for q in self.moduli:
            for chi in self.cz.dirichlet.enumerate_characters(q, primitive_only=True):
                self.cz.lfunction.LEvaluator(chi)

    def items(self, label):
        chars = primitive_count(int(label[1:]))
        return chars * len(self.Ts) * len(self.lams)

    def check(self, label, results):
        bad = abs(self.items(label) - len(results))
        return bad + sum(not (r.residual <= RESIDUAL_MAX) for r in results)


class HalaszSearch(Workload):
    """halasz_bound at x = 1e5 for one seeded real f (a quadratic character or
    randpm:<k>) and one seeded complex f (ntoi:alpha or a complex character)."""

    name = "halasz-search"

    def __init__(self, cz, seed: int, smoke: bool):
        mf, dirichlet = cz.multfn, cz.dirichlet
        rng = random.Random(seed)
        self.cz = cz
        self.x = 2e4 if smoke else 1e5

        def chars(moduli, real):
            return [
                chi
                for q in moduli
                for chi in dirichlet.enumerate_characters(q, primitive_only=True)
                if (chi.order == 2) == real
            ]

        if rng.random() < 0.5:
            real = mf.CharacterFunction(rng.choice(chars((3, 4, 5, 7, 8, 11, 12, 13), True)))
        else:
            real = mf.RandomPMFunction(rng.randrange(2**31))
        if rng.random() < 0.5:
            cplx = mf.ArchimedeanTwist(rng.uniform(-5.0, 5.0))
        else:
            cplx = mf.CharacterFunction(rng.choice(chars((5, 7, 9, 11, 13), False)))
        self.functions = {f"real:{real.label}": real, f"complex:{cplx.label}": cplx}
        self.calls = [
            (label, lambda f=f: cz.multfn.halasz_bound(f, self.x))
            for label, f in self.functions.items()
        ]

    def warm(self):
        self.cz.sieve.primes_up_to(self.x)
        for f in self.functions.values():
            f.prime_values(self.cz.sieve.primes_up_to(self.x))

    def check(self, label, report):
        mf = self.cz.multfn
        f, data = self.functions[label], report.data
        logx = math.log(self.x)
        grid_max = max(math.log(v) for _, v in data.grid_trace)
        at_phi = math.log(abs(mf.euler_product_F(f, complex(1.0 + 1.0 / logx, data.phi), self.x)))
        ok = at_phi >= grid_max - HALASZ_REL_TOL * max(1.0, abs(grid_max))
        M = mf.distance_sq(f, mf.ArchimedeanTwist(data.phi), self.x)
        ok = ok and abs(M - data.M) <= 1e-12 * max(1.0, abs(M)) and abs(data.phi) <= logx
        return int(not ok)


WORKLOADS = {w.name: w for w in (ZeroSweep, CorollaryAudit, PlancherelGrid, HalaszSearch)}
