"""Scenario runner: zero-budget audits over character families, the
quadratic-nonresidue census, product/power large-sum searches, and the
disk-count experiment, with JSON/CSV emission.

The corollary audit works one modulus at a time: each of its rectangles is
counted for all characters mod q together (`zeros.count_zeros_family`), so
one L kernel pass per contour point serves the whole family.

Every report echoes the full constants configuration and the package
version; two runs with identical configuration are byte-identical (no
timestamps, stable key order).

The audited statements are asymptotic.  At desk scale an audit whose
hypothesis range is empty reports vacuous=True rather than a pass; the
suite checks computable ingredients and identities, not the theorems.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__, dirichlet, multfn, sieve, spectral, zeros
from .errors import DomainError

# budget denominators for the two sliding-window corollary selectors
_SELECTORS = {"fixed-window": 1600.0, "twisted-window": 1440.0}


@dataclass(frozen=True)
class Constants:
    """The unspecified absolute constants the reports depend on, settable
    with `--config` and echoed in every report.  Constants the paper leaves
    open elsewhere are fixed where they are used."""

    abs_c: float = 1.0
    witness_c: float = 3.0
    sum_bound_C: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"constant {f.name} must be a finite real > 0, got {v!r}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["version"] = __version__
        return d


@dataclass(frozen=True)
class ScenarioConfig:
    q_min: int
    q_max: int
    eps: float
    T: float = 1.0
    selector: str = "fixed-window"
    quadratic_only: bool = False
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        if self.selector not in _SELECTORS:
            raise DomainError(f"unknown selector {self.selector!r}")
        if not (2 <= self.q_min <= self.q_max):
            raise DomainError("modulus range must satisfy 2 <= q_min <= q_max")
        if not 0 < self.eps < math.inf:
            raise DomainError("eps must be finite and positive")
        if not 0 < self.T < math.inf:
            raise DomainError("T must be finite and positive")


@dataclass(frozen=True)
class AuditRow:
    q: int
    conrey: int
    eps: float
    x: float
    budget: int
    zero_count: int
    s_abs: float
    predicted_bound: float
    ratio: float
    budget_ok: bool
    hypothesis_ok: bool
    conclusion_ok: bool | None
    vacuous: bool
    near_one_sigma: float
    near_one_height: float
    near_one_has_zero: bool
    large_sum_hypothesis: bool


@dataclass(frozen=True)
class AuditReport:
    selector: str
    eps: float
    T: float
    rows: list
    constants: dict


def _audit_modulus(q: int, chars: list, config: ScenarioConfig) -> list:
    """The audit rows of the characters `chars` mod q, from one family count
    per rectangle."""
    c = config.constants
    logq = math.log(q)
    budget = int(config.eps**2 * logq / _SELECTORS[config.selector])
    x = q**config.eps
    vacuous = x < 2.0
    if config.selector == "fixed-window":
        counts = zeros.count_zeros_family(chars, zeros.Rectangle(0.75, 1.0, -0.25, 0.25))
        bound = c.sum_bound_C * x / math.log(x) ** 0.01 if x > 1 else x
        hyp_ok = config.eps > logq ** (-1.0 / 3.0)
    else:
        rect = zeros.Rectangle(0.75, 1.0, -config.T - 0.25, config.T + 0.25)
        counts = [len(r) for r in zeros.locate_zeros_family(chars, rect)]
        bound = c.sum_bound_C * x / config.T
        hyp_ok = (
            1.0 <= config.T <= logq ** (1.0 / 200.0)
            and config.eps > logq ** (-1.0 / 3.0)
        )
    # near-1 rectangle of the large-sum corollary, clipped to the
    # zero-bearing strip and the evaluator window
    sigma_lo = 1.0 - c.abs_c / (config.eps**8 * logq)
    height = min(c.abs_c / config.eps, 45.0)
    if sigma_lo < 1.0:
        near_rect = zeros.Rectangle(max(1e-3, sigma_lo), 1.0, -height, height)
        near = [n > 0 for n in zeros.count_zeros_family(chars, near_rect)]
    else:
        near = [False] * len(chars)
    rows = []
    for chi, count, near_has_zero in zip(chars, counts, near):
        s_abs = abs(dirichlet.partial_sum(chi, x).value)
        budget_ok = count <= budget
        concl = None
        if hyp_ok and budget_ok and not vacuous:
            concl = s_abs <= bound
        rows.append(
            AuditRow(
                q=q,
                conrey=chi.conrey,
                eps=config.eps,
                x=x,
                budget=budget,
                zero_count=count,
                s_abs=s_abs,
                predicted_bound=bound,
                ratio=s_abs / bound if bound > 0 else math.inf,
                budget_ok=budget_ok,
                hypothesis_ok=hyp_ok,
                conclusion_ok=concl,
                vacuous=vacuous,
                near_one_sigma=sigma_lo,
                near_one_height=height,
                near_one_has_zero=near_has_zero,
                large_sum_hypothesis=s_abs >= config.eps * x,
            )
        )
    return rows


def corollary_zero_budget_audit(config: ScenarioConfig) -> AuditReport:
    """Per primitive character: zero count in the corollary window versus
    the eps^2 log q budget, |S(q^eps, chi)| versus the predicted bound, and
    the near-1 rectangle report.

    Counts come from the argument principle, one family count per modulus
    and rectangle (`zeros.count_zeros_family`): fixed-window counts zeros in
    Re >= 3/4, |Im| <= 1/4, and near_one_has_zero is a nonzero count on the
    near-1 rectangle.  twisted-window, whose windows |Im - phi| <= 1/4 with
    |phi| <= T all lie in Re >= 3/4, |Im| <= T + 1/4, locates that box's
    zeros (`zeros.locate_zeros_family`): an empty box leaves every window
    empty, and a nonzero count raises CountMismatchError, since its zeros
    lie off the critical line and cannot be located.  Rows come in
    (q, conrey) order: moduli ascend and each modulus lists its characters
    by Conrey label.
    """
    rows = []
    for q in range(config.q_min, config.q_max + 1):
        chars = [
            chi
            for chi in dirichlet.enumerate_characters(q, primitive_only=True)
            if not (config.quadratic_only and chi.order != 2)
        ]
        if chars:
            rows += _audit_modulus(q, chars, config)
    return AuditReport(
        selector=config.selector,
        eps=config.eps,
        T=config.T,
        rows=rows,
        constants=config.constants.to_dict(),
    )


# ---------------------------------------------------------------------------
# quadratic nonresidue census


@dataclass(frozen=True)
class CensusReport:
    q: int
    u: float
    x: float
    count: int
    density: float
    bound: float
    bound_ok: bool
    constants: dict


def _square_mask(q: int) -> np.ndarray:
    mask = np.zeros(q, dtype=bool)
    mask[(np.arange(1, q, dtype=np.int64) ** 2) % q] = True
    return mask


def full_period_nonresidue_count(q: int) -> int:
    """Nonresidues in [1, q-1]; exactly (q-1)/2 for odd primes."""
    if not sieve.is_prime(q):
        raise DomainError("q must be prime")
    return int(q - 1 - np.count_nonzero(_square_mask(q)))


def nonresidue_census(q: int, u: float, constants: Constants | None = None) -> CensusReport:
    """Exact count of quadratic nonresidues n <= q^{u/4}, against the
    density lower bound (o(1) term instantiated as 0)."""
    if not sieve.is_prime(q) or q == 2:
        raise DomainError("q must be an odd prime")
    c = constants or Constants()
    density = spectral.nonresidue_density_lower_bound(u)  # checks u first
    x = q ** (u / 4.0)
    n = int(math.floor(x))
    mask = _square_mask(q)
    count = int(np.count_nonzero(~mask[1 : n + 1]))
    bound = density * x
    return CensusReport(
        q=q,
        u=u,
        x=x,
        count=count,
        density=count / x,
        bound=bound,
        bound_ok=count >= bound,
        constants=c.to_dict(),
    )


# ---------------------------------------------------------------------------
# product / power large-sum searches


@dataclass(frozen=True)
class ProductSearchReport:
    label: str
    eta: float
    x1: float
    x2: float
    X: float
    mean1_abs: float
    mean2_abs: float
    hypothesis_ok: bool
    phi1: float
    phi2: float
    phi: float
    M_triangle: float
    product_mean_abs: float
    witness_y: float
    witness_mean_abs: float
    xi_report: float
    x_lower: float
    restricted_y: float
    restricted_mean_abs: float
    mean_ok: bool
    constants: dict


def product_large_sum_search(
    f1, f2, x1: float, x2: float, eta: float, constants: Constants | None = None
) -> ProductSearchReport:
    """Witness a large mean of f1*f2 from large means of the factors.

    The hypothesis |sum_{n<=x_j} f_j| >= eta x_j is checked first; failure
    switches to report-only mode (flagged, never silent).  phi = phi1+phi2
    and the triangle-inequality bound M <= (D_1 + D_2)^2 at X = min(x1,x2)
    drive the witness scan.
    """
    if not 0 < eta <= 1:
        raise DomainError("eta must lie in (0, 1]")
    c = constants or Constants()
    m1 = abs(multfn.mean_value(f1, x1))
    m2 = abs(multfn.mean_value(f2, x2))
    hyp = m1 >= eta and m2 >= eta
    X = min(x1, x2)
    d1 = multfn.find_phi_and_M(f1, x1)
    d2 = multfn.find_phi_and_M(f2, x2)
    phi = d1.phi + d2.phi
    prod = f1 * f2
    t1 = multfn.distance(f1, multfn.ArchimedeanTwist(d1.phi), X)
    t2 = multfn.distance(f2, multfn.ArchimedeanTwist(d2.phi), X)
    m_tri = (t1 + t2) ** 2
    data = multfn.HalaszData(x=X, phi=phi, M=m_tri, grid_trace=[])
    wit = multfn.large_mean_witness(prod, X, c=c.witness_c, data=data)
    xi = c.abs_c * eta**6
    x_lower = X**xi
    # second scan restricted to the corollary's admissible range y >= X^xi
    res = multfn.large_mean_witness(prod, X, c=c.witness_c, data=data, y_min=x_lower)
    return ProductSearchReport(
        label=f"({f1.label})*({f2.label})",
        eta=eta,
        x1=x1,
        x2=x2,
        X=X,
        mean1_abs=m1,
        mean2_abs=m2,
        hypothesis_ok=hyp,
        phi1=d1.phi,
        phi2=d2.phi,
        phi=phi,
        M_triangle=m_tri,
        product_mean_abs=abs(multfn.mean_value(prod, X)),
        witness_y=wit.y,
        witness_mean_abs=abs(wit.mean),
        xi_report=xi,
        x_lower=x_lower,
        restricted_y=res.y,
        restricted_mean_abs=abs(res.mean),
        mean_ok=abs(res.mean) >= xi,
        constants=c.to_dict(),
    )


@dataclass(frozen=True)
class PowerSearchReport:
    label: str
    k: int
    eta: float
    x: float
    mean_abs: float
    hypothesis_ok: bool
    phi: float
    M_triangle: float
    witness_y: float
    witness_mean_abs: float
    xi_report: float
    y_lower: float
    restricted_y: float
    restricted_mean_abs: float
    mean_ok: bool
    constants: dict


def power_large_sum_search(
    f, x: float, k: int, eta: float, constants: Constants | None = None
) -> PowerSearchReport:
    """Same scan for f^k: phi_k = k phi and M_k <= k^2 M by the triangle
    inequality; target scale eta^{2k^2}."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    if not 0 < eta <= 1:
        raise DomainError("eta must lie in (0, 1]")
    c = constants or Constants()
    m = abs(multfn.mean_value(f, x))
    hyp = m >= eta
    d = multfn.find_phi_and_M(f, x)
    t = multfn.distance(f, multfn.ArchimedeanTwist(d.phi), x)
    m_tri = (k * t) ** 2
    data = multfn.HalaszData(x=x, phi=k * d.phi, M=m_tri, grid_trace=[])
    fk = f.power(k)
    wit = multfn.large_mean_witness(fk, x, c=c.witness_c, data=data)
    xi = c.abs_c * eta ** (2 * k * k)
    y_lower = x**xi
    res = multfn.large_mean_witness(fk, x, c=c.witness_c, data=data, y_min=y_lower)
    return PowerSearchReport(
        label=f"({f.label})^{k}",
        k=k,
        eta=eta,
        x=x,
        mean_abs=m,
        hypothesis_ok=hyp,
        phi=k * d.phi,
        M_triangle=m_tri,
        witness_y=wit.y,
        witness_mean_abs=abs(wit.mean),
        xi_report=xi,
        y_lower=y_lower,
        restricted_y=res.y,
        restricted_mean_abs=abs(res.mean),
        mean_ok=abs(res.mean) >= xi,
        constants=c.to_dict(),
    )


# ---------------------------------------------------------------------------
# disk-count experiment


@dataclass(frozen=True)
class ExperimentReport:
    q: int
    conrey: int
    x: float
    x_lo: float
    x_hi: float
    x_range_ok: bool
    N: float | None
    N_cap: float
    N_ok: bool
    phi: float
    phi_bound_first: float
    phi_bound_orderk: float
    rows: list
    constants: dict


def disk_count_experiment(
    q: int,
    conrey: int,
    x: float,
    L_grid,
    constants: Constants | None = None,
) -> ExperimentReport:
    """disk_count_audit across an L grid plus the hypothesis-range and
    phi-bound diagnostics.  Report-only: at desk scale the x-range
    exp(sqrt(log q)) <= x <= sqrt(q) and the N cap rarely hold together,
    and the report says so instead of asserting the count bound."""
    c = constants or Constants()
    chi = dirichlet.character(q, conrey)
    logx = math.log(x)
    x_lo = math.exp(math.sqrt(math.log(q)))
    x_hi = math.sqrt(q)
    s_val = abs(dirichlet.partial_sum(chi, x).value)
    n_val = x / s_val if s_val > 0 else None
    n_cap = logx**0.01
    n_ok = n_val is not None and 1.0 <= n_val <= n_cap
    order = chi.order
    y0 = logx
    ratio = c.abs_c * x / s_val if s_val > 0 else math.inf
    phi_first = ratio
    # order-k bound computed in log space; high-order characters overflow
    log_orderk = 2 * order * order * math.log(ratio) - math.log(y0)
    phi_orderk = math.exp(log_orderk) if log_orderk < 700 else math.inf
    rows = [zeros.disk_count_audit(chi, x, L, abs_c=c.abs_c) for L in L_grid]
    data = multfn.find_phi_and_M(multfn.CharacterFunction(chi), x)
    return ExperimentReport(
        q=q,
        conrey=conrey,
        x=x,
        x_lo=x_lo,
        x_hi=x_hi,
        x_range_ok=x_lo <= x <= x_hi,
        N=n_val,
        N_cap=n_cap,
        N_ok=n_ok,
        phi=data.phi,
        phi_bound_first=phi_first,
        phi_bound_orderk=phi_orderk,
        rows=rows,
        constants=c.to_dict(),
    )


# ---------------------------------------------------------------------------
# emission

def report_dict(obj):
    """A report as plain data: a dataclass becomes a dict of its fields in
    declaration order, and dicts and lists are walked; anything else is
    returned as it is.  Three rules shape a dataclass's columns:

    - a complex field `z` gives the columns `z_re` and `z_im` in its place;
    - a nested dataclass field gives its own columns in its place;
    - a field declared `repr=False` is left out.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in fields(obj):
            if not f.repr:
                continue
            v = getattr(obj, f.name)
            if is_dataclass(v):
                out.update(report_dict(v))
            elif isinstance(v, complex):
                out[f"{f.name}_re"], out[f"{f.name}_im"] = v.real, v.imag
            else:
                out[f.name] = report_dict(v)
        return out
    if isinstance(obj, dict):
        return {k: report_dict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [report_dict(v) for v in obj]
    return obj


def to_json(obj) -> str:
    """Stable-order JSON for any report object or plain structure."""
    return json.dumps(report_dict(obj), sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON-serializable: {type(v)!r}")


def rows_to_csv(rows: list) -> str:
    """RFC-4180 CSV with a header row; rows are dicts sharing a key set."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
