"""Outside-in span tracing of charzero's public functions.

The tracer replaces every public function of the traced modules (and the
public methods of ``lfunction.LEvaluator``, the L kernel's entry points)
with a wrapper that records a span: name, parent span, start, end, and a
few counts read from the call's arguments or result.  Nothing inside the
library changes; private helpers such as ``_newton_polish``, ``_em_reg``
and ``_log_abs_F`` are not wrapped, so their cost lands in the self time of
the nearest wrapped caller.  ``derive_metrics`` turns the spans of one
traced pass into the per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "lfunction",
    "contour",
    "zeros",
    "plancherel",
    "multfn",
    "sieve",
    "dirichlet",
    "harness",
)

# Simpson's rule in plancherel.rhs_L_integral starts at 64 intervals and
# doubles at most 12 times; reaching the top means it stopped uncoverged.
SIMPSON_CAP = 64 * 2**12

# counts read from a call: (args, result) -> {key: number}
_NOTES = {
    "lfunction.values": lambda a, out: {"points": int(np.size(a[1]))},
    "lfunction.grid": lambda a, out: {"cells": len(a[1]) * len(a[2])},
    "zeros.count_zeros": lambda a, out: {"empty": int(out == 0)},
    "zeros.locate_zeros": lambda a, out: {"zeros": len(out)},
    "plancherel.lhs_gaussian_sum": lambda a, out: {"terms": out[2]},
    "plancherel.rhs_L_integral": lambda a, out: {"intervals": out[3]},
    "multfn.find_phi_and_M": lambda a, out: {"grid_points": len(out.grid_trace)},
    "sieve.primes_up_to": lambda a, out: {"primes": len(out)},
}

# a values span is named by the wrapped public function that called it
_VALUES_ROLES = {
    "zeros.locate_zeros": "newton",
    "lfunction.xi_values": "contour",
    "plancherel.rhs_L_integral": "lline",
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A span is the list [name, parent, start, end, notes]; parent is the
    index of the enclosing span or -1.
    """

    def __init__(self, charzero_pkg):
        self._pkg = charzero_pkg.__name__
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self._targets = self._find_targets(charzero_pkg)

    @staticmethod
    def _find_targets(pkg):
        """(owner, attribute, span name) for every function to wrap."""
        targets = []
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{pkg.__name__}.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    targets.append((mod, attr, f"{short}.{attr}"))
        ev = importlib.import_module(f"{pkg.__name__}.lfunction").LEvaluator
        for attr, obj in vars(ev).items():
            if not attr.startswith("_") and callable(obj):
                targets.append((ev, attr, f"lfunction.{attr}"))
        return targets

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def install(self):
        """Wrap every target, also where another module imported it by name."""
        wrapped = {}
        for owner, attr, name in self._targets:
            fn = vars(owner)[attr]
            wrapped[id(fn)] = self._wrap(name, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(self._pkg + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _layers(spans: list):
    """(layer name, self time, total time) per span; a values span gets its
    role suffix from the wrapped public function that called it."""
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, parent, start, end, _) in enumerate(spans):
        if name == "lfunction.values":
            caller = spans[parent][0] if parent >= 0 else ""
            name = f"{name}.{_VALUES_ROLES.get(caller, 'other')}"
        yield name, (end - start) - child_time[i], end - start


def derive_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    children = defaultdict(list)
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append(span)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, own, whole) in enumerate(_layers(spans)):
        notes = spans[i][4] or {}
        kids = [k[0] for k in children[i]]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += whole
        for key, val in notes.items():
            counts[f"{name}.{key}"] += val
        if name == "zeros.count_zeros":
            # each winding call after the first is an outward perturbation
            counts["perturbed"] += max(0, kids.count("contour.winding_number") - 1)
        elif name == "zeros.locate_zeros":
            # a second grid scan is the spacing-0.01 retry
            counts["retried"] += int(kids.count("lfunction.grid") > 1)
        elif name == "multfn.find_phi_and_M":
            primes = sum((k[4] or {}).get("primes", 0) for k in children[i])
            counts["pairs"] += notes.get("grid_points", 0) * primes
        elif name == "plancherel.rhs_L_integral":
            counts["capped"] += int(notes.get("intervals", 0) >= SIMPSON_CAP)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for role in ("newton", "contour", "lline"):
        key = f"lfunction.values.{role}"
        if role == "newton":
            m[f"{key}.calls"] = calls[key]
        m[f"{key}.points"] = counts[f"{key}.points"]
        m[f"{key}.self_s"] = self_s[key]
        m[f"{key}.us_per_point"] = 1e6 * ratio(self_s[key], counts[f"{key}.points"])
    m["lfunction.xi_values.self_s"] = self_s["lfunction.xi_values"]
    m["lfunction.grid.calls"] = calls["lfunction.grid"]
    m["lfunction.grid.cells"] = counts["lfunction.grid.cells"]
    m["lfunction.grid.self_s"] = self_s["lfunction.grid"]
    m["lfunction.grid.us_per_cell"] = 1e6 * ratio(
        self_s["lfunction.grid"], counts["lfunction.grid.cells"]
    )

    m["contour.winding_number.calls"] = calls["contour.winding_number"]
    m["contour.winding_number.self_s"] = self_s["contour.winding_number"]
    m["contour.winding_number.total_s"] = total_s["contour.winding_number"]
    m["contour.points_per_winding"] = ratio(
        counts["lfunction.values.contour.points"], calls["contour.winding_number"]
    )

    n_count = calls["zeros.count_zeros"]
    m["zeros.count_zeros.calls"] = n_count
    m["zeros.count_zeros.total_s"] = total_s["zeros.count_zeros"]
    m["zeros.count_zeros.empty_frac"] = ratio(counts["zeros.count_zeros.empty"], n_count)
    m["zeros.count_zeros.perturb_frac"] = ratio(counts["perturbed"], n_count)
    n_locate = calls["zeros.locate_zeros"]
    m["zeros.locate_zeros.calls"] = n_locate
    m["zeros.locate_zeros.self_s"] = self_s["zeros.locate_zeros"]
    m["zeros.locate_zeros.retry_frac"] = ratio(counts["retried"], n_locate)
    m["zeros.zeros_found"] = counts["zeros.locate_zeros.zeros"]
    m["zeros.newton.points_per_zero"] = ratio(
        counts["lfunction.values.newton.points"], counts["zeros.locate_zeros.zeros"]
    )

    m["plancherel.run_grid.self_s"] = self_s["plancherel.run_grid"]
    m["plancherel.lhs_gaussian_sum.self_s"] = self_s["plancherel.lhs_gaussian_sum"]
    m["plancherel.lhs_gaussian_sum.terms"] = counts["plancherel.lhs_gaussian_sum.terms"]
    m["plancherel.rhs_L_integral.self_s"] = self_s["plancherel.rhs_L_integral"]
    m["plancherel.rhs_L_integral.intervals"] = counts["plancherel.rhs_L_integral.intervals"]
    m["plancherel.rhs_L_integral.capped_frac"] = ratio(
        counts["capped"], calls["plancherel.rhs_L_integral"]
    )

    key = "multfn.find_phi_and_M"
    m[f"{key}.calls"] = calls[key]
    m[f"{key}.self_s"] = self_s[key]
    m[f"{key}.grid_points"] = counts[f"{key}.grid_points"]
    m[f"{key}.prime_t_pairs"] = counts["pairs"]
    m[f"{key}.ns_per_pair"] = 1e9 * ratio(self_s[key], counts["pairs"])
    m["multfn.distance_sq.self_s"] = self_s["multfn.distance_sq"]
    m["multfn.mean_value.self_s"] = self_s["multfn.mean_value"]
    m["sieve.primes_up_to.calls"] = calls["sieve.primes_up_to"]
    m["sieve.primes_up_to.self_s"] = self_s["sieve.primes_up_to"]

    m["dirichlet.enumerate_characters.self_s"] = self_s["dirichlet.enumerate_characters"]
    m["dirichlet.partial_sum.self_s"] = self_s["dirichlet.partial_sum"]
    m["harness.corollary_zero_budget_audit.self_s"] = self_s[
        "harness.corollary_zero_budget_audit"
    ]
    m["trace.spans"] = len(spans)
    return m


def self_time_shares(spans: list) -> dict:
    """Each layer's self time as a share of the traced time, largest first."""
    per = defaultdict(float)
    for name, own, _ in _layers(spans):
        per[name] += own
    total = sum(per.values()) or 1.0
    return {k: v / total for k, v in sorted(per.items(), key=lambda kv: -kv[1])}
