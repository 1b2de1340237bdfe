"""Command-line interface.

Fourteen subcommands over the library: character tables, partial sums,
pretentious distance, Halasz reports, L and xi values, zero location,
disk audits, the Plancherel identity, kernel zeros, spectrum constants,
bound functions, the nonresidue census, product/power searches, and the
corollary zero-budget audit.

Global flags, given before the subcommand: --config (key=value file
overriding abs_c, witness_c and sum_bound_C) and --out {text,json,csv}.
Reports are built by `harness.report_dict`.  Output carries no timestamps;
identical invocations produce identical bytes.  `main` returns the exit
status: 0 on success, 2 for a malformed command line (argparse's usage
block) or a value the library rejects (one `error: ...` line).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__, dirichlet, harness, multfn, plancherel, spectral, zeros
from .errors import DomainError
from .lfunction import LEvaluator
from .multfn import parse_function

_ERRORS = (ValueError, RuntimeError)


def _parse_config_file(path: str) -> dict:
    """key=value lines; '#' comments; values coerced int, then float."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            for cast in (int, float):
                try:
                    out[key] = cast(val)
                    break
                except ValueError:
                    continue
            else:
                out[key] = val
    return out


def _build_constants(args) -> harness.Constants:
    overrides = _parse_config_file(args.config) if args.config else {}
    names = {f.name for f in dataclasses.fields(harness.Constants)}
    unknown = set(overrides) - names
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return harness.Constants(**overrides)


def _emit(args, payload, rows=None) -> None:
    """payload: dict for json/text; rows: list of dicts for csv."""
    if args.out == "json":
        sys.stdout.write(harness.to_json(payload))
    elif args.out == "csv":
        sys.stdout.write(harness.rows_to_csv(rows if rows is not None else [payload]))
    else:
        _emit_text(payload)


def _emit_text(payload, indent: str = "") -> None:
    for key, val in payload.items():
        if isinstance(val, dict):
            sys.stdout.write(f"{indent}{key}:\n")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                sys.stdout.write(f"{indent}{key}[{i}]:\n")
                _emit_text(item, indent + "  ")
        else:
            if isinstance(val, complex):
                val = f"{val.real!r}{val.imag:+}j"
            sys.stdout.write(f"{indent}{key} = {val}\n")


def _rect(text: str) -> zeros.Rectangle:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise DomainError("--rect wants sigma1,sigma2,t1,t2")
    return zeros.Rectangle(*parts)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_chars(args, constants):
    rows = []
    for chi in dirichlet.enumerate_characters(args.q, primitive_only=args.primitive):
        rows.append(
            {
                "q": chi.q,
                "conrey": chi.conrey,
                "order": chi.order,
                "conductor": chi.conductor,
                "primitive": chi.is_primitive,
                "even": chi.parity == 0,
            }
        )
    return {"q": args.q, "count": len(rows), "characters": rows}, rows


def _cmd_sum(args, constants):
    chi = dirichlet.character(args.q, args.conrey)
    if args.phi:
        ps = dirichlet.twisted_partial_sum(chi, args.phi, args.x)
    else:
        ps = dirichlet.partial_sum(chi, args.x)
    row = {
        "q": args.q,
        "conrey": args.conrey,
        "x": ps.x,
        "phi": args.phi,
        "re": ps.value.real,
        "im": ps.value.imag,
        "abs": abs(ps.value),
        "N": ps.N,
    }
    return row, [row]


def _cmd_distance(args, constants):
    f = parse_function(args.f)
    g = parse_function(args.g)
    d2 = multfn.distance_sq(f, g, args.x)
    row = {
        "f": f.label,
        "g": g.label,
        "x": args.x,
        "distance_sq": d2,
        "distance": d2**0.5,
    }
    return row, [row]


def _cmd_halasz(args, constants):
    if args.f:
        f = parse_function(args.f)
    else:
        if args.q is None or args.conrey is None:
            raise DomainError("halasz wants --f or both --q and --conrey")
        f = multfn.CharacterFunction(dirichlet.character(args.q, args.conrey))
    rep = multfn.halasz_bound(f, args.x)
    row = {"f": f.label, "x": args.x}
    row.update(harness.report_dict(rep))
    return row, [row]


def _cmd_lvalue(args, constants):
    chi = dirichlet.character(args.q, args.conrey)
    ev = LEvaluator(chi)
    s = complex(args.sigma, args.t)
    if args.xi:
        val, bound = ev.xi_values(s), None
    else:
        val, bound = ev.values(s)
        bound = float(bound)
    row = {
        "q": args.q,
        "conrey": args.conrey,
        "s_re": args.sigma,
        "s_im": args.t,
        "kind": "xi" if args.xi else "L",
        "re": val.real,
        "im": val.imag,
        "abs": abs(val),
        "err_bound": bound,
    }
    return row, [row]


def _cmd_zeros(args, constants):
    chi = dirichlet.character(args.q, args.conrey)
    found = zeros.locate_zeros(chi, _rect(args.rect), spacing=args.spacing)
    rows = harness.report_dict(found)
    return {"q": args.q, "conrey": args.conrey, "count": len(rows), "zeros": rows}, rows


def _cmd_audit_disk(args, constants):
    chi = dirichlet.character(args.q, args.conrey)
    rep = zeros.disk_count_audit(chi, args.x, args.L, abs_c=constants.abs_c)
    row = harness.report_dict(rep)
    return row, [row]


def _cmd_plancherel(args, constants):
    chi = dirichlet.character(args.q, args.conrey)
    case = plancherel.PlancherelCase(chi=chi, phi=args.phi, lam=args.lam, T=args.T)
    row = harness.report_dict(plancherel.verify_case(case))
    return row, [row]


def _cmd_hzeros(args, constants):
    found = spectral.find_h_zeros(args.count)
    rows = [
        {
            "k": z.k,
            "re": z.z.real,
            "im": z.z.imag,
            "residual": z.residual,
            "gap": z.asymptotic_gap,
        }
        for z in found
    ]
    return {"count": len(rows), "zeros": rows}, rows


def _cmd_constants(args, constants):
    c = spectral.delta_constants()
    row = {
        "delta0": c.delta0,
        "delta1": c.delta1,
        "integral": c.integral,
        "quad_error": c.quad_error,
        "constants": harness.report_dict(constants),
    }
    flat = dict(row)
    flat.pop("constants")
    flat["version"] = __version__
    return row, [flat]


def _cmd_bound(args, constants):
    if args.mode == "mean-upper":
        arg = args.alpha if args.alpha is not None else args.u
        if arg is None:
            raise DomainError("mean-upper wants --alpha")
        value = spectral.mean_value_upper_bound(arg)
    else:
        arg = args.u if args.u is not None else args.alpha
        if arg is None:
            raise DomainError("nonresidue-lower wants --u")
        value = spectral.nonresidue_density_lower_bound(arg)
    row = {"mode": args.mode, "argument": arg, "value": value}
    return row, [row]


def _cmd_census(args, constants):
    rep = harness.nonresidue_census(args.q, args.u, constants)
    row = harness.report_dict(rep)
    flat = dict(row)
    flat.pop("constants")
    return row, [flat]


def _cmd_product_search(args, constants):
    f1 = parse_function(args.f1)
    if args.k is not None:
        rep = harness.power_large_sum_search(f1, args.x1, args.k, args.eta, constants)
    else:
        if args.f2 is None or args.x2 is None:
            raise DomainError("product-search wants --f2/--x2 or --k")
        f2 = parse_function(args.f2)
        rep = harness.product_large_sum_search(f1, f2, args.x1, args.x2, args.eta, constants)
    row = harness.report_dict(rep)
    flat = dict(row)
    flat.pop("constants")
    return row, [flat]


def _cmd_audit_corollary(args, constants):
    cfg = harness.ScenarioConfig(
        q_min=args.q_min,
        q_max=args.q_max,
        eps=args.eps,
        T=args.T,
        selector=args.selector,
        quadratic_only=args.quadratic_only,
        constants=constants,
    )
    report = harness.report_dict(harness.corollary_zero_budget_audit(cfg))
    return report, report["rows"]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="charzero")
    top.add_argument("--version", action="version", version=f"charzero {__version__}")
    top.add_argument("--config", help="key=value constants file")
    top.add_argument("--out", choices=("text", "json", "csv"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="list characters mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--primitive-only", dest="primitive", action="store_true")
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("sum", help="character partial sum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--conrey", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("distance", help="pretentious distance between two functions")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("halasz", help="Halasz mean-value report")
    p.add_argument("--f")
    p.add_argument("--q", type=int)
    p.add_argument("--conrey", type=int)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_halasz)

    p = sub.add_parser("lvalue", help="L(s, chi) or xi(s, chi)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--conrey", type=int, required=True)
    p.add_argument("--re", dest="sigma", type=float, required=True)
    p.add_argument("--im", dest="t", type=float, default=0.0)
    p.add_argument("--xi", action="store_true")
    p.set_defaults(func=_cmd_lvalue)

    p = sub.add_parser("zeros", help="locate zeros in a rectangle")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--conrey", type=int, required=True)
    p.add_argument("--rect", required=True, help="sigma1,sigma2,t1,t2")
    p.add_argument("--spacing", type=float, default=0.05)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("audit-disk", help="disk zero-count audit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--conrey", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(func=_cmd_audit_disk)

    p = sub.add_parser("plancherel", help="verify one Plancherel case")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--conrey", type=int, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.set_defaults(func=_cmd_plancherel)

    p = sub.add_parser("hzeros", help="zeros of the kernel H")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_hzeros)

    p = sub.add_parser("constants", help="spectrum constants delta0, delta1")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bound", help="spectrum bound functions")
    p.add_argument(
        "--mode", choices=("mean-upper", "nonresidue-lower"), required=True
    )
    p.add_argument("--alpha", type=float)
    p.add_argument("--u", type=float)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("census", help="quadratic nonresidue census")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("product-search", help="product/power large-sum search")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2")
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--k", type=int, help="power variant: search on f1^k")
    p.set_defaults(func=_cmd_product_search)

    p = sub.add_parser("audit-corollary", help="zero-budget audit over a family")
    p.add_argument("--q-min", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument(
        "--selector", choices=tuple(sorted(harness._SELECTORS)), default="fixed-window"
    )
    p.add_argument("--quadratic-only", action="store_true")
    p.set_defaults(func=_cmd_audit_corollary)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a malformed command line
        return exc.code or 0
    try:
        constants = _build_constants(args)
        payload, rows = args.func(args, constants)
        _emit(args, payload, rows)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
