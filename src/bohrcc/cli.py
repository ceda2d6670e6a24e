"""Command-line surface.

Subcommands:
  radius  solve one (class, spec) radius equation
  table   reproduce one of the four bundled result tables as CSV
  verify  run a seeded verification campaign and emit a JSON report
  scan    sweep a family parameter and bracket the 1/3 sharpness threshold

``table`` takes no ``--order``: tables 1 and 4 solve the Sc corollary
h(r) = -h(-1) through the corollary rows, and tables 2 and 3 evaluate h.

Exit codes: 0 ok, 2 parameter error, 3 numeric-budget error,
4 verification failure.  Output is byte-deterministic for fixed
arguments and seed; numbers are printed to 9 significant digits and CSV
uses dot decimals regardless of locale.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import re
import sys

from . import reference
from .catalog import FAMILIES, PhiSpec, check_min_max_hypothesis, expblend, strongly
from .errors import BudgetError, NoRootError, ParameterError, PrecisionError
from .extremal import h_evaluator
from .power_series import DEFAULT_ORDER
from .quadrature import DEFAULT_TOL
from .solver import SCAN_EQUATIONS, ClassId, solve_corollary_closed_form, solve_radius, threshold_scan

_SCHEMA = 1
_SCAN_MAX_POINTS = 100_000

_PARAM_FLAGS = tuple(dict.fromkeys(name for fam in FAMILIES.values() for name in fam.names))


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _jsonable(x):
    if isinstance(x, float):
        return float(_fmt(x))
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit_json(payload: dict) -> None:
    import json  # here, so the commands that print CSV never load it

    payload = {"schema": _SCHEMA, **payload}
    sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    import csv  # here, so the commands that print JSON never load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    sys.stdout.write(buf.getvalue())


def _spec_from_args(args) -> PhiSpec:
    family = args.phi  # argparse's choices admit only catalog names
    wanted = FAMILIES[family].names
    values = []
    for name in wanted:
        value = getattr(args, name, None)
        if value is None:
            raise ParameterError(f"family {family} requires --{name}")
        values.append(value)
    extras = [f for f in _PARAM_FLAGS if f not in wanted and getattr(args, f, None) is not None]
    if extras:
        raise ParameterError(f"family {family} does not take {', '.join('--' + e for e in extras)}")
    return PhiSpec(family, tuple(values))


def _spec_payload(spec: PhiSpec) -> dict:
    return {"family": spec.family, "params": spec.param_dict()}


def cmd_radius(args) -> int:
    spec = _spec_from_args(args)
    class_id = ClassId.parse(args.class_id)
    result = solve_radius(class_id, spec, args.order, args.tol)
    if not check_min_max_hypothesis(spec, result.capped):
        sys.stderr.write(
            f"warning: |phi| on the circle r={result.capped:.6g} is not extremized on the "
            "real axis; the growth bounds assume it\n"
        )
    if args.out == "csv":
        _emit_csv(
            ["class", "family", "params", "r_f", "capped", "sharp", "residual", "notes"],
            [[
                class_id.value,
                spec.family,
                ";".join(f"{k}={v:g}" for k, v in spec.param_dict().items()),
                result.r_f,
                result.capped,
                result.sharp,
                result.residual,
                result.notes,
            ]],
        )
    else:
        _emit_json({"class": class_id.value, "spec": _spec_payload(spec), **result.to_dict()})
    return 0


def _radius_table_rows(table, equation_id: str, names):
    """Sc radii, roots of h(r) = -h(-1), against a reference table of (*params, radius) rows."""
    rows = []
    for *params, ref in table:
        r_f = solve_corollary_closed_form(equation_id, dict(zip(names, params))).r_f
        diff = reference.truncate_to(r_f, reference.decimals(ref)) - float(ref)
        rows.append([*params, r_f, ref, diff])
    return [*names, "r_f", "reference", "diff"], rows


def _growth_table_rows(table, make_spec):
    header = [
        "alpha",
        "h_one_third",
        "h_one_third_ref",
        "h_one_third_diff",
        "neg_h_minus_one",
        "neg_h_minus_one_ref",
        "neg_h_minus_one_diff",
        "gap_sign_at_zero",
        "gap_sign_at_one_third",
    ]
    rows = []
    for alpha, h3_ref, hm1_ref, _, _ in table:
        h = h_evaluator(make_spec(alpha))
        h3 = h(1.0 / 3.0)
        hm1 = -h(-1.0)
        sign0 = "-"  # h(0) + h(-1) = h(-1) < 0 always
        sign3 = "+" if h3 - hm1 > 0.0 else "-"
        rows.append([
            alpha,
            h3,
            h3_ref,
            reference.truncate_to(h3, reference.decimals(h3_ref)) - float(h3_ref),
            hm1,
            hm1_ref,
            reference.truncate_to(hm1, reference.decimals(hm1_ref)) - float(hm1_ref),
            sign0,
            sign3,
        ])
    return header, rows


#: table id -> its row builder
_TABLES = {
    1: lambda: _radius_table_rows(reference.TABLE1, "sc-lemniscate", ["s"]),
    2: lambda: _growth_table_rows(reference.TABLE2, expblend),
    3: lambda: _growth_table_rows(reference.TABLE3, strongly),
    4: lambda: _radius_table_rows(reference.TABLE4, "sc-janowski", ["A", "B"]),
}


def cmd_table(args) -> int:
    if args.id not in _TABLES:
        raise ParameterError(f"table id must be 1..4, got {args.id}")
    header, rows = _TABLES[args.id]()
    if args.out == "json":
        _emit_json({
            "table": args.id,
            "rows": [dict(zip(header, row)) for row in rows],
        })
    else:
        _emit_csv(header, rows)
    return 0


def cmd_verify(args) -> int:
    from .verifier import run_campaign  # only verify reads the verifier, so only it loads it

    spec = _spec_from_args(args)
    class_id = ClassId.parse(args.class_id)
    report = run_campaign(
        class_id, spec, args.samples, args.seed, r=args.r, order=args.order, tol=args.tol
    )
    _emit_json(report.to_json_dict())
    return 0 if report.ok else 4


def cmd_scan(args) -> int:
    if not all(map(math.isfinite, (args.start, args.stop, args.step))):
        raise ParameterError("scan needs finite --start, --stop and --step")
    if args.stop <= args.start or args.step <= 0.0:
        raise ParameterError("scan needs start < stop and a positive step")
    grid = []
    p = args.start
    while p <= args.stop + 1e-12:
        # also stops a step too small to move p, which would never reach stop
        if len(grid) == _SCAN_MAX_POINTS:
            raise ParameterError(f"scan grid exceeds {_SCAN_MAX_POINTS} points")
        grid.append(round(p, 12))
        p += args.step
    scan = threshold_scan(args.equation, grid)
    if args.out == "csv":
        _emit_csv(
            ["param", "r_f", "in_sharp_window"],
            [[row.param, row.r_f, row.in_sharp_window] for row in scan.rows],
        )
    else:
        _emit_json({
            "equation": scan.equation_id,
            "rows": [row._asdict() for row in scan.rows],
            "bracket": list(scan.bracket) if scan.bracket else None,
            "threshold": scan.threshold,
        })
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads ``--B -1e-3`` as a value, where argparse's own negative-number
    pattern has no exponent; ``-inf`` stays a flag.  Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bohrcc",
        description="Bohr radii for close-to-convex function classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, outs=(), spec=True):
        if outs:
            p.add_argument("--out", choices=outs, default=outs[0],
                           help=f"output format (default {outs[0]})")
        if spec:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help=f"series truncation order (default {DEFAULT_ORDER})")
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="quadrature tolerance")
            p.add_argument("--class", dest="class_id", required=True,
                           choices=tuple(c.value for c in ClassId))
            p.add_argument("--phi", required=True, choices=tuple(sorted(FAMILIES)))
            for flag in _PARAM_FLAGS:
                p.add_argument(f"--{flag}", type=float, default=None)

    p_radius = sub.add_parser("radius", help="solve one radius equation")
    add_common(p_radius, ("json", "csv"))
    p_radius.set_defaults(func=cmd_radius)

    p_table = sub.add_parser("table", help="reproduce a bundled result table")
    p_table.add_argument("id", type=int, choices=tuple(_TABLES))
    add_common(p_table, ("csv", "json"), spec=False)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    add_common(p_verify)  # JSON only
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--r", type=float, default=None,
                          help="override the radius to check (default: computed capped radius)")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="threshold scan over a family parameter")
    p_scan.add_argument("--equation", required=True, choices=SCAN_EQUATIONS)
    p_scan.add_argument("--start", type=float, required=True)
    p_scan.add_argument("--stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    add_common(p_scan, ("json", "csv"), spec=False)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2
    except (BudgetError, PrecisionError, NoRootError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3


def run(argv=None) -> int:
    """``main(argv)`` for a process that exits when the command ends, as the
    ``bohrcc`` script and ``python -m bohrcc`` are: the cyclic garbage
    collector stays off while the command runs and every object still alive
    is frozen at the end, so neither the command nor the collection at
    interpreter shutdown walks the objects numpy and scipy made.  Callers
    that go on running after the command, such as tests, call :func:`main`."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
