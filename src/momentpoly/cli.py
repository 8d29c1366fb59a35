"""Command-line interface: every computation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 input or parse error, 2 mathematical precondition
failure (non-positive-definite moment matrix, not enough moments), 3
verification failure (a verified identity exceeded its tolerance).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .cholesky import NotPositiveDefinite
from .connect import connection_table, ribbon_check, rn_expansion
from .linearize import linearization_table
from .moments import InsufficientMoments, load_moment_file
from .polysys import build_system
from .qkernel import QParams, pm_grid_report
from .recurrence import (
    RecurrenceCoefficients,
    aux_tables,
    eta_table,
    moments_from_recurrence,
    partial_solutions,
    recurrence_from_dict,
    tau_table,
)
from .scalars import RATIONAL, format_scalar

#: closed-form checks whose printed source is a documented misprint; a FAIL
#: from these is reported but does not flip the exit code
EXPECTED_MISPRINTS = frozenset({"eta_offdiag3_printed", "eta_offdiag4_printed"})


def _output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=["rational", "float"], default=None,
                        help="override the numeric mode of the input files")
    _output(parser)


def _encode(obj):
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return format_scalar(obj)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_encode(payload), indent=2)
    else:
        lines = []
        for key, value in _encode(payload).items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                lines.append(f"# {key}")
                lines.extend(",".join(str(v) for v in row) for row in value)
            elif isinstance(value, list):
                lines.append(f"# {key}")
                lines.append(",".join(str(v) for v in value))
            else:
                lines.append(f"{key},{value}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_recurrence(args) -> RecurrenceCoefficients:
    with open(args.recfile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return recurrence_from_dict(data, mode=args.mode or RATIONAL)


def _cmd_decompose(args) -> int:
    seq = load_moment_file(args.momentfile, mode=args.mode)
    sys_ = build_system(seq, args.n)
    payload = {
        "label": seq.label,
        "mode": seq.mode,
        "n": args.n,
        "L": sys_.L.rows,
        "Pi": sys_.Pi.rows,
        "Lambda": sys_.Lambda.rows,
        "Delta": sys_.deltas,
        "a": [sys_.rec.a(k) for k in range(len(sys_.rec.a2))],
        "a2": list(sys_.rec.a2),
        "b": list(sys_.rec.b),
    }
    _emit(payload, args)
    return 0


def _random_recurrence(rng: random.Random, size: int) -> RecurrenceCoefficients:
    a2 = tuple([Fraction(0)] + [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                                for _ in range(size)])
    b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(size + 1))
    return RecurrenceCoefficients(a2, b, RATIONAL, label="random")


def _cmd_recurrence(args) -> int:
    if args.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {args.draws}")
    if args.verify_closed_forms is not None and args.recfile is None:
        rng = random.Random(args.seed)
        recs = [_random_recurrence(rng, args.verify_closed_forms + 5)
                for _ in range(args.draws)]
    elif args.recfile is not None:
        recs = [_load_recurrence(args)]
    else:
        print("a recurrence file is required for this operation", file=sys.stderr)
        return 1

    if args.moments is not None:
        seq = moments_from_recurrence(recs[0], args.moments)
        _emit({"label": recs[0].label, "mode": seq.mode,
               "moments": list(seq.moments)}, args)
        return 0
    if args.eta is not None:
        _emit({"eta": eta_table(recs[0], args.eta).rows}, args)
        return 0
    if args.tau is not None:
        _emit({"tau": tau_table(recs[0], args.tau).rows}, args)
        return 0
    if args.verify_closed_forms is None:
        print("nothing to do: pass --moments, --eta, --tau or "
              "--verify-closed-forms", file=sys.stderr)
        return 1

    if recs[0].mode != RATIONAL:
        raise ValueError("--verify-closed-forms compares exact identities; "
                         "run it in rational mode")
    n = args.verify_closed_forms
    draws_report = []
    genuine_failure = False
    for idx, rec in enumerate(recs):
        aux = aux_tables(rec, n)
        aux_mismatch = aux.first_mismatch()
        report = partial_solutions(rec, n)
        checks = []
        for c in report.checks:
            checks.append({
                "name": c.name,
                "status": "PASS" if c.passed else "FAIL",
                "expected_misprint": c.name in EXPECTED_MISPRINTS,
                "checked": c.checked,
                "first_mismatch": None if c.first_mismatch is None else {
                    "index": str(c.first_mismatch[0]),
                    "table": c.first_mismatch[1],
                    "closed_form": c.first_mismatch[2],
                },
                "note": c.note,
            })
            if not c.passed and c.name not in EXPECTED_MISPRINTS:
                genuine_failure = True
        if aux_mismatch is not None:
            genuine_failure = True
        draws_report.append({
            "draw": idx,
            "aux_closed_forms": "PASS" if aux_mismatch is None else "FAIL",
            "checks": checks,
        })
    _emit({"order": n, "draws": draws_report}, args)
    return 3 if genuine_failure else 0


def _cmd_connect(args) -> int:
    alpha = load_moment_file(args.alphafile, mode=args.mode)
    delta = load_moment_file(args.deltafile, mode=args.mode)
    payload: dict = {"alpha": alpha.label, "delta": delta.label, "n": args.n}
    alpha_sys = build_system(alpha, args.n)
    delta_sys = build_system(delta, max(args.n, args.rn or 0))
    gamma = connection_table(delta_sys, alpha_sys, args.n, basis=args.basis)
    payload["basis"] = args.basis
    payload["gamma"] = gamma.rows
    if args.rn is not None:
        expansion = rn_expansion(alpha, delta_sys, args.rn)
        payload["rn"] = {
            "omega": expansion.omegas,
            "parseval_partial_sums": expansion.parseval_partial_sums,
        }
    if args.ribbon is not None:
        report = ribbon_check(alpha_sys, delta, args.ribbon, args.n, tol=args.tol)
        payload["ribbon"] = {
            "r": report.ribbon_width,
            "order": report.order,
            "is_ribbon": report.is_ribbon,
            "max_off_ribbon": report.max_off_ribbon,
        }
    _emit(payload, args)
    return 0


def _cmd_linearize(args) -> int:
    seq = load_moment_file(args.momentfile, mode=args.mode)
    sys_ = build_system(seq, args.n + args.m)
    table = linearization_table(sys_, args.n, args.m, basis=args.basis)
    _emit({
        "label": seq.label,
        "mode": seq.mode,
        "n": args.n,
        "m": args.m,
        "basis": args.basis,
        "c": table.coefficients,
    }, args)
    return 0


def _cmd_verify_pm(args) -> int:
    params = QParams(q=args.q, rho=args.rho)
    points = None
    if args.points:
        points = []
        for chunk in args.points.split(";"):
            x, y = chunk.split(",")
            points.append((float(x), float(y)))
    report = pm_grid_report(params, points=points, tol=args.trunc_tol)
    max_err = max(p.error for p in report)
    _emit({
        "q": args.q,
        "rho": args.rho,
        "truncation_tol": args.trunc_tol,
        "max_error": max_err,
        "points": [{"x": p.x, "y": p.y, "product": p.product,
                    "series": p.series, "terms": p.terms, "error": p.error}
                   for p in report],
    }, args)
    return 3 if max(p.relative_error for p in report) > args.max_error else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentpoly",
        description="orthonormal polynomial systems from finite moment sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Cholesky factor, coefficient tables and "
                                         "recurrence of a moment file")
    p.add_argument("momentfile")
    p.add_argument("-n", type=int, required=True, help="matrix order (needs m_0..m_2n)")
    _common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("recurrence", help="tables, moments and closed-form "
                                          "verification from recurrence coefficients")
    p.add_argument("recfile", nargs="?", default=None,
                   help="JSON file {'a2': [...], 'b': [...]}; omit to verify on "
                        "random draws")
    p.add_argument("--moments", type=int, default=None, metavar="K",
                   help="emit the first K moments")
    p.add_argument("--eta", type=int, default=None, metavar="N",
                   help="emit monic coefficient rows 0..N")
    p.add_argument("--tau", type=int, default=None, metavar="N",
                   help="emit monomial-expansion rows 0..N")
    p.add_argument("--verify-closed-forms", type=int, default=None, metavar="N",
                   help="verify the closed forms against the recursion tables "
                        "up to base index N")
    p.add_argument("--draws", type=int, default=5,
                   help="random draws when no recfile is given")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random draws")
    _common(p)
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("connect", help="connection coefficients of the delta system "
                                       "in the alpha basis")
    p.add_argument("alphafile")
    p.add_argument("deltafile")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--basis", choices=["orthonormal", "monic"], default="orthonormal")
    p.add_argument("--rn", type=int, default=None, metavar="N",
                   help="expand d(alpha)/d(delta) in the delta system to order N")
    p.add_argument("--ribbon", type=int, default=None, metavar="R",
                   help="test the band structure for a degree-R density ratio")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="tolerance of the --ribbon test in float mode")
    _common(p)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("linearize", help="linearization coefficients of p_n * p_m")
    p.add_argument("momentfile")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--basis", choices=["orthonormal", "monic"], default="orthonormal")
    _common(p)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("verify-pm", help="compare the bivariate kernel product "
                                         "against its series expansion")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--points", default=None,
                   help="semicolon-separated x,y pairs; default grid otherwise")
    p.add_argument("--trunc-tol", dest="trunc_tol", type=float, default=1e-12,
                   help="truncation tolerance for product and series")
    p.add_argument("--max-error", dest="max_error", type=float, default=1e-8,
                   help="largest acceptable |product - series| over max(1, |product|, "
                        "sum of |series terms|)")
    _output(p)
    p.set_defaults(func=_cmd_verify_pm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotPositiveDefinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientMoments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError,
            ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
