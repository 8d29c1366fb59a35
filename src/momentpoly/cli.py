"""Command-line interface: every computation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 input or parse error, 2 mathematical precondition
failure (non-positive-definite moment matrix, not enough moments), 3
verification failure (a verified identity exceeded its tolerance).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
from fractions import Fraction

from .cholesky import NotPositiveDefinite
from .connect import BASES, connection_table, ribbon_check, rn_expansion
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
from .scalars import MODES, RATIONAL, Surd, format_scalar

#: closed-form checks whose printed source is a documented misprint; a FAIL
#: from these is reported but does not flip the exit code
EXPECTED_MISPRINTS = frozenset({"eta_offdiag3_printed", "eta_offdiag4_printed"})


def _output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the numeric mode of the input files")
    _output(parser)


#: the case of each type that _encode meets, keyed on ``type(obj)``
_PASS, _FLOAT, _SCALAR, _LIST, _DICT = range(5)
_KINDS = {str: _PASS, int: _PASS, bool: _PASS, type(None): _PASS, float: _FLOAT,
          Fraction: _SCALAR, Surd: _SCALAR, list: _LIST, tuple: _LIST, dict: _DICT}


def _encode(obj):
    # the one scalar -> text pass of both formats; json.dumps with
    # default=format_scalar would cost a nested generator per scalar, since
    # with indent the stdlib runs its pure-Python encoder (see _json).  One
    # lookup on type(obj) picks the case; a type missing from the table, such
    # as a float or int subclass, takes that of its first base in it, and a
    # type with none is left to format_scalar.  A list encodes its entries in
    # one loop and recurses only into containers
    kind = _KINDS.get(type(obj))
    if kind is None:
        kind = next((_KINDS[t] for t in type(obj).__mro__ if t in _KINDS), _SCALAR)
    if kind == _SCALAR:
        return format_scalar(obj)
    if kind == _FLOAT and math.isinf(obj):
        raise ValueError(f"cannot write {obj}: an output float is past the float range")
    if kind == _DICT:
        # a value held under two keys (decompose's L and Lambda) is encoded once
        once = {id(v): v for v in obj.values()}
        text = {i: _encode(v) for i, v in once.items()}
        return {k: text[id(v)] for k, v in obj.items()}
    if kind != _LIST:
        return obj
    out, fmt, kinds, isinf = [], format_scalar, _KINDS, math.isinf
    for v in obj:
        kind = kinds.get(type(v))
        if kind == _SCALAR:
            v = fmt(v)
        elif kind != _PASS and (kind != _FLOAT or isinf(v)):
            v = _encode(v)  # a container, a type missing from the table, or an infinity
        out.append(v)
    return out


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` of an :func:`_encode` output, whose
    keys are strings.  With ``indent`` the stdlib runs its pure-Python
    encoder; here each level is one join of its items, and a row of
    strings, as an exact table holds, is one join of its quoted entries.
    A finite float or an int is its ``repr``, and None and the bools are
    json's literals; NaN and every empty container are written by
    ``json.dumps``."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    if type(obj) is int:
        return int.__repr__(obj)
    if not obj or not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        return "{" + inner + sep.join([f"{_quote(k)}: {_json(v, inner)}"
                                       for k, v in obj.items()]) + indent + "}"
    try:
        body = sep.join(map(_quote, obj))  # a row of strings
    except TypeError:
        body = sep.join([_json(v, inner) for v in obj])
    return "[" + inner + body + indent + "]"


def _csv(payload: dict, prefix: str = ""):
    """CSV rows of a payload.  An object field is written under dotted keys;
    a list is a table, one row if flat and a header row plus one row per
    object if it holds objects.  A cell that still holds a list or an object
    raises ``ValueError``.  The payload comes from :func:`_encode`, so a
    cell holds the text that JSON holds for an exact value, a float or an
    int; a bool is written by ``csv`` as ``True`` or ``False``, where JSON
    writes ``true`` or ``false``."""
    for key, value in payload.items():
        name = prefix + key
        if isinstance(value, dict):
            yield from _csv(value, name + ".")
        elif not isinstance(value, (list, tuple)):
            yield name, value
        else:
            yield [f"# {name}"]
            if value and isinstance(value[0], dict):
                yield list(value[0])
                value = [list(v.values()) for v in value]
            for row in value if value and isinstance(value[0], (list, tuple)) else [value]:
                if any(isinstance(v, (list, tuple, dict)) for v in row):
                    raise ValueError(f"CSV cannot hold field {name!r}: it nests a list or an object")
                yield row


class _Records(list):
    """A file for :func:`csv.writer`: the writer hands it each record whole,
    terminator included, in one ``write`` call."""

    write = list.append


def _emit(payload: dict, args) -> None:
    # the int -> str digit limit of CPython 3.10.7+ guards the parsing of
    # untrusted text; the CLI's own exact output may have any size, so the
    # limit is lifted while it is formatted and written, and only then
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload = _encode(payload)  # the one scalar -> text pass of both formats
        if args.format == "json":
            text = _json(payload)
        else:
            # a "\r\n" terminator makes the writer quote a cell that holds
            # CR or LF on every Python; each record then ends in "\n" alone
            records = _Records()
            csv.writer(records, lineterminator="\r\n").writerows(_csv(payload))
            text = "\n".join(record[:-2] for record in records)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


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
    if args.draws is not None and args.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {args.draws}")
    if args.recfile is not None and (args.draws, args.seed) != (None, None):
        raise ValueError("--draws and --seed set the random draws; "
                         "they do not apply to a recurrence file")
    tables = (args.moments, args.eta, args.tau)
    if args.recfile is None and (args.verify_closed_forms is None
                                 or any(v is not None for v in tables)):
        # random draws serve --verify-closed-forms only; tables read a file
        print("a recurrence file is required for this operation", file=sys.stderr)
        return 1
    if sum(v is not None for v in (*tables, args.verify_closed_forms)) > 1:
        raise ValueError("pass one of --moments, --eta, --tau and --verify-closed-forms")
    if args.recfile is None:
        rng = random.Random(0 if args.seed is None else args.seed)
        recs = [_random_recurrence(rng, args.verify_closed_forms + 5)
                for _ in range(5 if args.draws is None else args.draws)]
    else:
        recs = [_load_recurrence(args)]

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
    alpha_sys = build_system(alpha, args.n)
    delta_sys = build_system(delta, max(args.n, args.rn or 0))
    payload = {"alpha": alpha.label, "delta": delta.label, "n": args.n, "basis": args.basis,
               "gamma": connection_table(delta_sys, alpha_sys, args.n, basis=args.basis).rows}
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
    if not 0 <= args.max_error < math.inf:
        raise ValueError(f"--max-error must be finite and non-negative, got {args.max_error}")
    params = QParams(q=args.q, rho=args.rho)
    points = None
    if args.points is not None:
        points = []
        for chunk in args.points.split(";"):
            pair = chunk.split(",")
            if len(pair) != 2:
                raise ValueError(f"--points takes x,y pairs separated by ';', not {chunk!r}")
            points.append((float(pair[0]), float(pair[1])))
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
    p.add_argument("--draws", type=int, default=None,
                   help="random draws when no recfile is given (default 5)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random draws (default 0)")
    _common(p)
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("connect", help="connection coefficients of the delta system "
                                       "in the alpha basis")
    p.add_argument("alphafile")
    p.add_argument("deltafile")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--basis", choices=BASES, default="orthonormal")
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
    p.add_argument("--basis", choices=BASES, default="orthonormal")
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser that :func:`main` reuses: built on the first call, not at
    import, since building it costs about twenty times one parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (NotPositiveDefinite, InsufficientMoments)) else 1


if __name__ == "__main__":
    sys.exit(main())
