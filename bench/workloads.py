"""The three workloads: seeded inputs, the timed job of each op, and its oracles.

A workload's ``setup(mp, seed, workdir)`` generates the inputs from the seed,
writes them under ``workdir`` and returns one pass: the fixed list of ops the
run repeats.  Each op's ``run`` is the timed call into the public API; it
builds every object afresh, so per-call work (the ``HankelMoments`` minors
cache, for example) is paid on every job, as a user pays it on every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as orc


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    oracles: tuple
    expect_rc: int = 0
    digest: str | None = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fmt(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


# -- exact-build ----------------------------------------------------------------

#: orders of the rational Hankel build; see README.md for why not 40 and 60.
#: A pass holds 25 jobs, so the median and the 90th percentile fall inside
#: the samples of one input (the 13th and 23rd cheapest), not in the gap
#: between two inputs.  The seeded measure sits at low orders, so that both
#: of those inputs are seed-free catalog ones.
CATALOG_ORDERS = (20, 26, 32, 38)
SEEDED_ORDERS = (12, 14, 16, 18, 20)
Q_HERMITE_Q = Fraction(1, 2)


@dataclass
class BuildInput:
    label: str
    moments: object
    order: int
    a2: list  # expected a_k^2, a_0 = 0 slot first
    b: list  # expected b_k
    sample_rows: tuple


def _catalog_a2(family: str, k: int) -> Fraction:
    if family == "gaussian":
        return Fraction(k)
    if family == "uniform":
        return Fraction(k * k, 4 * k * k - 1)
    if family == "semicircle":
        return Fraction(1, 4)
    if family == "chebyshev1":
        return Fraction(1, 2) if k == 1 else Fraction(1, 4)
    if family == "q-hermite":
        return orc.q_bracket(k, Q_HERMITE_Q)
    raise ValueError(family)


def seeded_recurrence(rng: random.Random, size: int):
    """a_k^2 = p/4 and b_k = s/3 with small seeded p, s; fixed denominators
    keep the bignum growth, and so the cost, nearly the same for every seed."""
    a2 = [Fraction(0)] + [Fraction(rng.randint(1, 9), 4) for _ in range(size)]
    b = [Fraction(rng.choice((-2, -1, 1, 2)), 3) for _ in range(size + 1)]
    return a2, b


def setup_exact_build(mp, seed: int, workdir: Path) -> list:
    rng = _rng("exact-build", seed)
    rec_a2, rec_b = seeded_recurrence(rng, max(SEEDED_ORDERS))
    ops = []
    for family in ("gaussian", "uniform", "semicircle", "chebyshev1", "q-hermite",
                   "from-recurrence"):
        for n in SEEDED_ORDERS if family == "from-recurrence" else CATALOG_ORDERS:
            if family == "from-recurrence":
                params = {"a2": [_fmt(v) for v in rec_a2[: n + 1]],
                          "b": [_fmt(v) for v in rec_b[: n + 1]]}
                a2, b = rec_a2[: n + 1], rec_b[:n]
            else:
                params = {"q": Q_HERMITE_Q} if family == "q-hermite" else {}
                a2 = [Fraction(0)] + [_catalog_a2(family, k) for k in range(1, n + 1)]
                b = [Fraction(0)] * n
            seq = mp.make_moments(mp.FamilySpec(family, 2 * n + 1, params))
            mp.save_moment_file(seq, workdir / f"{family}-{n}.json")
            rows = tuple(sorted(rng.sample(range(1, n), 2))) + (n,)
            inp = BuildInput(f"{family}-{n}", seq, n, a2, b, rows)
            ops.append(Op(inp.label, _build_job(mp, inp), orc.BUILD_ORACLES))
    return ops


def _build_job(mp, inp: BuildInput):
    def run():
        sys_ = mp.build_system(inp.moments, inp.order)
        return {"input": inp, "a2": sys_.rec.a2, "b": sys_.rec.b,
                "Delta": sys_.hankel.deltas, "L": sys_.L.rows, "Pi": sys_.Pi.rows}

    return run


# -- exact-forward ----------------------------------------------------------------

#: 25 draws, for the same reason as the 25 jobs of exact-build; fewer draws
#: make the 90th percentile depend on which few draws a seed happens to give
FORWARD_DRAWS = 25
FORWARD_ORDER = 40
FORWARD_AUX = 12


@dataclass
class ForwardInput:
    label: str
    rec: object
    a2: list
    b: list


def setup_exact_forward(mp, seed: int, workdir: Path) -> list:
    rng = _rng("exact-forward", seed)
    ops = []
    for d in range(FORWARD_DRAWS):
        a2 = [Fraction(0)] + [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                              for _ in range(FORWARD_ORDER)]
        if d % 2:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for _ in range(FORWARD_ORDER + 1)]
        else:
            b = [Fraction(0)] * (FORWARD_ORDER + 1)
        _write_json(workdir / f"draw-{d}.json",
                    {"a2": [_fmt(v) for v in a2], "b": [_fmt(v) for v in b]})
        rec = mp.RecurrenceCoefficients(tuple(a2), tuple(b), mp.RATIONAL, label=f"draw-{d}")
        inp = ForwardInput(f"draw-{d}", rec, a2, b)
        ops.append(Op(inp.label, _forward_job(mp, inp), orc.FORWARD_ORACLES))
    return ops


def _forward_job(mp, inp: ForwardInput):
    def run():
        aux = mp.aux_tables(inp.rec, FORWARD_AUX)
        return {
            "input": inp,
            "eta": mp.eta_table(inp.rec, FORWARD_ORDER).rows,
            "tau": mp.tau_table(inp.rec, FORWARD_ORDER).rows,
            "moments": mp.moments_from_recurrence(inp.rec, FORWARD_ORDER + 1).moments,
            "aux_mismatch": aux.first_mismatch(),
            "checks": mp.partial_solutions(inp.rec, FORWARD_AUX).checks,
        }

    return run


# -- cli-mixed ------------------------------------------------------------------------

#: the op that fails today: NaN moments pass the float pivot test
#: (``pivot <= floor`` is False for NaN) and come out as invalid JSON
NAN_OP = "decompose-nan"


def _cli_job(mp, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mp.cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue()}

    return run


def setup_cli_mixed(mp, seed: int, workdir: Path) -> list:
    rng = _rng("cli-mixed", seed)
    f = {name: str(workdir / f"{name}.json") for name in
         ("uniform", "gaussian", "semicircle", "ribbon-alpha", "ribbon-delta", "nan", "rec")}
    for family, count in (("uniform", 81), ("gaussian", 51), ("semicircle", 81)):
        mp.save_moment_file(mp.make_moments(mp.FamilySpec(family, count)), f[family])
    alpha, delta = mp.builtin_ribbon_pair(41)
    mp.save_moment_file(alpha, f["ribbon-alpha"])
    mp.save_moment_file(delta, f["ribbon-delta"])
    Path(f["nan"]).write_text('{"mode": "float", "moments": [1, 0, NaN, 0, 1]}\n',
                              encoding="utf-8")
    rec_a2, rec_b = seeded_recurrence(rng, 21)
    _write_json(Path(f["rec"]), {"a2": [_fmt(v) for v in rec_a2[1:]],
                                 "b": [_fmt(v) for v in rec_b]})

    su = [f["semicircle"], f["uniform"]]
    ribbon = [f["ribbon-alpha"], f["ribbon-delta"]]
    rn = orc.rn_partial_sums()
    specs = [
        ("decompose-uniform-20", ["decompose", f["uniform"], "-n", "20"],
         [orc.decompose_uniform()]),
        ("decompose-uniform-20-float",
         ["decompose", f["uniform"], "-n", "20", "--mode", "float"],
         [orc.decompose_uniform()]),
        ("connect-rn-40", ["connect", *su, "-n", "8", "--rn", "40"], [rn]),
        ("connect-rn-20-float", ["connect", *su, "-n", "8", "--rn", "20", "--mode", "float"],
         [rn, orc.float_matches("connect-rn-40", lambda d: d["rn"]["omega"], 20)]),
        ("connect-monic", ["connect", *su, "-n", "12", "--basis", "monic"], []),
        ("connect-monic-float",
         ["connect", *su, "-n", "12", "--basis", "monic", "--mode", "float"],
         [orc.float_matches("connect-monic", lambda d: d["gamma"], 12)]),
        ("connect-ribbon", ["connect", *ribbon, "-n", "12", "--ribbon", "2"],
         [orc.ribbon_reported()]),
        ("connect-ribbon-float",
         ["connect", *ribbon, "-n", "12", "--ribbon", "2", "--mode", "float"],
         [orc.ribbon_reported(), orc.float_matches("connect-ribbon", lambda d: d["gamma"], 12)]),
        ("linearize-orthonormal", ["linearize", f["gaussian"], "-n", "4", "-m", "5"],
         [orc.linearize_hermite()]),
        ("linearize-monic",
         ["linearize", f["gaussian"], "-n", "4", "-m", "5", "--basis", "monic"],
         [orc.linearize_hermite()]),
        ("recurrence-moments", ["recurrence", f["rec"], "--moments", "40"],
         [orc.recurrence_moments(rec_a2, rec_b)]),
        ("recurrence-closed-forms",
         ["recurrence", "--verify-closed-forms", "8", "--draws", "2", "--seed", "0"],
         [orc.closed_form_report()]),
        ("verify-pm-0.5-0.9", ["verify-pm", "--q", "0.5", "--rho", "0.9"], [orc.pm_identity()]),
        ("verify-pm-0.7-0.7", ["verify-pm", "--q", "0.7", "--rho", "0.7"], [orc.pm_identity()]),
        (NAN_OP, ["decompose", f["nan"], "-n", "1"], []),
    ]
    digests = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    ops = []
    for name, argv, extra in specs:
        oracles = orc.CLI_BASE_ORACLES + tuple(extra)
        if name in SEED_FREE_OPS:
            oracles += (orc.DIGEST_ORACLE,)
        ops.append(Op(name, _cli_job(mp, argv), oracles, expect_rc=1 if name == NAN_OP else 0,
                      digest=digests.get(name)))
    rng.shuffle(ops)
    return ops


DIGEST_FILE = Path(__file__).with_name("digests.json")

#: ops whose input does not depend on the seed; their stdout is pinned by digest
SEED_FREE_OPS = ("decompose-uniform-20", "decompose-uniform-20-float",
                 "connect-rn-40", "connect-rn-20-float", "connect-monic", "connect-monic-float",
                 "connect-ribbon", "connect-ribbon-float", "linearize-orthonormal",
                 "linearize-monic", "recurrence-closed-forms", "verify-pm-0.5-0.9",
                 "verify-pm-0.7-0.7")


WORKLOADS = {
    "exact-build": setup_exact_build,
    "exact-forward": setup_exact_forward,
    "cli-mixed": setup_cli_mixed,
}
