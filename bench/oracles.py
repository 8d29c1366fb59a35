"""Correctness oracles that the library does not compute itself.

Each :class:`Oracle` takes one op's output and the outputs of the other ops
of the same pass, and returns ``None`` when the output is right or a one-line
reason when it is not.  Each oracle also knows how to damage an output, so
that the self-check can prove it rejects a wrong answer.

Exact values are compared with ``==``.  Surd entries are compared through the
documented ``"p/q*sqrt(r/s)"`` serialization, so the oracles do not lean on
the library's own scalar arithmetic.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

EPS = 2.0**-52

#: the printed closed forms known to be misprinted; they must keep failing
MISPRINTS = ("eta_offdiag3_printed", "eta_offdiag4_printed")


@dataclass(frozen=True)
class Oracle:
    name: str
    check: Callable  # (output, peers) -> str | None
    corrupt: Callable  # (output) -> damaged copy of output


# -- exact helpers ------------------------------------------------------------


def split_surd(value) -> tuple:
    """(c, r) with value == c * sqrt(r), read from the serialized form."""
    text = value if isinstance(value, str) else str(value)
    if "*sqrt(" in text:
        coef, rad = text.split("*sqrt(")
        return Fraction(coef), Fraction(rad.rstrip(")"))
    return Fraction(text), Fraction(1)


def rational_sqrt(f: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def common_radical(values) -> tuple:
    """Write a row as (rational coefficients, r) with entry_k == c_k * sqrt(r).

    Returns (None, None) when the row mixes incommensurable radicals.
    """
    parts = [split_surd(v) for v in values]
    base = next((r for c, r in parts if c != 0), Fraction(1))
    coefs = []
    for c, r in parts:
        scale = rational_sqrt(r / base) if c != 0 else Fraction(0)
        if scale is None:
            return None, None
        coefs.append(c * scale)
    return coefs, base


def q_bracket(k: int, q: Fraction) -> Fraction:
    return (1 - q**k) / (1 - q)


def jacobi_moments(a2, b, count: int) -> list:
    """m_k = (J^k)_00 for the monic Jacobi matrix, by plain Fraction powers."""
    size = count // 2 + 2
    v = [Fraction(0)] * size
    v[0] = Fraction(1)
    out = [Fraction(1)]
    for _ in range(1, count):
        # J[i][i] = b_i, J[i][i+1] = 1, J[i+1][i] = a_{i+1}^2; rows of J^k e_0
        w = [Fraction(0)] * size
        for i in range(size - 1):
            w[i] = b[i] * v[i] + v[i + 1] + (a2[i] * v[i - 1] if i else 0)
        v = w
        out.append(v[0])
    return out


def delta_products(a2, n: int) -> list:
    """Delta_k = prod_j (a_j^2)^(k-j+1), k = 0..n, from m_0 = 1."""
    out, pivot, delta = [Fraction(1)], Fraction(1), Fraction(1)
    for k in range(1, n + 1):
        pivot *= a2[k]
        delta *= pivot
        out.append(delta)
    return out


def _first_diff(got, want) -> str | None:
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"entry {k}: {g} != {w}"
    return None


def _bump_list(seq, k: int, delta):
    out = list(seq)
    out[k] = out[k] + delta
    return out


# -- exact-build ----------------------------------------------------------------


def _build_recurrence(out, peers):
    inp = out["input"]
    n = inp.order
    diff = _first_diff(list(out["a2"][1:]), list(inp.a2[1 : n + 1]))
    if diff:
        return f"a2 {diff}"
    diff = _first_diff(list(out["b"]), list(inp.b[:n]))
    return f"b {diff}" if diff else None


def _build_deltas(out, peers):
    inp = out["input"]
    diff = _first_diff(list(out["Delta"]), delta_products(inp.a2, inp.order))
    return f"Delta {diff}" if diff else None


def _build_pi_l(out, peers):
    pi, L = out["Pi"], out["L"]
    n = len(pi) - 1
    cols = {}
    for i in out["input"].sample_rows:
        prow, r = common_radical(pi[i])
        if prow is None:
            return f"Pi row {i} mixes radicals"
        for j in range(i + 1):
            if j not in cols:
                cols[j] = common_radical([L[k][j] for k in range(j, n + 1)])
            lcol, s = cols[j]
            if lcol is None:
                return f"L column {j} mixes radicals"
            dot = sum(prow[k] * lcol[k - j] for k in range(j, i + 1))
            value = dot * dot * r * s if i == j else dot
            if value != (1 if i == j else 0):
                return f"(Pi L)[{i}][{j}] != {int(i == j)}"
    return None


def _corrupt_key(key, delta=Fraction(1, 7)):
    def corrupt(out):
        bad = dict(out)
        bad[key] = _bump_list(out[key], len(out[key]) - 1, delta)
        return bad

    return corrupt


def _corrupt_pi(out):
    bad = dict(out)
    i = out["input"].sample_rows[-1]
    bad["Pi"] = list(out["Pi"])
    bad["Pi"][i] = _bump_list(out["Pi"][i], 0, Fraction(1, 7))
    return bad


BUILD_ORACLES = (
    Oracle("recurrence_closed_form", _build_recurrence, _corrupt_key("a2")),
    Oracle("delta_product", _build_deltas, _corrupt_key("Delta")),
    Oracle("pi_times_l", _build_pi_l, _corrupt_pi),
)


# -- exact-forward ----------------------------------------------------------------


def _forward_inverse(out, peers):
    eta, tau = out["eta"], out["tau"]
    for i in range(len(eta)):
        for j in range(i + 1):
            s = sum(eta[i][k] * tau[k][j] for k in range(j, i + 1))
            if s != (1 if i == j else 0):
                return f"(eta tau)[{i}][{j}] = {s}"
    return None


def _forward_moments(out, peers):
    inp = out["input"]
    want = jacobi_moments(inp.a2, inp.b, len(out["moments"]))
    diff = _first_diff(list(out["moments"]), want)
    return f"moments {diff}" if diff else None


def _forward_verdicts(out, peers):
    if out["aux_mismatch"] is not None:
        return f"aux closed form mismatch {out['aux_mismatch'][:3]}"
    status = {c.name: c.passed for c in out["checks"]}
    for name, passed in status.items():
        if name not in MISPRINTS and not passed:
            return f"{name} FAIL"
    if any(out["input"].b):
        for name in MISPRINTS:
            if status.get(name, True):
                return f"documented misprint {name} reported PASS"
    return None


def _corrupt_tau(out):
    bad = dict(out)
    bad["tau"] = [list(row) for row in out["tau"]]
    bad["tau"][-1][0] += 1
    return bad


def _corrupt_verdict(out):
    bad = dict(out)
    bad["checks"] = copy.deepcopy(out["checks"])
    bad["checks"][0].passed = not bad["checks"][0].passed
    return bad


FORWARD_ORACLES = (
    Oracle("eta_tau_inverse", _forward_inverse, _corrupt_tau),
    Oracle("jacobi_moments", _forward_moments, _corrupt_key("moments")),
    Oracle("closed_form_verdicts", _forward_verdicts, _corrupt_verdict),
)


# -- cli-mixed ----------------------------------------------------------------------


def _refuse(token):
    raise ValueError(f"non-JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_refuse)


def _payload(out):
    return strict_json(out["stdout"])


def _bad_stdout(out, text):
    bad = dict(out)
    bad["stdout"] = text
    return bad


def _edit_payload(edit):
    def corrupt(out):
        data = _payload(out)
        edit(data)
        return _bad_stdout(out, json.dumps(data, indent=2) + "\n")

    return corrupt


def exit_code(out, peers):
    want = out["op"].expect_rc
    return None if out["rc"] == want else f"exit code {out['rc']}, documented {want}"


def json_output(out, peers):
    if "NaN" in out["stdout"] or "Infinity" in out["stdout"]:
        return "non-finite token in stdout"
    if out["op"].expect_rc != 0:
        return None
    try:
        strict_json(out["stdout"])
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    return None


def digest(out, peers):
    want = out["op"].digest
    if want is None:
        return "no digest recorded for this op"
    got = hashlib.sha256(out["stdout"].encode("utf-8")).hexdigest()
    return None if got == want else "stdout differs from its recorded digest"


def _corrupt_digest(out):
    return _bad_stdout(out, out["stdout"] + " ")


def _corrupt_rc(out):
    return dict(out, rc=out["rc"] + 1)


def _corrupt_json(out):
    return _bad_stdout(out, out["stdout"].replace("[", "[NaN, ", 1))


CLI_BASE_ORACLES = (
    Oracle("exit_code", exit_code, _corrupt_rc),
    Oracle("strict_json", json_output, _corrupt_json),
)
DIGEST_ORACLE = Oracle("stdout_digest", digest, _corrupt_digest)


def uniform_a2(k: int) -> Fraction:
    return Fraction(k * k, 4 * k * k - 1)


def uniform_cond(k: int) -> float:
    """Pivot ratio m_2k / d_k of the uniform measure's Hankel factorization,
    with d_k = prod_j a_j^2; float mode breaks down as it nears 1e12."""
    d = Fraction(1)
    for j in range(1, k + 1):
        d *= uniform_a2(j)
    return float(Fraction(1, 2 * k + 1) / d)


#: float results may differ from exact ones by this many ulps per unit of the
#: pivot ratio; at n = 20 the uniform a2 is off by about 240
FLOAT_ULPS = 1000


def float_tolerance(cond: float, exact: float) -> float:
    return FLOAT_ULPS * EPS * cond * max(1.0, abs(exact))


def decompose_uniform():
    """a2, b and Delta of the uniform measure: exact, or within tolerance."""

    def check(out, peers):
        data = _payload(out)
        n = data["n"]
        want = [uniform_a2(k) for k in range(1, n + 1)]
        if data["mode"] == "rational":
            diff = _first_diff([Fraction(v) for v in data["a2"][1:]], want)
            if diff:
                return f"a2 {diff}"
            if any(Fraction(v) for v in data["b"]):
                return "b not all zero"
            diff = _first_diff([Fraction(v) for v in data["Delta"]],
                               delta_products([0] + want, n))
            return f"Delta {diff}" if diff else None
        for k, (got, w) in enumerate(zip(data["a2"][1:], want), start=1):
            if abs(got - float(w)) > float_tolerance(uniform_cond(k), float(w)):
                return f"float a2[{k}] = {got!r}, exact {w}"
        if any(abs(v) > float_tolerance(uniform_cond(n), 0.0) for v in data["b"]):
            return "float b exceeds its tolerance around 0"
        return None

    def edit(data):
        # a low order, where the float tolerance is a few ulps
        data["a2"][2] = "1/3" if data["mode"] == "rational" else data["a2"][2] * (1 + 1e-9)

    return Oracle("closed_form_recurrence", check, _edit_payload(edit))


def linearize_hermite():
    """Monic Hermite: He_n He_m = sum_k C(n,k) C(m,k) k! He_{n+m-2k}."""

    def check(out, peers):
        data = _payload(out)
        n, m = data["n"], data["m"]
        for s, value in enumerate(data["c"]):
            gap = n + m - s
            k = gap // 2
            monic = math.comb(n, k) * math.comb(m, k) * math.factorial(k) if gap % 2 == 0 else 0
            if data["basis"] == "monic":
                if Fraction(value) != monic:
                    return f"c[{s}] = {value}, want {monic}"
                continue
            c, r = split_surd(value)
            want_sq = Fraction(monic**2 * math.factorial(s), math.factorial(n) * math.factorial(m))
            if c < 0 or c * c * r != want_sq:
                return f"c[{s}] = {value}, want sqrt({want_sq})"
        return None

    def edit(data):
        data["c"][-1] = "2"

    return Oracle("hermite_linearization", check, _edit_payload(edit))


def ribbon_reported():
    def check(out, peers):
        ribbon = _payload(out)["ribbon"]
        return None if ribbon["is_ribbon"] is True else "ribbon pair not reported as ribbon"

    def edit(data):
        data["ribbon"]["is_ribbon"] = False

    return Oracle("ribbon_pair", check, _edit_payload(edit))


#: integral of (d semicircle / d uniform)^2 against the uniform measure
RN_LIMIT = 32 / (3 * math.pi**2)


def rn_partial_sums():
    def check(out, peers):
        sums = _payload(out)["rn"]["parseval_partial_sums"]
        if any(b < a for a, b in zip(sums, sums[1:])):
            return "Parseval partial sums decrease"
        if not sums[-1] < RN_LIMIT:
            return f"Parseval partial sum {sums[-1]} not below {RN_LIMIT}"
        return None

    def edit(data):
        data["rn"]["parseval_partial_sums"][-1] = 2.0

    return Oracle("rn_parseval", check, _edit_payload(edit))


def float_matches(peer: str, key, order: int):
    """Float table within a condition-scaled tolerance of the rational peer's.

    ``key`` picks the table out of a payload; the float table may be a
    prefix of the rational one.
    """

    def check(out, peers):
        got = _flat(key(_payload(out)))
        want = _flat(key(_payload(peers[peer])))
        if len(got) > len(want):
            return "float table longer than the rational one"
        cond = uniform_cond(order)
        for k, (g, w) in enumerate(zip(got, want)):
            c, r = split_surd(w)
            exact = float(c) * math.sqrt(r)
            if abs(g - exact) > float_tolerance(cond, exact):
                return f"float entry {k} = {g!r}, rational {w}"
        return None

    def corrupt(out):
        data = _payload(out)
        table = key(data)
        row = table[-1] if isinstance(table[-1], list) else table
        row[-1] = row[-1] + 0.01
        return _bad_stdout(out, json.dumps(data, indent=2) + "\n")

    return Oracle("float_vs_rational", check, corrupt)


def _flat(table):
    if table and isinstance(table[0], list):
        return [v for row in table for v in row]
    return list(table)


def recurrence_moments(a2, b):
    def check(out, peers):
        got = [Fraction(v) for v in _payload(out)["moments"]]
        diff = _first_diff(got, jacobi_moments(a2, b, len(got)))
        return f"moments {diff}" if diff else None

    def edit(data):
        data["moments"][-1] = "1/3"

    return Oracle("jacobi_moments", check, _edit_payload(edit))


def closed_form_report():
    def check(out, peers):
        failed = set()
        for draw in _payload(out)["draws"]:
            if draw["aux_closed_forms"] != "PASS":
                return f"draw {draw['draw']}: aux closed forms FAIL"
            for c in draw["checks"]:
                if c["status"] == "FAIL":
                    if c["name"] not in MISPRINTS:
                        return f"draw {draw['draw']}: {c['name']} FAIL"
                    failed.add(c["name"])
        missing = set(MISPRINTS) - failed
        return f"misprints never reported: {sorted(missing)}" if missing else None

    def edit(data):
        data["draws"][0]["checks"][0]["status"] = "FAIL"

    return Oracle("closed_form_verdicts", check, _edit_payload(edit))


def pm_identity(max_error: float = 1e-8):
    def check(out, peers):
        data = _payload(out)
        for p in data["points"]:
            if not abs(p["product"] - p["series"]) <= max_error:
                return f"|product - series| = {abs(p['product'] - p['series'])} at ({p['x']}, {p['y']})"
            if not p["product"] > 0:
                return f"kernel product {p['product']} not positive"
        return None

    def edit(data):
        data["points"][-1]["series"] += 1.0

    return Oracle("pm_identity", check, _edit_payload(edit))


def run_self_check(samples) -> list:
    """Damage one output per oracle and return the oracles that accepted it.

    ``samples`` yields (oracle, output, peers) triples taken from real runs.
    """
    slack = []
    for oracle, out, peers in samples:
        try:
            verdict = oracle.check(oracle.corrupt(out), peers)
        except (ValueError, KeyError, IndexError, TypeError):
            verdict = "raised"
        if verdict is None:
            slack.append(f"{oracle.name} on {out['op'].name}")
    return slack
