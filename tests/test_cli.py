"""End-to-end CLI tests through a subprocess."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    build_system,
    builtin_ribbon_pair,
    make_moments,
    moments_from_recurrence,
    save_moment_file,
)
import momentpoly.cli as cli_module
import momentpoly.qkernel as qkernel_module
from momentpoly.cli import build_parser
from momentpoly.cli import main as cli_main
from momentpoly.recurrence import recurrence_from_dict
from momentpoly.scalars import FLOAT, RATIONAL, exact_sqrt

from encode_oracle import encode_by_ladder


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "momentpoly.cli", *args],
        capture_output=True,
        text=True,
    )


#: CPython 3.10.7 and later limit int <-> str conversion to 4300 digits
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this interpreter has no int -> str digit limit")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, spec, mode in [
        ("gauss_float", FamilySpec("gaussian", 9), FLOAT),
        ("gauss", FamilySpec("gaussian", 9), RATIONAL),
        ("semicircle", FamilySpec("semicircle", 21), RATIONAL),
        ("uniform", FamilySpec("uniform", 41), RATIONAL),
    ]:
        p = root / f"{name}.json"
        save_moment_file(make_moments(spec, mode), p)
        paths[name] = str(p)
    alpha, delta = builtin_ribbon_pair(17)
    for name, seq in [("rib_alpha", alpha), ("rib_delta", delta)]:
        p = root / f"{name}.json"
        save_moment_file(seq, p)
        paths[name] = str(p)
    rec = root / "gauss_rec.json"
    rec.write_text(json.dumps({"a2": ["0", "1", "2", "3", "4"], "b": ["0"] * 5}))
    paths["gauss_rec"] = str(rec)
    paths["root"] = str(root)
    return paths


class TestDecompose:
    def test_gaussian_float_recurrence_output(self, files):
        res = run_cli("decompose", files["gauss_float"], "-n", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["a"][0] == 0.0
        assert data["a"][1] == pytest.approx(1.0)
        assert data["a"][2] == pytest.approx(math.sqrt(2))
        assert data["b"] == [0.0, 0.0]
        assert data["L"][2] == [1.0, 0.0, pytest.approx(math.sqrt(2))]

    def test_order_zero(self, files):
        data = json.loads(run_cli("decompose", files["gauss"], "-n", "0").stdout)
        assert data["L"] == [["1"]]

    def test_rational_output_is_exact_strings(self, files):
        data = json.loads(run_cli("decompose", files["gauss"], "-n", "2").stdout)
        assert data["L"][2] == ["1", "0", "1*sqrt(2)"]
        assert data["Delta"] == ["1", "1", "2"]

    def test_unnormalized_file_exits_one(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "rational", "moments": ["2", "0", "1"]}')
        res = run_cli("decompose", str(bad), "-n", "1")
        assert res.returncode == 1
        assert "not normalized" in res.stderr

    def test_rank_deficient_exits_two_with_order(self, files, tmp_path):
        twopoint = tmp_path / "twopoint.json"
        twopoint.write_text(
            '{"mode": "rational", "moments": ["1", "0", "1", "0", "1"]}'
        )
        res = run_cli("decompose", str(twopoint), "-n", "2")
        assert res.returncode == 2
        assert "order 2" in res.stderr

    def test_insufficient_moments_exits_two(self, files):
        res = run_cli("decompose", files["gauss"], "-n", "7")
        assert res.returncode == 2

    def test_missing_file_exits_one(self):
        res = run_cli("decompose", "/nonexistent/moments.json", "-n", "1")
        assert res.returncode == 1

    def test_malformed_json_exits_one(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_cli("decompose", str(bad), "-n", "1").returncode == 1

    def test_string_moments_exit_one(self, tmp_path):
        bad = tmp_path / "string.json"
        bad.write_text('{"moments": "1012"}')
        res = run_cli("decompose", str(bad), "-n", "1")
        assert res.returncode == 1
        assert res.stdout == ""

    def test_boolean_moment_exits_one(self, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text('{"moments": [true, 0, 1, 0, 3]}')
        res = run_cli("decompose", str(bad), "-n", "1")
        assert res.returncode == 1
        assert res.stdout == ""

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
    def test_infinite_float_moment_exits_one(self, tmp_path, value):
        # refused as input, not reported as a pivot of inf
        bad = tmp_path / "inf.json"
        bad.write_text(f'{{"mode": "float", "moments": [1, 0, {value}, 0, 3]}}')
        res = run_cli("decompose", str(bad), "-n", "2")
        assert res.returncode == 1
        assert res.stderr == f"error: cannot interpret {float(value)} as a finite float scalar\n"
        assert res.stdout == ""

    def test_tol_flag_rejected(self, files):
        # --tol belongs to connect, whose --ribbon test is the only reader
        res = run_cli("decompose", files["gauss"], "-n", "1", "--tol", "1e-6")
        assert res.returncode == 2
        assert "unrecognized arguments: --tol" in res.stderr

    def test_seed_flag_rejected(self, files):
        # --seed belongs to recurrence, whose random draws are its only reader
        res = run_cli("decompose", files["gauss"], "-n", "1", "--seed", "3")
        assert res.returncode == 2
        assert "unrecognized arguments: --seed 3" in res.stderr

    def test_deterministic_output(self, files):
        a = run_cli("decompose", files["gauss"], "-n", "3").stdout
        b = run_cli("decompose", files["gauss"], "-n", "3").stdout
        assert a == b

    def test_l_and_lambda_are_encoded_once(self, files, capsys, monkeypatch):
        # "L" and "Lambda" are one table: each of its scalars becomes text
        # once, and every string scalar of the output comes from one call
        calls = []
        monkeypatch.setattr(cli_module, "format_scalar", lambda x: calls.append(x) or str(x))
        assert cli_main(["decompose", files["gauss"], "-n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["Lambda"] == data["L"]
        cells = [v for key in ("L", "Pi", "Delta", "a", "a2", "b") for v in data[key]]
        flat = [v for c in cells for v in (c if isinstance(c, list) else [c])]
        assert all(isinstance(v, str) for v in flat)
        assert len(calls) == len(flat)

    def test_csv_format(self, files):
        res = run_cli("decompose", files["gauss"], "-n", "1", "--format", "csv")
        assert res.returncode == 0
        assert "# L" in res.stdout

    def test_output_file(self, files, tmp_path):
        out = tmp_path / "out.json"
        res = run_cli("decompose", files["gauss"], "-n", "1", "--out", str(out))
        assert res.returncode == 0
        assert json.loads(out.read_text())["L"] == [["1"], ["0", "1"]]

    @needs_digit_limit
    def test_exact_output_beyond_the_digit_limit(self, tmp_path, capsys):
        # a Delta entry of q-hermite (q = 1/2) at n = 45 has 4547 digits, past
        # the 4300 that int -> str conversion allows by default
        seq = make_moments(FamilySpec("q-hermite", 91, {"q": Fraction(1, 2)}))
        path = tmp_path / "qh.json"
        save_moment_file(seq, path)
        limit = sys.get_int_max_str_digits()
        assert cli_main(["decompose", str(path), "-n", "45"]) == 0
        assert sys.get_int_max_str_digits() == limit
        deltas = json.loads(capsys.readouterr().out)["Delta"]
        assert max(len(part) for d in deltas for part in d.split("/")) > 4300
        sys.set_int_max_str_digits(0)
        try:
            parsed = [Fraction(d) for d in deltas]
        finally:
            sys.set_int_max_str_digits(limit)
        assert parsed == build_system(seq, 45).deltas

    @needs_digit_limit
    def test_input_integer_beyond_the_digit_limit_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        big = "1" + "0" * sys.get_int_max_str_digits()
        bad.write_text(json.dumps({"moments": ["1", "0", big, "0", big]}))
        assert cli_main(["decompose", str(bad), "-n", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "digits" in out.err


class TestRecurrence:
    def test_moments_from_rec_file(self, files):
        res = run_cli("recurrence", files["gauss_rec"], "--moments", "5")
        assert json.loads(res.stdout)["moments"] == ["1", "0", "1", "0", "3"]

    def test_eta_rows(self, files):
        res = run_cli("recurrence", files["gauss_rec"], "--eta", "3")
        assert json.loads(res.stdout)["eta"][3] == ["0", "-3", "0", "1"]

    def test_tau_rows(self, files):
        res = run_cli("recurrence", files["gauss_rec"], "--tau", "3")
        assert json.loads(res.stdout)["tau"][3] == ["0", "3", "0", "1"]

    def test_closed_form_verification_random(self):
        res = run_cli("recurrence", "--verify-closed-forms", "8", "--draws", "3",
                      "--seed", "0")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert len(data["draws"]) == 3
        for draw in data["draws"]:
            assert draw["aux_closed_forms"] == "PASS"
            by_name = {c["name"]: c for c in draw["checks"]}
            assert by_name["eta_offdiag1"]["status"] == "PASS"
            assert by_name["tau_offdiag3_printed"]["status"] == "PASS"
            # documented misprints are reported as FAIL without failing the run
            assert by_name["eta_offdiag3_printed"]["status"] == "FAIL"
            assert by_name["eta_offdiag3_printed"]["expected_misprint"] is True

    def test_seeded_runs_are_reproducible(self):
        a = run_cli("recurrence", "--verify-closed-forms", "6", "--seed", "7").stdout
        b = run_cli("recurrence", "--verify-closed-forms", "6", "--seed", "7").stdout
        assert a == b

    @pytest.mark.parametrize("broken", ["aux_tables", "partial_solutions"])
    def test_genuine_failure_exits_three(self, broken, monkeypatch, capsys):
        # a mismatch that is not a documented misprint fails the run
        real = getattr(cli_module, broken)

        def failing(rec, n):
            out = real(rec, n)
            if broken == "aux_tables":
                out.first_mismatch = lambda: ("xi1", 2, 0, Fraction(1), Fraction(2))
            else:
                out.checks[0].passed = False  # eta_offdiag1
            return out

        monkeypatch.setattr(cli_module, broken, failing)
        assert cli_main(["recurrence", "--verify-closed-forms", "6", "--seed", "1"]) == 3
        draw = json.loads(capsys.readouterr().out)["draws"][0]
        if broken == "aux_tables":
            assert draw["aux_closed_forms"] == "FAIL"
        else:
            assert draw["checks"][0]["name"] == "eta_offdiag1"
            assert draw["checks"][0]["status"] == "FAIL"
            assert draw["checks"][0]["expected_misprint"] is False

    def test_malformed_rec_file(self, tmp_path):
        bad = tmp_path / "rec.json"
        bad.write_text('{"b": ["1"]}')
        assert run_cli("recurrence", str(bad), "--moments", "3").returncode == 1

    @pytest.mark.parametrize("body", ['{"a2": "123", "b": "4567"}',
                                      '{"a2": ["1", "2"], "b": 7}',
                                      '{"a2": {"1": "2"}, "b": ["0"]}'])
    def test_non_list_coefficients_exit_one(self, tmp_path, body):
        # a string would otherwise be read character by character
        bad = tmp_path / "rec.json"
        bad.write_text(body)
        res = run_cli("recurrence", str(bad), "--moments", "4")
        assert res.returncode == 1
        assert res.stderr == ("error: recurrence file must be an object with "
                              "'a2' and 'b' lists\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
    def test_infinite_float_coefficient_exits_one(self, tmp_path, value):
        # a bare Infinity on stdout would not be JSON
        bad = tmp_path / "rec.json"
        bad.write_text(f'{{"a2": [1, {value}], "b": [0, 0]}}')
        res = run_cli("recurrence", str(bad), "--moments", "5", "--mode", "float")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    def test_no_action_exits_one(self, files):
        assert run_cli("recurrence", files["gauss_rec"]).returncode == 1

    @pytest.mark.parametrize("first, second", list(itertools.combinations(
        ["--moments", "--eta", "--tau", "--verify-closed-forms"], 2)))
    def test_two_actions_exit_one(self, files, capsys, first, second):
        # one output per run: the second action would otherwise be dropped
        assert cli_main(["recurrence", files["gauss_rec"], first, "3", second, "2"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: pass one of --moments, --eta, --tau and --verify-closed-forms\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--moments", "--eta", "--tau"])
    def test_tables_without_rec_file_exit_one(self, flag):
        # random draws serve --verify-closed-forms only; a table flag given
        # next to it must not print a random draw instead of verifying
        for extra in ([], ["--verify-closed-forms", "3"]):
            res = run_cli("recurrence", flag, "4", *extra)
            assert res.returncode == 1
            assert res.stderr == "a recurrence file is required for this operation\n"
            assert res.stdout == ""

    def test_negative_closed_form_order_exits_one(self):
        res = run_cli("recurrence", "--verify-closed-forms", "-1")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_draw_count_below_one_exits_one(self, draws):
        res = run_cli("recurrence", "--verify-closed-forms", "3", "--draws", draws)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    @pytest.mark.parametrize("flags", [["--draws", "3"], ["--seed", "5"],
                                       ["--draws", "7", "--seed", "5"]],
                             ids=["draws", "seed", "both"])
    def test_draw_flags_with_a_rec_file_exit_one(self, files, capsys, flags):
        # the two flags set the random draws only: with a file they would be
        # dropped without a word
        assert cli_main(["recurrence", files["gauss_rec"], "--moments", "3", *flags]) == 1
        out, err = capsys.readouterr()
        assert err == ("error: --draws and --seed set the random draws; "
                       "they do not apply to a recurrence file\n")
        assert out == ""

    def test_draw_flags_default_to_five_draws_of_seed_zero(self, capsys):
        assert cli_main(["recurrence", "--verify-closed-forms", "4"]) == 0
        default = capsys.readouterr().out
        assert cli_main(["recurrence", "--verify-closed-forms", "4", "--draws", "5",
                         "--seed", "0"]) == 0
        assert capsys.readouterr().out == default
        assert len(json.loads(default)["draws"]) == 5

    def test_float_hermite_moments_to_count_121(self, tmp_path):
        rec = tmp_path / "herm.json"
        rec.write_text(json.dumps({"a2": [str(k) for k in range(61)], "b": ["0"] * 61}))
        res = run_cli("recurrence", str(rec), "--moments", "121", "--mode", "float")
        assert res.returncode == 0, res.stderr
        moments = json.loads(res.stdout)["moments"]
        assert moments[120] == pytest.approx(math.prod(range(1, 120, 2)), rel=1e-13)

    def test_float_closed_form_verification_refused(self, files):
        res = run_cli("recurrence", files["gauss_rec"], "--verify-closed-forms", "2",
                      "--mode", "float")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert res.stderr == ("error: --verify-closed-forms compares exact "
                              "identities; run it in rational mode\n")
        assert res.stdout == ""

    def test_short_rec_file_for_closed_forms_exits_one(self, tmp_path):
        short = tmp_path / "rec.json"
        short.write_text('{"a2": ["1", "2"], "b": ["0", "0", "0", "0", "0", "0", "0"]}')
        res = run_cli("recurrence", str(short), "--verify-closed-forms", "4")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr


def _main_output(args):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call, for
    tests that cannot take the function-scoped ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(args)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    """``json.loads`` that refuses the ``NaN`` and ``Infinity`` tokens."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in output")
    return json.loads(text, parse_constant=refuse)


#: JSON text of one file entry: numbers and numeric strings that are read,
#: next to every kind of value that must be refused.  Its floats are
#: moderate dyadic values, so float arithmetic on them cannot overflow
_ENTRY = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-99, 99).map(lambda i: json.dumps(i / 8)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).map(lambda f: json.dumps(str(f))),
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(["Infinity", "-Infinity", "true", "false", "null", "[]", "[0]",
                     "[1, [2]]", "{}", '{"a": 1}', '"1/0"', '"1e5"', '"nan"', '"-inf"',
                     "1" + "0" * 4400, '"' + "7" * 4400 + '"']),
)

#: (entry, whether it is an arbitrary float): any float may be NaN, or
#: finite but large or small enough that a float-mode pipeline overflows
_TAGGED_ENTRY = st.one_of(_ENTRY.map(lambda e: (e, False)),
                          st.floats().map(lambda x: (json.dumps(x), True)))


@st.composite
def _entries(draw, valid):
    """(JSON text of a file's list, whether it holds an arbitrary float):
    ``valid`` cut to a drawn length, so that short lists are drawn too, with
    up to three entries swapped for drawn ones; now and then no list at
    all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(['"1012"', "null", "{}", "7"])), False
    entries = list(valid[:draw(st.integers(0, len(valid)))])
    any_float = False
    for i in draw(st.sets(st.integers(0, len(valid) - 1), max_size=3)):
        if i < len(entries):
            entries[i], tagged = draw(_TAGGED_ENTRY)
            any_float = any_float or tagged
    return f"[{', '.join(entries)}]", any_float


_GAUSSIAN = ("1", "0", "1", "0", "3", "0", "15", "0", "105")
_MODE_FLAG = st.sampled_from([[], ["--mode", "rational"], ["--mode", "float"]])


class TestInputBoundary:
    """The moment and recurrence files are the library's input boundary: an
    entry must be a number or a numeric string in either mode, and a file of
    any other content exits 1 or 2 with an ``error:`` line, never with an
    exception out of ``cli.main``."""

    @pytest.mark.parametrize("entry", ["[0]", "{}", "null"])
    def test_float_non_number_moment_exits_one(self, entry, tmp_path):
        bad = tmp_path / "moments.json"
        bad.write_text(f'{{"mode": "float", "moments": [1, {entry}, 1]}}')
        code, out, err = _main_output(["decompose", str(bad), "-n", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_float_mode_list_coefficient_exits_one(self, tmp_path):
        bad = tmp_path / "rec.json"
        bad.write_text('{"a2": [0, [1]], "b": [0, 0]}')
        code, out, err = _main_output(["recurrence", str(bad), "--moments", "3",
                                       "--mode", "float"])
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_float_overflow_entry_exits_one(self, tmp_path):
        # "1e400" is past the float range: refused as Infinity is, not an
        # OverflowError
        bad = tmp_path / "moments.json"
        bad.write_text('{"mode": "float", "moments": [1, 0, "1e400"]}')
        code, out, err = _main_output(["decompose", str(bad), "-n", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot interpret")

    @pytest.mark.parametrize("head, tail, args", [
        ('{"moments": ', "}", ["decompose", "-n", "1"]),
        ('{"b": [0], "a2": ', "}", ["recurrence", "--moments", "3"]),
    ], ids=["moment-file", "recurrence-file"])
    def test_deeply_nested_file_exits_one(self, head, tail, args, tmp_path):
        # json.load raises RecursionError on it, which is no ValueError
        bad = tmp_path / "nested.json"
        bad.write_text(head + "[" * 100000 + "]" * 100000 + tail)
        code, out, err = _main_output([args[0], str(bad), *args[1:]])
        assert code == 1 and out == ""
        assert err == f"error: {bad}: the file nests too deeply to read\n"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: float mode still reads NaN, "
                                           "and prints NaN tokens with exit 0")
    @pytest.mark.parametrize("body, args", [
        ('{"mode": "float", "moments": [1, NaN, 1, 0, 2]}', ["decompose", "-n", "2"]),
        ('{"a2": [0, NaN], "b": [0, 0]}', ["recurrence", "--moments", "3", "--mode", "float"]),
    ])
    def test_float_nan_entry_exits_one(self, body, args, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(body)
        code, out, err = _main_output([args[0], str(bad), *args[1:]])
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_float_overflow_prints_no_infinity(self, fmt, tmp_path):
        # m_2 = b_0^2 + a_1^2 overflows although every entry is finite; JSON
        # and CSV read one encoding pass, which refuses an infinite float
        bad = tmp_path / "rec.json"
        bad.write_text('{"a2": [0, 1], "b": [1.3407807929942597e+154]}')
        code, out, err = _main_output([
            "recurrence", str(bad), "--moments", "3", "--mode", "float", "--format", fmt])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "past the float range" in err

    @staticmethod
    def _check(args, waive_json):
        code, out, err = _main_output(args)
        assert code in (0, 1, 2), (code, err)
        if code != 0:
            assert out == "" and err.startswith("error:"), err
        elif not waive_json:
            _strict_json(out)

    @settings(max_examples=150, deadline=None)
    @given(entries=_entries(_GAUSSIAN),
           file_mode=st.sampled_from(["", '"mode": "rational", ', '"mode": "float", ',
                                      '"mode": "bogus", ', '"mode": null, ']),
           flag=_MODE_FLAG, n=st.integers(-1, 4))
    def test_drawn_moment_files(self, entries, file_mode, flag, n, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "boundary_moments.json"
        path.write_text(f'{{{file_mode}"moments": {entries[0]}}}')
        float_mode = flag[1:] == ["float"] or (not flag and "float" in file_mode)
        # a float-mode NaN still prints NaN tokens with exit 0; the strict
        # xfail above pins that until item 1 mends it
        self._check(["decompose", str(path), "-n", str(n), *flag], float_mode and entries[1])

    @settings(max_examples=150, deadline=None)
    @given(a2=_entries(("0", "1", "2", "3", "4")), b=_entries(("0", "0", "0", "0", "0")),
           flag=_MODE_FLAG, table=st.sampled_from(["--moments", "--eta", "--tau"]),
           k=st.integers(-1, 9))
    def test_drawn_recurrence_files(self, a2, b, flag, table, k, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "boundary_rec.json"
        path.write_text(f'{{"a2": {a2[0]}, "b": {b[0]}}}')
        self._check(["recurrence", str(path), table, str(k), *flag],
                    flag[1:] == ["float"] and (a2[1] or b[1]))


class TestConnect:
    def test_identity_table(self, files):
        res = run_cli("connect", files["gauss"], files["gauss"], "-n", "3")
        data = json.loads(res.stdout)
        assert data["gamma"] == [["1"], ["0", "1"], ["0", "0", "1"],
                                 ["0", "0", "0", "1"]]

    def test_rn_symmetric_pair(self, files):
        res = run_cli("connect", files["semicircle"], files["uniform"], "-n", "3",
                      "--rn", "10")
        data = json.loads(res.stdout)
        assert data["rn"]["omega"][0] == "1"
        assert data["rn"]["omega"][1] == "0"
        sums = data["rn"]["parseval_partial_sums"]
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_builtin_ribbon_pair(self, files):
        res = run_cli("connect", files["rib_alpha"], files["rib_delta"], "-n", "8",
                      "--ribbon", "2")
        data = json.loads(res.stdout)
        assert data["ribbon"]["is_ribbon"] is True
        assert data["ribbon"]["max_off_ribbon"] == 0.0

    def test_negative_rn_order_exits_one(self, files):
        res = run_cli("connect", files["semicircle"], files["uniform"], "-n", "3",
                      "--rn", "-2")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    def test_negative_ribbon_width_exits_one(self, files):
        res = run_cli("connect", files["rib_alpha"], files["rib_delta"], "-n", "8",
                      "--ribbon", "-1")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    def test_float_ribbon_reads_tol(self, files):
        args = ("connect", files["rib_alpha"], files["rib_delta"], "-n", "8",
                "--ribbon", "2", "--mode", "float")
        loose = json.loads(run_cli(*args, "--tol", "1e-6").stdout)["ribbon"]
        assert loose["is_ribbon"] is True
        strict = json.loads(run_cli(*args, "--tol", "0").stdout)["ribbon"]
        assert 0 < strict["max_off_ribbon"] == loose["max_off_ribbon"]
        assert strict["is_ribbon"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_float_ribbon_refuses_bad_tol(self, files, tol, capsys):
        # the uniform/delta pair is off the 1-ribbon, so NaN or inf would
        # have passed it and -1 would fail any pair
        args = ["connect", files["rib_alpha"], files["rib_delta"], "-n", "8",
                "--ribbon", "1", "--mode", "float", "--tol", tol]
        assert cli_main(args) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ribbon tolerance must be finite and non-negative")

    def test_ribbon_negative_control(self, files):
        res = run_cli("connect", files["rib_alpha"], files["rib_delta"], "-n", "8",
                      "--ribbon", "1")
        data = json.loads(res.stdout)
        assert data["ribbon"]["is_ribbon"] is False
        assert data["ribbon"]["max_off_ribbon"] > 0


class TestLinearize:
    def test_gaussian_degree_one_square(self, files):
        res = run_cli("linearize", files["gauss_float"], "-n", "1", "-m", "1")
        data = json.loads(res.stdout)
        assert data["c"][0] == pytest.approx(1.0)
        assert data["c"][1] == pytest.approx(0.0, abs=1e-14)
        assert data["c"][2] == pytest.approx(math.sqrt(2))

    def test_insufficient_moments_exits_two(self, files):
        res = run_cli("linearize", files["gauss"], "-n", "3", "-m", "3")
        assert res.returncode == 2

    @pytest.mark.parametrize("n, m", [("2", "-1"), ("-3", "5")])
    def test_negative_degree_exits_one(self, files, n, m):
        res = run_cli("linearize", files["gauss"], "-n", n, "-m", m)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


class TestVerifyPM:
    def test_default_grid_passes(self):
        res = run_cli("verify-pm", "--q", "0.5", "--rho", "0.3")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["max_error"] < 1e-8
        assert len(data["points"]) == 25

    def test_threshold_failure_exits_three(self):
        res = run_cli("verify-pm", "--q", "0.5", "--rho", "0.9",
                      "--max-error", "1e-18")
        assert res.returncode == 3

    def test_large_kernel_judged_by_relative_error(self):
        # the kernel reaches ~7e12 here; its absolute error is far above 1e-8
        res = run_cli("verify-pm", "--q", "0.9", "--rho", "0.9")
        assert res.returncode == 0
        assert json.loads(res.stdout)["max_error"] > 1e-8

    def test_mode_flag_rejected(self):
        # the kernel identity is evaluated in floats only
        res = run_cli("verify-pm", "--q", "0.5", "--rho", "0.3", "--mode", "rational")
        assert res.returncode == 2
        assert "unrecognized arguments: --mode rational" in res.stderr

    @pytest.mark.parametrize("flag, value, message", [
        # NaN and inf would pass every point, and a negative bound fail them all
        ("--max-error", "nan", "--max-error must be finite and non-negative"),
        ("--max-error", "inf", "--max-error must be finite and non-negative"),
        ("--max-error", "-1", "--max-error must be finite and non-negative"),
        # a NaN tol never stops the loops, and an inf one stops them at once
        ("--trunc-tol", "nan", "tol must be positive and finite"),
        ("--trunc-tol", "inf", "tol must be positive and finite"),
        ("--trunc-tol", "0", "tol must be positive and finite"),
    ])
    def test_bad_tolerance_exits_one(self, flag, value, message, capsys):
        assert cli_main(["verify-pm", "--q", "0.5", "--rho", "0.9", flag, value]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {message}")

    def test_zero_max_error_is_judged(self, capsys):
        assert cli_main(["verify-pm", "--q", "0.5", "--rho", "0.9", "--points", "1,-1",
                         "--max-error", "0"]) == 3
        assert json.loads(capsys.readouterr().out)["max_error"] > 0

    def test_invalid_q_exits_one(self):
        assert run_cli("verify-pm", "--q", "1.5", "--rho", "0.3").returncode == 1

    def test_explicit_points(self):
        res = run_cli("verify-pm", "--q", "0.2", "--rho", "0.5",
                      "--points", "0,0;1,-1")
        data = json.loads(res.stdout)
        assert len(data["points"]) == 2
        assert data["max_error"] < 1e-8

    @pytest.mark.parametrize("points, chunk", [
        # an empty --points is no grid, not the default one
        ("", "''"),
        ("1,2,3", "'1,2,3'"),
        ("1;2", "'1'"),
        ("1,1;", "''"),
        ("0,0;;1,1", "''"),
    ])
    def test_malformed_points_exit_one(self, points, chunk, capsys):
        assert cli_main(["verify-pm", "--q", "0.5", "--rho", "0.9", "--points", points]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --points takes x,y pairs separated by ';', not {chunk}\n"

    @pytest.mark.parametrize("points, calls", [(None, 13), ("1,-1;-1,1", 1)])
    def test_one_evaluation_per_mirror_pair(self, points, calls, monkeypatch, capsys):
        counts = {"pm_product": 0, "pm_series": 0}
        for name in counts:
            def counted(*args, run=getattr(qkernel_module, name), name=name):
                counts[name] += 1
                return run(*args)
            monkeypatch.setattr(qkernel_module, name, counted)
        args = ["verify-pm", "--q", "0.5", "--rho", "0.9"]
        assert cli_main(args + ([] if points is None else ["--points", points])) == 0
        report = json.loads(capsys.readouterr().out)["points"]
        assert counts == {"pm_product": calls, "pm_series": calls}
        assert len(report) == (25 if points is None else 2)
        if points is not None:
            # the mirror keeps its own coordinates and takes the pair's sides
            assert [(pt["x"], pt["y"]) for pt in report] == [(1.0, -1.0), (-1.0, 1.0)]
            assert report[0] | {"x": -1.0, "y": 1.0} == report[1]

    @pytest.mark.parametrize("patch, q, message", [
        # pm_product refuses a weight w_k <= 0
        (("kernel_weight", lambda x, y, p, k: 0.0), "0.5", "kernel weight w_0 = 0.0"),
        # at q = 0.5 the product needs more than two factors
        (("MAX_PM_TERMS", 2), "0.5", "product truncation did not converge"),
        # at q = 0 every factor past w_0 is 1, so the product stops after four,
        # while the series at (0, 0) needs about 260 terms for rho = 0.9
        (("MAX_PM_TERMS", 10), "0", "series truncation did not converge"),
    ])
    def test_truncation_failure_exits_one(self, patch, q, message, monkeypatch, capsys):
        monkeypatch.setattr(qkernel_module, *patch)
        assert cli_main(["verify-pm", "--q", q, "--rho", "0.9", "--points", "0,0"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err


GOLDEN_RECURRENCE = Path(__file__).with_name("data") / "golden_recurrence.json"


class TestSharedParser:
    """``main`` builds its parser on the first call and reuses it;
    ``build_parser`` still hands each caller a parser of its own."""

    def test_built_once_across_calls(self, files, monkeypatch, capsys):
        built = []
        real = cli_module.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli_module, "build_parser", counting)
        cli_module._shared_parser.cache_clear()
        try:
            for _ in range(3):
                assert cli_main(["recurrence", files["gauss_rec"], "--moments", "3"]) == 0
        finally:
            cli_module._shared_parser.cache_clear()
        assert built == [1]
        assert build_parser() is not build_parser()

    def test_reused_parser_keeps_calls_independent(self, files, capsys):
        # a failed parse, then two calls with different options: nothing carries over
        with pytest.raises(SystemExit):
            cli_main(["recurrence", "--draws"])
        capsys.readouterr()
        assert cli_main(["recurrence", files["gauss_rec"], "--eta", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"eta": [["1"], ["0", "1"],
                                                               ["-1", "0", "1"],
                                                               ["0", "-3", "0", "1"]]}
        assert cli_main(["recurrence", files["gauss_rec"], "--tau", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"tau": [["1"], ["0", "1"],
                                                               ["1", "0", "1"],
                                                               ["0", "3", "0", "1"]]}


class TestGoldenRecurrenceOutput:
    """Pinned stdout of the recurrence tables and moments of a committed file,
    with b != 0 and pairwise coprime denominators up to 101; the digests were
    taken with the fill that steps in Fraction arithmetic.  The closed-form
    report digests were taken with the closed fills and the near-diagonal
    checks that step in Fraction arithmetic."""

    @pytest.mark.parametrize("mode, flag, order, digest", [
        ("rational", "--eta", "40",
         "ad359c0028085b9da63ba7a8f78ec73d43c56be14f291e4de7b6d5c3f8081981"),
        ("rational", "--tau", "40",
         "8a8ae5acb447460190364d146d60ccaaf932c79db6773b5c2fd8aaac4e3186b4"),
        ("rational", "--moments", "41",
         "64470911ca1ddbd874c0944a791dc5e6caab7c2b785e4b238b1f4cf5783a663e"),
        ("float", "--eta", "40",
         "bc6d88d5c23672ef76b7535ca68489fcab76b86027f5a4ec315eabf4191bd104"),
        ("float", "--tau", "40",
         "af39fea34be0b1bfb69ce1a6173c3aacdab44b1a0db5d9836a700c0e6ea3d466"),
        ("float", "--moments", "41",
         "d8ac3533a5a4135becbd5f5d743eb1a92f4793abe0d477e7471181408fdfdab7"),
    ])
    def test_stdout_digest(self, mode, flag, order, digest):
        res = run_cli("recurrence", str(GOLDEN_RECURRENCE), flag, order, "--mode", mode)
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        ([str(GOLDEN_RECURRENCE), "--verify-closed-forms", "16"],
         "d9bee289b80818126b4b28e8a2ef50dca92e603a46b520c124fd2659a700c1ed"),
        (["--verify-closed-forms", "12", "--draws", "3", "--seed", "0"],
         "c0d9c065520d08c8b07697b2f5bf4b840dd85b3f750e9af7c9c1feec88057b21"),
    ], ids=["golden-file", "random-draws"])
    def test_closed_form_report_digest(self, args, digest, capsys):
        # the closed-form report: aux fills and every near-diagonal check
        assert cli_main(["recurrence", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


GOLDEN_PRODUCTS = json.loads(GOLDEN_RECURRENCE.with_name("golden_products.json").read_text())


class TestGoldenProductOutput:
    """Pinned stdout of ``linearize`` and ``connect`` on catalog families and
    on a b != 0 moment file, in both bases; ``connect`` also in float mode.
    Rational ``decompose`` pins the surd entries of ``Pi`` and ``L``, with
    semicircle (every d_k a perfect square) for the plain-Fraction entries,
    and at n = 20 on q-hermite, whose moment denominators have a 700-bit lcm,
    on uniform and on a b != 0 sequence."""

    @pytest.fixture(scope="class")
    def moment_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        paths = {"skew": str(GOLDEN_RECURRENCE.with_name("golden_skew_moments.json"))}
        specs = {fam: FamilySpec(fam, 21) for fam in ("gaussian", "semicircle", "uniform")}
        specs["qhermite41"] = FamilySpec("q-hermite", 41, {"q": Fraction(1, 2)})
        specs["uniform41"] = FamilySpec("uniform", 41)
        for name, spec in specs.items():
            paths[name] = str(root / f"{name}.json")
            save_moment_file(make_moments(spec, RATIONAL), paths[name])
        golden = recurrence_from_dict(json.loads(GOLDEN_RECURRENCE.read_text()), mode=RATIONAL)
        paths["skew41"] = str(root / "skew41.json")
        save_moment_file(moments_from_recurrence(golden, 41), paths["skew41"])
        return paths

    @pytest.mark.parametrize("case", GOLDEN_PRODUCTS["cases"], ids=lambda c: c["args"])
    def test_stdout_digest(self, case, moment_files, capsys):
        # in-process: thirty subprocess starts would dominate the suite's time
        assert cli_main([a.format(**moment_files) for a in case["args"].split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == case["sha256"]


def _csv_run(args, capsys):
    """Exit code, stdout and stderr of one in-process ``--format csv`` call."""
    code = cli_main([*args, "--format", "csv"])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCsvOutput:
    """``--format csv``: a list is a table, an object field is written under
    dotted keys, a list of objects is a header row plus one row per object,
    and a field that nests deeper is refused.  The table digests were taken
    before nested fields were written under dotted keys."""

    @pytest.mark.parametrize("args, digest", [
        ("decompose {gauss} -n 3",
         "c6ada5ad72db46cd8b4e3d107fd68aa72fedeacae0e28c0a595544909df95528"),
        ("decompose {gauss_float} -n 3",
         "507b01103954d3700b603239a2042da4218b1d4ec4ae62d6710d17b5db0d1b3d"),
        ("decompose {semicircle} -n 4",
         "ee0baca9b21572e4a479f45802e14d94c0bae199fa10fcfdfc413c49cf7df68c"),
        ("linearize {semicircle} -n 2 -m 3",
         "7d087cea4a2c9389aa44249e77f2cc3b95a257d6878a51a23e4e61db1190af35"),
        ("linearize {semicircle} -n 2 -m 3 --basis monic",
         "ee85df7b4354482d250a704e5fa6be6e91a812e594bbacdb0d26253e895bf247"),
        ("linearize {gauss_float} -n 2 -m 2",
         "cf820ed9998027e37d5d2f226abfb2cb5eee8d1bf2f8abe0646cebaff0a764a6"),
        ("recurrence {golden} --eta 8",
         "c178e7677cf6d814a7379cf0105d86819b3d20b3e0e1ea7b850dea7e24fed20a"),
        ("recurrence {golden} --tau 8",
         "69393702e1ba8c6c1335a732e486fddd11b9f832e85732b5c04066ead2c4cabc"),
        ("recurrence {golden} --moments 9",
         "db68b63be1499e0cbdd60e34059e05341f49121f19db45088d4747cc59344bc1"),
        ("recurrence {golden} --eta 8 --mode float",
         "0543bd6bdb59e9682d0d3d437833d60f7b0e2e0e8189fbfc2659e0406bc23e09"),
        ("connect {semicircle} {uniform} -n 4",
         "888732a5a48504c0edc1f18c16b3cf02533c2c94269c14cbc500d401b7718f30"),
        ("connect {semicircle} {uniform} -n 4 --basis monic",
         "5a30b9866fd225573205b161ad3db3a47bc4dc29bc7c04fff88d28cae920e283"),
        ("connect {rib_alpha} {rib_delta} -n 4 --mode float",
         "7194d844c0a444c07c144e8356fb12e05ade8362cb49b311bfb19401fa4df919"),
    ])
    def test_table_digest(self, args, digest, files, capsys):
        code, out, _ = _csv_run(args.format(golden=GOLDEN_RECURRENCE, **files).split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_object_fields_under_dotted_keys(self, mode, files, capsys):
        args = ["connect", files["rib_alpha"], files["rib_delta"], "-n", "2",
                "--rn", "2", "--ribbon", "1", "--mode", mode]
        assert cli_main(args) == 0
        data = json.loads(capsys.readouterr().out)
        code, out, _ = _csv_run(args, capsys)
        assert code == 0 and "{" not in out
        lines = out.splitlines()
        for key, values in data["rn"].items():
            at = lines.index(f"# rn.{key}")
            assert lines[at + 1] == ",".join(str(v) for v in values)
        assert [line for line in lines if line.startswith("ribbon.")] == [
            f"ribbon.{key},{value}" for key, value in data["ribbon"].items()]
        assert "ribbon.r,1" in lines and "ribbon.is_ribbon,False" in lines

    def test_list_of_objects_is_header_and_rows(self, capsys):
        args = ["verify-pm", "--q", "0.5", "--rho", "0.3", "--points", "0,0;1,-1"]
        assert cli_main(args) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        code, out, _ = _csv_run(args, capsys)
        assert code == 0 and "{" not in out
        lines = out.splitlines()
        at = lines.index("# points")
        assert lines[at + 1] == "x,y,product,series,terms,error"
        assert lines[at + 2:] == [",".join(str(v) for v in p.values()) for p in points]

    @settings(max_examples=60, deadline=None)
    @given(label=st.one_of(st.sampled_from(["a,b", '"', "\r", "\n", ' "x", \r\n']),
                           # csv.reader refuses NUL before Python 3.11
                           st.text().map(lambda t: t.replace("\0", ""))))
    def test_label_round_trips(self, label, tmp_path_factory):
        # the csv module quotes a cell that holds a comma, a quote, CR or LF
        path = tmp_path_factory.getbasetemp() / "labelled.json"
        rows = {}
        for name in ("plain", label):
            path.write_text(json.dumps({"label": name, "moments": list(_GAUSSIAN)}))
            code, out, _ = _main_output(["decompose", str(path), "-n", "2", "--format", "csv"])
            assert code == 0
            rows[name] = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[label][0] == ["label", label]
        assert rows[label][1:] == rows["plain"][1:]

    def test_nested_cells_exit_one(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        args = ["recurrence", "--verify-closed-forms", "4", "--draws", "1"]
        for extra in ([], ["--out", str(out_file)]):
            code, out, err = _csv_run(args + extra, capsys)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "'draws'" in err
        assert not out_file.exists()


#: JSON-ready scalars as _encode hands them on: text with escapes and
#: non-ASCII characters, floats with NaN, -0.0 and the infinities, ints past
#: the int -> str digit limit, bools and None
_json_scalars = st.one_of(
    st.text(), st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "α,β", " ", "\U0001d11e"]),
    st.floats(), st.sampled_from([-0.0, math.nan, 5e-324, 1e16, 1e-7]),
    st.integers(), st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000),
    st.booleans(), st.none())
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(st.text(max_size=3), max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@contextlib.contextmanager
def _no_digit_limit():
    """The int -> str digit limit lifted, as _emit lifts it while the CLI
    writes."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_payloads)
    # ints, bools and None are written without json.dumps: each of them
    # inside a list and a dict, an int beside the bool it equals, and an int
    # past the digit limit
    @example([True, 1, False, 0, None, -7, 10**5000])
    @example({"t": True, "one": 1, "f": False, "zero": 0, "none": None, "big": -10**5000,
              "row": [[None], {"b": False}, 12]})
    def test_equals_json_dumps_with_indent_two(self, payload):
        with _no_digit_limit():
            assert cli_module._json(payload) == json.dumps(payload, indent=2)

    def test_non_ascii_label_is_escaped(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text('{"label": "α,β \\"q\\"", "moments": ["1", "0", "1"]}', encoding="utf-8")
        assert cli_main(["decompose", str(path), "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('{\n  "label": "\\u03b1,\\u03b2 \\"q\\"",\n')
        assert json.loads(out)["label"] == 'α,β "q"'


class _Float(float):
    """A float subclass: a type missing from _encode's table."""


class _Int(int):
    """An int subclass: a type missing from _encode's table."""


class _Fraction(Fraction):
    """A Fraction subclass: a type missing from _encode's table."""


def _aliased(payload: dict, value) -> dict:
    """``payload`` with one value held under two more keys, as decompose
    holds its L rows under "L" and "Lambda"."""
    return {**payload, "L": value, "Lambda": value}


#: what the CLI's payloads hold, and what they could: exact scalars, floats
#: with -0.0, NaN and the infinities, ints past the digit limit, bools, None,
#: non-ASCII text, subclasses of float, int and Fraction, and a type no
#: encoder writes
_encode_scalars = st.one_of(
    st.fractions(), st.fractions().map(lambda f: _Fraction(f.numerator, f.denominator)),
    st.builds(lambda c, r: c * exact_sqrt(r), st.fractions().filter(bool),
              st.fractions(min_value=0, max_denominator=50)),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), st.floats().map(_Float),
    st.integers(), st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000),
    st.integers().map(_Int), st.booleans(), st.none(),
    st.text(), st.sampled_from(["α,β", "\U0001d11e"]), st.just(1j))
_encode_payloads = st.recursive(
    _encode_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4),
                            st.builds(_aliased, st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3), inner)),
    max_leaves=25)


def _typed(obj):
    """``obj`` with the type of every leaf beside its repr, so that equal
    outputs hold equal types too, and NaN equals NaN."""
    if type(obj) is list:
        return [_typed(v) for v in obj]
    if type(obj) is dict:
        return {k: _typed(v) for k, v in obj.items()}
    return type(obj), repr(obj)


def _encoded(encode, payload):
    """The typed output of ``encode``, or the type and message of what it
    raised."""
    try:
        with _no_digit_limit():
            return _typed(encode(payload))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestEncoder:
    """``cli._encode`` against the isinstance ladder it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_encode_payloads)
    @example([_Float(-0.0), _Float(math.nan), _Int(7), True, None, (Fraction(1, 3),)])
    @example({"row": [_Float(math.inf)]})
    @example([Fraction(2), [1j]])
    @example(_aliased({"n": 3}, [exact_sqrt(Fraction(2)), 1.5, [math.nan]]))
    def test_equals_the_isinstance_ladder(self, payload):
        assert _encoded(cli_module._encode, payload) == _encoded(encode_by_ladder, payload)
