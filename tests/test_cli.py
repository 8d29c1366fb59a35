"""End-to-end CLI tests through a subprocess."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from momentpoly import (
    FamilySpec,
    build_system,
    builtin_ribbon_pair,
    make_moments,
    moments_from_recurrence,
    save_moment_file,
)
import momentpoly.cli as cli_module
from momentpoly.cli import build_parser
from momentpoly.cli import main as cli_main
from momentpoly.recurrence import recurrence_from_dict
from momentpoly.scalars import FLOAT, RATIONAL


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

    def test_invalid_q_exits_one(self):
        assert run_cli("verify-pm", "--q", "1.5", "--rho", "0.3").returncode == 1

    def test_explicit_points(self):
        res = run_cli("verify-pm", "--q", "0.2", "--rho", "0.5",
                      "--points", "0,0;1,-1")
        data = json.loads(res.stdout)
        assert len(data["points"]) == 2
        assert data["max_error"] < 1e-8


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
