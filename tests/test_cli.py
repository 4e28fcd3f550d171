import json
import os
import random
import subprocess
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_data as ref
from helpers import frac_rows
from riordan import RiordanError, TriMatrix, VerificationReport, arrays, cli, gfexpr, pascal
from riordan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def as_fractions(entries):
    return tuple(tuple(F(s) for s in row) for row in entries)


class TestShow:
    def test_pascal_text(self, capsys):
        code, out, _ = run(capsys, "show", "--family", "pascal", "--size", "3")
        assert code == 0
        assert [line.split() for line in out.strip().splitlines()] == [
            ["1", "0", "0"],
            ["1", "1", "0"],
            ["1", "2", "1"],
        ]

    def test_expression_element_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "show", "--g", "1/(1-x)", "--f", "x/(1-x)^2", "--size", "7"
        )
        assert code == 0
        assert as_fractions(doc["matrix"]) == frac_rows(ref.A085478_TRIANGLE_7)

    def test_json_round_trips_exactly(self, capsys):
        code, doc, _ = run_json(
            capsys, "show", "--g", "1/(1-2*x)", "--f", "x/2", "--size", "4"
        )
        assert code == 0
        rebuilt = TriMatrix([[F(s) for s in row] for row in doc["matrix"]])
        assert rebuilt[3, 3] == F(1, 8)
        assert rebuilt[3, 0] == 8

    def test_invalid_element_exits_2(self, capsys):
        code, _, err = run(capsys, "show", "--g", "x", "--f", "x")
        assert code == 2
        assert "error:" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "show", "--g", "1/(1-x", "--f", "x")
        assert code == 2
        assert "offset" in err

    def test_element_spec_is_exclusive(self, capsys):
        code, _, _ = run(capsys, "show", "--family", "pascal", "--g", "x+1", "--f", "x")
        assert code == 2
        code, _, _ = run(capsys, "show", "--g", "1/(1-x)")
        assert code == 2

    def test_overlong_integer_literal_exits_2(self, capsys):
        big = "9" * 5000
        for g, f in ((big, "x"), ("1", f"x^{big}")):
            code, out, err = run(capsys, "show", "--g", g, "--f", f, "--size", "3")
            assert code == 2 and out == ""
            assert err.startswith("error: integer literal has more than")
            assert "Traceback" not in err

    def test_exponent_tower_exits_2(self, capsys):
        code, out, err = run(
            capsys, "show", "--g", "1", "--f", "x^2^2^2^2^2^2", "--size", "3"
        )
        assert code == 2 and out == ""
        assert err == "error: exponent does not fit in 64 bits (at offset 4)\n"

    def test_constant_base_power_exits_2(self, capsys):
        code, out, err = run(
            capsys, "show", "--g", "2^4611686018427387904", "--f", "x", "--size", "3"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: constant term 2 to the power 4611686018427387904 has more "
            "than 4300 digits (at offset 1)\n"
        )

    def test_entries_over_the_digit_limit_exit_2(self, capsys):
        cases = (
            ("show", "--g", "1", "--f", "10^1000*x", "--size", "6"),
            ("show", "--g", "(1/2)^100000", "--f", "x", "--size", "3"),
            ("show", "--g", "3^9100", "--f", "x", "--size", "2"),
        )
        for argv in cases:
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *extra)
                assert code == 2 and out == ""
                assert err.startswith("error: ") and "4300 digits" in err

    def test_deep_nesting_exits_2(self, capsys):
        # too deep for the recursive parser (parentheses) and for the
        # evaluator (a long left-nested sum); one level less still evaluates.
        # The recursion limit is the default 1000 frames counted from here,
        # as for a `riordan` process started from a shell, so the sizes do
        # not depend on how deep the test runner's own stack is.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 1000)
        try:
            for text, ok in (
                ("1+" + "(" * 200 + "x" + ")" * 200, "1+" + "(" * 150 + "x" + ")" * 150),
                ("1" + "+x" * 1000, "1" + "+x" * 900),
            ):
                code, out, err = run(capsys, "show", "--g", text, "--f", "x", "--size", "3")
                assert code == 2 and out == ""
                assert err.startswith("error: expression nests too deeply (at offset ")
                code, _, err = run(capsys, "show", "--g", ok, "--f", "x", "--size", "3")
                assert code == 0 and err == ""
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize(
        "g, size, subdiagonal", [("x^10/x^10", 12, 0), ("(x^6+x^7)/x^6", 5, 1)]
    )
    def test_denominator_zero_to_the_working_order(self, capsys, g, size, subdiagonal):
        # the working order is size + 2: at size 3 both denominators vanish
        # through x^5, at the larger size their leading terms are within it
        code, out, err = run(capsys, "show", "--g", g, "--f", "x", "--size", "3")
        assert code == 2 and out == ""
        assert err.startswith(
            "error: division by a series that is zero up to the working order x^5; "
            "its leading term, if any, lies beyond it (at offset "
        )
        code, out, err = run(capsys, "show", "--g", g, "--f", "x", "--size", str(size))
        assert code == 0 and err == ""
        # g = 1 and g = 1 + x: the identity and a lower-bidiagonal matrix of ones
        expected = [
            [int(i == j) + subdiagonal * int(i == j + 1) for j in range(size)]
            for i in range(size)
        ]
        assert [[int(v) for v in line.split()] for line in out.splitlines()] == expected

    def test_nonpositive_size_exits_2(self, capsys):
        code, _, err = run(capsys, "show", "--family", "pascal", "--size", "0")
        assert code == 2
        assert "--size" in err

    def test_leading_minus_needs_the_equals_form(self, capsys):
        # argparse takes "-x" after "--f" for an option and exits 2 before any
        # expression is parsed; "--f=-x" hands it over as the value
        with pytest.raises(SystemExit) as exit_info:
            main(["show", "--g", "1", "--f", "-x", "--size", "3"])
        assert exit_info.value.code == 2
        assert "argument --f: expected one argument" in capsys.readouterr().err
        code, out, err = run(capsys, "show", "--g", "1", "--f=-x", "--size", "3")
        assert (code, err) == (0, "")
        assert out.split() == ["1", "0", "0", "0", "-1", "0", "0", "0", "1"]

    def test_python_dash_m_runs_the_command(self):
        # python -m riordan.cli runs the command and exits with its code
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for argv, code, out in (
            (("show", "--family", "pascal", "--size", "3"), 0, "1  0  0\n1  1  0\n1  2  1\n"),
            (("verify", "--n", "1..1000000000000"), 2, ""),
        ):
            done = subprocess.run(
                [sys.executable, "-m", "riordan.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (done.returncode, done.stdout) == (code, out), argv
            assert bool(done.stderr) == bool(code), argv


class TestProd:
    def test_catalan_second_production(self, capsys):
        code, doc, _ = run_json(
            capsys, "prod", "--family", "catalan", "--n", "2", "--size", "6"
        )
        assert code == 0
        assert doc["n"] == 2
        assert as_fractions(doc["production_matrix"]) == frac_rows(
            ref.CATALAN_SECOND_PRODUCTION_6
        )

    def test_default_n_is_one(self, capsys):
        code, doc, _ = run_json(capsys, "prod", "--family", "catalan", "--size", "5")
        assert code == 0
        rows = as_fractions(doc["production_matrix"])
        for i in range(5):
            for j in range(min(i + 2, 5)):
                assert rows[i][j] == 1

    def test_expression_third_production(self, capsys):
        code, doc, _ = run_json(
            capsys, "prod", "--g", "1/(1-x)", "--f", "x/(1-x)^2",
            "--n", "3", "--size", "8",
        )
        assert code == 0
        assert as_fractions(doc["production_matrix"]) == frac_rows(
            ref.A085478_THIRD_PRODUCTION_8
        )


class TestVerify:
    def test_catalan_range_all_equal(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "catalan", "--n", "2..4", "--size", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("equal") for line in lines)

    def test_appell_element_range(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--g", "1+x", "--f", "x", "--n", "2..6"
        )
        assert code == 0
        assert doc["all_equal"] is True
        assert [r["n"] for r in doc["reports"]] == [2, 3, 4, 5, 6]

    def test_single_n(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--family", "pascal", "--n", "2", "--size", "6"
        )
        assert code == 0
        assert doc["reports"][0]["equal"] is True

    def test_non_normalized_n1_is_equal(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "2", "--f", "x", "--n", "1", "--size", "3")
        assert code == 0
        assert out == "n=1 size=3: equal\n"

    def test_non_normalized_reports_scale(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--g", "2+x", "--f", "3*x/(1-x)", "--n", "2..5"
        )
        assert code == 0 and doc["all_equal"] is True
        assert [r["scale"] for r in doc["reports"]] == ["6", "18", "54", "162"]
        code, doc, _ = run_json(
            capsys, "verify", "--g", "2/3-x", "--f", "3*x/4+x^2", "--n", "1..3", "--size", "6"
        )
        assert code == 0 and doc["all_equal"] is True
        assert [r["scale"] for r in doc["reports"]] == ["2/3", "1/2", "3/8"]

    def test_one_element_matrix_per_command(self, capsys, monkeypatch):
        # the element's matrix is built once, at size + 2, for the A- and
        # Z-series that serve every n; the other matrices have size 8
        sizes = []
        init = TriMatrix.__init__

        def recording(matrix, rows):
            init(matrix, rows)
            sizes.append(matrix.size)

        monkeypatch.setattr(TriMatrix, "__init__", recording)
        code, out, _ = run(capsys, "verify", "--family", "catalan", "--n", "2..5", "--size", "8")
        assert code == 0 and out.count(": equal") == 4
        assert [s for s in sizes if s > 8] == [10]

    @staticmethod
    def chain_counts(monkeypatch):
        # the size of every matrix built: each build runs one column chain
        counts, chain = [], arrays._chain

        def recording(start, factor, count):
            counts.append(count)
            return chain(start, factor, count)

        monkeypatch.setattr(arrays, "_chain", recording)
        return counts

    def test_element_matrix_is_built_once_and_cached(self, capsys, monkeypatch):
        # whatever the range: one element matrix at size + 2, and a closed
        # form's matrix at size for each n
        counts = self.chain_counts(monkeypatch)
        for first, last in ((1, 5), (2, 5), (1, 1), (20, 40), (10**6, 10**6)):
            counts.clear()
            argv = ("--family", "moment:1/2", "--n", f"{first}..{last}", "--size", "24")
            code, out, _ = run(capsys, "verify", *argv)
            reports = last - first + 1
            assert code == 0 and out.count(": equal") == reports, argv
            assert sorted(counts) == [24] * reports + [26], argv

    def test_warm_up_past_size_plus_one_builds_only_the_leading_block(
        self, capsys, monkeypatch
    ):
        # every n of 30..60 is past size + 1 = 25: the element's matrix is
        # built once, at size + 2 for its A- and Z-series, never at
        # size + n - 1, and each n builds one closed-form matrix at size
        counts = self.chain_counts(monkeypatch)
        argv = ("--family", "moment:1/2", "--n", "30..60", "--size", "24")
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and out.count(": equal") == 31
        assert sorted(counts) == [24] * 31 + [26]

    PRINT_LIMIT = (
        "error: a result has an integer of more than 4300 digits, the most "
        "this interpreter prints\n"
    )

    def test_text_mode_fails_on_no_entry_it_does_not_print(self, capsys):
        # the closed forms hold entries past the print limit, which only the
        # JSON document prints
        for argv, verdicts in (
            (
                ("--f", "x/7^2000", "--n", "2..3", "--size", "3"),
                ["n=2 size=3: equal", "n=3 size=3: equal"],
            ),
            (("--f", "10^1000*x", "--size", "6"), ["n=2 size=6: equal"]),
        ):
            code, out, err = run(capsys, "verify", "--g", "1", *argv)
            assert (code, out.splitlines(), err) == (0, verdicts, "")
            code, out, err = run(capsys, "verify", "--g", "1", *argv, "--json")
            assert (code, out, err) == (2, "", self.PRINT_LIMIT)

    def test_json_stops_at_the_first_unprintable_report(self, capsys, monkeypatch):
        calls, real = [], cli.verify_nth_conjecture

        def counting(e, n, size):
            calls.append(n)
            return real(e, n, size)

        monkeypatch.setattr(cli, "verify_nth_conjecture", counting)
        argv = ("--g", "1", "--f", "x/7^2000", "--n", "2..3", "--size", "3", "--json")
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err, calls) == (2, "", self.PRINT_LIMIT, [2])

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "pascal", "--n", "4..2")
        assert code == 2
        code, _, _ = run(capsys, "verify", "--family", "pascal", "--n", "x")
        assert code == 2

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        fake = VerificationReport(
            element=pascal(4),
            n=2,
            size=2,
            produced=TriMatrix.from_rows([[1], [1, 1]]),
            closed_form=TriMatrix.from_rows([[1], [2, 1]]),
            equal=False,
            first_mismatch=(1, 0),
        )
        monkeypatch.setattr(
            "riordan.cli.verify_nth_conjecture", lambda e, n, size: fake
        )
        code, out, _ = run(capsys, "verify", "--family", "pascal", "--n", "2")
        assert code == 1
        assert "MISMATCH at (1, 0)" in out

    def test_mismatch_line_names_a_scale_other_than_one(self, capsys, monkeypatch):
        fake = VerificationReport(
            element=pascal(4),
            n=2,
            size=2,
            produced=TriMatrix.from_rows([[1], [1, 1]]),
            closed_form=TriMatrix.from_rows([[2], [3, 2]]),
            equal=False,
            first_mismatch=(1, 0),
            scale=F(2),
        )
        monkeypatch.setattr(
            "riordan.cli.verify_nth_conjecture", lambda e, n, size: fake
        )
        code, out, _ = run(capsys, "verify", "--family", "pascal", "--n", "2")
        assert code == 1
        assert out.startswith(
            "n=2 size=2: MISMATCH at (1, 0): produced=1 closed_form=3 scale=2\n"
        )


class TestIdentify:
    def test_values_lookup(self, capsys, oeis_fixture_path):
        code, doc, _ = run_json(
            capsys, "identify", "--values", "1,1,2,5,14,42,132",
            "--oeis", str(oeis_fixture_path),
        )
        assert code == 0
        assert {"anumber": "A000108", "offset": 0} in doc["matches"]

    def test_family_triangle_lookup(self, capsys, oeis_fixture_path):
        code, doc, _ = run_json(
            capsys, "identify", "--family", "catalan", "--size", "6",
            "--oeis", str(oeis_fixture_path),
        )
        assert code == 0
        assert doc["matches"] == [{"anumber": "A033184", "offset": 0}]

    def test_env_var_resolution(self, capsys, monkeypatch, oeis_fixture_path):
        monkeypatch.setenv("OEIS_STRIPPED_PATH", str(oeis_fixture_path))
        code, doc, _ = run_json(capsys, "identify", "--values", "1,1,2,5,14,42,132")
        assert code == 0
        assert doc["matches"][0]["anumber"] == "A000108"

    def test_missing_dump_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("OEIS_STRIPPED_PATH", raising=False)
        code, _, err = run(capsys, "identify", "--values", "1,1,2,5,14,42,132")
        assert code == 2
        assert "OEIS_STRIPPED_PATH" in err

    def test_short_query_exits_2(self, capsys, oeis_fixture_path):
        code, _, _ = run(
            capsys, "identify", "--values", "1,1", "--oeis", str(oeis_fixture_path)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "query, message",
        [
            (["--values", "1,2,x"], "error: bad --values: "),
            (["--g", "1/(1-", "--f", "x"], "error: unexpected end of input (at offset 5)"),
            (["--values", "1,1"], "error: need at least 6 values"),
            (["--family", "catalan", "--size", "2"], "error: triangle lookup needs size >= 3"),
            (
                ["--family", "moment:1/2", "--size", "4"],
                "error: matrix entry 5/4 is not an integer",
            ),
            (["--values="], "error: bad --values: "),
            (
                ["--values", "1,1,2,5,14,42", "--family", "catalan"],
                "error: give either --values or an element (--family, or --g and "
                "--f), not both\n",
            ),
            (
                ["--values", "1,1,2,5,14," + "7" * 5001],
                "error: bad --values: a term has more than 4300 digits; expected "
                "comma-separated integers\n",
            ),
        ],
    )
    def test_query_checked_before_the_dump_loads(
        self, capsys, monkeypatch, oeis_fixture_path, query, message
    ):
        def unexpected(path, values):
            pytest.fail(f"the dump was read for a malformed query: {path}")

        monkeypatch.setattr("riordan.oeis.scan_stripped", unexpected)
        code, out, err = run(capsys, "identify", *query, "--oeis", str(oeis_fixture_path))
        assert code == 2 and out == ""
        assert err.startswith(message)

    def test_skipped_lines_are_reported_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("A000108 ,1,1,2,5,14,42,132,\nA000001 ,1,+2,3,\n")
        code, out, err = run(
            capsys, "identify", "--values", "1,1,2,5,14,42", "--oeis", str(path)
        )
        assert (code, out) == (0, "A000108 (offset 0)\n")
        assert err == f"warning: skipped 1 malformed line(s) in {path}\n"

    def test_no_match_is_success(self, capsys, oeis_fixture_path):
        code, doc, _ = run_json(
            capsys, "identify", "--values", "9,9,9,9,9,9",
            "--oeis", str(oeis_fixture_path),
        )
        assert code == 0
        assert doc["matches"] == []


class TestFamily:
    def test_moment_family_document(self, capsys):
        code, doc, _ = run_json(capsys, "family", "moment:1", "--size", "6")
        assert code == 0
        rows = as_fractions(doc["matrix"])
        assert rows[1][:2] == (2, 1) and rows[2][:3] == (5, 4, 1)
        prod = as_fractions(doc["production_matrix"])
        assert prod[0][:2] == (2, 1)
        assert prod[1][:3] == (1, 2, 1)
        assert doc["polynomial_rows"][2] == ["3", "-4", "1"]

    def test_moment_text_sections(self, capsys):
        code, out, _ = run(capsys, "family", "moment:1", "--size", "4")
        assert code == 0
        assert "production matrix:" in out
        assert "orthogonal polynomial coefficient rows:" in out

    def test_pascal_iterate_doubles_exponents(self, capsys):
        code, doc, _ = run_json(capsys, "family", "pascal", "--iterate", "3", "--size", "4")
        assert code == 0
        stages = doc["iterates"]
        assert len(stages) == 4
        for j, stage in enumerate(stages):
            # inverse of stage j is (1/(1+x)^(2^j), x/(1+x)^(2^j))
            power = 2**j
            g = stage["inverse_g"]
            assert g[0] == "1" and g[1] == str(-power)

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "nosuch")
        assert code == 2
        assert "pascal" in err

    def test_wide_parameter_exits_2(self, capsys):
        for spec in ("binomial:1e5000", "binomial:1e3000000", "moment:1e-3000000"):
            code, out, err = run(capsys, "family", spec, "--size", "3")
            assert code == 2 and out == ""
            name, _, param = spec.partition(":")
            assert err.startswith(f"error: bad parameter '{param}' for family '{name}'")
        # the polynomial rows parse the parameter the same way
        _, half, _ = run_json(capsys, "family", "moment:1/2", "--size", "4")
        _, decimal, _ = run_json(capsys, "family", "moment:0.5", "--size", "4")
        assert decimal["polynomial_rows"] == half["polynomial_rows"]


class TestCoefficientBudget:
    """Inputs whose coefficients outgrow the budget exit 2 at once; before it
    the first and the last ran 73 s and 4.9 s of big-integer work."""

    BUDGET = (
        "error: a coefficient needs more than 57140 bits (about 17200 digits), "
        "the most a result may hold\n"
    )
    CASES = (
        (("show", "--family", "binomial:1e4299", "--size", "40"), BUDGET),
        (("show", "--g", "1/(1-10^4299*x)", "--f", "x", "--size", "40"), BUDGET),
        (("verify", "--family", "binomial:1e4299", "--n", "1..3", "--size", "40"), BUDGET),
        # entries of P_5 really pass 4300 digits; the print limit stops them
        (
            ("prod", "--g", "1", "--f", "x/(1-10^3000*x)", "--n", "5", "--size", "2"),
            "error: a result has an integer of more than 4300 digits, the most "
            "this interpreter prints\n",
        ),
        # huge rational denominators, drawn by the fuzz generator; verify takes
        # the closed form only to --size, so the wide coefficients that crossed
        # the budget are never built and the print limit stops the JSON instead
        (
            (
                "verify", "--n", "1..3", "--size", "2", "--g=1+x*7",
                f"--f=x*(1+x*(((2*{'7' * 40})-(1+x*8))*(c(x*x)/(3+{'7' * 4300}))))",
                "--json",
            ),
            "error: a result has an integer of more than 4300 digits, the most "
            "this interpreter prints\n",
        ),
    )

    def test_runaway_growth_exits_2_quickly(self, capsys):
        for argv, message in self.CASES:
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            # a wall-clock guard: a regression fails here instead of hanging
            assert time.perf_counter() - start < 2.0, argv[:3]
            assert code == 2 and out == "", argv[:3]
            assert err == message, argv[:3]

    def test_coefficients_no_command_reads_are_not_built(self, capsys):
        # f's coefficient of x^k is 10^(3000(k-1)): past the budget from
        # x^7, but P_n at size 2 reads the element only to order 3
        code, out, err = run(
            capsys, "verify", "--g", "1", "--f", "x/(1-10^3000*x)", "--n", "2..5", "--size", "2"
        )
        assert (code, err) == (0, "")
        assert out == "".join(f"n={n} size=2: equal\n" for n in range(2, 6))


class TestEvaluationOrder:
    """Every element the CLI reads is evaluated to one order, size + 2 (plus
    --iterate for family), whatever --n."""

    @staticmethod
    def recorded_orders(monkeypatch):
        orders = []

        def recording(function):
            def wrapper(text, order):
                orders.append(order)
                return function(text, order)
            return wrapper

        monkeypatch.setattr(gfexpr, "evaluate_text", recording(gfexpr.evaluate_text))
        monkeypatch.setattr(cli, "family_element", recording(cli.family_element))
        return orders

    def test_every_element_command_asks_for_size_plus_two(
        self, capsys, monkeypatch, oeis_fixture_path
    ):
        orders = self.recorded_orders(monkeypatch)
        size = 4
        commands = [("show",), ("identify", "--oeis", str(oeis_fixture_path))]
        for n in (1, 2, size + 1, size + 2, 10**6):
            commands += [("prod", "--n", str(n)), ("verify", "--n", str(n))]
        for command in commands:
            for element in (("--family", "catalan"), ("--g", "1/(1-x)", "--f", "x/(1-x)^2")):
                orders.clear()
                code, _, err = run(capsys, *command, *element, "--size", str(size))
                assert (code, err) == (0, ""), command
                # one family_element call, or one evaluate_text call each for g and f
                assert orders == [size + 2] * (len(element) // 2), command

    def test_family_asks_for_size_plus_iterate_plus_two(self, capsys, monkeypatch):
        orders = self.recorded_orders(monkeypatch)
        for steps in (None, 0, 1, 3):
            orders.clear()
            argv = ("family", "moment:1/2", "--size", "4")
            if steps is not None:
                argv += ("--iterate", str(steps))
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert orders == [4 + (steps or 0) + 2], argv


class TestOrderCeiling:
    def test_orders_above_the_ceiling_exit_2(self, capsys):
        # checked first: without a ceiling the commands below would allocate
        # series of order 10^8 until memory runs out
        with pytest.raises(RiordanError):
            cli._headroom(2, 10**8)
        assert cli._headroom(cli.MAX_ORDER - 2) == cli.MAX_ORDER
        # only family has --iterate, so only family's message names it
        both = "--size or --iterate"
        for argv, order, options in (
            (("family", "catalan", "--size", "3", "--iterate", "100000000"), 100000005, both),
            (("family", "catalan", "--size", "999"), 1001, both),
            (("show", "--g", "1", "--f", "x", "--size", "100000000"), 100000002, "--size"),
            # --n does not enter the order: size 998 is the largest for any n
            (("prod", "--family", "catalan", "--size", "999"), 1001, "--size"),
            (("verify", "--family", "catalan", "--size", "999", "--n", "600"), 1001, "--size"),
            (("identify", "--family", "catalan", "--size", "999", "--oeis", "-"), 1001, "--size"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err == (
                f"error: this needs truncation order {order}, above the limit of "
                f"{cli.MAX_ORDER}; lower {options}\n"
            ), argv

    def test_n_is_not_bounded_by_the_order_ceiling(self, capsys):
        # every n >= 2 reads the element only to order size + 1
        start = time.perf_counter()
        code, out, err = run(
            capsys, "prod", "--family", "catalan", "--n", "100000000", "--size", "2"
        )
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        assert out.split() == ["100000000", "1", str(100000000 * 100000001 // 2), "100000000"]

    def test_n_range_is_capped(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "catalan", "--n", "1..100000000", "--size", "2"
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad --n range '1..100000000': at most {cli.MAX_ORDER} values\n"
        code, _, _ = run(
            capsys, "verify", "--family", "catalan", "--n", f"1..{cli.MAX_ORDER}", "--size", "1"
        )
        assert code == 0

    def test_n_with_entries_past_the_budget_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "prod", "--family", "catalan", "--n", str(10**4000), "--size", "8"
        )
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: a coefficient needs more than")


class TestTextJsonParity:
    def test_show_encodes_identical_matrix(self, capsys):
        code, text_out, _ = run(capsys, "show", "--family", "catalan", "--size", "5")
        assert code == 0
        code, doc, _ = run_json(capsys, "show", "--family", "catalan", "--size", "5")
        assert code == 0
        text_rows = [line.split() for line in text_out.strip().splitlines()]
        assert [[str(F(s)) for s in row] for row in text_rows] == doc["matrix"]


class TestFuzz:
    """Seeded random grammar expressions through show, prod and verify: every
    run ends in exit 0, 1 or 2 and no exception escapes ``main``."""

    RUNS = 200
    WIDE = ("63", str(2**63 - 1), str(2**64), "2^2^2^2^2^2", "4611686018427387904")

    def atom(self, rng):
        roll = rng.random()
        if roll < 0.45:
            return "x"
        if roll < 0.9:
            return str(rng.randint(0, 9))
        return rng.choice(("7" * 40, "7" * 4300, "7" * 4301, "(10^1000)"))

    def expr(self, rng, depth):
        if depth == 0 or rng.random() < 0.25:
            return self.atom(rng)
        kind = rng.randrange(6)
        a = self.expr(rng, depth - 1)
        if kind < 2:
            return f"({a}{rng.choice('+-*/')}{self.expr(rng, depth - 1)})"
        if kind == 2:
            wide = rng.choice(self.WIDE)
            exponent = rng.choice((str(rng.randint(-3, 5)), wide, "-" + wide))
            return f"({a})^{exponent}"
        if kind == 3:
            return rng.choice(("sqrt({})", "sqrt(1+x*{})", "c({})", "c(x*{})")).format(a)
        if kind == 4:
            return f"(-{a})"
        return f"(1+x*{a})"

    def element(self, rng):
        g = rng.choice(("{}", "1+x*{}")).format(self.expr(rng, 3))
        f = rng.choice(("{}", "x/{}", "x*(1+x*{})")).format(self.expr(rng, 3))
        if rng.random() < 0.1:  # a stray character somewhere
            at = rng.randrange(len(f) + 1)
            f = f[:at] + rng.choice("()^*?²") + f[at:]
        return [f"--g={g}", f"--f={f}", "--size", str(rng.randint(1, 6))]

    def test_random_expressions_never_raise(self, capsys):
        rng = random.Random(20261017)
        codes = []
        for _ in range(self.RUNS):
            command = rng.choice(
                (
                    ["show"],
                    ["prod", "--n", str(rng.randint(1, 3))],
                    ["verify", "--n", rng.choice(("1", "2", "1..3"))],
                )
            )
            argv = command + self.element(rng)
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), argv
            assert code != 2 or err.startswith("error: "), argv
            codes.append(code)
        assert codes.count(0) >= self.RUNS // 10  # not all rejected
