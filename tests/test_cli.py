import errno
import json
import os
import random
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_data as ref
from helpers import frac_rows
from riordan import (
    RiordanElement, RiordanError, TriMatrix, TruncatedSeries, VerificationReport, arrays, cli,
    families, gfexpr, iterate_second_production, pascal, production, series,
)
from riordan.arrays import ExactMatrix
from riordan.cli import main
from riordan.errors import SHOWN_WIDTH, shown


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def as_fractions(entries):
    return tuple(tuple(F(s) for s in row) for row in entries)


CLI = ("-m", "riordan.cli")


def python(*args, start=subprocess.run, **options):
    """``python ARGS`` in a new process that imports the riordan these tests
    import, through ``start``: ``subprocess.run`` or ``subprocess.Popen``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return start([sys.executable, *args], env=env, **options)


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

    @pytest.mark.parametrize(
        "g, char, offset",
        [
            ("x\u00b2", "\u00b2", 1),  # a superscript two, after an ASCII x
            ("\uff58", "\uff58", 0),  # a fullwidth x
            ("\u00e9", "\u00e9", 0),
            ("1+x_\u00e9", "\u00e9", 4),
        ],
    )
    def test_non_ascii_character_exits_2_at_its_offset(self, capsys, g, char, offset):
        code, out, err = run(capsys, "show", "--g", g, "--f", "x", "--size", "3")
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {char!r} (at offset {offset})\n"

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

    def test_literal_past_a_lowered_int_limit_is_an_input_error(self, capsys):
        # under an int/str limit below the grammar's 4300 digits, a literal
        # past it is refused at its offset as input, naming the live limit,
        # not reported as an unprintable result
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            at_limit = run(capsys, "show", "--g", "7" * 640, "--f", "x", "--size", "2")
            past = run(capsys, "show", "--g", "1+" + "7" * 1000, "--f", "x", "--size", "2")
        finally:
            sys.set_int_max_str_digits(limit)
        assert at_limit[0] == 0 and at_limit[1].startswith("7" * 640)
        assert past == (2, "", "error: integer literal has more than 640 digits (at offset 2)\n")

    def test_exponent_tower_exits_2(self, capsys):
        # each step of a tower meets the coefficient budget, and one past it
        # is refused at its offset; a tower inside it folds, and its power
        # is bounded like every other
        budget = (
            "error: a coefficient needs more than 57140 bits (about 17200 digits), "
            "the most a result may hold (at offset {})\n"
        )
        for g, f, pos in (
            ("1", "x^2^2^2^2^2^2", 4),
            ("1", "x^9^9^9", 2),
            ("(1+x)^2^57000", "x", 5),
        ):
            code, out, err = run(capsys, "show", "--g", g, "--f", f, "--size", "40")
            assert code == 2 and out == ""
            assert err == budget.format(pos)
        code, out, _ = run(capsys, "show", "--g", "1+x^2^100", "--f", "x", "--size", "3")
        assert code == 0 and out == "1  0  0\n0  1  0\n0  0  1\n"

    def test_constant_base_power_exits_2(self, capsys):
        code, out, err = run(
            capsys, "show", "--g", "2^4611686018427387904", "--f", "x", "--size", "3"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: a coefficient needs more than 57140 bits (about 17200 digits), "
            "the most a result may hold (at offset 1)\n"
        )

    def test_entries_over_the_digit_limit_exit_2(self, capsys):
        printing = (
            "error: a result has an integer of more than 4300 digits, the most "
            "this interpreter prints\n"
        )
        budget = (
            "error: a coefficient needs more than 57140 bits (about 17200 digits), "
            "the most a result may hold (at offset 5)\n"
        )
        root = (
            "error: constant term <a number of more than 4300 digits> has no "
            "nonzero rational square root (at offset 0)\n"
        )
        cases = (
            (("show", "--g", "1", "--f", "10^1000*x", "--size", "6"), printing),
            (("show", "--g", "(1/2)^100000", "--f", "x", "--size", "3"), budget),
            (("show", "--g", "3^9100", "--f", "x", "--size", "2"), printing),
            (("show", "--g", "sqrt(10^4000*10^4000*10+x)", "--f", "x"), root),
        )
        for argv, message in cases:
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *extra)
                assert (code, out, err) == (2, "", message)

    def test_a_power_is_bounded_like_a_product(self, capsys):
        _, power, _ = run(capsys, "verify", "--g", "(10^4000)^2", "--f", "x")
        assert power == run(capsys, "verify", "--g", "10^4000*10^4000", "--f", "x")[1]
        assert power == "n=2 size=8: equal\n"

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
        # python -m riordan.cli runs the command and exits with its code; a
        # range of more than 1000 values exits 2 at once
        for argv, code, out in (
            (("show", "--family", "pascal", "--size", "3"), 0, "1  0  0\n1  1  0\n1  2  1\n"),
            (("verify", "--n", "1..1000000000000"), 2, ""),
        ):
            done = python(*CLI, *argv, capture_output=True, text=True, timeout=5)
            assert (done.returncode, done.stdout) == (code, out), argv
            assert bool(done.stderr) == bool(code), argv


class TestProcessExits:
    """``entry_point`` as a process: a closed stdout and Ctrl-C end the
    command with the shell's codes and no traceback."""

    @staticmethod
    def start(*argv):
        return python(
            *CLI, *argv, start=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            # as from a terminal, whatever the test runner inherited
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )

    @staticmethod
    def finish(proc):
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        return proc.returncode, err.decode()

    def test_closed_stdout_exits_141(self):
        # about 3 MB of output, far past a pipe's buffer
        proc = self.start("show", "--family", "catalan", "--size", "200")
        assert proc.stdout.readline().split()[:3] == [b"1", b"0", b"0"]
        proc.stdout.close()
        code, err = self.finish(proc)
        assert code == 141
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_interrupt_exits_130(self):
        # about a minute of work; the interrupt comes after about a second
        proc = self.start("family", "catalan", "--size", "1", "--iterate", "997")
        time.sleep(1)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        code, err = self.finish(proc)
        assert code == 130
        assert "Traceback" not in err and "Exception ignored" not in err


def verdicts(first, last, size):
    """``verify``'s text output when every n of first..last is equal at ``size``."""
    return "".join(f"n={n} size={size}: equal\n" for n in range(first, last + 1))


def prints(out, err=""):
    """The check of a row whose stdout and stderr are exactly ``out`` and ``err``."""
    return lambda got_out, got_err: (got_out, got_err) == (out, err)


def prints_lines(count):
    """The check of a row with a large output: ``count`` lines and no error."""
    return lambda out, err: (out.count("\n"), err) == (count, "")


def finds_catalan_skipping_one(out, err):
    """The check of a lookup that finds A000108 and skips one malformed line."""
    return out == "A000108 (offset 0)\n" and err.startswith("warning: skipped 1 malformed line(s) in ")


BUDGET = "error: a coefficient needs more than 57140 bits (about 17200 digits), the most a result may hold"
IDENTIFY = (*CLI, "identify", "--values", "1,1,2,5,14,42,132", "--oeis")


class TestProcesses:
    """Commands run as processes, each within the seconds its row gives: sizes
    and n past the toy range, inputs that must exit 2 at once, large outputs,
    and lookups against a dump on disk.  A row is the process's arguments, its
    exit code, a check of its stdout and stderr, and its seconds.  A new CLI
    check goes here when it needs a process, a time bound or a file;
    otherwise it is a row of ``data/cli_golden.json``."""

    ROWS = {
        # every n >= 2 reads the element only to order size + 1, so neither
        # the closed form nor the production matrix grows with n
        "prod --n 990": (
            (*CLI, "prod", "--family", "catalan", "--n", "990", "--size", "2"), 0,
            lambda out, err: (out.split(), err) == (["990", "1", str(990 * 991 // 2), "990"], ""), 5,
        ),
        # the raw step-1 block builds only the size columns it reads, not the
        # size + n of the element's whole matrix
        "production_block n 990": (
            ("-c", "from riordan import catalan_array, production_block; "
             "production_block(catalan_array(991), 990, 2)"),
            0, prints(""), 10,
        ),
        "verify --n 2..990": (
            (*CLI, "verify", "--family", "catalan", "--n", "2..990", "--size", "2"), 0,
            prints(verdicts(2, 990, 2)), 5,
        ),
        "verify --n 1000000": (
            (*CLI, "verify", "--family", "catalan", "--n", "1000000", "--size", "16"), 0,
            prints(verdicts(10**6, 10**6, 16)), 5,
        ),
        "verify --n 2..400": (
            (*CLI, "verify", "--family", "catalan", "--n", "2..400", "--size", "16"), 0,
            prints(verdicts(2, 400, 16)), 10,
        ),
        "verify moment --n 30..60": (
            (*CLI, "verify", "--family", "moment:1/2", "--n", "30..60", "--size", "24"), 0,
            prints(verdicts(30, 60, 24)), 10,
        ),
        "verify --size 128": (
            (*CLI, "verify", "--family", "catalan", "--n", "2..10", "--size", "128"), 0,
            prints(verdicts(2, 10, 128)), 60,
        ),
        # reversion of a rational, non-normalized f past the toy range
        "verify moment --size 96": (
            (*CLI, "verify", "--family", "moment:1/2", "--n", "2..10", "--size", "96"), 0,
            prints(verdicts(2, 10, 96)), 30,
        ),
        "verify rational --size 96": (
            (*CLI, "verify", "--g", "3/(3-x)", "--f", "2*x/(1-x/5)", "--n", "2..6", "--size", "96"), 0,
            prints(verdicts(2, 6, 96)), 30,
        ),
        # a rational, non-normalized A/Z solve on the element's integer rows
        "prod rational --size 150": (
            (*CLI, "prod", "--g", "3/(3-x)", "--f", "2*x/(1-x/5)", "--n", "5", "--size", "150"), 0,
            prints_lines(150), 20,
        ),
        # the inverse read off that solve, ((1 - x*Z/A)/g(0), x/A), at order
        # 150, where g(0) = 1 and f'(0) = 2
        "inverse at order 150": (
            ("-c", "import sys; from riordan import RiordanElement, evaluate_text as ev; "
             'e = RiordanElement(ev("3/(3-x)", 150), ev("2*x/(1-x/5)", 150)); '
             "sys.exit(e.inverse() * e != RiordanElement.identity(150))"),
            0, prints(""), 20,
        ),
        # composite n on a non-normalized element, through the closed form as
        # the group product (r/x, r) . (g, f)
        "verify composite n": (
            (*CLI, "verify", "--g", "2+x", "--f", "3*x/(1-x)", "--n", "2..12", "--size", "24"), 0,
            prints(verdicts(2, 12, 24)), 10,
        ),
        # a polynomial f: the group product builds no power of f past the
        # outer series' last nonzero term
        "verify polynomial f --size 96": (
            (*CLI, "verify", "--g", "1", "--f", "x+x^2", "--n", "2..8", "--size", "96"), 0,
            prints(verdicts(2, 8, 96)), 10,
        ),
        # the one forward substitution: dense Miller power rows through the
        # closed form, series quotients at order 202, and a rational solve
        "verify Miller powers --size 64": (
            (*CLI, "verify", "--g", "(1+x+2*x^2)^-3", "--f", "x*(1-x/3)^5", "--n", "2..6", "--size", "64"), 0,
            prints(verdicts(2, 6, 64)), 20,
        ),
        "show quotients --size 200": (
            (*CLI, "show", "--g", "(1+2*x)/(1-x-x^2)", "--f", "x*(2-x)/(1-3*x+x^3)", "--size", "200"), 0,
            prints_lines(200), 20,
        ),
        "verify rational --size 48": (
            (*CLI, "verify", "--g", "3/(3-x)", "--f", "2*x/(1-x/5)", "--n", "2..5", "--size", "48"), 0,
            prints(verdicts(2, 5, 48)), 20,
        ),
        # a power, each step of an exponent tower and a family parameter's
        # values are bounded by the coefficient budget before they are computed
        "constant base power": (
            (*CLI, "show", "--g", "2^4611686018427387904", "--f", "x"), 2,
            prints("", f"{BUDGET} (at offset 1)\n"), 5,
        ),
        "exponent tower": (
            (*CLI, "show", "--g", "1", "--f", "x^9^9^9", "--size", "3"), 2,
            prints("", f"{BUDGET} (at offset 2)\n"), 5,
        ),
        "family parameter past the budget": (
            (*CLI, "family", "binomial:1e4300", "--size", "40"), 2,
            prints("", f"{BUDGET}\n"), 5,
        ),
        # a typed integer of more than 4300 digits names its place and the
        # limit, with no advice to call sys.set_int_max_str_digits, which a
        # CLI user cannot do
        "wide family parameter": (
            (*CLI, "family", "binomial:" + "7" * 5000, "--size", "2"), 2,
            prints("", "error: a run of digits in the parameter of family 'binomial' has more than 4300 digits\n"), 5,
        ),
        "wide --size": (
            (*CLI, "show", "--family", "catalan", "--size", "7" * 5000), 2,
            lambda out, err: out == "" and err.endswith(
                "riordan show: error: argument --size: the value has more than 4300 digits\n"
            ) and "set_int_max_str_digits" not in err, 5,
        ),
        # a valid --size or --iterate past the order ceiling: a short line that
        # names the option and prints neither its value nor the order
        "--size past the order ceiling": (
            (*CLI, "show", "--family", "catalan", "--size", "9" * 4299), 2,
            prints("", "error: --size must be at most 998\n"), 5,
        ),
        "--iterate past the order ceiling": (
            (*CLI, "family", "catalan", "--size", "5", "--iterate", "9" * 4299), 2,
            prints("", "error: --size plus --iterate must be at most 998\n"), 5,
        ),
        # lookups against a copy of the fixture dump, a CRLF copy with one
        # malformed line, and a CR-only copy with one more line that holds a
        # form feed, which str.splitlines would take for a line end and the
        # reader does not
        "identify on a copy": (
            (*IDENTIFY, "{dump}"), 0, prints("A000108 (offset 0)\n"), 60,
        ),
        "identify finds nothing": (
            (*CLI, "identify", "--values", "9,9,9,9,9,9", "--oeis", "{dump}"), 0,
            prints("no matches\n"), 60,
        ),
        "identify on a CRLF copy": ((*IDENTIFY, "{crlf}"), 0, finds_catalan_skipping_one, 60),
        "identify on a CR copy": ((*IDENTIFY, "{cr}"), 0, finds_catalan_skipping_one, 60),
    }
    # the dumps a row may name among its arguments, each made from the
    # fixture dump's bytes; a malformed line is no record, so the A-numbers
    # of each increase and a lookup writes its sidecar
    DUMPS = {
        "{dump}": lambda data: data,
        "{crlf}": lambda data: data.replace(b"\n", b"\r\n") + b"A000045 1,2,3\r\n",
        "{cr}": lambda data: data.replace(b"\n", b"\r") + b"A900000 ,1,1,2,5,\f14,42,132,\r",
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_exit_and_output(self, row, tmp_path, oeis_fixture_path):
        args, code, check, seconds = self.ROWS[row]
        dump = next((name for name in self.DUMPS if name in args), None)
        if dump is not None:
            path = tmp_path / "dump.txt"
            path.write_bytes(self.DUMPS[dump](oeis_fixture_path.read_bytes()))
            args = [str(path) if arg == dump else arg for arg in args]
        done = python(*args, capture_output=True, text=True, timeout=seconds)
        assert done.returncode == code, done.stderr[-2000:]
        assert check(done.stdout, done.stderr), (done.stdout[-2000:], done.stderr[-2000:])
        if dump is not None:
            # the second lookup trusts the sidecar that the first wrote, which
            # it leaves as it is, and prints the same bytes
            side = path.with_name(path.name + ".riordan-index")
            written = side.stat().st_ino
            again = python(*args, capture_output=True, text=True, timeout=seconds)
            assert (again.returncode, again.stdout, again.stderr) == (code, done.stdout, done.stderr)
            assert side.stat().st_ino == written


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

    @staticmethod
    def built_sizes(monkeypatch):
        # the size of every element matrix built, each by one series._powers
        # call in riordan.arrays: in RiordanElement.matrix and in the A/Z
        # solve; and of every exact matrix made, TriMatrix and
        # ProductionMatrix alike
        built, made = [], []
        powers, init = series._powers, ExactMatrix.__init__

        def recording_powers(g, b, count):
            built.append(len(g))
            return powers(g, b, count)

        def recording_init(matrix, rows):
            init(matrix, rows)
            made.append(matrix.size)

        monkeypatch.setattr(arrays, "_powers", recording_powers)
        monkeypatch.setattr(ExactMatrix, "__init__", recording_init)
        return built, made

    def test_one_element_matrix_per_command(self, capsys, monkeypatch):
        # the element's matrix is built once, at size + 2, as the integer
        # rows of the A- and Z-series that serve every n, and each n builds
        # its closed form's matrix at size; no matrix is made past size
        built, made = self.built_sizes(monkeypatch)
        code, out, _ = run(capsys, "verify", "--family", "catalan", "--n", "2..5", "--size", "8")
        assert code == 0 and out.count(": equal") == 4
        assert sorted(built) == [8] * 4 + [10]
        assert made and max(made) == 8
        for n in ("1", "3"):
            del built[:], made[:]
            code, _, _ = run(capsys, "prod", "--family", "catalan", "--n", n, "--size", "8")
            assert code == 0 and built == [10] and made == [8], n

    def test_element_matrix_is_built_once_and_cached(self, capsys, monkeypatch):
        # whatever the range: one element matrix at size + 2, and a closed
        # form's matrix at size for each n
        built, made = self.built_sizes(monkeypatch)
        for first, last in ((1, 5), (2, 5), (1, 1), (20, 40), (10**6, 10**6)):
            del built[:], made[:]
            argv = ("--family", "moment:1/2", "--n", f"{first}..{last}", "--size", "24")
            code, out, _ = run(capsys, "verify", *argv)
            reports = last - first + 1
            assert code == 0 and out.count(": equal") == reports, argv
            assert sorted(built) == [24] * reports + [26], argv
            assert max(made) == 24, argv

    def test_warm_up_past_size_plus_one_builds_only_the_leading_block(
        self, capsys, monkeypatch
    ):
        # every n of 30..60 is past size + 1 = 25: the element's matrix is
        # built once, at size + 2 for its A- and Z-series, never at
        # size + n - 1, and each n builds one closed-form matrix at size
        built, made = self.built_sizes(monkeypatch)
        argv = ("--family", "moment:1/2", "--n", "30..60", "--size", "24")
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and out.count(": equal") == 31
        assert sorted(built) == [24] * 31 + [26]
        assert max(made) == 24

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
            produced=TriMatrix([[1], [1, 1]]),
            closed_form=TriMatrix([[1], [2, 1]]),
            equal=False,
            first_mismatch=(1, 0),
        )
        monkeypatch.setattr(
            "riordan.cli.verify_nth_conjecture", lambda e, n, size: fake
        )
        code, out, _ = run(capsys, "verify", "--family", "pascal", "--n", "2")
        assert code == 1
        assert "MISMATCH at (1, 0)" in out
        assert out == fake.to_text() + "\n"

    def test_mismatch_line_names_a_scale_other_than_one(self, capsys, monkeypatch):
        fake = VerificationReport(
            element=pascal(4),
            n=2,
            size=2,
            produced=TriMatrix([[1], [1, 1]]),
            closed_form=TriMatrix([[2], [3, 2]]),
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
        assert out == fake.to_text() + "\n"


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

    def test_unreadable_dump_names_its_path_once(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, "identify", "--values", "1,1,2,5,14,42", "--oeis", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read OEIS dump {path}: {os.strerror(errno.ENOENT)}\n"

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

    @pytest.mark.parametrize(
        "values, term",
        [
            ("1_0,1,2,5,14,42,132", "'1_0'"),  # int() reads 10
            ("\u0661,1,2,5,14,42,132", "'\u0661'"),  # an Arabic-Indic digit one
            ("1,1,2,5,14,42,132,", "''"),
            ("1,1,2,+-5,14,42,132", "'+-5'"),
        ],
    )
    def test_values_terms_are_ascii_integers(
        self, capsys, monkeypatch, oeis_fixture_path, values, term
    ):
        def unexpected(path, values):
            pytest.fail(f"the dump was read for a malformed query: {path}")

        monkeypatch.setattr("riordan.oeis.scan_stripped", unexpected)
        code, out, err = run(capsys, "identify", "--values", values, "--oeis", str(oeis_fixture_path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad --values: {term} is not an integer; expected comma-separated integers\n"
        )

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

    # the polynomial rows print exactly when the production matrix is a
    # Jacobi matrix at the printed size: zero below the subdiagonal, nonzero on it
    @pytest.mark.parametrize("name", ["pascal", "binomial:3", "catalan", "a085478", "moment:0"])
    def test_size_1_prints_the_single_row_1(self, capsys, name):
        code, out, err = run(capsys, "family", name, "--size", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] + lines[3:] == ["1", "production matrix:", "orthogonal polynomial coefficient rows:", "1"]
        code, doc, _ = run_json(capsys, "family", name, "--size", "1")
        assert (code, doc["polynomial_rows"]) == (0, [["1"]])

    def test_catalan_prints_rows_at_size_2_only(self, capsys):
        code, out, _ = run(capsys, "family", "catalan", "--size", "2")
        assert code == 0
        assert out.endswith("orthogonal polynomial coefficient rows:\n1\n-1  1\n")
        for size in ("3", "5"):
            code, doc, _ = run_json(capsys, "family", "catalan", "--size", size)
            assert code == 0 and "polynomial_rows" not in doc

    @pytest.mark.parametrize("name", ["pascal", "binomial:3", "a085478", "moment:0"])
    def test_no_rows_past_size_1(self, capsys, name):
        # P[1, 0] = Z(1) is 0: for binomial:r Z is the constant r, and
        # moment:0 is the identity, whose lambda = r^2 is 0
        for size in ("2", "6"):
            code, out, _ = run(capsys, "family", name, "--size", size)
            assert code == 0 and "orthogonal" not in out
            code, doc, _ = run_json(capsys, "family", name, "--size", size)
            assert code == 0 and "polynomial_rows" not in doc

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

    def test_chain_inverses_match_each_stage_inverse(self, battery, non_normalized):
        # family --iterate takes each later stage's inverse from the one
        # before, by the group law, not by an A/Z solve of the stage
        for e in battery + non_normalized:
            inv = e.inverse()
            for stage in iterate_second_production(e, 6):
                expected = stage.inverse()
                assert inv.g.coefficients == expected.g.coefficients
                assert inv.f.coefficients == expected.f.coefficients
                identity = RiordanElement.identity(stage.order)
                product = stage * inv
                assert (product.g.coefficients, product.f.coefficients) == (
                    identity.g.coefficients, identity.f.coefficients
                )
                inv = production._second_closed_form_inverse(inv)

    def test_iterate_inverts_once(self, capsys, monkeypatch):
        calls = 0
        inverse = RiordanElement.inverse

        def counted(self):
            nonlocal calls
            calls += 1
            return inverse(self)

        monkeypatch.setattr(RiordanElement, "inverse", counted)
        code, _, err = run(capsys, "family", "moment:1/2", "--size", "8", "--iterate", "5")
        assert (code, err, calls) == (0, "", 1)

    @pytest.mark.parametrize("iterate, reversions", [(None, 0), (0, 0), (3, 3)])
    def test_iterate_reverts_once_per_closed_form(
        self, capsys, monkeypatch, iterate, reversions
    ):
        # each stage past the first comes from a closed form, which reverts
        # once; the inverses come from the first stage's A/Z solve, which
        # reverts nothing
        calls = 0
        revert = TruncatedSeries.revert

        def counted(self):
            nonlocal calls
            calls += 1
            return revert(self)

        monkeypatch.setattr(TruncatedSeries, "revert", counted)
        steps = () if iterate is None else ("--iterate", str(iterate))
        code, _, err = run(capsys, "family", "moment:1/2", *steps)
        assert (code, err, calls) == (0, "", reversions)

    @pytest.mark.parametrize("name", ["catalan", "moment:1/2", "binomial:3"])
    @pytest.mark.parametrize("iterate", [None, 0, 1, 4])
    def test_family_runs_one_az_solve(self, capsys, monkeypatch, name, iterate):
        # the first inverse solves for A and Z at the element's order, and
        # the production matrix reads the same solve
        calls = 0
        block = arrays._block

        def counted(*args):
            nonlocal calls
            calls += 1
            return block(*args)

        monkeypatch.setattr(arrays, "_block", counted)
        monkeypatch.setattr(production, "_block", counted)
        steps = () if iterate is None else ("--iterate", str(iterate))
        code, _, err = run(capsys, "family", name, "--size", "6", *steps)
        assert (code, err, calls) == (0, "", 1)

    def test_family_parses_its_parameter_once(self, capsys, monkeypatch):
        parse = families.family_parameter
        calls = 0

        def counted(name, param):
            nonlocal calls
            calls += 1
            return parse(name, param)

        # counted in cli too, should the command ever parse it there itself
        monkeypatch.setattr(families, "family_parameter", counted)
        monkeypatch.setattr(cli, "family_parameter", counted, raising=False)
        code, _, err = run(capsys, "family", "moment:1/2", "--size", "4")
        assert (code, err, calls) == (0, "", 1)

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "nosuch")
        assert code == 2
        assert "pascal" in err

    def test_bare_colon_exits_2(self, capsys):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "family", "pascal:", "--size", "2", *extra)
            assert (code, out, err) == (2, "", "error: family 'pascal' takes no parameter\n")

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
        # c(rx) scales c's terms by r^k, each checked as it is built
        (("family", "moment:1e4299", "--size", "40"), BUDGET),
        (("show", "--g", "1/(1-10^4299*x)", "--f", "x", "--size", "40"), BUDGET),
        (("verify", "--family", "binomial:1e4299", "--n", "1..3", "--size", "40"), BUDGET),
        # refused inside the integer rows of the A/Z solve at size 10
        (("prod", "--g", "1", "--f", "10^3000*x", "--size", "8"), BUDGET),
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
            def wrapper(text, order, *rest):
                orders.append(order)
                return function(text, order, *rest)
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
        # only a nonzero --iterate enters the order, so only then does the
        # message name it
        both = "--size plus --iterate"
        for argv, options in (
            (("family", "catalan", "--size", "3", "--iterate", "100000000"), both),
            (("family", "catalan", "--size", "998", "--iterate", "1"), both),
            (("family", "catalan", "--size", "999"), "--size"),
            (("family", "catalan", "--size", "999", "--iterate", "0"), "--size"),
            (("show", "--g", "1", "--f", "x", "--size", "100000000"), "--size"),
            # --n does not enter the order: size 998 is the largest for any n
            (("prod", "--family", "catalan", "--size", "999"), "--size"),
            (("verify", "--family", "catalan", "--size", "999", "--n", "600"), "--size"),
            (("identify", "--family", "catalan", "--size", "999", "--oeis", "-"), "--size"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err == f"error: {options} must be at most {cli.MAX_ORDER - 2}\n", argv

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

    @pytest.mark.parametrize(
        "g, size, message",
        [
            # 117 bytes; each level nearly doubles the working order, and
            # unbounded this took 5.7 s in process (Python 3.11, a shared
            # 2-CPU host)
            (
                "1+x^589815/x^294912/x^147456/x^73728/x^36864/x^18432/x^9216/x^4608"
                "/x^2304/x^1152/x^576/x^288/x^144/x^72/x^36/x^18/x^9",
                "8",
                "dividing by x^576 needs working order 1153, more than 1000 past "
                "the order asked for (at offset 80)",
            ),
            # 481 bytes; unbounded, quadratic in the number of levels
            (
                "1" + "/x^999" * 80,
                "998",
                "dividing by x^999 needs working order 2998, more than 1000 past "
                "the order asked for (at offset 469)",
            ),
        ],
    )
    def test_shifted_divisions_stop_at_the_ceiling(self, capsys, g, size, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "show", "--g", g, "--f", "x", "--size", size)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_n_with_entries_past_the_budget_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "prod", "--family", "catalan", "--n", str(10**4000), "--size", "8"
        )
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: a coefficient needs more than")


class TestIntegerOptions:
    """Every integer the CLI reads follows the rule of --values' terms,
    [+-]?[0-9]+: int() and Fraction() alone read "1_0" as 10 and a non-ASCII
    digit as its value."""

    TEXTS = ["1_0", "\u0663", " 3"]  # "\u0663" is an Arabic-Indic digit three

    @pytest.mark.parametrize("text", TEXTS)
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("show", "--family", "catalan", "--size"), "--size"),
            (("prod", "--family", "catalan", "--n"), "--n"),
            (("family", "catalan", "--iterate"), "--iterate"),
        ],
    )
    def test_typed_options_exit_2(self, capsys, argv, option, text):
        with pytest.raises(SystemExit) as exited:
            main([*argv, text])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", [*TEXTS, "2..1_0", "\u0662..3"])
    def test_verify_n_exits_2(self, capsys, text):
        code, out, err = run(capsys, "verify", "--family", "catalan", "--n", text, "--size", "3")
        assert (code, out) == (2, "")
        assert err == f"error: bad --n value {text!r}: use a single integer or a range like 2..4\n"

    @pytest.mark.parametrize(
        "spec",
        [
            "binomial:1_0",
            "moment:\u0662",
            "binomial:1/\u0663",
            "moment:\u0661",
            # Fraction() alone strips surrounding whitespace
            "binomial: 2",
            "binomial:2 ",
            "binomial:1/-2",
            "binomial:1/2e3",
            # Fraction() alone names no cause: Fraction(1, 0)
            "binomial:1/0",
            "moment:0/0",
        ],
    )
    def test_family_parameter_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "family", spec, "--size", "3")
        assert (code, out) == (2, "")
        name, _, param = spec.partition(":")
        why = "it must be an ASCII integer, p/q or decimal, without '_' or spaces"
        if param.endswith("/0"):
            why = "its denominator is zero"
        assert err == f"error: bad parameter {param!r} for family '{name}': {why}\n"

    def test_signed_ascii_integers_still_run(self, capsys):
        assert run(capsys, "show", "--family", "pascal", "--size", "+3")[:2] == (
            0, "1  0  0\n1  1  0\n1  2  1\n",
        )
        code, out, _ = run(capsys, "verify", "--family", "catalan", "--n", "+2..03", "--size", "3")
        assert (code, out) == (0, "n=2 size=3: equal\nn=3 size=3: equal\n")

    # each place a typed integer is read: the command, with "{}" for the
    # integer; the integer, written wider with zeros by ``pad``; and the
    # refusal of one digit past the limit, with "{}" for the limit
    PARAMETER = "a run of digits in the parameter of family '{}' has more than {{}} digits"
    WIDTH_SITES = {
        "--size": (
            ("show", "--family", "pascal", "--size", "{}"), "3", str.rjust,
            "argument --size: the value has more than {} digits",
        ),
        "prod --n": (
            ("prod", "--family", "catalan", "--size", "3", "--n", "{}"), "2", str.rjust,
            "argument --n: the value has more than {} digits",
        ),
        "--iterate": (
            ("family", "catalan", "--size", "3", "--iterate", "{}"), "1", str.rjust,
            "argument --iterate: the value has more than {} digits",
        ),
        "verify --n": (
            ("verify", "--family", "catalan", "--size", "3", "--n", "{}"), "2", str.rjust,
            "--n has more than {} digits",
        ),
        "first end": (
            ("verify", "--family", "catalan", "--size", "3", "--n", "{}..3"), "2", str.rjust,
            "the first end of --n has more than {} digits",
        ),
        "last end": (
            ("verify", "--family", "catalan", "--size", "3", "--n", "2..{}"), "3", str.rjust,
            "the last end of --n has more than {} digits",
        ),
        "--values": (
            ("identify", "--values", "1,1,2,5,14,{}", "--oeis", "DUMP"), "42", str.rjust,
            "bad --values: a term has more than {} digits; expected comma-separated integers",
        ),
        "integer": (("family", "binomial:{}", "--size", "3"), "2", str.rjust, PARAMETER.format("binomial")),
        "p": (("family", "binomial:-{}/2", "--size", "3"), "3", str.rjust, PARAMETER.format("binomial")),
        "q": (("family", "binomial:1/{}", "--size", "3"), "2", str.rjust, PARAMETER.format("binomial")),
        "whole digits": (
            ("family", "binomial:{}.5e-1", "--size", "3"), "1", str.rjust, PARAMETER.format("binomial"),
        ),
        "fraction digits": (("family", "moment:.{}", "--size", "3"), "5", str.ljust, PARAMETER.format("moment")),
        "literal": (
            ("show", "--g", "{}", "--f", "x", "--size", "3"), "1", str.rjust,
            "integer literal has more than {} digits (at offset 0)",
        ),
    }

    @pytest.mark.parametrize("limit", [None, 640, 0], ids=["default", "640", "no-int-limit"])
    @pytest.mark.parametrize("site", WIDTH_SITES)
    def test_width_rule_at_every_site(self, capsys, oeis_fixture_path, site, limit):
        # every typed integer reads up to 4300 digits, or the interpreter's
        # int/str limit when it is lower, leading zeros included; one digit
        # more is refused, naming its place and the limit but not the digits.
        # With no int/str limit a family parameter is refused like a literal
        argv, value, pad, refusal = self.WIDTH_SITES[site]

        def outcome(integer):
            line = [arg.format(integer).replace("DUMP", str(oeis_fixture_path)) for arg in argv]
            try:
                code = main(line)
            except SystemExit as exited:  # argparse refuses its options
                code = exited.code
            return (code, *capsys.readouterr())

        saved = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            width = limit or 4300
            plain, at_limit, past = (outcome(pad(value, n, "0")) for n in (1, width, width + 1))
        finally:
            sys.set_int_max_str_digits(saved)
        assert plain[0] == 0 and at_limit == plain
        code, out, err = past
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {refusal.format(width)}\n")
        assert "0" * 20 not in err


class TestLongInput:
    """An error line shows what a user typed through ``errors.shown``: a text
    of more than ``SHOWN_WIDTH`` characters is cut there and followed by its
    length, so a 5000-character value, option, command or path prints a short
    line that still names its option or place."""

    NINES, LETTERS = "9" * 5000 + "x", "a" * 5000
    DUMP = ("identify", "--values", "1,1,2,5,14,42", "--oeis", "/" + LETTERS)
    # the command, its exit code, and what its error line names
    SITES = {
        "verify --n": (("verify", "--family", "catalan", "--n", NINES, "--size", "3"), 2, "bad --n value '999"),
        "show --size": (("show", "--family", "catalan", "--size", NINES), 2, "argument --size: invalid int"),
        "prod --n": (("prod", "--family", "catalan", "--n", NINES), 2, "argument --n: invalid int"),
        "family --iterate": (("family", "catalan", "--iterate", NINES), 2, "argument --iterate: invalid int"),
        "verify --n range": (
            ("verify", "--family", "catalan", "--n", "5.." + "9" * 4000), 2, "bad --n range '5..999",
        ),
        "family parameter": (("family", "binomial:1e" + "9" * 5000), 2, "bad parameter '1e999"),
        "family name": (("family", LETTERS), 2, "unknown family 'aaa"),
        "identifier": (("show", "--g", LETTERS, "--f", "x"), 2, "unknown identifier 'aaa"),
        "--values": (
            ("identify", "--values", "1,2,3,4,5," + NINES, "--oeis", "/dev/null"), 2, "bad --values: '999",
        ),
        "command": ((LETTERS,), 2, "argument command: invalid choice: 'aaa"),
        "option": (("show", "--family", "catalan", "--" + LETTERS), 2, "unrecognized arguments: --aaa"),
        "argument": (("show", "--family", "catalan", "extra" + LETTERS), 2, "unrecognized arguments: extraaaa"),
        "option value": (("show", "--json=" + LETTERS), 2, "argument --json: ignored explicit argument 'aaa"),
        "short option value": (("show", "-h" + LETTERS), 2, "riordan show: error: "),
        "dump read error": (DUMP, 2, "cannot read OEIS dump /aaa"),
        "skipped lines": (DUMP, 0, "warning: skipped 1 malformed line(s) in /aaa"),
        # valid integers whose truncation order is past the limit: the line
        # names the options and prints neither them nor the order
        "show --size order": (("show", "--family", "catalan", "--size", "9" * 4299), 2, "error: --size must be"),
        "show --size order past the int/str limit": (
            ("show", "--family", "catalan", "--size", "9" * 4300), 2, "error: --size must be",
        ),
        "family --iterate order": (
            ("family", "catalan", "--size", "5", "--iterate", "9" * 4299), 2, "error: --size plus --iterate must be",
        ),
    }
    # sites that show no typed text, only the option to lower
    PAST_ORDER_LIMIT = {"show --size order", "show --size order past the int/str limit", "family --iterate order"}
    # sites whose line shows one whole typed text, cut once and counted whole,
    # with what argparse says after it
    CUT_ONCE = {
        "command": "... (5000 characters) (choose from ",
        "argument": "... (5005 characters)",
        "option value": "... (5000 characters)",
        "dump read error": "... (5001 characters): ",
    }

    @pytest.mark.parametrize("site", SITES)
    def test_error_line_is_cut(self, capsys, monkeypatch, site):
        argv, want, place = self.SITES[site]
        if site == "skipped lines":  # no file system opens a 5000-character path
            monkeypatch.setattr("riordan.oeis.scan_stripped", lambda path, values: ([], 1))
        try:
            code = main(list(argv))
        except SystemExit as exited:  # argparse's own refusals
            code = exited.code
        out, err = capsys.readouterr()
        assert code == want and out == ("no matches\n" if want == 0 else "")
        assert len(err.encode()) <= 512 and place in err
        if site in self.PAST_ORDER_LIMIT:
            assert len(err.encode()) < 300 and err.count("\n") == 1 and "characters)" not in err
        else:
            assert "characters)" in err
        assert "a" * (SHOWN_WIDTH + 1) not in err and "9" * (SHOWN_WIDTH + 1) not in err
        if site in self.CUT_ONCE:
            assert err.count("characters)") == err.count(self.CUT_ONCE[site]) == 1, err

    def test_shown_cuts_past_the_width(self):
        text = "7" * SHOWN_WIDTH
        assert (shown(text), shown(text, repr), shown(int(text))) == (text, repr(text), text)
        assert shown(text + "x") == f"{text}... ({SHOWN_WIDTH + 1} characters)"
        assert shown(text + "x", repr) == f"{text!r}... ({SHOWN_WIDTH + 1} characters)"
        assert shown(10**SHOWN_WIDTH) == f"1{'0' * (SHOWN_WIDTH - 1)}... ({SHOWN_WIDTH + 1} characters)"
        assert shown(10**5000) == f"<a number of more than {sys.get_int_max_str_digits()} digits>"


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
