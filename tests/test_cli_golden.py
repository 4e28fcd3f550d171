"""Byte-for-byte CLI output, against a file recorded from an earlier tree.

Each case in ``data/cli_golden.json`` is one in-process ``main`` call with
its exact stdout, stderr and exit code; ``{data}`` in an argument stands for
the directory of the copy of the ``tests/data`` OEIS fixture (``conftest.py``).
A case that differs is an output change, which must be named and justified
before the file is re-recorded.  ``data/cli_help.json`` holds the same for
``riordan -h`` and each ``riordan COMMAND -h``, at 80 columns without colour.
"""

import json
from pathlib import Path

import pytest

from riordan.cli import main

DATA_DIR = Path(__file__).parent / "data"
CASES = json.loads((DATA_DIR / "cli_golden.json").read_text(encoding="utf-8"))
HELP = json.loads((DATA_DIR / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_is_byte_identical(case, capsys, oeis_fixture_path):
    argv = [arg.replace("{data}", str(oeis_fixture_path.parent)) for arg in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


@pytest.mark.parametrize("argv", HELP)
def test_help_is_byte_identical(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.setenv("NO_COLOR", "1")
    with pytest.raises(SystemExit) as done:
        main(argv.split())
    assert done.value.code == 0
    assert capsys.readouterr() == (HELP[argv], "")
