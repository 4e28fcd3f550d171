"""Byte-for-byte CLI output, against a file recorded from an earlier tree.

Each case in ``data/cli_golden.json`` is one in-process ``main`` call with
its exact stdout, stderr and exit code; ``{data}`` in an argument stands for
the ``tests/data`` directory.  A case that differs is an output change, which
must be named and justified before the file is re-recorded.
"""

import json
from pathlib import Path

import pytest

from riordan.cli import main

DATA_DIR = Path(__file__).parent / "data"
CASES = json.loads((DATA_DIR / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_is_byte_identical(case, capsys):
    argv = [arg.replace("{data}", str(DATA_DIR)) for arg in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )
