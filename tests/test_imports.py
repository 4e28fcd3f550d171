"""What each entry point imports, checked in a fresh interpreter without
``site`` (which may import ``typing`` itself): the CLI loads the expression
parser and the OEIS reader only for the commands that run them, the reader
loads ``hashlib`` only for a dump that can have a sidecar, and nothing loads
``dataclasses`` or ``typing``."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import riordan

SRC = Path(riordan.__file__).resolve().parents[1]
ON_DEMAND = ("dataclasses", "hashlib", "riordan.gfexpr", "riordan.oeis", "typing")


def run_python(code, *argv, stdin=None):
    """Run ``code`` in a fresh interpreter, ``stdin`` piped in; return its
    exit code and the JSON document it prints last on stdout."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        input=stdin, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.stderr == "", done.stderr
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


LOADED = "json.dumps({name: name in sys.modules for name in %r})" % (ON_DEMAND,)


def test_importing_the_cli_loads_no_parser_reader_or_dataclasses():
    code, loaded = run_python(f"import json, sys, riordan.cli; print({LOADED})")
    assert code == 0
    assert loaded == dict.fromkeys(ON_DEMAND, False)


def test_commands_load_what_they_run_on_demand(oeis_fixture_path):
    script = (
        "import json, sys\n"
        "from riordan.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print({LOADED})\n"
        "sys.exit(code)\n"
    )
    none = dict.fromkeys(ON_DEMAND, False)
    show = ("show", "--g", "1/(1-x)", "--f", "x/(1-x)", "--size", "3")
    assert run_python(script, *show) == (0, dict(none, **{"riordan.gfexpr": True}))
    identify = ("identify", "--values", "1,1,2,5,14,42,132", "--oeis", str(oeis_fixture_path))
    assert run_python(script, *identify) == (
        0, dict(none, **{"hashlib": True, "riordan.oeis": True})
    )
    prod = ("prod", "--family", "catalan", "--n", "2", "--size", "4", "--json")
    assert run_python(script, *prod) == (0, none)


def test_a_piped_dump_loads_with_no_hashlib_and_writes_nothing(oeis_fixture_path, tmp_path):
    from riordan import load_stripped

    fifo = tmp_path / "dump"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as out:
            out.write(oeis_fixture_path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    script = (
        "import json, sys\n"
        "from riordan import load_stripped\n"
        "index = load_stripped(sys.argv[1])\n"
        f"loaded = {{name: name in sys.modules for name in {ON_DEMAND!r}}}\n"
        "print(json.dumps([len(index), index.skipped_lines, loaded]))\n"
    )
    code, (*got, loaded) = run_python(script, str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 0
    want = load_stripped(oeis_fixture_path)
    assert got == [len(want), want.skipped_lines] and len(want) > 5
    assert loaded == dict(dict.fromkeys(ON_DEMAND, False), **{"riordan.oeis": True})
    assert os.listdir(tmp_path) == ["dump"]


def test_a_dump_that_cannot_have_a_sidecar_loads_no_hashlib(oeis_fixture_path):
    # piped in, /dev/stdin is a pipe; a shell redirect from a file would make
    # it a regular file, which is hashed for its sidecar
    from riordan.oeis import scan_stripped

    values = [1, 1, 2, 5, 14, 42, 132]
    script = (
        "import json, sys\n"
        "from riordan.oeis import scan_stripped\n"
        f"matches, skipped = scan_stripped('/dev/stdin', {values})\n"
        "found = [[m.anumber, m.offset] for m in matches]\n"
        f"loaded = {{name: name in sys.modules for name in {ON_DEMAND!r}}}\n"
        "print(json.dumps([found, skipped, loaded]))\n"
    )
    matches, skipped = scan_stripped(oeis_fixture_path, values)
    want = [[[m.anumber, m.offset] for m in matches], skipped]
    assert ["A000108", 0] in want[0]
    code, (*got, loaded) = run_python(script, stdin=oeis_fixture_path.read_text())
    assert code == 0
    assert got == want
    assert loaded == dict(dict.fromkeys(ON_DEMAND, False), **{"riordan.oeis": True})


def test_package_names_load_on_first_use():
    code, names = run_python(
        "import json, sys, riordan\n"
        "before = sorted(m for m in sys.modules if m.startswith('riordan.'))\n"
        "listed = set(dir(riordan))\n"
        "namespace = {}\n"
        "exec('from riordan import *', namespace)\n"
        "try:\n"
        "    riordan.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as err:\n"
        "    unknown = str(err)\n"
        "from riordan import arrays\n"
        "print(json.dumps({\n"
        "    'before': before,\n"
        "    'missing_from_dir': sorted(set(riordan.__all__) - listed),\n"
        "    'unbound': [n for n in riordan.__all__ if n not in namespace],\n"
        "    'same_objects': all(namespace[n] is getattr(riordan, n) for n in riordan.__all__),\n"
        "    'unknown': unknown,\n"
        "    'arrays': arrays.__name__,\n"
        "}))"
    )
    assert code == 0
    assert names == {
        "before": [],
        "missing_from_dir": [],
        "unbound": [],
        "same_objects": True,
        "unknown": "module 'riordan' has no attribute 'no_such_name'",
        "arrays": "riordan.arrays",
    }
    assert len(riordan.__all__) == 47
