"""What each entry point imports, checked in a fresh interpreter: the CLI
loads the expression parser and the OEIS reader only for the commands that
run them, and nothing loads ``dataclasses``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import riordan

SRC = Path(riordan.__file__).resolve().parents[1]
ON_DEMAND = ("dataclasses", "riordan.gfexpr", "riordan.oeis")


def run_python(code, *argv):
    """Run ``code`` in a fresh interpreter; return its exit code and the
    JSON document it prints last on stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60,
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
    show = ("show", "--g", "1/(1-x)", "--f", "x/(1-x)", "--size", "3")
    assert run_python(script, *show) == (
        0, {"dataclasses": False, "riordan.gfexpr": True, "riordan.oeis": False}
    )
    identify = ("identify", "--values", "1,1,2,5,14,42,132", "--oeis", str(oeis_fixture_path))
    assert run_python(script, *identify) == (
        0, {"dataclasses": False, "riordan.gfexpr": False, "riordan.oeis": True}
    )
    prod = ("prod", "--family", "catalan", "--n", "2", "--size", "4", "--json")
    assert run_python(script, *prod) == (0, dict.fromkeys(ON_DEMAND, False))


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
    assert len(riordan.__all__) == 51
