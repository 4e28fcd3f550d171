"""The docs are checked like the code: the README's Python example runs and
states true values, each ``riordan`` line of its command examples exits 0,
its exit codes are the CLI's, every test or test class that ``README.md``
or ``docs/derivation.md`` cites exists under ``tests/``, and every name of
the library they cite, ``Class.member``, ``module.name`` or
``riordan.module.name``, resolves."""

import ast
import importlib
import inspect
import re
import shlex
import shutil
from pathlib import Path

import pytest

from riordan import cli
from riordan.cli import OEIS_PATH_ENV, main

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
README = (ROOT / "README.md").read_text(encoding="utf-8")
CITING = ("README.md", "docs/derivation.md")

FENCE = re.compile(r"^```(\w*)\n(.*?)^```", flags=re.M | re.S)
# a test module path, a test class or a test function, each optionally
# followed by ::-separated names, as pytest writes a node id
CITATION = re.compile(r"(?:tests/)?test_\w+\.py(?:::\w+)*|\bTest\w+(?:::\w+)*|\btest_\w+")
DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def fenced(text: str, language: str) -> list[str]:
    """The bodies of the text's fenced code blocks in ``language``."""
    return [body for lang, body in FENCE.findall(text) if lang == language]


def backquoted(text: str) -> list[str]:
    """Every fenced block body and every inline code span of the text."""
    blocks = [body for _, body in FENCE.findall(text)]
    return blocks + re.findall(r"`([^`]+)`", FENCE.sub("", text))


def cited(text: str) -> list[str]:
    return [m.group() for span in backquoted(text) for m in CITATION.finditer(span)]


def dotted(text: str) -> list[str]:
    return [m.group() for span in backquoted(text) for m in DOTTED.finditer(span)]


def defined_tests() -> dict[str, set[str]]:
    """Each test module's file name, with its test classes and functions as
    ``TestX``, ``TestX::test_y``, ``test_y`` (a method too) and ``test_z``."""
    names = {}
    for path in TESTS.glob("test_*.py"):
        found = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods = [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
                found.update([node.name, *methods, *(f"{node.name}::{m}" for m in methods)])
            elif isinstance(node, ast.FunctionDef):
                found.add(node.name)
        names[path.name] = found
    return names


# each riordan line of the command examples, split as the shell splits it
COMMANDS = [
    shlex.split(line, comments=True)
    for body in fenced(README, "sh")
    for line in body.splitlines()
    if line.startswith("riordan ")
]
DEFINED = defined_tests()
CITATIONS = sorted({name for doc in CITING for name in cited((ROOT / doc).read_text(encoding="utf-8"))})
# the library's modules, and the classes each defines, by name
MODULES = {
    path.stem: importlib.import_module(f"riordan.{path.stem}")
    for path in (ROOT / "src" / "riordan").glob("*.py")
    if path.stem != "__init__"
}
CLASSES = {
    name: value
    for module in MODULES.values()
    for name, value in vars(module).items()
    if inspect.isclass(value) and value.__module__ == module.__name__
}
# each dotted name the docs cite that starts at riordan, a module or a class
LIBRARY_NAMES = sorted({
    name
    for doc in CITING
    for name in dotted((ROOT / doc).read_text(encoding="utf-8"))
    if name.partition(".")[0] in {"riordan", *MODULES, *CLASSES}
})


def test_python_example_runs_and_states_true_values():
    checked = 0
    for source in fenced(README, "python"):
        lines = source.splitlines()
        namespace: dict = {}
        for stmt in ast.parse(source).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            try:
                stated = [ast.literal_eval(comment)]
            except (ValueError, SyntaxError):  # a comment in prose states no value
                stated = []
            if isinstance(stmt, ast.Expr) and stated:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert [value] == stated, ast.unparse(stmt)
                checked += 1
            else:
                exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked >= 1


def test_command_examples_cover_every_command():
    assert {argv[1] for argv in COMMANDS} == {"show", "prod", "verify", "identify", "family"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    # the identify examples read stripped.txt in the working directory, or
    # the dump OEIS_STRIPPED_PATH names: both are one copy of the fixture
    # dump, so the sidecar a lookup writes stays out of the checkout
    dump = tmp_path / "stripped.txt"
    shutil.copyfile(TESTS / "data" / "oeis_stripped.txt", dump)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(OEIS_PATH_ENV, str(dump))
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_exit_codes_are_the_cli_constants():
    # the ``- `N`:`` bullets under "### Exit codes", up to the next heading
    section = README.partition("\n### Exit codes\n")[2].partition("\n#")[0]
    listed = sorted(int(code) for code in re.findall(r"^- `(\d+)`:", section, flags=re.M))
    assert listed == sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))


def test_derivation_cites_tests():
    # each step of the derivation names its tests: none found means the
    # scan, not the doc, is broken
    assert cited((ROOT / "docs" / "derivation.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CITATIONS)
def test_cited_test_exists(name):
    first, _, rest = name.partition("::")
    if first.endswith(".py"):
        module = Path(first).name
        assert module in DEFINED, f"no module tests/{module}"
        assert not rest or rest in DEFINED[module], f"no {rest} in tests/{module}"
    else:
        assert any(name in found for found in DEFINED.values()), f"no {name} under tests/"


def test_docs_cite_library_names():
    # none found means the scan, not the docs, is broken
    assert {"ProductionMatrix.orthogonal_rows", "arrays._inverse_pair"} <= set(LIBRARY_NAMES)


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_cited_library_name_resolves(name):
    head, *rest = name.removeprefix("riordan.").split(".")
    assert head in CLASSES or head in MODULES, f"no module or class {head} in riordan"
    value = CLASSES.get(head) or MODULES[head]
    for part in rest:
        assert hasattr(value, part), f"{name}: no {part}"
        value = getattr(value, part)
