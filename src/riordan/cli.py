"""Command-line surface: show, prod, verify, identify, family.

Elements are named either by ``--family`` (a name of ``FAMILY_NAMES``) or
by a pair of generating-function expressions ``--g`` and ``--f``, evaluated
to order size + 2 (plus ``--iterate`` for ``family``, at most ``MAX_ORDER``)
so users never manage truncation orders by hand.  ``family`` also prints
the element's orthogonal polynomials, the rows of its inverse matrix, when
its production matrix is a Jacobi matrix at the printed size.
Every integer the CLI reads, typed as an option, a ``--values`` term, a family
parameter or an expression literal, is ASCII ``[+-]?[0-9]+`` of at most 4300
digits, or fewer under a lower int/str limit (``series._read_integer``).

Exit codes: 0 on success (and when ``verify`` finds every instance equal,
up to the closed form's scalar factor), 1 when ``verify`` finds a mismatch,
2 on usage, parse or precision errors; as a process, 130 on Ctrl-C and 141
when stdout is closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from functools import partial
from itertools import accumulate

from .arrays import RiordanElement, rows_to_strings
from .errors import SHOWN_WIDTH, RiordanError, shown
from .families import FAMILY_NAMES, family_element, iterate_second_production
from .production import _second_closed_form_inverse, nth_production_matrix, production_matrix, verify_nth_conjecture
from .series import _MAX_ORDER as MAX_ORDER  # the highest order a command may ask for
from .series import _read_integer

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

DEFAULT_SIZE = 8
OEIS_PATH_ENV = "OEIS_STRIPPED_PATH"


def _integer(text: str) -> int:
    """The argparse type of an integer option, read by ``_read_integer``."""
    try:
        return _read_integer(text, "the value")
    except RiordanError as err:  # argparse would echo the digits
        raise argparse.ArgumentTypeError(str(err)) from err


_integer.__name__ = "int"  # argparse refuses an option as an "invalid int value"


class _Parser(argparse.ArgumentParser):
    """Its error line cuts each typed text in it through ``shown``: argparse
    quotes a typed text, or its value part (--opt=VALUE, -hVALUE), whole.
    The parsers of one command line share ``typed``, the texts last parsed."""

    def __init__(self, *args, typed: list[str] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.typed = [] if typed is None else typed

    def add_subparsers(self, **kwargs):
        return super().add_subparsers(parser_class=partial(_Parser, typed=self.typed), **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self.typed[:] = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        parts = {p for t in self.typed for p in (t, t.partition("=")[2], t[2:]) if len(p) > SHOWN_WIDTH}
        for part in sorted(parts, key=len, reverse=True):  # a text before any text inside it
            message = message.replace(repr(part), shown(part, repr)).replace(part, shown(part))
        super().error(message)


def _headroom(size: int, iterate: int = 0) -> int:
    """The order to evaluate an element at: size + 2, plus family's --iterate
    count; past ``MAX_ORDER``, the error names the options, not their sum."""
    if size + iterate > MAX_ORDER - 2:
        options = "--size plus --iterate" if iterate else "--size"
        raise RiordanError(f"{options} must be at most {MAX_ORDER - 2}")
    return size + iterate + 2


def _resolve_element(args: argparse.Namespace) -> RiordanElement:
    order = _headroom(args.size)
    has_expr = args.g is not None or args.f is not None
    if args.family and has_expr:
        raise RiordanError("give either --family or --g/--f, not both")
    if args.family:
        return family_element(args.family, order)
    if args.g is None or args.f is None:
        raise RiordanError("an element needs --family, or both --g and --f")
    from .gfexpr import evaluate_text  # the expression parser, only for --g/--f

    return RiordanElement(
        evaluate_text(args.g, order), evaluate_text(args.f, order)
    )


def _parse_n_range(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = _read_integer(lo_text, "the first end of --n" if dots else "--n")
        hi = _read_integer(hi_text, "the last end of --n") if dots else lo
    except ValueError as err:
        raise RiordanError(
            f"bad --n value {shown(text, repr)}: use a single integer or a range like 2..4"
        ) from err
    if lo < 1 or hi < lo:
        raise RiordanError(f"bad --n range {shown(text, repr)}: need 1 <= first <= last")
    if hi - lo >= MAX_ORDER:  # each n is a production matrix and a closed form
        raise RiordanError(f"bad --n range {shown(text, repr)}: at most {MAX_ORDER} values")
    return range(lo, hi + 1)


def _emit(as_json: bool, doc: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the JSON document or the text, rendering only the one printed."""
    print(json.dumps(doc(), indent=2) if as_json else text())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_show(args: argparse.Namespace) -> int:
    element = _resolve_element(args)
    matrix = element.matrix(args.size)
    _emit(args.json, lambda: {"matrix": matrix.to_json_entries()}, matrix.to_text)
    return EXIT_OK


def _cmd_prod(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise RiordanError("--n must be at least 1")
    element = _resolve_element(args)
    p = nth_production_matrix(element, args.n, args.size)
    _emit(args.json, lambda: {"n": args.n, "production_matrix": p.to_json_entries()}, p.to_text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ns = _parse_n_range(args.n)
    element = _resolve_element(args)
    # each report is rendered as it is computed, in the one format printed:
    # an entry past the print limit fails only if printed, at its first report
    parts, all_equal = [], True
    for n in ns:
        report = verify_nth_conjecture(element, n, args.size)
        all_equal = all_equal and report.equal
        parts.append(report.to_json_dict() if args.json else report.to_text())
    _emit(args.json, lambda: {"reports": parts, "all_equal": all_equal}, lambda: "\n".join(parts))
    return EXIT_OK if all_equal else EXIT_MISMATCH


def _cmd_identify(args: argparse.Namespace) -> int:
    dump = args.oeis or os.environ.get(OEIS_PATH_ENV)
    if not dump:
        raise RiordanError(
            "no OEIS dump configured: pass --oeis PATH or set the "
            f"{OEIS_PATH_ENV} environment variable to a stripped file"
        )
    from .oeis import query, scan_stripped, triangle_query

    # every rule of the query (riordan.oeis) is checked before the slow dump read
    if args.values is None:
        element = _resolve_element(args)
        values = triangle_query(element.matrix(args.size))
    elif args.family or args.g is not None or args.f is not None:
        raise RiordanError(
            "give either --values or an element (--family, or --g and --f), not both"
        )
    else:
        try:
            terms = [_read_integer(part.strip(), "a term") for part in args.values.split(",")]
        except (ValueError, RiordanError) as err:
            raise RiordanError(f"bad --values: {err}; expected comma-separated integers") from err
        values = query(terms)
    matches, skipped = scan_stripped(dump, values)
    if skipped:
        # "no matches" then covers only the records that were read
        print(f"warning: skipped {skipped} malformed line(s) in {shown(dump)}", file=sys.stderr)
    _emit(
        args.json,
        lambda: {
            "values": values,
            "matches": [{"anumber": m.anumber, "offset": m.offset} for m in matches],
        },
        lambda: "\n".join(f"{m.anumber} (offset {m.offset})" for m in matches)
        or "no matches",
    )
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    steps = args.iterate if args.iterate is not None else 0
    if steps < 0:
        raise RiordanError("--iterate must be non-negative")
    element = family_element(args.name, _headroom(args.size, steps))
    stages = []
    if args.iterate is not None:
        chain = iterate_second_production(element, steps)
        # each later inverse from the one before; the first one's A/Z solve,
        # at the element's order, serves p too
        inverses = accumulate(chain[1:], lambda inv, _: _second_closed_form_inverse(inv), initial=element.inverse())
        stages = [{"g": s.g, "f": s.f, "inverse_g": i.g, "inverse_f": i.f} for s, i in zip(chain, inverses)]
    p = production_matrix(element, args.size)
    polys = p.orthogonal_rows(element.g.constant_term)  # None unless p is a Jacobi matrix
    matrix = element.matrix(args.size)

    def doc() -> dict:
        out = {
            "name": args.name,
            "size": args.size,
            "matrix": matrix.to_json_entries(),
            "production_matrix": p.to_json_entries(),
        }
        if polys:
            out["polynomial_rows"] = rows_to_strings(polys)
        if stages:
            out["iterates"] = [{k: [str(c) for c in v.coefficients] for k, v in s.items()} for s in stages]
        return out

    def text() -> str:
        blocks = [matrix.to_text(), "production matrix:", p.to_text()]
        if polys:
            blocks.append("orthogonal polynomial coefficient rows:")
            blocks.extend("  ".join(row) for row in rows_to_strings(polys))
        if stages:
            blocks.append(f"iterated second-production chain ({steps} steps):")
            for j, parts in enumerate(stages):
                blocks.append(f"step {j}:")
                blocks.extend(f"  {k.replace('_', ' ')} = {v}" for k, v in parts.items())
        return "\n".join(blocks)

    _emit(args.json, doc, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riordan",
        description="Exact Riordan-array computations: matrices, production "
        "matrices of any order, closed-form checks and OEIS lookup.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share
    element = argparse.ArgumentParser(add_help=False)
    element.add_argument("--g", help="expression for g; write --g=EXPR if it starts with '-'")
    element.add_argument("--f", help="expression for f; write --f=EXPR if it starts with '-'")
    element.add_argument("--family", help=f"named element: {', '.join(FAMILY_NAMES)}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--size", type=_integer, default=DEFAULT_SIZE, help="rows to compute (default 8)")
    common.add_argument("--json", action="store_true", help="emit a JSON document")

    show = commands.add_parser(
        "show", help="print the matrix of an element", parents=[element, common]
    )
    show.set_defaults(handler=_cmd_show)

    prod = commands.add_parser(
        "prod", help="print an n-th production matrix", parents=[element, common]
    )
    prod.add_argument("--n", type=_integer, default=1, help="production order (default 1)")
    prod.set_defaults(handler=_cmd_prod)

    verify = commands.add_parser(
        "verify",
        help="compare generated matrices against their closed forms",
        parents=[element, common],
    )
    verify.add_argument(
        "--n", default="2", help="production order, a single value or a range like 2..4"
    )
    verify.set_defaults(handler=_cmd_verify)

    identify = commands.add_parser(
        "identify",
        help="look up a triangle or sequence in a local OEIS dump",
        parents=[element, common],
    )
    identify.add_argument("--values", help="comma-separated integers to look up directly")
    identify.add_argument("--oeis", help="path to an OEIS 'stripped' file")
    identify.set_defaults(handler=_cmd_identify)

    family = commands.add_parser(
        "family", help="print a named family with its production matrix", parents=[common]
    )
    family.add_argument("name", help=f"one of: {', '.join(FAMILY_NAMES)}")
    family.add_argument(
        "--iterate",
        type=_integer,
        help="also run this many steps of the iterated second-production process",
    )
    family.set_defaults(handler=_cmd_family)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.size < 1:
            raise RiordanError("--size must be at least 1")
        return args.handler(args)
    except RiordanError as err:
        message = str(err)
    except ValueError as err:
        # CPython refuses to print an integer longer than its int/str
        # conversion limit; any other ValueError is a bug
        if "integer string conversion" not in str(err):
            raise
        message = (
            f"a result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the most this interpreter prints"
        )
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def entry_point() -> None:
    """Run ``main`` as a process: a closed stdout exits 141 and Ctrl-C 130,
    the shell's codes for SIGPIPE and SIGINT, with no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the Python signal docs' recipe: stdout's last flush at exit would
        # fail again, so point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        code = EXIT_INTERRUPTED
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
