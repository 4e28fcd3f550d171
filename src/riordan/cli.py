"""Command-line surface: show, prod, verify, identify, family.

Elements are named either by ``--family`` (pascal, binomial:r, catalan,
moment:r, a085478) or by a pair of generating-function expressions ``--g``
and ``--f``, evaluated to order size + 2 (plus ``--iterate`` for ``family``,
at most ``MAX_ORDER``) so users never manage truncation orders by hand.

Exit codes: 0 on success (and when ``verify`` finds every instance equal,
up to the closed form's scalar factor), 1 when ``verify`` finds a mismatch,
2 on usage, parse or precision errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .arrays import RiordanElement
from .errors import RiordanError
from .families import (
    FAMILY_NAMES,
    family_element,
    family_parameter,
    iterate_second_production,
    orthogonal_polys,
)
from .production import nth_production_matrix, production_matrix, verify_nth_conjecture

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2

DEFAULT_SIZE = 8
# the highest truncation order a command may ask for; exact matrix work grows
# with the cube of the order (show at size 200: 0.5-1.4 s on a Xeon), and a larger
# order from a few typed digits would only allocate series until memory runs out
MAX_ORDER = 1000
OEIS_PATH_ENV = "OEIS_STRIPPED_PATH"


def _headroom(size: int, iterate: int | None = None) -> int:
    """The order to evaluate an element at; ``iterate`` is family's --iterate
    count, 0 when not given, and None for every other command."""
    order = size + (iterate or 0) + 2
    if order > MAX_ORDER:
        options = "--size" if iterate is None else "--size or --iterate"
        raise RiordanError(
            f"this needs truncation order {order}, above the limit of "
            f"{MAX_ORDER}; lower {options}"
        )
    return order


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
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as err:
        raise RiordanError(
            f"bad --n value {text!r}: use a single integer or a range like 2..4"
        ) from err
    if lo < 1 or hi < lo:
        raise RiordanError(f"bad --n range {text!r}: need 1 <= first <= last")
    if hi - lo >= MAX_ORDER:  # each n is a production matrix and a closed form
        raise RiordanError(f"bad --n range {text!r}: at most {MAX_ORDER} values")
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
    docs, lines, all_equal = [], [], True
    for n in ns:
        report = verify_nth_conjecture(element, n, args.size)
        all_equal = all_equal and report.equal
        if args.json:
            docs.append(report.to_json_dict())
        elif report.equal:
            lines.append(f"n={report.n} size={report.size}: equal")
        else:
            i, j = report.first_mismatch
            scale = f" scale={report.scale}" if report.scale != 1 else ""
            lines.append(
                f"n={report.n} size={report.size}: MISMATCH at ({i}, {j}): "
                f"produced={report.produced[i, j]} "
                f"closed_form={report.closed_form[i, j]}{scale}"
            )
            lines += ["produced:", report.produced.to_text()]
            lines += ["closed form:", report.closed_form.to_text()]
    _emit(args.json, lambda: {"reports": docs, "all_equal": all_equal}, lambda: "\n".join(lines))
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
            values = query([int(part) for part in args.values.split(",")])
        except ValueError as err:
            wide = "integer string conversion" in str(err)  # CPython's digit limit
            reason = f"a term has more than {sys.get_int_max_str_digits()} digits" if wide else err
            raise RiordanError(
                f"bad --values: {reason}; expected comma-separated integers"
            ) from err
    matches, skipped = scan_stripped(dump, values)
    if skipped:
        # "no matches" then covers only the records that were read
        print(f"warning: skipped {skipped} malformed line(s) in {dump}", file=sys.stderr)
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
    p = production_matrix(element, args.size)
    matrix = element.matrix(args.size)
    # each part is rendered as it is computed, in the one format printed
    if args.json:
        doc = {
            "name": args.name,
            "size": args.size,
            "matrix": matrix.to_json_entries(),
            "production_matrix": p.to_json_entries(),
        }
    else:
        blocks = [matrix.to_text(), "production matrix:", p.to_text()]
    name, _, param = args.name.partition(":")
    if name == "moment":
        polys = orthogonal_polys(family_parameter(name, param), args.size)
        rows = [[str(c) for c in row.coeffs] for row in polys]
        if args.json:
            doc["polynomial_rows"] = rows
        else:
            blocks.append("orthogonal polynomial coefficient rows:")
            blocks.extend("  ".join(row) for row in rows)
    if args.iterate is not None:
        iterates = []
        if not args.json:
            blocks.append(f"iterated second-production chain ({steps} steps):")
        for j, stage in enumerate(iterate_second_production(element, steps)):
            inv = stage.inverse()
            parts = {"g": stage.g, "f": stage.f, "inverse_g": inv.g, "inverse_f": inv.f}
            if args.json:
                iterates.append({k: [str(c) for c in v.coefficients] for k, v in parts.items()})
            else:
                blocks.append(f"step {j}:")
                blocks.extend(f"  {k.replace('_', ' ')} = {v}" for k, v in parts.items())
        if args.json:
            doc["iterates"] = iterates
    print(json.dumps(doc, indent=2) if args.json else "\n".join(blocks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_element_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--g", help="expression for g; write --g=EXPR if it starts with '-'")
    sub.add_argument("--f", help="expression for f; write --f=EXPR if it starts with '-'")
    sub.add_argument(
        "--family",
        help=f"named element: {', '.join(FAMILY_NAMES)}",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--size", type=int, default=DEFAULT_SIZE, help="rows to compute (default 8)")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan-array computations: matrices, production "
        "matrices of any order, closed-form checks and OEIS lookup.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="print the matrix of an element")
    _add_element_options(show)
    _add_common(show)
    show.set_defaults(handler=_cmd_show)

    prod = commands.add_parser("prod", help="print an n-th production matrix")
    _add_element_options(prod)
    _add_common(prod)
    prod.add_argument("--n", type=int, default=1, help="production order (default 1)")
    prod.set_defaults(handler=_cmd_prod)

    verify = commands.add_parser(
        "verify",
        help="compare generated matrices against their closed forms",
    )
    _add_element_options(verify)
    _add_common(verify)
    verify.add_argument(
        "--n", default="2", help="production order, a single value or a range like 2..4"
    )
    verify.set_defaults(handler=_cmd_verify)

    identify = commands.add_parser(
        "identify", help="look up a triangle or sequence in a local OEIS dump"
    )
    _add_element_options(identify)
    _add_common(identify)
    identify.add_argument("--values", help="comma-separated integers to look up directly")
    identify.add_argument("--oeis", help="path to an OEIS 'stripped' file")
    identify.set_defaults(handler=_cmd_identify)

    family = commands.add_parser(
        "family", help="print a named family with its production matrix"
    )
    family.add_argument("name", help=f"one of: {', '.join(FAMILY_NAMES)}")
    _add_common(family)
    family.add_argument(
        "--iterate",
        type=int,
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
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
