"""Run one ``riordan`` CLI case with outside-in spans around each layer.

    python3 perfbench/tracer.py SPANS.json <riordan arguments...>

Before the CLI starts, every public function listed in ``LAYERS`` is replaced
by a timing wrapper at each place it is bound: module globals (so
``production``'s own ``mat_mul`` and the names ``cli`` imports are covered)
and class attributes (so aliases such as ``TruncatedSeries.__rmul__`` are).
Spans stay in memory and are written to SPANS.json when the process exits,
together with a few counters.  The library itself is not modified.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time

from riordan import arrays, cli, families, gfexpr, oeis, production, series

S = series.TruncatedSeries
E = arrays.RiordanElement

# layer name -> functions it covers; a span is not reopened while the same
# name is already open (e.g. __rtruediv__ calling __truediv__)
LAYERS = {
    "series.mul": [S.__mul__],
    "series.div": [S.__truediv__, S.__rtruediv__],
    "series.pow": [S.__pow__],
    "series.compose": [S.compose],
    "series.revert": [S.revert],
    "series.sqrt": [S.sqrt],
    "arrays.matrix": [E.matrix],
    "arrays.tri_inverse": [arrays.TriMatrix.inverse],
    "arrays.mat_mul": [arrays.mat_mul],
    "arrays.element_inverse": [E.inverse],
    "arrays.element_mul": [E.mul],
    "arrays.render": [arrays.render_rows, arrays.rows_to_strings],
    "production.nth_production_matrix": [production.nth_production_matrix],
    "production.generate": [production.generate_from_production],
    "production.closed_form": [production.produced_matrix_closed_form],
    # the self time of verify_nth_conjecture is its entrywise comparison
    "production.compare": [production.verify_nth_conjecture],
    "gfexpr.evaluate_text": [gfexpr.evaluate_text],
    "families.family_element": [families.family_element],
    "families.iterate": [families.iterate_second_production],
    "oeis.load": [oeis.load_stripped],
    "oeis.identify": [oeis.OeisIndex.identify_sequence, oeis.OeisIndex.identify_triangle],
    "cli.main": [cli.main],
}

MODULES = (series, arrays, production, gfexpr, families, oeis, cli)
SERIES_LAYERS = {name for name in LAYERS if name.startswith("series.")}


class Recorder:
    """Spans as [layer, start_ns, end_ns, parent index] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.counters = {
            "series.revert.order_sum": 0,
            "series.max_bits": 0,
            "arrays.frev_calls": 0,
            "arrays.frev_hits": 0,
            "production.mismatches": 0,
            "oeis.records": 0,
            "oeis.bytes": 0,
            "oeis.queries": 0,
            "oeis.hits": 0,
        }

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self.open_names:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            self.open_names.add(name)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
                self.open_names.discard(name)
            self.count(name, args, result)
            return result

        return traced

    def count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name in SERIES_LAYERS and isinstance(result, S):
            bits = max(
                max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in result.coefficients
            )
            c["series.max_bits"] = max(c["series.max_bits"], bits)
            if name == "series.revert":
                c["series.revert.order_sum"] += args[0].order
        elif name == "production.compare" and not result.equal:
            c["production.mismatches"] += 1
        elif name == "oeis.load":
            c["oeis.records"] += len(result)
            c["oeis.bytes"] += os.path.getsize(args[0])
        elif name == "oeis.identify":
            c["oeis.queries"] += 1
            c["oeis.hits"] += bool(result)

    def wrap_reverted_f(self, fn):
        @functools.wraps(fn)
        def counted(element):
            self.counters["arrays.frev_calls"] += 1
            self.counters["arrays.frev_hits"] += element._frev is not None
            return fn(element)

        return counted

    def install(self) -> None:
        replacements = {
            id(fn): self.wrap(name, fn) for name, fns in LAYERS.items() for fn in fns
        }
        replacements[id(E.reverted_f)] = self.wrap_reverted_f(E.reverted_f)
        for module in MODULES:
            owners = [module] + [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    wrapper = replacements.get(id(value))
                    if wrapper is not None:
                        setattr(owner, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, "counters": self.counters}, out)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    atexit.register(recorder.write, spans_path)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
