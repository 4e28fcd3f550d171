import functools
import hashlib
import json
import os
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import pytest

from helpers import RECORD_ORACLE, dump_lines, identify_by_slices, stripped_by_int_tuples
from riordan import (
    MIN_QUERY_VALUES,
    OeisFormatError,
    OeisIndex,
    OeisQueryError,
    SequenceMatch,
    TriMatrix,
    TruncatedSeries,
    RiordanElement,
    a085478_element,
    catalan_array,
    load_stripped,
    pascal,
)
from riordan import oeis
from riordan.cli import main
from riordan.oeis import _RECORD, _SIDECAR, scan_stripped


@pytest.fixture(scope="module")
def index(oeis_fixture_path):
    return load_stripped(oeis_fixture_path)


@pytest.fixture
def no_int_digit_limit():
    """Lift CPython's int <-> str digit limit where there is one, so that only
    the record grammar bounds the width of a term."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestLoading:
    def test_fixture_loads_fully(self, index):
        assert len(index) == 7
        assert index.skipped_lines == 0
        assert index.get("A000108") == (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)
        assert index.get("A999999") is None

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("A000108 ,1,1,2,5,14,42,132,\n")
        idx = load_stripped(path)
        assert idx.get("A000108") == (1, 1, 2, 5, 14, 42, 132)

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(
            "# a comment, not counted\n"
            "A000012 ,1,1,1,1,1,1,1,\n"
            "B000001 ,1,2,3,4,5,6,\n"
            "A000045 1,2,3\n"
            "A000108 ,1,1,two,5,\n"
        )
        idx = load_stripped(path)
        assert len(idx) == 1
        assert idx.skipped_lines == 3

    @pytest.mark.parametrize(
        "term",
        ["+5", "007", "-0", "1_0", " 5", "\u0665", "1" * 4301],
        ids=["plus", "leading-zeros", "minus-zero", "underscore", "inner-space",
             "non-ascii-digit", "4301-digits"],
    )
    def test_non_canonical_integer_skips_the_record(
        self, tmp_path, no_int_digit_limit, term
    ):
        path = tmp_path / "odd.txt"
        path.write_text(
            f"A000001 ,1,2,{term},3,4,5,\nA000012 ,1,1,1,1,1,1,1,\n", encoding="utf-8"
        )
        idx = load_stripped(path)
        assert (len(idx), idx.skipped_lines) == (1, 1)
        assert idx.get("A000001") is None

    def test_widest_terms_load(self, tmp_path):
        wide = 10**4300 - 1
        path = tmp_path / "wide.txt"
        path.write_text(f"A000001 ,{wide},-{wide},0,-1,1,2,\n")
        idx = load_stripped(path)
        assert idx.get("A000001") == (wide, -wide, 0, -1, 1, 2)
        assert idx.identify_sequence([wide, -wide, 0, -1, 1, 2]) == [
            SequenceMatch("A000001", 0)
        ]

    def test_constructor_takes_int_sequences(self):
        idx = OeisIndex({"A000108": [1, 1, 2, 5, 14, 42, 132], "A000001": []})
        assert (len(idx), idx.skipped_lines) == (2, 0)
        assert idx.get("A000108") == (1, 1, 2, 5, 14, 42, 132)
        assert idx.get("A000001") == ()
        assert idx.identify_sequence([1, 2, 5, 14, 42, 132]) == [SequenceMatch("A000108", 1)]

    @pytest.mark.parametrize(
        "key", ["", " ", "A000108 ", "A00 0108", "\tA000108", "A000108\n", "A000\u2028108", "#A000108", 108],
    )
    def test_constructor_refuses_a_key_no_record_line_reads_back(self, key):
        with pytest.raises(ValueError, match="A-number of a record line"):
            OeisIndex({"A000045": [0, 1, 1, 2], key: [1, 1, 2, 5, 14, 42, 132]})

    @pytest.mark.parametrize("term", ["x", 2.0])
    def test_constructor_refuses_a_term_that_is_not_an_int(self, term):
        # named, as series.as_fraction names a value that is not exact
        with pytest.raises(TypeError, match=re.escape(f"record terms are int, got {term!r} in A000045")):
            OeisIndex({"A000108": [1, 1, 2], "A000045": [0, 1, term, 2]})

    def test_a_name_holding_the_run_is_no_match(self):
        name = ",1,1,2,5,14,42,132,"
        idx = OeisIndex({name: [9, 9], "A000108": [1, 1, 2, 5, 14, 42, 132]})
        assert (len(idx), idx.get(name)) == (2, (9, 9))
        assert idx.identify_sequence([1, 1, 2, 5, 14, 42, 132]) == [SequenceMatch("A000108", 0)]

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(OeisFormatError):
            load_stripped(path)

    def test_unreadable_path_is_an_error(self, tmp_path):
        with pytest.raises(OeisFormatError):
            load_stripped(tmp_path / "missing.txt")


class TestSequenceLookup:
    def test_catalan_numbers(self, index):
        matches = index.identify_sequence([1, 1, 2, 5, 14, 42, 132])
        assert SequenceMatch("A000108", 0) in matches

    def test_offset_match(self, index):
        matches = index.identify_sequence([1, 2, 5, 14, 42, 132])
        assert matches == [SequenceMatch("A000108", 1)]

    def test_no_match_is_empty_list(self, index):
        assert index.identify_sequence([1, 3, 12, 55, 273, 1428]) == []

    def test_too_few_values(self, index):
        with pytest.raises(OeisQueryError) as err:
            index.identify_sequence([1, 1])
        assert str(MIN_QUERY_VALUES) in str(err.value)

    def test_non_integer_values(self, index):
        with pytest.raises(OeisQueryError):
            index.identify_sequence([1, 1, 2, 5, 14, 42.0])

    def test_values_past_the_print_limit_are_named_by_it(self, index):
        wide = F(10**4400 + 1, 2)
        stand_in = "<a number of more than 4300 digits>"
        with pytest.raises(OeisQueryError) as err:
            index.identify_sequence([1, 1, 2, 5, 14, wide])
        assert str(err.value) == f"query values must be integers, got {stand_in}"
        with pytest.raises(OeisQueryError) as err:
            index.identify_triangle(TriMatrix([[1], [wide, 1], [1, 1, 1]]))
        assert str(err.value) == (
            f"matrix entry {stand_in} is not an integer; OEIS lookup needs integer entries"
        )
        with pytest.raises(TypeError) as err:
            OeisIndex({"A000045": [0, 1, wide]})
        assert str(err.value) == f"record terms are int, got {stand_in} in A000045"
        # a printable value is shown as before
        with pytest.raises(OeisQueryError) as err:
            index.identify_sequence([1, 1, 2, 5, 14, F(1, 2)])
        assert str(err.value) == "query values must be integers, got Fraction(1, 2)"

    def test_run_must_fit_in_stored_prefix(self, index):
        stored = list(index.get("A000108"))
        assert index.identify_sequence(stored) == [SequenceMatch("A000108", 0)]
        assert index.identify_sequence(stored + [58786 * 3]) == []

    @pytest.mark.parametrize(
        "record",
        [
            ",11,1,2,5,14,42,",
            ",-1,1,2,5,14,42,",
            ",0,0,0,1,1,2,5,14,42,7,1,1,2,5,14,42,",
            ",1,1,2,5,14,",
            ",1,1,2,5,14,421,",
            ",1,1,2,5,14,42",
        ],
        ids=["longer-first-term", "signed-first-term", "first-seen-at-offset-3",
             "past-the-prefix", "longer-last-term", "no-closing-comma"],
    )
    def test_a_run_matches_whole_terms_only(self, tmp_path, record):
        path = tmp_path / "near.txt"
        path.write_text(f"A000001 {record}\nA000012 ,1,1,1,1,1,1,\n")
        assert load_stripped(path).identify_sequence([1, 1, 2, 5, 14, 42]) == []

    def test_query_term_wider_than_any_record_matches_nothing(self, index):
        assert index.identify_sequence([1, 1, 2, 5, 14, 10**4300]) == []

    def test_deterministic_ordering(self, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text(
            "A999999 ,1,1,1,1,1,1,1,1,\n"
            "A000012 ,1,1,1,1,1,1,1,1,\n"
        )
        idx = load_stripped(path)
        first = idx.identify_sequence([1] * 6)
        assert first == [SequenceMatch("A000012", 0), SequenceMatch("A999999", 0)]
        assert first == idx.identify_sequence([1] * 6)

    def test_each_entry_once_at_its_smallest_offset(self, tmp_path):
        path = tmp_path / "shifted.txt"
        path.write_text(
            "A000002 ,0,1,1,1,1,1,1,1,\n"
            "A000001 ,7,0,1,1,1,1,1,1,\n"
            "A000003 ,0,0,0,1,1,1,1,1,\n"
        )
        idx = load_stripped(path)
        assert idx.identify_sequence([1] * 6) == [
            SequenceMatch("A000002", 1),
            SequenceMatch("A000001", 2),
        ]


class TestTriangleLookup:
    def test_catalan_array(self, index):
        assert SequenceMatch("A033184", 0) in index.identify_triangle(
            catalan_array(7).matrix(6)
        )

    def test_pascal(self, index):
        assert SequenceMatch("A007318", 0) in index.identify_triangle(
            pascal(5).matrix(4)
        )

    def test_a085478(self, index):
        assert SequenceMatch("A085478", 0) in index.identify_triangle(
            a085478_element(6).matrix(5)
        )

    def test_identity_matches_nothing_here(self, index):
        m = RiordanElement.identity(4).matrix(4)
        assert index.identify_triangle(m) == []

    def test_small_triangle_rejected(self, index):
        with pytest.raises(OeisQueryError):
            index.identify_triangle(pascal(3).matrix(2))

    def test_non_integral_entries_rejected(self, index):
        half = RiordanElement(
            2 * TruncatedSeries([1], 4), TruncatedSeries([0, 1, 1], 4) / 2
        )
        with pytest.raises(OeisQueryError):
            index.identify_triangle(half.matrix(4))

    def test_matches_flattened_sequence_lookup(self, index):
        m = catalan_array(7).matrix(6)
        flat = [c.numerator for n, row in enumerate(m.rows) for c in row[: n + 1]]
        assert index.identify_triangle(m) == index.identify_sequence(flat)


class TestAgainstIntTupleOracle:
    """The text index against the int-tuple reading and slice lookup it
    replaced (``tests/helpers.py``), on a seeded dump of canonical records."""

    RUNS = (
        [1, 1, 2, 5, 14, 42, 132],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 2, -3, 4, -5, 6],
        [7, 7, 7, 7, 7, 7, 7, 7, 7],
        [1, 0, -1, 0, 1, 0, -1],
    )

    def test_seeded_dump_and_queries(self, tmp_path):
        rng = random.Random(20261018)

        def term():
            if rng.random() < 0.7:
                return rng.randint(-3, 3)
            return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 12))

        def near_miss(run):
            # one term off by one, by sign or by a digit before or after it
            out = list(run)
            i = rng.randrange(len(out))
            v = out[i]
            sign = -1 if v < 0 else 1
            out[i] = rng.choice(
                (v + 1, v - 1, -v or 1, int(f"{v}1"), sign * int(f"1{abs(v)}"))
            )
            return out

        lines = ["# seeded dump\n", "\n", "  # an indented comment\n"]
        for k in range(300):
            run = rng.choice(self.RUNS)
            background = [term() for _ in range(rng.randint(1, 12))]
            body = rng.choice((run, near_miss(run), run + run, background))
            seq = [term() for _ in range(rng.randrange(4))] + body
            seq += [term() for _ in range(rng.randrange(4))]
            lines.append(f"A{k:06d} ,{','.join(map(str, seq))},\n")
        lines.insert(150, "A000007 ,0,0,0,0,0,0,9,\n")  # a later line replaces A000007
        lines += [
            "B000001 ,1,2,3,\n", "A000045 1,2,3\n", "A000108 ,1,1,two,5,\n", "A000009 ,,\n"
        ]
        text = "".join(lines)
        path = tmp_path / "seeded.txt"
        path.write_text(text)
        idx = load_stripped(path)
        entries, skipped = stripped_by_int_tuples(text)

        assert (len(idx), idx.skipped_lines) == (len(entries), skipped) == (300, 4)
        assert all(idx.get(a) == stored for a, stored in entries.items())
        assert idx.get("A999999") is None

        records = list(entries.values())
        queries = [list(run) for run in self.RUNS]
        queries += [near_miss(run) for run in self.RUNS * 8]
        for _ in range(300):
            seq = rng.choice(records)
            start = rng.randrange(5)
            values = list(seq[start : start + rng.randint(6, 10)])
            queries.append(values + [term() for _ in range(6 - len(values))])
        queries += [[rng.randint(-1, 1) for _ in range(6)] for _ in range(60)]

        offsets = set()
        for values in queries:
            found = idx.identify_sequence(values)
            assert found == identify_by_slices(entries, values), values
            offsets.update(m.offset for m in found)
        assert offsets == {0, 1, 2} and len(queries) > 400


class TestRecordGrammar:
    """The record pattern against the backtracking pattern it replaced
    (``tests/helpers.py``): the same lines match, with the same groups."""

    ANUMBERS = ("A000108", "A1", "A\u0661\u0662", "A", "B000001", "a000108", "A12x")
    SPACES = (" ", " ", "\t", "  ", "\xa0", "\u2003", "")
    TERMS = ("0", "1", "5", "-7", "42", "-0", "+1", "007", "-01", "", "1_0",
             "\u0665", "x", " 5", "-", "--1")
    WIDE = ("1" * 4299, "9" * 4300, "-" + "9" * 4300, "1" * 4301, "-" + "1" * 4301,
            "0" + "1" * 4299)

    def line(self, rng):
        """A line that is mostly well formed; each piece is sometimes odd."""
        chance = rng.random
        terms = []
        for _ in range(rng.randint(0, 7)):
            kind = chance()
            if kind < 0.9:
                terms.append(str(rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(1, 25))))
            elif kind < 0.997:
                terms.append(rng.choice(self.TERMS))
            else:
                terms.append(rng.choice(self.WIDE))
        body = ",".join(terms)
        if chance() < 0.9:
            body = f",{body},"
        elif chance() < 0.5:
            body += ","
        anumber = rng.choice(self.ANUMBERS) if chance() < 0.2 else f"A{rng.randrange(10**6):06d}"
        return anumber + (rng.choice(self.SPACES) if chance() < 0.2 else " ") + body

    def test_seeded_lines_match_as_the_oracle_does(self):
        rng = random.Random(20261018)
        lines = [self.line(rng) for _ in range(100_000)]
        lines += [f"A000001 ,{wide},1," for wide in self.WIDE]
        lines += ["A\u0661\u0662 ,1,2,", "A000001\xa0,1,2,", "A000001 ,-0,", "A000001 ,+1,",
                  "A000001 ,01,", "A000001 ,1,,2,", "A000001 ,,"]
        matched = 0
        for line in lines:
            want, got = RECORD_ORACLE.fullmatch(line), _RECORD.fullmatch(line)
            assert (want and want.groups()) == (got and got.groups()), line[:80]
            matched += got is not None
        assert 20_000 < matched < len(lines) - 20_000
        # the terms of 4299 and 4300 digits, signed or not, and no wider
        assert [w for w in self.WIDE if _RECORD.fullmatch(f"A1 ,{w},")] == list(self.WIDE[:3])


class TestScanAgainstIndex:
    """``scan_stripped``, the one pass that ``identify`` makes, against the
    index and against the int-tuple oracle (``tests/helpers.py``)."""

    RUN = [1, 1, 2, 5, 14, 42, 132]

    def dump(self, rng):
        def seq():
            out = [rng.randint(-2, 3) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:
                at = rng.randint(0, 4)
                out[at:at] = self.RUN[: rng.randint(6, 7)]
            return out

        lines = []
        for k in range(200):
            anumber = f"A{rng.randrange(150):06d}"  # about a quarter repeat an A-number
            kind = rng.random()
            if kind < 0.05:
                lines.append(rng.choice(("# comment", "  # indented", "", "   ")))
            elif kind < 0.1:
                lines.append(rng.choice(
                    (f"B{k:06d} ,1,2,3,", f"{anumber} 1,2,3", f"{anumber} ,1,two,", f"{anumber} ,,")
                ))
            else:
                lines.append(f"{anumber} ,{','.join(map(str, seq()))},")
        run = ",".join(map(str, self.RUN))
        # only the earlier duplicate holds the run, only the later one, or both
        # at different offsets; the last record decides
        lines += [f"A900001 ,{run},", "A900001 ,9,9,9,9,9,9,",
                  "A900002 ,9,9,9,9,9,9,", f"A900002 ,0,{run},",
                  f"A900003 ,{run},", f"A900003 ,0,0,{run},"]
        rng.shuffle(lines)
        return "".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_dumps(self, tmp_path, seed):
        rng = random.Random(seed)
        text = self.dump(rng)
        path = tmp_path / "dump.txt"
        path.write_bytes(text.encode())
        index = load_stripped(path)
        entries, skipped = stripped_by_int_tuples(text)
        assert skipped == index.skipped_lines > 0 and len(entries) == len(index)

        stored = list(entries.values())
        queries = [self.RUN, self.RUN[1:], [0] * 6, [1] * 6, self.RUN[:6] + [10**4300]]
        for _ in range(30):
            seq = rng.choice(stored)
            start = rng.randrange(4)
            values = list(seq[start : start + rng.randint(6, 8)])
            queries.append(values + [rng.randint(-2, 3) for _ in range(6 - len(values))])
        hits = 0
        for values in queries:
            want = identify_by_slices(entries, values)
            assert scan_stripped(path, values) == (want, skipped), values
            assert index.identify_sequence(values) == want
            hits += bool(want)
        assert hits >= 5

    @pytest.mark.parametrize(
        "text", ["", "# only a comment\n", "\r\n\r\n", "A000001 ,x,\n"],
        ids=["empty", "comment", "blank", "malformed"],
    )
    def test_dump_without_records_is_an_error(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with pytest.raises(OeisFormatError, match="no parseable records"):
            scan_stripped(path, [1] * 6)

    def test_unreadable_path_is_an_error(self, tmp_path):
        with pytest.raises(OeisFormatError, match="cannot read"):
            scan_stripped(tmp_path / "missing.txt", [1] * 6)

    def test_malformed_query_raises_before_the_read(self, tmp_path):
        with pytest.raises(OeisQueryError):
            scan_stripped(tmp_path / "missing.txt", [1, 1])


class _CountingRecord:
    """``oeis._RECORD`` with every line given to ``fullmatch`` recorded."""

    def __init__(self):
        self.lines = []

    def fullmatch(self, line):
        self.lines.append(line)
        return _RECORD.fullmatch(line)


def _rewrite(side, **change):
    """Change fields of the sidecar ``side``; None drops a field."""
    doc = json.loads(side.read_text())
    doc.update(change)
    side.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))


class TestSidecar:
    """``scan_stripped`` and ``load_stripped`` with their sidecar
    ``PATH.riordan-index``: a scan that trusts it parses only the lines holding
    the query, a load every line, or none if it counts no malformed line; both
    answer exactly as the full pass does, and any doubt about it means a full
    pass."""

    RUN = TestScanAgainstIndex.RUN
    KEY = ",1,1,2,5,14,42,132,"
    # characters str.splitlines takes for line ends and the library does not
    SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    def dump(self, rng):
        """Bytes of a dump whose records come in increasing A-number order,
        with comments, blank and malformed lines, bytes that are not UTF-8,
        all three line ends and whitespace around lines; its last line holds
        the run and may end without a line end.  A quarter of the records
        hold one of ``SPLITLINES_ONLY`` around them, after their A-number, or
        between two digits (a malformed line)."""

        def seq():
            out = [rng.randint(-2, 3) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:
                at = rng.randint(0, 4)
                out[at:at] = self.RUN[: rng.randint(6, 7)]
            return ",".join(map(str, out)).encode()

        lines = []
        for k in sorted(rng.sample(range(1, 10**6 - 1), 199)):
            kind = rng.random()
            if kind < 0.05:
                lines.append(rng.choice((b"# comment \xff", b"  # indented", b"", b"   ")))
            elif kind < 0.12:
                lines.append(rng.choice((
                    b"B%06d ,1,2,3," % k, b"A%06d 1,2,3" % k, b"A%06d ,1,two," % k,
                    b"A%06d ,1,\xff\xfe,2," % k, b"A%06d ,%s,\x80" % (k, seq()),
                )))
            else:
                line = rng.choice((b"", b" ", b"\t")) + b"A%06d ,%s," % (k, seq())
                if rng.random() < 0.25:
                    inner = [i for i in range(1, len(line)) if line[i - 1 : i + 1].isdigit()]
                    at = rng.choice([0, line.index(b" ,"), len(line), *inner])
                    line = line[:at] + rng.choice(self.SPLITLINES_ONLY).encode() + line[at:]
                lines.append(line)
        lines.append(b" A999999 ,%s,\t" % ",".join(map(str, self.RUN)).encode())
        data = b"".join(line + rng.choice((b"\n", b"\r\n", b"\r")) for line in lines)
        return data.rstrip(b"\r\n") if rng.random() < 0.5 else data

    def queries(self, rng, entries):
        stored = list(entries.values())
        out = [self.RUN, self.RUN[1:], [0] * 6, [1] * 6, self.RUN[:6] + [10**4300]]
        for _ in range(30):
            seq = rng.choice(stored)
            start = rng.randrange(4)
            values = list(seq[start : start + rng.randint(6, 8)])
            out.append(values + [rng.randint(-2, 3) for _ in range(6 - len(values))])
        return out

    @staticmethod
    def sidecar(path):
        return path.with_name(path.name + _SIDECAR)

    @staticmethod
    def full(path, values):
        """The answer of a pass over every line, by the int-tuple oracle."""
        entries, skipped = stripped_by_int_tuples(path.read_bytes().decode("utf-8", "replace"))
        return identify_by_slices(entries, values), skipped

    def counted(self, monkeypatch, path, values):
        """``scan_stripped(path, values)`` and the lines it fullmatched."""
        counting = _CountingRecord()
        with monkeypatch.context() as patch:
            patch.setattr(oeis, "_RECORD", counting)
            return scan_stripped(path, values), counting.lines

    def loaded(self, monkeypatch, path, entries):
        """``load_stripped(path)`` as the oracle gives a dump, ``(entries,
        skipped_lines)``, read through ``len`` and ``get`` of the oracle's
        A-numbers (None if the lengths differ), and the lines it fullmatched."""
        counting = _CountingRecord()
        with monkeypatch.context() as patch:
            patch.setattr(oeis, "_RECORD", counting)
            index = load_stripped(path)
        got = {a: index.get(a) for a in entries} if len(index) == len(entries) else None
        return (got, index.skipped_lines), counting.lines

    # characters that str.strip, str.split and the record rule's \s take for
    # whitespace, and the reader does not take for line ends
    WHITESPACE = " \t" + SPLITLINES_ONLY + "\x1f\xa0\u3000"

    def clean_dump(self, rng):
        """Bytes of a dump with no malformed line, its records in increasing
        A-number order: comments, blank lines, all three line ends, and runs of
        ``WHITESPACE`` around lines and between A-number and terms (a lone
        space in half of the records).  Its last line, ``A999999 ,RUN,``,
        holds the run."""

        def ws(least):
            return "".join(rng.choice(self.WHITESPACE) for _ in range(rng.randint(least, 3)))

        lines = []
        for k in sorted(rng.sample(range(1, 10**6 - 1), 199)):
            if rng.random() < 0.1:
                lines.append(ws(0) + rng.choice(("", "# comment", "#\tA000001 ,1,")))
                continue
            seq = [rng.randint(-2, 3) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:
                at = rng.randint(0, 4)
                seq[at:at] = self.RUN[: rng.randint(6, 7)]
            sep = " " if rng.random() < 0.5 else ws(1)
            lines.append(f"{ws(0)}A{k:06d}{sep},{','.join(map(str, seq))},{ws(0)}")
        lines.append(f"A999999 ,{','.join(map(str, self.RUN))},")
        return "".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines).encode()

    @pytest.fixture
    def seeded(self, tmp_path):
        data = self.dump(random.Random(7))
        path = tmp_path / "dump.txt"
        path.write_bytes(data)
        return path, data

    @pytest.mark.parametrize("block", [7, oeis._BLOCK], ids=["7-byte-blocks", "default-blocks"])
    @pytest.mark.parametrize("seed", range(4))
    def test_hit_answers_as_the_full_pass(self, tmp_path, monkeypatch, seed, block):
        # 7-byte blocks split lines, and CR LF pairs, across blocks
        monkeypatch.setattr(oeis, "_BLOCK", block)
        rng = random.Random(seed)
        data = self.dump(rng)
        path = tmp_path / "dump.txt"
        path.write_bytes(data)
        entries, skipped = stripped_by_int_tuples(data.decode("utf-8", "replace"))
        side = self.sidecar(path)
        hits = 0
        for values in self.queries(rng, entries):
            want = (identify_by_slices(entries, values), skipped)
            assert self.full(path, values) == want, values
            side.unlink(missing_ok=True)
            assert scan_stripped(path, values) == want, values  # the write
            assert side.is_file()
            assert scan_stripped(path, values) == want, values  # a hit
            hits += bool(want[0])
        assert hits >= 5 and skipped > 0

    def test_sidecar_holds_size_digest_and_skipped_count(self, seeded):
        path, data = seeded
        old = os.umask(0)  # the sidecar's own mode keeps it trusted
        try:
            scan_stripped(path, self.RUN)
        finally:
            os.umask(old)
        side = self.sidecar(path)
        doc = json.loads(side.read_text())
        assert doc == {
            "version": 1,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "skipped": self.full(path, self.RUN)[1],
        }
        assert side.stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name, side.name]

    def test_a_hit_fullmatches_only_lines_holding_the_key(self, seeded, monkeypatch):
        path, data = seeded
        want = self.full(path, self.RUN)
        lines = [line.strip() for line in dump_lines(data.decode("utf-8", "replace"))]
        holding = [line for line in lines if self.KEY in line]
        assert len(holding) >= 5 and len(lines) == 200
        assert any(c in line for line in holding for c in self.SPLITLINES_ONLY)

        # the write validates every line; the hit only those holding the key
        found, checked = self.counted(monkeypatch, path, self.RUN)
        assert found == want and len(checked) > 180
        found, checked = self.counted(monkeypatch, path, self.RUN)
        assert found == want and checked == holding

    def test_a_scan_keeps_only_the_records_holding_the_query(self, tmp_path, monkeypatch):
        # what bounds a scan's memory: of 2000 records, both passes keep the
        # three that hold the run, one of them at an offset no answer takes
        rng = random.Random(11)
        at = {17: 0, 900: 2, 1500: 4}
        lines = []
        for k in range(1, 2001):
            seq = [rng.randint(-2, 3) for _ in range(rng.randint(6, 12))]
            if k in at:
                seq[at[k] : at[k]] = self.RUN
            lines.append(f"A{k:06d} ,{','.join(map(str, seq))},\n")
        path = tmp_path / "dump.txt"
        path.write_text("".join(lines))
        kept = []
        identify = OeisIndex.identify_sequence

        def counting(index, values):
            kept.append(len(index))
            return identify(index, values)

        monkeypatch.setattr(OeisIndex, "identify_sequence", counting)
        want = ([SequenceMatch("A000017", 0), SequenceMatch("A000900", 2)], 0)
        assert scan_stripped(path, self.RUN) == want  # the full pass
        assert self.sidecar(path).is_file()
        assert scan_stripped(path, self.RUN) == want  # the trusted pass
        assert kept == [3, 3]

    def edit_same_size(self, path, side):
        """Make a record that holds no query malformed, keeping size and mtime."""
        info = path.stat()
        lines = path.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(b"A") and b" ," in line and self.KEY.encode() not in line)
        lines[at] = lines[at].replace(b" ,", b" x", 1)
        path.write_bytes(b"".join(lines))
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))

    def edit_unsplittable(self, path, side):
        """Take the one space out of a record that holds the query, keeping
        size and mtime: the line then has no whitespace to be cut at."""
        info = path.stat()
        lines = path.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if self.KEY.encode() in line and re.fullmatch(rb"\s*A\d+ ,[-0-9,]+,\s*", line))
        lines[at] = lines[at].replace(b" ,", b",,", 1)
        path.write_bytes(b"".join(lines))
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))

    def append_line(self, path, side):
        with open(path, "ab") as out:
            out.write(b"\nA9999990 ,1,1,2,5,14,42,132,\n")

    def symlink(self, path, side):
        target = path.parent / "elsewhere"
        side.rename(target)
        side.symlink_to(target)

    STALE = {
        "same-size-edit": edit_same_size,
        "unsplittable-edit": edit_unsplittable,
        "appended-line": append_line,
        "corrupt": lambda self, path, side: side.write_bytes(b"{not json"),
        "truncated": lambda self, path, side: side.write_bytes(side.read_bytes()[:40]),
        "nested": lambda self, path, side: side.write_bytes(b"[" * 4000),
        "extra-key": lambda self, path, side: _rewrite(side, extra=1),
        "missing-key": lambda self, path, side: _rewrite(side, skipped=None),
        "wrong-version": lambda self, path, side: _rewrite(side, version=2),
        "boolean-version": lambda self, path, side: _rewrite(side, version=True),
        "string-size": lambda self, path, side: _rewrite(side, size=str(path.stat().st_size)),
        "short-digest": lambda self, path, side: _rewrite(side, sha256="0" * 63),
        "group-writable": lambda self, path, side: side.chmod(0o664),
        "world-writable": lambda self, path, side: side.chmod(0o646),
        "symlinked": symlink,
    }

    @pytest.mark.parametrize("stale", STALE)
    def test_any_doubt_means_a_full_pass(self, seeded, monkeypatch, stale):
        path, _ = seeded
        side = self.sidecar(path)
        scan_stripped(path, self.RUN)
        self.STALE[stale](self, path, side)
        target = (path.parent / "elsewhere").read_bytes() if side.is_symlink() else None

        want = self.full(path, self.RUN)
        text = path.read_text(encoding="utf-8", errors="replace")
        every = [line.strip() for line in dump_lines(text)]
        every = [line for line in every if line and not line.startswith("#")]
        found, checked = self.counted(monkeypatch, path, self.RUN)
        assert found == want
        # every line is validated; only a same-size edit costs a hit pass first
        assert checked[-len(every) :] == every
        assert (len(checked) > len(every)) == stale.endswith("-edit")
        # the full pass wrote a sidecar that the next scan trusts
        assert side.is_file() and not side.is_symlink()
        found, checked = self.counted(monkeypatch, path, self.RUN)
        assert found == want and all(self.KEY in line for line in checked)
        if target is not None:
            assert (path.parent / "elsewhere").read_bytes() == target

    def test_stale_hits_differ_from_the_answer(self, seeded):
        """The same-size edits and the appended line change the answer, so a
        sidecar trusted past them would be seen."""
        path, _ = seeded
        before = self.full(path, self.RUN)
        self.edit_same_size(path, None)
        assert self.full(path, self.RUN)[1] == before[1] + 1
        self.append_line(path, None)
        assert len(self.full(path, self.RUN)[0]) == len(before[0]) + 1
        self.edit_unsplittable(path, None)
        assert self.full(path, self.RUN)[1] == before[1] + 2

    def test_a_load_writes_the_sidecar_a_scan_writes(self, seeded):
        path, data = seeded
        side = self.sidecar(path)
        index = load_stripped(path)
        written = side.read_bytes()
        assert json.loads(written) == {
            "version": 1,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "skipped": self.full(path, self.RUN)[1],
        }
        assert index.skipped_lines > 0
        side.unlink()
        scan_stripped(path, self.RUN)
        assert side.read_bytes() == written
        assert sorted(os.listdir(path.parent)) == [path.name, side.name]

    @pytest.mark.parametrize("block", [7, oeis._BLOCK], ids=["7-byte-blocks", "default-blocks"])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_trusted_clean_dump_is_cut_not_matched(self, tmp_path, monkeypatch, seed, block):
        """With a sidecar that counts no malformed line, a second load
        fullmatches no line, every scan only the lines that hold the query's
        text, and both answer as the oracle does."""
        monkeypatch.setattr(oeis, "_BLOCK", block)
        rng = random.Random(seed)
        data = self.clean_dump(rng)
        path = tmp_path / "dump.txt"
        path.write_bytes(data)
        want = stripped_by_int_tuples(data.decode())
        assert want[1] == 0 and len(want[0]) > 150
        records = [line.strip() for line in dump_lines(data.decode())]
        records = [line for line in records if line and not line.startswith("#")]
        side = self.sidecar(path)
        got, checked = self.loaded(monkeypatch, path, want[0])  # the full pass
        assert got == want and len(checked) == len(want[0])
        written = side.read_bytes()
        inode = side.stat().st_ino
        got, checked = self.loaded(monkeypatch, path, want[0])  # trusted
        assert got == want and checked == []
        hits = 0
        for values in self.queries(rng, want[0]):
            found, checked = self.counted(monkeypatch, path, values)
            assert found == (identify_by_slices(want[0], values), 0), values
            key = oeis._key(values)
            assert checked == [line for line in records if key and key in line]
            hits += bool(found[0])
        assert hits >= 5
        assert (side.read_bytes(), side.stat().st_ino) == (written, inode)

    @pytest.mark.parametrize("block", [7, oeis._BLOCK], ids=["7-byte-blocks", "default-blocks"])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_trusted_clean_load_answers_as_the_full_pass(self, tmp_path, monkeypatch, seed, block):
        """A trusted clean load keeps the dump's lines as its text, comments
        included: ``len``, ``get`` and ``identify_sequence`` answer as the full
        pass, an index built from the oracle's records and the oracle do, also
        for a name or a run that only a comment line holds, and ``get`` of an
        empty, ``#``, blank or newline name ends."""
        monkeypatch.setattr(oeis, "_BLOCK", block)
        rng = random.Random(seed)
        # a run that no record holds: 7 is no term of clean_dump's records
        data = b"#\tA000002 ,7,7,7,7,7,7,\n" + self.clean_dump(rng)
        path = tmp_path / "dump.txt"
        path.write_bytes(data)
        entries, skipped = stripped_by_int_tuples(data.decode())
        assert skipped == 0 and b"#\tA000001 ,1," in data and "A000001" not in entries
        full = load_stripped(path)
        with monkeypatch.context() as patch:
            counting = _CountingRecord()
            patch.setattr(oeis, "_RECORD", counting)
            trusted = load_stripped(path)
        assert counting.lines == []

        present = sorted(entries)
        # only a comment holds it, a proper prefix of a present one, never
        # present, and names that every line, a comment, a blank or a line end holds
        absent = ["A000001", present[0][:-1], "A9999999", "", "#", " ", "\n"]
        want = [entries[a] for a in present] + [None] * len(absent)
        indexes = (full, trusted, OeisIndex(entries))
        got = []

        def gets():
            got.extend([index.get(a) for a in present + absent] for index in indexes)

        reader = threading.Thread(target=gets, daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [want] * 3
        for index in indexes:
            assert (len(index), index.skipped_lines) == (len(entries), 0)
        for values in [*self.queries(rng, entries), [7] * 6]:
            found = identify_by_slices(entries, values)
            assert [index.identify_sequence(values) for index in indexes] == [found] * 3, values

    def test_threads_share_a_fresh_trusted_load(self, tmp_path):
        """Eight threads that call ``get`` and ``len`` at once on a trusted
        load all see the whole dump."""
        rng = random.Random(3)
        lines = [f"A{k:06d} ,{','.join(str(rng.randint(-2, 3)) for _ in range(8))},\n" for k in range(1, 20001)]
        path = tmp_path / "dump.txt"
        path.write_text("".join(lines))
        entries, _ = stripped_by_int_tuples("".join(lines))
        load_stripped(path)  # the full pass writes the sidecar
        index = load_stripped(path)
        names = [*rng.sample(sorted(entries), 500), "A000000", "A0000001"]
        want = (len(entries), [entries.get(a) for a in names])
        start = threading.Barrier(8)
        got = []

        def read():
            start.wait(timeout=30)
            got.append((len(index), [index.get(a) for a in names]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, daemon=True) for _ in range(8)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert got == [want] * 8 and want[0] == 20000

    def test_lookups_keep_no_copy_of_the_records(self, tmp_path):
        """``len`` and ``get`` scan the index's text and keep nothing of it:
        on a trusted load of 1.4 MB of records, ``len`` holds under a third of
        that, and ``len`` with a ``get`` of every record, each read back,
        under 64 KiB."""
        rng = random.Random(5)
        lines = [f"A{k:06d} ,{','.join(str(rng.randrange(10**5, 10**6)) for _ in range(100))},\n" for k in range(1, 2001)]
        path = tmp_path / "dump.txt"
        path.write_text("".join(lines))
        entries, _ = stripped_by_int_tuples("".join(lines))
        load_stripped(path)  # the full pass writes the sidecar
        index = load_stripped(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(index) == 2000
            grown = tracemalloc.get_traced_memory()[0] - before
            assert all(index.get(a) == seq for a, seq in entries.items())
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < path.stat().st_size / 3, grown
        assert kept < 64 * 1024, kept

    def test_a_trusted_load_ends(self, seeded, monkeypatch):
        """A load's key is empty, and so is found at every offset of a block:
        the trusted pass still reads each line once, in blocks of 7 bytes."""
        path, data = seeded
        monkeypatch.setattr(oeis, "_BLOCK", 7)
        want = stripped_by_int_tuples(data.decode("utf-8", "replace"))
        load_stripped(path)  # the full pass
        inode = self.sidecar(path).stat().st_ino
        got = []
        reader = threading.Thread(target=lambda: got.append(self.loaded(monkeypatch, path, want[0])[0]), daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [want]
        assert self.sidecar(path).stat().st_ino == inode  # trusted, not rewritten

    @pytest.mark.parametrize("read", ["load", "scan"])
    @pytest.mark.parametrize("stale", STALE)
    def test_any_doubt_about_a_clean_dump_means_a_full_pass(self, tmp_path, monkeypatch, stale, read):
        """On a dump with no malformed line, whose trusted load keeps the text
        it reads as it is instead of matching its lines: after any doubt, a
        load or a scan answers from a full pass, which rewrites the sidecar."""
        path = tmp_path / "dump.txt"
        path.write_bytes(self.clean_dump(random.Random(5)))
        side = self.sidecar(path)
        load_stripped(path)
        self.STALE[stale](self, path, side)
        target = (path.parent / "elsewhere").read_bytes() if side.is_symlink() else None

        data = path.read_bytes()
        entries, skipped = stripped_by_int_tuples(data.decode())
        every = [line.strip() for line in dump_lines(data.decode())]
        every = [line for line in every if line and not line.startswith("#")]
        if read == "load":
            want, trusted = (entries, skipped), every
            reread = functools.partial(self.loaded, monkeypatch, path, entries)
        else:
            want = (identify_by_slices(entries, self.RUN), skipped)
            trusted = [line for line in every if self.KEY in line]
            reread = functools.partial(self.counted, monkeypatch, path, self.RUN)
        # a scan trusts the sidecar past a same-size edit: it matches the lines
        # that hold the query before the digest sends it to the full pass
        first = trusted + every if read == "scan" and stale.endswith("-edit") else every
        assert reread() == (want, first)
        assert not side.is_symlink() and json.loads(side.read_text()) == {
            "version": 1, "size": len(data), "sha256": hashlib.sha256(data).hexdigest(), "skipped": skipped,
        }
        # the next read trusts it: a scan matches the lines that hold the
        # query, and a load of a clean dump matches none
        assert reread() == (want, [] if read == "load" and skipped == 0 else trusted)
        if target is not None:
            assert (path.parent / "elsewhere").read_bytes() == target

    @pytest.mark.parametrize(
        "text",
        ["A000002 ,1,1,2,5,14,42,132,\nA000002 ,9,9,\n",
         "A000002 ,1,1,2,5,14,42,132,\nA000001 ,9,9,\n"],
        ids=["repeated", "decreasing"],
    )
    def test_only_increasing_a_numbers_get_a_sidecar(self, tmp_path, text):
        path = tmp_path / "dump.txt"
        path.write_text(text)
        assert scan_stripped(path, self.RUN) == self.full(path, self.RUN)
        assert not self.sidecar(path).exists()

    def identify(self, capsys, path):
        code = main(["identify", "--values", ",".join(map(str, self.RUN)), "--oeis", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_read_only_directory(self, seeded, capsys, monkeypatch):
        path, _ = seeded
        want = self.identify(capsys, path)
        self.sidecar(path).unlink()
        path.parent.chmod(0o555)
        try:
            if os.access(path.parent, os.W_OK):  # root: refuse as the directory would
                real_open = os.open

                def refusing(name, flags, *args):
                    if flags & os.O_CREAT:
                        raise PermissionError(13, "Permission denied", name)
                    return real_open(name, flags, *args)

                monkeypatch.setattr(os, "open", refusing)
            assert self.identify(capsys, path) == want
            monkeypatch.undo()
            assert os.listdir(path.parent) == [path.name]
        finally:
            path.parent.chmod(0o755)
        assert want[0] == 0 and "skipped" in want[2]

    def test_non_regular_dump(self, seeded, tmp_path, capsys):
        path, data = seeded
        want = self.identify(capsys, path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as out:
                out.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = self.identify(capsys, fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == (want[0], want[1], want[2].replace(str(path), str(fifo)))
        assert not self.sidecar(fifo).exists()
