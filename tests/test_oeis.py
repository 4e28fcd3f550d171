import random
import sys

import pytest

from helpers import RECORD_ORACLE, identify_by_slices, stripped_by_int_tuples
from riordan import (
    MIN_QUERY_VALUES,
    OeisFormatError,
    OeisIndex,
    OeisQueryError,
    SequenceMatch,
    TruncatedSeries,
    RiordanElement,
    a085478_element,
    catalan_array,
    load_stripped,
    pascal,
)
from riordan.oeis import _RECORD, scan_stripped


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
            2 * TruncatedSeries.one(4), TruncatedSeries([0, 1, 1], 4) / 2
        )
        with pytest.raises(OeisQueryError):
            index.identify_triangle(half.matrix(4))

    def test_matches_flattened_sequence_lookup(self, index):
        m = catalan_array(7).matrix(6)
        flat = [c.numerator for row in m.lower_rows() for c in row]
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
