import pytest

from riordan import (
    MIN_QUERY_VALUES,
    OeisFormatError,
    OeisQueryError,
    SequenceMatch,
    TruncatedSeries,
    RiordanElement,
    a085478_element,
    catalan_array,
    load_stripped,
    pascal,
)


@pytest.fixture(scope="module")
def index(oeis_fixture_path):
    return load_stripped(oeis_fixture_path)


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
