"""Sequence identification against a local OEIS "stripped" dump.

One record per line: an A-number, whitespace, then the sequence prefix wrapped
in commas, each term as ``str(int)`` writes it (ASCII digits, no ``+``, no
leading zeros, no ``-0``, at most 4300 digits): ``A000108 ,1,1,2,5,14,42,``.
Other lines but ``#`` comments are skipped and counted; lookups are local.
``identify`` reads a dump once, line by line, in memory independent of its
size (:func:`scan_stripped`); :func:`load_stripped` builds an :class:`OeisIndex`
for callers that run many queries.  Both read this grammar through one reader.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .arrays import TriMatrix
from .errors import OeisFormatError, OeisQueryError, Record
from .series import _MAX_LITERAL_DIGITS

# shorter queries match uselessly many entries
MIN_QUERY_VALUES = 6

# a query may start this far into a stored prefix (OEIS offsets vary)
MAX_START_OFFSET = 2

# a term has at most CPython's default int <-> str digits, so get() parses it;
# possessive quantifiers match the same lines: a "," never takes back a digit or "-"
_TERM = rf"(?:0|-?+[1-9][0-9]{{0,{_MAX_LITERAL_DIGITS - 1}}}+)"
_RECORD = re.compile(rf"(A\d+)\s+(,(?:{_TERM},)++)")


class SequenceMatch(Record):
    __slots__ = ("anumber", "offset")

    def __init__(self, anumber: str, offset: int):
        super().__init__(anumber, offset)


def _text(values: Sequence[int]) -> str:
    """``values`` as a record writes them: ``,v1,v2,...,``."""
    return ",".join(["", *map(int.__repr__, values), ""])


class OeisIndex:
    """Read-only index over a stripped dump, each record kept as its text.

    Built once; safe to share between threads afterwards.  Queries are checked
    by :func:`query` and :func:`triangle_query`, which need no dump.
    """

    def __init__(self, entries: Mapping[str, Sequence[int]]):
        self._records = {key: _text(seq) for key, seq in entries.items()}
        self._skipped = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def skipped_lines(self) -> int:
        """Count of malformed lines dropped while loading."""
        return self._skipped

    def get(self, anumber: str) -> tuple[int, ...] | None:
        text = self._records.get(anumber)
        return None if text is None else tuple(map(int, text.split(",")[1:-1]))

    def _read(self, path: str | Path) -> Iterator[tuple[str, str]]:
        """Yield ``(A-number, text)`` per record of a dump, counting malformed lines."""
        found = False
        try:
            with open(path, encoding="utf-8", errors="replace") as lines:
                for line in lines:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if match := _RECORD.fullmatch(line):
                        found = True
                        yield match.group(1, 2)
                    else:
                        self._skipped += 1
        except OSError as err:
            raise OeisFormatError(f"cannot read OEIS dump {path}: {err}") from err
        if not found:
            raise OeisFormatError(f"no parseable records in OEIS dump {path}")

    def identify_sequence(self, values: Sequence[int]) -> list[SequenceMatch]:
        """Entries whose stored prefix contains ``values`` as a contiguous
        run starting at offset 0, 1 or 2.

        ``values`` must pass :func:`query`.  Each A-number is reported once,
        at its smallest matching offset, sorted by (offset, A-number).
        """
        key = _key(values)
        if key is None:
            return []
        matches = []
        for anumber, text in self._records.items():
            # the first hit has the smallest offset: the commas before it
            at = text.find(key)
            if at >= 0 and (offset := text.count(",", 0, at)) <= MAX_START_OFFSET:
                matches.append(SequenceMatch(anumber, offset))
        return sorted(matches, key=lambda m: (m.offset, m.anumber))

    def identify_triangle(self, m: TriMatrix) -> list[SequenceMatch]:
        """Identify a triangle read by rows; see :func:`triangle_query`."""
        return self.identify_sequence(triangle_query(m))


def _key(values: Sequence[int]) -> str | None:
    """The record text of a :func:`query`, or None."""
    try:
        return _text(query(values))
    except ValueError:  # str() refuses so wide a term; no record holds one
        return None


def query(values: Sequence[int]) -> tuple[int, ...]:
    """``values`` as a lookup query, a tuple of at least ``MIN_QUERY_VALUES``
    ints, or OeisQueryError."""
    if len(values) < MIN_QUERY_VALUES:
        raise OeisQueryError(
            f"need at least {MIN_QUERY_VALUES} values to identify a "
            f"sequence, got {len(values)}"
        )
    for v in values:
        if not isinstance(v, int):
            raise OeisQueryError(f"query values must be integers, got {v!r}")
    return tuple(values)


def triangle_query(m: TriMatrix) -> tuple[int, ...]:
    """The integer entries of a triangle of size >= 3 read by rows (row 0
    first), or OeisQueryError."""
    if m.size < 3:
        raise OeisQueryError(
            "triangle lookup needs size >= 3 (at least "
            f"{MIN_QUERY_VALUES} values)"
        )
    entries = [v for row in m.lower_rows() for v in row]
    for v in entries:
        if v.denominator != 1:
            raise OeisQueryError(
                f"matrix entry {v} is not an integer; OEIS lookup needs "
                "integer entries"
            )
    return tuple(v.numerator for v in entries)


def load_stripped(path: str | Path) -> OeisIndex:
    """Read a stripped dump into an index, one line at a time; malformed
    lines are skipped and counted in ``skipped_lines``.  An unreadable file,
    or one with no parseable record, is an error."""
    index = OeisIndex({})  # filled below with record text, which needs no render
    index._records.update(index._read(path))
    return index


def scan_stripped(path: str | Path, values: Sequence[int]) -> tuple[list[SequenceMatch], int]:
    """``load_stripped(path).identify_sequence(values)`` and its ``skipped_lines``,
    in one pass keeping only records that hold the query and are their A-number's last."""
    key = _key(values)
    hits = OeisIndex({})
    for anumber, text in hits._read(path):
        hits._records.pop(anumber, None)  # a later record replaces an earlier one
        if key and key in text:
            hits._records[anumber] = text
    return hits.identify_sequence(values), hits.skipped_lines
