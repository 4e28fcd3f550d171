"""Sequence identification against a local OEIS "stripped" dump.

The stripped format is one record per line: an A-number, a space, then the
sequence prefix wrapped in commas, e.g. ``A000108 ,1,1,2,5,14,42,``.  Lines
starting with ``#`` are comments.  Lookups are purely local; there is no
network access.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .arrays import TriMatrix
from .errors import OeisFormatError, OeisQueryError

# shorter queries match uselessly many entries
MIN_QUERY_VALUES = 6

# a query may start this far into a stored prefix (OEIS offsets vary)
MAX_START_OFFSET = 2

_RECORD = re.compile(r"^(A\d+)\s+,(.*),$")


@dataclass(frozen=True)
class SequenceMatch:
    anumber: str
    offset: int


class OeisIndex:
    """Read-only index over a stripped dump.

    Built once; safe to share between threads afterwards.  A lookup scans
    every entry: a process typically loads a dump for one lookup, and one
    scan costs less than building a table keyed by prefixes would.  Queries
    are checked by :func:`query` and :func:`triangle_query`, which need no dump.
    """

    def __init__(self, entries: Mapping[str, Sequence[int]], skipped_lines: int = 0):
        self._entries = {key: tuple(seq) for key, seq in entries.items()}
        self._skipped = skipped_lines

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def skipped_lines(self) -> int:
        """Count of malformed lines dropped while loading."""
        return self._skipped

    def get(self, anumber: str) -> tuple[int, ...] | None:
        return self._entries.get(anumber)

    def identify_sequence(self, values: Sequence[int]) -> list[SequenceMatch]:
        """Entries whose stored prefix contains ``values`` as a contiguous
        run starting at offset 0, 1 or 2.

        ``values`` must pass :func:`query`.  Each A-number is reported once,
        at its smallest matching offset; results are sorted by (offset,
        A-number).  The run must fit entirely inside the stored prefix.
        """
        values = query(values)
        matches = []
        for anumber, stored in self._entries.items():
            for offset in range(MAX_START_OFFSET + 1):
                if stored[offset : offset + len(values)] == values:
                    matches.append(SequenceMatch(anumber, offset))
                    break
        return sorted(matches, key=lambda m: (m.offset, m.anumber))

    def identify_triangle(self, m: TriMatrix) -> list[SequenceMatch]:
        """Identify a triangle read by rows; see :func:`triangle_query`."""
        return self.identify_sequence(triangle_query(m))


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
    """Parse a stripped dump into an index.

    Comment lines are ignored; malformed lines are skipped and counted in
    ``skipped_lines``.  An unreadable file, or one with no parseable record,
    is an error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        raise OeisFormatError(f"cannot read OEIS dump {path}: {err}") from err
    entries: dict[str, tuple[int, ...]] = {}
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _RECORD.match(line)
        if not match:
            skipped += 1
            continue
        anumber, body = match.groups()
        try:
            seq = tuple(int(part) for part in body.split(","))
        except ValueError:
            skipped += 1
            continue
        entries[anumber] = seq
    if not entries:
        raise OeisFormatError(f"no parseable records in OEIS dump {path}")
    return OeisIndex(entries, skipped_lines=skipped)
