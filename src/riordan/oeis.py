"""Sequence identification against a local OEIS "stripped" dump.

One record per line: an A-number, whitespace, then the sequence prefix wrapped
in commas, each term as ``str(int)`` writes it (ASCII digits, no ``+``, no
leading zeros, no ``-0``, at most 4300 digits): ``A000108 ,1,1,2,5,14,42,``.
Other lines but ``#`` comments are skipped and counted; lookups are local.
``identify`` reads a dump in one pass, in memory independent of its size
(:func:`scan_stripped`); :func:`load_stripped` builds an :class:`OeisIndex`,
which keeps the records as dump text, for callers that run many queries, and
answers each query, ``get`` and ``len`` by a scan of that text.
Every read is one loop over raw 64 KiB reads, each hashed if a sidecar is
kept, decoded as UTF-8 with universal newlines and cut at line ends for one
record rule: blank and ``#`` lines skipped, others parsed or counted, a later
record of an A-number replacing an earlier one.

A full pass of either reader checks every line, and over a regular file hashes
the bytes it reads; if the records come in strictly increasing A-number order,
as the OEIS file's do (so no A-number repeats), it then writes a sidecar
``PATH.riordan-index``: ``{"version": 1, "size", "sha256", "skipped"}``, the
dump's byte count, SHA-256 and malformed-line count.  A later read trusts the
sidecar only if it is a regular file (not a symlink) of this user that no group
or other may write, with exactly that schema and the dump's size; it then
hashes the dump again through the same reader, but gives the record rule only
the lines that hold the query (a load gives it all); a load whose sidecar counts
no malformed line keeps the text read as the index's, giving no line to the
rule.  A digest that differs discards that result for a full pass, which
rewrites the sidecar.  Errors on the sidecar are ignored, so deleting it, or a
read-only directory, costs only the full pass.  A dump that is not a regular
file is neither hashed nor given a sidecar.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import os
import re
import stat
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

from .arrays import TriMatrix
from .errors import OeisFormatError, OeisQueryError, Record, shown
from .series import _MAX_LITERAL_DIGITS

# shorter queries match uselessly many entries
MIN_QUERY_VALUES = 6

# a query may start this far into a stored prefix (OEIS offsets vary)
MAX_START_OFFSET = 2

# a term has at most CPython's default int <-> str digits, so get() parses it;
# possessive quantifiers match the same lines: a "," never takes back a digit or "-"
_TERM = rf"(?:0|-?+[1-9][0-9]{{0,{_MAX_LITERAL_DIGITS - 1}}}+)"
_RECORD = re.compile(rf"(A\d+)\s+(,(?:{_TERM},)++)")

_SIDECAR = ".riordan-index"
_SIDECAR_KEYS = {"version", "size", "sha256", "skipped"}
_SHA256 = re.compile("[0-9a-f]{64}")
# ownership and O_NOFOLLOW decide whether a sidecar can be trusted
_SIDECARS = hasattr(os, "getuid") and hasattr(os, "O_NOFOLLOW")
# bytes per raw read of every read of a dump; larger reads were no faster and
# raised a process's peak memory
_BLOCK = 1 << 16


class SequenceMatch(Record):
    __slots__ = ("anumber", "offset")


def _text(values: Sequence[int]) -> str:
    """``values`` as a record writes them: ``,v1,v2,...,``."""
    return ",".join(["", *map(int.__repr__, values), ""])


class OeisIndex:
    """Read-only index over a stripped dump, kept as dump text: blocks of whole
    lines in which every line neither blank nor a ``#`` comment is a record,
    and no A-number repeats.  Every read scans the text and keeps nothing: a
    lookup reads the lines that hold the query's text, ``get`` those that hold
    the A-number, ``len`` every line.  Queries are checked by :func:`query`
    and :func:`triangle_query`, which need no dump.
    """

    def __init__(self, entries: Mapping[str, Sequence[int]]):
        for key, seq in entries.items():  # each key must read back as a record line's first field
            if not isinstance(key, str) or key.split() != [key] or key.startswith("#"):
                raise ValueError(f"{shown(key, repr)} cannot be the A-number of a record line")
            if bad := [v for v in seq if not isinstance(v, int)]:
                raise TypeError(f"record terms are int, got {shown(bad[0], repr)} in {shown(key)}")
        self._text = ["".join(f"{key} {_text(seq)}\n" for key, seq in entries.items())]
        self._skipped = 0

    def __len__(self) -> int:
        return sum(1 for _ in self._records(""))

    @property
    def skipped_lines(self) -> int:
        """Count of malformed lines dropped while loading."""
        return self._skipped

    def _records(self, key: str) -> Iterator[list[str]]:
        """``[A-number, record text]`` of each record line that holds ``key``
        (its A-number may be what holds it), or of every one for ``""``."""
        for block in self._text:
            for line in _holding(block, key) if key else block.split("\n"):
                if (fields := line.split(None, 1)) and fields[0][0] != "#":
                    yield fields

    def get(self, anumber: str) -> tuple[int, ...] | None:
        for name, record in self._records(anumber):
            if name == anumber:
                return tuple(map(int, record.split(",")[1:-1]))
        return None

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
        for anumber, record in self._records(key):
            # the first hit has the smallest offset: the commas before it
            if (at := record.find(key)) >= 0 and (offset := record.count(",", 0, at)) <= MAX_START_OFFSET:
                matches.append(SequenceMatch(anumber, offset))
        return sorted(matches, key=lambda m: (m.offset, m.anumber))

    # kept public: perfbench/tracer.py binds it until the benchmark change of ROADMAP item 9 drops that
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
            raise OeisQueryError(f"query values must be integers, got {shown(v, repr)}")
    return tuple(values)


def triangle_query(m: TriMatrix) -> tuple[int, ...]:
    """The integer entries of a triangle of size >= 3 read by rows (row 0
    first), or OeisQueryError."""
    if m.size < 3:
        raise OeisQueryError(
            "triangle lookup needs size >= 3 (at least "
            f"{MIN_QUERY_VALUES} values)"
        )
    entries = [v for n, row in enumerate(m.rows) for v in row[: n + 1]]
    for v in entries:
        if v.denominator != 1:
            raise OeisQueryError(
                f"matrix entry {shown(v)} is not an integer; OEIS lookup needs "
                "integer entries"
            )
    return tuple(v.numerator for v in entries)


def load_stripped(path: str | Path) -> OeisIndex:
    """Read a stripped dump into an index; malformed lines are skipped and
    counted in ``skipped_lines``.  An unreadable file, or one with no
    parseable record, is an error.  It may write the sidecar
    ``PATH.riordan-index`` (see the module docstring)."""
    return _read(path, "")


def scan_stripped(path: str | Path, values: Sequence[int]) -> tuple[list[SequenceMatch], int]:
    """``load_stripped(path).identify_sequence(values)`` and its ``skipped_lines``,
    in one pass keeping only records that hold the query and are their A-number's last.

    With a trusted sidecar (see the module docstring) the pass parses only the
    lines that hold the query; the full pass writes the sidecar."""
    # universal newlines leave no "\r" in the text read, so no line holds it
    hits = _read(path, _key(values) or "\r")
    return hits.identify_sequence(values), hits.skipped_lines


def _read(path: str | Path, key: str) -> OeisIndex:
    """:func:`_index` of the dump ``path``, from a pass that trusts its sidecar
    or from a full pass, which writes it (see the module docstring)."""
    side = os.fspath(path) + _SIDECAR
    try:
        with open(path, "rb", buffering=0) as raw:
            info = os.fstat(raw.fileno())
            sha = None
            if _SIDECARS and stat.S_ISREG(info.st_mode):
                import hashlib  # loads OpenSSL, ~6 ms and ~4 MiB, which only a sidecar needs

                if known := _trusted(side, info.st_size):
                    hits = _index(raw, path, key, sha := hashlib.sha256(), known)[0]
                    if (raw.tell(), sha.hexdigest()) == (known["size"], known["sha256"]):
                        return hits
                    raw.seek(0)
                sha = hashlib.sha256()
            hits, ordered = _index(raw, path, key, sha)
            if sha and ordered:  # strictly increasing, so no A-number repeats
                doc = {"version": 1, "size": raw.tell(), "sha256": sha.hexdigest(), "skipped": hits.skipped_lines}
                _store(side, doc)
    except OSError as err:  # str(err) names the path again; strerror does not
        reason = err.strerror or shown(err)
        raise OeisFormatError(f"cannot read OEIS dump {shown(path)}: {reason}") from err
    return hits


def _index(raw: io.RawIOBase, path: str | Path, key: str, sha=None, known: dict | None = None) -> tuple[OeisIndex, bool]:
    """The dump ``path``, read from ``raw``, as an index of its records that
    hold ``key`` and are their A-number's last, and whether their A-numbers
    strictly increase; ``sha``, if given, takes every byte read.  Each line goes
    to the record rule, and a dump with no record is an error.  With ``known``,
    a sidecar trusted for these bytes, only the lines that hold ``key`` go to
    the rule (every line for ``""``) and ``skipped_lines`` is the sidecar's; a
    load (``""``) whose sidecar counts 0 keeps the text read as it is."""
    index, text, skipped, ordered, last = OeisIndex({}), [], 0, True, ""
    if known and known["skipped"] == 0 and not key:  # certified clean, with no A-number repeated
        index._text = [*_blocks(raw, sha)]
        return index, True
    for block in _blocks(raw, sha):
        kept = []
        for line in _holding(block, key) if known and key else block.split("\n"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if match := _RECORD.fullmatch(line):
                anumber, record = match.groups()
                ordered, last = ordered and anumber > last, anumber
                if key in record:
                    kept.append(f"{anumber} {record}\n")
                elif not ordered:  # no record: drops an earlier one of the A-number, below
                    kept.append(f"{anumber}\n")
            else:
                skipped += 1
        text.append("".join(kept))
    if not (known or last):
        raise OeisFormatError(f"no parseable records in OEIS dump {shown(path)}")
    if not ordered:  # a later record of an A-number replaces an earlier one
        records = dict(line.partition(" ")[::2] for line in "".join(text).splitlines())
        text = ["".join(f"{anumber} {record}\n" for anumber, record in records.items() if record)]
    index._text, index._skipped = text, known["skipped"] if known else skipped
    return index, ordered


def _blocks(raw: io.RawIOBase, sha=None) -> Iterator[str]:
    """The file ``raw`` in blocks of whole lines, each ending in a newline,
    decoded as open(path, encoding="utf-8", errors="replace") decodes a file,
    universal newlines included; ``sha``, if given, takes every byte read."""
    utf8 = codecs.getincrementaldecoder("utf-8")("replace")
    decode = io.IncrementalNewlineDecoder(utf8, translate=True).decode
    rest = []  # the pieces of a line begun in earlier blocks
    while chunk := raw.read(_BLOCK):
        if sha:
            sha.update(chunk)
        block = decode(chunk)
        cut = block.rfind("\n") + 1
        if cut:
            yield "".join([*rest, block[:cut]])
            rest = []
        rest.append(block[cut:])
    yield "".join([*rest, decode(b"", final=True), "\n"])


def _holding(lines: str, key: str) -> Iterator[str]:
    """The lines among ``lines`` (each ending in a newline) that hold the non-empty ``key``."""
    at = lines.find(key)
    while at >= 0:
        end = lines.find("\n", at)
        yield lines[lines.rfind("\n", 0, at) + 1 : end]
        at = lines.find(key, end + 1)  # past the line end, which a key may start with


def _trusted(side: str, size: int) -> dict | None:
    """The sidecar at ``side`` if it may be trusted for a dump of ``size``
    bytes, else None."""
    try:
        fd = os.open(side, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return None
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None
        doc = json.loads(os.read(fd, 4096))
    except (OSError, ValueError, RecursionError):  # RecursionError: nested JSON
        return None
    finally:
        os.close(fd)
    if (
        type(doc) is dict
        and doc.keys() == _SIDECAR_KEYS
        and all(type(doc[k]) is int and doc[k] >= 0 for k in ("version", "size", "skipped"))
        and (doc["version"], doc["size"]) == (1, size)
        and type(doc["sha256"]) is str
        and _SHA256.fullmatch(doc["sha256"])
    ):
        return doc
    return None


def _store(side: str, doc: dict) -> None:
    """Write the sidecar ``doc`` to ``side`` atomically, or leave it be on any
    OSError; the file is created 0644 (less under the umask), as trust needs."""
    tmp = f"{side}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError:  # a read-only directory, or the name is taken
        return
    try:
        with open(fd, "w", encoding="ascii") as out:
            out.write(json.dumps(doc))
        os.replace(tmp, side)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
