"""Correctness gate for one case of the benchmark.

A case fails when its process exits with 2, prints a traceback, or exits
with 1 for any command but ``verify``; when the digest of its computed
matrices or match lists differs from the one recorded in ``digests.json``;
when an exact oracle disagrees; or when ``verify``'s verdict disagrees with
an entrywise comparison of the two matrices it printed.  The one tolerated
disagreement is a pair of matrices that differ by the (0, 0) scalar alone:
the closed form of a non-normalized element carries g(0)*f'(0)^(n-1), which
the generated matrix does not, and either verdict is accepted for it.

The digest covers results only, so a new field in the JSON document is not a
failure; a changed whole-stdout digest is counted separately.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Matrix = list[list[Fraction]]
Oracle = Callable[[dict], "str | None"]


@dataclass
class Case:
    """One CLI invocation; ``key`` names its recorded digests."""

    key: str
    argv: list[str]
    oracle: Oracle | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Outcome:
    failure: str | None
    stdout_digest: str
    result_digest: str | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix(entries: list[list[str]]) -> Matrix:
    return [[Fraction(v) for v in row] for row in entries]


def result_payload(command: str, doc: dict):
    """The computed part of a CLI JSON document, without echoes or verdicts."""
    if command == "verify":
        return [[r["produced"], r["closed_form"]] for r in doc["reports"]]
    if command == "prod":
        return doc["production_matrix"]
    if command == "family":
        keys = ("matrix", "production_matrix", "polynomial_rows", "iterates")
        return {k: doc[k] for k in keys if k in doc}
    if command == "identify":
        return {"values": doc["values"], "matches": doc["matches"]}
    raise ValueError(f"no payload rule for command {command!r}")


def result_digest(command: str, doc: dict) -> str:
    payload = result_payload(command, doc)
    return sha256(json.dumps(payload, sort_keys=True).encode())


def scalar_multiple(a: Matrix, b: Matrix) -> bool:
    """True when b = (b00 / a00) * a entrywise."""
    if not a[0][0]:
        return False
    scale = b[0][0] / a[0][0]
    return all(x * scale == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def verdict_problem(doc: dict, returncode: int) -> str | None:
    """Check each verify verdict against an entrywise comparison."""
    for report in doc["reports"]:
        produced = matrix(report["produced"])
        closed = matrix(report["closed_form"])
        equal = produced == closed
        if report["equal"] != equal and (equal or not scalar_multiple(produced, closed)):
            return f"n={report['n']}: verdict {report['equal']} but entries say {equal}"
    all_equal = all(r["equal"] for r in doc["reports"])
    if doc["all_equal"] != all_equal or returncode != (0 if all_equal else 1):
        return f"all_equal={doc['all_equal']} with exit {returncode}"
    return None


def check(
    case: Case,
    returncode: int,
    stdout: bytes,
    stderr: bytes,
    recorded: dict | None,
    rename: dict[str, str] | None = None,
) -> Outcome:
    """Apply the correctness gate to one finished case.

    ``rename`` maps seeded A-numbers back to the fixture's, so that digests
    of ``identify`` output do not depend on the dump's seed.  With
    ``recorded`` None the digests are not compared (used when recording).
    """
    for seeded, fixed in (rename or {}).items():
        stdout = stdout.replace(seeded.encode(), fixed.encode())
    outcome = Outcome(None, sha256(stdout))
    if b"Traceback (most recent call last)" in stderr:
        outcome.failure = "traceback"
    elif returncode not in (0, 1) or (returncode == 1 and case.command != "verify"):
        outcome.failure = f"exit {returncode}"
    if outcome.failure:
        return outcome
    try:
        doc = json.loads(stdout)
        outcome.result_digest = result_digest(case.command, doc)
        if case.command == "verify":
            outcome.failure = verdict_problem(doc, returncode)
        if not outcome.failure and recorded is not None and recorded.get("result") != outcome.result_digest:
            outcome.failure = "result digest differs from the recorded one"
        if not outcome.failure and case.oracle is not None:
            outcome.failure = case.oracle(doc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        outcome.failure = f"unreadable output: {err!r}"
    return outcome


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def triangle_oracle(entry: Callable[[int, int], Fraction], pick: Callable[[dict], list]) -> Oracle:
    """Every lower-triangle entry of each picked matrix equals ``entry``."""

    def oracle(doc: dict) -> str | None:
        for entries in pick(doc):
            m = matrix(entries)
            for i, row in enumerate(m):
                for j in range(i + 1):
                    if row[j] != entry(i, j):
                        return f"entry ({i}, {j}) is {row[j]}, oracle says {entry(i, j)}"
        return None

    return oracle


def verify_n_oracle(n: int, entry: Callable[[int, int], Fraction]) -> Oracle:
    """Both matrices of the verify report for ``n`` match the closed entries."""

    def pick(doc: dict) -> list:
        (report,) = [r for r in doc["reports"] if r["n"] == n]
        return [report["produced"], report["closed_form"]]

    return triangle_oracle(entry, pick)


def production_oracle(n: int, full: Callable[[], Matrix]) -> Oracle:
    """M_lead * P == M[n:n+s, n-1:n-1+s], with M = ``full()`` of size s+n."""

    def oracle(doc: dict) -> str | None:
        p = matrix(doc["production_matrix"])
        s = len(p)
        m = full()
        for i in range(s):
            for j in range(s):
                lhs = sum((m[i][k] * p[k][j] for k in range(s)), Fraction(0))
                if lhs != m[n + i][n - 1 + j]:
                    return f"(M_lead P)[{i}][{j}] = {lhs}, M[{n + i}][{n - 1 + j}] = {m[n + i][n - 1 + j]}"
        return None

    return oracle


def matches_oracle(expected: list[tuple[str, int]]) -> Oracle:
    """The lookup returns exactly ``expected`` as (A-number, offset) pairs."""

    def oracle(doc: dict) -> str | None:
        got = [(m["anumber"], m["offset"]) for m in doc["matches"]]
        return None if got == expected else f"matches {got}, expected {expected}"

    return oracle
