"""Seeded synthetic OEIS "stripped" dump for the ``identify-cli`` workload.

The dump is built from the sequences in ``tests/data/oeis_stripped.txt``:
each is extended by its closed formula (the fixture prefix must agree), then
planted under a fresh A-number behind ``offset`` random leading terms.  Around
them sit random background records and, for every probe key a workload query
uses, decoys that share the key's six terms and then diverge within three
terms, so a lookup has to compare them in full and reject them.  Stdlib only;
the same seed gives the same bytes.

    python3 perfbench/dump.py --seed 7 --out dump.txt
"""

from __future__ import annotations

import argparse
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "oeis_stripped.txt"

RECORDS = 100_000
DECOYS_PER_KEY = 400
PROBE = 6          # riordan.oeis.MIN_QUERY_VALUES
MAX_OFFSET = 2     # riordan.oeis.MAX_START_OFFSET
TRIANGLE_ROWS = 12
SEQUENCE_TERMS = 30


def _triangle(entry):
    return [entry(n, k) for n in range(TRIANGLE_ROWS) for k in range(n + 1)]


def _fibonacci(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


# closed formulas, independent of the library, for every fixture A-number
FORMULAS = {
    "A000012": lambda: [1] * SEQUENCE_TERMS,
    "A000045": lambda: _fibonacci(SEQUENCE_TERMS),
    "A000108": lambda: [math.comb(2 * n, n) // (n + 1) for n in range(SEQUENCE_TERMS)],
    "A007318": lambda: _triangle(math.comb),
    "A033184": lambda: _triangle(
        lambda n, k: (k + 1) * math.comb(2 * n - k, n - k) // (n + 1)
    ),
    "A085478": lambda: _triangle(lambda n, k: math.comb(n + k, 2 * k)),
    "A092276": lambda: _triangle(
        lambda n, k: 2 * (k + 1) * math.comb(3 * n - k + 2, n - k) // (3 * n - k + 2)
    ),
}

# planted offsets are fixed so normalized outputs do not depend on the seed
OFFSETS = {name: i % (MAX_OFFSET + 1) for i, name in enumerate(sorted(FORMULAS))}

# fixture sequences that workload queries look up; each gets decoys
QUERIED = ("A000108", "A007318", "A033184", "A085478")


def fixture_sequences(path: Path = FIXTURE) -> dict[str, list[int]]:
    """Fixture records extended by formula; raises if a prefix disagrees."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        anumber, body = line.split(None, 1)
        prefix = [int(v) for v in body.strip(",").split(",")]
        full = FORMULAS[anumber]()
        if full[: len(prefix)] != prefix:
            raise ValueError(f"formula for {anumber} disagrees with the fixture")
        out[anumber] = full
    return out


def _random_terms(rng: random.Random, count: int) -> list[int]:
    digits = rng.randint(1, 12)
    sign = -1 if rng.random() < 0.1 else 1
    return [sign * rng.randrange(10**digits) for _ in range(count)]


def _windows(seq: list[int]) -> list[tuple[int, ...]]:
    return [tuple(seq[o : o + PROBE]) for o in range(MAX_OFFSET + 1)]


def generate(seed: int, records: int = RECORDS) -> tuple[bytes, dict[str, tuple[str, int]]]:
    """Dump text and the plant map {fixture A-number: (planted A-number, offset)}.

    ``records`` is only lowered by the tests, to keep them fast."""
    rng = random.Random(seed)
    sequences = fixture_sequences()
    reserved = {int(name[1:]) for name in sequences}
    numbers = sorted(
        rng.sample([k for k in range(1, 4 * records) if k not in reserved], records)
    )
    anumbers = [f"A{k:06d}" for k in numbers]
    slots = rng.sample(range(records), len(sequences) + DECOYS_PER_KEY * len(QUERIED))

    body: dict[int, list[int]] = {}
    planted = {}
    for slot, name in zip(slots, sorted(sequences)):
        offset = OFFSETS[name]
        body[slot] = _random_terms(rng, offset) + sequences[name]
        planted[name] = (anumbers[slot], offset)

    protected = set()
    decoy_slots = iter(slots[len(sequences) :])
    for name in QUERIED:
        true = sequences[name]
        protected.add(tuple(true[:PROBE]))
        for _ in range(DECOYS_PER_KEY):
            split = PROBE + rng.randrange(3)
            wrong = true[split] + rng.choice((-1, 1)) * rng.randint(1, 10**6)
            tail = _random_terms(rng, rng.randint(4, 30))
            lead = _random_terms(rng, rng.randint(0, MAX_OFFSET))
            body[next(decoy_slots)] = lead + true[:split] + [wrong] + tail

    lines = []
    for slot, anumber in enumerate(anumbers):
        seq = body.get(slot)
        while seq is None or (slot not in body and protected.intersection(_windows(seq))):
            seq = _random_terms(rng, rng.randint(8, 60))
        lines.append(f"{anumber} ,{','.join(map(str, seq))},\n")
    header = f"# synthetic stripped dump, seed {seed}, {records} records\n"
    return (header + "".join(lines)).encode("ascii"), planted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    data, planted = generate(args.seed)
    args.out.write_bytes(data)
    for name, (anumber, offset) in sorted(planted.items()):
        print(f"{name} -> {anumber} (offset {offset})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
