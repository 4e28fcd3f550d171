"""Tests of the benchmark itself: seeded inputs, tracing and the gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import dump  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from checks import Case  # noqa: E402

SMALL = ["verify", "--family", "catalan", "--n", "2..3", "--size", "8", "--json"]


def _run(argv: list[str], work: Path):
    return run.run_case(argv, work, time.monotonic() + 120)


def test_same_seed_gives_same_dump_bytes():
    first, planted = dump.generate(5, records=3000)
    again, planted_again = dump.generate(5, records=3000)
    other, _ = dump.generate(6, records=3000)
    assert first == again and planted == planted_again
    assert first != other


def test_dump_plants_fixture_sequences_and_decoys(tmp_path):
    from riordan.oeis import load_stripped

    data, planted = dump.generate(9, records=3000)
    path = tmp_path / "stripped.txt"
    path.write_bytes(data)
    index = load_stripped(path)
    assert len(index) == 3000 and index.skipped_lines == 0
    catalan = dump.fixture_sequences()["A000108"]
    anumber, offset = planted["A000108"]
    assert index.get(anumber)[offset:] == tuple(catalan)
    matches = index.identify_sequence(catalan[:9])
    assert [(m.anumber, m.offset) for m in matches] == [(anumber, offset)]
    sharing_key = data.count(b"," + ",".join(map(str, catalan[:6])).encode() + b",")
    assert sharing_key == dump.DECOYS_PER_KEY + 1


def test_tracing_leaves_results_unchanged(tmp_path):
    spans = tmp_path / "spans.json"
    plain = _run([sys.executable, "-c", run.CLI, *SMALL], tmp_path)
    traced = _run([sys.executable, str(run.TRACER), str(spans), *SMALL], tmp_path)
    assert plain.code == traced.code == 0
    assert plain.out == traced.out
    record = json.loads(spans.read_text())
    names = {span[0] for span in record["spans"]}
    assert {"cli.main", "series.revert", "production.compare"} <= names
    job = run.Job(spans=[record])
    metrics = run.layer_metrics(job)
    assert metrics["production.compare.calls"][0] == 2
    assert metrics["series.revert.calls"][0] >= 2


def test_self_time_subtracts_child_spans():
    record = {
        "spans": [["cli.main", 0, 100, -1], ["series.revert", 10, 70, 0], ["series.mul", 20, 30, 1]],
        "counters": {},
    }
    metrics = run.layer_metrics(run.Job(spans=[record]))
    assert metrics["cli.main.self_s"][0] == 40e-9
    assert metrics["series.revert.self_s"][0] == 50e-9
    assert metrics["series.mul.self_s"][0] == 10e-9


def test_corrupted_output_is_counted_as_failed(tmp_path):
    case = Case("small", SMALL, checks.verify_n_oracle(2, run.a092276_entry))
    done = _run([sys.executable, "-c", run.CLI, *SMALL], tmp_path)
    code, out, err = done.code, done.out, done.err
    good = checks.check(case, code, out, err, None)
    assert good.failure is None
    recorded = {"result": good.result_digest, "stdout": good.stdout_digest}
    assert checks.check(case, code, out, err, recorded).failure is None

    doc = json.loads(out)
    doc["reports"][0]["produced"][3][1] = "999"
    doc["reports"][0]["closed_form"][3][1] = "999"
    corrupted = json.dumps(doc, indent=2).encode()
    assert checks.check(case, code, corrupted, err, recorded).failure  # digest
    assert checks.check(case, code, corrupted, err, None).failure  # oracle
    assert checks.check(case, 2, out, err, recorded).failure
    assert checks.check(case, code, out, b"Traceback (most recent call last):\n", recorded).failure
    assert checks.check(case, code, out[:-40], err, recorded).failure


def test_speed_probe_scales_by_reference_time():
    probe = speed.SpeedProbe()
    probe.samples = [(0.0, 2 * speed.REFERENCE_S), (1.0, 1.0 + 2 * speed.REFERENCE_S),
                     (2.0, 2.0 + 2 * speed.REFERENCE_S), (3.0, 3.0 + speed.REFERENCE_S)]
    assert probe.scale(0.0, 2.5) == pytest.approx(0.5)  # three samples inside, half speed
    assert probe.scale(2.9, 3.01) == pytest.approx(0.6)  # too short: nearest three samples


def _verify_doc(produced, closed, equal):
    report = {"n": 2, "produced": produced, "closed_form": closed, "equal": equal}
    return {"reports": [report], "all_equal": equal}


def test_verdict_rule_allows_only_the_scalar_exception():
    a = [["1", "0"], ["2", "1"]]
    scaled = [["6", "0"], ["12", "6"]]
    other = [["1", "0"], ["3", "1"]]
    assert checks.verdict_problem(_verify_doc(a, a, True), 0) is None
    assert checks.verdict_problem(_verify_doc(a, scaled, False), 1) is None
    assert checks.verdict_problem(_verify_doc(a, scaled, True), 0) is None
    assert checks.verdict_problem(_verify_doc(a, other, True), 0)
    assert checks.verdict_problem(_verify_doc(a, a, False), 1)
    assert checks.verdict_problem(_verify_doc(a, other, False), 0)
