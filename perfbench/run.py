"""End-to-end benchmark of the ``riordan`` CLI.

    python3 perfbench/run.py --workload verify-family --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record      # rewrite digests.json at this commit

Each workload is a fixed list of real CLI invocations.  A *job* runs the whole
list once, one case after another, each in a fresh interpreter started the
way the ``riordan`` entry point starts.  Jobs repeat (a closed loop, one
client) until ``--seconds`` have passed; every metric is the median over the
run's jobs, and times are in reference seconds (see ``speed.py``).  A job
longer than ``--seconds`` makes the run a single job, so its metrics are that
job's.  The seed shuffles the case order and, for ``identify-cli``,
generates the OEIS dump; it never changes the amount of work.

Every case goes through the correctness gate in ``checks.py``.  With
``--trace 1`` the run alternates untraced jobs with jobs whose cases run
under ``tracer.py`` and reports per-layer counts and self times instead.
The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

import checks
import dump
from checks import Case
from speed import SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACER = HERE / "tracer.py"

CLI = "import sys; from riordan.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = "import sys, riordan.cli"
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = {"verify-family": 15, "prod-rational": 15, "identify-cli": 3}

if not (SRC / "riordan" / "cli.py").is_file():
    print(f"perfbench: no riordan sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
try:
    from riordan.families import (
        a085478_second_entry,
        a092276_entry,
        family_element,
        moment_entry,
    )
    from riordan.gfexpr import evaluate_text
    from riordan.arrays import RiordanElement
    from tracer import LAYERS
except ImportError as err:
    print(f"perfbench: cannot import riordan from {SRC}: {err}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@cache
def element_matrix(spec: tuple[str, ...], size: int) -> checks.Matrix:
    """Matrix of an element named as on the command line, for the oracles."""
    order = size + 2
    if spec[0] == "--family":
        element = family_element(spec[1], order)
    else:
        element = RiordanElement(evaluate_text(spec[1], order), evaluate_text(spec[3], order))
    return [list(row) for row in element.matrix(size).rows]


def verify_family(seed: int, work: Path) -> tuple[list[Case], dict]:
    verify = ["--n", "2..5", "--size", "32", "--json"]
    half = Fraction(1, 2)
    cases = [
        Case("verify catalan", ["verify", "--family", "catalan", *verify],
             checks.verify_n_oracle(2, a092276_entry)),
        Case("verify a085478", ["verify", "--family", "a085478", *verify],
             checks.verify_n_oracle(2, a085478_second_entry)),
        Case("verify binomial:2", ["verify", "--family", "binomial:2", *verify],
             checks.verify_n_oracle(2, lambda n, k: moment_entry(2, n, k))),
        Case("verify 2+x 3x/(1-x)", ["verify", "--g", "2+x", "--f", "3*x/(1-x)", *verify]),
        Case("family moment:1/2", ["family", "moment:1/2", "--size", "24", "--iterate", "4", "--json"],
             checks.triangle_oracle(lambda n, k: moment_entry(half, n, k), lambda d: [d["matrix"]])),
    ]
    return cases, {}


def prod_rational(seed: int, work: Path) -> tuple[list[Case], dict]:
    size = 36
    elements = [
        (("--family", "binomial:2/3"), 2),
        (("--family", "moment:1/2"), 3),
        (("--g", "3/(3-x)", "--f", "2*x/(1-x/5)"), 1),
        (("--family", "catalan"), 2),
    ]
    cases = [
        Case(
            f"prod {' '.join(spec[1::2])} n={n}",
            ["prod", *spec, "--n", str(n), "--size", str(size), "--json"],
            checks.production_oracle(n, lambda spec=spec, n=n: element_matrix(spec, size + n)),
        )
        for spec, n in elements
    ]
    return cases, {}


IDENTIFY_QUERIES = [
    # (key, element or values arguments, fixture A-number found, or None)
    ("identify catalan 8", ["--family", "catalan", "--size", "8"], "A033184"),
    ("identify a085478 10", ["--family", "a085478", "--size", "10"], "A085478"),
    ("identify pascal 9", ["--family", "pascal", "--size", "9"], "A007318"),
    ("identify 1/(1-x) x/(1-x) 6", ["--g", "1/(1-x)", "--f", "x/(1-x)", "--size", "6"], "A007318"),
    ("identify values catalan", ["--values", "1,1,2,5,14,42,132,429,1430"], "A000108"),
    # shares the Catalan probe key and its decoys, differs in the last term
    ("identify values miss",
     ["--values", "1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,2674441"], None),
]


def identify_cli(seed: int, work: Path) -> tuple[list[Case], dict]:
    data, planted = dump.generate(seed)
    path = work / "stripped.txt"
    path.write_bytes(data)
    cases = [
        Case(
            key,
            ["identify", *args, "--oeis", str(path), "--json"],
            checks.matches_oracle([(name, planted[name][1])] if name else []),
        )
        for key, args, name in IDENTIFY_QUERIES
    ]
    # outputs are checked with planted A-numbers mapped back to the fixture's
    rename = {anumber: name for name, (anumber, _) in planted.items()}
    setup = f"{IMPORT}\nfrom riordan.oeis import load_stripped\nload_stripped({str(path)!r})"
    return cases, {"rename": rename, "setup": setup}


WORKLOADS = {
    "verify-family": verify_family,
    "prod-rational": prod_rational,
    "identify-cli": identify_cli,
}


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------

def case_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Finished:
    """One finished process: exit code, output, its span and rusage."""

    code: int
    out: bytes
    err: bytes
    start: float
    end: float
    usage: object

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime


def run_case(argv: list[str], work: Path, deadline: float) -> Finished:
    """Run one process to completion, killing it at ``deadline`` (monotonic)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=case_env(), cwd=work)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), start, end, usage)


@dataclass
class Job:
    """One pass over a workload's cases; times are in reference seconds."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    output_bytes: int = 0
    outcomes: list[checks.Outcome] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


@dataclass
class Session:
    """What every case of one benchmark run shares."""

    work: Path
    deadline: float
    probe: SpeedProbe
    recorded: dict | None  # None while recording digests
    rename: dict[str, str] = field(default_factory=dict)

    def run_job(self, cases: list[Case], traced: bool) -> Job:
        job = Job()
        for i, case in enumerate(cases):
            spans_path = self.work / f"spans{i}.json"
            if traced:
                argv = [sys.executable, str(TRACER), str(spans_path), *case.argv]
            else:
                argv = [sys.executable, "-c", CLI, *case.argv]
            done = run_case(argv, self.work, self.deadline)
            scale = self.probe.scale(done.start, done.end)
            job.raw_wall_s += done.end - done.start
            job.wall_s += (done.end - done.start) * scale
            job.cpu_s += done.cpu_s * scale
            job.peak_rss_mib = max(job.peak_rss_mib, done.usage.ru_maxrss / 1024)
            job.output_bytes += len(done.out)
            expected = None if self.recorded is None else self.recorded.get(case.key, {})
            outcome = checks.check(case, done.code, done.out, done.err, expected, self.rename)
            if outcome.failure:
                print(f"FAILED {case.key}: {outcome.failure}", file=sys.stderr)
            job.outcomes.append(outcome)
            if traced:
                record = {"spans": [], "counters": {}}
                if spans_path.exists():
                    record = json.loads(spans_path.read_text())
                    spans_path.unlink()
                record["scale"] = scale
                job.spans.append(record)
        return job

    def time_setup(self, code: str) -> float:
        """Reference seconds from spawning a fresh interpreter until ``code`` has run."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", f"{code}\nsys.stdout.write('.')\nsys.stdout.flush()"],
            stdout=subprocess.PIPE, env=case_env(), cwd=self.work,
        )
        with proc:
            ready = proc.stdout.read(1)
            end = time.perf_counter()
            proc.stdout.read()
            proc.wait()
        if ready != b"." or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        return (end - start) * self.probe.scale(start, end)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(job: Job) -> dict[str, tuple[float, str]]:
    """Per-layer calls and self seconds (reference seconds), summed over the
    job's cases."""
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, int] = {}
    for record in job.spans:
        spans = record["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), children in zip(spans, child_ns):
            calls[name] += 1
            self_s[name] += (end - start - children) / 1e9 * record.get("scale", 1.0)
        for key, value in record["counters"].items():
            merge = max if key == "series.max_bits" else int.__add__
            counters[key] = merge(counters.get(key, 0), value)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    get = counters.get
    out["series.revert.order_sum"] = (get("series.revert.order_sum", 0), "count")
    out["series.max_bits"] = (get("series.max_bits", 0), "bits")
    out["arrays.frev_hit_ratio"] = (ratio(get("arrays.frev_hits", 0), get("arrays.frev_calls", 0)), "ratio")
    out["production.mismatches"] = (get("production.mismatches", 0), "count")
    out["oeis.records"] = (get("oeis.records", 0), "count")
    out["oeis.bytes"] = (get("oeis.bytes", 0), "bytes")
    out["oeis.hit_ratio"] = (ratio(get("oeis.hits", 0), get("oeis.queries", 0)), "ratio")
    out["cli.output_bytes"] = (job.output_bytes, "bytes")
    return out


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def median_of(jobs: list[Job], attr: str) -> float:
    return statistics.median(getattr(job, attr) for job in jobs)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def work_dir() -> tempfile.TemporaryDirectory:
    """Per-run scratch directory for the dump and case outputs, deleted when
    the run ends; it sits in the checkout so the run writes nowhere else."""
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    recorded = load_digests()
    pin_to_one_cpu()
    with work_dir() as tmp, SpeedProbe() as probe:
        work = Path(tmp)
        cases, context = WORKLOADS[workload](seed, work)
        random.Random(seed).shuffle(cases)
        session = Session(work, started + RUN_BUDGET_S, probe, recorded, context.get("rename", {}))
        setup_code = context.get("setup", IMPORT)
        session.time_setup(IMPORT)  # fill bytecode caches before timing
        setup = [session.time_setup(setup_code) for _ in range(SETUP_SAMPLES[workload])]

        plain: list[Job] = []
        traced: list[Job] = []
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            plain.append(session.run_job(cases, traced=False))
            if trace:
                traced.append(session.run_job(cases, traced=True))
            now = time.monotonic()
            if now - measure_start >= seconds or now + (now - round_start) > session.deadline:
                break

    if trace:
        samples = [layer_metrics(job) for job in traced]
        for job, metrics in zip(traced, samples):
            metrics["cli.stdout_changed"] = (
                sum(o.stdout_digest != recorded.get(c.key, {}).get("stdout")
                    for c, o in zip(cases, job.outcomes)),
                "count",
            )
        # tracing must not change a byte of output
        for plain_job, traced_job in zip(plain, traced):
            for case, a, b in zip(cases, plain_job.outcomes, traced_job.outcomes):
                if a.stdout_digest != b.stdout_digest and b.failure is None:
                    b.failure = "traced output differs from untraced output"
                    print(f"FAILED {case.key}: {b.failure}", file=sys.stderr)
        metrics = median_metrics(samples)
        overhead = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "job_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median_of(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mib": {"value": median_of(plain, "peak_rss_mib"), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    outcomes = [o for job in plain + traced for o in job.outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    jobs = ", ".join(f"{j.raw_wall_s:.2f}/{j.wall_s:.2f}" for j in plain + traced)
    print(
        f"{workload}: {len(plain)} untraced and {len(traced)} traced jobs of "
        f"{len(cases)} cases (wall/reference s: {jobs}) in "
        f"{time.monotonic() - started:.1f} s",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def record() -> int:
    """Run every case once, gate it on oracles alone, and store its digests."""
    digests = {}
    for name, make in WORKLOADS.items():
        with work_dir() as tmp, SpeedProbe() as probe:
            work = Path(tmp)
            cases, context = make(0, work)
            session = Session(work, time.monotonic() + 3600, probe, None, context.get("rename", {}))
            job = session.run_job(cases, traced=False)
            for case, outcome in zip(cases, job.outcomes):
                if outcome.failure:
                    print(f"not recorded: {case.key}: {outcome.failure}", file=sys.stderr)
                    return 1
                digests[case.key] = {
                    "result": outcome.result_digest,
                    "stdout": outcome.stdout_digest,
                }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} cases in {DIGESTS.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
