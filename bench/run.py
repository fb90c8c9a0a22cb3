"""Seeded, self-checking benchmark of the lochom engine.

Usage (from the repository root):

    python3 bench/run.py --workload lc-dense-fp --seed 1 --seconds 30 --trace 0

One process runs one job after another (a closed loop with a single client,
as the CLI runs one job per invocation).  The job comes from the seed, goes
through the public CLI functions (``parse_input``, ``run``, ``emit_report``)
and is repeated until ``--seconds`` have passed, at least twice, so that the
report bytes of the repeats can be compared.  Every table is checked cell by
cell against a closed form the benchmark computes itself; the corpus must
pass all its criteria.  A run stays correct when its only failed cells are
those of the workload's known engine defect (``workloads.TABLE_SHAPES``);
they still count in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median time
from starting a fresh process until its first job is built; ``wall_ref``, the
median job wall time in reference loops (see ``SpeedSampler``); and
``peak_rss_mb``.  The lines above the result also give the raw ``wall_s``,
``cells_per_s`` and ``fail_share`` (failed cells over attempted ones).
``--trace 1`` runs half the time untraced and half traced (see ``spans.py``)
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (table cells, or corpus
criteria) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import closedform
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = (*workloads.TABLE_SHAPES, "corpus")
SETUP_RUNS = 7
MIN_JOBS = 2
CORPUS_CRITERIA = 12
REF_LOOPS = 20_000
SAMPLE_PERIOD_S = 0.1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh process until its first job is built."""
    job_path = OUT / f"probe-{workload}.json"
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), str(job_path), workload, str(seed)]
    times = []
    for n in range(SETUP_RUNS + 1):  # the first one only warms the bytecode cache
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if n:
            times.append(float(done.stdout.split()[-1]) - start)
    return times


def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter work: the unit of ``wall_ref``."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference loop every ``SAMPLE_PERIOD_S`` from a SIGALRM handler.

    Each CPU of a small shared virtual machine changes speed by up to 1.7x
    for seconds at a time, independently of the other.  Sampling on the CPU
    that runs the job, while the job runs, lets ``wall_ref`` give a job's wall
    time in reference loops, which cancels most of that drift.
    """

    def __init__(self):
        self.samples = []  # reference loop seconds
        self.spent = 0.0  # seconds spent in the handler, kept out of job walls
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Workload:
    """Runs and checks the seeded job of one workload."""

    def __init__(self, cli, name: str, seed: int):
        self.cli = cli
        self.shape = workloads.TABLE_SHAPES.get(name)
        self.job_path = OUT / f"job-{name}.json"
        self.job_path.write_text(json.dumps(workloads.job_document(name, seed)), encoding="utf-8")
        if self.shape is None:
            self.cells = CORPUS_CRITERIA
        else:
            (i_lo, i_hi), (d_lo, d_hi) = self.shape.i_range, self.shape.window
            self.cells = (i_hi - i_lo + 1) * (d_hi - d_lo + 1)
        self.sampler = SpeedSampler()
        self.completed = 0
        self.digests = set()
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0  # failed cells of the shape's known engine defect
        self.unstabilized = 0
        self.wrong = set()
        self.errors = 0

    def run_one(self) -> tuple:
        """One job, timed from parsing to emitted bytes, then checked untimed.

        Returns the job's wall seconds (less the sampler's) and the mean
        reference loop seconds sampled while it ran.
        """
        cli = self.cli
        sampler = self.sampler
        first, spent = len(sampler.samples), sampler.spent
        start = time.perf_counter()
        try:
            report = cli.run(cli.parse_input(str(self.job_path)))
            text = cli.emit_report(report, "json")
        except Exception:  # a job that raises fails all of its cells
            traceback.print_exc()
            report = None
        wall = time.perf_counter() - start - (sampler.spent - spent)
        ref = statistics.mean(sampler.samples[first:] or [reference_loop()])
        self.attempted += self.cells
        if report is None:
            self.errors += 1
            self.failed += self.cells
            return wall, ref
        self.completed += 1
        self.digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        if self.shape is None:
            passed = [c for c in report.checks if c["passed"]]
            self.failed += self.cells - min(len(passed), self.cells)
            if len(report.checks) != self.cells:
                self.errors += 1
        else:
            check = closedform.check_table(self.shape, report.table.to_records())
            self.failed += len(check.failed)
            self.known_failed += len(check.known)
            self.unstabilized += check.unstabilized
            self.wrong.update(check.failed)
        return wall, ref

    def run_for(self, seconds: float, min_jobs: int) -> list:
        """(wall, ref) of each job: at least ``min_jobs``, then none expected to end after ``seconds``."""
        jobs = []
        start = time.perf_counter()
        while len(jobs) < min_jobs or (
            time.perf_counter() - start + statistics.median(w for w, _ in jobs) <= seconds
        ):
            jobs.append(self.run_one())
        return jobs

    @property
    def correct(self) -> bool:
        return (
            self.errors == 0
            and self.failed == self.known_failed
            and self.completed >= MIN_JOBS
            and len(self.digests) == 1
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lochom" / "__init__.py").is_file():
        print(f"error: engine source not found at {SRC / 'lochom'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lochom
    from lochom import cli

    if Path(lochom.__file__).resolve().parent != (SRC / "lochom").resolve():
        print(f"error: imported lochom from {lochom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup = measure_setup(args.workload, args.seed)
    bench = Workload(cli, args.workload, args.seed)
    if args.trace:
        with bench.sampler:
            plain = bench.run_for(args.seconds / 2, 1)
        tracer = spans.Tracer().install()
        try:
            traced = bench.run_for(args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl.gz")
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(
            w for w, _ in traced
        ) / statistics.median(w for w, _ in plain)
        units = {name: _unit(name) for name in metrics}
    else:
        with bench.sampler:
            plain = bench.run_for(args.seconds, MIN_JOBS)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(w / r for w, r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

    wall = statistics.median(w for w, _ in plain)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"report sha256 {' '.join(sorted(bench.digests)) or '-'}")
    print(describe("setup_s", setup, "s", "processes"))
    print(describe("wall_s", [w for w, _ in plain], "s", "untraced jobs"))
    print(describe("wall_ref", [w / r for w, r in plain], "ref", "untraced jobs"))
    print(describe("reference_loop", [r for _, r in plain], "s", "untraced jobs"))
    print(f"cells_per_s {bench.cells / wall:.6g} 1/s at {bench.cells} cells a job")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.6g} MB")
    print(
        f"fail_share {bench.failed / max(bench.attempted, 1):.6g}: "
        f"{bench.failed} of {bench.attempted} cells failed, {bench.unstabilized} unstabilized, "
        f"{bench.errors} job errors, {bench.known_failed} failed cells of the known defect"
    )
    for i, d, got, want in sorted(bench.wrong, key=str):
        print(f"failed cell i={i} d={d}: reported {got}, closed form {want}")
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def describe(name, values, unit, what) -> str:
    q1, q2, q3 = quartiles(sorted(values))
    return f"{name} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} {unit} over {len(values)} {what}"


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
