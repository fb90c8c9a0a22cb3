"""Record one run set of the benchmark as ``BENCH_<short-sha>.json``.

Usage (from the repository root):

    python3 scripts/bench_record.py [--tree DIR]

For each workload of ``BENCHMARK.json`` it runs ``python3 bench/run.py
--workload W --seed 1 --seconds N`` once in ``--tree`` (default: this
repository; ``N`` is the file's ``run_seconds``) and keeps
``setup_s``, ``wall_ref`` and ``peak_rss_mb``, the quartiles ``run.py``
prints, the report digest, ``correct`` and the fail share.  Then it runs each
baseline job of ``ROADMAP.md`` once, in a fresh ``python -m lochom.cli
--input`` process, and keeps its exit code, wall time, peak RSS and report
digest.  The file ends with the machine: CPU count, Python and numpy.

The file is named after the short commit of the tree (``git rev-parse
--short HEAD``, so ``--tree`` is a git checkout) and written to the root of
this repository.  Nothing under ``bench/`` is changed; the benchmark's own
output directory ``bench/out`` is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RING_3 = {"char": 32003, "vars": ["x", "y", "z"], "weights": [1, 1, 1]}
# the ROADMAP baseline jobs; the 6-vertex RP^2 is k[a..f] modulo the ten
# triangles that are not faces of its triangulation
BASELINE_JOBS = {
    "lc k[x,y,z]/(x^2,xy) p=32003": {
        "command": "lc", "ring": RING_3,
        "module": {"target_twists": [0], "relations": [["x^2", "x*y"]]},
        "i_range": [0, 3], "window": [-8, 2], "k_max": 8,
    },
    "lc k[x,y,z]/(x^2,xy) char 0": {
        "command": "lc", "ring": dict(RING_3, char=0),
        "module": {"target_twists": [0], "relations": [["x^2", "x*y"]]},
        "i_range": [0, 3], "window": [-8, 2], "k_max": 8,
    },
    "lc k[x,y,z,w] R p=32003": {
        "command": "lc",
        "ring": {"char": 32003, "vars": ["x", "y", "z", "w"], "weights": [1, 1, 1, 1]},
        "module": {"target_twists": [0]},
        "i_range": [0, 4], "window": [-6, 0], "k_max": 6,
    },
    "lc RP^2 GF(2) k_max 2": {
        "command": "lc",
        "ring": {"char": 2, "vars": ["a", "b", "c", "d", "e", "f"], "weights": [1] * 6},
        "module": {"target_twists": [0], "relations": [[
            "a*b*d", "a*b*e", "a*c*e", "a*c*f", "a*d*f",
            "b*c*d", "b*c*f", "b*e*f", "c*d*e", "d*e*f",
        ]]},
        "i_range": [0, 3], "window": [-2, 0], "s": 1, "k_max": 2,
    },
}


def parse_run(stdout: str) -> dict:
    """The metrics, quartiles, digest and fail share of one ``bench/run.py`` output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    out["fail_share"] = result["failed"] / max(result["attempted"], 1)
    quartiles = {}
    for line in lines[:-1]:
        words = line.split()
        if line.startswith("report sha256 "):
            out["report_sha256"] = words[2:]
        elif len(words) > 9 and words[1] == "median" and words[3] == "q1":
            # "<name> median M q1 Q1 q3 Q3 <unit> over N <what>"
            quartiles[words[0]] = {"median": float(words[2]), "q1": float(words[4]),
                                   "q3": float(words[6]), "unit": words[7], "n": int(words[9])}
    out["quartiles"] = quartiles
    return out


def run_workload(tree: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def run_job(tree: Path, document: dict) -> dict:
    """One job in a fresh process: exit code, wall seconds, peak RSS and report digest."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        job = Path(scratch) / "job.json"
        job.write_text(json.dumps(document), encoding="utf-8")
        with open(Path(scratch) / "out", "w+b") as out, open(Path(scratch) / "err", "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, "-m", "lochom.cli", "--input", str(job)],
                                    cwd=tree, env=env, stdout=out, stderr=err)
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            report = out.read()
    return {"exit_code": proc.returncode, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "report_sha256": hashlib.sha256(report).hexdigest(), "job": document}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT, help="the source tree to measure")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                         capture_output=True, text=True, check=True).stdout.strip()
    record = {
        "sha": sha, "seed": SEED, "seconds": seconds,
        "workloads": {w["name"]: run_workload(tree, w["name"], seconds) for w in bench["workloads"]},
        "baseline_jobs": {name: run_job(tree, doc) for name, doc in BASELINE_JOBS.items()},
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
    }
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
