"""Set-up probe: one fresh process that builds a workload's first job.

Usage: ``python3 bench/probe.py <src dir> <job file> <workload> <seed>``.
Imports lochom (and numpy), generates the job, parses it with the CLI parser
and, for table jobs, builds the ring and module.  Prints ``time.monotonic()``
at that point; the parent subtracts the time at which it started the process.
"""

import json
import sys
import time


def main(src, job_path, workload, seed):
    sys.path.insert(0, src)
    from lochom import cli

    import workloads

    doc = workloads.job_document(workload, int(seed))
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    job = cli.parse_input(job_path)
    if job.command != "verify":
        cli.build_module(cli.build_ring(job.ring), job.module)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(*sys.argv[1:])
