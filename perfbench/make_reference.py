"""Write perfbench/reference.json: the value digest of every compute
workload's output, for each color pair in its pool.

Run once, from the root of a checkout of the commit whose values are the
reference (the values must never change, so later commits are compared
against these digests):

    python3 perfbench/make_reference.py
"""

import json
import sys
import time

import run


def main():
    reference = {}
    for name, spec in sorted(run.WORKLOADS.items()):
        for colors in spec["pool"]:
            if colors is None:
                continue
            job = run.Job(name, colors)
            inv = run.invoke(run.cli_cmd(job.argv), time.perf_counter() + 600)
            if inv.status != 0:
                sys.exit(f"{job.key}: exit status {inv.status}\n{inv.stderr}")
            _doc, series = run.parse_compute(inv.stdout.decode())
            reference[job.key] = run.series_digest(series)
            why = run.check_compute(job, inv.stdout.decode(), reference)
            if why is not None:
                sys.exit(f"{job.key}: {why}")
            print(job.key, reference[job.key], flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
