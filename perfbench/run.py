"""rp3vertex benchmark: cold command-line invocations, checked and timed.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  Each workload is a closed loop with one
client: the next `python -m rp3vertex.cli ...` process starts only after the
previous one has exited.  Every timed invocation is a fresh interpreter,
because every command-line user pays for the cold module caches
(`_H_CACHE`, `_SKEW_CACHE`, the `@cache` building blocks).

Workloads (the seed picks the brane colors from the workload's pool; the
program receives only argv):

* suite: `check --suite all`, 96 checks over 44 fixtures at cutoff <= 4.
  The everyday gate, and the only workload on ring's read/compare path
  (fixture `from_json`, cross-multiplied `__eq__`, `expand` at q-order 20)
  and with repeated `normalize` calls.  Its argv takes no colors, so the
  seed does not change it.
* refined_deep: `compute --refined --output json --cutoff 6`.
  `RationalFunction.sum_of` lifting numerators to the LCM denominator, with
  the Laurent products it makes, takes about 85% of traced self time, and
  the JSON written is about 1.7 MB.
* regular_deep: `compute --output json --cutoff 8`, the one-parameter mode.
  Tens of thousands of small `RationalFunction.__mul__` calls: per-operation
  overhead dominates.

Each pool holds three-box color pairs that have a cutoff-3 Kahler fixture in
that mode and cost within 5% of each other in exact Laurent term products, so
the seed changes the inputs but not the size of the work.  [1]x[1,1] in
refined mode is left out of its pool: its JSON is 6% shorter than the
rank-3 unknots', which alone would exceed a third of the bound on
`output_bytes` from seed to seed.

Left out on purpose:

* refined cutoff 7 and 8 take about 23 s and 140 s per invocation, too long
  for the number of runs a comparison of two commits needs; cutoff 6
  exercises the same `sum_of` lifting at an 85% share.
* the Tier-1 test run measures test code, which later changes rewrite.

Output checks, outside the timed interval: a nonzero exit, a traceback, or a
wrong output fails the invocation.  The suite must report every check at its
expected verdict.  A compute output is parsed with `KahlerSeries.from_json`;
every coefficient is evaluated exactly at two rational points and the digest
compared with reference.json (made on the seed commit by make_reference.py);
its degree <= 3 coefficients are also compared with the same-color cutoff-3
fixture via `fixture_compare`.

With --trace 0 the end-to-end metrics are printed, each a median over the
run's samples: setup_s (a cold interpreter finishing `import rp3vertex.cli`),
wall_s (one invocation, spawn to reaped exit), peak_rss_mb (read per child
with os.wait4) and output_bytes (stdout).  A failed invocation counts in the
result's `failed` against `attempted`; it is not a metric, because metrics
must never be 0.

The host these figures were tuned on (2 vCPUs, Python 3.11.7) changes speed
by up to 1.5x for minutes at a time, which no number of repeats averages
out.  So the harness and its children are pinned to one CPU, a fixed
stdlib loop (calibrate) is timed on it after every invocation, and setup_s
and wall_s are reported in seconds at the speed where that loop takes
CAL_REF_S: each sample is scaled by CAL_REF_S over the mean of the
calibrations just before and after it.  In two sets of ten runs per
workload on that host this cut the spread (interquartile range over median)
of wall_s from 0.15-0.34 to 0.05-0.12.  The raw times are on the detail line.

With --trace 1 untraced and traced (perfbench/tracer.py) invocations
alternate.  Per-layer self times are medians over the traced invocations,
counts are exact and must agree between them, result_num_terms counts the
numerator terms of the emitted series (0 for the suite, which emits none),
and trace.overhead_s is the median, over pairs, of a traced invocation's
wall time minus that of the untraced one just before it, in raw seconds.

The last stdout line is the JSON result; the line before it carries
provenance (Python version, CPU count, load average at start, git commit
when there is one, a digest of src/), sample counts, raw times and, traced,
every span's calls and median self time.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from tracer import TRACE_MARKER  # noqa: E402

SUITE_CHECKS = 96
SETUPS_PER_ROUND = 2        # cold imports timed after each untraced invocation
CAL_REF_S = 0.05            # calibrate() time that normalized seconds are scaled to
RUN_LIMIT_S = 160           # every child is killed past this, so a run ends < 180 s
DIGEST_POINTS = ((Fraction(3, 5), Fraction(2, 7)),     # (q^1/2, t^1/2)
                 (Fraction(-7, 4), Fraction(5, 11)))

WORKLOADS = {
    "suite": {"argv": ["check", "--suite", "all"], "pool": [None]},
    "refined_deep": {
        "argv": ["compute", "--refined", "--output", "json",
                 "--cutoff", "6", "--max-cutoff", "6"],
        "pool": [("[1,1,1]", "[]"), ("[3]", "[]")],
    },
    "regular_deep": {
        "argv": ["compute", "--output", "json", "--cutoff", "8", "--max-cutoff", "8"],
        "pool": [("[1]", "[1,1]"), ("[1,1,1]", "[]")],
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}

# Self times are metrics only for layers every workload reaches, since a time
# that is zero by construction is not a measurement; the self times of the
# suite-only spans (expand, rf_eq, analysis.*) and of the refined-only hook
# products are printed on the detail line, their call counts are metrics.
SELF_TIMES = [
    "ring.sum_of", "ring.laurent_mul", "ring.rf_mul", "ring.series_divide",
    "ring.json", "cli.main", "specialize.skew_schur",
    "specialize.complete_homogeneous",
    "amplitude.open_amplitude", "amplitude.closed_amplitude",
    "vertex.framing", "partitions.partitions_of",
]
CALLS = [
    "ring.sum_of", "ring.laurent_mul", "ring.rf_mul", "ring.series_divide",
    "ring.expand", "ring.rf_eq", "specialize.skew_schur",
    "specialize.complete_homogeneous", "specialize.hook_products",
    "amplitude.open_amplitude", "amplitude.closed_amplitude",
    "amplitude.normalize", "vertex.framing",
    "partitions.partitions_of", "analysis.fixture_compare",
    "analysis.positivity_check",
]
COUNTERS = [
    "ring.sum_of.terms_out", "ring.laurent_mul.term_products",
    "ring.from_json.calls", "ring.to_json.calls",
    "specialize.skew_schur.distinct", "specialize.complete_homogeneous.distinct",
    "amplitude.normalize.distinct", "amplitude.normalize.out_den_factors",
    "analysis.checks",
]
PER_LAYER = ({f"{n}.self_s": "s" for n in SELF_TIMES}
             | {f"{n}.calls": "count" for n in CALLS}
             | {n: "count" for n in COUNTERS}
             | {"result_num_terms": "count", "trace.overhead_s": "s"})


class Job:
    """One workload instance: the CLI argv and how to check its output."""

    def __init__(self, workload, colors):
        self.colors = colors
        self.argv = list(WORKLOADS[workload]["argv"])
        if self.colors:
            self.argv += ["--alpha", self.colors[0], "--gamma", self.colors[1]]
        self.refined = "--refined" in self.argv
        self._verdicts = {}

    @property
    def key(self):
        mode = "refined" if self.refined else "regular"
        cutoff = self.argv[self.argv.index("--cutoff") + 1]
        return f"{mode}:{self.colors[0]}x{self.colors[1]}:cutoff{cutoff}"

    def check(self, inv, reference):
        """None when the invocation's output is right, else the reason."""
        if inv.status != 0:
            return f"exit status {inv.status}"
        if "Traceback" in inv.stderr:
            return "traceback on stderr"
        sha = hashlib.sha256(inv.stdout).hexdigest()
        if sha not in self._verdicts:
            text = inv.stdout.decode("utf-8", "replace")
            if self.colors is None:
                self._verdicts[sha] = check_suite(text)
            else:
                self._verdicts[sha] = check_compute(self, text, reference)
        return self._verdicts[sha]


class Invocation:
    __slots__ = ("wall_s", "rss_mb", "status", "stdout", "stderr", "trace")

    def __init__(self, wall_s, rss_mb, status, stdout, stderr):
        self.wall_s, self.rss_mb, self.status = wall_s, rss_mb, status
        self.stdout, self.stderr, self.trace = stdout, stderr, None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def invoke(cmd, kill_at):
    """Run cmd to completion; wall time from spawn to reaped exit, and the
    child's own peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(1.0, kill_at - start), proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024, proc.returncode, out,
                      err[0].decode("utf-8", "replace"))


SETUP_CMD = [sys.executable, "-c", "import rp3vertex.cli"]


def cli_cmd(argv):
    return [sys.executable, "-m", "rp3vertex.cli"] + argv


def traced_cmd(argv):
    return [sys.executable, TRACER] + argv


def split_trace(inv):
    """Move the tracer's report off the invocation's stderr."""
    head, sep, tail = inv.stderr.rpartition(TRACE_MARKER)
    if sep:
        inv.trace = json.loads(tail)
        inv.stderr = head
    return inv


# -- output checks -------------------------------------------------------------

def check_suite(text):
    lines = text.splitlines()
    if not lines or lines[-1] != f"{SUITE_CHECKS}/{SUITE_CHECKS} checks as expected":
        return f"summary line is {lines[-1] if lines else ''!r}"
    rows = lines[:-1]
    if len(rows) != SUITE_CHECKS or not all(r.startswith("ok ") for r in rows):
        return "a check row is missing or off its expected verdict"
    return None


def series_digest(series):
    """sha256 over the exact values of every determined coefficient at
    DIGEST_POINTS; independent of how the rational functions are stored."""
    h = hashlib.sha256()
    for d in range(series.cutoff + 1):
        for r in range(d + 1):
            if not series.is_determined(r, d - r):
                continue
            rf = series.coeff(r, d - r)
            values = ",".join(str(rf.evaluate(qh, th)) for qh, th in DIGEST_POINTS)
            h.update(f"({r},{d - r})={values};".encode())
    return h.hexdigest()


def import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rp3vertex import analysis, ring
    return analysis, ring


def fixture_for(colors, refined):
    analysis, _ring = import_program()
    for fx in analysis.load_fixtures():
        spec = fx["spec"]
        if (fx["kind"] == "kahler" and spec["cutoff"] == 3
                and spec.get("normalized", True) and spec["refined"] == refined
                and (spec["alpha"], spec["gamma"]) == tuple(colors)):
            return fx
    raise LookupError(f"no cutoff-3 fixture for {colors} refined={refined}")


def parse_compute(text):
    _analysis, ring = import_program()
    doc = json.loads(text)
    return doc, ring.KahlerSeries.from_json(doc["series"])


def check_compute(job, text, reference):
    analysis, _ring = import_program()
    try:
        doc, series = parse_compute(text)
    except (ValueError, KeyError, TypeError) as err:
        return f"unparsable output: {err}"
    want = {"command": "compute", "alpha": job.colors[0], "gamma": job.colors[1],
            "refined": job.refined, "normalized": True}
    got = {k: doc.get(k) for k in want}
    if got != want:
        return f"header {got} != {want}"
    if series_digest(series) != reference.get(job.key):
        return f"value digest differs from the reference for {job.key}"
    report = analysis.fixture_compare(fixture_for(job.colors, job.refined), series)
    if report.verdict != "pass":
        return f"fixture {report.check_id}: {report.verdict} {report.witness}"
    return None


def result_num_terms(job, text):
    if job.colors is None:
        return 0
    doc = json.loads(text)
    return sum(len(t["coeff"]["num"]) for t in doc["series"]["terms"])


# -- the run -------------------------------------------------------------------

def provenance():
    """Python version, CPU count, load at start, and which source ran: the git
    commit when the checkout is a repository, always a digest of src/."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(top, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": h.hexdigest(),
            "loadavg_at_start": os.getloadavg()}


def build(kill_at):
    """Import the CLI once from ./src (writing its bytecode); fail unless the
    program imported is the one in this checkout."""
    probe = "import rp3vertex.cli as c; print(c.__file__)"
    inv = invoke([sys.executable, "-c", probe], kill_at)
    where = inv.stdout.decode().strip()
    if inv.status != 0 or not where.startswith(SRC + os.sep):
        raise SystemExit(f"cannot import rp3vertex.cli from {SRC}: "
                         f"{inv.stderr.strip() or where}")


_CAL_A = {(i, 2 * i % 7): i + 1 for i in range(40)}
_CAL_B = {(3 * i % 11, i): 2 * i + 1 for i in range(40)}


def calibrate():
    """Seconds this CPU takes now for a fixed sparse product loop shaped like
    Laurent.__mul__ (stdlib only, so no commit of the program changes it);
    the median of three repeats."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(120):
            out = {}
            for (a0, a1), ca in _CAL_A.items():
                for (b0, b1), cb in _CAL_B.items():
                    e = (a0 + b0, a1 + b1)
                    out[e] = out.get(e, 0) + ca * cb
        times.append(time.perf_counter() - start)
    return median(times)


def pin_to_one_cpu():
    """Run the harness and every child on one CPU, so calibrate() measures
    the CPU the invocations ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pick_job(workload, seed):
    return Job(workload, random.Random(seed).choice(WORKLOADS[workload]["pool"]))


def measure(job, seconds, trace, kill_at):
    """Closed loop for `seconds`.  Each round is one untraced invocation, then
    either a traced one (trace set) or SETUPS_PER_ROUND cold imports and a
    calibration.  Untraced rounds also return, per round, the factor that
    scales its times to CAL_REF_S host speed: the mean of the calibrations
    just before and just after it."""
    deadline = time.perf_counter() + seconds
    plain, traced, setups, speed = [], [], [], [] if trace else [calibrate()]
    while not plain or time.perf_counter() < deadline:
        plain.append(invoke(cli_cmd(job.argv), kill_at))
        if trace:
            traced.append(split_trace(invoke(traced_cmd(job.argv), kill_at)))
        else:
            setups.append([invoke(SETUP_CMD, kill_at) for _ in range(SETUPS_PER_ROUND)])
            speed.append(calibrate())
    scale = [2 * CAL_REF_S / (a + b) for a, b in zip(speed, speed[1:])]
    return plain, traced, setups, scale


def layer_metrics(job, plain, traced, failures):
    """Per-layer metrics from the traced invocations, all of which passed."""
    reports = [inv.trace for inv in traced]
    exact = [({k: v["calls"] for k, v in r["spans"].items()}, r["counters"])
             for r in reports]
    if any(e != exact[0] for e in exact[1:]):
        failures["exact counts differ between traced invocations"] = 1
    calls, counters = exact[0]
    out = {f"{name}.self_s": median(r["spans"][name]["self_s"] for r in reports)
           for name in SELF_TIMES}
    out |= {f"{name}.calls": calls[name] for name in CALLS}
    out |= {name: counters.get(name, 0) for name in COUNTERS}
    out["result_num_terms"] = result_num_terms(job, traced[0].stdout.decode())
    out["trace.overhead_s"] = median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    detail = {"calls": calls,
              "self_s": {name: median(r["spans"][name]["self_s"] for r in reports)
                         for name in calls}}
    return out, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through invoke(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))

    started = time.perf_counter()
    kill_at = started + RUN_LIMIT_S
    info = {"provenance": provenance(), "workload": args.workload, "seed": args.seed}
    pin_to_one_cpu()
    build(kill_at)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    job = pick_job(args.workload, args.seed)
    info["argv"] = job.argv

    plain, traced, setups, scale = measure(job, args.seconds, args.trace, kill_at)
    failures = {}
    for inv in plain + traced:
        why = job.check(inv, reference)
        if why is None and inv in traced and inv.trace is None:
            why = "tracer wrote no report"
        if why is not None:
            failures[why] = failures.get(why, 0) + 1
    failed = sum(failures.values())
    if any(s.status for round_ in setups for s in round_):
        failures["cold import of rp3vertex.cli failed"] = 1
    info["samples"] = {"untraced": len(plain), "traced": len(traced)}

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = median(s.wall_s * f for round_, f in zip(setups, scale)
                                    for s in round_)
        metrics["wall_s"] = median(i.wall_s * f for i, f in zip(plain, scale))
        metrics["peak_rss_mb"] = median(i.rss_mb for i in plain)
        metrics["output_bytes"] = median(len(i.stdout) for i in plain)
        info["raw_wall_s"] = [round(i.wall_s, 4) for i in plain]
        info["raw_setup_s_median"] = median(s.wall_s for r in setups for s in r)
        info["host_scale"] = [round(f, 4) for f in scale]
        units = END_TO_END
    elif failed:
        units = {}
    else:
        layers, info["spans"] = layer_metrics(job, plain, traced, failures)
        metrics.update(layers)
        units = PER_LAYER

    info["failures"] = failures
    info["run_s"] = time.perf_counter() - started
    print("detail " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
