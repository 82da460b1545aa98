"""Self-test of the benchmark: exact counts repeat between traced runs, and
the output checks accept the reference values and reject altered ones.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SMALL = {
    "refined": ["compute", "--refined", "--output", "json",
                "--cutoff", "4", "--alpha", "[3]", "--gamma", "[]"],
    "regular": ["compute", "--output", "json",
                "--cutoff", "4", "--alpha", "[1]", "--gamma", "[1,1]"],
    "suite": ["check", "--suite", "positivity:*"],
}


def traced_counts(argv):
    inv = run.split_trace(run.invoke(run.traced_cmd(argv), time.perf_counter() + 120))
    assert inv.status == 0, inv.stderr
    assert inv.trace is not None
    calls = {k: v["calls"] for k, v in inv.trace["spans"].items()}
    return calls, inv.trace["counters"], inv.stdout


def test_exact_counts_repeat(monkeypatch):
    for argv in SMALL.values():
        monkeypatch.setenv("PYTHONHASHSEED", "1")
        first = traced_counts(argv)
        monkeypatch.setenv("PYTHONHASHSEED", "2")
        second = traced_counts(argv)
        assert first == second
        assert first[0]["cli.main"] == 1
        assert first[1]["ring.laurent_mul.term_products"] > 0


def test_tracing_leaves_stdout_unchanged():
    argv = SMALL["refined"]
    plain = run.invoke(run.cli_cmd(argv), time.perf_counter() + 120)
    assert plain.status == 0
    assert traced_counts(argv)[2] == plain.stdout


def test_suite_check():
    rows = [f"ok  check{i}  pass" for i in range(run.SUITE_CHECKS)]
    good = "\n".join(rows + [f"{run.SUITE_CHECKS}/{run.SUITE_CHECKS} checks as expected"])
    assert run.check_suite(good) is None
    assert run.check_suite(good.replace("ok ", "BAD", 1)) is not None
    assert run.check_suite("\n".join(rows[1:] + ["95/95 checks as expected"])) is not None


def test_reference_covers_every_pool_entry():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for name, spec in run.WORKLOADS.items():
        for colors in spec["pool"]:
            if colors is None:
                continue
            job = run.Job(name, colors)
            assert job.key in reference
            run.fixture_for(colors, job.refined)


def test_compute_check_rejects_altered_values():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    job = run.pick_job("regular_deep", 0)
    inv = run.invoke(run.cli_cmd(job.argv), time.perf_counter() + 120)
    assert job.check(inv, reference) is None

    doc = json.loads(inv.stdout)
    term = next(t for t in doc["series"]["terms"] if t["coeff"]["num"])["coeff"]["num"][0]
    term["num"] = str(int(term["num"]) + 1)
    assert run.check_compute(job, json.dumps(doc), reference) is not None

    doc = json.loads(inv.stdout)
    doc["alpha"] = "[2]"
    assert run.check_compute(job, json.dumps(doc), reference) is not None
