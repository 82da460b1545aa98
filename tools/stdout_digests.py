"""Print the sha256 of the stdout of a fixed list of rp3vertex commands.

Usage:
    python tools/stdout_digests.py

Each command runs in this interpreter through `rp3vertex.cli.main`, from a
cold start: every `functools.cache` of the package is cleared before it,
so a value is built as a fresh process would build it.  Each line is the digest of one
command's stdout, its exit code and its argv; the `total` line digests all of
them in order.  Two checkouts print the same total exactly when every
command prints the same bytes and exits alike, so comparing totals before
and after a change that must keep the printed forms shows that it did.

The last line, `values`, digests what the JSON outputs mean rather than how
they print, so it stays equal across a change that keeps every value but
moves printed forms.  A `compute --output json` series enters as the exact
value of each determined coefficient at two rational points; the other
JSON outputs (`check`, `expand`) hold no rational function and enter as
their stdout bytes.  Text outputs enter only the bytes total.

The list: `check --suite all --output json`; text `check` for `all` and
the subsets `fixture:*`, `positivity:*`, `support:*`, `reduction:*`,
`structure:*`, `symmetry:*` and `comparison:*`, which read their series at
other depths than a full run;
`compute --output json` at cutoff 4 for 7 alphas x 3 gammas x both modes x
both geometries, each normalized and `--raw`; refined cutoff 7 [1,1]x[1];
one-parameter cutoff 9 [2,1]x[1]; the benchmark pools' colors at their
deep cutoffs (refined 6, one-parameter 8); `expand` in text and JSON for 3
alphas x 2 gammas x both modes x both geometries, each normalized and
`--raw`, at bidegrees 1,0 / 1,1 / 2,1 (1,0 / 2,0 on the single-edge
geometry, which determines only s = 0); and `compare` for 6 color pairs in
both modes, in `--mode reduction` also with `--raw` and on the single-edge
geometry, and in `--mode geometries` also `--refined`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rp3vertex import amplitude, analysis, cli, partitions, ring, specialize, vertex

CHECK_SUITES = ["all", "fixture:*", "positivity:*", "support:*", "reduction:*",
                "structure:*", "symmetry:*", "comparison:*"]
ALPHAS = ["[]", "[1]", "[2]", "[1,1]", "[2,1]", "[1,1,1]", "[3]"]
GAMMAS = ["[]", "[1]", "[1,1]"]
EXPAND_ALPHAS = ["[1]", "[2]", "[1,1]"]
EXPAND_GAMMAS = ["[]", "[1]"]
COMPARE_COLORS = [("[]", "[]"), ("[1]", "[]"), ("[1]", "[1]"), ("[2]", "[1]"),
                  ("[1,1]", "[1]"), ("[2,1]", "[]")]
# (q^1/2, t^1/2) at which the values total evaluates each compute
# coefficient; the same two points as DIGEST_POINTS in perfbench/run.py
VALUE_POINTS = ((Fraction(3, 5), Fraction(2, 7)), (Fraction(-7, 4), Fraction(5, 11)))


def commands():
    yield ["check", "--suite", "all", "--output", "json"]
    for suite in CHECK_SUITES:
        yield ["check", "--suite", suite]
    for alpha, gamma, refined, geometry, raw in itertools.product(
            ALPHAS, GAMMAS, (False, True), ("local-p1xp1", "resolved-conifold"),
            (False, True)):
        yield (["compute", "--output", "json", "--cutoff", "4", "--alpha", alpha,
                "--gamma", gamma, "--geometry", geometry]
               + ["--refined"] * refined + ["--raw"] * raw)
    deep = [(True, 7, "[1,1]", "[1]"), (False, 9, "[2,1]", "[1]"),
            (True, 6, "[1,1,1]", "[]"), (True, 6, "[3]", "[]"),
            (False, 8, "[1]", "[1,1]"), (False, 8, "[1,1,1]", "[]")]
    for refined, cutoff, alpha, gamma in deep:
        yield (["compute", "--output", "json", "--cutoff", str(cutoff),
                "--max-cutoff", str(cutoff), "--alpha", alpha, "--gamma", gamma]
               + ["--refined"] * refined)
    for alpha, gamma, refined, geometry, raw, output in itertools.product(
            EXPAND_ALPHAS, EXPAND_GAMMAS, (False, True),
            ("local-p1xp1", "resolved-conifold"), (False, True), ("text", "json")):
        bidegrees = ("1,0", "1,1", "2,1") if geometry == "local-p1xp1" else ("1,0", "2,0")
        for coeff in bidegrees:
            yield (["expand", "--output", output, "--coeff", coeff, "--alpha", alpha,
                    "--gamma", gamma, "--geometry", geometry]
                   + ["--refined"] * refined + ["--raw"] * raw)
    for mode, (alpha, gamma) in itertools.product(("reduction", "geometries"),
                                                  COMPARE_COLORS):
        yield ["compare", "--mode", mode, "--alpha", alpha, "--gamma", gamma]
    for (alpha, gamma), variant in itertools.product(
            COMPARE_COLORS, (["--mode", "reduction", "--raw"],
                             ["--mode", "reduction", "--geometry", "resolved-conifold"],
                             ["--mode", "geometries", "--refined"])):
        yield ["compare", *variant, "--alpha", alpha, "--gamma", gamma]


def cold_start():
    for module in (amplitude, analysis, partitions, ring, specialize, vertex):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def values(command, stdout):
    """What a JSON stdout means: a compute series as its coefficients' exact
    values at VALUE_POINTS (its other fields as printed), any other JSON
    output as printed."""
    if command[0] != "compute" or not stdout:
        return stdout
    doc = json.loads(stdout)
    series = ring.KahlerSeries.from_json(doc.pop("series"))
    rows = [json.dumps(doc, sort_keys=True)]
    for r, s in ring.graded(series.determined):
        rf = series.coeff(r, s)
        rows.append(f"({r},{s})=" + ",".join(str(rf.evaluate(qh, th))
                                             for qh, th in VALUE_POINTS))
    return "\n".join(rows)


def main():
    total, value_total = hashlib.sha256(), hashlib.sha256()
    for command in commands():
        cold_start()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(command)
            except SystemExit as exc:
                code = exc.code
        stdout = out.getvalue()
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        line = f"{digest} {code} {' '.join(command)}"
        total.update(line.encode() + b"\n")
        print(line, flush=True)
        if "json" in command:
            digest = hashlib.sha256(values(command, stdout).encode()).hexdigest()
            value_total.update(f"{digest} {code} {' '.join(command)}\n".encode())
    print(f"total {total.hexdigest()}")
    print(f"values {value_total.hexdigest()}")


if __name__ == "__main__":
    main()
