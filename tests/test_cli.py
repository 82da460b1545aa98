import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp3vertex.cli import _series, _spec_from_args, build_parser, emit_json, main
from rp3vertex.ring import KahlerSeries, Laurent, RationalFunction
from rp3vertex.analysis import fixtures_dir_default


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_expand_matches_printed_list(capsys):
    code, out = run_cli(capsys, "expand", "--alpha", "[1,1,1]",
                        "--coeff", "2,1", "--q-order", "15")
    assert code == 0
    assert out.startswith("[2*q^(-1/2)] * (3 + 7*q + 14*q^2")
    assert "280*q^15" in out


def test_compute_text_degenerate_series():
    from rp3vertex.cli import emit_text
    from rp3vertex.ring import RF_ONE, RationalFunction
    assert emit_text(KahlerSeries(0, {})) == "0"
    assert emit_text(KahlerSeries(0, {(0, 0): RF_ONE})) == "1"
    q = RationalFunction.monomial(2, 0)
    two_line = emit_text(KahlerSeries(1, {(0, 0): q, (1, 0): q}))
    assert two_line.splitlines() == ["(0,0): q", "(1,0): q"]


def test_compute_json_roundtrip(capsys):
    code, out = run_cli(capsys, "compute", "--alpha", "[1]", "--refined",
                        "--cutoff", "2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    series = KahlerSeries.from_json(doc["series"])
    assert series.cutoff == 2
    assert doc["normalized"] is True
    # reparse equals recompute
    from rp3vertex.amplitude import AmplitudeSpec, normalized_amplitude
    from rp3vertex.partitions import Partition
    again = normalized_amplitude(AmplitudeSpec(alpha=Partition([1]),
                                               refined=True, cutoff=2))
    assert series.equal_through(again, 2) is None


def dumped(head, series):
    """What emit_json must equal: the document as a dict tree, dumped."""
    return json.dumps(dict(head, series=series.to_json()), indent=1, sort_keys=True)


COEFFS = st.one_of(st.integers(-40, 40),
                   st.fractions(min_value=-5, max_value=5, max_denominator=7))
NUMS = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), COEFFS,
                       max_size=5).map(Laurent)
STEPS = st.lists(st.sampled_from([(2, 0), (0, 2), (1, 1), (4, -2), (2, 2)]), max_size=3)


@st.composite
def compute_documents(draw):
    """A compute header and a series: Fraction and negative coefficients,
    negative exponents, zeros at determined bidegrees (an empty numerator),
    and a determined set that is every bidegree or any subset, the
    single-edge axis among them, at cutoffs from 0."""
    cutoff = draw(st.integers(0, 3))
    cells = [(r, s) for r in range(cutoff + 1) for s in range(cutoff + 1 - r)]
    determined = draw(st.one_of(st.none(), st.just([(r, 0) for r in range(cutoff + 1)]),
                                st.sets(st.sampled_from(cells))))
    coeffs = {}
    for rs in cells if determined is None else determined:
        rf = RationalFunction(draw(NUMS))
        for m in draw(STEPS):
            rf = rf / RationalFunction(Laurent({(0, 0): 1, m: -1}))
        coeffs[rs] = rf
    head = {"command": "compute", "geometry": "local_p1xp1",
            "alpha": draw(st.sampled_from(["[]", "[2,1]"])), "gamma": "[1]",
            "refined": draw(st.booleans()), "cutoff": cutoff,
            "normalized": draw(st.booleans())}
    return head, KahlerSeries(cutoff, coeffs, determined)


@settings(deadline=None, max_examples=200)
@given(compute_documents())
def test_json_writer_matches_the_dumped_document(doc):
    head, series = doc
    assert emit_json(head, series) == dumped(head, series)


@pytest.mark.parametrize("flags", [
    ["--alpha", "[2,1]", "--gamma", "[1]"],
    ["--alpha", "[1]", "--gamma", "[1]", "--raw"],
    ["--geometry", "resolved-conifold", "--alpha", "[1]", "--gamma", "[1,1]"],
    ["--refined", "--alpha", "[1,1]", "--gamma", "[1]"],
], ids=["colored", "raw", "single-edge", "refined"])
def test_compute_json_is_the_dumped_document(capsys, flags):
    argv = ["compute", "--output", "json", "--cutoff", "3", *flags]
    args = build_parser().parse_args(argv)
    spec = _spec_from_args(args)
    series, normalized = _series(spec, args.raw)
    head = {"command": "compute", "geometry": spec.geometry,
            "alpha": str(spec.alpha), "gamma": str(spec.gamma),
            "refined": spec.refined, "cutoff": spec.cutoff, "normalized": normalized}
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == dumped(head, series) + "\n"


def test_byte_identical_reruns(capsys):
    a = run_cli(capsys, "compute", "--alpha", "[1,1]", "--cutoff", "2",
                "--output", "json")
    b = run_cli(capsys, "compute", "--alpha", "[1,1]", "--cutoff", "2",
                "--output", "json")
    assert a == b
    c = run_cli(capsys, "expand", "--alpha", "[1]", "--coeff", "1,0",
                "--q-order", "8", "--output", "json")
    d = run_cli(capsys, "expand", "--alpha", "[1]", "--coeff", "1,0",
                "--q-order", "8", "--output", "json")
    assert c == d


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def test_usage_errors(capsys, tmp_path):
    for argv in (
        ["compute", "--alpha", "1,2"],
        ["compute", "--alpha", "[2,3]"],
        ["compute", "--cutoff", "-1"],
        ["compute", "--geometry", "local-p2"],
        ["compute", "--cutoff", "9"],
        ["expand", "--alpha", "[1]", "--coeff", "bogus"],
        ["expand", "--alpha", "[1]", "--coeff", "5,0", "--cutoff", "3"],
        ["expand", "--alpha", "[1]", "--coeff=-1,0"],
        ["expand", "--alpha", "[1]", "--coeff=2,-1"],
        ["expand", "--alpha", "[1]", "--coeff", "1,0", "--q-order", "-3"],
        ["expand", "--geometry", "resolved-conifold", "--alpha", "[1]", "--coeff", "1,1"],
        ["expand", "--geometry", "resolved-conifold", "--alpha", "[1]", "--coeff", "0,1"],
        ["check", "--suite", "positivity:*", "--q-order", "-3"],
        ["compute", "--q-order", "5"],
        ["compute", "--max-q-order", "30"],
        ["compare", "--q-order", "5"],
        ["compare", "--output", "json"],
        ["compare", "--mode", "geometries", "--geometry", "resolved-conifold"],
        ["compare", "--mode", "geometries", "--raw"],
        ["compare", "--alpha", "[1]", "--cutoff", "2", "--refined"],
        ["check", "--max-cutoff", "2"],
        ["check", "--max-q-order", "30"],
        ["expand", "--alpha", "[1]", "--coeff", "1,0", "--max-q-order", "30"],
        ["check", "--fixtures-dir", "/nonexistent"],
        ["compute", "--alpha", "[99999999999999999999]"],
        # above sys.maxsize, so it fails before anything is allocated
        ["compute", "--alpha", "[99999999999999999999]",
         "--max-cutoff", "100000000000000000000"],
        ["compute", "--gamma", "[99999999999999999999]",
         "--max-cutoff", "100000000000000000000"],
        ["compute", "--alpha", "[1000000]"],
        ["compute", "--alpha", "[5]", "--refined"],
        ["compute", "--alpha", "[2]", "--cutoff", "1", "--max-cutoff", "1"],
        ["expand", "--gamma", "[1,1,1,1,1]", "--coeff", "1,0"],
        ["compare", "--alpha", "[1]", "--gamma", "[20]", "--mode", "geometries"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()
    # an empty pattern selects no check, like any other that matches none
    with pytest.raises(SystemExit) as err:
        main(["check", "--suite", ""])
    assert err.value.code == 2
    assert "no checks match ''" in capsys.readouterr().err
    # a malformed fixture file is named in one usage line, not a traceback
    spec = '"spec": {"alpha": "[1]", "gamma": "[]", "refined": false, "cutoff": 3}'
    with open(os.path.join(fixtures_dir_default(), "sec42_fund_qbqf.json")) as fh:
        in_t = json.load(fh)
    in_t["expected"]["var"] = "t"
    # the JSON readers take only integer exponents, bidegrees and orders,
    # each once, and only bidegrees within the series cutoff
    broken = []
    for path, value, problem in (
            (("terms", 1, "coeff", "den", 1, "ex"), 1.5, "'ex' is 1.5, not an integer"),
            (("terms", 1, "coeff", "num", 0, "ey"), "0", "'ey' is '0', not an integer"),
            (("terms", 1, "r"), True, "'r' is True, not an integer"),
            (("terms", 1, "s"), 1.0, "'s' is 1.0, not an integer"),
            (("cutoff",), 3.0, "'cutoff' is 3.0, not an integer"),
            (("cutoff",), 2, "bidegree (0, 3) outside cutoff 2"),
            (("terms", 1, "r"), -1, "bidegree (-1, 1) outside cutoff 3"),
            (("terms", 1, "coeff", "den", 1, "ey"), 0, "repeated exponent (0, 0)"),
            (("terms", 2, "s"), 1, "repeated bidegree (1, 1)")):
        with open(os.path.join(fixtures_dir_default(), "appB.json")) as fh:
            fx = json.load(fh)
        _set(fx["expected"], path, value)
        broken.append((json.dumps(fx), problem))
    # every denominator is a product of steps 1 - q^a t^b: the (0, 0)
    # coefficient 1/1 with num and den both times 1 + 2q is refused
    with open(os.path.join(fixtures_dir_default(), "appB.json")) as fh:
        fx = json.load(fh)
    one_plus_2q = [{"ex": 0, "ey": 0, "num": "1", "den": "1"},
                   {"ex": 2, "ey": 0, "num": "2", "den": "1"}]
    _set(fx["expected"], ("terms", 0, "coeff"), {"num": one_plus_2q, "den": one_plus_2q})
    broken.append((json.dumps(fx), "denominator factor 1 + 2*q is not a product "
                                   "of factors 1 - q^a t^b"))
    for path, value, problem in (
            (("coeffs", 1, "qe"), 2.0, "'qe' is 2.0, not an integer"),
            (("coeffs", 0, "poly_t", 0, "te"), False, "'te' is False, not an integer"),
            (("order",), "8", "'order' is '8', not an integer"),
            (("coeffs", 1, "qe"), 0, "repeated qe 0"),
            (("coeffs", 1, "poly_t", 0, "te"), 2, "repeated te 2")):
        with open(os.path.join(fixtures_dir_default(), "sec42_fund_qbqf.json")) as fh:
            fx = json.load(fh)
        _set(fx["expected"], path, value)
        broken.append((json.dumps(fx), problem))
    for text, problem in broken + [("{}", "'id'"), ("[1,2]", "not a JSON object"),
                          ('{"id": "x"}', "'kind'"), ("nope", "Expecting value"),
                          ('{"id": "x", "kind": "kahler", "spec": {}, "expected": {}}',
                           "spec has no str 'alpha'"),
                          ('{"id": "x", "kind": "kahler", %s, "expected": {}}' % spec,
                           "expected is no kahler series (KeyError: 'terms')"),
                          ('{"id": "x", "kind": "qexp", %s, "expected": {}}' % spec,
                           "spec has no [r, s] 'coeff'"),
                          ('{"id": "x", "kind": "kahler", "spec": {"alpha": "[1]", '
                           '"gamma": "[]", "refined": 0, "cutoff": 3}, "expected": {}}',
                           "spec has no bool 'refined'"),
                          ('{"id": "x", "kind": "other", %s, "expected": {}}' % spec,
                           "unknown fixture kind 'other'"),
                          (json.dumps(in_t), "series variable 't' is not 'q'")]:
        (tmp_path / "bad.json").write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["check", "--fixtures-dir", str(tmp_path)])
        assert err.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "bad.json" in last and problem in last, last
    # a negative ceiling is named before any color is held against it
    with pytest.raises(SystemExit) as err:
        main(["compute", "--max-cutoff", "-1", "--cutoff", "-1"])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "--max-cutoff must be nonnegative" in last, last
    with pytest.raises(SystemExit) as err:
        main(["check", "--fixtures-dir", "/nonexistent"])
    assert err.value.code == 2
    assert "cannot read the fixtures" in capsys.readouterr().err


# sha256 of `compute --output json --cutoff 4 --alpha [1,1] --gamma [1]`
# stdout: any change of printed form, even of an equal value, shows here
PRINTED_SHA256 = {
    "regular": "c3f874bfccd8bb691d4d3cccdf55e2ca8a038254cf52a5d5e58ecaf3f440800e",
    "refined": "7ea32e37c3f8325e7b0e8a715e840c6da170615612ade8a8b76bc9f8779b8324",
    "regular-raw": "19af5e6192cacb45b7a8c7c43f3e780d88faa84c7cf4792fa6814559d496a98e",
    "refined-raw": "40e9a096961c3bc43d6cb8d9056109a646fa104e2dd907f4c37b1e59106777e4",
}


@pytest.mark.parametrize("case", sorted(PRINTED_SHA256))
def test_compute_json_bytes_pinned(capsys, case):
    flags = ["--refined"] * case.startswith("refined") + ["--raw"] * case.endswith("raw")
    code, out = run_cli(capsys, "compute", "--output", "json", "--cutoff", "4",
                        "--alpha", "[1,1]", "--gamma", "[1]", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRINTED_SHA256[case]


# deeper pins: the normalized series is the quotient of the G rows, so these
# reach quotient coefficients built from longer G sums than cutoff 4 does
DEEP_PRINTED_SHA256 = {
    "--cutoff 6 --alpha [1] --gamma [1,1]":
        "835d3287880c27f910243bc3785a9dccf7d9db3aaa6714324e57dc2cf52ac3d3",
    "--refined --cutoff 5 --alpha [1,1,1]":
        "5a44f941d83c3d25c314c07814c042396ad922c01277f9462318d1e7247d90df",
}


@pytest.mark.parametrize("flags", sorted(DEEP_PRINTED_SHA256))
def test_deep_compute_json_bytes_pinned(capsys, flags):
    code, out = run_cli(capsys, "compute", "--output", "json", "--max-cutoff", "6",
                        *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_PRINTED_SHA256[flags]


# the benchmark's compute invocations, each pinned from cold caches, so that
# the forms they print are built by the same calls a fresh process makes
BENCHMARK_PRINTED_SHA256 = {
    "--refined --cutoff 6 --max-cutoff 6 --alpha [1,1,1] --gamma []":
        "b4522a5ba089e523fc4f78294e0fd9059523bb89a54a58a88337ffca0e8f2944",
    "--refined --cutoff 6 --max-cutoff 6 --alpha [3] --gamma []":
        "40573ebc101105aa1f9d2b1a3e5f116779f0aaa7a82105b9b2232ae673dc7067",
    "--cutoff 8 --max-cutoff 8 --alpha [1] --gamma [1,1]":
        "8e5bbd2714fdc3d646826ff3a6fe43947bab0a53a0dc63ddbf50aea5f549d79b",
    "--cutoff 8 --max-cutoff 8 --alpha [1,1,1] --gamma []":
        "6681274e56435b3d6d9b1bcbd2e5a3adf98144f3e3db5512aef769b1e6efd571",
}


@pytest.mark.parametrize("flags", sorted(BENCHMARK_PRINTED_SHA256))
def test_benchmark_compute_json_bytes_pinned_from_cold(capsys, flags):
    from rp3vertex import amplitude, partitions, ring, specialize, vertex
    for module in (amplitude, partitions, ring, specialize, vertex):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    code, out = run_cli(capsys, "compute", "--output", "json", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_PRINTED_SHA256[flags]


def test_ceiling_override(capsys):
    code, _ = run_cli(capsys, "compute", "--alpha", "[1]", "--cutoff", "5",
                      "--max-cutoff", "5")
    assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["compute", "--alpha", "[5]", "--cutoff", "1"])
    assert err.value.code == 2
    assert "--alpha color has 5 boxes, above ceiling 4" in capsys.readouterr().err
    code, out = run_cli(capsys, "compute", "--alpha", "[5]", "--cutoff", "1",
                        "--max-cutoff", "5")
    assert code == 0
    assert out.startswith("(0,0): ")


def test_check_subset_exit_zero(capsys):
    code, out = run_cli(capsys, "check", "--suite", "comparison:*")
    assert code == 0
    assert "3/3 checks as expected" in out


def test_check_q_order_honoured(capsys):
    # there is no q-order ceiling; the glob selects positivity:[1][]:regular
    code, out = run_cli(capsys, "check", "--suite", "positivity:?1???:regular",
                        "--q-order", "50")
    assert code == 0
    assert "through q-order 50" in out and "1/1 checks as expected" in out


def test_check_selects_bracketed_ids(capsys):
    # an exact id is selected although a glob reads its brackets as classes
    for check_id in ("positivity:[1][]:regular", "reduction:[1][1]"):
        code, out = run_cli(capsys, "check", "--suite", check_id)
        assert code == 0
        assert out.splitlines()[0].split()[1] == check_id
        assert "1/1 checks as expected" in out


def test_check_json_output(capsys):
    code, out = run_cli(capsys, "check", "--suite", "fixture:eq2",
                        "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["check_id"] == "fixture:eq2"
    assert doc[0]["verdict"] == "pass" and doc[0]["ok"] is True


def test_check_detects_corrupted_fixture(tmp_path, capsys):
    src = fixtures_dir_default()
    for name in os.listdir(src):
        shutil.copy(os.path.join(src, name), tmp_path / name)
    path = tmp_path / "eq2.json"
    doc = json.loads(path.read_text())
    # flip one numerator digit in the (1,0) coefficient
    for term in doc["expected"]["terms"]:
        if (term["r"], term["s"]) == (1, 0):
            term["coeff"]["num"][0]["num"] = "7"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check", "--suite", "fixture:eq2",
                        "--fixtures-dir", str(tmp_path))
    assert code == 1
    assert "BAD" in out


def test_compare_reduction_table(capsys):
    code, out = run_cli(capsys, "compare", "--alpha", "[1]", "--cutoff", "2",
                        "--mode", "reduction")
    assert code == 0
    assert "DIFFER" not in out
    assert "(1,1): equal" in out


def test_compare_geometries_table(capsys):
    code, out = run_cli(capsys, "compare", "--alpha", "[1]", "--gamma", "[1]",
                        "--cutoff", "3", "--mode", "geometries")
    assert code == 0
    assert "(1,0): opposite" in out
    assert "(2,0): differ" in out


def test_closed_pipe_exits_without_traceback():
    # the raw refined series is ~250 kB, well over a pipe's buffer, so the
    # writer is still writing when the reader goes away
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rp3vertex.cli", "compute", "--refined",
         "--output", "json", "--cutoff", "4", "--alpha", "[1]", "--raw"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) != 0
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_traced_check_run():
    # the benchmark's layer tracer rebinds program functions by name; a run
    # through it fails when one of those names goes away
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"),
         "check", "--suite", "fixture:eq2"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("PERFBENCH-TRACE ")
               for line in proc.stderr.splitlines()), proc.stderr


def test_cli_import_skips_dataclasses():
    # every command is a cold process; importing dataclasses (and the
    # inspect module it pulls in) adds about 17 ms to a cold Python 3.11
    # start on a 2-vCPU host, so the package keeps to plain classes and
    # named tuples; and only check and compare import the analysis module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rp3vertex.cli; "
         "print([m in sys.modules for m in ('dataclasses', 'rp3vertex.analysis')])"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["compute", "--cutoff", "1"],
                                  ["compute", "--cutoff", "9"]])
def test_main_leaves_the_gc_state_as_it_found_it(capsys, enabled, argv):
    # main suspends the cyclic collector while a command runs; an in-process
    # caller finds it as it was, after a usage error too, and nothing frozen
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            assert main(argv) == 0
        except SystemExit as exc:
            assert exc.code == 2
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
