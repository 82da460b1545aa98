import json
import os
import shutil
import subprocess
import sys

import pytest

from rp3vertex.cli import main
from rp3vertex.ring import KahlerSeries
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
    from rp3vertex.ring import RationalFunction
    assert emit_text(KahlerSeries(0, {})) == "0"
    assert emit_text(KahlerSeries(0, {(0, 0): RationalFunction.one()})) == "1"
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


def test_usage_errors(capsys, monkeypatch):
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
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()
    monkeypatch.setenv("RP3VERTEX_FIXTURES", "/nonexistent")
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
    assert "cannot read the fixtures" in capsys.readouterr().err


def test_ceiling_override(capsys):
    code, _ = run_cli(capsys, "compute", "--alpha", "[1]", "--cutoff", "5",
                      "--max-cutoff", "5")
    assert code == 0


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
