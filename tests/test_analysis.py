import importlib.util
import json
import os
from collections import Counter

import pytest

from rp3vertex import amplitude, analysis
from rp3vertex.amplitude import AmplitudeSpec, normalized_amplitude
from rp3vertex.analysis import (CheckReport, SuiteRunner, fixture_compare,
                                fixtures_dir_default, load_fixtures,
                                positivity_check, reduction_check, selects,
                                summary_table, support_check,
                                symmetry_check_tq)
from rp3vertex.partitions import EMPTY, Partition
from rp3vertex.ring import RF_ONE, KahlerSeries, RationalFunction

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
one = RF_ONE

BOX = Partition([1])


def test_positivity_pass_and_fail():
    z = KahlerSeries(1, {(0, 0): qh / (1 - q), (1, 0): 2 * q / (1 - q) ** 2})
    assert positivity_check(z, 10, refined=False).verdict == "pass"
    bad = KahlerSeries(1, {(0, 0): (1 - 2 * q) / (1 - q)})
    report = positivity_check(bad, 10, refined=False)
    assert report.verdict == "fail"
    assert report.witness  # fail always carries a witness


def test_positivity_refined_demands_t_polynomiality():
    z = KahlerSeries(0, {(0, 0): one / (1 - t)})
    report = positivity_check(z, 5, refined=True)
    assert report.verdict == "inconclusive"
    assert "coefficient" in report.witness


def test_positivity_rejects_fractional_scale():
    z = KahlerSeries(0, {(0, 0): one / (3 * (1 - q))})
    report = positivity_check(z, 5, refined=False)
    assert report.verdict == "fail"


def test_support_check_pass_and_fail():
    zhat = normalized_amplitude(AmplitudeSpec(alpha=BOX, cutoff=3))
    assert support_check(zhat, BOX, EMPTY).verdict == "pass"
    synthetic = KahlerSeries(2, {(0, 0): one, (0, 1): q})
    report = support_check(synthetic, BOX, EMPTY)
    assert report.verdict == "fail"
    assert "(0, 1)" in report.witness
    # pure-base coefficient beyond the color budget
    deep = KahlerSeries(2, {(0, 0): one, (2, 0): q})
    assert support_check(deep, BOX, EMPTY).verdict == "fail"


def test_reduction_check_and_witness():
    reg = normalized_amplitude(AmplitudeSpec(alpha=BOX, cutoff=2))
    ref = normalized_amplitude(AmplitudeSpec(alpha=BOX, refined=True, cutoff=2))
    assert reduction_check(ref, reg).verdict == "pass"
    coeffs = dict(reg.coeffs)
    coeffs[(1, 0)] = coeffs[(1, 0)] + 1
    perturbed = KahlerSeries(2, coeffs)
    report = reduction_check(ref, perturbed)
    assert report.verdict == "fail" and report.witness


def test_symmetry_check():
    const = KahlerSeries(1, {(0, 0): one})
    assert symmetry_check_tq(const).verdict == "pass"
    asym = KahlerSeries(1, {(0, 0): q / (1 - q)})
    assert symmetry_check_tq(asym).verdict == "fail"


def test_fixture_compare_failure_paths():
    fixtures = {f["id"]: f for f in load_fixtures()}
    fx = fixtures["eq2"]
    computed = normalized_amplitude(AmplitudeSpec(alpha=BOX, cutoff=3))
    assert fixture_compare(fx, computed).verdict == "pass"
    # a perturbed series must fail with a witness
    coeffs = dict(computed.coeffs)
    coeffs[(1, 0)] = coeffs[(1, 0)] + 1
    wrong = KahlerSeries(3, coeffs)
    report = fixture_compare(fx, wrong)
    assert report.verdict == "fail" and "(1, 0)" in report.witness
    # a series missing determined bidegrees must fail
    shallow = KahlerSeries(3, {(0, 0): computed.coeffs[(0, 0)]},
                           determined={(0, 0)})
    assert fixture_compare(fx, shallow).verdict == "fail"


def test_fixture_inventory_coverage():
    ids = {f["id"] for f in load_fixtures()}
    displays = {"eq2", "eq3", "eq4", "eq5", "eq6",
                "eq9", "eq10", "eq11", "eq12", "eq13",
                "appB", "appC_S2", "appC_S3"}
    expansion_lists = {
        "sec32_lambda3_q0", "sec32_lambda3_qb2qf", "sec32_lambda3_qbqf2",
        "sec42_fund_qbqf", "sec42_fund_qb2qf", "sec42_fund_qbqf2",
        "sec42_lambda2_qb", "sec42_lambda2_qbqf",
        "sec42_lambda3_qb", "sec42_lambda3_qb2", "sec42_lambda3_qbqf",
        "sec43_hopf11_qb", "sec43_hopf11_qbqf",
        "sec43_hopf12_qb", "sec43_hopf12_qb2", "sec43_hopf12_qbqf",
        "appB_lambda2_qbqf2", "appB_lambda2_qb2qf",
        "appB_lambda3_qb2qf", "appB_lambda3_qbqf2",
        "appB_hopf11_qb2qf", "appB_hopf11_qbqf2",
        "appB_hopf12_qb3", "appB_hopf12_qb2qf", "appB_hopf12_qbqf2",
        "appC_S2_qbqf", "appC_S2_qbqf2", "appC_S2_qb2qf",
        "appC_S3_qbqf", "appC_S3_qbqf2", "appC_S3_qb2qf",
    }
    assert ids == displays | expansion_lists


def test_fixture_sources_unique_and_cited():
    fixtures = load_fixtures()
    seen = set()
    for fx in fixtures:
        assert fx["source"], fx["id"]
        assert fx["source"] not in seen
        seen.add(fx["source"])


def fixture_tool():
    """tools/make_fixtures.py, imported, not run, so nothing is written."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(root, "tools", "make_fixtures.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fixture_corpus_matches_generator():
    # the committed corpus is byte for byte what tools/make_fixtures.py writes
    tool = fixture_tool()
    built = {fx["id"] + ".json": json.dumps(fx, indent=1, sort_keys=True) + "\n"
             for fx in tool.FIXTURES}
    assert len(built) == 44
    assert sorted(built) == sorted(n for n in os.listdir(tool.OUT)
                                   if n.endswith(".json"))
    for name, text in built.items():
        with open(os.path.join(tool.OUT, name)) as fh:
            assert fh.read() == text, name


def test_fixture_generator_refuses_arguments(tmp_path, capsys):
    tool = fixture_tool()
    tool.OUT = str(tmp_path / "fixtures")
    assert tool.main(["--help"]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert not os.path.exists(tool.OUT)


def test_fixtures_dir_default_is_the_packaged_directory(tmp_path):
    # the packaged corpus is the one default; another directory is passed in
    assert sum(n.endswith(".json") for n in os.listdir(fixtures_dir_default())) == 44
    with pytest.raises(FileNotFoundError):
        load_fixtures(str(tmp_path))


def test_displayed_hopf_is_the_sum_of_its_unknots():
    # the paper's refined displays obey s_[1] s_[1] = s_[2] + s_[1,1] on
    # their own: eq12 ([1]x[1]) = appC_S2 ([2]) + eq10 ([1,1]), read from
    # the fixture files with no engine code
    def display(name):
        with open(os.path.join(fixtures_dir_default(), name + ".json")) as fh:
            return KahlerSeries.from_json(json.load(fh)["expected"])

    hopf, row, column = display("eq12"), display("appC_S2"), display("eq10")
    assert hopf.cutoff == 3 and len(hopf.determined) == 10
    assert hopf.determined == row.determined == column.determined
    for rs in hopf.determined:
        assert hopf.coeff(*rs) == RationalFunction.sum_of(
            [row.coeff(*rs), column.coeff(*rs)]), rs
    assert hopf.coeff(0, 0) != row.coeff(0, 0)


def test_report_json_shape():
    report = CheckReport("demo", "fail", witness="w", detail="d")
    doc = report.to_json()
    assert doc == {"check_id": "demo", "verdict": "fail",
                   "witness": "w", "detail": "d"}


def test_every_check_id_selects_itself():
    ids = [row[0] for row in SuiteRunner().table]
    assert len(ids) == 96
    for check_id in ids:
        assert [c for c in ids if selects(check_id, c)] == [check_id]
    assert sum(selects("positivity:*", c) for c in ids) == 14


def test_suite_filter_and_summary():
    runner = SuiteRunner()
    entries = runner.run("fixture:eq2")
    assert len(entries) == 1 and entries[0].ok
    table = summary_table(entries)
    assert "fixture:eq2" in table and "1/1" in table


def test_suite_reports_each_row_of_a_shared_id(tmp_path):
    # check ids come from the fixture files, and two files may carry one
    # id; each row still gets the report of its own thunk
    src = fixtures_dir_default()
    with open(os.path.join(src, "eq2.json")) as fh:
        doc = json.load(fh)
    (tmp_path / "eq2.json").write_text(json.dumps(doc))
    doc["spec"]["alpha"] = "[1,1]"
    (tmp_path / "eq2_wrong_color.json").write_text(json.dumps(doc))
    entries = SuiteRunner(str(tmp_path)).run("fixture:eq2")
    assert [(e.report.check_id, e.report.verdict) for e in entries] == [
        ("fixture:eq2", "pass"), ("fixture:eq2", "fail")]


def _count_builds(monkeypatch):
    """Record every raw (open_amplitude) and every normalized
    (normalized_amplitude) spec the suite runner asks for."""
    built, normalized = [], []
    open_amplitude = analysis.open_amplitude
    normalized_amplitude = analysis.normalized_amplitude

    def counting_open(spec):
        built.append(spec)
        return open_amplitude(spec)

    def counting_normalized(spec):
        normalized.append(spec)
        return normalized_amplitude(spec)

    monkeypatch.setattr(analysis, "open_amplitude", counting_open)
    monkeypatch.setattr(analysis, "normalized_amplitude", counting_normalized)
    return built, normalized


def test_suite_filter_computes_only_selected(monkeypatch):
    built, normalized = _count_builds(monkeypatch)
    entries = SuiteRunner().run("fixture:eq2")
    assert [e.report.check_id for e in entries] == ["fixture:eq2"]
    # only the normalized [1] series, regular at cutoff 3; it builds its
    # closed denominator itself, so no raw series is asked for
    assert built == []
    assert [(spec.alpha, spec.refined, spec.cutoff) for spec in normalized] == [
        (BOX, False, 3)]


def test_suite_table_order_and_single_normalization(monkeypatch):
    built, normalized = _count_builds(monkeypatch)
    rows = []
    g_rows = amplitude._g_rows

    def counting_rows(edges, refined, cutoff, top=None, lowest=0):
        rows.append((refined, cutoff, top, lowest))
        return g_rows(edges, refined, cutoff, top, lowest)

    monkeypatch.setattr(amplitude, "_g_rows", counting_rows)
    amplitude._closed_rows.cache_clear()
    runner = SuiteRunner()
    entries = runner.run()
    assert len(entries) == 96 and all(e.ok for e in entries)
    # every table id is the id of the report its thunk returns
    assert [e.report.check_id for e in entries] == [row[0] for row in runner.table]
    assert [e.expected for e in entries] == [row[1] for row in runner.table]
    # each distinct series is built and normalized once, at the deepest
    # cutoff the suite reads it: the 7 conjecture colors in both modes at
    # cutoff 4, which every fixture reads truncated at 3, and the single-edge
    # Hopf series at 3; and the one raw series, the refined cutoff-3 closed one
    assert len(set(normalized)) == len(normalized) == 15
    assert sorted(spec.cutoff for spec in normalized) == [3] + [4] * 14
    assert [(spec.alpha, spec.gamma, spec.refined, spec.cutoff) for spec in built] == [
        (EMPTY, EMPTY, True, 3)]
    # each normalized square-graph series builds its open rows from n = 1
    # up, and the closed rows below the cutoff it divides by are built once
    # per (mode, cutoff); the raw closed series builds every row
    assert Counter(rows) == {(False, 4, None, 1): 7, (True, 4, None, 1): 7,
                             (False, 4, 3, 0): 1, (True, 4, 3, 0): 1, (True, 3, None, 0): 1}


def test_suite_depth_follows_the_selection(monkeypatch):
    built, normalized = _count_builds(monkeypatch)
    runner = SuiteRunner()
    entries = runner.run("fixture:*")
    assert len(entries) == 44 and all(e.ok for e in entries)
    # the fixtures read cutoff 3, so nothing is built deeper
    assert max(spec.cutoff for spec in built + normalized) == 3
    # a deeper read on the same runner rebuilds the series deeper, and a
    # shallower one after it reads its truncation at the shallower cutoff
    normalized.clear()
    deep = runner.run("positivity:[1][]:regular")
    assert deep[0].ok and deep[0].report.detail.endswith("at cutoff 4")
    assert runner.run("fixture:eq2")[0].ok
    shallow = runner.series(BOX, EMPTY, False, 3)
    assert shallow.cutoff == 3
    assert shallow.determined == {(r, s) for r in range(4) for s in range(4 - r)}
    assert [(spec.alpha, spec.refined, spec.cutoff) for spec in normalized] == [
        (BOX, False, 4)]


def test_positivity_monotone_in_order():
    zhat = normalized_amplitude(AmplitudeSpec(alpha=BOX, cutoff=2))
    assert positivity_check(zhat, 12, refined=False).verdict == "pass"
    for order in (1, 4, 8):
        assert positivity_check(zhat, order, refined=False).verdict == "pass"


def test_fixture_json_reemission_stable():
    from rp3vertex.ring import QSeries
    for fx in load_fixtures():
        if fx["kind"] == "kahler":
            series = KahlerSeries.from_json(fx["expected"])
            assert series.to_json() == fx["expected"]
        else:
            series = QSeries.from_json(fx["expected"])
            doc = series.to_json()
            assert doc["coeffs"] == fx["expected"]["coeffs"]
            assert doc["order"] == fx["expected"]["order"]


def test_corrected_fixture_entries_are_load_bearing():
    # the three display tables stored with corrections (flagged in their
    # "notes" fields) must disagree with the literal printed monomials,
    # otherwise the corrections would be redundant
    from rp3vertex.partitions import Partition
    q = RationalFunction.monomial(2, 0)
    t = RationalFunction.monomial(0, 2)
    qh = RationalFunction.monomial(1, 0)
    th = RationalFunction.monomial(0, 1)

    d6 = normalized_amplitude(AmplitudeSpec(alpha=BOX, gamma=Partition([1, 1]),
                                            cutoff=3))
    printed_6_21 = (2 * (3 + 2 * q + 6 * q ** 2 + 3 * q ** 3 + q ** 4)
                    / (qh * (1 - q) ** 2 * (1 - q ** 2)))
    assert d6.coeff(2, 1) != printed_6_21

    d13 = normalized_amplitude(AmplitudeSpec(alpha=BOX, gamma=Partition([1, 1]),
                                             refined=True, cutoff=3))
    big = (1 - q - q ** 2 + q ** 3 + t + q * t - q ** 2 * t - q ** 3 * t
           + t ** 2 + q * t ** 2 + q ** 2 * t ** 2)
    printed_13_20 = q ** 2 * big / (t ** 3 * (1 - q) ** 2 * (1 - q ** 2))
    assert d13.coeff(2, 0) != printed_13_20
    assert d13.coeff(2, 0) == qh * printed_13_20

    dS2 = normalized_amplitude(AmplitudeSpec(alpha=Partition([2]),
                                             refined=True, cutoff=3))
    printed_S2_20 = q ** 3 / ((1 - q) * (1 - q ** 2))
    assert dS2.coeff(2, 0) != printed_S2_20
    assert dS2.coeff(2, 0) == printed_S2_20 / t

    # and the reduction identity the corrections restore
    assert d13.coeff(2, 0).substitute_t_eq_q() == d6.coeff(2, 0)
    assert d13.coeff(1, 1).substitute_t_eq_q() == d6.coeff(1, 1)


def _fake_series(local, con):
    """A SuiteRunner.series that returns the square-graph series local, or
    con on the single-edge geometry, truncated at the cutoff read."""
    def series(self, alpha, gamma, refined, cutoff, geometry="local_p1xp1",
               normalized=True):
        if geometry == "resolved_conifold":
            return KahlerSeries(cutoff, con, {(r, 0) for r in range(cutoff + 1)})
        return KahlerSeries(cutoff, local)
    return series


def test_failing_rows_print_their_witness(monkeypatch):
    # synthetic series make every support, structure and comparison row
    # fail; each names the first offending coefficient or relation
    local = {(0, 0): one, (0, 1): q, (1, 0): q, (2, 0): t, (3, 0): t}
    con = {(0, 0): 2 * one, (1, 0): q, (2, 0): t}
    monkeypatch.setattr(SuiteRunner, "series", _fake_series(local, con))
    runner = SuiteRunner()
    got = {e.report.check_id: (e.report.verdict, e.report.witness)
           for pattern in ("support:*", "structure:*", "comparison:*")
           for e in runner.run(pattern)}
    assert len(got) == 14 + 12 + 3
    for check_id, (verdict, witness) in got.items():
        assert verdict == "fail", check_id
        if check_id.startswith("support:"):
            assert witness == "nonzero coefficient at (0, 1) outside support"
        elif check_id.startswith("structure:no_pure_fiber:"):
            assert witness == "nonzero pure-fiber coefficient at (0,1)"
        elif check_id.startswith("structure:pure_base:[1][]"):
            assert witness == "nonzero pure-base coefficient at (2,0)"
        elif check_id.startswith("structure:pure_base:"):
            assert witness == "nonzero pure-base coefficient at (3,0)"
    assert got["comparison:leading"][1] == "leading coefficients differ"
    assert got["comparison:first_base"][1] == "first base coefficients are not opposite"
    assert got["comparison:second_base"][1] == "second base coefficients coincide"


@pytest.mark.parametrize("local, con, verdicts", [
    # equal leading, opposite first base, different second base
    ({(0, 0): one, (1, 0): q, (2, 0): t}, {(0, 0): one, (1, 0): -q, (2, 0): q},
     ["pass", "pass", "pass"]),
    # a zero against a nonzero coefficient, and two zeros
    ({(1, 0): q}, {(0, 0): one}, ["fail", "fail", "fail"]),
    ({}, {(2, 0): q}, ["pass", "pass", "pass"]),
    # opposite leading, equal first base, opposite second base
    ({(0, 0): one, (1, 0): q, (2, 0): t}, {(0, 0): -one, (1, 0): q, (2, 0): -t},
     ["fail", "fail", "pass"]),
])
def test_comparison_verdicts_on_zero_and_sign(monkeypatch, local, con, verdicts):
    monkeypatch.setattr(SuiteRunner, "series", _fake_series(local, con))
    entries = SuiteRunner().run("comparison:*")
    assert [e.report.verdict for e in entries] == verdicts
