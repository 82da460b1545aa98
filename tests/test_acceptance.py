"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything is exact rational arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from oracles import main_var, residual_equal, schur_tableau_oracle, subpartitions_within
from rp3vertex.analysis import SuiteRunner
from rp3vertex.partitions import EMPTY, Partition, enumerate_up_to
from rp3vertex.ring import Laurent, expand
from rp3vertex.specialize import principal, skew_schur


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(q_order=20)


@pytest.fixture(scope="module")
def entries(runner):
    return {e.report.check_id: e for e in runner.run()}


def _verdict(n, desc, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _all_ok(entries, ids):
    missing = [i for i in ids if i not in entries]
    assert not missing, f"missing checks: {missing}"
    bad = [i for i in ids if not entries[i].ok]
    return not bad, ", ".join(bad)


def test_criterion_1_regular_fixtures(entries):
    ids = [f"fixture:eq{n}" for n in (2, 3, 4, 5, 6)]
    ok, bad = _all_ok(entries, ids)
    _verdict(1, "one-parameter displays reproduced through degree 3", ok, bad)


def test_criterion_2_refined_fixtures(entries):
    ids = [f"fixture:eq{n}" for n in (9, 10, 11, 12, 13)]
    ok, bad = _all_ok(entries, ids)
    _verdict(2, "refined displays reproduced through degree 3", ok, bad)


def test_criterion_3_closed_normalization(runner, entries):
    ok, bad = _all_ok(entries, ["fixture:appB", "symmetry:closed"])
    closed_ref = runner.series(EMPTY, EMPTY, True, 3, normalized=False)
    closed_reg = runner.series(EMPTY, EMPTY, False, 3, normalized=False)
    reduces = closed_ref.substitute_t_eq_q().equal_through(closed_reg, 3) is None
    _verdict(3, "closed normalization: display, exchange symmetry, reduction",
             ok and reduces, bad or ("" if reduces else "t=q reduction"))


def test_criterion_4_expansion_fixtures(runner, entries):
    ids = [f"fixture:{f['id']}" for f in runner.fixtures if f["kind"] == "qexp"]
    assert len(ids) == 31
    ok, bad = _all_ok(entries, ids)
    _verdict(4, f"all {len(ids)} printed expansion lists match exactly", ok, bad)


def test_criterion_5_reduction_law(entries):
    ids = [i for i in entries if i.startswith("reduction:")]
    assert len(ids) == 7
    ok, bad = _all_ok(entries, ids)
    witnesses = [entries[i].report.witness for i in ids if entries[i].report.witness]
    _verdict(5, "refined amplitudes reduce to one-parameter ones at t=q",
             ok and not witnesses, bad)


def test_criterion_6_conjecture_suite(entries):
    pos = [i for i in entries if i.startswith("positivity:")]
    sup = [i for i in entries if i.startswith("support:")]
    assert len(pos) == 14 and len(sup) == 14
    ok1, bad1 = _all_ok(entries, pos)
    ok2, bad2 = _all_ok(entries, sup)
    _verdict(6, "positivity through q^20 and support structure at degree <= 4 "
                "(finite-order checks, not proofs)",
             ok1 and ok2, bad1 or bad2)


def test_criterion_7_geometry_comparison(entries):
    ids = ["comparison:leading", "comparison:first_base", "comparison:second_base"]
    ok, bad = _all_ok(entries, ids)
    _verdict(7, "single-edge geometry: equal leading, opposite first base "
                "coefficient, different second", ok, bad)


def test_criterion_8_oracle_equivalence():
    alphabets = [principal("q"), principal("q", Partition([1])),
                 principal("t", Partition([2, 1]), "q")]
    checked = 0
    ok = True
    witness = ""
    for alphabet in alphabets:
        for lam in enumerate_up_to(5):
            for eta in subpartitions_within(lam):
                value = skew_schur(lam, eta, alphabet)
                # a t alphabet's series is the q-series of the swapped value
                det = expand(value if main_var(alphabet) == "q" else value.swap_qt(), 8)
                orc = schur_tableau_oracle(lam, eta, alphabet, 8)
                if not (det.prefactor == orc.prefactor and residual_equal(det, orc)):
                    ok = False
                    witness = f"{lam}/{eta} at {alphabet!r}"
                checked += 1

    rng = random.Random(2718281828)
    trials = 0
    x, y = Fraction(5, 8), Fraction(-7, 9)
    while trials < 1000 and ok:
        def rand_l():
            return Laurent({(rng.randrange(-3, 4), rng.randrange(-3, 4)):
                            rng.randrange(-5, 6) for _ in range(rng.randrange(4))})
        a, b, c = rand_l(), rand_l(), rand_l()
        if not ((a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
                and (a + b) * c == a * c + b * c and (a - a).is_zero()
                and (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)):
            ok = False
            witness = "ring axiom failure"
        trials += 1
    _verdict(8, f"tableau oracle equals determinant on {checked} shape pairs; "
                f"{trials} randomized ring identities", ok, witness)


def test_criterion_9_structural_remarks(entries):
    ids = [i for i in entries if i.startswith("structure:")]
    assert len(ids) == 12
    ok, bad = _all_ok(entries, ids)
    _verdict(9, "pure-base truncation and no-pure-fiber observations", ok, bad)
