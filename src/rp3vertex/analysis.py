"""Conjecture checkers and fixture comparison, and the suite table whose
rows call them.

Every check returns a CheckReport; failing reports always carry a witness
naming the first offending coefficient.  Finite-order conjecture checks are
"pass through order N" statements, never proofs.
"""

import fnmatch
import json
import os
from functools import partial
from importlib import resources

from .amplitude import AmplitudeSpec, normalized_amplitude, open_amplitude
from .partitions import EMPTY, Partition, parse_partition
from .ring import ExpansionError, KahlerSeries, QSeries, RF_ZERO, expand, graded


class CheckReport:
    def __init__(self, check_id, verdict, witness=None, detail=""):
        self.check_id = check_id
        self.verdict = verdict   # pass | fail | inconclusive
        self.witness = witness
        self.detail = detail

    def to_json(self):
        out = {"check_id": self.check_id, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


def positivity_check(series, q_order, refined, check_id="positivity"):
    """Expand every determined coefficient and demand nonnegative integer
    entries; one-parameter mode additionally demands no second variable."""
    for rs in graded(series.determined):
        rf = series.coeffs.get(rs)
        if rf is None:
            continue
        try:
            ser = expand(rf, q_order)
        except ExpansionError as err:
            return CheckReport(check_id, "inconclusive",
                               witness=f"coefficient {rs}: {err}")
        bad = ser.first_violation()
        if bad is not None:
            qe, te, c = bad
            return CheckReport(
                check_id, "fail",
                witness=f"coefficient {rs}: q^{qe / 2:g} t^{te / 2:g} entry {c}")
        if not refined and ser.max_other_exp() not in (None, 0):
            return CheckReport(
                check_id, "fail",
                witness=f"coefficient {rs}: second variable survives one-parameter mode")
    return CheckReport(check_id, "pass",
                       detail=f"through q-order {q_order} at cutoff {series.cutoff}")


def vanishing_check(series, cells, witness, check_id, detail=""):
    """Every listed coefficient must be zero; the witness, formatted with
    the bidegree, names the first that is not."""
    for rs in cells:
        if not series.coeffs.get(rs, RF_ZERO).is_zero():
            return CheckReport(check_id, "fail", witness=witness.format(*rs))
    return CheckReport(check_id, "pass", detail=detail)


def support_check(zhat, alpha, gamma, check_id="support"):
    """Nonzero coefficients of the normalized series must sit at r >= 1 and
    either within total degree |alpha|+|gamma| or at positive fiber degree;
    the degree-(0,0) leading term is exempt."""
    bound = alpha.size + gamma.size
    cells = [(r, s) for r, s in graded(zhat.determined)
             if (r, s) != (0, 0) and (r < 1 or (r + s > bound and s == 0))]
    return vanishing_check(zhat, cells, "nonzero coefficient at ({}, {}) outside support",
                           check_id, detail=f"within cutoff {zhat.cutoff}")


def reduction_check(refined_series, regular_series, check_id="reduction"):
    """Refined series at equal parameters must match the one-parameter one."""
    if refined_series.cutoff != regular_series.cutoff:
        raise ValueError("mismatched cutoffs")
    reduced = refined_series.substitute_t_eq_q()
    bad = reduced.equal_through(regular_series, regular_series.cutoff)
    if bad is not None:
        return CheckReport(check_id, "fail",
                           witness=f"coefficient {bad} differs at equal parameters")
    return CheckReport(check_id, "pass", detail=f"through degree {regular_series.cutoff}")


def symmetry_check_tq(series, check_id="symmetry"):
    """Exchange the two parameters everywhere and compare."""
    swapped = series.swap_qt()
    bad = swapped.equal_through(series, series.cutoff)
    if bad is not None:
        return CheckReport(check_id, "fail",
                           witness=f"coefficient {bad} changes under the exchange")
    return CheckReport(check_id, "pass", detail=f"through degree {series.cutoff}")


def relation(a, b):
    """How two coefficients compare: both zero, one zero, equal, opposite
    or differ."""
    if a.is_zero() or b.is_zero():
        return "both zero" if a.is_zero() and b.is_zero() else "one zero"
    if a == b:
        return "equal"
    return "opposite" if a == -b else "differ"


def geometry_check(local, con, r, allowed, message, check_id):
    """Whether the (r,0) coefficients of the square graph and of the
    single-edge geometry stand in one of the allowed relations."""
    ok = relation(local.coeff(r, 0), con.coeff(r, 0)) in allowed
    return CheckReport(check_id, "pass" if ok else "fail",
                       witness=None if ok else message)


def fixture_compare(fixture, computed, check_id=None):
    """Bit-exact comparison of a computed series against one fixture, as
    `load_fixtures` returns it."""
    check_id = check_id or f"fixture:{fixture['id']}"
    expected = fixture["expected_series"]
    if fixture["kind"] == "kahler":
        for rs in graded(expected.determined):
            if not computed.is_determined(*rs):
                return CheckReport(check_id, "fail",
                                   witness=f"coefficient {rs} not determined")
            if computed.coeff(*rs) != expected.coeffs.get(rs, RF_ZERO):
                return CheckReport(check_id, "fail",
                                   witness=f"coefficient {rs} differs")
        return CheckReport(check_id, "pass",
                           detail=f"{len(expected.determined)} coefficients, cutoff {expected.cutoff}")
    if fixture["kind"] == "qexp":
        r, s = fixture["spec"]["coeff"]
        if not computed.is_determined(r, s):
            return CheckReport(check_id, "fail",
                               witness=f"coefficient ({r},{s}) not determined")
        rf = computed.coeffs.get((r, s), RF_ZERO)
        if rf.is_zero():
            return CheckReport(check_id, "fail",
                               witness=f"coefficient ({r},{s}) is zero")
        try:
            ser = expand(rf, expected.order // 2)
        except ExpansionError as err:
            return CheckReport(check_id, "inconclusive",
                               witness=f"coefficient ({r},{s}): {err}")
        for qe in range(0, expected.order + 1):
            if ser.coeffs.get(qe, {}) != expected.coeffs.get(qe, {}):
                return CheckReport(check_id, "fail",
                                   witness=f"({r},{s}): q^{qe / 2:g} row differs")
        return CheckReport(check_id, "pass",
                           detail=f"residual through q^{expected.order // 2}")
    raise ValueError(f"unknown fixture kind {fixture['kind']!r}")


# -- fixture loading ---------------------------------------------------------

def fixtures_dir_default():
    return str(resources.files("rp3vertex") / "fixtures")


# a fixture's spec fields with their types; the last two may be left out
FIXTURE_SPEC = (("alpha", str), ("gamma", str), ("refined", bool), ("cutoff", int),
                ("geometry", str), ("normalized", bool))
EXPECTED_TYPES = {"kahler": KahlerSeries, "qexp": QSeries}


def _checked_fixture(fx):
    """fx with the spec defaults filled in and its expected value parsed
    as a series of its kind ("expected_series"); ValueError unless the
    suite can compute and compare it, that is, its spec makes an
    AmplitudeSpec and its expected value parses."""
    spec = {"geometry": "local_p1xp1", "normalized": True, **fx["spec"]}
    for key, kind in FIXTURE_SPEC:
        if type(spec.get(key)) is not kind:
            raise ValueError(f"spec has no {kind.__name__} {key!r}")
    AmplitudeSpec(geometry=spec["geometry"], alpha=parse_partition(spec["alpha"]),
                  gamma=parse_partition(spec["gamma"]), cutoff=spec["cutoff"])
    series = EXPECTED_TYPES.get(fx["kind"])
    if series is None:
        raise ValueError(f"unknown fixture kind {fx['kind']!r}")
    coeff = spec.get("coeff")
    if series is QSeries and not (isinstance(coeff, list) and len(coeff) == 2
                                  and all(type(x) is int for x in coeff)):
        raise ValueError("spec has no [r, s] 'coeff'")
    try:
        expected = series.from_json(fx["expected"])
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ValueError(f"expected is no {fx['kind']} series "
                         f"({type(err).__name__}: {err})") from None
    return {**fx, "spec": spec, "expected_series": expected}


def load_fixtures(fixtures_dir=None):
    path = fixtures_dir or fixtures_dir_default()
    out = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as fh:
                try:
                    fx = json.load(fh)
                except ValueError as err:
                    raise ValueError(f"{name}: {err}") from None
            for key, kind in (("id", str), ("kind", str), ("spec", dict), ("expected", dict)):
                if not (isinstance(fx, dict) and isinstance(fx.get(key), kind)):
                    raise ValueError(f"{name}: not a JSON object with a {kind.__name__} {key!r}")
            try:
                out.append(_checked_fixture(fx))
            except ValueError as err:
                raise ValueError(f"{name}: {err}") from None
    if not out:
        raise FileNotFoundError(f"no fixture files under {path}")
    return out


# -- the suite ---------------------------------------------------------------

CONJECTURE_COLORS = [
    ("[1]", "[]"), ("[1,1]", "[]"), ("[1,1,1]", "[]"),
    ("[2]", "[]"), ("[3]", "[]"),
    ("[1]", "[1]"), ("[1]", "[1,1]"),
]

# (alpha, gamma, first pure-base degree that must vanish)
STRUCTURE_CASES = [("[1]", "[]", 2), ("[1,1]", "[]", 3), ("[1]", "[1]", 3)]

DEEP_CUTOFF = 4   # total degree of the positivity, support and structure checks


def selects(pattern, check_id):
    """Whether a --suite pattern selects the check: the id equals it, or
    matches it as a glob.  Ids hold brackets, which a glob reads as a
    character class, so only the equality selects `reduction:[1][1]`."""
    return check_id == pattern or fnmatch.fnmatchcase(check_id, pattern)


class SuiteEntry:
    def __init__(self, report, expected="pass"):
        self.report = report
        self.expected = expected

    @property
    def ok(self):
        return self.report.verdict == self.expected


class SuiteRunner:
    """Runs the fixture and conjecture checks.

    `table` lists every check in report order as a row (check_id, expected
    verdict, cutoff, check, reads, args): `run` calls check(*series, *args,
    check_id=check_id), one series per read (alpha, gamma, refined, and
    optionally geometry and normalized), each read at the row's cutoff.
    `run` selects rows by id before it reads any series.  One memo keeps
    each distinct series once, built at the deepest cutoff the selected
    checks read; a shallower read gets its exact truncation.  A new kind of
    row is one check function and the `add` calls for its rows.
    """

    def __init__(self, fixtures_dir=None, q_order=20):
        self.fixtures = load_fixtures(fixtures_dir)
        self._memo = {}
        self.table = table = []

        def add(check_id, cutoff, check, reads, *args, expected="pass"):
            table.append((check_id, expected, cutoff, check, reads, args))

        for fx in self.fixtures:
            spec = fx["spec"]
            add(f"fixture:{fx['id']}", spec["cutoff"], partial(fixture_compare, fx),
                [(parse_partition(spec["alpha"]), parse_partition(spec["gamma"]),
                  spec["refined"], spec["geometry"], spec["normalized"])])

        for alpha, gamma in CONJECTURE_COLORS:
            tag = f"{alpha}{gamma}"
            colors = (parse_partition(alpha), parse_partition(gamma))
            for refined in (False, True):
                mode = "refined" if refined else "regular"
                add(f"positivity:{tag}:{mode}", DEEP_CUTOFF, positivity_check,
                    [(*colors, refined)], q_order, refined)
                add(f"support:{tag}:{mode}", DEEP_CUTOFF, support_check,
                    [(*colors, refined)], *colors)
            add(f"reduction:{tag}", DEEP_CUTOFF, reduction_check,
                [(*colors, True), (*colors, False)])

        # parameter exchange on the refined series: the closed one (raw), or
        # the open one with color [1] (normalized)
        add("symmetry:closed", 3, symmetry_check_tq,
            [(EMPTY, EMPTY, True, "local_p1xp1", False)])
        add("symmetry:open_fundamental", 3, symmetry_check_tq,
            [(Partition([1]), EMPTY, True)], expected="fail")

        # the pure-base truncation and no-pure-fiber observations
        for alpha, gamma, start in STRUCTURE_CASES:
            colors = (parse_partition(alpha), parse_partition(gamma))
            for refined in (False, True):
                tag = f"{alpha}{gamma}:{'refined' if refined else 'regular'}"
                add(f"structure:pure_base:{tag}", DEEP_CUTOFF, vanishing_check,
                    [(*colors, refined)], [(r, 0) for r in range(start, DEEP_CUTOFF + 1)],
                    "nonzero pure-base coefficient at ({},{})")
                add(f"structure:no_pure_fiber:{tag}", DEEP_CUTOFF, vanishing_check,
                    [(*colors, refined)], [(0, s) for s in range(1, DEEP_CUTOFF + 1)],
                    "nonzero pure-fiber coefficient at ({},{})")

        # cross-geometry Hopf comparison of the regular (r,0) coefficients:
        # equal leading, opposite first base, genuinely different second one
        box = Partition([1])
        hopf = [(box, box, False), (box, box, False, "resolved_conifold")]
        add("comparison:leading", 3, geometry_check, hopf, 0, {"equal", "both zero"},
            "leading coefficients differ")
        add("comparison:first_base", 3, geometry_check, hopf, 1,
            {"opposite", "both zero"}, "first base coefficients are not opposite")
        add("comparison:second_base", 3, geometry_check, hopf, 2,
            {"one zero", "opposite", "differ"}, "second base coefficients coincide")

    def series(self, alpha, gamma, refined, cutoff, geometry="local_p1xp1",
               normalized=True):
        """The normalized invariant for colors alpha, gamma (partitions), or
        the raw open series when normalized is False; the closed series is
        the raw series with empty colors."""
        key = (geometry, alpha, gamma, refined, normalized)
        built = self._memo.get(key)
        if built is None or built.cutoff < cutoff:
            build = normalized_amplitude if normalized else open_amplitude
            built = self._memo[key] = build(AmplitudeSpec(
                geometry=geometry, alpha=alpha, gamma=gamma,
                refined=refined, cutoff=cutoff))
        return built if built.cutoff == cutoff else built.truncated(cutoff)

    def run(self, pattern=None):
        """Entries for the checks that the pattern selects (every check when
        it is None), in table order; only these are computed.  They are
        computed deepest cutoff first, so each series is built once."""
        picked = [i for i, row in enumerate(self.table)
                  if pattern is None or selects(pattern, row[0])]
        reports = {}
        for i in sorted(picked, key=lambda i: self.table[i][2], reverse=True):
            check_id, _expected, cutoff, check, reads, args = self.table[i]
            series = [self.series(*read[:3], cutoff, *read[3:]) for read in reads]
            reports[i] = check(*series, *args, check_id=check_id)
        return [SuiteEntry(reports[i], self.table[i][1]) for i in picked]


def summary_table(entries):
    lines = []
    width = max(len(e.report.check_id) for e in entries) + 2
    for e in entries:
        mark = "ok " if e.ok else "BAD"
        expected = "" if e.expected == "pass" else f" (expected {e.expected})"
        extra = e.report.witness or e.report.detail
        lines.append(f"{mark} {e.report.check_id:<{width}} {e.report.verdict}{expected}"
                     + (f"  {extra}" if extra else ""))
    good = sum(1 for e in entries if e.ok)
    lines.append(f"{good}/{len(entries)} checks as expected")
    return "\n".join(lines)
