import gc

import pytest

from oracles import reference_conifold_edge, reference_edge_closed, reference_edge_plain
from rp3vertex import amplitude, partitions, ring, specialize, vertex
from rp3vertex.amplitude import (GEOMETRIES, AmplitudeSpec, _box_h, _boxes, _cauchy0,
                                 _closed_rows, _edge_closed, _edge_plain, _fiber0, _hooks, _summed,
                                 closed_amplitude, normalize, normalized_amplitude,
                                 open_amplitude)
from rp3vertex.partitions import (EMPTY, Partition, enumerate_up_to, parse_partition,
                                  partitions_of)
from rp3vertex.ring import RF_ONE, RF_ZERO, KahlerSeries, QSeries, RationalFunction
from rp3vertex.specialize import Alphabet, complete_homogeneous, finite_h, principal, skew_schur

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)
one = RF_ONE

BOX = Partition([1])


def conifold(alpha, gamma, refined, cutoff):
    return open_amplitude(AmplitudeSpec(geometry="resolved_conifold", alpha=alpha,
                                        gamma=gamma, refined=refined, cutoff=cutoff))


def test_spec_validation():
    with pytest.raises(ValueError):
        AmplitudeSpec(geometry="local_p2")
    with pytest.raises(ValueError):
        AmplitudeSpec(cutoff=-1)
    # a field of the wrong type is refused here, not met deep in the engine
    # or read as another series (refined="no" as True, cutoff=True as 1)
    for bad in ({"alpha": [1]}, {"gamma": (1, 1)}, {"alpha": "[1]"}, {"refined": "no"},
                {"refined": 1}, {"cutoff": True}, {"cutoff": 2.0}, {"cutoff": "3"}):
        with pytest.raises(TypeError):
            AmplitudeSpec(**bad)
    assert AmplitudeSpec(alpha=Partition([2, 1]), refined=True, cutoff=0).cutoff == 0


@pytest.mark.parametrize("build, error", [
    (lambda: AmplitudeSpec()._replace(cutoff=-1, geometry="bogus"), ValueError),
    (lambda: AmplitudeSpec._make(["bogus", EMPTY, EMPTY, False, 3]), ValueError),
    (lambda: AmplitudeSpec()._replace(alpha=[1]), TypeError),
    (lambda: AmplitudeSpec._make(["local_p1xp1", EMPTY, EMPTY, "no", 3]), TypeError),
    (lambda: AmplitudeSpec()._replace(cutoff=True), TypeError),
    (lambda: KahlerSeries(1, {(0, 0): RF_ONE})._replace(cutoff=-5,
                                                        coeffs={(9, 9): RF_ZERO}),
     ValueError),
    (lambda: KahlerSeries(1, {(0, 0): RF_ONE})._replace(coeffs={(5, 5): RF_ONE}),
     ValueError),
    (lambda: KahlerSeries._make([1, {(5, 5): RF_ONE}, None]), ValueError),
    (lambda: Alphabet((), (1, 0), (2, 0))._replace(tail_ratio=(-2, 3)), ValueError),
    (lambda: Alphabet._make([(), (1, 0), (0, 0)]), ValueError),
], ids=["spec-replace", "spec-make", "spec-replace-color", "spec-make-refined",
        "spec-replace-cutoff", "kahler-replace-cutoff", "kahler-replace-coeffs",
        "kahler-make", "alphabet-replace", "alphabet-make"])
def test_named_tuples_check_in_replace_and_make(build, error):
    # _replace and _make go through the constructor and its checks
    with pytest.raises(error):
        build()


def test_named_tuples_clean_in_replace_and_make():
    series = KahlerSeries(1)._replace(coeffs={(0, 0): RF_ZERO, (1, 0): 2})
    assert series.coeffs == {(1, 0): RF_ONE * 2}
    assert series.determined == {(0, 0), (0, 1), (1, 0)}
    assert QSeries._make([RF_ONE, {0: {}, 2: {0: 1}}, 4]).coeffs == {2: {0: 1}}
    assert Alphabet._make([[(1, 0)], [1, 0], [2, 0]]) == (((1, 0),), (1, 0), (2, 0))


def test_closed_amplitude_leading():
    for refined in (False, True):
        z = closed_amplitude(refined, 2)
        assert z.coeff(0, 0).is_one()


def test_closed_refined_degree_one():
    z = closed_amplitude(True, 1)
    assert z.coeff(1, 0) == 2 * qh * th / ((1 - t) * (1 - q))
    assert z.coeff(0, 1) == (t + q) / ((1 - t) * (1 - q))


def test_closed_symmetry_and_reduction():
    zr = closed_amplitude(True, 3)
    assert zr.swap_qt().equal_through(zr, 3) is None
    zq = closed_amplitude(False, 3)
    assert zr.substitute_t_eq_q().equal_through(zq, 3) is None


def test_open_leading_is_schur_product():
    cases = [("[1]", "[]"), ("[1,1]", "[]"), ("[2]", "[]"), ("[1]", "[1,1]")]
    rho = principal("q")
    for refined in (False, True):
        for a_txt, g_txt in cases:
            from rp3vertex.partitions import parse_partition
            alpha, gamma = parse_partition(a_txt), parse_partition(g_txt)
            spec = AmplitudeSpec(alpha=alpha, gamma=gamma, refined=refined, cutoff=0)
            z = open_amplitude(spec)
            want = (skew_schur(alpha.conjugate(), EMPTY, rho)
                    * skew_schur(gamma.conjugate(), EMPTY, rho))
            assert z.coeff(0, 0) == want, (a_txt, g_txt, refined)


def test_cutoff_monotonicity():
    colors = [("[1]", "[]"), ("[1,1]", "[]"), ("[1,1,1]", "[]"),
              ("[2]", "[]"), ("[3]", "[]"), ("[1]", "[1]"), ("[1]", "[1,1]")]
    from rp3vertex.partitions import parse_partition
    for refined in (False, True):
        for a_txt, g_txt in colors:
            alpha, gamma = parse_partition(a_txt), parse_partition(g_txt)
            small = open_amplitude(AmplitudeSpec(alpha=alpha, gamma=gamma,
                                                 refined=refined, cutoff=2))
            large = open_amplitude(AmplitudeSpec(alpha=alpha, gamma=gamma,
                                                 refined=refined, cutoff=3))
            assert large.equal_through(small, 2) is None, (a_txt, g_txt, refined)


def test_normalized_fundamental_unknot_values():
    zhat = normalized_amplitude(AmplitudeSpec(alpha=BOX, cutoff=3))
    assert zhat.coeff(0, 0) == qh / (1 - q)
    assert zhat.coeff(1, 1) == 2 * qh / (1 - q)
    assert zhat.coeff(2, 0).is_zero()
    assert zhat.coeff(0, 1).is_zero()


def test_normalize_contract():
    closed = closed_amplitude(False, 2)
    assert normalize(closed, closed).coeffs == {(0, 0): one}
    opened = open_amplitude(AmplitudeSpec(alpha=BOX, cutoff=2))
    zhat = normalize(opened, closed)
    assert zhat.coeff(0, 0) == opened.coeff(0, 0)


def test_unnormalized_has_pure_fiber_terms():
    # the closed-string factor carries the pure fiber tower; it cancels only
    # in the normalized series
    raw = open_amplitude(AmplitudeSpec(alpha=BOX, cutoff=2))
    assert not raw.coeff(0, 1).is_zero()
    zhat = normalize(raw, closed_amplitude(False, 2))
    assert zhat.coeff(0, 1).is_zero()


def _product_form_q_coeffs(rmax, order):
    # prod_{n>=1} (1 - Q q^n)^n expanded: the closed single-edge oracle
    co = [{0: 1}] + [dict() for _ in range(rmax)]
    for n in range(1, order + 2):
        for _ in range(n):
            new = [dict(d) for d in co]
            for r in range(1, rmax + 1):
                for e, c in co[r - 1].items():
                    if e + n <= order:
                        new[r][e + n] = new[r].get(e + n, 0) - c
            co = new
    return [{e: c for e, c in d.items() if c} for d in co]


def test_conifold_closed_matches_product_form():
    from rp3vertex.ring import expand
    order = 12
    closed = conifold(EMPTY, EMPTY, False, 3)
    want = _product_form_q_coeffs(3, order)
    for r in range(4):
        rf = closed.coeffs.get((r, 0))
        got = {}
        if rf is not None:
            ser = expand(rf, order)
            (pe, _), pc = ser.prefactor.min_term()
            for qe, poly in ser.coeffs.items():
                e = (qe + pe) // 2
                if e <= order:
                    got[e] = poly[0] * pc
        assert got == want[r], r


def test_conifold_closed_refined_matches_cauchy_sum():
    rho_q, rho_t = principal("q"), principal("t")
    closed = conifold(EMPTY, EMPTY, True, 3)
    for r in range(4):
        cauchy = RationalFunction.sum_of(
            RationalFunction.of((-1) ** r)
            * skew_schur(nu, EMPTY, rho_q)
            * skew_schur(nu.conjugate(), EMPTY, rho_t)
            for nu in partitions_of(r))
        assert closed.coeffs.get((r, 0), RF_ZERO) == cauchy, r


def test_conifold_brane_leading():
    z = conifold(BOX, EMPTY, False, 2)
    assert z.coeff(0, 0) == qh / (1 - q)
    assert conifold(EMPTY, BOX, True, 1).coeff(0, 0) == t * th / (q * (1 - t))


@pytest.mark.parametrize("gamma", ["[1]", "[2]", "[1,1]"])
def test_refined_conifold_gamma_leading(gamma):
    # the gamma side's alphabet is t^-rho q^-nu' and carries (t/q)^|gamma|,
    # so its leading coefficient is no principal Schur product
    gamma = parse_partition(gamma)
    twist = RationalFunction.monomial(-2 * gamma.size, 2 * gamma.size)
    for alpha in (EMPTY, BOX):
        z = conifold(alpha, gamma, True, 1)
        want = (twist * skew_schur(alpha.conjugate(), EMPTY, principal("q"))
                * skew_schur(gamma.conjugate(), EMPTY, principal("t")))
        assert z.coeff(0, 0) == want, (alpha, gamma)


# colors (drawn shapes) and the Littlewood-Richardson sum of their product;
# both gammas are single columns, so the Pieri rule adds a vertical strip
LR_SUMS = [("[1]", "[1]", ["[2]", "[1,1]"]), ("[1]", "[1,1]", ["[2,1]", "[1,1,1]"])]


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_hopf_is_the_littlewood_richardson_sum_of_unknots(refined):
    # E1(alpha, gamma, nu1) = E1(0, 0, nu1) s_alpha(v) s_gamma(v) at one
    # alphabet v, so the normalized series is the closed ensemble's average
    # of s_alpha s_gamma = sum_lam c^lam s_lam: a sum of unknot series
    def zhat(alpha, gamma="[]"):
        return normalized_amplitude(AmplitudeSpec(
            alpha=parse_partition(alpha), gamma=parse_partition(gamma),
            refined=refined, cutoff=4))

    for alpha, gamma, lams in LR_SUMS:
        hopf = zhat(alpha, gamma)
        unknots = [zhat(lam) for lam in lams]
        total = KahlerSeries(4, {rs: RationalFunction.sum_of(u.coeff(*rs) for u in unknots)
                                 for rs in hopf.determined}, hopf.determined)
        assert hopf.equal_through(total, 4) is None, (alpha, gamma)
    # negative control: one constituent alone misses already at (0,0)
    assert zhat("[1]", "[1]").equal_through(zhat("[2]"), 4) == (0, 0)


def test_conifold_refined_reduces():
    # raw series in both geometries: the suite's reduction checks see only
    # normalized ones, so this guards the t = q mapping of each leaf on both
    # color sides
    colors = [BOX, Partition([2]), Partition([1, 1]), Partition([2, 1])]
    pairs = ([(c, EMPTY) for c in colors] + [(EMPTY, c) for c in colors]
             + [(BOX, BOX)])
    for geometry in GEOMETRIES:
        for alpha, gamma in pairs:
            spec = AmplitudeSpec(geometry=geometry, alpha=alpha, gamma=gamma,
                                 cutoff=3)
            ref = open_amplitude(spec._replace(refined=True))
            reg = open_amplitude(spec)
            assert ref.substitute_t_eq_q().equal_through(reg, 3) is None, spec


def test_hopf_comparison_claims():
    local = normalized_amplitude(AmplitudeSpec(alpha=BOX, gamma=BOX, cutoff=3))
    con = normalize(conifold(BOX, BOX, False, 3),
                    conifold(EMPTY, EMPTY, False, 3))
    assert con.coeff(0, 0) == local.coeff(0, 0)
    assert con.coeff(1, 0) == -local.coeff(1, 0)
    assert con.coeff(2, 0) != local.coeff(2, 0)
    assert con.coeff(2, 0) != -local.coeff(2, 0)


def test_refined_open_not_symmetric_under_swap():
    zhat = normalized_amplitude(AmplitudeSpec(alpha=BOX, refined=True, cutoff=2))
    assert zhat.swap_qt().equal_through(zhat, 2) is not None


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_edges_are_the_leaf_products(refined):
    # term for term and factor for factor, not only as values
    for nu in enumerate_up_to(8):
        single = _hooks(nu, nu.norm_sq, nu.conjugate().norm_sq, (-1) ** nu.size, refined)
        for got, want in ((_edge_closed(nu, refined), reference_edge_closed(nu, refined)),
                          (_edge_plain(nu, refined), reference_edge_plain(nu, refined)),
                          (single, reference_conifold_edge(nu, refined))):
            assert (got.num.terms, got.factors) == (want.num.terms, want.factors), nu


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_edges_and_h_take_no_ring_products_or_sums(refined, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    rf = RationalFunction
    monkeypatch.setattr(rf, "__mul__", counted("__mul__", rf.__mul__))
    monkeypatch.setattr(rf, "__rmul__", counted("__rmul__", rf.__rmul__))
    monkeypatch.setattr(rf, "_map", counted("_map", rf._map))
    monkeypatch.setattr(rf, "sum_of", staticmethod(counted("sum_of", rf.sum_of)))
    for module in (amplitude, specialize, vertex):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    for nu in enumerate_up_to(6):
        _edge_closed(nu, refined)
        _edge_plain(nu, refined)
    alphabets = ([principal("t", nu, "q") for nu in enumerate_up_to(3)]
                 + [principal("q", nu, "t") for nu in enumerate_up_to(3)]
                 if refined else [principal("q", nu) for nu in enumerate_up_to(3)])
    for alphabet in alphabets:
        for k in range(5):
            complete_homogeneous(k, alphabet)
    assert calls == []
    # the wrappers count: a product does reach them
    assert _edge_closed(BOX, refined) * _edge_plain(BOX, refined) is not None
    assert calls == ["__mul__"]


def test_regular_leaves_are_refined_leaves_at_t_eq_q():
    from oracles import framing_leaf, p_at_rho_leaf, tilde_z_leaf
    from rp3vertex.amplitude import _mono, _schur
    from rp3vertex.partitions import enumerate_up_to
    assert _mono(3, -5, False) == _mono(3, -5, True).substitute_t_eq_q()
    for nu in enumerate_up_to(4):
        for first in ("t", "q"):
            refined = tilde_z_leaf(nu, first, True)
            assert tilde_z_leaf(nu, first, False) == refined.substitute_t_eq_q()
        assert p_at_rho_leaf(nu, False) == p_at_rho_leaf(nu, True).substitute_t_eq_q()
        for order in (("t", "q"), ("q", "t")):
            refined = framing_leaf(nu, order, True)
            assert framing_leaf(nu, order, False) == refined.substitute_t_eq_q()
        for lam in enumerate_up_to(3)[1:]:
            for main, var in (("t", "q"), ("q", "t")):
                got = _schur(lam, main, nu, var, False)
                assert got == _schur(lam, main, nu, var, True).substitute_t_eq_q()
                # the one-parameter alphabet itself, so its skew Schur values
                # are shared with every other one-parameter caller
                assert skew_schur(lam, EMPTY, principal("q", nu)) is got


DIFFERENTIAL_COLORS = [("[1]", "[]"), ("[1,1]", "[]"), ("[2]", "[]"),
                       ("[1]", "[1]"), ("[1]", "[1,1]"), ("[2,1]", "[]")]


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_normalized_matches_uncancelled_division(geometry, refined):
    # series_divide cancels each quotient coefficient and builds later
    # bidegrees from the cancelled forms; the former division stores them as
    # sum_of leaves them
    from oracles import reference_series_divide
    closed = closed_amplitude(refined, 4, geometry)
    for alpha, gamma in DIFFERENTIAL_COLORS:
        spec = AmplitudeSpec(geometry=geometry, alpha=parse_partition(alpha),
                             gamma=parse_partition(gamma), refined=refined, cutoff=4)
        opened = open_amplitude(spec)
        got = normalize(opened, closed)
        assert got == reference_series_divide(opened, closed), (alpha, gamma)


@pytest.mark.parametrize("refined,cutoff", [(False, 5), (True, 4)],
                         ids=["regular", "refined"])
def test_normalized_is_the_g_row_quotient(refined, cutoff):
    # Z = F0(Q_f) G(Q_b, Q_f) with F0 color-free, so F0 cancels and the
    # normalized series divides the G rows; it must equal the division of
    # the full amplitudes, coefficient by coefficient
    from rp3vertex.analysis import CONJECTURE_COLORS, STRUCTURE_CASES
    slice_, rows = _closed_rows(refined, cutoff)
    assert slice_.coeff(0, 0).is_one() and rows.coeff(0, 0).is_one()
    assert all(rows.coeff(0, n).is_zero() for n in range(1, cutoff + 1))
    closed = closed_amplitude(refined, cutoff)
    colors = dict.fromkeys(CONJECTURE_COLORS + [(a, g) for a, g, _ in STRUCTURE_CASES])
    for alpha, gamma in colors:
        spec = AmplitudeSpec(alpha=parse_partition(alpha), gamma=parse_partition(gamma),
                             refined=refined, cutoff=cutoff)
        got = normalized_amplitude(spec)
        want = normalize(open_amplitude(spec), closed)
        assert got.determined == want.determined, (alpha, gamma)
        assert got.coeffs.keys() == want.coeffs.keys(), (alpha, gamma)
        for rs, coeff in want.coeffs.items():
            assert got.coeffs[rs] == coeff, (alpha, gamma, rs)


# the colors of the benchmark pools (perfbench/run.py), by mode
POOL_COLORS = {False: [("[1]", "[1,1]"), ("[1,1,1]", "[]")],
               True: [("[1,1,1]", "[]"), ("[3]", "[]")]}


def _form_cases(refined):
    """The suite's series at DEEP_CUTOFF and the pools' colors at cutoff 4."""
    from rp3vertex.analysis import CONJECTURE_COLORS, DEEP_CUTOFF
    return dict.fromkeys([(colors, DEEP_CUTOFF) for colors in CONJECTURE_COLORS]
                         + [(colors, 4) for colors in POOL_COLORS[refined]])


def _same_forms(got, want, case):
    """Equal determined sets, and every coefficient with the numerator and
    factor tuple, so the printed form, of the reference's."""
    assert got.determined == want.determined, case
    assert got.coeffs.keys() == want.coeffs.keys(), case
    for rs, coeff in want.coeffs.items():
        assert got.coeffs[rs].num.terms == coeff.num.terms, (case, rs)
        assert got.coeffs[rs].factors == coeff.factors, (case, rs)


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_division_of_the_open_terms_keeps_every_form(refined):
    # the division takes the terms E1 E2 h_n of each open row, never their
    # sum; every quotient must keep the numerator and factor tuple, so the
    # printed form, of the division of the summed rows
    from oracles import full_g_rows
    for (alpha, gamma), cutoff in _form_cases(refined):
        terms, closed = full_g_rows(parse_partition(alpha).conjugate(),
                                    parse_partition(gamma).conjugate(), refined, cutoff)
        _same_forms(normalize(terms, closed),
                    normalize(KahlerSeries(cutoff, _summed(terms)), closed), (alpha, gamma))


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_pure_base_slice_keeps_every_form(refined):
    # at Q_f^0 the slice is A_open / A_closed over the nu1 ensemble, since
    # the nu2 sums B cancel; that fixes the values only, so every slice
    # coefficient (r, 0), and every coefficient the seeded division builds
    # on them, must keep the form of the former division of all G rows
    from oracles import reference_normalized
    for (alpha, gamma), cutoff in _form_cases(refined):
        spec = AmplitudeSpec(alpha=parse_partition(alpha), gamma=parse_partition(gamma),
                             refined=refined, cutoff=cutoff)
        got = normalized_amplitude(spec)
        assert {rs for rs in got.determined if rs[1] == 0} == {(r, 0) for r in range(cutoff + 1)}
        _same_forms(got, reference_normalized(spec), (alpha, gamma))


@pytest.mark.parametrize("refined,cutoff,pairs", [(False, 8, 249), (True, 6, 74)],
                         ids=["regular", "refined"])
def test_normalized_builds_no_pair_at_the_cutoff(monkeypatch, refined, cutoff, pairs):
    # the seeded division reads only G rows with r < cutoff, and the slice
    # replaces every open row at n = 0: of the 434 (regular, cutoff 8) and
    # 139 (refined, cutoff 6) pairs of base edges |nu1| + |nu2| <= cutoff,
    # the closed and the open rows each build the 249 and 74 below it
    pair_sizes, rows = [], []
    box_h, g_rows = amplitude._box_h, amplitude._g_rows

    def counting_box_h(nu1, nu2, n, refined):
        pair_sizes.append(nu1.size + nu2.size)
        return box_h(nu1, nu2, n, refined)

    def counting_rows(*args, **kwargs):
        rows.append(g_rows(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(amplitude, "_box_h", counting_box_h)
    monkeypatch.setattr(amplitude, "_g_rows", counting_rows)
    amplitude._closed_rows.cache_clear()
    normalized_amplitude(AmplitudeSpec(alpha=BOX, gamma=Partition([1, 1]), refined=refined,
                                       cutoff=cutoff))
    assert len(pair_sizes) == 2 * pairs and max(pair_sizes) == cutoff - 1
    closed, opened = rows
    assert set(closed) == {(r, n) for r in range(cutoff) for n in range(cutoff + 1 - r)}
    assert set(opened) == {(r, n) for r in range(cutoff) for n in range(1, cutoff + 1 - r)}
    # the raw series keeps every row, the top pairs included
    pair_sizes.clear()
    open_amplitude(AmplitudeSpec(alpha=BOX, refined=refined, cutoff=4))
    assert max(pair_sizes) == 4


def test_division_of_terms_that_sum_to_zero():
    # the forms agree because the LCM of the open terms is that of their sum
    # when the sum is nonzero, and the cancelled quotient is fixed by its
    # value and that LCM.  Terms that sum to zero, x and -x, still bring
    # their steps into the LCM: the quotient keeps its value, but here also
    # a step that the division of the summed row cancels.  No open row of
    # the 7 alphas x 3 gammas of tools/stdout_digests.py sums to zero at
    # cutoff 4 in either mode (600 rows), and the test above pins the forms
    x = 1 / (1 - q * q)
    closed = KahlerSeries(1, {(0, 0): one, (1, 0): -1 / (1 - q)})
    got = normalize({(0, 0): [one], (1, 0): [x, -x], (0, 1): []}, closed)
    want = normalize(KahlerSeries(1, {(0, 0): one}), closed)
    assert got.determined == want.determined
    assert got.coeffs[1, 0] == want.coeffs[1, 0] == 1 / (1 - q)
    assert want.coeffs[1, 0].factors == (((2, 0), 1),)
    assert got.coeffs[1, 0].factors == (((4, 0), 1),)
    assert got.coeffs[1, 0].num == (1 + q).num


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_deeper_series_truncates_to_the_shallower(refined):
    # the check suite builds each series once, at the deepest cutoff it
    # reads, and hands shallower reads its truncation; that is sound only
    # if every coefficient below the cutoff keeps its numerator and factor
    # multiset, which fix its printed form, and its determinedness
    cutoff = 3
    colors = [("[]", "[]"), ("[1]", "[]"), ("[1,1]", "[]"), ("[2]", "[1]")]
    for geometry in GEOMETRIES:
        for alpha, gamma in colors:
            spec = AmplitudeSpec(geometry=geometry, alpha=parse_partition(alpha),
                                 gamma=parse_partition(gamma), refined=refined,
                                 cutoff=cutoff)
            for build in (open_amplitude, normalized_amplitude):
                case = (geometry, alpha, gamma, build.__name__)
                shallow = build(spec)
                deep = build(spec._replace(cutoff=cutoff + 1))
                assert {rs for rs in deep.determined if sum(rs) <= cutoff} == \
                    shallow.determined, case
                cut = deep.truncated(cutoff)
                assert (cut.cutoff, cut.determined) == (cutoff, shallow.determined), case
                assert cut.coeffs.keys() == shallow.coeffs.keys(), case
                for rs, coeff in shallow.coeffs.items():
                    assert cut.coeffs[rs].num.terms == coeff.num.terms, (case, rs)
                    assert cut.coeffs[rs].factors == coeff.factors, (case, rs)
                with pytest.raises(ValueError):
                    deep.truncated(cutoff + 2)


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_factored_gluing_keeps_the_reference_representation(refined):
    # the factored sum nests the fiber sums and reassociates the products;
    # the printed form is fixed by each coefficient's numerator and factor
    # multiset, so both must be those of the color-by-color sum, not just
    # the value
    from oracles import reference_open_local
    # empty colors give the closed amplitude; an open one is what --raw prints
    colors = [(EMPTY, EMPTY)] + [(parse_partition(a), parse_partition(g))
                                 for a, g in DIFFERENTIAL_COLORS]
    for alpha, gamma in colors:
        got = open_amplitude(AmplitudeSpec(alpha=alpha, gamma=gamma,
                                           refined=refined, cutoff=4))
        want = reference_open_local(alpha.conjugate(), gamma.conjugate(), refined, 4)
        assert got.coeffs.keys() == want.coeffs.keys(), (alpha, gamma)
        for rs, coeff in want.coeffs.items():
            assert got.coeffs[rs].num.terms == coeff.num.terms, (alpha, gamma, rs)
            assert got.coeffs[rs].factors == coeff.factors, (alpha, gamma, rs)


def _base_edges(bound):
    """Every pair of base edges (nu1, nu2) with |nu1| + |nu2| <= bound."""
    return [(nu1, nu2) for nu1 in enumerate_up_to(bound)
            for nu2 in enumerate_up_to(bound - nu1.size)]


@pytest.mark.parametrize("refined,bound", [(False, 6), (True, 5)],
                         ids=["regular", "refined"])
def test_closed_fiber_kernel_keeps_the_reference_representation(refined, bound):
    # F(nu1, nu2, s) = sum_a F0_a h_(s-a)(B_w) must carry the numerator and
    # factor multiset of the Schur sum at the shifted alphabets, not just
    # its value: that is what keeps the regrouped gluing's printed forms
    from oracles import reference_fiber
    for nu1, nu2 in _base_edges(bound):
        n = bound - nu1.size - nu2.size
        hs = _box_h(nu1, nu2, n, refined)
        for s in range(n + 1):
            got = RationalFunction.sum_of(_fiber0(a, refined) * hs[s - a]
                                          for a in range(s + 1))
            want = reference_fiber(nu1, nu2, s, refined)
            assert got.num.terms == want.num.terms, (nu1, nu2, s)
            assert got.factors == want.factors, (nu1, nu2, s)


@pytest.mark.parametrize("refined,bound", [(False, 6), (True, 5)],
                         ids=["regular", "refined"])
def test_box_alphabet_gives_the_cauchy_sum(refined, bound):
    # sum_k U_k Q^k = prod 1/(1 - Q x_i y_j) is its value at empty edges
    # times prod_b 1/(1 - Q b), so U_k = sum_a U_a(0,0) h_(k-a)(B)
    from oracles import reference_cauchy
    for nu1, nu2 in _base_edges(bound):
        n = bound - nu1.size - nu2.size
        letters = _boxes(nu1, nu2)
        hs = finite_h(letters if refined else [(eq + et, 0) for eq, et in letters], n)
        for k in range(n + 1):
            got = RationalFunction.sum_of(_cauchy0(a, refined) * hs[k - a]
                                          for a in range(k + 1))
            assert got == reference_cauchy(nu1, nu2, k, refined), (nu1, nu2, k)


def test_normalized_size_guard():
    # refined [1,1]x[1] at cutoff 5: numerator terms and denominator factors
    # summed over the coefficients, 4,036 over 204 when none were cancelled
    zhat = normalized_amplitude(AmplitudeSpec(alpha=Partition([1, 1]), gamma=BOX,
                                              refined=True, cutoff=5))
    assert sum(len(c.num.terms) for c in zhat.coeffs.values()) <= 551
    assert sum(m for c in zhat.coeffs.values() for _f, m in c.factors) <= 42


def test_exact_core_leaves_no_reference_cycles():
    # the CLI runs with the cyclic garbage collector suspended, which only
    # costs nothing while the exact core builds no cycle
    for module in (amplitude, partitions, ring, specialize, vertex):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for refined in (False, True):
            normalized_amplitude(AmplitudeSpec(alpha=Partition([2, 1]), gamma=BOX,
                                               refined=refined, cutoff=3))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
