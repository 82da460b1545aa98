import importlib.util
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_expand, series_multiply
from rp3vertex.ring import (ExpansionError, KahlerSeries, Laurent, QSeries,
                            RationalFunction, _divide_one_minus, expand, rf_equal,
                            series_divide)

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)
one = RationalFunction.one()
zero = RationalFunction.zero()


def random_laurent(rng, nterms=4, span=4):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        e = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        terms[e] = rng.randrange(-9, 10)
    return Laurent(terms)


def random_rf(rng):
    num = random_laurent(rng)
    dens = [Laurent({(0, 0): 1, (rng.randrange(1, 4) * 2, 0): -1}),
            Laurent({(0, 0): 1, (0, rng.randrange(1, 4) * 2): -1}),
            Laurent({(0, 0): 1, (2, 2): -1})]
    rf = RationalFunction(num)
    for d in dens[:rng.randrange(3)]:
        rf = rf / RationalFunction(d)
    return rf


# -- Laurent ring axioms -----------------------------------------------------

def test_laurent_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(1100):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a + Laurent() == a
        assert a * Laurent.const(1) == a


def test_laurent_evaluation_homomorphism():
    rng = random.Random(7)
    pts = [(Fraction(2, 3), Fraction(5, 7)), (Fraction(-3, 2), Fraction(1, 4))]
    for _ in range(300):
        a, b = random_laurent(rng), random_laurent(rng)
        for (x, y) in pts:
            assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)
            assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)


# -- rational functions ------------------------------------------------------

def test_rf_arith_identities():
    a = qh / (1 - q)
    assert rf_equal(a + zero, a)
    assert rf_equal(a * one, a)
    assert rf_equal(a * (1 - q), qh)
    assert rf_equal(1 / (1 - q) + 1 / (1 - t), (2 - q - t) / ((1 - q) * (1 - t)))


def test_rf_equal_examples():
    assert rf_equal(q / (1 - q) ** 2, q * (1 + q) / ((1 - q) ** 2 * (1 + q)))
    assert not rf_equal(q / (1 - q) ** 2, q / (1 - q))
    a = (1 + q * t) / ((1 - q) * (1 - t))
    assert rf_equal(a, a)


def test_rf_unhashable():
    # equal values in different unreduced forms could not share a hash
    a = q / (1 - q)
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a: 1}


def test_rf_integer_powers():
    a = (1 + q) / (1 - t)
    assert (a ** 0).is_one()
    assert rf_equal(a ** 3, a * a * a)
    assert rf_equal(a ** -2 * a ** 2, one)


def test_rf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Laurent.const(1), Laurent())


def test_rf_field_axioms_via_evaluation():
    # evaluation at random rational points is the independent oracle
    rng = random.Random(99)
    x, y = Fraction(3, 5), Fraction(7, 11)
    for _ in range(1000):
        a, b = random_rf(rng), random_rf(rng)
        assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)
        assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)
        assert (a - b).evaluate(x, y) == a.evaluate(x, y) - b.evaluate(x, y)
        if not b.is_zero() and b.evaluate(x, y) != 0:
            assert (a / b).evaluate(x, y) == a.evaluate(x, y) / b.evaluate(x, y)


def test_rf_sum_of_matches_pairwise():
    rng = random.Random(4)
    for _ in range(100):
        vals = [random_rf(rng) for _ in range(5)]
        total = zero
        for v in vals:
            total = total + v
        assert rf_equal(RationalFunction.sum_of(vals), total)


# -- exactness of the sum_of lifting and the 1 - m product kernel ------------

def reference_sum_of(values):
    """sum_of's former lifting loop, kept as the oracle: each value's numerator
    is multiplied by every LCM factor power it misses, one value at a time."""
    values = [rf for rf in map(RationalFunction.of, values) if not rf.is_zero()]
    if not values:
        return zero
    if len(values) == 1:
        return values[0]
    lcm = {}
    for v in values:
        for f, m in v.factors:
            if lcm.get(f, 0) < m:
                lcm[f] = m
    total = Laurent()
    for v in values:
        have = dict(v.factors)
        num = v.num
        for f, m in lcm.items():
            need = m - have.get(f, 0)
            if need:
                num = num * f ** need
        total = total + num
    return RationalFunction._make(total, lcm)


def general_product(a, b):
    """Laurent product by the plain double loop over both operands' terms."""
    out = {}
    for (aq, at), ca in a.terms.items():
        for (bq, bt), cb in b.terms.items():
            e = (aq + bq, at + bt)
            out[e] = out.get(e, 0) + ca * cb
    return Laurent(out)


COEFFS = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))
EXPONENTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
LAURENTS = st.dictionaries(EXPONENTS, COEFFS, max_size=6).map(Laurent)

# denominators the compute paths build (1 - q^a t^b, half-integer and mixed-sign
# exponents included) and shapes they never build, which take the general loop
FACTOR_POLYS = [Laurent({(0, 0): 1, e: -1})
                for e in [(2, 0), (0, 2), (2, 2), (4, 0), (1, 1), (2, -2), (6, 4)]]
FACTOR_POLYS += [Laurent({(0, 0): 1, (2, 0): 1}),
                 Laurent({(0, 0): 1, (2, 0): -2}),
                 Laurent({(0, 0): 1, (2, 0): 1, (0, 2): 1}),
                 Laurent({(2, 0): Fraction(3, 2), (4, 2): -3})]


@st.composite
def rf_values(draw):
    num = draw(LAURENTS)
    rf = RationalFunction(num)
    for poly in draw(st.lists(st.sampled_from(FACTOR_POLYS), max_size=4)):
        rf = rf / RationalFunction(poly)
    return rf


@st.composite
def rf_value_lists(draw):
    values = draw(st.lists(rf_values(), min_size=1, max_size=6))
    if draw(st.booleans()):
        # full cancellation, or cancellation of a part of the sum
        values += [-v for v in draw(st.sampled_from([values, values[:1]]))]
        values = draw(st.permutations(values))
    return values


@settings(deadline=None, max_examples=200)
@given(rf_value_lists())
def test_sum_of_same_representation_as_reference(values):
    got = RationalFunction.sum_of(values)
    want = reference_sum_of(values)
    assert got.num.terms == want.num.terms
    assert got.factors == want.factors
    assert all(got.num.terms.values())


def test_sum_of_many_distinct_factors():
    # one value per factor, each missing all others: the lifting recurses
    # through all 36 factors (refined cutoff 7 [1,1]x[1] has 35)
    values = [RationalFunction(Laurent.monomial(0, k),
                               Laurent({(0, 0): 1, (k + 1, 0): -1}))
              for k in range(36)]
    got = RationalFunction.sum_of(values)
    want = reference_sum_of(values)
    assert got.num.terms == want.num.terms and got.factors == want.factors


@st.composite
def telescoping(draw):
    """(p, m) where p holds a run c, c*m, c*m^2, ... so p * (1 - m) cancels
    all but the ends of that run."""
    p = draw(LAURENTS)
    m = draw(EXPONENTS.filter(lambda e: e != (0, 0)))
    c = draw(COEFFS.filter(bool))
    run = Laurent({(k * m[0], k * m[1]): c for k in range(draw(st.integers(0, 5)))})
    return p + run, m


@settings(deadline=None, max_examples=200)
@given(telescoping())
def test_one_minus_monomial_product_matches_general(pm):
    p, m = pm
    binomial = Laurent({(0, 0): 1, m: -1})
    want = general_product(p, binomial)
    for got in (p * binomial, binomial * p):
        assert got == want
        assert got.terms == want.terms
        assert all(got.terms.values())
    assert (Laurent() * binomial).is_zero()


# -- exact cancellation of 1 - m factors -------------------------------------

def _digest_points():
    """The exact points perfbench/run.py digests every benchmark output at."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(root, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.DIGEST_POINTS


DIGEST_POINTS = _digest_points()

# steps m = q^a t^b of the factor 1 - m, by the case of the chain key they hit
STEPS = {
    "negative_a": st.tuples(st.integers(-4, -1), st.integers(-4, 6)),
    "zero_a": st.tuples(st.just(0), st.integers(-4, 4).filter(bool)),
    "non_primitive": st.tuples(EXPONENTS.filter(lambda e: e != (0, 0)),
                               st.integers(2, 3)).map(
                                   lambda mg: (mg[0][0] * mg[1], mg[0][1] * mg[1])),
    "any": EXPONENTS.filter(lambda e: e != (0, 0)),
}


def one_minus(m):
    return Laurent({(0, 0): 1, m: -1})


def is_one_minus(f):
    return (len(f.terms) == 2 and f.terms.get((0, 0)) == 1
            and sorted(f.terms.values()) == [-1, 1])


def assert_same_value(got, rf):
    assert got == rf
    for qh_, th_ in DIGEST_POINTS:
        assert got.evaluate(qh_, th_) == rf.evaluate(qh_, th_)
    assert all(got.num.terms.values())


def draw_cofactor(data, m):
    """A Laurent with a run c, c*m, ..., so (1 - m) times it has a gap along
    m that the quotient must fill."""
    p = data.draw(LAURENTS)
    (x, y), c = data.draw(EXPONENTS), data.draw(COEFFS.filter(bool))
    run = {(x + k * m[0], y + k * m[1]): c for k in range(data.draw(st.integers(0, 5)))}
    return p + Laurent(run)


def draw_indivisible(data, m):
    """A Laurent that 1 - m does not divide: a multiple of it plus a monomial."""
    e, c = data.draw(EXPONENTS), data.draw(COEFFS.filter(bool))
    return data.draw(LAURENTS) * one_minus(m) + Laurent.monomial(*e, c)


@pytest.mark.parametrize("kind", sorted(STEPS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_cancel_gives_back_the_cofactor(kind, data):
    m = data.draw(STEPS[kind])
    p = draw_cofactor(data, m)
    f = one_minus(m)
    # as stored, and as the constructor normalizes it (1 - 1/m when m < 1)
    for rf in (RationalFunction._make(p * f, {f: 1}), RationalFunction(p * f, f)):
        got = rf.cancelled()
        assert got.num.terms == p.terms
        assert got.factors == ()
        assert_same_value(got, rf)


@pytest.mark.parametrize("kind", sorted(STEPS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_cancel_keeps_a_factor_that_does_not_divide(kind, data):
    m = data.draw(STEPS[kind])
    f = one_minus(m)
    num = draw_indivisible(data, m)
    rf = RationalFunction._make(num, {f: 2})
    got = rf.cancelled()
    assert got.num.terms == num.terms
    assert got.factors == ((f, 2),)
    assert_same_value(got, rf)


@pytest.mark.parametrize("kind", sorted(STEPS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_cancel_up_to_the_multiplicity(kind, data):
    m = data.draw(STEPS[kind])
    f = one_minus(m)
    p = draw_indivisible(data, m)
    k, j = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    rf = RationalFunction._make(p * f ** k, {f: j})
    got = rf.cancelled()
    assert got.num.terms == (p * f ** max(k - j, 0)).terms
    assert got.factors == (((f, j - k),) if j > k else ())
    assert_same_value(got, rf)


@settings(deadline=None, max_examples=200)
@given(rf_values(), st.data())
def test_cancelled_equals_its_input(rf, data):
    # a numerator multiplied by some of its own factors, binomial or not
    polys = [f for f, _m in rf.factors]
    extra = data.draw(st.lists(st.sampled_from(polys), max_size=4)) if polys else []
    num = rf.num
    for f in extra:
        num = num * f
    rf = RationalFunction._make(num, dict(rf.factors))
    got = rf.cancelled()
    assert_same_value(got, rf)
    have = dict(got.factors)
    for f, mult in rf.factors:
        if is_one_minus(f):
            assert have.get(f, 0) <= mult
        else:
            assert have[f] == mult
    assert set(have) <= set(dict(rf.factors))


def test_substitute_t_eq_q_examples():
    assert rf_equal((q / (th * (1 - q))).substitute_t_eq_q(), qh / (1 - q))
    a = qh / (1 - q)
    assert rf_equal(a.substitute_t_eq_q(), a)
    lead = q / (1 - q) ** 2
    assert rf_equal(lead.substitute_t_eq_q(), lead)


def test_substitute_commutes_with_arith():
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_rf(rng), random_rf(rng)
        assert rf_equal((a + b).substitute_t_eq_q(),
                        a.substitute_t_eq_q() + b.substitute_t_eq_q())
        assert rf_equal((a * b).substitute_t_eq_q(),
                        a.substitute_t_eq_q() * b.substitute_t_eq_q())


def test_swap_qt_involution():
    rng = random.Random(12)
    for _ in range(200):
        a = random_rf(rng)
        assert rf_equal(a.swap_qt().swap_qt(), a)


def test_rf_json_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        a = random_rf(rng)
        back = RationalFunction.from_json(json.loads(json.dumps(a.to_json())))
        assert rf_equal(a, back)


# -- expansion ---------------------------------------------------------------

def test_expand_geometric():
    ser = expand(qh / (1 - q), 3)
    assert ser.prefactor == Laurent.monomial(1, 0)
    assert ser.coeffs == {0: {0: 1}, 2: {0: 1}, 4: {0: 1}, 6: {0: 1}}


def test_expand_refined_example():
    # the (1,1) display value: prefactor sqrt(t) shifted, rows t, (1+t), ...
    ser = expand((q + t) / (th * (1 - q)), 5)
    assert ser.prefactor == Laurent.monomial(0, -1)
    assert ser.coeffs[0] == {2: 1}
    for k in range(1, 6):
        assert ser.coeffs[2 * k] == {0: 1, 2: 1}


def test_expand_truncation_consistency():
    rng = random.Random(17)
    ran = 0
    for _ in range(120):
        a = random_rf(rng)
        if a.is_zero():
            continue
        try:
            long = expand(a, 9)
        except ExpansionError:
            continue  # value not polynomial in t: outside the precondition
        ran += 1
        short = expand(a, 5)
        assert long.prefactor == short.prefactor
        for qe in range(0, short.order + 1):
            assert long.coeffs.get(qe, {}) == short.coeffs.get(qe, {})
    assert ran >= 40


def test_expand_multiplicativity():
    rng = random.Random(19)
    ran = 0
    for _ in range(120):
        a, b = random_rf(rng), random_rf(rng)
        if a.is_zero() or b.is_zero():
            continue
        try:
            sa, sb, sab = expand(a, 6), expand(b, 6), expand(a * b, 6)
        except ExpansionError:
            continue
        ran += 1
        # convolve the two truncations, including prefactors
        conv = {}
        for qa, pa in sa.coeffs.items():
            for qb, pb in sb.coeffs.items():
                if qa + qb > 12:
                    continue
                acc = conv.setdefault(qa + qb, {})
                for ta, ca in pa.items():
                    for tb, cb in pb.items():
                        acc[ta + tb] = acc.get(ta + tb, 0) + ca * cb
        (qe1, te1), c1 = sa.prefactor.min_term()
        (qe2, te2), c2 = sb.prefactor.min_term()
        (qe3, te3), c3 = sab.prefactor.min_term()
        assert qe3 == qe1 + qe2 and te3 == te1 + te2
        scale = Fraction(c1) * Fraction(c2) / Fraction(c3)
        for qe in range(0, 13):
            want = {te: v * scale for te, v in conv.get(qe, {}).items() if v}
            want = {te: v for te, v in want.items() if v}
            assert sab.coeffs.get(qe, {}) == want
    assert ran >= 20


def test_expand_error_mixed_factor():
    bad = RationalFunction(Laurent.const(1),
                           Laurent({(0, 0): 2, (2, 0): -1, (0, 2): -1}))
    with pytest.raises(ExpansionError):
        expand(bad, 5)


def test_expand_pure_t_division_error():
    # (1 - t) does not divide 1 + q coefficientwise
    bad = RationalFunction(Laurent({(0, 0): 1, (2, 0): 1}),
                           Laurent({(0, 0): 1, (0, 2): -1}))
    with pytest.raises(ExpansionError):
        expand(bad, 4)


def test_expand_pure_t_division_exact():
    # (t + q t) / (1 - t) is singular in t alone but fine times (1 - t)
    val = t * (1 + q) * (1 - t) / (1 - t)
    ser = expand(val, 4)
    assert ser.prefactor == Laurent.monomial(0, 2)
    assert ser.coeffs == {0: {0: 1}, 2: {0: 1}}


def test_expand_content_extraction():
    ser = expand(2 * (3 + 4 * q) / (1 - q), 3)
    assert ser.prefactor == Laurent.const(2)
    assert ser.coeffs == {0: {0: 3}, 2: {0: 7}, 4: {0: 7}, 6: {0: 7}}


def test_expand_in_t_variable():
    ser = expand(th / (1 - t), 3, var="t")
    assert ser.var == "t"
    assert ser.prefactor == Laurent.monomial(0, 1)
    assert ser.coeffs == {0: {0: 1}, 2: {0: 1}, 4: {0: 1}, 6: {0: 1}}


def test_qseries_violation_detection():
    good = expand(qh / (1 - q), 6)
    assert good.first_violation() is None
    bad = QSeries(Laurent.const(1), {0: {0: 1}, 2: {0: -1}}, 10)
    assert bad.first_violation() == (2, 0, -1)
    frac = QSeries(Laurent.const(Fraction(1, 2)), {0: {0: 1}}, 10)
    assert frac.first_violation() == (0, 0, Fraction(1, 2))


def test_qseries_json_roundtrip():
    ser = expand((q + t) / (th * (1 - q)), 6)
    back = QSeries.from_json(json.loads(json.dumps(ser.to_json())))
    assert back.prefactor == ser.prefactor
    assert back.coeffs == ser.coeffs
    assert back.order == ser.order


# -- expansion on the 1 - m kernel, against the slice-by-slice reference -----

def expansion(fn, rf, q_order):
    """(prefactor terms, coefficients, order), or None when fn raises."""
    try:
        ser = fn(rf, q_order)
    except ExpansionError:
        return None
    return ser.prefactor.terms, ser.coeffs, ser.order


# steps m = q^a t^b of the binomials 1 - m a denominator is built from
EXPAND_STEPS = st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(
    lambda e: e != (0, 0))


@st.composite
def product_denominator_values(draw):
    """(value, the same value with one factor per binomial, q-order).  The
    value divides by products of binomials, some of them passed as one
    polynomial, with multiplicities up to 3; the numerator mostly carries the
    pure-t binomials of a product as often, so that they divide exactly."""
    num = draw(LAURENTS.filter(bool))
    value = by_step = RationalFunction(num)
    for group in draw(st.lists(st.lists(EXPAND_STEPS, min_size=1, max_size=3),
                               min_size=1, max_size=3)):
        poly = Laurent.const(1)
        for m in group:
            poly = poly * one_minus(m)
        mult = draw(st.integers(1, 3))
        if draw(st.integers(0, 3)):
            for m in group:
                if m[0] == 0:
                    value = value * RationalFunction(one_minus(m) ** mult)
                    by_step = by_step * RationalFunction(one_minus(m) ** mult)
        for _ in range(mult):
            value = value / RationalFunction(poly)
            for m in group:
                by_step = by_step / RationalFunction(one_minus(m))
    return value, by_step, draw(st.integers(0, 8))


@settings(deadline=None, max_examples=300)
@given(product_denominator_values())
def test_expand_matches_reference(case):
    value, by_step, q_order = case
    got = expansion(expand, value, q_order)
    want = expansion(reference_expand, value, q_order)
    if want is None and got is not None:
        # a product mixing pure-t and positive-q steps, which the reference
        # rejects as one factor but expands binomial by binomial
        assert any(len(f.terms) > 2 for f, _m in value.factors)
        want = expansion(reference_expand, by_step, q_order)
        assert want is not None
    assert got == want
    assert expansion(expand, by_step, q_order) == got


def test_expand_rejects_a_factor_that_is_no_binomial_product():
    with pytest.raises(ExpansionError):
        expand(1 / (1 + q), 3)


def test_expand_mixed_product_factor():
    # (1 - q^(3/2) t^-1)(1 - t^(1/2)) as one factor, and factor by factor
    mixed, pure = one_minus((3, -2)), one_minus((0, 1))
    num = Laurent.monomial(1, 0) * pure * Laurent({(0, 0): 1, (0, 2): 1})
    whole = RationalFunction(num, mixed * pure)
    by_step = RationalFunction(num, mixed) / RationalFunction(pure)
    assert [m for _f, m in whole.factors] == [1] and len(by_step.factors) == 2
    with pytest.raises(ExpansionError):
        reference_expand(whole, 5)
    got = expansion(expand, whole, 5)
    assert got is not None
    assert got == expansion(expand, by_step, 5) == expansion(reference_expand, by_step, 5)


@settings(deadline=None, max_examples=200)
@given(LAURENTS, st.tuples(st.integers(1, 4), st.integers(-4, 4)), st.integers(-4, 12))
def test_truncated_divide_is_the_geometric_sum(p, m, last):
    terms = {e: c for e, c in p.terms.items() if e[0] <= last}
    want = {}
    # exponents start at q^-2, so no power of m above last + 4 stays in range
    for k in range(last + 5):
        for (x, y), c in terms.items():
            e = (x + k * m[0], y + k * m[1])
            if e[0] <= last:
                want[e] = want.get(e, 0) + c
    got = _divide_one_minus(terms, m, last)
    assert got.terms == {e: c for e, c in want.items() if c}


# -- bidegree series ---------------------------------------------------------

def series(cutoff, entries):
    return KahlerSeries(cutoff, entries)


def test_series_divide_identity():
    z = series(3, {(0, 0): one, (1, 0): q / (1 - q), (1, 1): 2 * one})
    assert series_divide(z, z).coeffs == {(0, 0): one}


def test_series_divide_zero_leading_numerator():
    num = series(2, {(1, 0): one})
    den = series(2, {(0, 0): one, (1, 0): q})
    quo = series_divide(num, den)
    assert (0, 0) not in quo.coeffs
    assert rf_equal(quo.coeff(1, 0), one)


def test_series_divide_hand_example():
    c, d = q, t
    num = series(2, {(0, 0): one, (1, 0): c})
    den = series(2, {(0, 0): one, (1, 0): d})
    quo = series_divide(num, den)
    assert rf_equal(quo.coeff(1, 0), c - d)
    assert rf_equal(quo.coeff(2, 0), d * d - c * d)


def test_series_divide_errors():
    num = series(2, {(0, 0): one})
    with pytest.raises(ZeroDivisionError):
        series_divide(num, series(2, {(1, 0): one}))
    with pytest.raises(ValueError):
        series_divide(num, series(3, {(0, 0): one}))


def test_series_multiply_divide_roundtrip():
    rng = random.Random(23)
    for _ in range(20):
        a_entries = {}
        for r in range(3):
            for s in range(3 - r):
                if rng.random() < 0.7:
                    a_entries[(r, s)] = random_rf(rng)
        b_entries = {(0, 0): one}
        for r in range(3):
            for s in range(3 - r):
                if (r, s) != (0, 0) and rng.random() < 0.5:
                    b_entries[(r, s)] = random_rf(rng)
        a = series(2, a_entries)
        b = series(2, b_entries)
        back = series_divide(series_multiply(a, b), b)
        assert back.equal_through(a, 2) is None


def test_kahler_series_contract():
    with pytest.raises(ValueError):
        KahlerSeries(-1)
    z = series(2, {(0, 0): one})
    assert z.is_determined(1, 1)
    assert not z.is_determined(3, 0)
    with pytest.raises(KeyError):
        z.coeff(3, 0)
    assert z.coeff(1, 1).is_zero()


def test_kahler_json_roundtrip():
    z = series(2, {(0, 0): one, (1, 0): q / (1 - q), (0, 2): th / (1 - t)})
    back = KahlerSeries.from_json(json.loads(json.dumps(z.to_json())))
    assert back.cutoff == z.cutoff
    assert back.determined == z.determined
    assert back.equal_through(z, 2) is None


def test_series_determinedness_propagation():
    # axis-only series (one-parameter geometry): quotient stays axis-only
    axis = {(r, 0) for r in range(4)}
    num = KahlerSeries(3, {(0, 0): one, (1, 0): q, (2, 0): q * q}, axis)
    den = KahlerSeries(3, {(0, 0): one, (1, 0): t}, axis)
    quo = series_divide(num, den)
    assert quo.determined == frozenset(axis)
    assert not quo.is_determined(1, 1)
    with pytest.raises(KeyError):
        quo.coeff(0, 1)
    # full-triangle inputs keep the full triangle
    full_num = KahlerSeries(2, {(0, 0): one, (1, 1): q})
    full_den = KahlerSeries(2, {(0, 0): one, (0, 1): t})
    assert series_divide(full_num, full_den).determined == full_num.determined
    prod = series_multiply(full_num, full_den)
    assert prod.determined == full_num.determined
    # partially determined factor poisons only the bidegrees it can reach
    partial = KahlerSeries(2, {(0, 0): one}, {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)})
    prod2 = series_multiply(full_num, partial)
    assert (0, 2) not in prod2.determined
    assert (1, 1) in prod2.determined
