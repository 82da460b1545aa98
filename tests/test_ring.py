import importlib.util
import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (chain_cancelled, chain_steps, one_minus, reference_expand,
                     reference_rf_equal, series_multiply)
from rp3vertex import ring
from rp3vertex.ring import (_MUL_PACK_WORK, RF_ONE, RF_ZERO, ExpansionError, KahlerSeries,
                            Laurent, QSeries, RationalFunction, _coeff_of, _coeff_str,
                            _lift_sum, _mul_packed, _one_minus_steps, _pack, _tighten,
                            _unpack, canonical_series, expand, series_divide)

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)
one = RF_ONE
zero = RF_ZERO


def random_laurent(rng, nterms=4, span=4):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        e = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        terms[e] = rng.randrange(-9, 10)
    return Laurent(terms)


def random_rf(rng, num=None):
    num = random_laurent(rng) if num is None else num
    dens = [Laurent({(0, 0): 1, (rng.randrange(1, 4) * 2, 0): -1}),
            Laurent({(0, 0): 1, (0, rng.randrange(1, 4) * 2): -1}),
            Laurent({(0, 0): 1, (2, 2): -1})]
    rf = RationalFunction(num)
    for d in dens[:rng.randrange(3)]:
        rf = rf / RationalFunction(d)
    return rf


def random_divisor(rng):
    """A value any value may be divided by: its numerator is c q^a t^b
    times up to two steps 1 - m."""
    num = Laurent.monomial(rng.randrange(-4, 5), rng.randrange(-4, 5),
                           rng.choice([-3, -1, 1, 2, Fraction(1, 2)]))
    for _ in range(rng.randrange(3)):
        num = num * one_minus((rng.randrange(0, 4), rng.randrange(1, 4)))
    return random_rf(rng, num)


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
    assert a + zero == a
    assert a * one == a
    assert a * (1 - q) == qh
    assert 1 / (1 - q) + 1 / (1 - t) == (2 - q - t) / ((1 - q) * (1 - t))


def test_rf_equal_examples():
    assert q / (1 - q) ** 2 == q * (1 - t) / ((1 - q) ** 2 * (1 - t))
    assert q / (1 - q) ** 2 != q / (1 - q)
    a = (1 + q * t) / ((1 - q) * (1 - t))
    assert a == a


def test_rf_unhashable():
    # equal values in different unreduced forms could not share a hash
    a = q / (1 - q)
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a: 1}


def test_rf_integer_powers():
    a = (1 - q) * qh / (1 - t)
    assert (a ** 0).is_one()
    assert a ** 3 == a * a * a
    assert same_representation(a ** 3, a * a * a)
    assert a ** -2 * a ** 2 == one


def test_a_denominator_that_is_no_product_of_steps_is_refused():
    # every denominator is a product of steps 1 - q^a t^b
    one_plus_q = Laurent({(0, 0): 1, (2, 0): 1})
    one_plus_2q = Laurent({(0, 0): 1, (2, 0): 2})
    with pytest.raises(ValueError, match="factor 1 \\+ q is not a product"):
        RationalFunction(1, one_plus_q)
    with pytest.raises(ValueError, match="factor 1 \\+ 2\\*q is not a product"):
        RF_ONE / RationalFunction(one_plus_2q)
    # so expand is never handed one
    with pytest.raises(ValueError):
        expand(1 / (1 + q), 3)


def test_a_rational_function_is_no_numerator_or_denominator():
    for args, what in (((q / (1 - q),), "numerator"), ((q, 1 - q), "numerator"),
                       ((q.num, 1 - q), "denominator")):
        with pytest.raises(TypeError, match=f"{what} is a RationalFunction"):
            RationalFunction(*args)


def test_scaling_keeps_integral_coefficients_ints():
    got = (q * Fraction(1, 2)) * 2
    assert got.num.terms == {(2, 0): 1} and type(got.num.terms[2, 0]) is int
    got = Laurent({(0, 0): Fraction(2, 3), (2, 0): Fraction(1, 3)}) * Fraction(3, 2)
    assert got.terms == {(0, 0): 1, (2, 0): Fraction(1, 2)}
    assert type(got.terms[0, 0]) is int


def test_every_step_prints_as_one_minus_m():
    # 1/(1 - t^2/q) is stored as -q t^-2 / (1 - q t^-2), a step below 1 in
    # total degree
    assert (1 / (1 - t * t / q)).text() == "-q*t^-2/(1 - q*t^-2)"
    assert (qh / ((1 - q) * (1 - t) ** 2)).text() == "sqrt(q)/((1 - t)^2*(1 - q))"


def test_rf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Laurent.const(1), Laurent())


def test_division_keeps_integer_coefficients_ints():
    # a divisor whose least term is not 1 scales the numerator: q - 1 and
    # 1 - q^-1 t^2 (least term -q^-1 t^2) by -1, 2 - 2q by 1/2; a
    # coefficient that stays integral stays an int, so that the value stays
    # on the kernels for integer coefficients
    for value, terms, factors in (
            ((1 + q) / (q - 1), {(0, 0): -1, (2, 0): -1}, (((2, 0), 1),)),
            (RationalFunction((1 + q).num, (q - 1).num), {(0, 0): -1, (2, 0): -1},
             (((2, 0), 1),)),
            (1 / (1 - t * t / q), {(2, -4): -1}, (((2, -4), 1),)),
            ((2 + 4 * q) / (2 - 2 * q), {(0, 0): 1, (2, 0): 2}, (((2, 0), 1),))):
        assert value.num.terms == terms and value.factors == factors
        assert all(type(c) is int for c in value.num.terms.values())
    c, e, unit = Laurent({(0, 0): -2, (2, 0): 2}).normalized()
    assert (c, e, unit.terms) == (-2, (0, 0), {(0, 0): 1, (2, 0): -1})
    assert all(type(v) is int for v in unit.terms.values())
    # a sum of fraction coefficients is lifted on integers scaled by the lcm
    # of their denominators and scaled back: a coefficient that comes back
    # integral is an int
    half = Fraction(1, 2)
    for got in (RationalFunction.sum_of([half * q, half * q / (1 - q)]),
                RationalFunction.sum_of([half * q, half * q / (1 - q)], cancel=True)):
        assert got.num.terms == {(2, 0): 1, (4, 0): -half}
        assert type(got.num.terms[2, 0]) is int


def test_rf_field_axioms_via_evaluation():
    # evaluation at random rational points is the independent oracle
    rng = random.Random(99)
    x, y = Fraction(3, 5), Fraction(7, 11)
    for _ in range(1000):
        a, b, d = random_rf(rng), random_rf(rng), random_divisor(rng)
        assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)
        assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)
        assert (a - b).evaluate(x, y) == a.evaluate(x, y) - b.evaluate(x, y)
        if d.evaluate(x, y) != 0:
            assert (a / d).evaluate(x, y) == a.evaluate(x, y) / d.evaluate(x, y)


def test_rf_sum_of_matches_pairwise():
    rng = random.Random(4)
    for _ in range(100):
        vals = [random_rf(rng) for _ in range(5)]
        total = zero
        for v in vals:
            total = total + v
        assert RationalFunction.sum_of(vals) == total


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
        for m, k in v.factors:
            if lcm.get(m, 0) < k:
                lcm[m] = k
    total = Laurent()
    for v in values:
        have = dict(v.factors)
        num = v.num
        for m, k in lcm.items():
            need = k - have.get(m, 0)
            if need:
                num = num * one_minus(m) ** need
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

# the steps 1 - q^a t^b denominators are built from, half-integer and
# mixed-sign exponents included, and 1 - q^-1 t^2, which the constructor
# stores turned around, as -q^-1 t^2 (1 - q t^-2)
FACTOR_POLYS = [one_minus(e)
                for e in [(2, 0), (0, 2), (2, 2), (4, 0), (1, 1), (2, -2), (6, 4), (-2, 4)]]


@settings(deadline=None, max_examples=100)
@given(LAURENTS, LAURENTS)
def test_equal_laurents_hash_equal(a, b):
    as_fractions = Laurent({e: Fraction(c) for e, c in reversed(a.terms.items())})
    assert as_fractions == a and hash(as_fractions) == hash(a)
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    assert (a == b) == (a.terms == b.terms)


def test_laurent_is_never_equal_to_a_number():
    # numbers hash by value and Laurents by their terms, so no Laurent may
    # equal a number; a dict keyed by Laurents takes no number keys
    assert not Laurent.const(1) == 1
    assert Laurent.const(1) != 1 and Laurent() != 0
    assert not Laurent.const(Fraction(1, 2)) == Fraction(1, 2)
    assert {Laurent.const(1): 0}.get(1) is None


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
# a step the constructor turns around, and fraction coefficients (see the
# test below)
@example([(Fraction(1, 2) + q) / (1 - t * t / q), q * q / (3 - 3 * q)])
def test_sum_of_same_representation_as_reference(values):
    got = RationalFunction.sum_of(values)
    want = reference_sum_of(values)
    assert got.num.terms == want.num.terms
    assert got.factors == want.factors
    assert all(got.num.terms.values())


def test_sum_over_a_backward_step_by_hand():
    # (1/2 + q)/(1 - q^-1 t^2) + (q^2/3)/(1 - q): the first denominator is
    # stored as -q^-1 t^2 (1 - q t^-2), so the first term as
    # -(1/2 + q) q t^-2 / (1 - q t^-2)
    first = (Fraction(1, 2) + q) / (1 - t * t / q)
    assert first.num.terms == {(2, -4): Fraction(-1, 2), (4, -4): -1}
    assert first.factors == (((2, -4), 1),)
    got = first + q * q / (3 - 3 * q)
    assert got.num.terms == {(2, -4): Fraction(-1, 2), (4, -4): Fraction(-1, 2),
                             (6, -4): Fraction(2, 3), (4, 0): Fraction(1, 3)}
    assert got.factors == (((2, -4), 1), ((2, 0), 1))


def same_representation(a, b):
    return a.num.terms == b.num.terms and a.factors == b.factors


# A value's (num, factors) is fixed by its value and its factor multiset.
# Products add multisets and sum_of takes their factor-wise LCM, which
# commutes with adding a common multiset; so common factors move out of
# sums, and products reassociate, without changing the printed form.

@settings(deadline=None, max_examples=200)
@given(rf_value_lists(), rf_values())
@example([one / (1 - q), -one / (1 - q)], t / (1 - q * t))
@example([q, -q], zero)
def test_common_factor_leaves_a_sum_in_the_same_representation(values, c):
    got = RationalFunction.sum_of([v * c for v in values])
    assert same_representation(got, RationalFunction.sum_of(values) * c)


@settings(deadline=None, max_examples=200)
@given(rf_values(), rf_values(), rf_values())
def test_products_reassociate_in_the_same_representation(a, b, c):
    assert same_representation((a * b) * c, a * (b * c))


@st.composite
def equality_pairs(draw):
    """(a, b): b another value, or a's value in another form, or zero; then
    perhaps b plus a further value, which is mostly unequal."""
    a = draw(rf_values())
    form = draw(st.sampled_from(("other", "shared", "unreduced", "json", "zero")))
    if form == "other":
        b = draw(rf_values())
    elif form == "shared":
        c = draw(rf_values())
        a, b = a * c, draw(st.sampled_from([a, draw(rf_values())])) * c
    elif form == "unreduced":
        p = RationalFunction(draw(st.sampled_from(FACTOR_POLYS)))
        b = a * p / p
    elif form == "json":
        b = RationalFunction.from_json(json.loads(json.dumps(a.to_json())))
    else:
        a, b = draw(st.sampled_from([a, a - a, zero])), zero
    if draw(st.booleans()):
        b = b + draw(rf_values())
    return a, b


@settings(deadline=None, max_examples=200)
@given(equality_pairs())
@example(((1 + q) / ((1 - q) * (1 - t)), RationalFunction((1 + q).num, ((1 - q) * (1 - t)).num)))
@example((Fraction(1, 2) * qh / (1 - q), qh / (2 - 2 * q)))
@example((q * (1 - t) / ((1 - q) ** 2 * (1 - t)), q / (1 - q) ** 2))
@example((zero, zero))
@example((q - q, zero))
def test_equality_agrees_with_cross_multiplication(pair):
    a, b = pair
    want = reference_rf_equal(a, b)
    assert (a == b) is want
    assert (b == a) is want
    assert (a != b) is not want


def test_json_roundtrip_splits_the_den_into_steps():
    a = (1 + q) / ((1 - q) * (1 - t) ** 2)
    back = RationalFunction.from_json(json.loads(json.dumps(a.to_json())))
    # the expanded den is read back as its steps 1 - t and 1 - q
    assert back.factors == a.factors == (((0, 2), 2), ((2, 0), 1))
    assert same_representation(back, a)
    assert back == a and reference_rf_equal(back, a)
    assert back != a + t and not reference_rf_equal(back, a + t)


@settings(deadline=None, max_examples=100)
@given(rf_values(), st.integers(1, 4))
def test_den_is_the_product_of_the_factor_powers(rf, n):
    for value in (rf, rf ** n):
        want = Laurent.const(1)
        for m, k in value.factors:
            want = want * one_minus(m) ** k
        assert value.den.terms == want.terms


# steps above (0, 0) in lexicographic order, as a denominator stores them
ABOVE_ONE = EXPONENTS.filter(lambda e: e > (0, 0))


@settings(deadline=None, max_examples=100)
@given(LAURENTS.filter(bool), st.lists(ABOVE_ONE, max_size=5))
@example(Laurent.const(1), [(2, 0), (0, 2), (2, 0), (3, -2)])
# steps below 1 in total degree
@example(Laurent.const(1), [(2, -4), (1, -2), (0, 1), (2, -4)])
def test_an_expanded_den_splits_into_its_steps(num, steps):
    den = Laurent.const(1)
    by_step = RationalFunction(num)
    for m in steps:
        den = den * one_minus(m)
        by_step = by_step / RationalFunction(one_minus(m))
    rf = RationalFunction(num, den)
    assert rf.factors == tuple(sorted(Counter(steps).items()))
    assert rf.den == den
    assert rf == by_step


@st.composite
def divisor_polys(draw):
    """c q^a t^b times up to three steps 1 - m, each m above or below
    (0, 0), as one polynomial: what a value may be divided by."""
    poly = Laurent.monomial(*draw(EXPONENTS), draw(COEFFS.filter(bool)))
    for m in draw(st.lists(EXPONENTS.filter(lambda e: e != (0, 0)), max_size=3)):
        poly = poly * one_minus(m)
    return poly


@settings(deadline=None, max_examples=200)
@given(LAURENTS, divisor_polys(), LAURENTS, divisor_polys(), divisor_polys())
@example(Laurent.const(1), one_minus((-2, 4)), Laurent.const(3), one_minus((0, -2)),
         Laurent.monomial(1, -1, -1) * one_minus((-1, 1)))
def test_public_values_store_only_steps_above_zero(num_a, den_a, num_b, den_b, poly):
    # the packed kernels shift every step towards higher slots: no value the
    # public API builds stores a step m <= (0, 0)
    a, b, d = (RationalFunction(num_a, den_a), RationalFunction(num_b, den_b),
               RationalFunction(poly, den_b))
    values = [a, b, d, a * b, a / d, a ** 2, (a * d).cancelled(),
              RationalFunction.sum_of([a, b, d]), RationalFunction.sum_of([a, d], cancel=True)]
    for value in list(values):
        for mapped in (value.swap_qt, value.substitute_t_eq_q):
            try:
                values.append(mapped())
            except ZeroDivisionError:
                pass    # t = q sends a step q^a t^-a to 1 - 1
    z = KahlerSeries(1, {(0, 0): a, (1, 0): b, (0, 1): d})
    values += KahlerSeries.from_json(json.loads(json.dumps(z.to_json()))).coeffs.values()
    for value in values:
        assert all(m > (0, 0) and k > 0 for m, k in value.factors)


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
    binomial = one_minus(m)
    want = general_product(p, binomial)
    for got in (p * binomial, binomial * p):
        assert got == want
        assert got.terms == want.terms
        assert all(got.terms.values())


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

# steps m = q^a t^b of the factor 1 - m, each above (0, 0) as a
# denominator stores it, by the case of the chain key and slot shift they hit
STEPS = {
    "negative_b": st.tuples(st.integers(1, 4), st.integers(-6, -1)),
    "zero_a": st.tuples(st.just(0), st.integers(1, 4)),
    "non_primitive": st.tuples(ABOVE_ONE, st.integers(2, 3)).map(
        lambda mg: (mg[0][0] * mg[1], mg[0][1] * mg[1])),
    "any": ABOVE_ONE,
}


def backward_form(num, m, k):
    """num / (1 - m)^k built through the constructor from the backward step
    1 - 1/m: (1 - 1/m)^k = (-1/m)^k (1 - m)^k, so the value is (-1/m)^k num
    over (1 - 1/m)^k."""
    a, b = m
    return RationalFunction(num.shift(-k * a, -k * b).scale((-1) ** k),
                            one_minus((-a, -b)) ** k)


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
    # as stored, and as the constructor normalizes it from 1 - m and from
    # the backward 1 - 1/m
    for rf in (RationalFunction._make(p * f, {m: 1}), RationalFunction(p * f, f),
               backward_form(p * f, m, 1)):
        got = rf.cancelled()
        assert got.num.terms == p.terms
        assert got.factors == ()
        assert_same_value(got, rf)


@pytest.mark.parametrize("kind", sorted(STEPS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_cancel_keeps_a_factor_that_does_not_divide(kind, data):
    m = data.draw(STEPS[kind])
    num = draw_indivisible(data, m)
    for rf in (RationalFunction._make(num, {m: 2}), backward_form(num, m, 2)):
        got = rf.cancelled()
        assert got.num.terms == num.terms
        assert got.factors == ((m, 2),)
        assert_same_value(got, rf)


@pytest.mark.parametrize("kind", sorted(STEPS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_cancel_up_to_the_multiplicity(kind, data):
    m = data.draw(STEPS[kind])
    f = one_minus(m)
    p = draw_indivisible(data, m)
    k, j = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    for rf in (RationalFunction._make(p * f ** k, {m: j}), backward_form(p * f ** k, m, j)):
        got = rf.cancelled()
        assert got.num.terms == (p * f ** max(k - j, 0)).terms
        assert got.factors == (((m, j - k),) if j > k else ())
        assert_same_value(got, rf)


@settings(deadline=None, max_examples=200)
@given(rf_values(), st.data())
def test_cancelled_equals_its_input(rf, data):
    # a numerator multiplied by some of its own steps
    steps = [m for m, _k in rf.factors]
    extra = data.draw(st.lists(st.sampled_from(steps), max_size=4)) if steps else []
    num = rf.num
    for m in extra:
        num = num * one_minus(m)
    rf = RationalFunction._make(num, dict(rf.factors))
    got = rf.cancelled()
    assert_same_value(got, rf)
    have = dict(got.factors)
    for m, k in rf.factors:
        assert have.get(m, 0) <= k
    assert set(have) <= set(dict(rf.factors))


# -- the packed lifting and product kernels ----------------------------------

def naive_lift(items, steps):
    """The sum `_lift_sum` lifts, item by item: each numerator times every
    step power it needs, by plain double-loop products."""
    total = Laurent()
    for num, need in items:
        for m, k in zip(steps, need):
            for _ in range(k):
                num = general_product(num, one_minus(m))
        total = total + num
    return total


# steps m = q^a t^b as a denominator stores them, a > 0, or a = 0 and b >
# 0: half-integer, mixed-sign (below 1 in total degree too) and
# non-primitive ones
LIFT_STEPS = [(2, 0), (0, 2), (2, 2), (1, 1), (2, -2), (4, -6), (0, 1), (1, 0),
              (6, 4), (3, -1), (2, -4), (1, -3)]
# small coefficients, and ones whose slots need more than eight bytes
KERNEL_COEFFS = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80)).filter(bool)
# the same, or fractions, integral ones such as Fraction(7, 7) included
LIFT_COEFFS = st.one_of(KERNEL_COEFFS, st.sampled_from([Fraction(7, 7), Fraction(-4, 2)]),
                        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool))


@st.composite
def lift_cases(draw):
    """(items, steps) as sum_of hands them to the lifting: distinct
    steps, numerators on a box at any offset, needs 0..3, and maybe the
    negatives of all or some of the items, so the sum cancels."""
    steps = draw(st.lists(st.sampled_from(LIFT_STEPS), max_size=4, unique=True))
    dq, dt = draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    nums = draw(st.lists(st.dictionaries(EXPONENTS, LIFT_COEFFS, min_size=1,
                                         max_size=6), min_size=1, max_size=6))
    items = [(Laurent({(x + dq, y + dt): c for (x, y), c in num.items()}),
              [draw(st.integers(0, 3)) for _m in steps]) for num in nums]
    if draw(st.booleans()):
        items += [(-num, need) for num, need in draw(st.sampled_from([items, items[:1]]))]
        items = draw(st.permutations(items))
    return items, steps


def assert_lift_is_naive(items, steps):
    got = _lift_sum(items, steps)
    assert got.terms == naive_lift(items, steps).terms
    assert all(got.terms.values())
    return got


@settings(deadline=None, max_examples=300)
@given(lift_cases())
@example(([(Laurent({(1, 0): 1}), [2]), (Laurent({(0, 1): -1}), [2])], [(2, 0)]))
@example(([(Laurent({(0, 0): 5}), [1]), (Laurent({(0, 0): -5}), [1])], [(0, 2)]))
# an integral Fraction, a step below 1 in total degree, and a pure step
# with an integral Fraction
@example(([(Laurent({(0, 0): Fraction(7, 7)}), [2]), (Laurent({(2, 2): 3}), [0])], [(2, 0)]))
@example(([(Laurent({(0, 0): 1, (2, 0): 2}), [2, 1]), (Laurent({(1, 1): -1}), [0, 3])],
          [(2, -4), (0, 2)]))
@example(([(Laurent({(0, 0): Fraction(3, 3)}), [1])], [(0, 2)]))
def test_lift_matches_the_naive_sum(case):
    assert_lift_is_naive(*case)


@pytest.mark.parametrize("size", range(1, 18))
def test_packed_slots_at_the_bound(size):
    # the bound sum |num|_1 * 2^need is just under 2^(8 size - 1), so the
    # slots are exactly size bytes wide
    for k, m in ((0, (2, 0)), (3, (2, 0)), (5, (1, -1))):
        c = (2 ** (8 * size - 1) - 1) // (2 * 2 ** k)
        for sign in (1, -1):
            items = [(Laurent({(0, 0): sign * c}), [k]), (Laurent({(1, 1): sign * c}), [0])]
            assert assert_lift_is_naive(items, [m]) == Laurent.monomial(0, 0, sign * c) \
                * one_minus(m) ** k + Laurent.monomial(1, 1, sign * c)
    # a coefficient equal to the bound 2^(8 size - 1) takes one more byte
    for sign in (1, -1):
        assert_lift_is_naive([(Laurent({(0, 0): sign * 2 ** (8 * size - 2)}), [0])] * 2,
                             [(2, 0)])
    # a product whose middle coefficient 2 c d is its slot bound, just
    # under 2^(8 size - 1)
    d = (2 ** (8 * size - 1) - 1) // 2
    for sign in (1, -1):
        a, b = {(0, 0): sign, (1, 1): sign}, {(3, -1): d, (4, 0): d}
        assert _mul_packed(a, b).terms == {(3, -1): sign * d, (4, 0): 2 * sign * d,
                                           (5, 1): sign * d}


@pytest.mark.parametrize("size", range(1, 18))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_pack_round_trip(size, data):
    # word slots (8 bytes), narrowed ones (1-7) and byte-looped ones (9-17),
    # at the largest coefficients a slot holds, on boxes at any offset
    top = 2 ** (8 * size - 1) - 1
    coeffs = st.sampled_from([top, -top]) | st.integers(-top, top).filter(bool)
    lo_q, lo_t = data.draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    g_q, g_t = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    n_q, n_t = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    slots = data.draw(st.dictionaries(st.tuples(st.integers(0, n_q - 1),
                                                st.integers(0, n_t - 1)),
                                      coeffs, min_size=1, max_size=8))
    terms = {(lo_q + x * g_q, lo_t + y * g_t): c for (x, y), c in slots.items()}
    box = (lo_q, lo_t, g_q, g_t, n_t, n_q)
    assert _unpack(_pack([terms], box, size), box, size).terms == terms
    # several dicts pack their sum, each slot adding up its coefficients
    halves = [{e: c // 2 for e, c in terms.items()}, {e: c - c // 2 for e, c in terms.items()}]
    negated = {e: -c for e, c in terms.items()}
    for polys in (halves, [terms, negated, terms]):
        assert _unpack(_pack(polys, box, size), box, size).terms == terms


OPERANDS = st.tuples(st.dictionaries(EXPONENTS, KERNEL_COEFFS, min_size=1, max_size=8),
                     st.tuples(st.integers(-40, 40), st.integers(-40, 40))).map(
    lambda case: {(x + case[1][0], y + case[1][1]): c for (x, y), c in case[0].items()})


@settings(deadline=None, max_examples=300)
@given(OPERANDS, OPERANDS)
# (1 + q)(1 - q): the middle terms cancel
@example({(0, 0): 1, (2, 0): 1}, {(0, 0): 1, (2, 0): -1})
# one-slot boxes
@example({(3, -5): 7}, {(-1, 2): -2 ** 70})
@example({(0, 0): -1}, {(0, 0): 1})
def test_packed_product_matches_dict_product(a, b):
    want = general_product(Laurent(a), Laurent(b)).terms
    got = _mul_packed(a, b)
    assert got.terms == want
    assert all(got.terms.values())


def test_fraction_operands_take_the_dict_product():
    a = Laurent({(x, y): x - y or 1 for x in range(16) for y in range(-8, 8, 2)})
    b = Laurent({(x, 3 * y): Fraction(x + 1, y + 2) for x in range(4) for y in range(4)})
    assert len(a.terms) * len(b.terms) >= _MUL_PACK_WORK
    assert _mul_packed(a.terms, b.terms) is None
    assert _mul_packed(b.terms, a.terms) is None
    assert (a * b).terms == (b * a).terms == general_product(a, b).terms


def test_former_decline_cases_lift_to_the_naive_sum():
    # the inputs the lifting once declined to pack, and lifted on dicts:
    # a coefficient that is no int, and steps with a negative slot shift
    # (a < 0, or a = 0 and b < 0), which the constructor stores turned
    # around, as 1 - q t^-2 and 1 - t
    big = [(Laurent({(x, 2 * y): x - y or 1 for x in range(30) for y in range(30)}), [3]),
           (Laurent({(1, 1): 2}), [0])]
    for items, steps in (
            ([(Laurent({(0, 0): Fraction(1, 2)}), [3])] + big, [(2, 0)]),
            (big, [(2, -4)]),
            (big, [(0, 2)])):
        want = Laurent()
        for num, need in items:
            want = want + num * one_minus(steps[0]) ** need[0]
        assert _lift_sum(items, steps).terms == want.terms
    for backward, m in (((-2, 4), (2, -4)), ((0, -2), (0, 2))):
        values = [RationalFunction(num, one_minus(backward) ** need[0]) for num, need in big]
        assert all(rf.factors in ((), ((m, 3),)) for rf in values)
        got = RationalFunction.sum_of(values)
        assert same_representation(got, reference_sum_of(values))


def test_compute_sums_match_the_naive_sum(monkeypatch):
    """Every sum of a refined cutoff-5 [1,1]x[1] normalized compute and of
    its raw open amplitude, from a cold start, against the naive sum."""
    from rp3vertex import amplitude, partitions, specialize, vertex
    from rp3vertex.amplitude import AmplitudeSpec, normalized_amplitude, open_amplitude
    from rp3vertex.partitions import parse_partition

    sums = []

    def checked(items, steps, cancel=None):
        want = naive_lift(items, steps)
        if cancel is None:
            got = _lift_sum(items, steps)
            assert got.terms == want.terms
        else:
            # series_divide cancels each sum on its packed integer
            got, left = _lift_sum(items, steps, cancel)
            assert (got, left) == chain_cancelled(want, cancel) if want else not got
        sums.append(len(want.terms))
        return got if cancel is None else (got, left)

    monkeypatch.setattr(ring, "_lift_sum", checked)
    for module in (amplitude, partitions, ring, specialize, vertex):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    # the normalized series divides the G rows and makes 96 sums; the raw
    # one (--raw) also makes the F0 * G sums, 179 sums in all
    spec = AmplitudeSpec(alpha=parse_partition("[1,1]"), gamma=parse_partition("[1]"),
                         refined=True, cutoff=5)
    normalized_amplitude(spec)
    open_amplitude(spec)
    assert len(sums) > 100


# -- the packed exact division ------------------------------------------------

# steps of every kind, and t^(1/2), one slot apart in every box: a numerator
# whose coefficients sum to zero, but not along each q row, then makes one
# chain across the row ends, which only the padding columns tell apart
DIVISION_STEPS = st.one_of(st.just((0, 1)), *STEPS.values())
# 8 (1 - t^4)(1 - q) = (1 - t) Q has 1-norm 32, so one-byte slots (32 <
# 2^6); |Q|_1 = 64 is not below 2^6, so the failing try of 1 - q^2 on Q
# proves nothing until the slots are widened
WIDENING = (Laurent({(0, 0): 8, (0, 8): -8, (2, 0): -8, (2, 8): 8}), (((0, 2), 1), ((4, 0), 1)))
# (1 - q)^2 P, P = sum_j j (16 - j) q^j, has 1-norm 60, so one-byte slots,
# but P's coefficient 64 needs two: the second division succeeds only on
# widened slots
PARABOLA = (Laurent({(2 * j, 0): j * (16 - j) for j in range(17)}) * one_minus((2, 0)) ** 2,
            (((2, 0), 2),))
# q^0 t^(3/2) - q t^0 sums to zero; its two terms are one slot apart on the
# slot line of 1 - t^(1/2) without the padding column, so packed it is
# (1 - x)(1 + x) x^3 and would seem to divide
WRAP = (Laurent({(0, 3): 1, (2, 0): -1}), (((0, 1), 1),))


@st.composite
def division_cases(draw):
    """(num, factors) for `cancelled`: a cofactor with small, wide or
    fraction coefficients times each step to a power up to one above its
    multiplicity, and maybe plus a numerator whose coefficients sum to
    zero."""
    ms = draw(st.lists(DIVISION_STEPS, min_size=1, max_size=3, unique=True))
    factors = tuple(sorted((m, draw(st.integers(1, 3))) for m in ms))
    num = Laurent(draw(st.dictionaries(EXPONENTS, LIFT_COEFFS, min_size=1, max_size=6)))
    for m, k in factors:
        num = num * one_minus(m) ** draw(st.integers(0, k + 1))
    if draw(st.booleans()):
        extra = draw(LAURENTS)
        num = num + extra - Laurent.monomial(*draw(EXPONENTS), sum(extra.terms.values()))
    assume(num)
    return num, factors


@settings(deadline=None, max_examples=400)
@given(division_cases())
@example(WRAP)
@example(WIDENING)
@example(PARABOLA)
# 1 - q t^-2, as the constructor stores 1 - q^-1 t^2, to the power 2, with
# fraction coefficients
@example((Laurent({(0, 0): Fraction(1, 3), (1, 1): 2}) * one_minus((2, -4)) ** 2,
          (((2, -4), 3),)))
def test_packed_division_matches_the_chains(case):
    num, factors = case
    rf = RationalFunction._make(num, dict(factors))
    want, left = chain_cancelled(num, rf.factors)
    got = rf.cancelled()
    assert got.num.terms == want.terms
    assert got.factors == tuple((m, k) for m, k in sorted(left.items()) if k)


@settings(deadline=None, max_examples=200)
@given(lift_cases(), st.data())
def test_lift_and_division_match_the_chains(case, data):
    # the sum lifted and divided on one packed integer, as series_divide
    # does, by its steps and maybe t^(1/2)
    items, steps = case
    ms = steps + data.draw(st.lists(st.just((0, 1)), max_size=1))
    cancel = sorted({m: data.draw(st.integers(1, 4)) for m in ms}.items())
    want = naive_lift(items, steps)
    got, left = _lift_sum(items, steps, cancel)
    if want:
        assert (got, left) == chain_cancelled(want, cancel)
    else:
        assert got == want


def test_division_widens_its_slots(monkeypatch):
    sizes = []

    def pack(polys, box, size):
        sizes.append(size)
        return _pack(polys, box, size)

    monkeypatch.setattr(ring, "_pack", pack)
    num, factors = WIDENING
    got = RationalFunction._make(num, dict(factors)).cancelled()
    assert sizes == [1, 2]
    assert got.num == Laurent({(0, 2 * i): 8 for i in range(4)}) * one_minus((2, 0))
    assert got.factors == (((4, 0), 1),)
    sizes.clear()
    num, factors = PARABOLA
    got = RationalFunction._make(num, dict(factors)).cancelled()
    assert sizes == [1, 2]
    assert got.num == Laurent({(2 * j, 0): j * (16 - j) for j in range(1, 16)})
    assert got.factors == ()


def test_map_turns_steps_as_the_former_split():
    # each step 1 - m goes to 1 - fn(m), turned around below (0, 0), as the
    # former route through `_over`, which splits fn(den) into its steps
    from rp3vertex.partitions import enumerate_up_to
    from rp3vertex.specialize import macdonald_p_at_rho, macdonald_tilde_z
    from rp3vertex.vertex import framing_refined

    values = [f(nu) for nu in enumerate_up_to(6)
              for f in (macdonald_p_at_rho, macdonald_tilde_z, framing_refined,
                        lambda nu: RF_ONE / macdonald_tilde_z(nu, "q"))]
    values.append(q / ((1 - qh * th) * (1 - q / t ** 2)))
    for rf in values:
        for fn in (Laurent.substitute_t_eq_q, Laurent.swap_qt):
            got = rf._map(fn)
            want = RationalFunction._over(fn(rf.num), fn(rf.den), {})
            assert got.num.terms == want.num.terms
            assert got.factors == want.factors
    with pytest.raises(ZeroDivisionError):
        (RF_ONE / (1 - q / t)).substitute_t_eq_q()


def test_substitute_t_eq_q_examples():
    assert (q / (th * (1 - q))).substitute_t_eq_q() == qh / (1 - q)
    a = qh / (1 - q)
    assert a.substitute_t_eq_q() == a
    lead = q / (1 - q) ** 2
    assert lead.substitute_t_eq_q() == lead


def test_substitute_commutes_with_arith():
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_rf(rng), random_rf(rng)
        assert (a + b).substitute_t_eq_q() == a.substitute_t_eq_q() + b.substitute_t_eq_q()
        assert (a * b).substitute_t_eq_q() == a.substitute_t_eq_q() * b.substitute_t_eq_q()


def test_swap_qt_involution():
    rng = random.Random(12)
    for _ in range(200):
        a = random_rf(rng)
        assert a.swap_qt().swap_qt() == a


def test_rf_json_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        a = random_rf(rng)
        back = RationalFunction.from_json(json.loads(json.dumps(a.to_json())))
        assert a == back


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


def test_expand_a_turned_backward_step():
    # 1/(1 - q^-1 t^2) is stored as -q t^-2 / (1 - q t^-2), so it expands
    # in q as -sum_{k >= 1} q^k t^-2k
    value = RationalFunction(Laurent.const(1), one_minus((-2, 4)))
    assert value.factors == (((2, -4), 1),)
    ser = expand(value, 4)
    assert ser.text() == "[-q*t^-10] * (t^8 + t^6*q + t^4*q^2 + t^2*q^3 + q^4)"
    assert ser.prefactor == Laurent.monomial(2, -20, -1)
    assert ser.coeffs == {2 * j: {16 - 4 * j: 1} for j in range(5)}
    assert expansion(expand, value, 4) == expansion(reference_expand, value, 4)


def test_expand_pure_t_division_error():
    # (1 - t) does not divide 1 + q coefficientwise
    bad = RationalFunction(Laurent({(0, 0): 1, (2, 0): 1}),
                           Laurent({(0, 0): 1, (0, 2): -1}))
    with pytest.raises(ExpansionError, match="after dividing by 1 - t$"):
        expand(bad, 4)
    # the first pure step left is named: 1 - t divides (1 - t^2)/(1 - q)
    # cut at q^4 (each q row is 1 - t^2), and 1 - t^4 does not
    bad = (1 - t * t) / ((1 - q) * (1 - t) * (1 - t ** 4))
    with pytest.raises(ExpansionError, match="after dividing by 1 - t\\^4$"):
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
    """(value, the same value divided binomial by binomial, q-order).  The
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
    # each product polynomial is split into its steps
    assert same_representation(value, by_step)
    got = expansion(expand, value, q_order)
    assert got == expansion(reference_expand, value, q_order)


def test_expand_mixed_product_factor():
    # (1 - q^(3/2) t^-1)(1 - t^(1/2)) as one polynomial is split into its
    # two steps, the value divided step by step
    mixed, pure = one_minus((3, -2)), one_minus((0, 1))
    num = Laurent.monomial(1, 0) * pure * Laurent({(0, 0): 1, (0, 2): 1})
    whole = RationalFunction(num, mixed * pure)
    by_step = RationalFunction(num, mixed) / RationalFunction(pure)
    assert whole.factors == by_step.factors == (((0, 1), 1), ((3, -2), 1))
    got = expansion(expand, whole, 5)
    assert got is not None
    assert got == expansion(expand, by_step, 5) == expansion(reference_expand, whole, 5)


@settings(deadline=None, max_examples=200)
@given(LAURENTS.filter(bool), st.tuples(st.integers(1, 4), st.integers(-4, 4)),
       st.integers(1, 3), st.integers(0, 6))
@example(Laurent({(-2, 1): 3, (0, 0): Fraction(1, 2)}), (1, -3), 3, 6)
def test_expand_is_the_binomial_sum(p, m, k, q_order):
    value = RationalFunction(p, one_minus(m) ** k)
    assert value.factors == ((m, k),)
    # p / (1 - m)^k = p sum of m^(n_1 + ... + n_k) over all n_i >= 0, cut
    # after last: each exponent of m counted C(n + k - 1, k - 1) times
    last = p.min_q_exp() + 2 * q_order
    slices = {}
    for ns in product(range(2 * q_order // m[0] + 1), repeat=k):
        n = sum(ns)
        for (x, y), c in p.terms.items():
            if x + n * m[0] <= last:
                row = slices.setdefault(x + n * m[0], {})
                row[y + n * m[1]] = row.get(y + n * m[1], 0) + c
    assert expand(value, q_order) == canonical_series(slices, 2 * q_order)


@st.composite
def step_products(draw):
    """A normalized polynomial: a product of steps 1 - m above (0, 0), some
    repeated, or such a product with a term added above (0, 0), mostly no
    product then; its coefficients ints or all Fractions."""
    f = Laurent.const(1)
    for m in draw(st.lists(ABOVE_ONE, max_size=4)):
        f = f * one_minus(m) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = f + Laurent.monomial(*draw(ABOVE_ONE), draw(COEFFS.filter(bool)))
    if draw(st.booleans()):
        f = Laurent({e: Fraction(c) for e, c in f.terms.items()})
    return f


@settings(deadline=None, max_examples=300)
@given(step_products())
# 1 - t divides 1 - t^2 too, and the steps must still come out as these two
@example(one_minus((0, 2)) * one_minus((0, 4)))
@example(one_minus((0, 2)) * one_minus((0, 4)) ** 2 * one_minus((2, -1)) ** 3)
@example(Laurent({(0, 0): Fraction(1), (2, 0): Fraction(-1, 1)}))
@example(Laurent({(0, 0): 1, (2, 0): 1}))
@example(Laurent({(0, 0): 1, (2, 0): -3}))
@example(Laurent({(0, 0): 1, (2, 0): Fraction(-3, 2), (4, 0): Fraction(1, 2)}))
def test_steps_split_as_the_chains_do(f):
    want = chain_steps(f)
    got = _one_minus_steps(f)
    assert got == (None if want is None else tuple(sorted(Counter(want).items())))


# -- the exact shortcuts past the packed kernels -----------------------------

# stored denominators, and coefficients whose sums are often integral
STEP_BAGS = st.dictionaries(ABOVE_ONE, st.integers(1, 3), max_size=3)
HALVES = st.one_of(COEFFS, st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]))
HALF_LAURENTS = st.dictionaries(EXPONENTS, HALVES, max_size=6).map(Laurent)
half = Fraction(1, 2)


@st.composite
def denominator_pairs(draw):
    """(a, b) over one stored denominator, or over two; b's numerator is
    a's, or a's as Fractions, or a's plus another, or another."""
    bag = draw(STEP_BAGS)
    num = draw(HALF_LAURENTS)
    form = draw(st.sampled_from(("same", "fractions", "plus", "other")))
    if form == "same":
        other = num
    elif form == "fractions":
        other = Laurent({e: Fraction(c) for e, c in num.terms.items()})
    elif form == "plus":
        other = num + draw(HALF_LAURENTS)
    else:
        other = draw(HALF_LAURENTS)
    other_bag = bag if draw(st.booleans()) else draw(STEP_BAGS)
    return RationalFunction._make(num, bag), RationalFunction._make(other, other_bag)


@settings(deadline=None, max_examples=300)
@given(denominator_pairs())
@example((q / (1 - q), 2 * q / (1 - q)))
@example((half * q / (1 - q), RationalFunction._make(Laurent({(2, 0): half}), {(2, 0): 1})))
@example((q * (1 - q) / (1 - q), q))
def test_equality_over_equal_denominators_agrees_with_cross_multiplication(pair):
    # equal denominators compare their numerators, others their difference
    a, b = pair
    want = reference_rf_equal(a, b)
    assert (a == b) is want
    assert (b == a) is want


@st.composite
def step_free_sums(draw):
    """(values, bag): values over the one stored denominator bag, perhaps
    with the negatives of all or some of them, so the sum cancels."""
    bag = draw(STEP_BAGS)
    nums = draw(st.lists(HALF_LAURENTS.filter(bool), min_size=2, max_size=5))
    if draw(st.booleans()):
        nums += [-num for num in draw(st.sampled_from([nums, nums[:1]]))]
    return [RationalFunction._make(num, bag) for num in nums], bag


@settings(deadline=None, max_examples=300)
@given(step_free_sums())
@example(([half * q / (1 - q), half * q / (1 - q)], {(2, 0): 1}))
@example(([half * q, Fraction(3, 2) * q, -q], {}))
def test_step_free_sums_match_the_packed_lift(case):
    # a sum in which no value misses a step adds the numerators, and keeps
    # an integral sum of Fractions as an int, as the packed lift does
    values, bag = case
    got = RationalFunction.sum_of(values)
    want = _lift_sum([(v.num, ()) for v in values], ())
    assert got.num.terms == want.terms
    assert got.factors == RationalFunction._make(want, bag).factors
    assert all(type(c) is int for c in got.num.terms.values() if c.denominator == 1)


@settings(deadline=None, max_examples=100)
@given(step_products())
@example(one_minus((0, 2)) * one_minus((0, 4)))
def test_memoized_step_splits_match_the_chains(f):
    # a value-equal twin with other coefficient types is answered from the
    # memo, with the same tuple of steps
    want = chain_steps(f)
    want = None if want is None else tuple(sorted(Counter(want).items()))
    twin = Laurent({e: Fraction(c) if type(c) is int else _tighten(c)
                    for e, c in f.terms.items()})
    assert _one_minus_steps(f) == want
    hits = _one_minus_steps.cache_info().hits
    assert _one_minus_steps(twin) == want
    assert _one_minus_steps.cache_info().hits == hits + 1


INT_SLICES = st.dictionaries(st.integers(-4, 8), st.dictionaries(
    st.integers(-4, 4), st.integers(-30, 30), max_size=4), max_size=4)


@settings(deadline=None, max_examples=200)
@given(INT_SLICES, st.integers(-6, 6).filter(bool), st.integers(1, 6), st.integers(0, 12))
@example({0: {0: -4, 2: 6}, 2: {0: 8}}, 1, 3, 4)
def test_integral_series_divide_by_their_content_exactly(slices, k, d, order):
    # the slices times k, as ints, as Fractions, and over d: the same
    # primitive series, with every coefficient of the int path an int
    ints = {qe: {te: k * c for te, c in poly.items()} for qe, poly in slices.items()}
    got = canonical_series(ints, order)
    as_fractions = canonical_series({qe: {te: Fraction(c) for te, c in poly.items()}
                                     for qe, poly in ints.items()}, order)
    over_d = canonical_series({qe: {te: Fraction(c, d) for te, c in poly.items()}
                               for qe, poly in ints.items()}, order)
    assert got == as_fractions
    assert got.coeffs == over_d.coeffs
    values = [c for poly in got.coeffs.values() for c in poly.values()]
    assert all(type(c) is int for c in values)
    if values:
        assert over_d.prefactor == got.prefactor.scale(Fraction(1, d))
        (_e, lead), = got.prefactor.terms.items()
        assert type(lead) is int


@settings(deadline=None, max_examples=200)
@given(st.integers(-10 ** 30, 10 ** 30),
       st.one_of(st.sampled_from([1, -1, 0]), st.integers(-50, 50)))
def test_coefficients_read_back_as_written(n, d):
    # "den" "1" is read as an int, "-1" negates, "0" divides by zero
    item = {"num": str(n), "den": str(d)}
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            _coeff_of(item)
        return
    got = _coeff_of(item)
    assert got == Fraction(n, d)
    assert (type(got) is int) == (Fraction(n, d).denominator == 1)
    assert _coeff_of(dict(zip(("num", "den"), _coeff_str(got)))) == got


@settings(deadline=None, max_examples=200)
@given(LAURENTS, LAURENTS)
@example(Laurent({(0, 0): half}), Laurent({(2, 0): 2, (4, 0): 2}))
@example(Laurent({(0, 0): half, (2, 0): half}), Laurent({(0, 0): 2, (2, 0): 2}))
def test_products_keep_integral_coefficients_ints(a, b):
    # on the monomial path and on the dict path
    got = a * b
    assert got.terms == general_product(a, b).terms
    assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


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
    assert quo.coeff(1, 0) == one


def test_series_divide_hand_example():
    c, d = q, t
    num = series(2, {(0, 0): one, (1, 0): c})
    den = series(2, {(0, 0): one, (1, 0): d})
    quo = series_divide(num, den)
    assert quo.coeff(1, 0) == c - d
    assert quo.coeff(2, 0) == d * d - c * d


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


def test_value_types_are_immutable():
    ser = expand(qh / (1 - q), 4)
    z = series(2, {(0, 0): one})
    for value, name in ((ser, "order"), (ser, "coeff"), (ser, "extra"),
                        (z, "cutoff"), (z, "coeffs"), (z, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_kahler_series_equality():
    # equal values in different unreduced forms: the coefficients compare
    # cross-multiplied
    reduced = q / (1 - q ** 2)
    unreduced = q * (1 - q) / ((1 - q) * (1 - q ** 2))
    assert reduced.factors != unreduced.factors
    a = series(2, {(0, 0): one, (1, 0): reduced})
    b = series(2, {(0, 0): one, (1, 0): unreduced})
    assert a == b and not a != b
    assert a != series(2, {(0, 0): one, (1, 0): q / (1 - q)})
    assert a != series(2, {(0, 0): one, (0, 1): reduced})
    # the same coefficients with another determined set differ
    on_axis = {(0, 0), (1, 0), (2, 0)}
    axis = KahlerSeries(2, {(0, 0): one, (1, 0): reduced}, on_axis)
    assert axis != a
    assert axis == KahlerSeries(2, {(0, 0): one, (1, 0): unreduced}, on_axis)


def test_laurent_hash_agrees_with_equality():
    a = Laurent({(0, 0): 2, (2, 0): Fraction(1, 2)})
    b = Laurent({(0, 0): Fraction(2), (2, 0): Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"


def test_kahler_cutoff_is_an_int():
    # a bool cutoff would be written as JSON true, which from_json refuses
    for bad in (True, False, 2.0, "2", None):
        with pytest.raises(TypeError):
            KahlerSeries(bad, {(0, 0): one})
    for build in (lambda: KahlerSeries(1, {(0, 0): one})._replace(cutoff=True),
                  lambda: KahlerSeries._make([True, {(0, 0): one}, None])):
        with pytest.raises(TypeError):
            build()
    for cutoff in (0, 1, 3):
        z = KahlerSeries(cutoff, {(0, 0): one, (0, cutoff): q / (1 - q)})
        data = json.loads(json.dumps(z.to_json()))
        assert type(data["cutoff"]) is int
        assert KahlerSeries.from_json(data) == z


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
