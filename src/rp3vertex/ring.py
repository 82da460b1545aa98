"""Exact arithmetic: Laurent polynomials in q^(1/2), t^(1/2), rational
functions of them, truncated q-expansions, and bidegree series in the two
gluing parameters.

Exponents are stored doubled so every exponent is an integer.  Every
denominator the engine builds is a product of steps 1 - m, m = q^a t^b
(hook products, geometric tails, Macdonald factors), and a rational
function is stored in that one format: num / prod (1 - m)^k, the
denominator a sorted tuple of (m, k) pairs.  Every stored m = (a, b) lies
above (0, 0) in lexicographic order, a > 0, or a = 0 and b > 0: that is
the slot order of the packed kernels below, so every step is a shift
towards higher slots.  `RationalFunction._over`, which normalizes every
polynomial a value is divided by, splits it into its steps and refuses
one that is no such product.  Rational functions never run a polynomial
gcd: sums take step-wise least common multiples, and two values are equal
when their difference is zero, a sum that lifts both numerators to the
LCM of the two denominators; over equal denominators that is whether the
numerators are equal, which is compared directly.  The expanded
denominator `den` is built by the same lifting.  A sum applies each LCM
step its terms miss once per group of terms that need it equally often,
to their partial sum, not to every term's numerator on its own; a sum
whose terms miss no step adds their numerators as they stand.  Every sum
that lifts does that on packed integers (Kronecker substitution): the
numerators that need the same steps become one Python integer with a
fixed-width slot per lattice point of a box that holds every partial
sum, a step 1 - m becomes one shift and subtract, and the result is
decoded once; the slot width is proved wide enough for every
coefficient, so the decoded terms are exact (see `_lift_sum`).
Products, sums, scalings, divisions and `sum_of` store an integral
coefficient as an int, so that values stay on these integer kernels.
Large products with integer coefficients are one product of two packed
integers (see `_mul_packed`).  Sums do not cancel; `cancelled` divides the numerator
exactly by each step 1 - m that divides it, and is called only on the
skew Schur leaves and in `series_divide`, which divides each quotient
coefficient's sum on the packed integer its lifting built, before
decoding it.

Every exact division by a step 1 - m runs on packed integers in one
kernel, `_cancel_packed`, whose checks prove each quotient (see there):
in `cancelled`, in `series_divide`, in `_one_minus_steps`, which splits a
divisor polynomial into its steps and is memoized like the package's
other `functools.cache` memos, and in `expand` for the steps pure in t.
`expand` inverts every other step as a power series: it multiplies by the
product of their binomial series cut at the order, memoized per
denominator and order (`_inverse_series`).
"""

import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, product, repeat
from math import comb, gcd, lcm
from operator import mul, sub


def checked_make(cls, iterable):
    """A namedtuple's `_make` through its constructor, so that `_replace`
    checks the fields too."""
    return cls(*iterable)


def _coeff_str(c):
    f = Fraction(c)
    return str(f.numerator), str(f.denominator)


def _coeff_of(item):
    """The coefficient that `_coeff_str` wrote as item's "num" and "den";
    an int when "den" is "1", as it is for every integral coefficient."""
    if item["den"] == "1":
        return int(item["num"])
    return _tighten(Fraction(int(item["num"]), int(item["den"])))


def _int_of(item, key):
    """item[key], which the JSON must hold as an integer: a bool, float or
    string there is a ValueError, not silently read as another number."""
    value = item[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} is {value!r}, not an integer")
    return value


def _unique(pairs, what):
    """dict(pairs); a ValueError if a key repeats, instead of the last
    entry silently winning."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated {what} {key}")
        out[key] = value
    return out


class Laurent:
    """Laurent polynomial; terms maps doubled (q-exp, t-exp) to a nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {e: c for e, c in terms.items() if c} if terms else {}
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _of(terms):
        """Wrap a dict the caller guarantees holds no zero coefficient."""
        p = object.__new__(Laurent)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Laurent is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return Laurent.monomial(0, 0, c)

    @staticmethod
    def monomial(eq, et, c=1):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} is a {type(c).__name__}, not an int or Fraction")
        return Laurent({(eq, et): c} if c else {})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((0, 0)) == 1

    def __bool__(self):
        return bool(self.terms)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if isinstance(other, RationalFunction):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return _tightened(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, RationalFunction):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (eq, et), c = next(iter(a.items()))
            out = {(e0 + eq, e1 + et): cb * c for (e0, e1), cb in b.items()}
        else:
            if len(a) * len(b) >= _MUL_PACK_WORK:
                out = _mul_packed(a, b)
                if out is not None:
                    return out
            out = {}
            for (aq, at), ca in a.items():
                for (bq, bt), cb in b.items():
                    e = (aq + bq, at + bt)
                    v = out.get(e, 0) + ca * cb
                    if v:
                        out[e] = v
                    elif e in out:
                        del out[e]
        # `_tightened`, inline on the package's most frequent call
        if type(sum(out.values())) is not int:
            out = {e: _tighten(c) for e, c in out.items()}
        return Laurent._of(out)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Laurent()
        return _tightened({e: v * c for e, v in self.terms.items()})

    def shift(self, eq, et):
        """Multiply by the monomial with doubled exponents (eq, et)."""
        if not (eq or et):
            return self
        return Laurent({(a + eq, b + et): c for (a, b), c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers make rational functions")
        out = Laurent.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------------

    @staticmethod
    def _term_key(e):
        return (e[0] + e[1], e[0], e[1])

    def min_term(self):
        """(exponent, coeff) of the lexicographically least term."""
        e = min(self.terms)
        return e, self.terms[e]

    def min_q_exp(self):
        return min(e[0] for e in self.terms)

    def normalized(self):
        """Split off content: returns (coeff, (eq, et), unit) with unit's minimal
        term exactly 1 and self == coeff * monomial * unit."""
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        (eq, et), c = self.min_term()
        unit = self.shift(-eq, -et)
        if c != 1:
            unit = _divided(unit, c)
        return c, (eq, et), unit

    def substitute_t_eq_q(self):
        out = {}
        for (eq, et), c in self.terms.items():
            e = (eq + et, 0)
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Laurent(out)

    def swap_qt(self):
        return Laurent({(et, eq): c for (eq, et), c in self.terms.items()})

    def evaluate(self, qh, th):
        """Evaluate with q^(1/2) = qh, t^(1/2) = th (exact rationals)."""
        total = Fraction(0)
        for (eq, et), c in self.terms.items():
            total += Fraction(c) * Fraction(qh) ** eq * Fraction(th) ** et
        return total

    # -- io ------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: Laurent._term_key(kv[0]))

    def __repr__(self):
        return f"Laurent({self.text()})"

    def text(self):
        if not self.terms:
            return "0"
        bits = []
        for (eq, et), c in self.sorted_terms():
            mono = []
            for sym, e in (("q", eq), ("t", et)):
                if e == 0:
                    continue
                if e == 2:
                    mono.append(sym)
                elif e % 2 == 0:
                    mono.append(f"{sym}^{e // 2}")
                elif e == 1:
                    mono.append(f"sqrt({sym})")
                else:
                    mono.append(f"{sym}^({e}/2)")
            ms = "*".join(mono)
            f = Fraction(c)
            mag = abs(f)
            if not ms:
                body = str(mag)
            elif mag == 1:
                body = ms
            else:
                body = f"{mag}*{ms}"
            bits.append(("- " if f < 0 else "+ ") + body)
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    def to_json(self):
        out = []
        for (eq, et), c in self.sorted_terms():
            n, d = _coeff_str(c)
            out.append({"ex": eq, "ey": et, "num": n, "den": d})
        return out

    @staticmethod
    def from_json(data):
        return Laurent(_unique((((_int_of(item, "ex"), _int_of(item, "ey")),
                                 _coeff_of(item)) for item in data), "exponent"))


L_ZERO = Laurent()
L_ONE = Laurent.const(1)


def _tightened(terms):
    """The Laurent of a term dict with no zero coefficient, each integral
    one an int, so that the value stays on the kernels for integer
    coefficients.  The coefficients sum to an int only when every one is
    an int (a sum of Fractions is a Fraction, integral or not), so a dict
    of ints costs one sum in C and is kept as it is."""
    if type(sum(terms.values())) is int:
        return Laurent._of(terms)
    return Laurent._of({e: _tighten(c) for e, c in terms.items()})


def _divided(poly, c):
    """poly with every coefficient divided by c; a quotient that is an
    integer is an int, so that values stay on the kernels for integer
    coefficients."""
    return Laurent._of({e: _tighten(Fraction(v) / c) for e, v in poly.terms.items()})


def _step_text(m):
    """The step 1 - m as text, 1 first whatever the degree of m."""
    return f"1 - {Laurent._of({m: 1}).text()}"


@cache
def _one_minus_steps(f):
    """The (m, k) pairs of the steps whose product prod (1 - m)^k is the
    factor f, as a tuple, or None when f is no such product; memoized like
    the package's other `functools.cache` memos, since `_over` splits the
    same few divisors again and again (each fixture `den` among them).  f
    is normalized, so in such a product every m lies above (0, 0) in
    lexicographic order, and the least non-constant term of f is the least
    m, with coefficient -k: every sum of two or more steps lies higher.  So f is divided exactly by that
    (1 - m)^k, once, and the quotient split in turn; dividing by 1 - m as
    often as it divides would not do, since 1 - t divides 1 - t^2 too."""
    steps = []
    while len(f.terms) > 1:
        m = min(e for e in f.terms if e != (0, 0))
        # by value, not type: a divisor may hold Fraction(-1, 1)
        k = -f.terms[m]
        if k <= 0 or k.denominator != 1:
            return None
        k = int(k)
        f, left = _lift_sum([(f, ())], (), [(m, k)])
        if left[m]:
            return None
        steps.append((m, k))
    return tuple(steps)


def _horner(items, shifts, i):
    """Sum of num * prod((1 - x^shifts[j]) ** need[j], j >= i) over (num,
    need) items, each num a packed integer with slot base x (see
    `_lift_sum`).  Items are grouped by their need of the first step some of
    them need, each group is lifted by the steps after it, and the groups
    are combined in Horner form, so that a step multiplies partial sums, not
    numerators one by one; a group of one item is lifted step by step.
    The items' needs are distinct, so they differ at some step from i on,
    and recursion depth is at most len(shifts) + 1."""
    if len(items) == 1:
        num, need = items[0]
        for j in range(i, len(shifts)):
            for _ in range(need[j]):
                num -= num << shifts[j]
        return num
    while True:
        groups = {}
        for item in items:
            groups.setdefault(item[1][i], []).append(item)
        if len(groups) > 1 or 0 not in groups:
            break
        i += 1
    shift = shifts[i]
    acc = 0
    for k in range(max(groups), -1, -1):
        acc -= acc << shift
        part = groups.get(k)
        if part is not None:
            acc += _horner(part, shifts, i + 1)
    return acc


def _lift_sum(items, steps, cancel=None):
    """Sum of num * prod((1 - steps[j]) ** need[j]) over (num, need) items,
    each num nonzero, on packed integers (Kronecker substitution): the items
    that need the same steps are packed into one integer, their sum, and
    those integers are lifted and combined by `_horner`.  Given `cancel`,
    (m, k) pairs sorted by m, the packed sum is then divided exactly by each
    step 1 - m as often as it divides, up to k (`_cancel_packed`), and the
    quotient is returned with a dict of the k left of each m.  Every step
    m = q^a t^b lies above (0, 0): a > 0, or a = 0 and b > 0.

    Every exponent the sum reaches, in every Horner partial sum too, is an
    exponent of an item num_i plus at most need_ij times each step m_j.  So
    it lies on the lattice lo + g_q Z x g_t Z (g the gcds of the
    item-exponent differences and the step exponents) and in the box that
    spans each hull(num_i) + sum_j need_ij [0, m_j].  idx(e) = ((e_q -
    lo_q)/g_q) n_t + (e_t - lo_t)/g_t numbers the box's lattice points
    q-major, n_t per q row; it is affine and one-to-one on the box, so a
    polynomial on the box is the integer sum c_e x^idx(e) at x = 2^W, and m
    = q^a t^b is x^s with s = (a/g_q) n_t + b/g_t > 0 (n_t exceeds the t
    width of each m_j).  Evaluation at x = 2^W is a ring homomorphism, so
    the integers are exact whatever their slots hold, and only the final
    integer is decoded: right when each of its coefficients has |c| <
    2^(W-1).  The result's 1-norm, which bounds each of its coefficients
    (and those of every partial sum), is at most S' = sum over the need
    groups of (sum_i |num_i|_1) 2^(sum_j need_j), each group's own needs:
    every partial sum is sum_i num_i times part of item i's own step powers
    prod (1 - m_j)^need_ij, |a b|_1 <= |a|_1 |b|_1 and |1 - m|_1 = 2.  So
    W is the bit length of S' plus a sign bit, rounded up to whole bytes,
    and a step 1 - m lifts by acc - (acc << W s(m)).  Coefficients that
    are not all ints (S' is then no int) are made
    integers by the lcm L of their denominators, and the sum divided by L.
    To cancel, the lattice takes in the exponents of the steps of `cancel`
    too, each row gets padding columns after its data columns, as many as
    the largest t-reach |b|/g_t of those steps, and W two more bits than S'
    needs (see `_cancel_packed`)."""
    groups = {}
    for num, nd in items:
        groups.setdefault(tuple(nd), []).append(num.terms)
    need = list(map(max, zip(*groups)))
    # how far each step reaches, up in q, down and up in t; 0 for a step no
    # item needs, so that its exponents stay out of the lattice gcds
    up_q = [a if n else 0 for (a, _b), n in zip(steps, need)]
    down_t = [min(0, b) if n else 0 for (_a, b), n in zip(steps, need)]
    up_t = [max(0, b) if n else 0 for (_a, b), n in zip(steps, need)]
    qs, ts, corners = set(), set(), []
    bound = 0
    for nd, polys in groups.items():
        bound += sum(map(abs, chain.from_iterable(map(dict.values, polys)))) * (1 << sum(nd))
        q, t = zip(*chain.from_iterable(polys))
        qs.update(q)
        ts.update(t)
        corners.append((min(q), max(q) + sum(map(mul, nd, up_q)),
                        min(t) + sum(map(mul, nd, down_t)),
                        max(t) + sum(map(mul, nd, up_t))))
    if type(bound) is not int:
        # the type, not the denominator: an integral Fraction is no int either
        den = lcm(*(c.denominator for num, _nd in items for c in num.terms.values()))
        ints = [(Laurent._of({e: int(c * den) for e, c in num.terms.items()}), nd)
                for num, nd in items]
        if cancel is None:
            return _divided(_lift_sum(ints, steps), den)
        quo, left = _lift_sum(ints, steps, cancel)
        return _divided(quo, den), left
    divisors = [m for m, _k in cancel or ()]
    q0, t0 = min(qs), min(ts)
    g_q = gcd(*up_q, *(a for a, _b in divisors), *map(sub, qs, repeat(q0))) or 1
    g_t = gcd(*down_t, *up_t, *(b for _a, b in divisors), *map(sub, ts, repeat(t0))) or 1
    lows_q, highs_q, lows_t, highs_t = zip(*corners)
    lo_q, hi_q, lo_t, hi_t = min(lows_q), max(highs_q), min(lows_t), max(highs_t)
    pad = max((abs(b) for _a, b in divisors), default=0) // g_t
    size = (bound.bit_length() + (8 if cancel is None else 9)) // 8
    n_t = (hi_t - lo_t) // g_t + 1 + pad
    box = (lo_q, lo_t, g_q, g_t, n_t, (hi_q - lo_q) // g_q + 1)
    shifts = [(a // g_q * n_t + b // g_t) * 8 * size if n else 0
              for (a, b), n in zip(steps, need)]
    total = _horner([(_pack(polys, box, size), nd) for nd, polys in groups.items()],
                    shifts, 0)
    if cancel is None:
        return _unpack(total, box, size)
    return _cancel_packed(total, box, size, pad, cancel, bound)


def _cancel_packed(total, box, size, pad, cancel, bound):
    """The polynomial N that total packs in box (see `_lift_sum`), divided
    exactly by each step 1 - m of cancel, (m, k) pairs, in their order, as
    often as it divides up to k; returns the quotient and a dict of the k
    left of each m.  Each row of box ends in `pad` padding columns, at least
    the t-reach |b|/g_t of every step, where N is zero; bound >= |N|_1, and
    |N|_1 < 2^(W-2) for the slot width W = 8 size.

    Every step m lies above (0, 0), so every divisor is 1 - x^s with s > 0
    slots.  The exact quotient Q, where there is one, is a running sum
    of N along each line e + j m, j >= 0, so its support lies in N's (in its
    t-range, off the padding), and each of its coefficients is at most
    |N|_1.

    A try: N(1, 1) = 0, else no step divides (1 - m vanishes there); the
    packed N is congruent to the sum of its slots modulo 2^W - 1, so a
    non-zero residue rules the step out (`_sums_to_zero`).  Then the
    candidate is the geometric sum N (1 + x^s)(1 + x^2s)(1 + x^4s)... up to
    x^n, n the box's slot count, cut to its low n slots with each slot
    biased by 2^(W-2).  It is accepted when every data slot stays below
    2^(W-1), every padding slot holds just the bias, and Q - (Q << W s) ==
    N.  Then Q's coefficients have |c| < 2^(W-2), so those of (1 - m) Q
    have |c| < 2^(W-1); N's do too, and no term of either lies outside one
    window of n_t consecutive t-columns (Q is zero on the padding, which
    is at least as wide as the t-reach of m), where idx is one-to-one: two
    such polynomials with equal packed integers are equal, so (1 - m) Q =
    N.  A quotient with |c| < 2^(W-2) that exists passes every check (the
    cut sum is exactly it), so with |N|_1 < 2^(W-2) a failed try proves
    that 1 - m does not divide.  The bound holds for the first try; after a
    division the quotient's 1-norm is not known, so a failed try decodes N
    and takes its 1-norm, and where it is not below 2^(W-2) the slots are
    widened to fit it, N repacked and the try run again."""
    lo_q, lo_t, g_q, g_t, n_t, n_q = box
    n_slots = n_q * n_t
    terms = None    # N decoded, while known
    checks = None
    left = {}
    for m, k in cancel:
        a, b = m
        while k and total and _sums_to_zero(total, 8 * size):
            width = 8 * size
            shift = (a // g_q * n_t + b // g_t) * width
            if checks is None:
                checks = _cancel_checks(n_q, n_t, pad, size)
            bias, top, padded = checks
            span, acc = shift, total
            while span < n_slots * width:
                acc += acc << span
                span <<= 1
            acc = (acc + bias) & ((1 << n_slots * width) - 1)
            if acc & top == padded:
                quo = acc - bias
                if quo - (quo << shift) == total:
                    total, terms, bound = quo, None, None
                    k -= 1
                    continue
            if bound is None:
                terms = _unpack(total, box, size).terms
                bound = sum(map(abs, terms.values()))
            if bound < 1 << (width - 2):
                break
            size = (bound.bit_length() + 9) // 8
            total, checks = _pack([terms], box, size), None
        left[m] = k
    if terms is None:
        return _unpack(total, box, size), left
    return Laurent._of(terms), left


def _sums_to_zero(x, width):
    """Whether the base-2^width digits of x may sum to zero: x is congruent
    to their sum modulo 2^width - 1, so a non-zero residue proves the sum
    non-zero.  Halves are folded onto each other, x = hi 2^h + lo to hi +
    lo (h a multiple of width), which keeps the residue; a `%` of a long x
    by a modulus of more than one CPython digit (30 bits) costs up to 3x as
    much as the folds, but about as much as one fold once x has 64 slots."""
    while x.bit_length() > 64 * width:
        h = (x.bit_length() // width + 1) // 2 * width
        hi = x >> h
        x = hi + (x - (hi << h))
    return x % ((1 << width) - 1) == 0


def _cancel_checks(n_q, n_t, pad, size):
    """The constants of a try of `_cancel_packed` on n_q rows of n_t slots,
    the last pad of them padding: the bias 2^(W-2) in every slot, the mask
    of each data slot's top bit and each padding slot's bits, and the bias
    of the padding slots alone."""
    slot = bytes(size - 1)
    bias = slot + b"\x40"
    top = ((slot + b"\x80") * (n_t - pad) + b"\xff" * (size * pad)) * n_q
    padded = (bytes(size * (n_t - pad)) + bias * pad) * n_q
    return (int.from_bytes(bias * (n_q * n_t), "little"), int.from_bytes(top, "little"),
            int.from_bytes(padded, "little"))


def _pack(polys, box, size):
    """The integer sum c 2^(8 size idx(e)) over the terms c q^e of the term
    dicts polys, idx the slot number of e in box (see `_lift_sum`); each
    coefficient of their sum, and each partial sum of the coefficients of
    one exponent, has |c| < 2^(8 size - 1).

    Each slot starts at the bias 2^(8 size - 1) and adds its coefficients,
    so that every slot stays non-negative, and one subtraction of the bias
    total leaves the packed value.  Slots of up to 8 bytes are filled as
    one array of machine words whose bytes strided copies narrow to the
    slot width; wider ones are filled byte by byte."""
    lo_q, lo_t, g_q, g_t, n_t, _n_q = box
    # lexicographic order of exponents is slot order
    eq, et = min(map(min, polys))
    low = (eq - lo_q) // g_q * n_t + (et - lo_t) // g_t
    eq, et = max(map(max, polys))
    n_slots = (eq - lo_q) // g_q * n_t + (et - lo_t) // g_t - low + 1
    # e_q // g_q - lo_q // g_q == (e_q - lo_q) // g_q on the lattice
    base = -(lo_q // g_q * n_t + lo_t // g_t + low)
    half = 1 << (8 * size - 1)
    if size > 8:
        raw = bytearray((bytes(size - 1) + b"\x80") * n_slots)
        for terms in polys:
            for (eq, et), c in terms.items():
                k = (eq // g_q * n_t + et // g_t + base) * size
                c += int.from_bytes(raw[k:k + size], "little")
                raw[k:k + size] = c.to_bytes(size, "little")
    else:
        words = array("Q", (half,)) * n_slots
        for terms in polys:
            for (eq, et), c in terms.items():
                words[eq // g_q * n_t + et // g_t + base] += c
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
        if size < 8:
            wide, raw = raw, bytearray(n_slots * size)
            for j in range(size):
                raw[j::size] = wide[j::8]
    packed = int.from_bytes(raw, "little") - _bias(n_slots, size)
    return packed << (8 * size * low)


def _unpack(total, box, size):
    """The Laurent polynomial that `_pack` packs into total, each of whose
    coefficients c has |c| < 2^(8 size - 1): adding the bias 2^(8 size - 1)
    to every slot makes each slot non-negative, and slots of up to 8 bytes
    are widened by strided copies into one array of machine words; wider
    ones are read byte by byte.  Only the q rows from the lowest non-zero
    slot's to the highest's are read: if slot k is the highest, |total| >
    2^(8 size k - 1), since every |c| < 2^(8 size - 1), so k is at most
    the bit length of total over 8 size."""
    if not total:
        return L_ZERO
    lo_q, lo_t, g_q, g_t, n_t, n_q = box
    row = 8 * size * n_t
    first = ((total & -total).bit_length() - 1) // row
    total >>= first * row
    lo_q += first * g_q
    n_q = min(n_q - first, total.bit_length() // row + 1)
    n_slots = n_q * n_t
    half = 1 << (8 * size - 1)
    raw = (total + _bias(n_slots, size)).to_bytes(n_slots * size, "little")
    if size > 8:
        words = [int.from_bytes(raw[k:k + size], "little")
                 for k in range(0, n_slots * size, size)]
    else:
        if size < 8:
            narrow, raw = raw, bytearray(8 * n_slots)
            for j in range(size):
                raw[j::8] = narrow[j::size]
        words = array("Q")
        words.frombytes(raw)
        if sys.byteorder == "big":
            words.byteswap()
    # slot order is q-major
    exps = product(range(lo_q, lo_q + n_q * g_q, g_q), range(lo_t, lo_t + n_t * g_t, g_t))
    return Laurent._of({e: v - half for e, v in zip(exps, words) if v != half})


# Term pairs from which `Laurent.__mul__` multiplies integer operands on
# packed integers.  Timed one by one (best of 3-5, one process), on the
# integer products of at least 16 term pairs of the three workloads at seed
# 1 (refined_deep 148, regular_deep 565, suite 256), packing is slower on
# every product below 128 pairs, faster on most from 256 and 3.6x faster
# on the four refined_deep products from 4096; the products cost in all,
# in ms at thresholds 128 / 256 / 512 / never:
#   refined_deep  16.1 / 15.8 / 17.5 / 32.8
#   regular_deep  19.2 / 17.7 / 17.7 / 17.7
#   suite          5.3 /  5.1 /  5.4 /  5.4
_MUL_PACK_WORK = 256


def _mul_packed(a, b):
    """The product of the term dicts a and b (both nonzero) on packed
    integers, or None when a coefficient is not an int.

    Kronecker substitution, as in `_lift_sum`: both operands are packed
    on one lattice lo + g_q Z x g_t Z, g the gcds of each operand's
    exponent differences, with n_t slots per q row, n_t - 1 the sum of
    the two t spans in lattice steps.  Then idx_a(e) + idx_b(f) is the slot
    of e + f in the product box, which spans hull(a) + hull(b) from lo_a +
    lo_b, and no row wraps, so the product of the two integers packs the
    product polynomial.  Each of its coefficients is a sum of c_e d_f over
    pairs of terms, so it is at most min(|a|_1 |b|_inf, |a|_inf |b|_1) in
    size; that bound, which the operands' own coefficients do not exceed,
    plus a sign bit, rounded up to whole bytes, is the slot width."""
    abs_a, abs_b = list(map(abs, a.values())), list(map(abs, b.values()))
    norm_a, norm_b = sum(abs_a), sum(abs_b)
    if type(norm_a) is not int or type(norm_b) is not int:
        return None
    bound = min(norm_a * max(abs_b), max(abs_a) * norm_b)
    size = (bound.bit_length() + 8) // 8
    qa, ta = zip(*a)
    qb, tb = zip(*b)
    g_q = gcd(*(x - qa[0] for x in qa), *(x - qb[0] for x in qb)) or 1
    g_t = gcd(*(y - ta[0] for y in ta), *(y - tb[0] for y in tb)) or 1
    lo_qa, lo_ta, lo_qb, lo_tb = min(qa), min(ta), min(qb), min(tb)
    n_t = (max(ta) - lo_ta + max(tb) - lo_tb) // g_t + 1
    n_q = (max(qa) - lo_qa + max(qb) - lo_qb) // g_q + 1
    packed = (_pack([a], (lo_qa, lo_ta, g_q, g_t, n_t, None), size)
              * _pack([b], (lo_qb, lo_tb, g_q, g_t, n_t, None), size))
    return _unpack(packed, (lo_qa + lo_qb, lo_ta + lo_tb, g_q, g_t, n_t, n_q), size)


def _bias(n_slots, size):
    """2^(8 size - 1) in each of n_slots slots of size bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n_slots, "little")


def _polynomial(value, what):
    """value, an int, Fraction or Laurent, as a Laurent; a TypeError for
    any other type, a RationalFunction too."""
    if isinstance(value, (int, Fraction)):
        return Laurent.const(value)
    if not isinstance(value, Laurent):
        raise TypeError(f"{what} is a {type(value).__name__}, not a Laurent polynomial")
    return value


class RationalFunction:
    """num / prod (1 - m)^k, exact and never gcd-reduced.

    factors holds the (m, k) pairs, sorted by m: each m is a doubled
    exponent pair (a, b) of q^(a/2) t^(b/2) above (0, 0) in lexicographic
    order, a > 0, or a = 0 and b > 0, and each k is positive."""

    __slots__ = ("num", "factors")

    def __init__(self, num, den=None):
        num = _polynomial(num, "numerator")
        if den is None:
            self._init(num, ())
            return
        rf = RationalFunction._over(num, _polynomial(den, "denominator"), {})
        self._init(rf.num, rf.factors)

    def _init(self, num, factors):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _make(cls, num, bag):
        """num over the steps of bag, which maps each m to its k."""
        rf = cls.__new__(cls)
        if num.is_zero():
            rf._init(L_ZERO, ())
            return rf
        rf._init(num, tuple(sorted((m, k) for m, k in bag.items() if k)))
        return rf

    @classmethod
    def _of(cls, num, factors):
        """Wrap num over factors, a sorted tuple of (m, k) pairs with every
        k positive, and empty when num is zero, as the caller guarantees."""
        rf = cls.__new__(cls)
        rf._init(num, factors)
        return rf

    @staticmethod
    def _over(num, poly, bag):
        """num / (poly * the steps in bag): poly's content and monomial fold
        into num, and the steps of its unit factor join bag (updated in
        place).  A ValueError when the unit factor is no product of steps 1 -
        m."""
        if poly.is_zero():
            raise ZeroDivisionError("zero denominator")
        c, (eq, et), unit = poly.normalized()
        steps = _one_minus_steps(unit)
        if steps is None:
            raise ValueError(f"denominator factor {unit.text()} is not a product "
                             "of factors 1 - q^a t^b")
        for m, k in steps:
            bag[m] = bag.get(m, 0) + k
        num = num.shift(-eq, -et)
        if c != 1:
            num = _divided(num, c)
        return RationalFunction._make(num, bag)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Laurent):
            return RationalFunction(value)
        if isinstance(value, (int, Fraction)):
            return RationalFunction(Laurent.const(value))
        raise TypeError(f"{value!r} is a {type(value).__name__}, not an int, Fraction, "
                        "Laurent or RationalFunction")

    @staticmethod
    def monomial(eq, et, c=1):
        return RationalFunction(Laurent.monomial(eq, et, c))

    # -- structure ---------------------------------------------------------

    @property
    def den(self):
        """The expanded denominator polynomial."""
        if not self.factors:
            return L_ONE
        return _lift_sum([(L_ONE, [k for _m, k in self.factors])],
                         [m for m, _k in self.factors])

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = RationalFunction.of(other)
        return RationalFunction.sum_of([self, other])

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._of(-self.num, self.factors)

    def __sub__(self, other):
        return self + (-RationalFunction.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product over the merged steps; a product of nonzero
        polynomials is nonzero, and where one side has no steps, the other
        side's tuple is the merged one as it stands."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return RF_ZERO
            return RationalFunction._of(self.num.scale(other), self.factors)
        if isinstance(other, Laurent):
            if not other:
                return RF_ZERO
            return RationalFunction._of(self.num * other, self.factors)
        other = RationalFunction.of(other)
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        a, b = self.factors, other.factors
        if a and b:
            bag = dict(a)
            for m, k in b:
                bag[m] = bag.get(m, 0) + k
            # every k is positive, and so is every sum of them
            a = tuple(sorted(bag.items()))
        return RationalFunction._of(self.num * other.num, a or b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero():
            return RF_ZERO
        return RationalFunction._over(self.num * other.den, other.num, dict(self.factors))

    def __rtruediv__(self, other):
        return RationalFunction.of(other) / self

    def __pow__(self, n):
        if n == 0:
            return RF_ONE
        if n < 0:
            return RF_ONE / self ** (-n)
        return RationalFunction._make(self.num ** n, {m: k * n for m, k in self.factors})

    @staticmethod
    def sum_of(values, cancel=False):
        """n-ary sum over a shared step-wise LCM denominator; with `cancel`,
        its `cancelled` form, divided on the packed integer the sum is
        lifted to, before it is decoded.

        Each value is missing some LCM steps; those are applied step by
        step (most-needed first), each once per group of values that need
        it equally often, rather than once per value."""
        values = [rf for rf in map(RationalFunction.of, values) if not rf.is_zero()]
        if not values:
            return RF_ZERO
        if len(values) == 1 and not cancel:
            return values[0]
        factors = values[0].factors
        if not cancel and all(v.factors == factors for v in values):
            # no value misses a step: the numerators add as they stand
            out = {}
            for v in values:
                for e, c in v.num.terms.items():
                    out[e] = out.get(e, 0) + c
            return RationalFunction._make(_tightened({e: c for e, c in out.items() if c}),
                                          dict(factors))
        lcm = {}
        for v in values:
            for m, k in v.factors:
                if lcm.get(m, 0) < k:
                    lcm[m] = k
        steps = list(lcm)
        rows = []
        for v in values:
            have = dict(v.factors)
            rows.append((v.num, [lcm[m] - have.get(m, 0) for m in steps]))
        users = [sum(1 for _num, need in rows if need[j]) for j in range(len(steps))]
        order = sorted(range(len(steps)), key=lambda j: -users[j])
        items = [(num, [need[j] for j in order]) for num, need in rows]
        steps = [steps[j] for j in order]
        if not cancel:
            return RationalFunction._make(_lift_sum(items, steps), lcm)
        return RationalFunction._make(*_lift_sum(items, steps, sorted(lcm.items())))

    def cancelled(self):
        """The same value with each step 1 - m divided out of the numerator
        as often as it divides exactly, up to its multiplicity, in the order
        of the steps (see `_cancel_packed`)."""
        # every step vanishes at q = t = 1
        if not self.factors or sum(self.num.terms.values()):
            return self
        num, left = _lift_sum([(self.num, ())], (), self.factors)
        if all(left[m] == k for m, k in self.factors):
            return self
        return RationalFunction._make(num, left)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        """Whether the difference is zero: `sum_of` lifts both numerators to
        the LCM of the two denominators, so the numerators it subtracts are
        those that cross multiplication by the missing factors compares.
        Over equal denominators that is whether the numerators are equal."""
        if isinstance(other, (Laurent, int, Fraction)):
            other = RationalFunction.of(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.factors == other.factors:
            return self.num.terms == other.num.terms
        return RationalFunction.sum_of([self, -other]).is_zero()

    # equal values in different unreduced forms have no common hash
    __hash__ = None

    # -- substitutions -----------------------------------------------------

    def _map(self, fn):
        """The value under fn, a substitution of monomials for monomials
        that is a ring homomorphism: each step 1 - m goes to 1 - fn(m), and
        one with fn(m) below (0, 0) is turned around, 1 - m' = -m' (1 -
        1/m'), its -m' folded into the numerator, so that every step stays
        above (0, 0)."""
        num = fn(self.num)
        bag = {}
        sign = 1
        for m, k in self.factors:
            (a, b), = fn(Laurent._of({m: 1})).terms
            if (a, b) == (0, 0):
                raise ZeroDivisionError("zero denominator")
            if (a, b) < (0, 0):
                num = num.shift(-a * k, -b * k)
                sign *= (-1) ** k
                a, b = -a, -b
            bag[a, b] = bag.get((a, b), 0) + k
        return RationalFunction._make(num if sign > 0 else -num, bag)

    def substitute_t_eq_q(self):
        return self._map(Laurent.substitute_t_eq_q)

    def swap_qt(self):
        return self._map(Laurent.swap_qt)

    def evaluate(self, qh, th):
        d = Fraction(1)
        for (mq, mt), k in self.factors:
            d *= (1 - Fraction(qh) ** mq * Fraction(th) ** mt) ** k
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(qh, th) / d

    # -- io ------------------------------------------------------------------

    def text(self):
        if self.is_zero():
            return "0"
        n = self.num.text()
        if not self.factors:
            return n
        dens = []
        for m, k in self.factors:
            piece = f"({_step_text(m)})"
            if k != 1:
                piece += f"^{k}"
            dens.append(piece)
        ns = f"({n})" if len(self.num.terms) > 1 else n
        return f"{ns}/({'*'.join(dens)})" if len(dens) > 1 else f"{ns}/{dens[0]}"

    def __repr__(self):
        return f"RationalFunction({self.text()})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data):
        return RationalFunction(Laurent.from_json(data["num"]),
                                Laurent.from_json(data["den"]))


RF_ZERO = RationalFunction(L_ZERO)
RF_ONE = RationalFunction(L_ONE)


class ExpansionError(ValueError):
    """A denominator cannot be inverted as a series in q."""


class QSeries(namedtuple("QSeries", "prefactor coeffs order")):
    """Truncated expansion in q with Laurent-polynomial coefficients in t,
    after extraction of an overall monomial prefactor.

    coeffs maps a doubled q exponent (0, 2, 4, ...) to a dict of doubled
    t exponents -> rational coefficient.  order is the inclusive doubled
    bound on stored q exponents.
    """

    __slots__ = ()

    def __new__(cls, prefactor, coeffs, order):
        coeffs = {qe: dict(poly) for qe, poly in coeffs.items() if poly}
        return super().__new__(cls, prefactor, coeffs, order)

    _make = classmethod(checked_make)

    def first_violation(self):
        """(qe, te, coeff) of the first non-positive-integral coefficient; the
        extracted scalar itself must be a positive integer."""
        if not self.coeffs:
            return None
        _, c = self.prefactor.min_term()
        if c < 0 or c.denominator != 1:
            return (0, 0, c)
        for qe in sorted(self.coeffs):
            for te in sorted(self.coeffs[qe]):
                v = self.coeffs[qe][te]
                if v.denominator != 1 or v < 0:
                    return (qe, te, v)
        return None

    def max_other_exp(self):
        out = None
        for poly in self.coeffs.values():
            for te in poly:
                if out is None or te > out:
                    out = te
        return out

    def text(self):
        if not self.coeffs:
            return "0"

        def tpoly_text(poly):
            bits = []
            for te in sorted(poly):
                c = poly[te]
                if te == 0:
                    bits.append(str(c))
                else:
                    sym = "t" if te == 2 else (
                        f"t^{te // 2}" if te % 2 == 0 else f"t^({te}/2)")
                    if c == 1:
                        bits.append(sym)
                    elif c == -1:
                        bits.append(f"-{sym}")
                    else:
                        bits.append(f"{c}*{sym}")
            return " + ".join(bits).replace("+ -", "- ")

        pieces = []
        for qe in sorted(self.coeffs):
            poly = self.coeffs[qe]
            body = tpoly_text(poly)
            if qe == 0:
                pieces.append(body if len(poly) == 1 else f"({body})")
                continue
            sym = "q" if qe == 2 else (
                f"q^{qe // 2}" if qe % 2 == 0 else f"q^({qe}/2)")
            if poly == {0: 1}:
                pieces.append(sym)
            else:
                pieces.append((body if len(poly) == 1 else f"({body})") + f"*{sym}")
        series = " + ".join(pieces)
        if self.prefactor.is_one():
            return series
        return f"[{self.prefactor.text()}] * ({series})"

    def __repr__(self):
        return f"QSeries({self.text()})"

    def to_json(self):
        coeffs = []
        for qe in sorted(self.coeffs):
            poly = [{"te": te, **dict(zip(("num", "den"), _coeff_str(c)))}
                    for te, c in sorted(self.coeffs[qe].items())]
            coeffs.append({"qe": qe, "poly_t": poly})
        return {
            "prefactor": self.prefactor.to_json(),
            "order": self.order,
            "var": "q",
            "coeffs": coeffs,
        }

    @staticmethod
    def from_json(data):
        if data.get("var", "q") != "q":
            raise ValueError(f"series variable {data['var']!r} is not 'q'")
        coeffs = _unique(((_int_of(item, "qe"),
                           _unique(((_int_of(tt, "te"), _coeff_of(tt))
                                    for tt in item["poly_t"]), "te"))
                          for item in data["coeffs"]), "qe")
        pref = Laurent.from_json(data["prefactor"]) if data.get("prefactor") else L_ONE
        return QSeries(pref, coeffs, _int_of(data, "order"))


def expand(rf, q_order):
    """Series expansion of a rational function in q to the given order
    (plain, undoubled power of q).

    Every denominator step 1 - q^a t^b has a > 0, or a = 0 and b > 0.  The
    numerator is cut at the order, the steps with a = 0, pure in t, must
    divide it exactly (`cancelled`), and it is multiplied once by the
    product of the series 1/(1 - m)^k = sum_n C(n + k - 1, k - 1) m^n of
    every other step, cut at the order (`_inverse_series`, one per
    denominator), and the product is cut at the order.  That is exact: every
    term of the series has a q exponent from 0 up.  A pure step acts on each
    q row on its own, and the series of every other step has 1 as its q^0
    row, so a pure step divides the cut numerator exactly when it divides
    the cut series.  Raises ExpansionError when a pure step does not divide.
    """
    rf = RationalFunction.of(rf)
    if rf.is_zero():
        return QSeries(L_ONE, {}, 2 * q_order)

    span = 2 * q_order
    last = rf.num.min_q_exp() + span
    num = Laurent._of({e: c for e, c in rf.num.terms.items() if e[0] <= last})
    pure = {m: k for m, k in rf.factors if not m[0]}
    if pure:
        rest = RationalFunction._make(num, pure).cancelled()
        if rest.factors:
            raise ExpansionError("coefficient is not polynomial after dividing by "
                                 f"{_step_text(rest.factors[0][0])}")
        num = rest.num
    num = Laurent._of({e: c for e, c in (num * _inverse_series(rf.factors, span)).terms.items()
                       if e[0] <= last})

    slices = {}
    for (eq, et), c in num.terms.items():
        slices.setdefault(eq, {})[et] = c
    return canonical_series(slices, span)


@cache
def _inverse_series(steps, span):
    """prod 1/(1 - m)^k over the (m, k) pairs of steps with m = q^a t^b, a >
    0, each the series sum_n C(n + k - 1, k - 1) m^n, cut after q^span
    (doubled); memoized like the package's other `functools.cache` memos,
    since the coefficients of a series share a few denominators.  Each
    series has q exponents from 0 up, so cutting every partial product
    after q^span leaves the product's terms up to q^span exact."""
    series = L_ONE
    for (a, b), k in steps:
        if a:
            step = Laurent._of({(n * a, n * b): comb(n + k - 1, k - 1)
                                for n in range(span // a + 1)})
            series = Laurent._of({e: c for e, c in (series * step).terms.items()
                                  if e[0] <= span})
    return series


def canonical_series(slices, order_doubled):
    """Normalize raw series slices into a QSeries: extract the monomial
    making the residual start at order zero in both variables, a sign making
    the lowest entry positive, and the scalar content making it primitive."""
    slices = {qe: {te: c for te, c in poly.items() if c}
              for qe, poly in slices.items()}
    slices = {qe: poly for qe, poly in slices.items() if poly}
    if not slices:
        return QSeries(L_ONE, {}, order_doubled)

    qmin = min(slices)
    tmin = min(te for poly in slices.values() for te in poly)
    shifted = {qe - qmin: {te - tmin: c for te, c in poly.items()}
               for qe, poly in slices.items() if qe - qmin <= order_doubled}
    lead_poly = shifted[0]
    lead = lead_poly[min(lead_poly)]
    sign = -1 if lead < 0 else 1
    values = [v for poly in shifted.values() for v in poly.values()]
    scale = sign * _content(values)
    if scale.denominator != 1:
        inv = Fraction(1, 1) / scale
        shifted = {qe: {te: _tighten(c * inv) for te, c in poly.items()}
                   for qe, poly in shifted.items()}
    elif scale != 1 or type(sum(values)) is not int:
        # an integral content: every coefficient is integral (the content's
        # denominator is the lcm of theirs), and it divides each exactly, to
        # an int; a content of 1 divides too when some coefficient is a
        # Fraction (the coefficients sum to an int only when each is one)
        s = scale.numerator
        shifted = {qe: {te: c // s for te, c in poly.items()}
                   for qe, poly in shifted.items()}
    prefactor = Laurent.monomial(qmin, tmin, _tighten(scale))
    return QSeries(prefactor, shifted, order_doubled)


def _content(values):
    # an int is its own numerator over denominator 1, as a Fraction of it is
    num = gcd(*(v.numerator for v in values))
    return Fraction(num, lcm(*(v.denominator for v in values))) if num else Fraction(1)


def _tighten(f):
    """The int or Fraction f, an int when it is integral."""
    return f.numerator if f.denominator == 1 else f


def graded(bidegrees):
    """Bidegrees (r, s) in graded order: by total degree r + s, then by r."""
    return sorted(bidegrees, key=lambda rs: (rs[0] + rs[1], rs))


class KahlerSeries(namedtuple("KahlerSeries", "cutoff coeffs determined")):
    """Series in the two gluing weights, truncated at a total-degree cutoff.

    coeffs holds the nonzero coefficients; determined records which bidegrees
    are known exactly (absent determined keys are exact zeros, everything else
    is beyond the truncation).
    """

    __slots__ = ()

    def __new__(cls, cutoff, coeffs=None, determined=None):
        if type(cutoff) is not int:
            raise TypeError(f"cutoff {cutoff!r} is not an int")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        clean = {}
        for rs, c in (coeffs or {}).items():
            c = RationalFunction.of(c)
            if not c.is_zero():
                clean[rs] = c
        if determined is None:
            determined = {(r, s) for r in range(cutoff + 1)
                          for s in range(cutoff + 1 - r)}
        determined = frozenset(determined)
        for rs in determined:
            if min(rs) < 0 or sum(rs) > cutoff:
                raise ValueError(f"bidegree {rs} outside cutoff {cutoff}")
        missing = set(clean) - determined
        if missing:
            raise ValueError(f"nonzero coefficients outside determined set: {missing}")
        return super().__new__(cls, cutoff, clean, determined)

    _make = classmethod(checked_make)

    def coeff(self, r, s):
        """The (r, s) coefficient; raises KeyError beyond the determined set."""
        if (r, s) not in self.determined:
            raise KeyError(f"coefficient ({r},{s}) not determined at cutoff {self.cutoff}")
        return self.coeffs.get((r, s), RF_ZERO)

    def is_determined(self, r, s):
        return (r, s) in self.determined

    def support(self):
        return graded(self.coeffs)

    def map_coeffs(self, fn):
        return KahlerSeries(self.cutoff,
                            {rs: fn(c) for rs, c in self.coeffs.items()},
                            self.determined)

    def truncated(self, cutoff):
        """The series at a cutoff no deeper than its own: the coefficients
        and determined bidegrees of total degree <= cutoff, unchanged."""
        if not 0 <= cutoff <= self.cutoff:
            raise ValueError(f"cannot truncate cutoff {self.cutoff} at {cutoff}")
        return KahlerSeries(cutoff,
                            {rs: c for rs, c in self.coeffs.items() if sum(rs) <= cutoff},
                            {rs for rs in self.determined if sum(rs) <= cutoff})

    def substitute_t_eq_q(self):
        return self.map_coeffs(lambda c: c.substitute_t_eq_q())

    def swap_qt(self):
        return self.map_coeffs(lambda c: c.swap_qt())

    def equal_through(self, other, degree):
        """First differing bidegree with r+s <= degree, or None when equal."""
        for d in range(degree + 1):
            for r in range(d + 1):
                rs = (r, d - r)
                here = rs in self.determined
                there = rs in other.determined
                if here != there:
                    return rs
                if here and self.coeffs.get(rs, RF_ZERO) != other.coeffs.get(rs, RF_ZERO):
                    return rs
        return None

    def to_json(self):
        entries = []
        for rs in graded(self.determined):
            entries.append({
                "r": rs[0], "s": rs[1],
                "coeff": self.coeffs.get(rs, RF_ZERO).to_json(),
            })
        return {"cutoff": self.cutoff, "terms": entries}

    @staticmethod
    def from_json(data):
        terms, cutoff = data["terms"], _int_of(data, "cutoff")
        coeffs = {}
        determined = set()
        for item in terms:
            rs = (_int_of(item, "r"), _int_of(item, "s"))
            if min(rs) < 0 or sum(rs) > cutoff:
                raise ValueError(f"bidegree {rs} outside cutoff {cutoff}")
            if rs in determined:
                raise ValueError(f"repeated bidegree {rs}")
            determined.add(rs)
            rf = RationalFunction.from_json(item["coeff"])
            if not rf.is_zero():
                coeffs[rs] = rf
        return KahlerSeries(cutoff, coeffs, determined)


def _splits(rs):
    r, s = rs
    for a in range(r + 1):
        for b in range(s + 1):
            yield (a, b), (r - a, s - b)


def series_divide(num, den, seed=None):
    """Bidegree-by-bidegree division; den must have an invertible constant
    term.  num is a KahlerSeries, or a dict that maps each bidegree the
    numerator determines, at den's cutoff, to a list of values whose sum is
    its coefficient; each quotient coefficient is then one sum of those
    values and the lower products, so the numerator's own sums are never
    built.  A quotient bidegree is determined when the numerator one is and
    every lower denominator bidegree it pulls in is.

    seed, a KahlerSeries at den's cutoff, seeds the division with quotient
    bidegrees known beforehand: each bidegree seed determines counts as a
    determined quotient bidegree with seed's coefficient, is never computed
    (num need not hold it), and is read by the bidegrees above it as a
    computed one would be.  The rest are divided as without a seed, and a
    bidegree that pulls in an undetermined denominator bidegree stays
    undetermined whatever the seed holds."""
    if isinstance(num, KahlerSeries):
        if num.cutoff != den.cutoff:
            raise ValueError("mismatched cutoffs")
        num = {rs: [num.coeffs[rs]] if rs in num.coeffs else [] for rs in num.determined}
    if (0, 0) not in den.determined:
        raise ZeroDivisionError("denominator series has no determined constant term")
    lead = den.coeffs.get((0, 0))
    if lead is None or lead.is_zero():
        raise ZeroDivisionError("denominator series has zero constant term")
    if seed is not None and seed.cutoff != den.cutoff:
        raise ValueError("mismatched cutoffs")
    lead_is_one = lead.is_one()
    quo = dict(seed.coeffs) if seed is not None else {}
    determined = set(seed.determined) if seed is not None else set()
    for d in range(den.cutoff + 1):
        for r in range(d + 1):
            rs = (r, d - r)
            if rs in determined:
                continue
            if rs in num and all(
                    u in den.determined and v in determined
                    for u, v in _splits(rs) if u != (0, 0)):
                determined.add(rs)
            else:
                continue
            terms = list(num[rs])
            for (r1, s1), c1 in den.coeffs.items():
                if (r1, s1) == (0, 0):
                    continue
                r2, s2 = rs[0] - r1, rs[1] - s1
                if r2 >= 0 and s2 >= 0 and (r2, s2) in quo:
                    terms.append(-(c1 * quo[(r2, s2)]))
            if not terms:
                continue
            # later bidegrees are built from the cancelled forms
            total = RationalFunction.sum_of(terms, cancel=lead_is_one)
            if not (lead_is_one or total.is_zero()):
                total = (total / lead).cancelled()
            if not total.is_zero():
                quo[rs] = total
    return KahlerSeries(den.cutoff, quo, determined)
