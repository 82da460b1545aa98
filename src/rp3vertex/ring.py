"""Exact arithmetic: Laurent polynomials in q^(1/2), t^(1/2), rational
functions of them, truncated q-expansions, and bidegree series in the two
gluing parameters.

Exponents are stored doubled so every exponent is an integer.  Rational
functions never run a polynomial gcd: the denominator is kept as a multiset
of normalized factors (each with constant term 1 after content stripping),
sums take factor-wise least common multiples, and equality is decided by
cross multiplication.  A sum applies each LCM factor its terms miss once
per group of terms that need it equally often, to their partial sum, not
to every term's numerator on its own.  Sums do not cancel; `cancelled`
divides the numerator exactly by each factor 1 - m that divides it, and is
called only on the skew Schur leaves and in `series_divide`.

Every division by a factor 1 - m, exact or as a power series cut at an
order, goes through one kernel, `_divide_one_minus`; so `expand` takes the
denominators that are products of factors 1 - q^a t^b with a >= 0.  Every
polynomial a value is divided by is normalized by `RationalFunction._over`.
"""

from fractions import Fraction


def _coeff_str(c):
    f = Fraction(c)
    return str(f.numerator), str(f.denominator)


class Laurent:
    """Laurent polynomial; terms maps doubled (q-exp, t-exp) to a nonzero rational."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {e: c for e, c in terms.items() if c} if terms else {}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _of(terms):
        """Wrap a dict the caller guarantees holds no zero coefficient."""
        p = object.__new__(Laurent)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Laurent is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return Laurent({(0, 0): c} if c else {})

    @staticmethod
    def monomial(eq, et, c=1):
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
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        for e, c in self.terms.items():
            if other.terms.get(e) != c:
                return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset((e, Fraction(c)) for e, c in self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

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
        return Laurent._of(out)

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
            return Laurent({(e0 + eq, e1 + et): cb * c for (e0, e1), cb in b.items()})
        m = _binomial_step(a) if len(a) == 2 else None
        if m is not None:
            # 1 - m, the shape of every denominator factor sums lift by:
            # b minus b shifted by m, with no coefficient products
            mq, mt = m
            out = dict(b)
            for (bq, bt), cb in b.items():
                e = (bq + mq, bt + mt)
                v = out.get(e, 0) - cb
                if v:
                    out[e] = v
                else:
                    del out[e]
            return Laurent._of(out)
        out = {}
        for (aq, at), ca in a.items():
            for (bq, bt), cb in b.items():
                e = (aq + bq, at + bt)
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return Laurent(out)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Laurent()
        return Laurent({e: v * c for e, v in self.terms.items()})

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
        """(exponent, coeff) of the graded-lex minimal term."""
        e = min(self.terms, key=Laurent._term_key)
        return e, self.terms[e]

    def min_q_exp(self):
        return min(e[0] for e in self.terms)

    def normalized(self):
        """Split off content: returns (coeff, (eq, et), unit) with unit's minimal
        term exactly 1 and self == coeff * monomial * unit."""
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        (eq, et), c = self.min_term()
        unit = Laurent({(a - eq, b - et): Fraction(v, 1) / c if c != 1 else v
                        for (a, b), v in self.terms.items()})
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
        terms = {}
        for item in data:
            c = Fraction(int(item["num"]), int(item["den"]))
            if c.denominator == 1:
                c = c.numerator
            terms[(int(item["ex"]), int(item["ey"]))] = c
        return Laurent(terms)


L_ZERO = Laurent()
L_ONE = Laurent.const(1)


def _factor_sort_key(f):
    return tuple(sorted(f.terms.items()))


def _binomial_step(terms):
    """m when the terms are exactly those of 1 - m, else None."""
    if len(terms) != 2 or terms.get((0, 0)) != 1:
        return None
    m, c = next(kv for kv in terms.items() if kv[0] != (0, 0))
    return m if c == -1 else None


def _divide_one_minus(terms, m, last=None):
    """terms / (1 - m) as a Laurent: exact, or None when 1 - m does not
    divide; or, given `last`, the power series in m cut after doubled
    q-exponent `last` (m must then have a positive q-exponent, and the
    caller has dropped every term above `last`).

    The terms lie on chains e + k*m; writing N = (1 - m) Q along one chain
    gives n_k = q_k - q_(k-1), so Q is the running sum along each chain from
    its first position on, gaps included.  1 - m divides exactly when every
    chain's coefficients sum to zero, and the exact Q stops one before the
    chain's last position; 1 - m vanishes at q^(1/2) = t^(1/2) = 1, so a
    non-zero sum of all the terms rules it out before any chain is built.
    The truncated Q runs on to the chain's last position at or below
    `last`."""
    if last is None and sum(terms.values()):
        return None
    a, b = m
    chains = {}
    for e, c in terms.items():
        k = e[0] // a if a else e[1] // b
        key = (e[0] - k * a, e[1] - k * b)
        chain = chains.get(key)
        if chain is None:
            chains[key] = {k: c}
        else:
            chain[k] = c
    if last is None:
        for chain in chains.values():
            if sum(chain.values()):
                return None
    out = {}
    for (x0, y0), chain in chains.items():
        stop = max(chain) if last is None else (last - x0) // a + 1
        run = 0
        for k in range(min(chain), stop):
            run += chain.get(k, 0)
            if run:
                out[(x0 + k * a, y0 + k * b)] = run
    return Laurent._of(out)


def _one_minus_steps(f):
    """The m of each 1 - m whose product is the factor f, or None when f is
    no such product.  Each step divides f exactly by 1 - m for its
    graded-lex least non-constant term m: f is normalized, so in a product
    of factors 1 - m_i every m_i lies above 1 in that order, and the least
    m_i is the least non-constant term of the product."""
    steps = []
    terms = f.terms
    while len(terms) > 1:
        m = min((e for e in terms if e != (0, 0)), key=Laurent._term_key)
        quo = _divide_one_minus(terms, m)
        if quo is None:
            return None
        steps.append(m)
        terms = quo.terms
    return steps if terms == {(0, 0): 1} else None


def _lift_sum(items, factors, i):
    """Sum of num * prod(factors[j] ** need[j] for j >= i) over (num, need)
    items.  Items are grouped by their need of the first factor some of them
    need, each group is lifted by the factors after it, and the groups are
    combined in Horner form, so that factor multiplies partial sums, not
    numerators one by one.  Recursion depth is at most len(factors) + 1."""
    while i < len(factors):
        groups = {}
        for item in items:
            groups.setdefault(item[1][i], []).append(item)
        if len(groups) > 1 or 0 not in groups:
            break
        i += 1
    else:
        if len(items) == 1:
            return items[0][0]
        out = {}
        for num, _need in items:
            for e, c in num.terms.items():
                out[e] = out.get(e, 0) + c
        return Laurent(out)
    f = factors[i]
    acc = L_ZERO
    for k in range(max(groups), -1, -1):
        if acc:
            acc = acc * f
        part = groups.get(k)
        if part is not None:
            part = _lift_sum(part, factors, i + 1)
            acc = acc + part if acc else part
    return acc


class RationalFunction:
    """num over a product of normalized factors; exact, never gcd-reduced."""

    __slots__ = ("num", "factors")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Laurent.const(num)
        if den is None:
            self._init(num, ())
            return
        if isinstance(den, (int, Fraction)):
            den = Laurent.const(den)
        rf = RationalFunction._over(num, ((den, 1),), {})
        self._init(rf.num, rf.factors)

    def _init(self, num, factors):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _make(cls, num, factor_bag):
        rf = cls.__new__(cls)
        if num.is_zero():
            rf._init(L_ZERO, ())
            return rf
        items = tuple(sorted(
            ((f, m) for f, m in factor_bag.items() if m),
            key=lambda fm: _factor_sort_key(fm[0]),
        ))
        rf._init(num, items)
        return rf

    @staticmethod
    def _over(num, divisors, bag):
        """num / (the factors in bag * each polynomial ** multiplicity of
        divisors): each divisor's content and monomial fold into num, and its
        unit factor, unless 1, joins bag (updated in place)."""
        scale = Fraction(1)
        shift_q = shift_t = 0
        for poly, mult in divisors:
            if poly.is_zero():
                raise ZeroDivisionError("zero denominator")
            c, (eq, et), unit = poly.normalized()
            scale *= Fraction(c) ** mult
            shift_q += eq * mult
            shift_t += et * mult
            if not unit.is_one():
                bag[unit] = bag.get(unit, 0) + mult
        num = num.shift(-shift_q, -shift_t)
        if scale != 1:
            num = num.scale(1 / scale)
        return RationalFunction._make(num, bag)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Laurent):
            return RationalFunction(value)
        return RationalFunction(Laurent.const(value))

    @staticmethod
    def zero():
        return RF_ZERO

    @staticmethod
    def one():
        return RF_ONE

    @staticmethod
    def monomial(eq, et, c=1):
        return RationalFunction(Laurent.monomial(eq, et, c))

    # -- structure ---------------------------------------------------------

    @property
    def den(self):
        """The expanded denominator polynomial."""
        d = L_ONE
        for f, m in self.factors:
            d = d * f ** m
        return d

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
        return RationalFunction._make(-self.num, dict(self.factors))

    def __sub__(self, other):
        return self + (-RationalFunction.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction._make(self.num.scale(other), dict(self.factors))
        other = RationalFunction.of(other)
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        bag = dict(self.factors)
        for f, m in other.factors:
            bag[f] = bag.get(f, 0) + m
        return RationalFunction._make(self.num * other.num, bag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero():
            return RF_ZERO
        num = self.num
        for f, m in other.factors:
            num = num * f ** m
        return RationalFunction._over(num, ((other.num, 1),), dict(self.factors))

    def __rtruediv__(self, other):
        return RationalFunction.of(other) / self

    def __pow__(self, n):
        if n == 0:
            return RF_ONE
        if n < 0:
            return RF_ONE / self ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    @staticmethod
    def sum_of(values):
        """n-ary sum over a shared factor-wise LCM denominator.

        Each value is missing some LCM factors; those are applied factor by
        factor (most-needed first), each once per group of values that need
        it equally often, rather than once per value."""
        values = [rf for rf in map(RationalFunction.of, values) if not rf.is_zero()]
        if not values:
            return RF_ZERO
        if len(values) == 1:
            return values[0]
        lcm = {}
        for v in values:
            for f, m in v.factors:
                if lcm.get(f, 0) < m:
                    lcm[f] = m
        facs = list(lcm)
        rows = []
        for v in values:
            have = dict(v.factors)
            rows.append((v.num, [lcm[f] - have.get(f, 0) for f in facs]))
        users = [sum(1 for _num, need in rows if need[j]) for j in range(len(facs))]
        order = sorted(range(len(facs)), key=lambda j: -users[j])
        items = [(num, [need[j] for j in order]) for num, need in rows]
        total = _lift_sum(items, [facs[j] for j in order], 0)
        return RationalFunction._make(total, lcm)

    def cancelled(self):
        """The same value with each factor 1 - m divided out of the
        numerator as often as it divides exactly, up to its multiplicity;
        factors of any other shape are kept."""
        num = self.num
        bag = {}
        for f, mult in self.factors:
            m = _binomial_step(f.terms)
            while m is not None and mult:
                quo = _divide_one_minus(num.terms, m)
                if quo is None:
                    break
                num = quo
                mult -= 1
            bag[f] = mult
        if num is self.num:
            return self
        return RationalFunction._make(num, bag)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Laurent) or isinstance(other, (int, Fraction)):
            other = RationalFunction.of(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.num.is_zero():
            return other.num.is_zero()
        if other.num.is_zero():
            return False
        a, b = dict(self.factors), dict(other.factors)
        for f in set(a) & set(b):
            m = min(a[f], b[f])
            a[f] -= m
            b[f] -= m
        left = self.num
        for f, m in b.items():
            if m:
                left = left * f ** m
        right = other.num
        for f, m in a.items():
            if m:
                right = right * f ** m
        return left == right

    # equal values in different unreduced forms have no common hash
    __hash__ = None

    # -- substitutions -----------------------------------------------------

    def _map(self, fn):
        return RationalFunction._over(
            fn(self.num), [(fn(f), m) for f, m in self.factors], {})

    def substitute_t_eq_q(self):
        return self._map(Laurent.substitute_t_eq_q)

    def swap_qt(self):
        return self._map(Laurent.swap_qt)

    def evaluate(self, qh, th):
        d = Fraction(1)
        for f, m in self.factors:
            d *= f.evaluate(qh, th) ** m
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
        for f, m in self.factors:
            piece = f"({f.text()})"
            if m != 1:
                piece += f"^{m}"
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


def rf_equal(a, b):
    """Cross-multiplied equality of two rational functions."""
    return RationalFunction.of(a) == RationalFunction.of(b)


class ExpansionError(ValueError):
    """A denominator cannot be inverted as a series in the expansion variable."""


class QSeries:
    """Truncated expansion in one variable with Laurent-polynomial coefficients
    in the other, after extraction of an overall monomial prefactor.

    coeffs maps a doubled main-variable exponent (0, 2, 4, ...) to a dict of
    doubled other-variable exponents -> rational coefficient.  order is the
    inclusive doubled bound on stored main exponents.
    """

    __slots__ = ("prefactor", "coeffs", "order", "var")

    def __init__(self, prefactor, coeffs, order, var="q"):
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "coeffs", {
            qe: dict(poly) for qe, poly in coeffs.items() if poly
        })
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def coeff(self, qe_doubled):
        return dict(self.coeffs.get(qe_doubled, {}))

    def first_violation(self):
        """(qe, te, coeff) of the first non-positive-integral coefficient; the
        extracted scalar itself must be a positive integer."""
        if not self.coeffs:
            return None
        _, c = self.prefactor.min_term()
        if c < 0 or Fraction(c).denominator != 1:
            return (0, 0, c)
        for qe in sorted(self.coeffs):
            for te in sorted(self.coeffs[qe]):
                v = self.coeffs[qe][te]
                if Fraction(v).denominator != 1 or v < 0:
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
        main = self.var
        other = "t" if main == "q" else "q"
        if not self.coeffs:
            return "0"

        def tpoly_text(poly):
            bits = []
            for te in sorted(poly):
                c = poly[te]
                if te == 0:
                    bits.append(str(c))
                else:
                    sym = other if te == 2 else (
                        f"{other}^{te // 2}" if te % 2 == 0 else f"{other}^({te}/2)")
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
            sym = main if qe == 2 else (
                f"{main}^{qe // 2}" if qe % 2 == 0 else f"{main}^({qe}/2)")
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
            "var": self.var,
            "coeffs": coeffs,
        }

    @staticmethod
    def from_json(data):
        coeffs = {}
        for item in data["coeffs"]:
            poly = {}
            for tt in item["poly_t"]:
                c = Fraction(int(tt["num"]), int(tt["den"]))
                if c.denominator == 1:
                    c = c.numerator
                poly[int(tt["te"])] = c
            coeffs[int(item["qe"])] = poly
        pref = Laurent.from_json(data["prefactor"]) if data.get("prefactor") else L_ONE
        return QSeries(pref, coeffs, int(data["order"]), data.get("var", "q"))


def expand(rf, q_order, var="q"):
    """Series expansion of a rational function to the given order (plain,
    undoubled power of the expansion variable).

    Every denominator factor must be a product of factors 1 - q^a t^b with
    a >= 0.  Steps with a > 0 are inverted as power series cut at the
    order; steps with a = 0, pure in the other variable, must then divide
    the series exactly.  Raises ExpansionError when a factor is no such
    product, has a step with a < 0, or a pure step does not divide.
    """
    rf = RationalFunction.of(rf)
    if var == "t":
        result = expand(rf.swap_qt(), q_order, "q")
        return QSeries(result.prefactor.swap_qt(),
                       result.coeffs, result.order, "t")
    if rf.is_zero():
        return QSeries(L_ONE, {}, 2 * q_order, var)

    geom = []   # steps m with a positive q-exponent
    pure = []   # (factor, step m) with m in t alone
    for f, mult in rf.factors:
        steps = _one_minus_steps(f)
        if steps is None:
            raise ExpansionError(
                f"denominator factor {f.text()} is not a product of factors 1 - q^a t^b")
        for m in steps * mult:
            if m[0] < 0:
                raise ExpansionError(
                    f"denominator factor {f.text()} has a step 1 - q^a t^b with a < 0")
            if m[0]:
                geom.append(m)
            else:
                pure.append((f, m))

    last = rf.num.min_q_exp() + 2 * q_order
    terms = {e: c for e, c in rf.num.terms.items() if e[0] <= last}
    for m in geom:
        terms = _divide_one_minus(terms, m, last).terms
    for f, m in pure:
        quo = _divide_one_minus(terms, m)
        if quo is None:
            raise ExpansionError(
                f"coefficient is not polynomial after dividing by {f.text()}")
        terms = quo.terms

    slices = {}
    for (eq, et), c in terms.items():
        slices.setdefault(eq, {})[et] = c
    return canonical_series(slices, 2 * q_order, var)


def canonical_series(slices, order_doubled, var):
    """Normalize raw series slices into a QSeries: extract the monomial
    making the residual start at order zero in both variables, a sign making
    the lowest entry positive, and the scalar content making it primitive."""
    slices = {qe: {te: c for te, c in poly.items() if c}
              for qe, poly in slices.items()}
    slices = {qe: poly for qe, poly in slices.items() if poly}
    if not slices:
        return QSeries(L_ONE, {}, order_doubled, var)

    qmin = min(slices)
    tmin = min(te for poly in slices.values() for te in poly)
    shifted = {qe - qmin: {te - tmin: c for te, c in poly.items()}
               for qe, poly in slices.items() if qe - qmin <= order_doubled}
    lead_poly = shifted[0]
    lead = lead_poly[min(lead_poly)]
    sign = -1 if lead < 0 else 1
    content = _content(v for poly in shifted.values() for v in poly.values())
    scale = sign * content
    if scale != 1:
        inv = Fraction(1, 1) / scale
        shifted = {qe: {te: _tighten(c * inv) for te, c in poly.items()}
                   for qe, poly in shifted.items()}
    prefactor = Laurent.monomial(qmin, tmin, _tighten(scale))
    return QSeries(prefactor, shifted, order_doubled, var)


def _content(values):
    from math import gcd, lcm
    num = 0
    den = 1
    for v in values:
        f = Fraction(v)
        num = gcd(num, abs(f.numerator))
        den = lcm(den, f.denominator)
    return Fraction(num, den) if num else Fraction(1)


def _tighten(f):
    f = Fraction(f)
    return f.numerator if f.denominator == 1 else f


def substitute_t_eq_q(rf):
    return RationalFunction.of(rf).substitute_t_eq_q()


class KahlerSeries:
    """Series in the two gluing weights, truncated at a total-degree cutoff.

    coeffs holds the nonzero coefficients; determined records which bidegrees
    are known exactly (absent determined keys are exact zeros, everything else
    is beyond the truncation).
    """

    __slots__ = ("cutoff", "coeffs", "determined")

    def __init__(self, cutoff, coeffs=None, determined=None):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        object.__setattr__(self, "cutoff", cutoff)
        clean = {}
        for rs, c in (coeffs or {}).items():
            c = RationalFunction.of(c)
            if not c.is_zero():
                clean[rs] = c
        object.__setattr__(self, "coeffs", clean)
        if determined is None:
            determined = {(r, s) for r in range(cutoff + 1)
                          for s in range(cutoff + 1 - r)}
        object.__setattr__(self, "determined", frozenset(determined))
        missing = set(clean) - self.determined
        if missing:
            raise ValueError(f"nonzero coefficients outside determined set: {missing}")

    def __setattr__(self, name, value):
        raise AttributeError("KahlerSeries is immutable")

    def coeff(self, r, s):
        """The (r, s) coefficient; raises KeyError beyond the determined set."""
        if (r, s) not in self.determined:
            raise KeyError(f"coefficient ({r},{s}) not determined at cutoff {self.cutoff}")
        return self.coeffs.get((r, s), RF_ZERO)

    def is_determined(self, r, s):
        return (r, s) in self.determined

    def support(self):
        return sorted(self.coeffs, key=lambda rs: (rs[0] + rs[1], rs))

    def map_coeffs(self, fn):
        return KahlerSeries(self.cutoff,
                            {rs: fn(c) for rs, c in self.coeffs.items()},
                            self.determined)

    def substitute_t_eq_q(self):
        return self.map_coeffs(lambda c: c.substitute_t_eq_q())

    def swap_qt(self):
        return self.map_coeffs(lambda c: c.swap_qt())

    def __eq__(self, other):
        if not isinstance(other, KahlerSeries):
            return NotImplemented
        if self.cutoff != other.cutoff or self.determined != other.determined:
            return False
        return self.equal_through(other, self.cutoff) is None

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
        for rs in sorted(self.determined, key=lambda rs: (rs[0] + rs[1], rs)):
            entries.append({
                "r": rs[0], "s": rs[1],
                "coeff": self.coeffs.get(rs, RF_ZERO).to_json(),
            })
        return {"cutoff": self.cutoff, "terms": entries}

    @staticmethod
    def from_json(data):
        coeffs = {}
        determined = set()
        for item in data["terms"]:
            rs = (int(item["r"]), int(item["s"]))
            determined.add(rs)
            rf = RationalFunction.from_json(item["coeff"])
            if not rf.is_zero():
                coeffs[rs] = rf
        return KahlerSeries(int(data["cutoff"]), coeffs, determined)


def _splits(rs):
    r, s = rs
    for a in range(r + 1):
        for b in range(s + 1):
            yield (a, b), (r - a, s - b)


def series_divide(num, den):
    """Bidegree-by-bidegree division; den must have an invertible constant
    term.  A quotient bidegree is determined when the numerator one is and
    every lower denominator bidegree it pulls in is."""
    if num.cutoff != den.cutoff:
        raise ValueError("mismatched cutoffs")
    if (0, 0) not in den.determined:
        raise ZeroDivisionError("denominator series has no determined constant term")
    lead = den.coeffs.get((0, 0))
    if lead is None or lead.is_zero():
        raise ZeroDivisionError("denominator series has zero constant term")
    quo = {}
    determined = set()
    for d in range(num.cutoff + 1):
        for r in range(d + 1):
            rs = (r, d - r)
            if rs in num.determined and all(
                    u in den.determined and v in determined
                    for u, v in _splits(rs) if u != (0, 0)):
                determined.add(rs)
            else:
                continue
            terms = [num.coeffs[rs]] if rs in num.coeffs else []
            for (r1, s1), c1 in den.coeffs.items():
                if (r1, s1) == (0, 0):
                    continue
                r2, s2 = rs[0] - r1, rs[1] - s1
                if r2 >= 0 and s2 >= 0 and (r2, s2) in quo:
                    terms.append(-(c1 * quo[(r2, s2)]))
            if terms:
                total = RationalFunction.sum_of(terms)
                if not total.is_zero():
                    # later bidegrees are built from the cancelled forms
                    quo[rs] = (total if lead.is_one() else total / lead).cancelled()
    return KahlerSeries(num.cutoff, quo, determined)
