"""Exact Schur / skew Schur / Macdonald evaluations at geometric-tail
alphabets.

An alphabet here is a finite prefix of monomials followed by an infinite
geometric tail whose ratio is a pure power of one variable, which keeps
every complete homogeneous value an exact rational function.  With r the
tail ratio and s its start, h_m(tail) = s^m / prod_(i<=m) (1 - r^i), so
h_k = sum_j h_j(prefix) h_(k-j)(tail) is one numerator over the steps
1 - r^i, i <= k, built on term dicts by the Horner recurrence acc =
h_k(prefix), acc <- (1 - r^i) acc + h_(k-i)(prefix) s^i for i = 1..k.  The
split j = 0 has every step, so that bag is the LCM the sum of the splits
lifts to, and a numerator over a fixed step bag is unique: both print alike.

`complete_homogeneous` and `skew_schur` are memoized with
`functools.cache`, like every other memo of the package, so
`cache_clear` empties each of them.
"""

from collections import Counter, namedtuple
from functools import cache

from .partitions import EMPTY
from .ring import Laurent, RationalFunction, RF_ONE, RF_ZERO, checked_make


class Alphabet(namedtuple("Alphabet", "prefix tail_start tail_ratio")):
    """prefix monomials then tail_start * tail_ratio^k for k >= 0.

    Monomials are doubled (q-exp, t-exp) pairs with unit coefficient; the
    ratio must be a positive pure power of q or t so tails have closed forms.
    """

    __slots__ = ()

    def __new__(cls, prefix, tail_start, tail_ratio):
        rq, rt = tail_ratio
        if not ((rq > 0 and rt == 0) or (rq == 0 and rt > 0)):
            raise ValueError(f"tail ratio must be a positive pure power, got {tail_ratio}")
        return super().__new__(cls, tuple(prefix), tuple(tail_start), (rq, rt))

    _make = classmethod(checked_make)


_UNIT = {"q": (1, 0), "t": (0, 1)}


def principal(main, shift=EMPTY, shift_var=None):
    """The alphabet main^(-rho) shifted by a partition in shift_var (main by
    default), one formula over the unit exponent vectors q -> (1, 0), t -> (0, 1).

    principal('q', chi) is {q^(1/2 - chi_1), q^(3/2 - chi_2), ...}; passing
    shift_var='q' with main 't' builds t^(-rho) q^(-chi), and so on.
    """
    if main not in ("q", "t") or shift_var not in (None, "q", "t"):
        raise ValueError(f"variables must be 'q' or 't', got {main!r} and {shift_var!r}")
    (mq, mt), (sq, st) = _UNIT[main], _UNIT[shift_var or main]
    ell = len(shift)
    prefix = [((2 * i - 1) * mq - 2 * part * sq, (2 * i - 1) * mt - 2 * part * st)
              for i, part in enumerate(shift, 1)]
    return Alphabet(prefix, ((2 * ell + 1) * mq, (2 * ell + 1) * mt), (2 * mq, 2 * mt))


def finite_h(letters, k):
    """[h_0, ..., h_k] of the unit monomials with the given doubled exponents:
    each letter m adds m h_(j-1) to every h_j, j rising, so no term cancels."""
    hs = [{(0, 0): 1}] + [{} for _ in range(k)]
    for (eq, et) in letters:
        for lower, h in zip(hs, hs[1:]):
            for (a, b), c in lower.items():
                h[a + eq, b + et] = h.get((a + eq, b + et), 0) + c
    return [Laurent._of(h) for h in hs]


@cache
def complete_homogeneous(k, alphabet):
    """h_k of the alphabet, exact: one numerator over the steps 1 - r^i,
    i <= k, by the recurrence of the module docstring."""
    if k < 0:
        return RF_ZERO
    if k == 0:
        return RF_ONE
    hs = finite_h(alphabet.prefix, k)
    (sq, st), (rq, rt) = alphabet.tail_start, alphabet.tail_ratio
    acc = dict(hs[k].terms)
    for i in range(1, k + 1):
        for (a, b), c in list(acc.items()):
            e = (a + rq * i, b + rt * i)
            acc[e] = acc.get(e, 0) - c
        for (a, b), c in hs[k - i].terms.items():
            e = (a + sq * i, b + st * i)
            acc[e] = acc.get(e, 0) + c
    return RationalFunction._make(Laurent._of({e: c for e, c in acc.items() if c}),
                                  {(rq * i, rt * i): 1 for i in range(1, k + 1)})


@cache
def skew_schur(lam, eta, alphabet):
    """s_{lam/eta} at the alphabet via the Jacobi-Trudi determinant.

    Returns 0 when eta is not contained in lam, 1 for the empty shape.
    """
    if not lam.contains(eta):
        return RF_ZERO
    n = len(lam)
    if n == 0:
        return RF_ONE
    rows = [[complete_homogeneous(lam.part(i) - eta.part(j) - i + j, alphabet)
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    # cancelled once here, the value is reused by every block product
    return _det(rows).cancelled()


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return _minor(rows, 0, (1 << n) - 1, {})


def _minor(rows, r, cols, memo):
    """The minor of rows r.. on the column set cols (a bit mask), by
    Laplace expansion along row r; memo maps cols, which fixes r, to its
    minor.  The memo is passed along, not closed over by a function that
    calls itself, which would be a reference cycle holding every minor."""
    if r == len(rows):
        return RF_ONE
    value = memo.get(cols)
    if value is None:
        terms = []
        sign = 1
        for j in _bits(cols):
            entry = rows[r][j]
            if not entry.is_zero():
                term = entry * _minor(rows, r + 1, cols & ~(1 << j), memo)
                terms.append(term if sign > 0 else -term)
            sign = -sign
        value = memo[cols] = RationalFunction.sum_of(terms)
    return value


def _bits(mask):
    j = 0
    while mask:
        if mask & 1:
            yield j
        mask >>= 1
        j += 1


def macdonald_tilde_z(nu, first="t"):
    """Refined box-counting function: the hook product over the diagram with
    (first, second) = (t, q) or (q, t) argument order.

    The first argument pairs with the column direction (leg + 1) and the
    second with the row direction (arm); at equal arguments this is the
    plain hook product.
    """
    bag = Counter((2 * a, 2 * (l + 1)) if first == "t" else (2 * (l + 1), 2 * a)
                  for a, l in nu.arm_legs())
    return RationalFunction._make(Laurent.const(1), bag)


def macdonald_p_at_rho(nu):
    """Principal Macdonald value P_{nu^t}(q^(-rho); t, q): the hook identity
    for P_{nu^t}(t^(-rho); q, t) with t and q exchanged throughout, that is
    q^(||nu||^2/2) times the hook product with (first, second) = (q, t)."""
    return RationalFunction.monomial(nu.norm_sq, 0) * macdonald_tilde_z(nu, "q")
