"""Reference implementations the tests check the program against.

Each one is independent of the code path it checks: a brute-force tableau
sum for the Jacobi-Trudi skew Schur values, Euler's recurrence for the
partition enumerator, a series product for the series division, and cell
statistics recounted from arms and legs.  The series division's former
form, which stores every quotient coefficient uncancelled, is kept as the
reference for the cancelling one, and the q-expansion's former form, which
inverts each denominator factor slice by slice and divides pure-t factors
by long division, as the reference for the one on the 1 - m kernel.
"""

from rp3vertex.partitions import EMPTY, Partition
from rp3vertex.ring import (L_ONE, ExpansionError, KahlerSeries, Laurent, QSeries,
                            RationalFunction, _splits, canonical_series)


def hook(nu, i, j):
    return nu.arm(i, j) + nu.leg(i, j) + 1


def cell_stats(nu):
    """Map cell -> (arm, leg, hook) over the whole diagram."""
    return {(i, j): (nu.arm(i, j), nu.leg(i, j), hook(nu, i, j))
            for (i, j) in nu.cells()}


def count_partitions(n):
    """p(n) by Euler's pentagonal-number recurrence (independent of the enumerator)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def subpartitions_within(*bounds):
    """All eta contained in every bound partition."""
    if not bounds:
        return [EMPTY]
    cap = [min(b.part(i) for b in bounds) for i in range(1, min(len(b) for b in bounds) + 1)]
    while cap and cap[-1] == 0:
        cap.pop()
    out = []

    # depth-first over row lengths, each row bounded by cap and the row above
    def walk(row, prev, prefix):
        out.append(Partition(prefix))
        if row >= len(cap):
            return
        for p in range(1, min(cap[row], prev) + 1):
            walk(row + 1, p, prefix + (p,))

    walk(0, 10 ** 9, ())
    return out


def residual_equal(a, b, through=None):
    """Exact equality of two QSeries' residual coefficients through a
    doubled order."""
    bound = min(a.order, b.order)
    if through is not None:
        bound = min(bound, through)
    for qe in range(0, bound + 1):
        if a.coeffs.get(qe, {}) != b.coeffs.get(qe, {}):
            return False
    return True


def series_multiply(a, b):
    """Product of two bidegree series over a shared cutoff; a bidegree of the
    product is determined only when every contributing split is."""
    if a.cutoff != b.cutoff:
        raise ValueError("mismatched cutoffs")
    out = {}
    determined = set()
    for d in range(a.cutoff + 1):
        for r in range(d + 1):
            rs = (r, d - r)
            if all(u in a.determined and v in b.determined
                   for u, v in _splits(rs)):
                determined.add(rs)
            terms = []
            for (r1, s1), c1 in a.coeffs.items():
                r2, s2 = rs[0] - r1, rs[1] - s1
                if r2 >= 0 and s2 >= 0 and (r2, s2) in b.coeffs:
                    terms.append(c1 * b.coeffs[(r2, s2)])
            if terms and rs in determined:
                out[rs] = RationalFunction.sum_of(terms)
    return KahlerSeries(a.cutoff, out, determined)


def reference_series_divide(num, den):
    """series_divide without cancellation: each quotient coefficient is
    stored as sum_of leaves it, and later bidegrees are built from it."""
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
                    quo[rs] = total if lead.is_one() else total / lead
    return KahlerSeries(num.cutoff, quo, determined)


def reference_expand(rf, q_order, var="q"):
    """Series expansion of a rational function to the given order (plain,
    undoubled power of the expansion variable).

    Denominator factors that are pure in the other variable must divide the
    series coefficientwise; factors mixing in the expansion variable are
    inverted geometrically.  Raises ExpansionError when a factor has no unit
    constant term or a pure factor does not divide exactly.
    """
    rf = RationalFunction.of(rf)
    if var == "t":
        result = reference_expand(rf.swap_qt(), q_order, "q")
        return QSeries(result.prefactor.swap_qt(),
                       result.coeffs, result.order, "t")
    if rf.is_zero():
        return QSeries(L_ONE, {}, 2 * q_order, var)

    geom = []   # factors with every non-constant term strictly positive in q
    pure = []   # factors in t alone
    for f, m in rf.factors:
        if f.terms.get((0, 0)) != 1:
            raise ExpansionError(
                f"denominator factor {f.text()} has no unit constant term")
        rest = {e: c for e, c in f.terms.items() if e != (0, 0)}
        if all(eq > 0 for (eq, _et) in rest):
            geom.append((rest, m))
        elif all(eq == 0 for (eq, _et) in rest):
            pure.append((f, m))
        else:
            raise ExpansionError(
                f"denominator factor {f.text()} mixes q-free and q-positive terms")

    base_q = rf.num.min_q_exp()
    bound = base_q + 2 * q_order

    # slices: doubled q exponent -> {doubled t exponent: coeff}
    slices = {}
    for (eq, et), c in rf.num.terms.items():
        if eq <= bound:
            slices.setdefault(eq, {})[et] = c

    for rest, mult in geom:
        for _ in range(mult):
            # solve S = N - rest * S slice by slice; rest has positive q exponents
            new = {}
            for qe in range(base_q, bound + 1):
                acc = dict(slices.get(qe, {}))
                for (ueq, uet), uc in rest.items():
                    src = new.get(qe - ueq)
                    if src:
                        for te, c in src.items():
                            v = acc.get(te + uet, 0) - uc * c
                            if v:
                                acc[te + uet] = v
                            elif (te + uet) in acc:
                                del acc[te + uet]
                if acc:
                    new[qe] = acc
            slices = new

    for f, mult in pure:
        divisor = {et: -c for (_eq, et), c in f.terms.items() if (_eq, et) != (0, 0)}
        for _ in range(mult):
            new = {}
            for qe, poly in slices.items():
                new[qe] = _divide_t_poly(poly, divisor, f)
            slices = new

    return canonical_series(slices, 2 * q_order, var)


def _divide_t_poly(poly, divisor, factor):
    """Exact division of a t-Laurent polynomial by (1 - divisor terms)."""
    # poly = quotient * (1 - sum divisor), solve lowest exponent upward; an
    # exact quotient never needs exponents beyond the dividend's top one
    work = dict(poly)
    quot = {}
    steps = sorted(divisor)  # all positive t exponents
    limit = max(poly)
    while work:
        te = min(work)
        if te > limit:
            raise ExpansionError(
                f"coefficient is not polynomial after dividing by {factor.text()}")
        c = work.pop(te)
        quot[te] = c
        for de in steps:
            v = work.get(te + de, 0) + divisor[de] * c
            if v:
                work[te + de] = v
            elif (te + de) in work:
                del work[te + de]
    return quot


class OracleTruncationError(ValueError):
    """The truncated alphabet cannot certify the requested order."""


def schur_tableau_oracle(lam, eta, alphabet, order, letters=None):
    """Brute-force skew Schur series: sum over semistandard tableaux with
    entries in a truncated alphabet, as a series in the alphabet's tail
    variable to the given order.

    Only a verification oracle; independent of the determinant path.
    """
    if not lam.contains(eta):
        return QSeries(Laurent.const(1), {}, 2 * order, alphabet.main_var)
    ncells = lam.size - eta.size
    if ncells == 0:
        return QSeries(Laurent.const(1), {0: {0: 1}}, 2 * order, alphabet.main_var)

    main_q = alphabet.main_var == "q"

    def main_exp(e):
        return e[0] if main_q else e[1]

    # smallest possible single-cell contribution, in doubled units
    probe = [alphabet.letter(i) for i in range(1, len(alphabet.prefix) + 2)]
    min_e = min(main_exp(e) for e in probe)

    # weight of the greedy column-strict filling: an upper bound on the
    # minimal tableau weight, so series orders are counted from there
    prev = {}
    greedy = 0
    for i in range(1, len(lam) + 1):
        left = 1
        nxt = {}
        for j in range(eta.part(i) + 1, lam.part(i) + 1):
            letter = max(left, prev.get(j, 0) + 1)
            greedy += main_exp(alphabet.letter(letter))
            nxt[j] = letter
            left = letter
        prev = nxt
    bound = greedy + 2 * order

    def enough(count):
        nxt_e = main_exp(alphabet.letter(count + 1))
        return nxt_e + (ncells - 1) * min_e > bound

    if letters is None:
        letters = max(len(alphabet.prefix) + 1, 1)
        while not enough(letters):
            letters += 1
    elif not enough(letters):
        raise OracleTruncationError(
            f"{letters} letters cannot certify order {order}; more letters needed")

    letter_exps = [alphabet.letter(i) for i in range(1, letters + 1)]
    nrows = len(lam)
    slices = {}

    def fill(row, prev_row_entries, acc_q, acc_t):
        if row == nrows:
            m, o = (acc_q, acc_t) if main_q else (acc_t, acc_q)
            slices.setdefault(m, {})
            slices[m][o] = slices[m].get(o, 0) + 1
            return
        lo, hi = eta.part(row + 1), lam.part(row + 1)
        width = hi - lo

        def fill_row(col, min_letter, entries, acc_q2, acc_t2):
            if col == width:
                fill(row + 1, entries, acc_q2, acc_t2)
                return
            j = lo + col + 1  # absolute column index
            floor = min_letter
            above = prev_row_entries.get(j)
            if above is not None:
                floor = max(floor, above + 1)
            for letter in range(floor, letters + 1):
                eq, et = letter_exps[letter - 1]
                nq, nt = acc_q2 + eq, acc_t2 + et
                me = nq if main_q else nt
                if me + (ncells_left(row, col) - 1) * min_e > bound:
                    if letter > len(alphabet.prefix):
                        break  # tail letters only grow from here on
                    continue
                fill_row(col + 1, letter, {**entries, j: letter}, nq, nt)

        if width == 0:
            fill(row + 1, {}, acc_q, acc_t)
        else:
            fill_row(0, 1, {}, acc_q, acc_t)

    def ncells_left(row, col):
        done = sum(lam.part(i) - eta.part(i) for i in range(1, row + 1)) + col
        return ncells - done

    fill(0, {}, 0, 0)
    series = canonical_series(slices, 2 * order, alphabet.main_var)
    if alphabet.main_var == "t":
        series = QSeries(series.prefactor.swap_qt(), series.coeffs,
                         series.order, "t")
    return series
