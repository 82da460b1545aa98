"""Reference implementations the tests check the program against.

Each one is independent of the code path it checks: a brute-force tableau
sum for the Jacobi-Trudi skew Schur values, Euler's recurrence for the
partition enumerator, a series product for the series division, and cell
statistics recounted from arms and legs.  The series division's former
form, which stores every quotient coefficient uncancelled, is kept as the
reference for the cancelling one, and the q-expansion's former form, which
inverts each denominator factor slice by slice and divides pure-t factors
by long division, as the reference for the one on the 1 - m kernel.  The
square graph's gluing sum in its former form, which sums the fiber legs
color by color from the blocks at every internal leg, is the reference
for the factored one, and its former fiber sum, which sums both fiber
legs from the Schur values at every pair of base edges, the reference for
the closed fiber kernel.  The running sums along the chains e + k m
(`divide_one_minus`), which once divided every value exactly by a step
1 - m, are the reference for the packed exact division, and the split of
a divisor polynomial into its steps one least term at a time on them
(`chain_steps`) the reference for the split by multiplicities.  The gluing sum
builds its blocks from the leg-general vertex below, a fiber leg at every
block, which the program keeps only at empty legs; those blocks attach a
color monomial (`color_monomial`) that the reference divides out, where the
program's edge factor carries each color as a bare Schur value.
Rational-function equality in its former form, cross multiplication after
cancelling shared factors, is the reference for the zero test of the
difference, and the product in its former form, `_make` over the merged
steps, the reference for the one that keeps an operand's factor tuple.
The normalized square-graph series in its former form, one division of
every G row, the pure-base slice and the pairs of base edges at the
cutoff included, is the reference for the one that divides the slice as
A_open / A_closed over the nu1 ensemble and seeds the rest with it.
"""

from functools import cache

from rp3vertex.amplitude import (_brane_edges, _framing, _g_rows, _mono, _p_at_rho, _schur,
                                 _summed, _tilde_z)
from rp3vertex.partitions import EMPTY, Partition, enumerate_up_to, partitions_of
from rp3vertex.ring import (L_ONE, RF_ONE, ExpansionError, KahlerSeries, Laurent,
                            QSeries, RationalFunction, _splits, canonical_series,
                            series_divide)


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


def reference_rf_equal(a, b):
    """Cross-multiplied equality of two rational functions: the steps 1 - m
    the two denominators share are cancelled, and each numerator is
    multiplied by the step powers only the other denominator has."""
    a, b = RationalFunction.of(a), RationalFunction.of(b)
    if a.num.is_zero():
        return b.num.is_zero()
    if b.num.is_zero():
        return False
    fa, fb = dict(a.factors), dict(b.factors)
    for m in set(fa) & set(fb):
        k = min(fa[m], fb[m])
        fa[m] -= k
        fb[m] -= k
    left = a.num
    for m, k in fb.items():
        if k:
            left = left * one_minus(m) ** k
    right = b.num
    for m, k in fa.items():
        if k:
            right = right * one_minus(m) ** k
    return left == right


def reference_product(a, b):
    """a * b for a rational function a and a rational function, Laurent
    polynomial or number b: the numerators multiplied, over the steps of
    both merged into one bag and sorted by `_make`, which drops a zero
    numerator's steps."""
    a, b = RationalFunction.of(a), RationalFunction.of(b)
    bag = {}
    for m, k in a.factors + b.factors:
        bag[m] = bag.get(m, 0) + k
    return RationalFunction._make(a.num * b.num, bag)


def one_minus(m):
    """The step 1 - m as a Laurent polynomial."""
    return Laurent({(0, 0): 1, m: -1})


def divide_one_minus(terms, m):
    """terms / (1 - m) as a Laurent, or None when 1 - m does not divide.

    The terms lie on chains e + k*m; writing N = (1 - m) Q along one chain
    gives n_k = q_k - q_(k-1), so Q is the running sum along each chain from
    its first position on, gaps included.  1 - m divides exactly when every
    chain's coefficients sum to zero, and Q stops one before the chain's
    last position."""
    a, b = m
    chains = {}
    for e, c in terms.items():
        k = e[0] // a if a else e[1] // b
        chains.setdefault((e[0] - k * a, e[1] - k * b), {})[k] = c
    out = {}
    for (x0, y0), chain in chains.items():
        if sum(chain.values()):
            return None
        run = 0
        for k in range(min(chain), max(chain)):
            run += chain.get(k, 0)
            if run:
                out[(x0 + k * a, y0 + k * b)] = run
    return Laurent(out)


def chain_steps(f):
    """The m of each step 1 - m whose product is the normalized polynomial
    f, each as often as it divides, or None when f is no such product: f
    divided one step at a time, by 1 - m for the least non-constant term m
    of the last quotient."""
    steps = []
    while len(f.terms) > 1:
        m = min(e for e in f.terms if e != (0, 0))
        f = divide_one_minus(f.terms, m)
        if f is None:
            return None
        steps.append(m)
    return steps if f.terms == {(0, 0): 1} else None


def chain_cancelled(num, factors):
    """num divided by each step 1 - m of factors, (m, k) pairs in order, as
    often as `divide_one_minus` divides it exactly, up to k: the reference
    for the packed division.  Returns the quotient and the k left of each
    m."""
    left = {}
    for m, k in factors:
        while k:
            quo = divide_one_minus(num.terms, m)
            if quo is None:
                break
            num, k = quo, k - 1
        left[m] = k
    return num, left


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


def reference_expand(rf, q_order):
    """Series expansion of a rational function in q to the given order
    (plain, undoubled power of q).

    Denominator factors that are pure in t must divide the series
    coefficientwise; factors positive in q are inverted geometrically.
    Raises ExpansionError when a factor is negative in q or a pure factor
    does not divide exactly.
    """
    rf = RationalFunction.of(rf)
    if rf.is_zero():
        return QSeries(L_ONE, {}, 2 * q_order)

    geom = []   # factors with every non-constant term strictly positive in q
    pure = []   # factors in t alone
    for step, m in rf.factors:
        f = one_minus(step)
        rest = {e: c for e, c in f.terms.items() if e != (0, 0)}
        if all(eq > 0 for (eq, _et) in rest):
            geom.append((rest, m))
        elif all(eq == 0 for (eq, _et) in rest):
            pure.append((f, m))
        else:
            raise ExpansionError(
                f"denominator factor {f.text()} is negative in q")

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

    return canonical_series(slices, 2 * q_order)


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


def main_var(alphabet):
    """The variable of the alphabet's geometric tail."""
    return "q" if alphabet.tail_ratio[0] else "t"


def alphabet_letter(alphabet, i):
    """Doubled exponent pair of the alphabet's 1-based i-th letter."""
    if i <= len(alphabet.prefix):
        return alphabet.prefix[i - 1]
    k = i - 1 - len(alphabet.prefix)
    sq, st = alphabet.tail_start
    rq, rt = alphabet.tail_ratio
    return (sq + k * rq, st + k * rt)


class OracleTruncationError(ValueError):
    """The truncated alphabet cannot certify the requested order."""


def schur_tableau_oracle(lam, eta, alphabet, order, letters=None):
    """Brute-force skew Schur series: sum over semistandard tableaux with
    entries in a truncated alphabet, as a series in the alphabet's tail
    variable to the given order.  A series in t is given as the q-series of
    the value with q and t swapped, as `expand` gives it for the swapped
    value.

    Only a verification oracle; independent of the determinant path.
    """
    if not lam.contains(eta):
        return QSeries(Laurent.const(1), {}, 2 * order)
    ncells = lam.size - eta.size
    if ncells == 0:
        return QSeries(Laurent.const(1), {0: {0: 1}}, 2 * order)

    main_q = main_var(alphabet) == "q"

    def main_exp(e):
        return e[0] if main_q else e[1]

    # smallest possible single-cell contribution, in doubled units
    probe = [alphabet_letter(alphabet, i) for i in range(1, len(alphabet.prefix) + 2)]
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
            greedy += main_exp(alphabet_letter(alphabet, letter))
            nxt[j] = letter
            left = letter
        prev = nxt
    bound = greedy + 2 * order

    def enough(count):
        nxt_e = main_exp(alphabet_letter(alphabet, count + 1))
        return nxt_e + (ncells - 1) * min_e > bound

    if letters is None:
        letters = max(len(alphabet.prefix) + 1, 1)
        while not enough(letters):
            letters += 1
    elif not enough(letters):
        raise OracleTruncationError(
            f"{letters} letters cannot certify order {order}; more letters needed")

    letter_exps = [alphabet_letter(alphabet, i) for i in range(1, letters + 1)]
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
    return canonical_series(slices, 2 * order)


# -- the leg-general vertex: displayed-product blocks at any fiber leg -------

@cache
def c_brane(lam, alpha, nu1, refined):
    """First vertex on the alpha side: internal fiber leg lam, color alpha."""
    e = alpha.norm_sq + nu1.norm_sq + lam.size - alpha.size
    return (_mono(e, -e + alpha.kappa + nu1.norm_sq, refined)
            * _tilde_z(nu1, "t", refined)
            * _schur(lam, "t", nu1, "q", refined)
            * _schur(alpha, "q", nu1.conjugate(), "t", refined))


@cache
def c_plain(lam, nu2, refined):
    nu2t = nu2.conjugate()
    e = lam.norm_sq + nu2t.norm_sq - lam.size
    return (_mono(e, -e + lam.kappa + nu2t.norm_sq, refined)
            * _tilde_z(nu2t, "t", refined)
            * _schur(lam, "q", nu2, "t", refined))


@cache
def c_brane_g(gamma, beta, nu1, refined):
    """First vertex on the gamma side; the color sits at the conjugate shift."""
    nu1t = nu1.conjugate()
    e = beta.norm_sq + nu1t.norm_sq + gamma.size - beta.size
    return (_mono(-e + beta.kappa, e, refined)
            * _p_at_rho(nu1t, refined)
            * _schur(gamma, "q", nu1t, "t", refined)
            * _schur(beta, "t", nu1, "q", refined))


@cache
def c_plain_g(beta, nu2, refined):
    e = nu2.norm_sq + beta.size
    return (_mono(-e, e, refined) * _p_at_rho(nu2, refined)
            * _schur(beta, "q", nu2, "t", refined))


def color_monomial(alpha, gamma, refined):
    """The monomial the leg-general blocks attach to the colors at every
    edge partition; the program never builds it, since its edge factor puts
    each color in as a bare Schur value."""
    e = alpha.norm_sq - alpha.size
    return _mono(e - gamma.size, -e + alpha.kappa + gamma.size, refined)


def reference_open_local(alpha, gamma, refined, cutoff):
    """The square graph's open amplitude for internal (conjugated) colors,
    summed over nu1, nu2 and every fiber leg lam, beta from the blocks."""
    parts = enumerate_up_to(cutoff)
    terms = {}
    for nu1 in parts:
        for nu2 in parts:
            r = nu1.size + nu2.size
            if r > cutoff:
                continue
            base = ((-1) ** r * _framing(nu1, ("t", "q"), refined)
                    * _framing(nu2, ("q", "t"), refined))
            aside, gside = {}, {}
            for lam in parts:
                if lam.size + r > cutoff:
                    continue
                tA = (c_brane(lam, alpha, nu1, refined)
                      * _framing(lam, ("t", "q"), refined)
                      * c_plain(lam, nu2, refined))
                aside.setdefault(lam.size, []).append(tA * (-1) ** lam.size)
            for beta in parts:
                if beta.size + r > cutoff:
                    continue
                tG = (c_brane_g(gamma, beta, nu1, refined)
                      * _framing(beta, ("q", "t"), refined)
                      * c_plain_g(beta, nu2, refined))
                gside.setdefault(beta.size, []).append(tG * (-1) ** beta.size)
            asums = {s: RationalFunction.sum_of(v) for s, v in aside.items()}
            gsums = {s: RationalFunction.sum_of(v) for s, v in gside.items()}
            for s1, av in asums.items():
                for s2, gv in gsums.items():
                    if r + s1 + s2 > cutoff:
                        continue
                    terms.setdefault((r, s1 + s2), []).append(base * av * gv)
    strip = RF_ONE / color_monomial(alpha, gamma, refined)
    return KahlerSeries(cutoff, {rs: RationalFunction.sum_of(v) * strip
                                 for rs, v in terms.items()})


@cache
def reference_cauchy(nu1, nu2, k, refined):
    """U_k = sum over lam |- k of s_lam(t^-rho q^-nu1) s_lam(q^-rho t^-nu2),
    summed term by term."""
    return RationalFunction.sum_of(
        _schur(lam, "t", nu1, "q", refined) * _schur(lam, "q", nu2, "t", refined)
        for lam in partitions_of(k))


def reference_fiber(nu1, nu2, s, refined):
    """F(nu1, nu2, s) = sum_k (q/t)^((2k-s)/2) U_k U_(s-k): both fiber legs
    at the base edges nu1, nu2, their sizes adding up to s."""
    return RationalFunction.sum_of(
        _mono(2 * k - s, s - 2 * k, refined) * reference_cauchy(nu1, nu2, k, refined)
        * reference_cauchy(nu1, nu2, s - k, refined) for k in range(s + 1))


def full_g_rows(alpha, gamma, refined, cutoff):
    """The open terms E1 E2 h_n of every G(r, n), r + n <= cutoff, for
    internal (conjugated) colors, and the closed rows summed into a series:
    every row, the s = 0 slice and the top pairs included."""
    closed = _summed(_g_rows(_brane_edges(EMPTY, EMPTY, refined, cutoff), refined, cutoff))
    return (_g_rows(_brane_edges(alpha, gamma, refined, cutoff), refined, cutoff),
            KahlerSeries(cutoff, closed))


def reference_normalized(spec):
    """The normalized square-graph series as one division of the open G
    rows' terms by the closed rows, slice and all."""
    return series_divide(*full_g_rows(spec.alpha.conjugate(), spec.gamma.conjugate(),
                                      spec.refined, spec.cutoff))
