"""Open and closed partition functions on the square toric graph (two
compact edges, weights Q_b and Q_f) and on the single-edge comparison
geometry, with the closed-string normalization.

Conventions fixed here and validated against the display fixtures:

* Brane colors are given in drawn-shape form and conjugated on entry, so
  the n-box column color [1]*n evaluates to the length-n-row diagram
  internally.
* The edge factors E1(alpha,gamma,nu1) and E2(nu2) are each edge's sign and
  framing times the trivalent blocks at empty fiber legs.  The leg-general
  vertex is the oracle's (tests/oracles.py); on the fiber legs lam and beta
  its signs, framings and monomials collapse to (q/t)^(|lam|/2) and
  (t/q)^(|beta|/2), so Z(r,s) is the sum over |nu1|+|nu2| = r of
  E1(alpha,gamma,nu1) E2(nu2) F(nu1,nu2,s), where F is
  sum_k w^(2k-s) U_k U_(s-k), w = (q/t)^(1/2), U_k = sum_{lam |- k} s_lam(x)
  s_lam(y), x = t^-rho q^-nu1, y = q^-rho t^-nu2.  By the Cauchy identity
  prod 1/(1 - Q x_i y_j) is its value at empty edges times prod 1/(1 - Q b)
  over the box alphabet B(nu1,nu2), so F(nu1,nu2,s) = sum_a F0_a h_(s-a)(B_w),
  F0 = F(0,0,.), B_w = wB + B/w, and Z(r,s) = sum_a F0_a G(r,s-a) with the
  color-dependent G(r,n) = sum_{|nu1|+|nu2|=r} E1 E2 h_n(B_w), h_n a Laurent
  polynomial.  Sums take the factor-wise LCM and never cancel, so for the
  raw series both groupings carry LCM_nu fac(E1 E2) + LCM_(a<=s) fac(F0_a),
  hence one printed form.  U_k(0,0) stays a Schur sum; hook forms would
  print other factors.
* Z = F0(Q_f) G(Q_b, Q_f) is a Cauchy product in Q_f and F0 is color-free,
  so F0 cancels from the normalized invariant: Z_open / Z_closed =
  G_open / G_closed, with G_closed(0,n) = delta_(n0).  Normalized
  square-graph series are built so and print the quotient's forms; F0 and
  the F0 G sums serve only raw and colorless series, which build every row.
* At Q_f^0 the fiber legs decouple: h_0 = 1, so G(., 0) = A B in Q_b with
  A_a the sum of E1 over |nu1| = a and B_b that of E2 over |nu2| = b.  B
  is color-free and cancels, so the pure-base slice is the one-edge
  quotient A_open / A_closed: the nu1 ensemble's average of
  s_alpha(v) s_gamma(v).  The normalized path divides the slice so, and
  seeds with it the division of the G rows for s >= 1, which reads only
  rows with r < cutoff: no pair of base edges at the cutoff and no open
  row at n = 0 is built.  A_closed and those closed rows are cached, one
  entry per (mode, cutoff).  G_open is never summed: `series_divide`
  takes the open terms, E1 for the slice and E1 E2 h_n for the rows, and
  adds them to the closed products in the one cancelled sum of each
  quotient coefficient.  That sum's LCM is the one the summed row would
  give whenever the row's sum is nonzero, so the printed forms are those
  of dividing the summed rows; a row whose terms cancel to zero would
  bring steps of its own into the LCM.  The slice identity fixes values
  only; its forms match the one division of every G row wherever the
  tests compare them.
* There is one table of refined blocks.  The one-parameter mode is the
  refinement at t = q, taken leaf by leaf before any product: monomials,
  alphabets, hook products and framings are specialized (and cached) one
  at a time, because refined numerators are 10-30x larger than the
  specialized ones and would make specializing after gluing slow.
* The colors enter each geometry in one place, as Schur values.  On the
  square graph both sit at one alphabet, v = q^-rho t^-nu1':
  E1(alpha,gamma,nu1) = E1(0,0,nu1) s_alpha(v) s_gamma(v), so the
  normalized series is <s_alpha(v) s_gamma(v)>, the closed ensemble's
  average, and leads with s_alpha(q^-rho) s_gamma(q^-rho).  The single edge
  carries s_alpha(q^-rho t^-nu') s_gamma(t^-rho q^-nu') (t/q)^|gamma|, so
  its refined series leads with (t/q)^|gamma| s_alpha(q^-rho) s_gamma(t^-rho).
"""

from collections import namedtuple
from functools import cache

from .partitions import EMPTY, Partition, enumerate_up_to, partitions_of
from .ring import KahlerSeries, RationalFunction, checked_make, series_divide
from .specialize import finite_h, macdonald_p_at_rho, macdonald_tilde_z, principal, skew_schur
from .vertex import framing_refined, framing_regular

GEOMETRIES = ("local_p1xp1", "resolved_conifold")


class AmplitudeSpec(namedtuple("AmplitudeSpec", "geometry alpha gamma refined cutoff")):
    """What to compute: geometry, brane colors, refinement, truncation."""

    __slots__ = ()

    def __new__(cls, geometry="local_p1xp1", alpha=EMPTY, gamma=EMPTY, refined=False,
                cutoff=3):
        if geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {geometry!r}")
        if not (isinstance(alpha, Partition) and isinstance(gamma, Partition)):
            raise TypeError("colors must be Partitions")
        if type(refined) is not bool or type(cutoff) is not int:
            raise TypeError("refined must be a bool and cutoff an int")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        return super().__new__(cls, geometry, alpha, gamma, refined, cutoff)

    _make = classmethod(checked_make)


# -- leaves: the refined value, or its value at t = q -----------------------

def _mono(eq, et, refined):
    """q^(eq/2) t^(et/2)."""
    if not refined:
        eq, et = eq + et, 0
    return RationalFunction.monomial(eq, et)


def _schur(lam, main, shift, shift_var, refined):
    """s_lam at main^(-rho) shift_var^(-shift)."""
    if not refined:
        main = shift_var = "q"
    return skew_schur(lam, EMPTY, principal(main, shift, shift_var))


@cache
def _tilde_z(nu, first, refined):
    z = macdonald_tilde_z(nu, first)
    return z if refined else z.substitute_t_eq_q()


@cache
def _p_at_rho(nu, refined):
    p = macdonald_p_at_rho(nu)
    return p if refined else p.substitute_t_eq_q()


def _framing(nu, order, refined):
    """Both parameter orders give framing_regular at t = q."""
    return framing_refined(nu, order) if refined else framing_regular(nu)


# -- edge factors: the trivalent blocks at empty fiber legs -----------------

@cache
def _edge_closed(nu1, refined):
    """E1 at empty colors: the edge's sign and framing, and the first vertices
    on both sides."""
    nu1t = nu1.conjugate()
    return ((-1) ** nu1.size * _framing(nu1, ("t", "q"), refined)
            * _mono(nu1.norm_sq - nu1t.norm_sq, nu1t.norm_sq, refined)
            * _tilde_z(nu1, "t", refined) * _p_at_rho(nu1t, refined))


def _edge_brane(alpha, gamma, nu1, refined):
    """E1: both colors are Schur values at the one alphabet v = q^-rho t^-nu1'."""
    nu1t = nu1.conjugate()
    return (_edge_closed(nu1, refined) * _schur(alpha, "q", nu1t, "t", refined)
            * _schur(gamma, "q", nu1t, "t", refined))


@cache
def _edge_plain(nu2, refined):
    """E2: the edge's sign and framing, and the second vertices on both sides."""
    nu2t = nu2.conjugate()
    return ((-1) ** nu2.size * _framing(nu2, ("q", "t"), refined)
            * _mono(nu2t.norm_sq - nu2.norm_sq, nu2.norm_sq, refined)
            * _tilde_z(nu2t, "t", refined) * _p_at_rho(nu2, refined))


@cache
def _cauchy0(k, refined):
    """U_k at empty base edges, summed term by term."""
    return RationalFunction.sum_of(
        _schur(lam, "t", EMPTY, "q", refined) * _schur(lam, "q", EMPTY, "t", refined)
        for lam in partitions_of(k))


@cache
def _fiber0(s, refined):
    """F0_s: both fiber legs at empty base edges, their sizes adding up to s."""
    return RationalFunction.sum_of(
        _mono(2 * k - s, s - 2 * k, refined) * _cauchy0(k, refined)
        * _cauchy0(s - k, refined) for k in range(s + 1))


def _boxes(nu1, nu2):
    """B(nu1, nu2) in doubled exponents: prod(1 - Q x_i y_j) at the base
    edges nu1, nu2 is its value at empty edges times prod(1 - Q b)."""
    nu1t, nu2t = nu1.conjugate(), nu2.conjugate()
    return ([(-2 * (nu1.part(i) - j) - 1, 2 * (i - nu2.part(j)) - 1) for i, j in nu1.cells()]
            + [(2 * (nu2t.part(j) - i) + 1, 2 * (nu1t.part(i) - j) + 1)
               for i, j in nu2.cells()])


@cache
def _box_h(nu1, nu2, n, refined):
    """h_0..h_n of B_w = wB + B/w, w = (q/t)^(1/2): B twice at t = q."""
    letters = [(eq + d, et - d) for eq, et in _boxes(nu1, nu2) for d in (1, -1)]
    return tuple(finite_h(letters if refined else [(eq + et, 0) for eq, et in letters], n))


def _brane_edges(alpha, gamma, refined, cutoff):
    """E1(alpha, gamma, nu1) of every nu1 with |nu1| <= cutoff."""
    return {nu1: _edge_brane(alpha, gamma, nu1, refined) for nu1 in enumerate_up_to(cutoff)}


def _g_rows(edges, refined, cutoff, top=None, lowest=0):
    """The terms E1 E2 h_n(B_w) of each G(r, n) with r + n <= cutoff, r <= top
    (the cutoff when None) and n >= lowest, as one list per (r, n), with E1
    read from edges, which maps each nu1 to it: G(r, n) is their sum over
    |nu1|+|nu2| = r."""
    if top is None:
        top = cutoff - lowest
    g = {}
    for nu1, e1 in edges.items():
        for nu2 in enumerate_up_to(top - nu1.size):
            r = nu1.size + nu2.size
            edge = e1 * _edge_plain(nu2, refined)
            hs = _box_h(nu1, nu2, cutoff - r, refined)
            for n in range(lowest, cutoff - r + 1):
                g.setdefault((r, n), []).append(edge * hs[n])
    return g


def _slice_terms(edges):
    """The terms E1 of each A_a, the sum over |nu1| = a, at bidegree (a, 0)."""
    terms = {}
    for nu1, e1 in edges.items():
        terms.setdefault((nu1.size, 0), []).append(e1)
    return terms


def _summed(g):
    return {rn: RationalFunction.sum_of(v) for rn, v in g.items()}


@cache
def _closed_rows(refined, cutoff):
    """The closed denominators of the normalized series, built once per
    (mode, cutoff): A_closed, the nu1 sums of E1 at empty colors, for the
    s = 0 slice, and the rows G_closed(r, n) with r < cutoff for the rest."""
    edges = {nu1: _edge_closed(nu1, refined) for nu1 in enumerate_up_to(cutoff)}
    a = _summed(_slice_terms(edges))
    rows = _summed(_g_rows(edges, refined, cutoff, top=cutoff - 1))
    return (KahlerSeries(cutoff, a, set(a)),
            KahlerSeries(cutoff, rows, {(r, n) for r in range(cutoff)
                                        for n in range(cutoff + 1 - r)}))


def _open_local(alpha, gamma, refined, cutoff):
    """Z(r, s) = sum_a F0_a G(r, s - a); the colors sit in G alone."""
    g = _summed(_g_rows(_brane_edges(alpha, gamma, refined, cutoff), refined, cutoff))
    return KahlerSeries(cutoff, {(r, s): RationalFunction.sum_of(
        _fiber0(a, refined) * g[r, s - a] for a in range(s + 1)) for r, s in g})


def _conifold(alpha, gamma, refined, cutoff):
    """Single compact edge, no framing; both colors shifted by the conjugate
    edge partition, which reproduces the cross-geometry comparison claims.
    The term at nu is its color-free edge value times
    s_alpha(q^-rho t^-nu') s_gamma(t^-rho q^-nu') (t/q)^|gamma|."""
    twist = _mono(-2 * gamma.size, 2 * gamma.size, refined)
    terms = {}
    for nu in enumerate_up_to(cutoff):
        nut = nu.conjugate()
        terms.setdefault((nu.size, 0), []).append(
            (-1) ** nu.size * _mono(nu.norm_sq, nut.norm_sq, refined)
            * _tilde_z(nu, "t", refined) * _tilde_z(nut, "q", refined)
            * _schur(alpha, "q", nut, "t", refined) * _schur(gamma, "t", nut, "q", refined)
            * twist)
    determined = {(r, 0) for r in range(cutoff + 1)}
    return KahlerSeries(cutoff, {rs: RationalFunction.sum_of(v) for rs, v in terms.items()},
                        determined)


def open_amplitude(spec):
    """The open partition function for the requested geometry and colors;
    colors are conjugated on entry (drawn-shape convention)."""
    alpha = spec.alpha.conjugate()
    gamma = spec.gamma.conjugate()
    if spec.geometry == "resolved_conifold":
        return _conifold(alpha, gamma, spec.refined, spec.cutoff)
    return _open_local(alpha, gamma, spec.refined, spec.cutoff)


def closed_amplitude(refined, cutoff, geometry="local_p1xp1"):
    """The colorless partition function used as the normalization."""
    spec = AmplitudeSpec(geometry=geometry, refined=refined, cutoff=cutoff)
    return open_amplitude(spec)


def normalize(open_series, closed_series, seed=None):
    """Divide the open amplitude by the closed one, bidegree by bidegree; the
    open side is a KahlerSeries, or the term lists of `series_divide`, and
    seed holds quotient bidegrees already known."""
    return series_divide(open_series, closed_series, seed)


def normalized_amplitude(spec):
    """The normalized invariant: open amplitude over the closed one for the
    same geometry and refinement.  On the square graph F0 cancels, so it is
    G_open / G_closed, the closed ensemble's average of s_alpha(v)
    s_gamma(v).  At Q_f^0 the nu2 sums cancel too, so the pure-base slice
    is A_open / A_closed, the nu1 ensemble's average of s_alpha(v)
    s_gamma(v); the division of the G rows, seeded with it, makes the rest
    from the rows below the cutoff (see the module docstring)."""
    if spec.geometry == "resolved_conifold":
        return normalize(open_amplitude(spec),
                         closed_amplitude(spec.refined, spec.cutoff, spec.geometry))
    alpha, gamma = spec.alpha.conjugate(), spec.gamma.conjugate()
    refined, cutoff = spec.refined, spec.cutoff
    edges = _brane_edges(alpha, gamma, refined, cutoff)
    a_closed, g_closed = _closed_rows(refined, cutoff)
    zhat = series_divide(_slice_terms(edges), a_closed)
    if not cutoff:
        return zhat
    return normalize(_g_rows(edges, refined, cutoff, lowest=1), g_closed, zhat)
