"""Open and closed partition functions on the square toric graph (two
compact edges, weights Q_b and Q_f) and on the single-edge comparison
geometry, with the closed-string normalization.

Conventions fixed here and validated against the display fixtures:

* Brane colors are given in drawn-shape form and conjugated on entry, so
  the n-box column color [1]*n evaluates to the length-n-row diagram
  internally.
* Each trivalent building block enters as the displayed product (the
  coupled inner sum collapsed to its leading term).
* There is one table of refined blocks.  The one-parameter mode is the
  refinement at t = q, taken leaf by leaf before any product: monomials,
  alphabets, hook products and framings are specialized (and cached) one
  at a time, because refined numerators are 10-30x larger than the
  specialized ones and would make specializing after gluing slow.
* Every amplitude is normalized by the overall color monomial so that the
  degree-(0,0) coefficient is the product of the principal Schur values of
  the two colors.  Relative monomial bookkeeping between bidegrees is
  exact, never gauge.
"""

from dataclasses import dataclass
from functools import cache

from .partitions import EMPTY, Partition, enumerate_up_to
from .ring import KahlerSeries, RationalFunction, series_divide
from .specialize import macdonald_p_at_rho, macdonald_tilde_z, principal, skew_schur
from .vertex import framing_refined, framing_regular

GEOMETRIES = ("local_p1xp1", "resolved_conifold")


@dataclass(frozen=True)
class AmplitudeSpec:
    """What to compute: geometry, brane colors, refinement, truncation."""

    geometry: str = "local_p1xp1"
    alpha: Partition = EMPTY
    gamma: Partition = EMPTY
    refined: bool = False
    cutoff: int = 3

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")


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
    p = macdonald_p_at_rho(nu, swap=True)
    return p if refined else p.substitute_t_eq_q()


def _framing(nu, order, refined):
    """Both parameter orders give framing_regular at t = q."""
    return framing_refined(nu, order) if refined else framing_regular(nu)


# -- trivalent building blocks (displayed products) -------------------------

@cache
def _c_brane(lam, alpha, nu1, refined):
    """First vertex on the alpha side: internal fiber leg lam, color alpha."""
    e = alpha.norm_sq + nu1.norm_sq + lam.size - alpha.size
    return (_mono(e, -e + alpha.kappa + nu1.norm_sq, refined)
            * _tilde_z(nu1, "t", refined)
            * _schur(lam, "t", nu1, "q", refined)
            * _schur(alpha, "q", nu1.conjugate(), "t", refined))


@cache
def _c_plain(lam, nu2, refined):
    nu2t = nu2.conjugate()
    e = lam.norm_sq + nu2t.norm_sq - lam.size
    return (_mono(e, -e + lam.kappa + nu2t.norm_sq, refined)
            * _tilde_z(nu2t, "t", refined)
            * _schur(lam, "q", nu2, "t", refined))


@cache
def _c_brane_g(gamma, beta, nu1, refined):
    """First vertex on the gamma side; the color sits at the conjugate shift."""
    nu1t = nu1.conjugate()
    e = beta.norm_sq + nu1t.norm_sq + gamma.size - beta.size
    return (_mono(-e + beta.kappa, e, refined)
            * _p_at_rho(nu1t, refined)
            * _schur(gamma, "q", nu1t, "t", refined)
            * _schur(beta, "t", nu1, "q", refined))


@cache
def _c_plain_g(beta, nu2, refined):
    e = nu2.norm_sq + beta.size
    return (_mono(-e, e, refined) * _p_at_rho(nu2, refined)
            * _schur(beta, "q", nu2, "t", refined))


def _color_monomial(alpha, gamma, refined):
    """Overall monomial the assembly attaches to the colors; divided out so
    the leading coefficient is s_alpha(q^-rho) s_gamma(q^-rho)."""
    e = alpha.norm_sq - alpha.size
    return _mono(e - gamma.size, -e + alpha.kappa + gamma.size, refined)


def _open_local(alpha, gamma, refined, cutoff):
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
                tA = (_c_brane(lam, alpha, nu1, refined)
                      * _framing(lam, ("t", "q"), refined)
                      * _c_plain(lam, nu2, refined))
                aside.setdefault(lam.size, []).append(tA * (-1) ** lam.size)
            for beta in parts:
                if beta.size + r > cutoff:
                    continue
                tG = (_c_brane_g(gamma, beta, nu1, refined)
                      * _framing(beta, ("q", "t"), refined)
                      * _c_plain_g(beta, nu2, refined))
                gside.setdefault(beta.size, []).append(tG * (-1) ** beta.size)
            asums = {s: RationalFunction.sum_of(v) for s, v in aside.items()}
            gsums = {s: RationalFunction.sum_of(v) for s, v in gside.items()}
            for s1, av in asums.items():
                for s2, gv in gsums.items():
                    if r + s1 + s2 > cutoff:
                        continue
                    terms.setdefault((r, s1 + s2), []).append(base * av * gv)
    strip = RationalFunction.one() / _color_monomial(alpha, gamma, refined)
    return KahlerSeries(cutoff, {rs: RationalFunction.sum_of(v) * strip
                                 for rs, v in terms.items()})


def _conifold(alpha, gamma, refined, cutoff):
    """Single compact edge, no framing; both colors shifted by the conjugate
    edge partition, which reproduces the cross-geometry comparison claims.
    The alpha side is the square graph's first block with no fiber leg."""
    terms = {}
    for nu in enumerate_up_to(cutoff):
        nut = nu.conjugate()
        eG = gamma.norm_sq + nut.norm_sq + gamma.size
        g_side = (_mono(-eG + gamma.kappa + nut.norm_sq, eG, refined)
                  * _tilde_z(nut, "q", refined)
                  * _schur(gamma, "t", nut, "q", refined))
        terms.setdefault((nu.size, 0), []).append(
            (-1) ** nu.size * _c_brane(EMPTY, alpha, nu, refined) * g_side)
    eA = alpha.norm_sq - alpha.size
    eG = gamma.norm_sq - gamma.size
    strip = RationalFunction.one() / _mono(eA - eG + gamma.kappa,
                                           -eA + alpha.kappa + eG, refined)
    determined = {(r, 0) for r in range(cutoff + 1)}
    return KahlerSeries(cutoff, {rs: RationalFunction.sum_of(v) * strip
                                 for rs, v in terms.items()}, determined)


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


def normalize(open_series, closed_series):
    """Divide the open amplitude by the closed one, bidegree by bidegree."""
    return series_divide(open_series, closed_series)


def normalized_amplitude(spec):
    """The normalized invariant: open amplitude over the closed one for the
    same geometry and refinement."""
    return normalize(open_amplitude(spec),
                     closed_amplitude(spec.refined, spec.cutoff, spec.geometry))
