"""Edge framing factors of the gluing: the refined edge weight in either
parameter order, and the one-parameter weight as its value at t = q."""

from functools import cache

from .ring import RationalFunction


@cache
def framing_refined(nu, order=("t", "q")):
    """Refined edge weight (-1)^|nu| (t/q)^{(|nu^t|^2-|nu|)/2} q^{-kappa/2},
    with the two parameters exchanged for order ("q", "t")."""
    e = nu.conjugate().norm_sq - nu.size
    sign = (-1) ** nu.size
    if order == ("t", "q"):
        return RationalFunction.monomial(-e - nu.kappa, e, sign)
    if order == ("q", "t"):
        return RationalFunction.monomial(e, -e - nu.kappa, sign)
    raise ValueError(f"order must be ('t','q') or ('q','t'), got {order!r}")


@cache
def framing_regular(nu):
    """Edge weight (-1)^|nu| q^(-kappa(nu)/2): the refined one at t = q, which
    is the same for both parameter orders."""
    return framing_refined(nu).substitute_t_eq_q()
