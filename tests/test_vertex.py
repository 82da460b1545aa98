"""The trivalent vertex and the edge framings, in both modes.

The gluing builds its edge factors E1 and E2 from the vertex blocks at
empty fiber legs; the leg-general vertex, the four displayed-product blocks
at any fiber leg, is the oracle's, and E1 and E2 are checked against it,
E1 after dividing out the monomial that the blocks attach to its colors.

The one-parameter blocks are written out below as the reference the refined
blocks must reduce to at t = q, block by block; regular mode computes them
as that reduction, taken before any product.  On a fiber leg the blocks, the
leg's framing and its sign collapse to the blocks at the empty leg times
one term of a Cauchy sum, which is what lets the gluing sum the fiber legs
once for every color."""

import pytest

from oracles import c_brane, c_brane_g, c_plain, c_plain_g, color_monomial, framing_leaf
from rp3vertex.amplitude import _edge_brane, _edge_plain
from rp3vertex.analysis import CONJECTURE_COLORS
from rp3vertex.partitions import EMPTY, Partition, enumerate_up_to, parse_partition
from rp3vertex.ring import RF_ONE, RationalFunction
from rp3vertex.specialize import principal, skew_schur
from rp3vertex.vertex import framing_refined, framing_regular

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)

BOX = Partition([1])


def _s(lam, shift=EMPTY):
    return skew_schur(lam, EMPTY, principal("q", shift))


def _qk(kappa):
    return RationalFunction.monomial(kappa, 0)


def _brane_regular(lam, alpha, nu1):
    nu1t = nu1.conjugate()
    return _qk(alpha.kappa) * _s(nu1t) * _s(lam, nu1) * _s(alpha, nu1t)


def _plain_regular(lam, nu2):
    return _qk(lam.kappa) * _s(nu2) * _s(lam, nu2)


def _brane_g_regular(gamma, beta, nu1):
    nu1t = nu1.conjugate()
    return _qk(beta.kappa) * _s(nu1) * _s(gamma, nu1t) * _s(beta, nu1)


def _plain_g_regular(beta, nu2):
    return _s(nu2.conjugate()) * _s(beta, nu2)


BLOCKS = [(c_brane, _brane_regular, 3), (c_plain, _plain_regular, 2),
          (c_brane_g, _brane_g_regular, 3), (c_plain_g, _plain_g_regular, 2)]


def _arguments(arity, total):
    """Every arity-tuple of partitions with sizes adding up to <= total."""
    out = [()]
    for _ in range(arity):
        out = [args + (p,) for args in out
               for p in enumerate_up_to(total - sum(a.size for a in args))]
    return out


def test_trivial_vertices():
    for block, _regular, arity in BLOCKS:
        for refined in (False, True):
            assert block(*(EMPTY,) * arity, refined).is_one(), (block, refined)


def test_vertex_regular_third_leg_only():
    # the brane block with both colors empty is the one-leg vertex
    assert c_brane(EMPTY, EMPTY, BOX, False) == qh / (1 - q)
    for nu in enumerate_up_to(6):
        want = skew_schur(nu.conjugate(), EMPTY, principal("q"))
        assert c_brane(EMPTY, EMPTY, nu, False) == want, nu


def test_vertex_regular_single_box_symmetry():
    assert c_plain(BOX, EMPTY, False) == c_brane(EMPTY, BOX, EMPTY, False)


def test_framing_regular_examples():
    assert framing_regular(EMPTY).is_one()
    assert framing_regular(BOX) == -RF_ONE
    assert framing_regular(Partition([2])) == 1 / q


def _edge_pair(nu1, nu2):
    # the two glued-edge refined framings, one in each parameter order
    return framing_refined(nu1, ("t", "q")) * framing_refined(nu2, ("q", "t"))


def test_framing_refined_pair_examples():
    assert _edge_pair(EMPTY, EMPTY).is_one()
    assert _edge_pair(BOX, EMPTY) == -RF_ONE


def test_framing_refined_pair_reduces():
    for nu1 in enumerate_up_to(4):
        for nu2 in enumerate_up_to(4 - nu1.size):
            left = _edge_pair(nu1, nu2).substitute_t_eq_q()
            right = framing_regular(nu1) * framing_regular(nu2)
            assert left == right, (nu1, nu2)


def test_framing_refined_order_contract():
    with pytest.raises(ValueError):
        framing_refined(BOX, ("t", "t"))


def test_vertex_refined_third_leg_value():
    assert c_brane(EMPTY, EMPTY, BOX, True) == qh / (1 - t)


def test_vertex_refined_swapped_order():
    # the gamma-side brane block carries the parameters exchanged
    assert c_brane_g(EMPTY, EMPTY, BOX, True) == th / (1 - q)


def test_vertex_refined_reduces_to_regular():
    for block, regular, arity in BLOCKS:
        for args in _arguments(arity, 3):
            want = regular(*args)
            assert block(*args, True).substitute_t_eq_q() == want, (block, args)
            assert block(*args, False) == want, (block, args)


def _leg(lam, nu1, nu2, refined):
    """(s_lam(t^-rho q^-nu1) s_lam(q^-rho t^-nu2), framing in each order, and
    (q/t)^(|lam|/2)); at t = q both alphabets and both framings agree."""
    if refined:
        x, y = principal("t", nu1, "q"), principal("q", nu2, "t")
        frame = (framing_refined(lam, ("t", "q")), framing_refined(lam, ("q", "t")))
        weight = RationalFunction.monomial(lam.size, -lam.size)
    else:
        x, y = principal("q", nu1), principal("q", nu2)
        frame = (framing_regular(lam),) * 2
        weight = RF_ONE
    return skew_schur(lam, EMPTY, x) * skew_schur(lam, EMPTY, y), frame, weight


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_fiber_leg_collapses_to_a_cauchy_term(refined):
    for lam in enumerate_up_to(3):
        for nu1 in enumerate_up_to(3):
            for nu2 in enumerate_up_to(3):
                schurs, (frame_a, frame_g), weight = _leg(lam, nu1, nu2, refined)
                sign = (-1) ** lam.size
                for color in (EMPTY, Partition([2, 1])):
                    got = (sign * c_brane(lam, color, nu1, refined) * frame_a
                           * c_plain(lam, nu2, refined))
                    want = (c_brane(EMPTY, color, nu1, refined)
                            * c_plain(EMPTY, nu2, refined) * weight * schurs)
                    assert got == want, ("lambda", lam, nu1, nu2, color)
                    got = (sign * c_brane_g(color, lam, nu1, refined) * frame_g
                           * c_plain_g(lam, nu2, refined))
                    want = (c_brane_g(color, EMPTY, nu1, refined)
                            * c_plain_g(EMPTY, nu2, refined) / weight * schurs)
                    assert got == want, ("beta", lam, nu1, nu2, color)


def test_vertex_values_nonvanishing():
    for block, _regular, arity in BLOCKS:
        for args in _arguments(arity, 4):
            for refined in (False, True):
                assert not block(*args, refined).is_zero(), (block, args, refined)


@pytest.mark.parametrize("refined", [False, True], ids=["regular", "refined"])
def test_edges_are_the_general_blocks_at_empty_legs(refined):
    # term for term and factor for factor, not only as values
    colors = [(parse_partition(a).conjugate(), parse_partition(g).conjugate())
              for a, g in CONJECTURE_COLORS]
    for nu in enumerate_up_to(4 if refined else 5):
        sign = (-1) ** nu.size
        want = (sign * framing_leaf(nu, ("q", "t"), refined)
                * c_plain(EMPTY, nu, refined) * c_plain_g(EMPTY, nu, refined))
        got = _edge_plain(nu, refined)
        assert (got.num.terms, got.factors) == (want.num.terms, want.factors), nu
        for alpha, gamma in colors:
            # the blocks carry the color monomial, the edge factor does not
            want = (sign * framing_leaf(nu, ("t", "q"), refined)
                    * c_brane(EMPTY, alpha, nu, refined)
                    * c_brane_g(gamma, EMPTY, nu, refined)
                    / color_monomial(alpha, gamma, refined))
            got = _edge_brane(alpha, gamma, nu, refined)
            assert (got.num.terms, got.factors) == (want.num.terms, want.factors), \
                (alpha, gamma, nu)
