import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (OracleTruncationError, alphabet_letter, cell_stats, main_var,
                     reference_complete_homogeneous, residual_equal, schur_tableau_oracle,
                     subpartitions_within)
from rp3vertex.partitions import EMPTY, Partition, enumerate_up_to
from rp3vertex.ring import RF_ONE, RF_ZERO, Laurent, RationalFunction, expand
from rp3vertex.specialize import (Alphabet, complete_homogeneous,
                                  macdonald_p_at_rho, macdonald_tilde_z,
                                  principal, skew_schur)

q = RationalFunction.monomial(2, 0)
t = RationalFunction.monomial(0, 2)
qh = RationalFunction.monomial(1, 0)
th = RationalFunction.monomial(0, 1)
one = RF_ONE

RHO_Q = principal("q")

ORACLE_ALPHABETS = [
    RHO_Q,
    principal("q", Partition([1])),
    principal("t", Partition([2, 1]), "q"),
]


def test_alphabet_contract():
    with pytest.raises(ValueError):
        Alphabet((), (1, 0), (2, 2))
    with pytest.raises(ValueError):
        Alphabet((), (1, 0), (-2, 0))
    a = principal("q", Partition([2, 1]))
    assert alphabet_letter(a, 1) == (-3, 0)     # q^(1/2 - 2)
    assert alphabet_letter(a, 2) == (1, 0)      # q^(3/2 - 1)
    assert alphabet_letter(a, 3) == (5, 0)      # tail start q^(5/2)
    assert alphabet_letter(a, 4) == (7, 0)
    b = principal("t", Partition([1]), "q")
    assert alphabet_letter(b, 1) == (-2, 1)     # t^(1/2) q^(-1)
    assert alphabet_letter(b, 2) == (0, 3)
    assert (main_var(a), main_var(b)) == ("q", "t")
    for name in ("prefix", "tail_ratio", "size"):
        with pytest.raises(AttributeError):
            setattr(b, name, ())


def test_principal_variable_pairs():
    # one formula over the unit exponent vectors q -> (1, 0), t -> (0, 1)
    nu = Partition([2, 1])
    want = {
        ("q", "q"): (((-3, 0), (1, 0)), (5, 0), (2, 0)),
        ("q", "t"): (((1, -4), (3, -2)), (5, 0), (2, 0)),
        ("t", "q"): (((-4, 1), (-2, 3)), (0, 5), (0, 2)),
        ("t", "t"): (((0, -3), (0, 1)), (0, 5), (0, 2)),
    }
    for (main, shift_var), alphabet in want.items():
        assert tuple(principal(main, nu, shift_var)) == alphabet, (main, shift_var)
    for main in ("q", "t"):
        assert principal(main, nu) == principal(main, nu, main)
        assert principal(main) == principal(main, EMPTY, main)
    for main, shift_var in (("x", None), ("q", "x"), ("t", ""), ("", "q")):
        with pytest.raises(ValueError):
            principal(main, nu, shift_var)


def test_skew_cache_key_is_the_value():
    nu, lam = Partition([2, 1]), Partition([2, 1])
    a, b = principal("t", nu, "q"), principal("t", nu, "q")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    got = skew_schur(lam, EMPTY, a)
    assert skew_schur(lam, EMPTY, b) is got
    assert skew_schur(Partition([2, 1, 0]), EMPTY, b) is got


def test_complete_homogeneous_examples():
    assert complete_homogeneous(0, RHO_Q).is_one()
    assert complete_homogeneous(-2, RHO_Q).is_zero()
    assert complete_homogeneous(1, RHO_Q) == qh / (1 - q)
    assert complete_homogeneous(2, RHO_Q) == q / ((1 - q) * (1 - q ** 2))


def _direct_h(k, alphabet, letters):
    """Truncated direct monomial sum over weakly increasing index tuples."""
    counts = {}

    def rec(start, depth, eq, et):
        if depth == k:
            counts[(eq, et)] = counts.get((eq, et), 0) + 1
            return
        for i in range(start, letters + 1):
            leq, let = alphabet_letter(alphabet, i)
            rec(i, depth + 1, eq + leq, et + let)

    rec(1, 0, 0, 0)
    return Laurent(counts)


def test_h_closed_form_against_direct_sum():
    # enough letters that omissions sit beyond the compared window
    for k in range(1, 7):
        closed = expand(complete_homogeneous(k, RHO_Q), 8)
        direct = _direct_h(k, RHO_Q, 24)
        truncated = expand(RationalFunction(direct), 8)
        for qe in range(0, 2 * 8 + 1 - 2):
            pe = closed.prefactor.min_term()[0][0]
            de = truncated.prefactor.min_term()[0][0]
            assert pe == de
            assert closed.coeffs.get(qe, {}) == truncated.coeffs.get(qe, {})


EXPONENTS = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
TAIL_ALPHABETS = st.builds(
    Alphabet, st.lists(EXPONENTS, max_size=6), EXPONENTS,
    st.integers(1, 4).flatmap(lambda r: st.sampled_from([(r, 0), (0, r)])))


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 6), TAIL_ALPHABETS)
def test_h_recurrence_is_the_lcm_sum(k, alphabet):
    # term for term and factor for factor, not only as values
    got = complete_homogeneous(k, alphabet)
    want = reference_complete_homogeneous(k, alphabet)
    assert (got.num.terms, got.factors) == (want.num.terms, want.factors)


def test_skew_schur_examples():
    assert skew_schur(EMPTY, EMPTY, RHO_Q).is_one()
    assert skew_schur(Partition([1]), EMPTY, RHO_Q) == qh / (1 - q)
    # the two-box column color evaluates through its row-convention conjugate
    assert skew_schur(Partition([2]), EMPTY, RHO_Q) == q / ((1 - q) * (1 - q ** 2))
    assert skew_schur(Partition([1, 1]), EMPTY, RHO_Q) == q ** 2 / ((1 - q) * (1 - q ** 2))


def test_skew_schur_containment_conventions():
    lam, eta = Partition([2, 1]), Partition([3])
    assert skew_schur(lam, eta, RHO_Q).is_zero()
    assert skew_schur(lam, lam, RHO_Q).is_one()


def test_oracle_matches_determinant_small():
    lam, eta = Partition([2, 1]), EMPTY
    det = expand(skew_schur(lam, eta, RHO_Q), 8)
    orc = schur_tableau_oracle(lam, eta, RHO_Q, 8)
    assert det.prefactor == orc.prefactor
    assert residual_equal(det, orc)


def test_oracle_truncation_error():
    with pytest.raises(OracleTruncationError):
        schur_tableau_oracle(Partition([2, 1]), EMPTY, RHO_Q, 8, letters=2)


def test_oracle_equivalence_sweep():
    # every shape up to five cells, every contained eta, three alphabets
    shapes = [lam for lam in enumerate_up_to(5)]
    checked = 0
    for alphabet in ORACLE_ALPHABETS:
        for lam in shapes:
            for eta in subpartitions_within(lam):
                value = skew_schur(lam, eta, alphabet)
                # a t alphabet's series is the q-series of the swapped value
                det = expand(value if main_var(alphabet) == "q" else value.swap_qt(), 8)
                orc = schur_tableau_oracle(lam, eta, alphabet, 8)
                assert det.prefactor == orc.prefactor, (lam, eta, alphabet)
                assert residual_equal(det, orc), (lam, eta, alphabet)
                checked += 1
    assert checked >= 3 * 100


def test_skew_factorization_prefix_tail_split():
    # splitting an alphabet into prefix letters and geometric tail:
    # s_{lam/eta}(P | T) = sum_mu s_{mu/eta}(P) s_{lam/mu}(T)
    cases = [
        (Partition([2, 1]), EMPTY, principal("q", Partition([1]))),
        (Partition([3, 1]), Partition([1]), principal("q", Partition([2, 1]))),
        (Partition([2, 2]), EMPTY, principal("t", Partition([2]), "q")),
    ]
    for lam, eta, alphabet in cases:
        ell = len(alphabet.prefix)
        tail = Alphabet((), alphabet.tail_start, alphabet.tail_ratio)

        def h_prefix(k):
            if k < 0:
                return RF_ZERO
            hs = [Laurent.const(1)] + [Laurent() for _ in range(k)]
            for (eq, et) in alphabet.prefix:
                for j in range(1, k + 1):
                    hs[j] = hs[j] + hs[j - 1].shift(eq, et)
            return RationalFunction(hs[k])

        def skew_prefix(lam2, eta2):
            if not lam2.contains(eta2):
                return RF_ZERO
            n = len(lam2)
            if n == 0:
                return RF_ONE
            rows = [[h_prefix(lam2.part(i) - eta2.part(j) - i + j)
                     for j in range(1, n + 1)] for i in range(1, n + 1)]
            det = RF_ZERO
            import itertools
            for perm in itertools.permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = RationalFunction.of(sign)
                for i in range(n):
                    term = term * rows[i][perm[i]]
                det = det + term
            return det

        total = RationalFunction.sum_of(
            skew_prefix(mu, eta) * skew_schur(lam, mu, tail)
            for mu in subpartitions_within(lam))
        assert total == skew_schur(lam, eta, alphabet), (lam, eta)


def test_macdonald_tilde_z_examples():
    assert macdonald_tilde_z(EMPTY).is_one()
    assert macdonald_tilde_z(Partition([1]), "t") == 1 / (1 - t)
    assert macdonald_tilde_z(Partition([1]), "q") == 1 / (1 - q)


def test_tilde_z_equal_arguments_is_hook_product():
    for nu in enumerate_up_to(6):
        hook = one
        for (_, _, h) in cell_stats(nu).values():
            hook = hook / (1 - q ** h)
        assert macdonald_tilde_z(nu, "t").substitute_t_eq_q() == hook
        assert macdonald_tilde_z(nu, "q").substitute_t_eq_q() == hook


def test_macdonald_p_at_rho_examples():
    assert macdonald_p_at_rho(EMPTY).is_one()
    assert macdonald_p_at_rho(Partition([1])) == qh / (1 - q)
    assert macdonald_p_at_rho(Partition([2])) == q ** 2 / ((1 - q) * (1 - q * t))


def test_macdonald_p_reduces_to_schur():
    for nu in enumerate_up_to(5):
        left = macdonald_p_at_rho(nu).substitute_t_eq_q()
        right = skew_schur(nu.conjugate(), EMPTY, RHO_Q)
        assert left == right, nu
