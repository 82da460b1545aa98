import pytest

from oracles import cell_stats, count_partitions, subpartitions_within
from rp3vertex.partitions import (EMPTY, Partition, enumerate_up_to,
                                  parse_partition, partitions_of)


def test_conjugate_examples():
    assert EMPTY.conjugate() == EMPTY
    assert Partition([5, 4, 3, 2, 2, 1]).conjugate() == Partition([6, 5, 3, 2, 1])
    assert Partition([2]).conjugate() == Partition([1, 1])


def test_statistics_examples():
    def stats(nu):
        return nu.size, nu.norm_sq, nu.kappa
    assert stats(EMPTY) == (0, 0, 0)
    assert stats(Partition([2])) == (2, 4, 2)
    assert stats(Partition([1, 1])) == (2, 2, -2)


def test_invalid_partitions():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_trailing_zeros_dropped():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])


def test_value_contract():
    a, b = Partition([2, 1, 0]), Partition([2, 1])
    assert hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    for name in ("size", "rows"):
        with pytest.raises(AttributeError):
            setattr(a, name, 3)
    assert (repr(a), str(a)) == ("Partition([2, 1])", "[2,1]")


def test_conjugation_involution_and_kappa_up_to_12():
    for nu in enumerate_up_to(12):
        nut = nu.conjugate()
        assert nut.conjugate() == nu
        assert nu.size == nut.size
        assert nu.kappa + nut.kappa == 0
        # both sides computed independently: statistic vs cell sums
        assert nu.kappa == nu.norm_sq - nut.norm_sq
        assert nu.kappa == 2 * sum(j - i for (i, j) in nu.cells())


def test_cell_stats_examples():
    assert cell_stats(EMPTY) == {}
    assert cell_stats(Partition([1])) == {(1, 1): (0, 0, 1)}
    hooks = sorted(h for (_, _, h) in cell_stats(Partition([2])).values())
    assert hooks == [1, 2]


def test_hook_multiset_invariant_under_conjugation():
    for nu in enumerate_up_to(8):
        own = sorted(h for (_, _, h) in cell_stats(nu).values())
        conj = sorted(h for (_, _, h) in cell_stats(nu.conjugate()).values())
        assert own == conj
        assert len(nu.cells()) == nu.size
        assert sum(own) == sum(conj)


def test_brute_force_cell_geometry():
    # independent recount of arms and legs straight from the cell set
    nu = Partition([4, 2, 1])
    cells = set(nu.cells())
    for (i, j), (arm, leg, hook) in cell_stats(nu).items():
        assert arm == sum(1 for jj in range(j + 1, 10) if (i, jj) in cells)
        assert leg == sum(1 for ii in range(i + 1, 10) if (ii, j) in cells)
        assert hook == arm + leg + 1


def test_enumerate_small():
    assert enumerate_up_to(0) == [EMPTY]
    by_size = enumerate_up_to(3)
    assert len(by_size) == 7
    assert [p.size for p in by_size] == [0, 1, 2, 2, 3, 3, 3]


def test_enumerate_against_counting_recurrence():
    # the pentagonal-number recurrence is the independent oracle here; the
    # stated total for size 8 follows from it (sum of p(0)..p(8) = 67)
    for n in range(9):
        assert len(partitions_of(n)) == count_partitions(n)
    assert len(enumerate_up_to(8)) == sum(count_partitions(n) for n in range(9))
    assert len(enumerate_up_to(8)) == 67


def test_enumeration_order_graded_lex():
    assert list(partitions_of(4)) == [
        Partition([4]), Partition([3, 1]), Partition([2, 2]),
        Partition([2, 1, 1]), Partition([1, 1, 1, 1]),
    ]
    # deterministic: two calls yield the identical sequence
    assert enumerate_up_to(6) == enumerate_up_to(6)


def test_containment_and_subpartitions():
    lam = Partition([3, 2])
    assert lam.contains(Partition([2, 2]))
    assert not lam.contains(Partition([4]))
    assert not lam.contains(Partition([1, 1, 1]))
    inside = subpartitions_within(lam)
    assert EMPTY in inside and lam in inside
    assert len(inside) == len(set(inside))
    for eta in inside:
        assert lam.contains(eta)
    # against brute force over all partitions of size <= |lam|
    brute = [eta for eta in enumerate_up_to(lam.size) if lam.contains(eta)]
    assert sorted(str(p) for p in inside) == sorted(str(p) for p in brute)


def test_subpartitions_within_two_bounds():
    out = subpartitions_within(Partition([2, 1]), Partition([1, 1, 1]))
    assert sorted(str(p) for p in out) == ["[1,1]", "[1]", "[]"]


def test_parse_partition():
    assert parse_partition("[2,1]") == Partition([2, 1])
    assert parse_partition("[]") == EMPTY
    assert parse_partition(" [ 1,1 ] ".replace(" ", "")) == Partition([1, 1])
    with pytest.raises(ValueError):
        parse_partition("2,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")


def test_partition_text_roundtrip():
    for nu in enumerate_up_to(6):
        assert parse_partition(str(nu)) == nu
