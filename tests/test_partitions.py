from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from projrep.partitions import (EMPTY, MultiPartition, Partition, count_multipartitions,
                                multipartitions, p_regular_partitions, partitions, z)
from projrep.series import GradedSeries, int_power


def test_enumerate_base_cases():
    assert partitions(0) == (EMPTY,)
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions(10)) == 42


def test_enumerate_order_strictly_decreasing_lex():
    for n in range(11):
        seq = partitions(n)
        assert seq[0] == Partition((n,)) if n else seq[0] == EMPTY
        for a, b in zip(seq, seq[1:]):
            assert a.parts > b.parts


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_rejects_parts_that_are_not_integers():
    for bad in ((2.7, 1), ("2", 1), (Fraction(5, 2),), (None,)):
        with pytest.raises(ValueError):
            Partition(bad)
    partition = Partition((2.0, Fraction(1)))
    assert partition.parts == (2, 1) and all(type(v) is int for v in partition.parts)


def test_multipartition_rejects_parts_that_are_not_integers():
    with pytest.raises(ValueError):
        MultiPartition(((2, 1), (1.5,)))
    with pytest.raises(ValueError):
        MultiPartition(((3,), ("1",)))


def test_textual_form():
    assert str(Partition((3, 1, 1))) == "[3,1,1]"
    assert str(EMPTY) == "[]"
    assert str(MultiPartition((Partition((2, 1)), EMPTY))) == "[[2,1],[]]"


def test_p_regularity():
    assert Partition((3, 1, 1)).is_p_regular(2)
    assert not Partition((4, 1)).is_p_regular(2)
    assert [lam.parts for lam in p_regular_partitions(4, 2)] == [(3, 1), (1, 1, 1, 1)]


def test_z_values():
    assert z(Partition((2, 1))) == 2
    assert z(Partition((1, 1, 1))) == 6
    assert z(Partition((3,))) == 3
    assert z(EMPTY) == 1


def test_class_equation():
    for n in range(1, 9):
        assert sum(factorial(n) // z(lam) for lam in partitions(n)) == factorial(n)


def test_multipartitions_examples():
    assert len(multipartitions(1, 3)) == 3
    got = [tuple(c.parts for c in mp) for mp in multipartitions(2, 2)]
    assert got == [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    odd = [tuple(c.parts for c in mp)
           for mp in multipartitions(2, 2, part_filter=lambda v: v % 2 == 1)]
    assert odd == [((1, 1), ()), ((1,), (1,)), ((), (1, 1))]


def test_multipartitions_are_unique_and_sized():
    for k in (1, 2, 3):
        for n in range(6):
            mps = multipartitions(k, n)
            assert len(set(mps)) == len(mps)
            assert all(mp.size == n and len(mp) == k for mp in mps)
            assert len(mps) == count_multipartitions(k, n)


def test_generator_monomial_count_identity():
    # #degree-n monomials in generators {(i, m): i <= M, p coprime m} equals the
    # p-regular multipartition count: both sides of prod_{p∤m} (1 - t^m)^(-M).
    for p in (2, 3):
        for m_comp in (1, 2, 3):
            for n in range(9):
                series = GradedSeries([Fraction(1)] + [Fraction(0)] * 8)
                for step in range(1, 9):
                    if step % p == 0:
                        continue
                    factor = GradedSeries([
                        Fraction(1 if i == 0 else (-1 if i == step else 0))
                        for i in range(9)])
                    series = series * int_power(factor, -m_comp)
                count = len(multipartitions(m_comp, n,
                                            part_filter=lambda v: v % p != 0))
                assert series[n] == count


def test_merge():
    a = Partition((3, 1))
    b = Partition((2, 1))
    assert a.merge(b) == Partition((3, 2, 1, 1))
    mp = MultiPartition((a, EMPTY)).merge(MultiPartition((b, Partition((1,)))))
    assert mp == MultiPartition((Partition((3, 2, 1, 1)), Partition((1,))))


partition_parts = st.lists(st.integers(1, 12), max_size=8).map(
    lambda parts: Partition(sorted(parts, reverse=True)))


@given(partition_parts, partition_parts)
def test_merge_equals_the_validated_partition(a, b):
    merged = a.merge(b)
    expected = Partition(sorted(a.parts + b.parts, reverse=True))
    assert merged == expected
    assert type(merged.parts) is tuple
    assert hash(merged) == hash(expected)
