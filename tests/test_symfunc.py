import random
from fractions import Fraction

import pytest

from projrep.partitions import Partition, partitions, z
from projrep.symfunc import (C, ClassValues, SymElement, X, c_to_x, class_values,
                             inner_product, mn_character, perm_char_value,
                             schur_in_x, x_to_c)


def x_mono(*parts):
    return SymElement.monomial(X, Partition(parts))


def c_mono(*parts):
    return SymElement.monomial(C, Partition(parts))


# ---------------------------------------------------------------------------
# ring structure


def test_multiply_monomial_union():
    assert x_mono(2) * x_mono(1) == x_mono(2, 1)
    assert c_mono(1) * c_mono(1) * c_mono(1) == c_mono(1, 1, 1)


def test_multiply_bilinear():
    left = x_mono(2) + x_mono(1, 1)
    assert left * x_mono(1) == x_mono(2, 1) + x_mono(1, 1, 1)
    assert (3 * x_mono(2) - x_mono(1, 1)) * x_mono(1) == \
        3 * x_mono(2, 1) - x_mono(1, 1, 1)


def test_addition_requires_matching_degree():
    with pytest.raises(ValueError):
        x_mono(1) + x_mono(2)


def test_multiply_rejects_mixed_bases():
    with pytest.raises(ValueError):
        x_mono(1) * c_mono(1)


def test_powers():
    x2 = SymElement.generator(X, 2)
    assert x2 ** 0 == SymElement(X, 0, {Partition(()): 1})
    assert x2 ** 3 == x_mono(2, 2, 2)
    # as Cyclotomic.__pow__ does: no inverse, so no silent unit
    with pytest.raises(ValueError):
        x2 ** -1


def _random_element(rng, basis, degree):
    coeffs = {}
    for lam in partitions(degree):
        if rng.random() < 0.5:
            coeffs[lam] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SymElement(basis, degree, coeffs)


def test_multiply_commutative_associative():
    rng = random.Random(5)
    for _ in range(15):
        a = _random_element(rng, X, rng.randint(0, 4))
        b = _random_element(rng, X, rng.randint(0, 4))
        c = _random_element(rng, X, rng.randint(0, 3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a * b).degree == a.degree + b.degree


# ---------------------------------------------------------------------------
# base change


def test_x_to_c_generators():
    assert x_to_c(x_mono(1)) == c_mono(1)
    assert x_to_c(x_mono(2)) == SymElement(C, 2, {Partition((2,)): Fraction(1, 2),
                                                  Partition((1, 1)): Fraction(1, 2)})
    assert x_to_c(x_mono(3)) == SymElement(C, 3, {Partition((3,)): Fraction(1, 3),
                                                  Partition((2, 1)): Fraction(1, 2),
                                                  Partition((1, 1, 1)): Fraction(1, 6)})


def test_x_to_c_is_x_n_formula():
    # x_n = sum over partitions of c_lam / z_lam
    for n in range(1, 9):
        converted = x_to_c(SymElement.generator(X, n))
        assert converted == SymElement(C, n, {lam: Fraction(1, z(lam))
                                              for lam in partitions(n)})


def test_c_to_x_examples():
    assert c_to_x(c_mono(1)) == x_mono(1)
    assert c_to_x(c_mono(2)) == 2 * x_mono(2) - x_mono(1, 1)


def test_base_change_round_trip_random():
    rng = random.Random(9)
    for _ in range(100):
        degree = rng.randint(0, 8)
        a = _random_element(rng, X, degree)
        assert c_to_x(x_to_c(a)) == a
        b = _random_element(rng, C, degree)
        assert x_to_c(c_to_x(b)) == b


# ---------------------------------------------------------------------------
# class values


def test_class_values_examples():
    assert class_values(x_mono(2)).as_tuple() == (1, 1)
    assert class_values(x_mono(2, 1)).as_tuple() == (3, 1, 0)
    values = class_values(c_mono(3))
    assert values[Partition((3,))] == 3
    assert values[Partition((2, 1))] == 0
    assert values[Partition((1, 1, 1))] == 0


def test_class_values_against_permutation_oracle():
    for n in range(8):
        for lam in partitions(n):
            values = class_values(SymElement.monomial(X, lam))
            for mu in partitions(n):
                assert values[mu] == perm_char_value(lam, mu)


# ---------------------------------------------------------------------------
# oracles


def test_perm_char_examples():
    assert perm_char_value(Partition((2, 1)), Partition((1, 1, 1))) == 3
    assert perm_char_value(Partition((2, 1)), Partition((3,))) == 0
    for n in range(1, 7):
        for mu in partitions(n):
            assert perm_char_value(Partition((n,)), mu) == 1


def test_mn_examples():
    assert mn_character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert mn_character(Partition((2, 1)), Partition((3,))) == -1
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_character(Partition((n,)), mu) == 1


def test_mn_sign_character():
    # chi_(1^n)(mu) = sign of the class
    for n in range(1, 7):
        for mu in partitions(n):
            sign = (-1) ** (n - len(mu.parts))
            assert mn_character(Partition((1,) * n), mu) == sign


def test_schur_examples():
    assert schur_in_x(Partition((4,))) == x_mono(4)
    assert schur_in_x(Partition((2, 1))) == x_mono(2, 1) - x_mono(3)
    assert schur_in_x(Partition((1, 1))) == x_mono(1, 1) - x_mono(2)


def test_schur_class_values_match_mn():
    for n in range(7):
        for lam in partitions(n):
            values = class_values(schur_in_x(lam))
            for mu in partitions(n):
                assert values[mu] == mn_character(lam, mu)


def test_inner_product_orthonormality():
    for n in range(1, 7):
        chars = {lam: ClassValues(n, {mu: Fraction(mn_character(lam, mu))
                                      for mu in partitions(n)})
                 for lam in partitions(n)}
        for a in partitions(n):
            for b in partitions(n):
                assert inner_product(chars[a], chars[b]) == (1 if a == b else 0)


def test_inner_product_x2():
    values = class_values(x_mono(2))
    assert inner_product(values, values) == 1


def test_element_rendering():
    assert str(x_mono(3) - x_mono(2, 1)) == "x3 - x2*x1"
    assert str(SymElement.zero(X, 2)) == "0"
    assert str(Fraction(1, 2) * c_mono(2, 2, 1)) == "1/2*c2^2*c1"
