import random
from fractions import Fraction
from math import factorial

import pytest

from projrep.exactlin import Cyclotomic
from projrep.partitions import MultiPartition, multipartitions, partitions
from projrep.series import (GradedSeries, exp, int_power, inverse,
                            one_series, p_split, power_coefficient, quotient_y,
                            x_generator_series, y_explicit, y_from_quotient, y_monomial)
from projrep.symfunc import C, SymElement, X, x_to_c
from projrep.wreath import XI, WreathElement


def scalar_series(*values):
    return GradedSeries([Fraction(v) for v in values])


def exp_t(order):
    return exp(GradedSeries([Fraction(1 if i == 1 else 0) for i in range(order + 1)]))


def sym_series(rng, constant, order=5):
    """Random c-basis coefficients: degree i on every partition of i."""
    return GradedSeries([SymElement(C, 0, {(): constant})] + [
        SymElement(C, i, {lam: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for lam in partitions(i)}) for i in range(1, order + 1)])


def wreath_series(rng, constant, order=4):
    """Random conductor-4 cyclotomic coefficients over two-component xi indices."""
    return GradedSeries([WreathElement(XI, 0, 2, {((), ()): constant})] + [
        WreathElement(XI, i, 2, {mp: Cyclotomic(4, [rng.randint(-2, 2),
                                                     rng.randint(-2, 2)])
                                 for mp in multipartitions(2, i)})
        for i in range(1, order + 1)])


def element_series(seed, constant):
    rng = random.Random(seed)
    return sym_series(rng, constant), wreath_series(rng, constant)


def assert_round_trips(s):
    """The one a series builds from its own coefficients is the unit of every
    round trip: inverse, a power against its negative, and the p-split."""
    assert (s * inverse(s)).is_one()
    assert s * s.one() == s
    for k in (1, 2, 3):
        assert (int_power(s, -k) * int_power(s, k)).is_one()
    for p in (2, 3):
        u, v = p_split(s, p)
        assert u + v == s


# ---------------------------------------------------------------------------
# exp


def test_scalar_exp_coefficients():
    e = exp_t(8)
    for n in range(9):
        assert e[n] == Fraction(1, factorial(n))


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        exp(scalar_series(1, 1))
    for s in element_series(5, 1):
        with pytest.raises(ValueError):
            exp(s)


def test_exp_single_generator():
    # exp(c_1 t) has coefficients c_1^n / n!
    series = GradedSeries([SymElement.zero(C, 0)] + [
        SymElement.generator(C, 1) if i == 1 else SymElement.zero(C, i)
        for i in range(1, 7)])
    e = exp(series)
    for n in range(7):
        assert e[n] == Fraction(1, factorial(n)) * SymElement.monomial(C, (1,) * n)
    assert_round_trips(e)
    # exp(zeta_4 * xi_{1,2} t) over two components has coefficients
    # (zeta_4 * xi_{1,2})^n / n!
    gen = Cyclotomic.zeta(4) * WreathElement.generator(XI, 1, 1, 2)
    series = GradedSeries([WreathElement.zero(XI, 0, 2), gen]
                          + [WreathElement.zero(XI, i, 2) for i in range(2, 7)])
    e = exp(series)
    for n in range(7):
        assert e[n] == Fraction(1, factorial(n)) * gen ** n
    assert_round_trips(e)


def test_exp_of_power_sums_gives_x_generators():
    series = GradedSeries([SymElement.zero(C, 0)] + [
        Fraction(1, i) * SymElement.generator(C, i) for i in range(1, 9)])
    e = exp(series)
    for n in range(9):
        assert e[n] == x_to_c(SymElement.generator(X, n))
    assert_round_trips(e)
    # the same over one-component xi indices: the trivial-group wreath algebra
    series = GradedSeries([WreathElement.zero(XI, 0, 1)] + [
        Fraction(1, i) * WreathElement.generator(XI, 0, i, 1) for i in range(1, 9)])
    e = exp(series)
    for n in range(9):
        expected = x_to_c(SymElement.generator(X, n))
        assert e[n] == WreathElement(XI, n, 1, {MultiPartition((lam,)): c
                                                for lam, c in expected.coeffs.items()})
    assert_round_trips(e)


def test_exp_is_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        order = 6
        a = GradedSeries([Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])
        b = GradedSeries([Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)])
        assert exp(a + b) == exp(a) * exp(b)
    for seed in range(2):
        for a, b in zip(element_series(seed, 0), element_series(seed + 10, 0)):
            assert exp(a + b) == exp(a) * exp(b)
            assert_round_trips(exp(a))


# ---------------------------------------------------------------------------
# p-split


def test_p_split_cosh_sinh():
    e = exp_t(9)
    u, v = p_split(e, 2)
    for n in range(10):
        if n % 2 == 0:
            assert u[n] == Fraction(1, factorial(n)) and v[n] == 0
        else:
            assert v[n] == Fraction(1, factorial(n)) and u[n] == 0


def test_p_split_index_membership():
    # index 3 is singular for p=3; index 0 always belongs to the singular part
    x = scalar_series(1, 0, 0, 5)
    u, v = p_split(x, 3)
    assert u[0] == 1 and u[3] == 5 and v[3] == 0
    assert all(v[i] == 0 for i in range(4))


def test_p_split_parts_sum_back():
    rng = random.Random(77)
    for p in (2, 3, 5):
        for _ in range(10):
            x = GradedSeries([Fraction(rng.randint(-5, 5)) for _ in range(9)])
            u, v = p_split(x, p)
            assert u + v == x


# ---------------------------------------------------------------------------
# quotient and powers


def test_quotient_y_tanh():
    y = quotient_y(exp_t(12), 2)
    assert y[1] == 1
    assert y[3] == Fraction(-1, 3)
    assert y[5] == Fraction(2, 15)
    assert all(y[n] == 0 for n in range(0, 13, 2))


def test_quotient_requires_unit_constant_term():
    with pytest.raises(ValueError):
        quotient_y(scalar_series(0, 1), 2)


def test_int_power_examples():
    x = scalar_series(1, 1, 0, 0, 0)
    assert int_power(x, 0) == one_series(4)
    assert int_power(x, -1) == scalar_series(1, -1, 1, -1, 1)
    rng = random.Random(11)
    for _ in range(10):
        s = GradedSeries([Fraction(1)] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)])
        assert (s * int_power(s, -1)).is_one()
        assert int_power(s, 3) == s * s * s
        assert int_power(s, -2) == inverse(s) * inverse(s)
    for seed in range(2):
        for s in element_series(seed, 1):
            assert int_power(s, 0) == s.one()
            assert int_power(s, 3) == s * s * s
            assert int_power(s, -2) == inverse(s) * inverse(s)
            assert_round_trips(s)


def test_int_power_squares_only_while_bits_remain(monkeypatch):
    s = scalar_series(1, 2, -1, 3, 0, 1)
    for e in range(-3, 7):
        base = s if e >= 0 else inverse(s)
        expected = s.one()
        for _ in range(abs(e)):
            expected = expected * base
        assert int_power(s, e) == expected, e
    products = []
    multiply = GradedSeries.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)
    monkeypatch.setattr(GradedSeries, "__mul__", counted)
    for k in range(5):
        products.clear()
        int_power(s, 2 ** k)
        assert len(products) <= k + 1, k


def test_int_power_requires_unit_constant_term():
    with pytest.raises(ValueError):
        int_power(scalar_series(2, 1), 2)


# ---------------------------------------------------------------------------
# the y generators


def test_power_coefficient_is_the_coefficient_of_the_series_power():
    # int_power inverts the series for e < 0, so it shares no code with the
    # binomial series that power_coefficient reads off
    xs = x_generator_series(6)
    for e in range(-3, 4):
        power = int_power(xs, e)
        for n in range(7):
            for lam in partitions(n):
                assert power_coefficient(e, lam) == power[n].coeffs.get(lam, 0), (e, lam)


def test_y_explicit_examples():
    for p in (2, 3, 5):
        assert y_explicit(1, p) == SymElement.generator(X, 1)
    assert y_explicit(5, 2) == (SymElement.monomial(X, (5,))
                                - SymElement.monomial(X, (3, 2))
                                + SymElement.monomial(X, (2, 2, 1))
                                - SymElement.monomial(X, (4, 1)))
    assert y_explicit(4, 3) == (SymElement.monomial(X, (4,))
                                - SymElement.monomial(X, (3, 1)))
    assert y_explicit(4, 2).is_zero()


def test_y_explicit_indices_pass_the_checking_constructor():
    # y_explicit builds its indices unchecked, as partitions by construction
    for p in (2, 3, 5):
        for n in range(1, 25):
            y = y_explicit(n, p)
            assert y.basis == X and y.degree == n
            assert SymElement(X, n, {lam.parts: c for lam, c in y.coeffs.items()}) == y


def test_y_known_list_for_p2():
    x = lambda *parts: SymElement.monomial(X, parts)
    assert y_explicit(3, 2) == x(3) - x(2, 1)
    assert y_explicit(7, 2) == (x(7) - x(5, 2) - x(4, 3) + x(3, 2, 2)
                                - x(6, 1) + 2 * x(4, 2, 1) - x(2, 2, 2, 1))


def test_y_quotient_matches_explicit():
    for p, order in ((2, 41), (3, 30), (5, 30)):
        quotient = y_from_quotient(order, p)
        for n in range(1, order + 1):
            if n % p == 0:
                assert quotient[n].is_zero()
            else:
                assert quotient[n] == y_explicit(n, p)


def test_y_vanishes_at_multiples_of_p():
    for p in (2, 3, 5):
        quotient = y_from_quotient(12, p)
        for n in range(0, 13, p):
            if n:
                assert quotient[n].is_zero()


def test_y_c_expansion_is_p_regular():
    # the quotient coefficients are polynomials in the c_i with i coprime to p
    for p in (2, 3, 5):
        series = quotient_y(GradedSeries(list(map(x_to_c, x_generator_series(12).coeffs))), p)
        for n in range(1, 13):
            for lam in series[n].coeffs:
                assert lam.is_p_regular(p)


def test_y_minus_x_is_p_singular():
    # y_lam = x_lam + (combination of x_mu with mu p-singular)
    for p in (2, 3):
        for n in range(1, 9):
            for lam in partitions(n):
                if not lam.is_p_regular(p):
                    continue
                difference = y_monomial(lam, p) - SymElement.monomial(X, lam)
                for mu in difference.coeffs:
                    assert not mu.is_p_regular(p)

