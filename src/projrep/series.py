"""Truncated formal power series with homogeneous graded-ring coefficients.

The degree-i coefficient of a series lives in degree i of the coefficient
ring.  Truncation order is explicit everywhere; no operation ever reads
beyond it.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import symfunc
from .partitions import Partition, parts_at_most
from .symfunc import SymElement


class GradedSeries:
    """A series sum_{i=0}^{D} a_i t^i with a_i homogeneous of degree i.

    The coefficients are Fractions, Cyclotomics or graded elements; the zero
    and the one a series needs come from its own coefficients, as c * 0 (of
    the degree of c) and c ** 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("GradedSeries is immutable")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i]

    def __eq__(self, other):
        return isinstance(other, GradedSeries) and self.coeffs == other.coeffs

    __hash__ = None

    def _check_order(self, other):
        if self.order != other.order:
            raise ValueError("orders differ: %d vs %d" % (self.order, other.order))

    def __add__(self, other):
        self._check_order(other)
        return GradedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_order(other)
        return GradedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return GradedSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        self._check_order(other)
        out = []
        for i in range(self.order + 1):
            acc = self.coeffs[0] * other.coeffs[i]
            for k in range(1, i + 1):
                acc = acc + self.coeffs[k] * other.coeffs[i - k]
            out.append(acc)
        return GradedSeries(out)

    def one(self):
        """The series 1, with the coefficient types and degrees of this one."""
        return GradedSeries([self.coeffs[0] ** 0] + [c * 0 for c in self.coeffs[1:]])

    def is_one(self):
        return self == self.one()

    def __repr__(self):
        return "GradedSeries(order=%d, %r)" % (self.order, list(self.coeffs))


def one_series(order):
    """The series 1 over the rationals."""
    return GradedSeries([Fraction(1)] + [Fraction(0)] * order)


def _require_unit_constant(series, operation):
    if series.coeffs[0] != series.coeffs[0] ** 0:
        raise ValueError("%s needs constant term 1" % operation)


def exp(series):
    """exp of a series with zero constant term: sum_k series^k / k!."""
    if series.coeffs[0]:
        raise ValueError("exp needs a zero constant term")
    result = term = series.one()
    for k in range(1, series.order + 1):
        term = term * series
        term = GradedSeries([c * Fraction(1, k) for c in term.coeffs])
        result = result + term
    return result


def p_split(series, p):
    """Split into the p-singular part (indices divisible by p, index 0 included)
    and the p-regular part (indices coprime to p); the two parts sum back to
    the series."""
    singular = [c if i % p == 0 else c * 0 for i, c in enumerate(series.coeffs)]
    regular = [c if i % p != 0 else c * 0 for i, c in enumerate(series.coeffs)]
    return GradedSeries(singular), GradedSeries(regular)


def inverse(series):
    """Multiplicative inverse of a series with constant term 1."""
    _require_unit_constant(series, "inverse")
    out = [series.coeffs[0]]
    for i in range(1, series.order + 1):
        acc = series.coeffs[1] * out[i - 1]
        for k in range(2, i + 1):
            acc = acc + series.coeffs[k] * out[i - k]
        out.append(-acc)
    return GradedSeries(out)


def int_power(series, exponent):
    """Integer power; negative exponents use the series inverse."""
    _require_unit_constant(series, "int_power")
    base = series if exponent >= 0 else inverse(series)
    exponent = abs(exponent)
    result = series.one()
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def quotient_y(series, p):
    """The quotient Y = (p-regular part) / (p-singular part).

    Its coefficients vanish at every index divisible by p.
    """
    _require_unit_constant(series, "quotient")
    singular, regular = p_split(series, p)
    return regular * inverse(singular)


# ---------------------------------------------------------------------------
# the generators of the p-regular subring


def x_generator_series(order):
    """sum_n x_n t^n up to the given order."""
    return GradedSeries([SymElement.generator(symfunc.X, i) for i in range(order + 1)])


def power_coefficient(e, parts):
    """The coefficient of x_lam in H(t)^e, H = 1 + sum_i x_i t^i, for any
    integer e and the tuple of parts of lam.  (1 + u)^e = sum_l (e)_l u^l / l!
    with (e)_l the falling factorial, so it is (e)_l / prod over part values
    v of m_v(lam)!, l the number of parts: a binomial times a multinomial."""
    return (prod(range(e, e - len(parts), -1))
            // prod(factorial(parts.count(v)) for v in set(parts)))


def y_explicit(n, p):
    """Degree-n generator in closed form.  With S the part of H in degrees
    divisible by p, 1 + Y = H / S, so Y = (H - S) / S, and 1 / S is H^{-1}
    on the generators x_{pj} alone.  So y_n is the sum, over h = n mod p
    with p not dividing h and over the partitions nu of (n - h) / p, of
    power_coefficient(-1, nu) x_{(h) + p nu}: one monomial per term, h
    being its one part prime to p.  Zero when p divides n."""
    if n < 1:
        raise ValueError("n must be positive")
    # built unchecked: each index is a partition by construction
    return SymElement.one(symfunc.X)._trusted(n, {
        Partition._trusted(sorted((h, *(p * v for v in nu)), reverse=True)):
        power_coefficient(-1, nu) for h in range(n % p, n + 1, p) if h % p
        for nu in parts_at_most((n - h) // p, (n - h) // p, (n - h) // p)})


def y_from_quotient(max_degree, p):
    """Generators via the series quotient: coefficients 0..max_degree of Y."""
    return quotient_y(x_generator_series(max_degree), p)


@lru_cache(maxsize=None)
def y_monomial(lam, p):
    """Product of generators y_{lam_1} * ... * y_{lam_k} in the x-basis, as
    y_{lam_1} times the cached product over the remaining parts."""
    if not lam:
        return SymElement.one(symfunc.X)
    return y_explicit(lam[0], p) * y_monomial(Partition._trusted(lam[1:]), p)
