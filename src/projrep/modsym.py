"""Symmetric-group engine: the lattice of virtual characters vanishing on
p-singular classes, the polynomial generators y_n, and per-degree verification
that the generator monomials span exactly that lattice (by certificate, or by
Hermite normal form equality with the computed kernel)."""

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from functools import lru_cache

from .exactlin import (IntMatrix, certify_kernel_basis, hnf_basis, integer_kernel,
                       rational_kernel)
from .partitions import Partition, p_regular_partitions, partitions
from .series import y_explicit, y_monomial
from .symfunc import SymElement, X, class_values, schur_in_x


def _remove_from_part(parts, v, r):
    """The parts with one part v replaced by v - r (dropped if 0), re-sorted."""
    at = parts.index(v)
    return tuple(sorted(parts[:at] + parts[at + 1:] + ((v - r,) if v > r else ()),
                        reverse=True))


@lru_cache(maxsize=None)
def x_class_value_matrix(n):
    """Integer class values of the x-monomial basis: entry [i][j] is the value
    of x_{lambda_i} on class mu_j, both indexed by partitions(n).

    x_lambda is the permutation character induced from the Young subgroup
    S_lambda, so its value on mu counts the ways to share the cycles of mu
    among the parts of lambda.  The largest cycle, of length r = mu_1, lies
    in one part v >= r, which leaves v - r for the other cycles:
        x_lambda(mu) = sum over part values v >= r of lambda of
                       m_lambda(v) * x_{lambda - r@v}(mu minus mu_1),
    where lambda - r@v replaces one part v by v - r (dropped if 0) and
    m_lambda(v) is the multiplicity of v.  Degree n reads only the tables
    of degrees below n; x_empty(empty) = 1."""
    if n == 0:
        return ((1,),)
    classes = partitions(n)
    index = {k: {lam.parts: i for i, lam in enumerate(partitions(k))} for k in range(n)}
    # removals[r][i]: (m_lambda(v), row of lambda - r@v in degree n - r) for lambda_i
    removals = {r: [[(m, index[n - r][_remove_from_part(lam.parts, v, r)])
                     for v, m in lam.multiplicities().items() if v >= r]
                    for lam in classes]
                for r in range(1, n + 1)}
    columns = []
    for mu in classes:
        r = mu.parts[0]
        sub = x_class_value_matrix(n - r)
        j = index[n - r][mu.parts[1:]]
        columns.append([sum(m * sub[i][j] for m, i in terms) for terms in removals[r]])
    return tuple(zip(*columns))


@dataclass(frozen=True)
class RegLattice:
    """Z-basis (rows, x-basis coordinates) of the degree-n characters vanishing
    on every p-singular class."""
    degree: int
    p: int
    basis: IntMatrix

    @property
    def rank(self):
        return self.basis.nrows


def singular_class_rows(n, p):
    """One constraint row per p-singular class mu of S_n: the values of the
    x-basis on mu.  Their integer solutions are the vanishing lattice."""
    values = x_class_value_matrix(n)
    return [[row[j] for row in values]
            for j, mu in enumerate(partitions(n)) if not mu.is_p_regular(p)]


def reg_lattice(n, p):
    return RegLattice(n, p, rational_kernel(singular_class_rows(n, p), len(partitions(n))))


def element_coordinates(element, n):
    """Integer x-basis coordinate vector of a degree-n element, in partitions(n) order."""
    coords = []
    for lam in partitions(n):
        c = element.coeffs.get(lam, 0)
        if c.denominator != 1:
            raise AssertionError("non-integral coordinate at %s" % lam)
        coords.append(int(c))
    return coords


def y_monomials(n, p):
    """Rows: x-basis coordinates of y_lambda over the p-regular partitions of n."""
    rows = [element_coordinates(y_monomial(lam, p), n)
            for lam in p_regular_partitions(n, p)]
    return IntMatrix(rows, len(partitions(n)))


@dataclass(frozen=True)
class VerificationReport:
    degree: int
    p: int
    rank: int
    expected_rank: int
    lattice_hnf: IntMatrix
    monomial_hnf: IntMatrix
    verdict: bool
    method: str
    seconds: float

    def to_dict(self):
        return {
            "degree": self.degree,
            "p": self.p,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "lattice_hnf": self.lattice_hnf.to_lists(),
            "monomial_hnf": self.monomial_hnf.to_lists(),
            "verdict": self.verdict,
            "method": self.method,
            "seconds": self.seconds,
        }

    @classmethod
    def decide(cls, degree, p, constraints, monomial_hnf, expected, start):
        """The report on whether monomial_hnf is a basis of the vanishing
        lattice {v : constraints @ v = 0} of rank `expected`: proved by
        certify_kernel_basis where it applies, else decided by computing
        that kernel and comparing HNFs.  start is the perf_counter() reading
        the verification began at."""
        if certify_kernel_basis(monomial_hnf, constraints, expected):
            method, lattice_hnf = "certificate", monomial_hnf
        else:
            method, lattice_hnf = "kernel", integer_kernel(constraints)
        verdict = lattice_hnf == monomial_hnf and lattice_hnf.nrows == expected
        return cls(degree, p, lattice_hnf.nrows, expected, lattice_hnf, monomial_hnf,
                   verdict, method, time.perf_counter() - start)


def verify_theorem1(n, p):
    """Check that the y-monomials span exactly the vanishing lattice in degree n."""
    start = time.perf_counter()
    constraints = IntMatrix([row for row in singular_class_rows(n, p) if any(row)],
                            len(partitions(n)))
    return VerificationReport.decide(n, p, constraints, hnf_basis(y_monomials(n, p)),
                                     len(p_regular_partitions(n, p)), start)


# ---------------------------------------------------------------------------
# worked identities relating the first generators to projective classes


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExamplesReport:
    checks: tuple
    notes: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "notes": list(self.notes),
            "all_passed": self.all_passed,
        }


def _values_tuple(element):
    return tuple(class_values(element).as_tuple())


def worked_examples_check():
    """Character-level identities relating the first generators to projective classes."""
    checks = []

    minus_y3 = -y_explicit(3, 2)
    s21 = schur_in_x(Partition((2, 1)))
    vals3 = _values_tuple(minus_y3)
    checks.append(ExampleCheck(
        "-y_3 equals the Schur element of [2,1]",
        minus_y3 == s21 and vals3 == (Fraction(2), Fraction(0), Fraction(-1)),
        "-y_3 -> %s on classes [1,1,1],[2,1],[3]" % (tuple(map(int, vals3)),)))

    y1 = y_explicit(1, 2)
    minus_y1y3 = -(y1 * y_explicit(3, 2))
    schur_sum = (schur_in_x(Partition((3, 1))) + schur_in_x(Partition((2, 2)))
                 + schur_in_x(Partition((2, 1, 1))))
    vals4 = _values_tuple(minus_y1y3)
    vanishes = all(vals4[j] == 0 for j, mu in enumerate(sorted(partitions(4)))
                   if not mu.is_p_regular(2))
    checks.append(ExampleCheck(
        "-y_1*y_3 equals s[3,1] + s[2,2] + s[2,1,1]",
        (minus_y1y3 == schur_sum
         and vals4 == tuple(map(Fraction, (8, 0, 0, -1, 0))) and vanishes),
        "-y_1*y_3 -> %s on classes [1,1,1,1],[2,1,1],[2,2],[3,1],[4]"
        % (tuple(map(int, vals4)),)))

    regular_ok = True
    for n in range(1, 7):
        values = class_values(y1 ** n)
        for mu in partitions(n):
            expected = factorial(n) if len(mu.parts) == n else 0
            if values[mu] != expected:
                regular_ok = False
    checks.append(ExampleCheck(
        "y_1^n is the regular character",
        regular_ok,
        "y_1^n -> n! on [1,...,1], 0 elsewhere, for n <= 6"))

    two_x2 = 2 * SymElement.generator(X, 2)
    y1_squared = y1 * y1
    notes = (
        "informational: the example's composition-series identity 2*x2 = y1^2 is not an "
        "ordinary-character identity (2*x2 -> %s but y1^2 -> %s on classes [1,1],[2]); "
        "it is recorded, not asserted."
        % (tuple(map(int, _values_tuple(two_x2))),
           tuple(map(int, _values_tuple(y1_squared)))),
    )
    return ExamplesReport(tuple(checks), notes)
