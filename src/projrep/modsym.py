"""Symmetric-group engine: the lattice of virtual characters vanishing on
p-singular classes, the polynomial generators y_n and their class values,
and per-degree verification that the generator monomials span exactly that
lattice (structurally, or by Hermite normal form equality with the
computed kernel)."""

import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from functools import lru_cache

from .exactlin import (IntMatrix, cyclotomic_polynomial, hnf_basis, integer_kernel,
                       is_unit_echelon, rational_kernel)
from .partitions import Partition, p_regular_partitions, partitions
from .series import satisfies_quotient, x_generator_series, y_explicit, y_monomial
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


def element_coordinates(element, positions):
    """Integer coordinate vector (a list of ints) of an element whose
    coefficients are ints, as SymElement stores integral values and the Phi
    basis stores all; positions maps each index of its degree to a column,
    and is built once per degree."""
    coords = [0] * len(positions)
    for index, coeff in element.coeffs.items():
        if type(coeff) is not int:
            raise AssertionError("non-integral coordinate at %s" % (index,))
        coords[positions[index]] = coeff
    return coords


def y_monomials(n, p):
    """Rows: x-basis coordinates of y_lambda over the p-regular partitions of n."""
    positions = {lam: i for i, lam in enumerate(partitions(n))}
    rows = [element_coordinates(y_monomial(lam, p), positions)
            for lam in p_regular_partitions(n, p)]
    return IntMatrix._trusted(rows, len(positions))


# ---------------------------------------------------------------------------
# class values of the generators, with no table of class values


CycleWeight = namedtuple("CycleWeight", "values element_orders conductor")
CycleWeight.__doc__ = """A class function psi of a finite group G, the weight of one cycle.

values[c] holds the integer power-basis coordinates of psi(C_c) over
Z[zeta_conductor], and element_orders[c] the order of the elements of C_c.
A class of G wr S_n is a multiset of cycles, each with a length r and the
class C_c of its cycle product; it is written as the sorted tuple of the
labels r * N + c, N the number of classes of G.  S_n is the case G = 1:
SYM_WEIGHT, one class and psi = 1, where a class is its sorted cycle
lengths."""

SYM_WEIGHT = CycleWeight(((1,),), (1,), 1)


def _times(a, b, conductor):
    """Product in Z[zeta_m] of two power-basis coordinate tuples."""
    d = len(a)
    if d == 1:
        return (a[0] * b[0],)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    poly = cyclotomic_polynomial(conductor)
    for i in range(2 * d - 2, d - 1, -1):
        if prod[i]:
            for t in range(d):
                prod[i - d + t] -= prod[i] * poly[t]
    return tuple(prod[:d])


@lru_cache(maxsize=None)
def _automorphisms(cls):
    """prod over the distinct labels of a class of (multiplicity)!."""
    result = run = 1
    for i in range(1, len(cls)):
        run = run + 1 if cls[i] == cls[i - 1] else 1
        result *= run
    return result


def convolve(f, g, conductor):
    """The induction product of two class functions of wreath products, each
    a dict {class: value} (see CycleWeight) holding its nonzero values:
        (f * g)(mu) = sum over sub-multisets nu of the cycles of mu of
                      prod over labels l of C(m_l(mu), m_l(nu)) * f(nu) * g(mu - nu)
    (Macdonald I.7 and I App. B).  The binomial product is
    aut(mu) / (aut(nu) * aut(mu - nu)), aut the product of multiplicity
    factorials."""
    out = {}
    for nu, a in f.items():
        aut_nu = _automorphisms(nu)
        for rho, b in g.items():
            mu = tuple(sorted(nu + rho))
            mult = _automorphisms(mu) // (aut_nu * _automorphisms(rho))
            value = _times(a, b, conductor)
            entry = out.get(mu)
            if entry is None:
                out[mu] = [mult * v for v in value]
            else:
                for t, v in enumerate(value):
                    entry[t] += mult * v
    return {mu: tuple(v) for mu, v in out.items() if any(v)}


@lru_cache(maxsize=None)
def cycle_products(weight, n):
    """The values of X_n, the character whose value on a class of G wr S_n is
    the product of psi(C) over its cycles, as {class: value} on the classes
    where it is nonzero.  X_n is x_n (value 1) for SYM_WEIGHT, and X_{k,n}
    for the weight psi_k of wreath.cycle_weight."""
    ncls = len(weight.values)
    support = [c for c in range(ncls) if any(weight.values[c])]
    out = {}

    def descend(remaining, low, prefix, value):
        if not remaining:
            out[prefix] = value
            return
        for r in range(max(low // ncls, 1), remaining + 1):
            for c in support:
                label = r * ncls + c
                if label >= low:
                    descend(remaining - r, label, prefix + (label,),
                            _times(value, weight.values[c], weight.conductor))

    descend(n, 0, (), (1,) + (0,) * (len(weight.values[0]) - 1))
    return out


@lru_cache(maxsize=None)
def generator_values(weight, p, n):
    """The nonzero values of the generator y_n as {class: value}, from
    X(t) = S(t) * (1 + Y(t)) with X_j = cycle_products(weight, j) and S the
    part of X in degrees divisible by p:
        y_n = [p does not divide n] * X_n - sum over p | j, 0 < j < n of X_j * y_{n-j},
    the product being the induction product (convolve).  Needs no table of
    class values: degree n reads only the generators below it."""
    acc = {}
    if n % p:
        acc = {mu: list(v) for mu, v in cycle_products(weight, n).items()}
    for j in range(p, n, p):
        for mu, value in convolve(cycle_products(weight, j),
                                  generator_values(weight, p, n - j),
                                  weight.conductor).items():
            entry = acc.setdefault(mu, [0] * len(value))
            for t, v in enumerate(value):
                entry[t] -= v
    return {mu: tuple(v) for mu, v in acc.items() if any(v)}


@lru_cache(maxsize=None)
def _vanishes_on_singular(weight, p, n):
    ncls = len(weight.values)
    return all(label // ncls % p and weight.element_orders[label % ncls] % p
               for mu in generator_values(weight, p, n) for label in mu)


def generators_vanish(weight, p, n):
    """Check (a') of the structural certificate: every generator y_k, k <= n,
    vanishes on the p-singular classes (those with a cycle of length divisible
    by p, or in a p-singular class of G)."""
    return all(_vanishes_on_singular(weight, p, k) for k in range(1, n + 1))


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
    def decide(cls, degree, p, build_constraints, monomial_hnf, expected, start,
               generators=None):
        """The report on whether monomial_hnf is a basis of the vanishing
        lattice L = {v : E @ v = 0}, whose rank is `expected`, the number of
        p-regular classes; build_constraints() returns the integer matrix E
        and runs only off the structural path.  generators is the outcome of
        the structural generator checks: None if the coordinates of the
        generators fail X = S * (1 + Y) (or no checks ran), True if every
        generator of degree <= n vanishes on the p-singular classes (a'),
        False if one does not.

        Structural: the link and (a'), with monomial_hnf in echelon form with
        unit pivots (b) and `expected` rows (c').  Otherwise the kernel of E
        and a comparison of HNFs.  A failed (a') makes the verdict false; the
        kernel still fills lattice_hnf.  start is the perf_counter() reading
        the verification began at."""
        if generators and monomial_hnf.nrows == expected and is_unit_echelon(monomial_hnf):
            method, lattice_hnf = "structural", monomial_hnf
        else:
            method, lattice_hnf = "kernel", integer_kernel(build_constraints())
        verdict = (generators is not False and lattice_hnf == monomial_hnf
                   and lattice_hnf.nrows == expected)
        return cls(degree, p, lattice_hnf.nrows, expected, lattice_hnf, monomial_hnf,
                   verdict, method, time.perf_counter() - start)


def sym_constraints(n, p):
    """The integer constraint matrix E of degree n: the nonzero
    singular_class_rows."""
    return IntMatrix([row for row in singular_class_rows(n, p) if any(row)],
                     len(partitions(n)))


@lru_cache(maxsize=None)
def _generators_linked(n, p):
    """satisfies_quotient for the y_explicit in every degree <= n, checking
    one new degree per call."""
    return n == 0 or (_generators_linked(n - 1, p) and satisfies_quotient(
        x_generator_series(n), [y_explicit(k, p) for k in range(1, n + 1)], p, (n,)))


def verify_theorem1(n, p):
    """Check that the y-monomials span exactly the vanishing lattice in degree n."""
    start = time.perf_counter()
    monomial_hnf = hnf_basis(y_monomials(n, p))
    generators = generators_vanish(SYM_WEIGHT, p, n) if _generators_linked(n, p) else None
    return VerificationReport.decide(n, p, lambda: sym_constraints(n, p), monomial_hnf,
                                     len(p_regular_partitions(n, p)), start, generators)


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
