"""Symmetric-group engine: the lattice of virtual characters vanishing on
p-singular classes, the polynomial generators y_n and their class values,
and per-degree verification that the generator monomials span exactly that
lattice (structurally, or by Hermite normal form equality with the
computed kernel).  S_n is the case G = 1 of G wr S_n, and the class-value
routines here (of the generators and of every monomial), the p-singular
class predicate, the constraint matrix of the vanishing lattice and the
builder of the generator-monomial matrix serve both engines."""

import time
from collections import namedtuple
from fractions import Fraction
from math import factorial
from functools import lru_cache

from .exactlin import IntMatrix, cyclotomic_polynomial, hnf_basis, integer_kernel, is_unit_echelon
# unused here, but perfbench/layers.py patches modsym.rational_kernel by name
from .exactlin import rational_kernel  # noqa: F401
from .partitions import (MultiPartition, Partition, multipartitions, p_regular_partitions,
                         partitions)
from .series import satisfies_quotient, x_generator_series, y_explicit
# unused here, but perfbench/layers.py patches modsym.y_monomial by name
from .series import y_monomial  # noqa: F401
from .symfunc import SymElement, X, class_values, schur_in_x


# ---------------------------------------------------------------------------
# the monomial matrices of both engines, from products on packed keys


# Bits of one multiplicity field of a packed key.  A multiplicity in degree n
# is at most n, so below degree 2^FIELD no field carries into the next.
FIELD = 16


def _packed_key(index):
    """The monomial index (a Partition, or a MultiPartition of N families) as
    one int: field (v - 1) * N + j, FIELD bits wide, holds the multiplicity
    of the part v in component j (the CycleWeight labels, from 0, with N = 1
    for a Partition).  The index of a product of monomials is the multiset
    union of theirs (x_lambda x_mu = x_(lambda u mu), Macdonald I.2), so its
    key is the sum of their keys."""
    components = (index,) if isinstance(index, Partition) else index.components
    ncomp = len(components)
    return sum(1 << FIELD * ((v - 1) * ncomp + j)
               for j, lam in enumerate(components) for v in lam.parts)


def check_packable(n):
    """Refuse a degree n whose multiplicities could carry out of a FIELD."""
    if n >= 1 << FIELD:
        raise ValueError("degree %d needs multiplicity fields wider than %d bits"
                         % (n, FIELD))


def _pack(element):
    """{packed key: coefficient} of an element whose coefficients are ints,
    as SymElement stores integral values and the Phi basis stores all."""
    packed = {}
    for index, coeff in element.coeffs.items():
        if type(coeff) is not int:
            raise AssertionError("non-integral coordinate at %s" % (index,))
        packed[_packed_key(index)] = coeff
    return packed


def _key_product(a, b):
    """The product of two elements held as {packed key: coefficient}."""
    out = {}
    get = out.get
    for key, coeff in a.items():
        for other, value in b.items():
            at = key + other
            out[at] = get(at, 0) + coeff * value
    return {key: coeff for key, coeff in out.items() if coeff}


def monomial_matrix(generator, nfamilies, ncomp, p, n, memo):
    """The integer coordinates of the degree-n generator monomials, one row
    per multipartition a of n over nfamilies with parts prime to p, in
    multipartitions order: the product over j and the parts v of a_j of
    generator(j, v), an element with int coefficients, over the
    multipartitions(ncomp, n) (partitions for ncomp = 1) in that order.

    memo maps a tuple of factors (j, v) to its product as {packed key:
    coefficient}; a row's product is its first factor's times the memoised
    product of the rest, so each row costs one product.  A row's factors run
    from its smallest part up, so that product is by its smallest generator,
    the one with the fewest terms.  A degree whose multiplicities could
    overflow a FIELD is refused before anything is built."""
    check_packable(n)

    def product(factors):
        known = memo.get(factors)
        if known is None:
            if len(factors) > 1:
                known = _key_product(product(factors[:1]), product(factors[1:]))
            else:
                known = _pack(generator(*factors[0])) if factors else {0: 1}
            memo[factors] = known
        return known

    positions = {_packed_key(mp): i for i, mp in enumerate(multipartitions(ncomp, n))}
    # one zero row, written and cleared again for each row: no list per row
    row, rows = [0] * len(positions), []
    for a in multipartitions(nfamilies, n, part_filter=lambda v: v % p):
        terms = product(tuple((j, v) for j, lam in enumerate(a) for v in reversed(lam.parts)))
        columns = [positions[key] for key in terms]
        for column, coeff in zip(columns, terms.values()):
            row[column] = coeff
        rows.append(tuple(row))
        for column in columns:
            row[column] = 0
    return IntMatrix._trusted(rows, len(positions))


@lru_cache(maxsize=None)
def _y_products(p):
    """The memo of y_monomials at the prime p, kept across degrees."""
    return {}


def y_monomials(n, p):
    """Rows: x-basis coordinates of y_lambda over the p-regular partitions of n."""
    return monomial_matrix(lambda j, v: y_explicit(v, p), 1, 1, p, n, _y_products(p))


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
    g_terms = [(rho, b, _automorphisms(rho)) for rho, b in g.items()]
    for nu, a in f.items():
        aut_nu = _automorphisms(nu)
        for rho, b, aut_rho in g_terms:
            mu = tuple(sorted(nu + rho))
            mult = _automorphisms(mu) // (aut_nu * aut_rho)
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


def is_p_singular(cls, element_orders, p):
    """True iff the class cls of G wr S_n (a tuple of labels, see CycleWeight)
    has a cycle whose length is divisible by p or whose product lies in a
    class C_c of G of element order element_orders[c] divisible by p."""
    ncls = len(element_orders)
    return any(label // ncls % p == 0 or element_orders[label % ncls] % p == 0
               for label in cls)


@lru_cache(maxsize=None)
def _vanishes_on_singular(weight, p, n):
    return not any(is_p_singular(mu, weight.element_orders, p)
                   for mu in generator_values(weight, p, n))


def generators_vanish(weight, p, n):
    """Check (a') of the structural certificate: every generator y_k, k <= n,
    vanishes on the p-singular classes (those with a cycle of length divisible
    by p, or in a p-singular class of G)."""
    return all(_vanishes_on_singular(weight, p, k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# class values of every monomial, and the constraints of the vanishing lattice


# The characters of the one-class group G = 1, whose wreath products are the
# S_n: one character, chi = 1.
SYM_CHARACTERS = (SYM_WEIGHT,)


def class_labels(nu):
    """The class of G wr S_n with cycle lengths nu[c] through the class C_c of
    G, for a multipartition nu, as its sorted tuple of labels r * N + c."""
    return tuple(sorted(r * len(nu) + c for c, lam in enumerate(nu) for r in lam.parts))


@lru_cache(maxsize=None)
def _removals(ncls, n, r):
    """For each rho in multipartitions(ncls, n): the pairs (j, terms), one per
    component rho_j with a part v >= r, where terms lists (m_{rho_j}(v), index of
    rho - r@(j, v) in multipartitions(ncls, n - r)) over those part values v, and
    rho - r@(j, v) replaces one part v of rho_j by v - r (dropped if 0)."""
    lower = {mp: i for i, mp in enumerate(multipartitions(ncls, n - r))}
    out = []
    for rho in multipartitions(ncls, n):
        entry = []
        for j, lam in enumerate(rho):
            terms = []
            for v, mult in lam.multiplicities().items():
                if v >= r:
                    at = lam.parts.index(v)
                    parts = lam.parts[:at] + lam.parts[at + 1:] + ((v - r,) if v > r else ())
                    comps = list(rho.components)
                    comps[j] = Partition._trusted(tuple(sorted(parts, reverse=True)))
                    terms.append((mult, lower[MultiPartition._trusted(tuple(comps))]))
            if terms:
                entry.append((j, tuple(terms)))
        out.append(tuple(entry))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_values(characters, cls):
    """Values X_rho(cls) of the monomials of degree n, as characters of
    G wr S_n, on the class cls (a tuple of labels, see CycleWeight), for every
    rho in multipartitions(N, n) order.  characters[j] is the CycleWeight of
    the irreducible chi_j, its integer coordinates over Z[zeta_m], m the
    conductor; the result is phi(m) integer rows, row t holding the zeta_m^t
    coordinates.  S_n is the case SYM_CHARACTERS, where X_rho is the
    permutation character x_lambda induced from the Young subgroup S_lambda,
    lambda the one component of rho.

    X_rho is induced from the product of the G wr S_v over the parts v of every
    rho_j, each carrying chi_j on every factor G.  The largest cycle of cls, of
    length r through the class C = C_c, lies in one part v >= r of some rho_j,
    which contributes chi_j(C) and leaves v - r:
        X_rho(cls) = sum over j and part values v >= r of rho_j of
                     m_{rho_j}(v) * chi_j(C) * X_{rho - r@(j,v)}(cls minus that cycle),
    with m_{rho_j}(v) the multiplicity of v and X_empty(empty) = 1 (Macdonald
    I App. B).  Degree n reads only the classes of lower degree."""
    ncls, conductor = len(characters), characters[0].conductor
    d = len(characters[0].values[0])
    if not cls:
        return ((1,),) + ((0,),) * (d - 1)
    r, c = divmod(cls[-1], ncls)
    sub = monomial_values(characters, cls[:-1])
    values = []
    for entry in _removals(ncls, sum(label // ncls for label in cls), r):
        acc = [0] * d
        for j, terms in entry:
            shared = tuple(sum(mult * row[i] for mult, i in terms) for row in sub)
            for t, v in enumerate(_times(characters[j].values[c], shared, conductor)):
                acc[t] += v
        values.append(acc)
    return tuple(zip(*values))


@lru_cache(maxsize=None)
def x_class_value_matrix(n):
    """Integer class values of the x-monomial basis: entry [i][j] is the value
    of x_{lambda_i} on class mu_j, both indexed by partitions(n); the
    monomial_values of SYM_CHARACTERS, whose multipartitions(1, n) are
    partitions(n) in order."""
    return tuple(zip(*(monomial_values(SYM_CHARACTERS, class_labels((mu,)))[0]
                       for mu in partitions(n))))


def singular_classes(characters, p, n):
    """The p-singular classes of G wr S_n as label tuples, in
    multipartitions(N, n) order, for the N characters of G."""
    element_orders = characters[0].element_orders
    return [cls for cls in map(class_labels, multipartitions(len(characters), n))
            if is_p_singular(cls, element_orders, p)]


def singular_constraints(characters, p, n):
    """The integer constraint matrix E of degree n, whose integer solutions
    are the vanishing lattice: the nonzero coordinate rows of monomial_values
    on each p-singular class, in order.  Degree 1 is the lattice of G."""
    return IntMatrix._trusted([row for cls in singular_classes(characters, p, n)
                               for row in monomial_values(characters, cls) if any(row)],
                              len(multipartitions(len(characters), n)))


class VerificationReport(namedtuple(
        "VerificationReport",
        "degree p rank expected_rank lattice_hnf monomial_hnf verdict method seconds")):
    __slots__ = ()

    def to_dict(self):
        """The JSON form.  A structural report's two matrices are one object,
        and so are their two lists, which the writer encodes once."""
        monomial_hnf = self.monomial_hnf.to_lists()
        return {
            "degree": self.degree,
            "p": self.p,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "lattice_hnf": (monomial_hnf if self.lattice_hnf is self.monomial_hnf
                            else self.lattice_hnf.to_lists()),
            "monomial_hnf": monomial_hnf,
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
    return VerificationReport.decide(
        n, p, lambda: singular_constraints(SYM_CHARACTERS, p, n),
        monomial_hnf, len(p_regular_partitions(n, p)), start, generators)


# ---------------------------------------------------------------------------
# worked identities relating the first generators to projective classes


ExampleCheck = namedtuple("ExampleCheck", "name passed detail")


class ExamplesReport(namedtuple("ExamplesReport", "checks notes")):
    __slots__ = ()

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
