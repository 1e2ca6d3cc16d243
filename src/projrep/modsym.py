"""Class values on packed keys (of X_n, of the generators and of every
monomial), the constraint matrix of the vanishing lattice, the
generator-monomial matrix and the verification report.  S_n is the case
G = 1 of G wr S_n, so verify_theorem1 is one call of the one engine,
wreath.verify_degree, which builds WreathElements; wreath imports this
module, so verify_theorem1 imports the engine when it runs."""

import time
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, prod
from functools import lru_cache
from operator import floordiv

from .exactlin import IntMatrix, cyclotomic_polynomial, integer_kernel, is_unit_echelon
from .partitions import Partition, multipartitions, partitions
from .series import y_explicit
from .symfunc import SymElement, X, class_values, schur_in_x
# unused here, but perfbench/layers.py patches these modsym names
from .exactlin import hnf_basis, rational_kernel  # noqa: F401
from .series import y_monomial  # noqa: F401


# ---------------------------------------------------------------------------
# the monomial matrices of the engine, from products on packed keys


# Bits of one multiplicity field of a packed key.  A multiplicity in degree n
# is at most n, so below degree 2^FIELD no field carries into the next.
FIELD = 16


def _packed_key(index):
    """The monomial index, a MultiPartition of N families, as one int: field
    (v - 1) * N + j, FIELD bits wide, holds the multiplicity of the part v in
    component j (the CycleWeight labels, from 0).  The index of a product of
    monomials is the multiset union of theirs (x_lambda x_mu =
    x_(lambda u mu), Macdonald I.2), so its key is the sum of their keys."""
    ncomp = len(index)
    return sum(1 << FIELD * ((v - 1) * ncomp + j)
               for j, lam in enumerate(index.components) for v in lam.parts)


def check_packable(n, width=1):
    """Refuse a degree n whose multiplicities could carry out of a FIELD, or
    values of width phi(m) whose zeta_m exponents, up to 2 * width - 2 in a
    product of packed class functions (see CycleWeight), could."""
    if n >= 1 << FIELD or 2 * width - 2 >= 1 << FIELD:
        raise ValueError("degree %d with values of width %d needs fields wider than %d bits"
                         % (n, width, FIELD))


def _pack(element):
    """{packed key: coefficient} of an element whose coefficients are ints,
    as the Phi basis stores them."""
    packed = {}
    for index, coeff in element.coeffs.items():
        if type(coeff) is not int:
            raise AssertionError("non-integral coordinate at %s" % (index,))
        packed[_packed_key(index)] = coeff
    return packed


def _key_product(a, b):
    """The product of two elements held as {packed key: coefficient}, with
    the zero coefficients of terms that cancel."""
    out = {}
    get = out.get
    for key, coeff in a.items():
        for other, value in b.items():
            at = key + other
            out[at] = get(at, 0) + coeff * value
    return out


def monomial_matrix(generator, nfamilies, ncomp, p, n, memo):
    """The integer coordinates of the degree-n generator monomials, as a
    matrix of sparse rows (see IntMatrix), one row per multipartition a of n
    over nfamilies with parts prime to p, in multipartitions order: the
    product over j and the parts v of a_j of generator(j, v), an element
    with int coefficients, over the multipartitions(ncomp, n) (partitions
    for ncomp = 1) in that order.

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
    rows = []
    for a in multipartitions(nfamilies, n, part_filter=lambda v: v % p):
        terms = product(tuple((j, v) for j, lam in enumerate(a) for v in reversed(lam.parts)))
        entries = sorted((positions[key], value) for key, value in terms.items() if value)
        rows.append(tuple(zip(*entries)) or ((), ()))
    return IntMatrix._trusted_sparse(rows, len(positions))


# ---------------------------------------------------------------------------
# class values of the generators, with no table of class values


CycleWeight = namedtuple("CycleWeight", "values element_orders conductor")
CycleWeight.__doc__ = """A class function psi of a finite group G, the weight of one cycle.

values[c] holds the integer power-basis coordinates of psi(C_c) over
Z[zeta_conductor], and element_orders[c] the order of the elements of C_c.
A class of G wr S_n is a multiset of cycles, each with a length r and the
class C_c of its cycle product, labelled r * N + c, N the number of classes
of G.  The key of a class is one int (_class_key): _packed_key of the
multipartition nu of its cycle lengths nu[c] through C_c, which holds the
multiplicity of the label r * N + c in field (r - 1) * N + c, one field up
if phi(m) > 1.  S_n is the case G = 1: SYM_WEIGHT, one class and psi = 1.

Packed, f of degree n is {key of mu + s: F} on its nonzero F = (zeta_m^s
part of f(mu)) * n! / aut(mu), aut(mu) the product of the m_l(mu)! over the
labels l of mu.  The induction product (Macdonald I.7) of f and g, of
degree n - j, is C(n, j) * _key_product(F_f, F_g), reduced (_reduced)."""

SYM_WEIGHT = CycleWeight(((1,),), (1,), 1)


def _label_shift(label, ncls, width):
    """The offset of the field of the cycle label r * N + c in a packed key
    (see CycleWeight), for values of the given width."""
    return FIELD * (label - ncls + (width > 1))


def _reduced(values, conductor):
    """values, a packed class function (see CycleWeight) whose zeta_m
    exponents may reach 2 * phi(m) - 2, as products leave them, with every
    exponent s >= phi(m) reduced in place modulo the m-th cyclotomic
    polynomial, the highest first; returned without its zero values."""
    poly = cyclotomic_polynomial(conductor)
    width, low = len(poly) - 1, (1 << FIELD) - 1
    terms = [(at, coeff) for at, coeff in enumerate(poly[:width], -width) if coeff]
    for s in range(2 * width - 2, width - 1, -1):
        for key in [key for key in values if key & low == s]:
            value = values.pop(key)
            for at, coeff in terms:
                values[key + at] = values.get(key + at, 0) - coeff * value
    return {key: value for key, value in values.items() if value}


@lru_cache(maxsize=None)
def cycle_products(weight, n):
    """The values of X_n, the character whose value on a class of G wr S_n is
    the product of psi(C) over its cycles, packed (see CycleWeight).  X_n is
    x_n (value 1) for SYM_WEIGHT, and X_{k,n} for the weight psi_k of
    wreath.cycle_weight.  n * X_n = sum over r of r * (E_r * X_{n-r}), E_r
    being psi(C) on the class of one r-cycle through C: packed, the key
    products by E_r's values times r * C(n, r) * r! / n = (n - 1)! r / (n - r)!."""
    ncls, width = len(weight.values), len(weight.values[0])
    check_packable(n, width)
    if not n:
        return {0: 1}
    acc = {}
    for r in range(1, n + 1):
        cycle = {(1 << _label_shift(r * ncls + c, ncls, width)) + s: v
                 for c, coords in enumerate(weight.values) for s, v in enumerate(coords) if v}
        scale = factorial(n - 1) * r // factorial(n - r)
        for key, value in _key_product(cycle, cycle_products(weight, n - r)).items():
            acc[key] = acc.get(key, 0) + scale * value
    return _reduced(acc, weight.conductor)


@lru_cache(maxsize=None)
def generator_values(weight, p, n):
    """The nonzero values of the generator y_n, packed (see CycleWeight), from
    X(t) = S(t) * (1 + Y(t)) with X_j = cycle_products(weight, j) and S the
    part of X in degrees divisible by p:
        y_n = [p does not divide n] * X_n - sum over p | j, 0 < j < n of X_j * y_{n-j},
    the product being the induction product.  Needs no table of class
    values: degree n reads only the generators below it."""
    check_packable(n, len(weight.values[0]))
    acc = dict(cycle_products(weight, n)) if n % p else {}
    for j in range(p, n, p):
        scale = comb(n, j)
        for key, value in _key_product(cycle_products(weight, j),
                                       generator_values(weight, p, n - j)).items():
            acc[key] = acc.get(key, 0) - scale * value
    return _reduced(acc, weight.conductor)


def is_p_singular(label, element_orders, p):
    """True iff a cycle of label r * N + c (see CycleWeight) is p-singular:
    its length r is divisible by p, or its product lies in a class C_c of G
    of element order element_orders[c] divisible by p.  A class of G wr S_n
    is p-singular iff one of its cycles is."""
    ncls = len(element_orders)
    return label // ncls % p == 0 or element_orders[label % ncls] % p == 0


def _singular_mask(weight, p, n):
    """The bits of the packed keys of degree n (see CycleWeight) that hold
    the multiplicities of the p-singular cycle labels: a class is p-singular
    iff its key meets them."""
    ncls, width = len(weight.values), len(weight.values[0])
    return sum(((1 << FIELD) - 1) << _label_shift(label, ncls, width)
               for label in range(ncls, (n + 1) * ncls)
               if is_p_singular(label, weight.element_orders, p))


@lru_cache(maxsize=None)
def _vanishes_on_singular(weight, p, n):
    mask = _singular_mask(weight, p, n)
    return not any(key & mask for key in generator_values(weight, p, n))


def generators_vanish(weight, p, n):
    """Check (a') of the structural certificate: every generator y_k, k <= n,
    vanishes on the p-singular classes (those with a cycle of length divisible
    by p, or in a p-singular class of G), refusing first what check_packable
    refuses."""
    check_packable(n, len(weight.values[0]))
    return all(_vanishes_on_singular(weight, p, k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# class values of every monomial, and the constraints of the vanishing lattice


# The characters of the one-class group G = 1, whose wreath products are the
# S_n: one character, chi = 1.
SYM_CHARACTERS = (SYM_WEIGHT,)


def _class_key(nu, width):
    """The packed key (see CycleWeight) of the class of G wr S_n with cycle
    lengths nu[c] through the class C_c of G, nu a multipartition."""
    return _packed_key(nu) << FIELD * (width > 1)


def singular_classes(characters, p, n):
    """The p-singular classes of G wr S_n as multipartitions nu (see
    _class_key), in multipartitions(N, n) order, for the N characters of G."""
    width = len(characters[0].values[0])
    mask = _singular_mask(characters[0], p, n)
    return [nu for nu in multipartitions(len(characters), n) if _class_key(nu, width) & mask]


def monomial_values(characters, n, p=None):
    """For each rho in multipartitions(N, n) order, the values of the
    character X_rho of G wr S_n on the p-singular classes of degree n (every
    class if p is None), in multipartitions order: phi(m) integer coordinates
    over Z[zeta_m] per class.  characters[j] is the CycleWeight of chi_j; for
    SYM_CHARACTERS, X_rho is the permutation character x_lambda, rho = (lambda,).

    X_rho is the induction product (Macdonald I.7, I App. B) over the parts v
    of every rho_j of cycle_products(chi_j, v); the products below degree n
    are memoised for this call.  check_packable runs before any product."""
    ncls, width = len(characters), len(characters[0].values[0])
    check_packable(n, width)
    classes = multipartitions(ncls, n) if p is None else singular_classes(characters, p, n)
    keys, scales = [], []
    for nu in classes:
        keys += (_class_key(nu, width) + t for t in range(width))
        scales += [factorial(n) // prod(factorial(m) for lam in nu
                                        for m in lam.multiplicities().values())] * width
    zeros = [0] * len(keys)
    memo = {(): (0, {0: 1})}

    def product(factors):
        known = memo.get(factors)
        if known is None:
            (j, v), (degree, rest) = factors[0], product(factors[1:])
            small, large = sorted((cycle_products(characters[j], v), rest), key=len)
            scale = comb(degree + v, v)  # folded into the smaller factor
            known = degree + v, _reduced(_key_product(
                {key: scale * value for key, value in small.items()}, large),
                characters[0].conductor)
            if known[0] < n:
                memo[factors] = known
        return known

    for rho in multipartitions(ncls, n):
        values = product(tuple((j, v) for j, lam in enumerate(rho) for v in reversed(lam.parts)))
        yield tuple(map(floordiv, map(values[1].get, keys, zeros), scales))


@lru_cache(maxsize=None)
def x_class_value_matrix(n):
    """Integer class values of the x-monomial basis: entry [i][j] is the value
    of x_{lambda_i} on class mu_j, both indexed by partitions(n); the
    monomial_values of SYM_CHARACTERS, whose multipartitions(1, n) are
    partitions(n) in order."""
    return tuple(monomial_values(SYM_CHARACTERS, n))


def singular_constraints(characters, p, n):
    """The integer constraint matrix E of degree n, whose integer solutions
    are the vanishing lattice: the nonzero coordinate rows of monomial_values
    on the p-singular classes, in order.  Degree 1 is the lattice of G."""
    return IntMatrix._trusted([row for row in zip(*monomial_values(characters, n, p))
                               if any(row)], len(multipartitions(len(characters), n)))


class VerificationReport(namedtuple(
        "VerificationReport",
        "degree p rank expected_rank lattice_hnf monomial_hnf verdict method seconds")):
    __slots__ = ()

    def to_dict(self):
        """The JSON form, with the two matrices as IntMatrix objects, which
        cli.json_chunks writes as lists of rows.  A structural report's two
        matrices are one object, which the writer encodes once."""
        return self._asdict()

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


def verify_theorem1(n, p):
    """Check that the y-monomials span exactly the vanishing lattice in degree n."""
    from .wreath import verify_degree
    return verify_degree(SYM_CHARACTERS, ((1,),), p, n)


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
