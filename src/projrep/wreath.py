"""Wreath-product engine: character-table ingestion, the graded algebra of the
wreath products G wr S_n in the xi- and Phi-monomial bases, the vanishing
lattice of G (degree 1 of the wreath lattice) with unimodular completion,
the X_k/Y_k generator series, and per-degree verification of the
polynomial-ring statement.  The class values and the constraint matrix of
the fallback come from modsym, shared with S_n."""

import json
import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd, prod
from operator import add, mul

from .exactlin import (Cyclotomic, conj, hnf_basis, integer_kernel, is_unimodular,
                       unimodular_complete)
# unused here, but perfbench/layers.py patches wreath.rational_kernel by name
from .exactlin import rational_kernel  # noqa: F401
from .modsym import (CycleWeight, VerificationReport, check_packable, generators_vanish,
                     monomial_matrix, monomial_values, singular_classes, singular_constraints)
from .partitions import EMPTY, MultiPartition, Partition, multipartitions
from .series import GradedSeries, exp, int_power, quotient_y, satisfies_quotient
from .symfunc import GradedElement

XI = "xi"
PHI = "phi"

ClassInfo = namedtuple("ClassInfo", "label size element_order")
Irreducible = namedtuple("Irreducible", "label values")


class TableError(ValueError):
    """A character-table file is malformed or violates a table invariant."""


class CharTable:
    """An ordinary character table of a finite group over a splitting field,
    immutable after construction.  characters[j] is the irreducible chi_j as
    a modsym.CycleWeight: its values as integer power-basis coordinates over
    Z[zeta_conductor], with the element orders of the classes."""

    def __init__(self, name, order, conductor, classes, irreducibles):
        self.name = name
        self.order = order
        self.conductor = conductor
        self.classes = tuple(classes)
        self.irreducibles = tuple(irreducibles)
        self._validate()
        element_orders = tuple(c.element_order for c in self.classes)
        self.characters = tuple(
            CycleWeight(tuple(tuple(map(int, v.lift(conductor).rational_coords()))
                              for v in irr.values), element_orders, conductor)
            for irr in self.irreducibles)

    @property
    def N(self):
        return len(self.classes)

    def _validate(self):
        if self.order < 1:
            raise TableError("group order must be positive")
        if self.conductor < 1:
            raise TableError("conductor must be >= 1")
        if not self.classes:
            raise TableError("no classes")
        if len(self.irreducibles) != len(self.classes):
            raise TableError("need as many irreducibles as classes (%d vs %d)"
                             % (len(self.irreducibles), len(self.classes)))
        if sum(c.size for c in self.classes) != self.order:
            raise TableError("class sizes sum to %d, not the group order %d"
                             % (sum(c.size for c in self.classes), self.order))
        first = self.classes[0]
        if first.size != 1 or first.element_order != 1:
            raise TableError("first class must be the identity (size 1, element order 1)")
        for c in self.classes:
            if c.size < 1 or c.element_order < 1:
                raise TableError("class %s has invalid size or element order" % (c.label,))
            if self.order % c.size or self.order % c.element_order:
                raise TableError("class %s: size %d and element order %d must divide "
                                 "the group order %d"
                                 % (c.label, c.size, c.element_order, self.order))
        for irr in self.irreducibles:
            if len(irr.values) != self.N:
                raise TableError("irreducible %s has %d values, expected %d"
                                 % (irr.label, len(irr.values), self.N))
            for v in irr.values:
                if any(q.denominator != 1 for q in v.rational_coords()):
                    raise TableError(
                        "value of %s is not an algebraic integer in the power basis"
                        % (irr.label,))
        # A value on a class of element order e lies in Q(zeta_e), which meets
        # Q(zeta_m) in Q(zeta_d), d = gcd(e, m): the field fixed by every
        # zeta_m -> zeta_m^k with k a unit modulo m and k = 1 modulo d.
        m = self.conductor
        for j, c in enumerate(self.classes):
            d = gcd(c.element_order, m)
            fixing = [k for k in range(1, m + 1) if gcd(k, m) == 1 and (k - 1) % d == 0]
            for irr in self.irreducibles:
                if any(irr.values[j].galois(k) != irr.values[j] for k in fixing):
                    raise TableError(
                        "value of %s on class %s (element order %d) does not lie "
                        "in Q(zeta_%d)" % (irr.label, c.label, c.element_order, d))
        for i, a in enumerate(self.irreducibles):
            for j, b in enumerate(self.irreducibles):
                total = Cyclotomic.from_rational(0)
                for c, av, bv in zip(self.classes, a.values, b.values):
                    total = total + c.size * av * conj(bv)
                expected = self.order if i == j else 0
                if total != expected:
                    raise TableError(
                        "row orthogonality fails for %s and %s" % (a.label, b.label))

    def __repr__(self):
        return "CharTable(%r, order=%d, N=%d)" % (self.name, self.order, self.N)


def _is_integer(raw):
    """True for a JSON integer; JSON true and false load as bools, which are ints."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _integer(raw, where):
    if not _is_integer(raw):
        raise TableError("%s must be an integer, not %r" % (where, raw))
    return raw


def _parse_value(raw, conductor, where):
    if _is_integer(raw):
        return Cyclotomic.from_rational(raw)
    if isinstance(raw, list):
        if len(raw) != conductor or not all(_is_integer(v) for v in raw):
            raise TableError("%s: a cyclotomic value must be a list of %d integers"
                             % (where, conductor))
        return Cyclotomic(conductor, raw)
    raise TableError("%s: unsupported value %r" % (where, raw))


def load_table(path):
    """Load and validate a character table from its JSON file form."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise TableError("cannot read %s: %s" % (path, err))
    except json.JSONDecodeError as err:
        raise TableError("%s is not valid JSON: %s" % (path, err))
    try:
        name = data["name"]
        order = _integer(data["order"], "order")
        conductor = _integer(data["conductor"], "conductor")
        classes = tuple(ClassInfo(str(c["label"]),
                                  _integer(c["size"], "size of class %s" % c["label"]),
                                  _integer(c["element_order"],
                                           "element order of class %s" % c["label"]))
                        for c in data["classes"])
        irreducibles = tuple(
            Irreducible(str(r["label"]),
                        tuple(_parse_value(v, conductor, "irreducible %s" % r["label"])
                              for v in r["values"]))
            for r in data["irreducibles"])
    except (KeyError, TypeError, ValueError) as err:
        raise TableError("malformed table file %s: %s" % (path, err))
    return CharTable(name, order, conductor, classes, irreducibles)


def p_regular_classes(table, p):
    """The classes whose element order is coprime to p."""
    return tuple(c for c in table.classes if c.element_order % p != 0)


# ---------------------------------------------------------------------------
# the vanishing lattice of G and its unimodular completion


ELatticeBasis = namedtuple("ELatticeBasis", "p M phi")
ELatticeBasis.__doc__ = """Unimodular N x N matrix phi whose first M rows span the
lattice of virtual characters vanishing on p-singular classes (coordinates in
the chi-basis)."""


def e_lattice(table, p):
    """The vanishing lattice of G, degree 1 of the wreath lattice: the classes
    of G wr S_1 are those of G, and the degree-1 monomials are the chi_j."""
    kernel = integer_kernel(singular_constraints(table.characters, p, 1))
    m = len(p_regular_classes(table, p))
    if kernel.nrows != m:
        raise AssertionError("vanishing lattice rank %d differs from the %d p-regular classes"
                             % (kernel.nrows, m))
    return ELatticeBasis(p, m, unimodular_complete(kernel))


# ---------------------------------------------------------------------------
# the graded wreath algebra in its two monomial bases


class WreathElement(GradedElement):
    """A homogeneous element of the wreath algebra on multipartitions with
    ncomp components: Cyclotomic coefficients in the xi basis, int
    coefficients in the Phi basis, where the ring is a Z-form."""

    __slots__ = ("ncomp",)
    _SPACE = ("basis", "ncomp")
    BASES = (XI, PHI)
    INDEX = MultiPartition

    def __init__(self, basis, degree, ncomp, coeffs):
        object.__setattr__(self, "ncomp", ncomp)
        super().__init__(basis, degree, coeffs)

    def scalar(self, coeff):
        if self.basis == XI:
            return coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.from_rational(coeff)
        if isinstance(coeff, (int, Fraction)) and coeff.denominator == 1:
            return int(coeff)
        raise AssertionError("non-integer Phi coefficient %s" % (coeff,))

    def _index(self, mp):
        mp = super()._index(mp)
        if len(mp) != self.ncomp:
            raise ValueError("index %s has %d components, expected %d"
                             % (mp, len(mp), self.ncomp))
        return mp

    def _space(self):
        return self.basis, self.ncomp

    def _like(self, degree, coeffs):
        return WreathElement(self.basis, degree, self.ncomp, coeffs)

    def _unit(self):
        return MultiPartition((EMPTY,) * self.ncomp)

    @classmethod
    def generator(cls, basis, component, n, ncomp, coeff=1):
        """The monomial with single part n at the given component index."""
        comps = [EMPTY] * ncomp
        comps[component] = Partition((n,))
        return cls(basis, n, ncomp, {MultiPartition(comps): coeff})

    def __str__(self):
        return " + ".join("(%s)*%s" % (c, mp) for mp, c in self.sorted_terms()) or "0"


def phi_c_in_xi(table, j, n):
    """Phi_j applied to the degree-n power-sum generator, expanded over xi:
    sum over classes C of chi_j(C) * |C|/|G| * xi_{n,C}."""
    coeffs = {}
    for c_index, cls in enumerate(table.classes):
        comps = [EMPTY] * table.N
        comps[c_index] = Partition((n,))
        coeffs[MultiPartition(comps)] = (table.irreducibles[j].values[c_index]
                                         * Fraction(cls.size, table.order))
    return WreathElement(XI, n, table.N, coeffs)


@lru_cache(maxsize=None)
def phi_x_in_xi(table, j, n):
    """Phi_j applied to x_n, expanded over xi via the exponential identity."""
    log_series = GradedSeries([WreathElement.zero(XI, 0, table.N)] + [
        phi_c_in_xi(table, j, i) * Fraction(1, i) for i in range(1, n + 1)])
    return exp(log_series)[n]


@lru_cache(maxsize=None)
def _monomial_in_xi(table, mp):
    """The PHI monomial mp expanded over xi."""
    return reduce(mul, [phi_x_in_xi(table, j, part) for j, lam in enumerate(mp)
                        for part in lam.parts], WreathElement.one(XI, table.N))


def xi_from_phi(element, table):
    """Expand a PHI-basis element over the xi-basis (a ring morphism)."""
    if element.basis == XI:
        return element
    acc = WreathElement.zero(XI, element.degree, element.ncomp)
    for mp, coeff in element.coeffs.items():
        acc = acc + coeff * _monomial_in_xi(table, mp)
    return acc


# ---------------------------------------------------------------------------
# generator series


def _phi_x_generator_series(table, j, order):
    """sum_i Phi_j(x_i) t^i over the PHI algebra."""
    return GradedSeries([WreathElement.one(PHI, table.N)]
                        + [WreathElement.generator(PHI, j, i, table.N)
                           for i in range(1, order + 1)])


@lru_cache(maxsize=None)
def xk_series(table, lattice, k, order):
    """The k-th generator series X_k(t); k is 1-based, 1 <= k <= N.

    For k <= M this is the product over all irreducibles j of the x-generator
    series raised to the integer exponent phi_{j,k}; for k > M it is the
    plain linear combination with those coefficients.  Cached, so the
    generators and the exchange check of a degree share one series.
    """
    if not 1 <= k <= table.N:
        raise ValueError("k out of range")
    terms = [(e, _phi_x_generator_series(table, j, order))
             for j, e in enumerate(lattice.phi.rows[k - 1]) if e]
    if k <= lattice.M:
        return reduce(mul, [int_power(factor, e) for e, factor in terms])
    return GradedSeries([reduce(add, [e * factor[i] for e, factor in terms])
                         for i in range(order + 1)])


def yk_generators(table, lattice, k, order):
    """Coefficients y_{k,0..order} of the quotient of the k-th generator series."""
    if not 1 <= k <= lattice.M:
        raise ValueError("k must index a lattice row (1..M)")
    return tuple(quotient_y(xk_series(table, lattice, k, order), lattice.p).coeffs)


# ---------------------------------------------------------------------------
# per-degree verification


def count_regular_classes(table, p, n):
    """Number of p-regular classes of G wr S_n."""
    return len(multipartitions(table.N, n,
                               part_filter=lambda v: v % p != 0,
                               component_filter=lambda idx: table.classes[idx].element_order % p))


def cycle_weight(table, lattice, k):
    """psi_k = sum_j phi_{kj} chi_j, the k-th lattice row as a virtual
    character of G, as a CycleWeight: the value of X_{k,n} on a class of
    G wr S_n is the product of psi_k(C) over its cycles, because the series
    of the Phi_j(x_i) is multiplicative in the character chi_j."""
    row = lattice.phi.rows[k - 1]
    d = len(table.characters[0].values[0])
    values = tuple(tuple(sum(e * chi.values[c][t] for e, chi in zip(row, table.characters))
                         for t in range(d))
                   for c in range(table.N))
    return CycleWeight(values, table.characters[0].element_orders, table.conductor)


def xk_closed_form(table, lattice, k, n):
    """X_{k,n} for a lattice row k <= M, with no series arithmetic.  X_k is the
    product over j of H_j^{e_j}, H_j = sum_i Phi_j(x_i) t^i and e_j = phi_{kj},
    and (1 + u)^e = sum_l (e)_l u^l / l! with (e)_l the falling factorial, so
    the coefficient of the Phi monomial rho is
        prod over j of (e_j)_{l(rho_j)} / prod over part values v of m_v(rho_j)!,
    an integer (a generalized binomial times a multinomial)."""
    exponents = lattice.phi.rows[k - 1]
    coeffs = {}
    for rho in multipartitions(table.N, n, component_filter=lambda j: exponents[j] != 0):
        coeff = 1
        for e, lam in zip(exponents, rho):
            coeff *= (prod(range(e, e - len(lam), -1))
                      // prod(map(factorial, lam.multiplicities().values())))
        coeffs[rho] = coeff
    return WreathElement(PHI, n, table.N, coeffs)


def xk_closed_series(table, lattice, k, order):
    """X_k(t) to the given order from xk_closed_form: independent of the
    series arithmetic that computes the generators, and with the value
    prod psi_k(C) over the cycles that modsym.generator_values evaluates."""
    return GradedSeries([xk_closed_form(table, lattice, k, i) for i in range(order + 1)])


def singular_index_rows(table, p, n):
    """One constraint row per p-singular class nu of degree n: the values
    X_rho(nu) of modsym.monomial_values as Cyclotomics of the table's
    conductor, columns in multipartitions(N, n) order.  Each row is
    Z_nu = prod over C of z(nu_C) * (|G|/|C|)^len(nu_C), the centralizer
    order of nu, times the xi_nu coefficients of the PHI monomials, so their
    integer solutions are the vanishing lattice; modsym.singular_constraints
    reads them off as integer coordinates."""
    m = table.conductor
    return [[Cyclotomic(m, coords) for coords in zip(*monomial_values(table.characters, cls))]
            for cls in singular_classes(table.characters, p, n)]


def verify_theorem2(table, p, n, lattice=None):
    """Check that the degree-n Y-monomials span exactly the lattice of integer
    PHI combinations whose xi-expansion is supported on p-regular indices."""
    start = time.perf_counter()
    check_packable(n)  # before the generator series, not only in monomial_matrix
    if lattice is None:
        lattice = e_lattice(table, p)
    generators = {k: yk_generators(table, lattice, k, n)
                  for k in range(1, lattice.M + 1)}
    monomials = monomial_matrix(lambda j, v: generators[j + 1][v], lattice.M, table.N,
                                p, n, {})
    vanish = None
    if all(satisfies_quotient(xk_closed_series(table, lattice, k, n), y[1:], p)
           for k, y in generators.items()):
        vanish = all(generators_vanish(cycle_weight(table, lattice, k), p, n)
                     for k in generators)
    return VerificationReport.decide(
        n, p, lambda: singular_constraints(table.characters, p, n),
        hnf_basis(monomials),
        count_regular_classes(table, p, n), start, vanish)


def generator_exchange_check(table, lattice, n):
    """True iff, in every degree i <= n, the linear parts of the X_{k,i} in the
    Phi_j(x_i) form exactly the (unimodular) completed lattice matrix, so the
    X's generate the same graded ring over Z."""
    n_irr = table.N
    if not is_unimodular(lattice.phi):
        return False
    series = [xk_series(table, lattice, k, n) for k in range(1, n_irr + 1)]
    for i in range(1, n + 1):
        for k in range(1, n_irr + 1):
            coeff = series[k - 1][i]
            for j in range(n_irr):
                comps = [EMPTY] * n_irr
                comps[j] = Partition((i,))
                if coeff.coeffs.get(MultiPartition(comps), 0) != lattice.phi.rows[k - 1][j]:
                    return False
    return True


def xk_exp_identity_check(table, lattice, k, order):
    """True iff X_k(t) expanded over xi equals exp(C_k(t)) with C_k supported on
    p-regular xi generators, for a lattice row k <= M."""
    if not 1 <= k <= lattice.M:
        raise ValueError("k must index a lattice row (1..M)")
    p = lattice.p
    n_comp = table.N
    exponents = lattice.phi.rows[k - 1]

    log_coeffs = [WreathElement.zero(XI, 0, n_comp)]
    for i in range(1, order + 1):
        acc = WreathElement.zero(XI, i, n_comp)
        for c_index, cls in enumerate(table.classes):
            scalar = Cyclotomic.from_rational(0)
            for j in range(n_comp):
                scalar = scalar + (exponents[j]
                                   * table.irreducibles[j].values[c_index]
                                   * Fraction(cls.size, table.order))
            if cls.element_order % p == 0:
                if scalar:
                    return False
                continue
            comps = [EMPTY] * n_comp
            comps[c_index] = Partition((i,))
            acc = acc + WreathElement(XI, i, n_comp,
                                      {MultiPartition(comps): scalar * Fraction(1, i)})
        log_coeffs.append(acc)

    rhs = exp(GradedSeries(log_coeffs))
    xk = xk_series(table, lattice, k, order)
    lhs = GradedSeries([xi_from_phi(c, table) for c in xk.coeffs])
    return lhs == rhs
