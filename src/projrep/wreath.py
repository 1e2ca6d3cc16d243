"""Wreath products: character-table ingestion, the graded algebra of the
wreath products G wr S_n in the xi- and Phi-monomial bases, the vanishing
lattice of G (degree 1 of the wreath lattice) with unimodular completion,
the X_k/Y_k generator series, and theorem 2, verified degree by degree in a
modsym.Run of the table's characters and the lattice rows (lattice_run),
with the generator exchange check read off that run's closed forms."""

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import add, mul

from .exactlin import Cyclotomic, euler_phi, integer_kernel, is_unimodular, unimodular_complete
# unused here, but perfbench/layers.py patches these wreath names
from .exactlin import hnf_basis, rational_kernel  # noqa: F401
from .modsym import CycleWeight, Run, check_packable, part_key, singular_constraints
from .partitions import EMPTY, MultiPartition, Partition
from .series import GradedSeries, exp, int_power, quotient_y
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
        element_orders = tuple(c.element_order for c in self.classes)
        self.characters = tuple(
            CycleWeight(tuple(v.rational_coords() for v in row), element_orders, conductor)
            for row in self._validate())

    @property
    def N(self):
        return len(self.classes)

    def _validate(self):
        """Check the table, and return its values lifted to Q(zeta_m), m the
        conductor, each once; none before the width of m is checked."""
        if self.order < 1:
            raise TableError("group order must be positive")
        if self.conductor < 1:
            raise TableError("conductor must be >= 1")
        # phi(m) >= sqrt(m / 2) > 2^15 once m > 2^31: so wide a conductor is
        # refused on m itself, which bounds phi(m), without factoring it
        m = self.conductor
        try:
            check_packable(1, euler_phi(m) if m <= 1 << 31 else m)
        except ValueError as err:
            raise TableError("conductor %d is too large: %s" % (m, err))
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
        # zeta_m -> zeta_m^k with k a unit modulo m and k = 1 modulo d.  A
        # rational value lies in every field, so only the others are checked.
        for j, c in enumerate(self.classes):
            irrational = [irr for irr in self.irreducibles if not irr.values[j].is_rational()]
            if not irrational:
                continue
            d = gcd(c.element_order, m)
            fixing = [k for k in range(1, m + 1) if gcd(k, m) == 1 and (k - 1) % d == 0]
            for irr in irrational:
                if any(irr.values[j].galois(k) != irr.values[j] for k in fixing):
                    raise TableError(
                        "value of %s on class %s (element order %d) does not lie "
                        "in Q(zeta_%d)" % (irr.label, c.label, c.element_order, d))
        values = [[v.lift(m) for v in irr.values] for irr in self.irreducibles]
        # each |C| * value and each conjugate once, not once per pair of rows
        sized = [[c.size * v for c, v in zip(self.classes, row)] for row in values]
        conjugates = [[v.conjugate() for v in row] for row in values]
        zero, order = Cyclotomic.from_rational(0, m), Cyclotomic.from_rational(self.order, m)
        for i, a in enumerate(self.irreducibles):
            for j, b in enumerate(self.irreducibles):
                if sum(map(mul, sized[i], conjugates[j]), zero) != (order if i == j else zero):
                    raise TableError(
                        "row orthogonality fails for %s and %s" % (a.label, b.label))
        return values

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


def xk_series(table, lattice, k, order):
    """The k-th generator series X_k(t); k is 1-based, 1 <= k <= N.

    For k <= M this is the product over all irreducibles j of the x-generator
    series raised to the integer exponent phi_{j,k}; for k > M it is the
    plain linear combination with those coefficients.
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


def lattice_run(table, lattice):
    """The modsym.Run of the table's characters and lattice rows phi_k, k <= M."""
    return Run(table.characters, lattice.phi.rows[:lattice.M], lattice.p)


def verify_theorem2(table, p, n, lattice=None, run=None):
    """Check that the degree-n Y-monomials span exactly the lattice of integer
    PHI combinations whose xi-expansion is supported on p-regular indices, in
    run, a lattice_run, or else in a fresh one of lattice (or e_lattice)."""
    if run is None:
        run = lattice_run(table, lattice or e_lattice(table, p))
    return run.verify(n)


def generator_exchange_check(table, lattice, n, run=None):
    """True iff, in every degree i <= n, the linear parts of the X_{k,i} in the
    Phi_j(x_i) form exactly the (unimodular) completed lattice matrix, so the
    X's generate the same graded ring over Z; in run, the lattice_run, or
    else in a fresh one.

    For a lattice row k <= M, Run.linked certifies X_{k,0..n} = Run.xk by
    the power rule, and the coefficient of Phi_j(x_i) is read off the closed
    form at its key.  A row k > M is sum_j e_j Phi_j(x_i) by the definition
    of xk_series, so its linear part is the row itself and there is nothing
    to check."""
    if not is_unimodular(lattice.phi):
        return False
    check_packable(n)
    run = run or lattice_run(table, lattice)
    return all(run.linked(k, n) and all(run.xk(k, i).get(part_key(table.N, j, i), 0) == e
                                        for i in range(1, n + 1) for j, e in enumerate(row))
               for k, row in enumerate(run.rows))
