"""Wreath-product engine: character-table ingestion, the graded algebra of the
wreath products G wr S_n in the xi- and Phi-monomial bases, the vanishing
lattice of G (degree 1 of the wreath lattice) with unimodular completion,
the X_k/Y_k generator series, and the one per-degree verification engine,
which also runs S_n as the case G = 1.  The class values and the
constraint matrix of the fallback come from modsym."""

import json
import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, prod
from operator import add, mul

from .exactlin import (Cyclotomic, conj, euler_phi, hnf_basis, integer_kernel,
                       is_unimodular, unimodular_complete)
# unused here, but perfbench/layers.py patches wreath.rational_kernel by name
from .exactlin import rational_kernel  # noqa: F401
from .modsym import (CycleWeight, VerificationReport, check_packable, generators_vanish,
                     monomial_matrix, monomial_values, singular_constraints)
from .partitions import EMPTY, MultiPartition, Partition, count_multipartitions, partitions
from .series import (GradedSeries, exp, int_power, power_coefficient, quotient_y,
                     satisfies_quotient, y_explicit)
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
        # zeta_m -> zeta_m^k with k a unit modulo m and k = 1 modulo d.
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


def cycle_weight(characters, exponents):
    """psi_k = sum_j e_j chi_j for the row e = phi_k, as a CycleWeight: X_{k,n}
    is prod psi_k(C) over the cycles of a class.  (SYM_CHARACTERS, (1,)) gives SYM_WEIGHT."""
    first = characters[0]
    values = tuple(tuple(sum(e * chi.values[c][t] for e, chi in zip(exponents, characters))
                         for t in range(len(first.values[0])))
                   for c in range(len(first.values)))
    return CycleWeight(values, first.element_orders, first.conductor)


def _nonzero_support(exponents, n):
    """The rho of degree n whose power_coefficient(e_j, rho_j) are all nonzero:
    rho_j has at most e_j parts where e_j >= 0."""
    e, rest = exponents[0], exponents[1:]
    tails = {s: list(_nonzero_support(rest, n - s)) if rest else [()]
             for s in (range(n + 1) if rest else (n,))}
    return [(lam,) + tail for s in tails for lam in partitions(s)
            if e < 0 or len(lam) <= e for tail in tails[s]]


@lru_cache(maxsize=None)
def xk_closed_form(exponents, n):
    """X_{k,n} for the row e = phi_k, k <= M: X_k = prod_j H_j^{e_j}, H_j = sum_i
    Phi_j(x_i) t^i, so rho has the coefficient prod_j power_coefficient(e_j, rho_j)."""
    return WreathElement(PHI, n, len(exponents), {
        MultiPartition._trusted(rho): prod(map(power_coefficient, exponents, rho))
        for rho in _nonzero_support(exponents, n)})


@lru_cache(maxsize=None)
def _x_monomial(exponents, parts):
    """x_parts with each x_i replaced by X_{k,i}: one product per new call."""
    first = xk_closed_form(exponents, parts[0])
    return first * _x_monomial(exponents, parts[1:]) if parts[1:] else first


@lru_cache(maxsize=None)
def yk_closed_form(exponents, p, n):
    """y_{k,n}: y_explicit(n, p) with each x_i replaced by X_{k,i}, a ring map
    taking H to X_k, S to S_k and so 1 + Y = H / S to 1 + Y_k = X_k / S_k."""
    coeffs = {}
    for lam, coeff in y_explicit(n, p).coeffs.items():
        for rho, value in _x_monomial(exponents, lam.parts).coeffs.items():
            coeffs[rho] = coeffs.get(rho, 0) + coeff * value
    return WreathElement(PHI, n, len(exponents), coeffs)


def _power_rule(x, j, e):
    """True iff x = X_{k,0..n} satisfies the degree-n part of H_j D_j X_k =
    e_j X_k D H_j, sum_i Phi_j(x_i) (D_j - e_j i) X_{k,n-i} = 0, D_j
    multiplying the Phi monomial rho by |rho_j|, as X_k = prod_j H_j^{e_j}
    does.  Its term i = 0 is D_j X_{k,n}, so with X_{k,0} = 1 the rule for
    every j fixes X_{k,n} from the lower degrees, with no power_coefficient."""
    total = {}
    for i, lower in enumerate(reversed(x)):
        h = MultiPartition([(i,) if t == j else () for t in range(lower.ncomp)]) if i else None
        for rho, c in lower.coeffs.items():
            key = rho.merge(h) if i else rho
            total[key] = total.get(key, 0) + c * (rho[j].size - e * i)
    return not any(total.values())


@lru_cache(maxsize=None)
def _linked(exponents, p, n):
    """The closed forms are the true X_k and Y_k in every degree <= n,
    checking one new degree per call: X_{k,n} by _power_rule for every j,
    then y_{k,n} by the link X_k = S_k * (1 + Y_k) (series.satisfies_quotient)."""
    x = [xk_closed_form(exponents, i) for i in range(n + 1)]
    if n == 0:
        return x[0] == WreathElement.one(PHI, len(exponents))
    return (_linked(exponents, p, n - 1)
            and all(_power_rule(x, j, e) for j, e in enumerate(exponents))
            and satisfies_quotient(GradedSeries(x), [yk_closed_form(exponents, p, i)
                                                     for i in range(1, n + 1)], p, (n,)))


@lru_cache(maxsize=None)
def _monomial_memo(rows, p):
    """The product memo of generator_monomials, kept for the run: a row's
    product after its first factor is a row of a lower degree."""
    return {}


def generator_monomials(rows, p, n):
    """The coordinates of the degree-n monomials in the y_{k,v} of the rows."""
    return monomial_matrix(lambda j, v: yk_closed_form(rows[j], p, v), len(rows),
                           len(rows[0]), p, n, _monomial_memo(rows, p))


def verify_degree(characters, rows, p, n):
    """The report on degree n of G wr S_n, G given by its integer characters and
    lattice rows phi_k, k <= M, as tuples (S_n: SYM_CHARACTERS and the row (1,))."""
    start = time.perf_counter()
    monomial_hnf = hnf_basis(generator_monomials(rows, p, n))
    generators = None
    if all(_linked(row, p, n) for row in rows):
        generators = all(generators_vanish(cycle_weight(characters, row), p, n)
                         for row in rows)
    regular = sum(order % p != 0 for order in characters[0].element_orders)
    return VerificationReport.decide(
        n, p, lambda: singular_constraints(characters, p, n), monomial_hnf,
        count_multipartitions(regular, n, lambda v: v % p), start, generators)


def singular_index_rows(table, p, n):
    """One constraint row per p-singular class nu of degree n: the values
    X_rho(nu) of modsym.monomial_values as Cyclotomics of the table's
    conductor, columns in multipartitions(N, n) order.  Each row is
    Z_nu = prod over C of z(nu_C) * (|G|/|C|)^len(nu_C), the centralizer
    order of nu, times the xi_nu coefficients of the PHI monomials, so their
    integer solutions are the vanishing lattice; modsym.singular_constraints
    reads them off as integer coordinates."""
    m, width = table.conductor, len(table.characters[0].values[0])
    rows = list(zip(*monomial_values(table.characters, n, p)))
    return [[Cyclotomic(m, coords) for coords in zip(*rows[i:i + width])]
            for i in range(0, len(rows), width)]


def verify_theorem2(table, p, n, lattice=None):
    """Check that the degree-n Y-monomials span exactly the lattice of integer
    PHI combinations whose xi-expansion is supported on p-regular indices."""
    if lattice is None:
        lattice = e_lattice(table, p)
    return verify_degree(table.characters, lattice.phi.rows[:lattice.M], p, n)


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
