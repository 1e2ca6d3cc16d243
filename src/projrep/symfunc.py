"""The sparse graded algebra both engines compute in, and its first instance:
the graded ring of symmetric functions in the x-basis (complete homogeneous
generators) and c-basis (power-sum generators), with exact base change,
class-function values, and two independent character oracles."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb

from .exactlin import conj
from .partitions import EMPTY, Partition, partitions, z

X = "x"
C = "c"


class GradedElement:
    """A homogeneous element of a graded algebra with a monomial basis: a sparse
    map from the indices of one degree to nonzero coefficients, multiplied by
    merging indices.  A subclass fixes its bases (BASES), the index type
    (INDEX, with .size and .merge), how a coefficient is coerced (scalar), the
    attributes that name its algebra (_SPACE, and their values _space), and
    how elements are built in the same algebra (_like, _unit).

    The constructor checks every index and coefficient.  Sums, negations and
    products of two elements are built by _trusted without those checks:
    merged indices of valid indices are valid, of the summed degree, and the
    scalars of an algebra are closed under +, - and *.  Multiplication by a
    scalar from outside goes through the constructor."""

    __slots__ = ("basis", "degree", "coeffs")
    _SPACE = ("basis",)

    def __init__(self, basis, degree, coeffs):
        if basis not in self.BASES:
            raise ValueError("unknown basis %r" % (basis,))
        # the basis first: a subclass's scalar may depend on it
        object.__setattr__(self, "basis", basis)
        clean = {}
        for index, coeff in coeffs.items():
            index = self._index(index)
            if index.size != degree:
                raise ValueError("index %s does not have degree %d" % (index, degree))
            coeff = self.scalar(coeff)
            if coeff:
                clean[index] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _index(self, index):
        return index if isinstance(index, self.INDEX) else self.INDEX(index)

    def _trusted(self, degree, coeffs):
        """An element of this one's algebra from coefficients that are valid by
        construction; only the zeros are dropped (by _nonzero)."""
        element = object.__new__(type(self))
        for name in self._SPACE:
            object.__setattr__(element, name, getattr(self, name))
        object.__setattr__(element, "degree", degree)
        object.__setattr__(element, "coeffs", self._nonzero(coeffs))
        return element

    @staticmethod
    def _nonzero(coeffs):
        return {index: coeff for index, coeff in coeffs.items() if coeff}

    def _space(self):
        return self.basis

    @classmethod
    def zero(cls, *args):
        """The zero element; args are the constructor's, without coeffs."""
        return cls(*args, {})

    @classmethod
    def one(cls, basis, *args):
        """The unit; args are the constructor's, without degree and coeffs."""
        return cls.zero(basis, 0, *args) ** 0

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (type(other) is type(self) and self._space() == other._space()
                and self.degree == other.degree and self.coeffs == other.coeffs)

    __hash__ = None

    def _check_compatible(self, other):
        if self._space() != other._space():
            raise ValueError("incompatible elements: %s vs %s"
                             % (self._space(), other._space()))

    def __add__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("mixed degrees: %d vs %d" % (self.degree, other.degree))
        coeffs = dict(self.coeffs)
        for index, coeff in other.coeffs.items():
            coeffs[index] = coeffs[index] + coeff if index in coeffs else coeff
        return self._trusted(self.degree, coeffs)

    def __neg__(self):
        return self._trusted(self.degree, {index: -c for index, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            return self._like(self.degree,
                              {index: c * other for index, c in self.coeffs.items()})
        self._check_compatible(other)
        coeffs = {}
        for index, a in self.coeffs.items():
            for other_index, b in other.coeffs.items():
                key = index.merge(other_index)
                coeffs[key] = coeffs[key] + a * b if key in coeffs else a * b
        return self._trusted(self.degree + other.degree, coeffs)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = self._like(0, {self._unit(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def sorted_terms(self):
        """The (index, coefficient) pairs, indices in decreasing order."""
        return [(index, self.coeffs[index]) for index in sorted(self.coeffs, reverse=True)]

    def __repr__(self):
        return "%s(%r, %d, %s)" % (type(self).__name__, self.basis, self.degree, self)


class SymElement(GradedElement):
    """A homogeneous symmetric function: rational coefficients on partitions,
    stored as int when integral and as Fraction otherwise."""

    __slots__ = ()
    BASES = (X, C)
    INDEX = Partition

    @staticmethod
    def scalar(coeff):
        if type(coeff) is int:
            return coeff
        coeff = Fraction(coeff)
        return coeff.numerator if coeff.denominator == 1 else coeff

    @staticmethod
    def _nonzero(coeffs):
        # a sum or product of Fractions may be integral
        return {index: coeff if type(coeff) is int or coeff.denominator != 1
                else coeff.numerator
                for index, coeff in coeffs.items() if coeff}

    def _like(self, degree, coeffs):
        return SymElement(self.basis, degree, coeffs)

    def _unit(self):
        return EMPTY

    @classmethod
    def generator(cls, basis, n):
        """The degree-n generator: x_n or c_n."""
        return cls.monomial(basis, (n,) if n else ())

    @classmethod
    def monomial(cls, basis, lam, coeff=1):
        lam = Partition(lam)
        return cls(basis, lam.size, {lam: coeff})

    def __str__(self):
        def name(v):
            return "%s%d" % (self.basis, v)
        return render_terms([(coeff, "*".join(generator_powers(lam, name)))
                             for lam, coeff in self.sorted_terms()])


def generator_powers(lam, name):
    """The factors of the monomial lam, largest generator first, e.g. x3, x2^2;
    name(v) is the text of the degree-v generator."""
    mults = lam.multiplicities()
    return [name(v) if mults[v] == 1 else "%s^%d" % (name(v), mults[v])
            for v in sorted(mults, reverse=True)]


def render_terms(terms):
    """A sum of rational multiples of monomials as text, e.g. x3 - 2*x2*x1 + 1/2,
    from (coefficient, monomial text) pairs, "" for the unit monomial."""
    pieces = []
    for coeff, mono in terms:
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else "%s*%s" % (mag, mono)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# base change


@lru_cache(maxsize=None)
def _x_monomial_in_c(lam):
    """x_lam in the c-basis: product over parts of x_n = sum_{mu |- n} c_mu / z_mu."""
    result = SymElement.one(C)
    for part in lam.parts:
        gen = SymElement(C, part,
                         {mu: Fraction(1, z(mu)) for mu in partitions(part)})
        result = result * gen
    return result


@lru_cache(maxsize=None)
def _c_generator_in_x(n):
    """c_n in the x-basis via the Newton recurrence c_n = n*x_n - sum c_i * x_{n-i}."""
    if n == 0:
        return SymElement.one(X)
    acc = Fraction(n) * SymElement.generator(X, n)
    for i in range(1, n):
        acc = acc - _c_generator_in_x(i) * SymElement.generator(X, n - i)
    return acc


@lru_cache(maxsize=None)
def _c_monomial_in_x(lam):
    result = SymElement.one(X)
    for part in lam.parts:
        result = result * _c_generator_in_x(part)
    return result


def x_to_c(element):
    """Convert from the x-basis to the c-basis (a ring morphism on monomials)."""
    if element.basis == C:
        return element
    acc = SymElement.zero(C, element.degree)
    for lam, coeff in element.coeffs.items():
        acc = acc + coeff * _x_monomial_in_c(lam)
    return acc


def c_to_x(element):
    """Convert from the c-basis to the x-basis; exact inverse of x_to_c."""
    if element.basis == X:
        return element
    acc = SymElement.zero(X, element.degree)
    for lam, coeff in element.coeffs.items():
        acc = acc + coeff * _c_monomial_in_x(lam)
    return acc


# ---------------------------------------------------------------------------
# class-function values


class ClassValues:
    """Values of a degree-n class function on each class (partition) of S_n."""

    __slots__ = ("degree", "values")

    def __init__(self, degree, values):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", dict(values))
        if set(self.values) != set(partitions(degree)):
            raise ValueError("values must cover every class of S_%d" % degree)

    def __setattr__(self, name, value):
        raise AttributeError("ClassValues is immutable")

    def __getitem__(self, mu):
        if not isinstance(mu, Partition):
            mu = Partition(mu)
        return self.values[mu]

    def __eq__(self, other):
        return (isinstance(other, ClassValues) and self.degree == other.degree
                and self.values == other.values)

    __hash__ = None

    def as_tuple(self):
        """Values on classes in increasing lexicographic order ((1^n) first)."""
        return tuple(self.values[mu] for mu in sorted(partitions(self.degree)))

    def __repr__(self):
        return "ClassValues(%d, %r)" % (self.degree, self.as_tuple())


def class_values(element):
    """Evaluate on conjugacy classes: the value on class mu is z_mu * [c_mu]."""
    c = x_to_c(element)
    return ClassValues(c.degree,
                       {mu: z(mu) * c.coeffs.get(mu, Fraction(0))
                        for mu in partitions(c.degree)})


def inner_product(a, b):
    """Standard class-function pairing: sum over mu of a(mu)*conj(b(mu))/z_mu."""
    if a.degree != b.degree:
        raise ValueError("mixed degrees")
    total = Fraction(0)
    for mu in partitions(a.degree):
        total = total + a[mu] * conj(b[mu]) * Fraction(1, z(mu))
    return total


# ---------------------------------------------------------------------------
# independent character oracles


def perm_char_value(lam, mu):
    """Value at class mu of the permutation character induced from S_lam.

    Counts assignments of the (distinguishable) cycles of a permutation of
    type mu to the ordered parts of lam so that the lengths assigned to part
    i sum to lam_i.
    """
    if lam.size != mu.size:
        raise ValueError("sizes differ")
    mults = mu.multiplicities()
    lengths = sorted(mults)
    start = tuple(mults[v] for v in lengths)
    cache = {}

    def ways(part_index, avail):
        if part_index == len(lam.parts):
            return 1
        key = (part_index, avail)
        if key in cache:
            return cache[key]
        target = lam.parts[part_index]
        total = 0

        def choose(i, remaining, factor, left):
            nonlocal total
            if i == len(lengths):
                if remaining == 0:
                    total += factor * ways(part_index + 1, tuple(left))
                return
            cap = min(avail[i], remaining // lengths[i])
            for take in range(cap + 1):
                choose(i + 1, remaining - take * lengths[i],
                       factor * comb(avail[i], take), left + [avail[i] - take])

        choose(0, target, 1, [])
        cache[key] = total
        return total

    return ways(0, start)


def _beta_set(parts):
    ell = len(parts)
    return tuple(parts[i] + (ell - 1 - i) for i in range(ell))


def _partition_from_beta(beta):
    ell = len(beta)
    ordered = sorted(beta, reverse=True)
    parts = [ordered[i] - (ell - 1 - i) for i in range(ell)]
    return tuple(v for v in parts if v)


@lru_cache(maxsize=None)
def _mn(lam_parts, mu_parts):
    if not mu_parts:
        return 1
    r = mu_parts[0]
    rest = mu_parts[1:]
    beta = _beta_set(lam_parts)
    beta_lookup = set(beta)
    total = 0
    for f in beta:
        low = f - r
        if low < 0 or low in beta_lookup:
            continue
        height = sum(1 for g in beta if low < g < f)
        new_parts = _partition_from_beta(tuple(g for g in beta if g != f) + (low,))
        total += (-1) ** height * _mn(new_parts, rest)
    return total


def mn_character(lam, mu):
    """Irreducible character value chi_lam(mu) via the border-strip recursion."""
    if lam.size != mu.size:
        raise ValueError("sizes differ")
    return _mn(lam.parts, mu.parts)


def _perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def schur_in_x(lam):
    """Schur element via the Jacobi-Trudi determinant det(x_{lam_i - i + j})."""
    ell = len(lam.parts)
    if ell == 0:
        return SymElement.one(X)
    coeffs = {}
    for sigma in permutations(range(ell)):
        indices = [lam.parts[i] - i + sigma[i] for i in range(ell)]
        if any(ix < 0 for ix in indices):
            continue
        key = Partition(sorted((ix for ix in indices if ix > 0), reverse=True))
        coeffs[key] = coeffs.get(key, 0) + _perm_sign(sigma)
    return SymElement(X, lam.size, coeffs)
