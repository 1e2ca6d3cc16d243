"""Exact scalars (rationals, cyclotomics) and integer/rational linear algebra.

All arithmetic is exact: rationals are ints or fractions.Fraction,
cyclotomics are canonical power-basis vectors over Q, matrices hold
arbitrary-precision integers.  Everything is immutable and every function is pure.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm, prod

Rational = Fraction


# ---------------------------------------------------------------------------
# cyclotomic fields


def _prime_factors(m):
    """The distinct prime factors of m >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] if m > 1 else primes


@lru_cache(maxsize=None)
def euler_phi(m):
    result = m
    for q in _prime_factors(m):
        result -= result // q
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic.

    Phi_m is the product over d | m of (x^d - 1)^mu(m/d) (Moebius inversion
    of x^m - 1 = prod over d | m of Phi_d), and mu(m/d) is nonzero only for
    m/d a product of distinct primes of m.  So Phi_m is the product of the
    binomials with mu = 1, divided exactly by those with mu = -1: each step
    costs one pass over the coefficients."""
    primes = _prime_factors(m)
    binomials = ([], [])
    for mask in range(1 << len(primes)):
        chosen = [q for i, q in enumerate(primes) if mask >> i & 1]
        binomials[len(chosen) % 2].append(m // prod(chosen))
    poly = [1]
    for d in binomials[0]:
        # times x^d - 1
        poly = [high - low for high, low in zip([0] * d + poly, poly + [0] * d)]
    for d in binomials[1]:
        # divided by x^d - 1: poly[i] = quot[i - d] - quot[i]
        quot = []
        for i in range(len(poly) - d):
            quot.append((quot[i - d] if i >= d else 0) - poly[i])
        if poly[len(quot):] != ([0] * d + quot)[len(quot):]:
            raise ArithmeticError("polynomial division not exact")
        poly = quot
    return tuple(poly)


def _rational(value):
    """A coordinate that is not an int in canonical form: an int when
    integral, else a Fraction."""
    value = value if isinstance(value, Fraction) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _reduce_power_basis(m, coeffs):
    """Reduce sum coeffs[i]*zeta_m^i modulo Phi_m to the canonical degree-<phi(m)
    form, whose coordinates are ints where integral (see _rational)."""
    deg = euler_phi(m)
    phi_m = cyclotomic_polynomial(m)
    work = [c if type(c) is int else _rational(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg):
                work[i - deg + j] -= c * phi_m[j]
    work = work[:deg]
    work.extend([0] * (deg - len(work)))
    return tuple([c if type(c) is int else _rational(c) for c in work])


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced in the power basis.

    The conductor of a sum or product is the lcm of the operand conductors;
    no automatic descent to subfields is performed, so elements are compared
    by lifting to a common conductor.  Unhashable by design.

    A coordinate is an int where it is integral and a Fraction otherwise, so
    the form stays canonical, the coordinates of an algebraic integer are all
    ints, and arithmetic on them builds no Fraction.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        conductor = _integer(conductor)
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", _reduce_power_basis(conductor, coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def zeta(cls, m, power=1):
        power %= m
        return cls(m, [0] * power + [1])

    @classmethod
    def from_rational(cls, value, conductor=1):
        return cls(conductor, [value])

    @staticmethod
    def _coerce(value):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic(1, [value])
        return NotImplemented

    def lift(self, conductor):
        """Rewrite over Q(zeta_M) for a multiple M of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        out = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Cyclotomic(conductor, out)

    def _matched(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return None
        m = lcm(self.conductor, other.conductor)
        return (self if self.conductor == m else self.lift(m),
                other if other.conductor == m else other.lift(m))

    def __add__(self, other):
        pair = self._matched(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._matched(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [c * other for c in self.coeffs])
        pair = self._matched(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
        return Cyclotomic(a.conductor, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [c / Fraction(other) for c in self.coeffs])
        return NotImplemented

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = Cyclotomic(self.conductor, [1])
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def galois(self, k):
        """The automorphism zeta_m -> zeta_m^k, for k coprime to the conductor m."""
        m = self.conductor
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            out[i * k % m] += c
        return Cyclotomic(m, out)

    def conjugate(self):
        """Complex conjugation, zeta_m -> zeta_m^(m-1)."""
        return self.galois(-1)

    def __eq__(self, other):
        pair = self._matched(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coeffs == b.coeffs

    __hash__ = None

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational value: %s" % self)
        return self.coeffs[0]

    def rational_coords(self):
        """Canonical coordinates over Q: phi(conductor) rationals, ints where integral."""
        return self.coeffs

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.conductor, [str(c) for c in self.coeffs])

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append("z%d^%d" % (self.conductor, i))
            else:
                terms.append("%s*z%d^%d" % (c, self.conductor, i))
        return " + ".join(terms)


def conj(value):
    """Complex conjugation on any exact scalar."""
    if isinstance(value, Cyclotomic):
        return value.conjugate()
    return value


# ---------------------------------------------------------------------------
# integer matrices


def _integer(value):
    """value as an int; ValueError unless it is an integer value.  Strings and
    non-integral numbers are rejected, not parsed or truncated."""
    if type(value) is int:
        return value
    if not isinstance(value, (str, bytes)):
        try:
            result = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if result == value:
                return result
    raise ValueError("not an integer: %r" % (value,))


def _sparse_row(row):
    """The sparse form (columns, values) of a dense row."""
    columns = tuple(compress(range(len(row)), row))
    return columns, tuple(filter(None, row))


def _dense_row(row, ncols):
    """The dense form of a sparse row (columns, values) of width ncols."""
    dense = [0] * ncols
    for column, value in zip(*row):
        dense[column] = value
    return tuple(dense)


class IntMatrix:
    """An immutable matrix of arbitrary-precision integers, held as sparse rows.

    A sparse row is a pair (columns, values): the columns of its nonzero
    entries in increasing order and those entries, so `sparse_rows`, the one
    stored form, is canonical.  `rows` (int tuples of width ncols), `[i]` and
    `to_lists()` build the dense form at each read and keep nothing.
    Equality, hashing, the HNF inspection, the unit-pivot check and the
    report writer read the sparse rows; the elimination, transpose and
    products read the dense rows once per call.

    The constructor is the one place that checks entries and shape.  Results
    computed from valid matrices (HNF and transform, transpose, products) are
    built by _trusted from dense rows, or by _trusted_sparse from sparse
    rows, which skip the checks: their rows are ints of one width by
    construction."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(map(_integer, row)) for row in rows)
        if ncols is not None:
            ncols = _integer(ncols)
            if ncols < 0:
                raise ValueError("ncols must be >= 0")
        if rows:
            widths = {len(row) for row in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        self._fill(tuple(map(_sparse_row, rows)), ncols)

    def _fill(self, sparse_rows, ncols):
        object.__setattr__(self, "sparse_rows", sparse_rows)
        object.__setattr__(self, "nrows", len(sparse_rows))
        object.__setattr__(self, "ncols", ncols)
        return self

    @classmethod
    def _trusted(cls, rows, ncols):
        """A matrix from rows that are int sequences of width ncols, unchecked."""
        return cls._trusted_sparse(map(_sparse_row, rows), ncols)

    @classmethod
    def _trusted_sparse(cls, rows, ncols):
        """A matrix from sparse rows (columns, values) of width ncols, each a
        pair of tuples with increasing columns and no zero value, unchecked."""
        return object.__new__(cls)._fill(tuple(rows), ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def rows(self):
        """The dense rows, built from the sparse ones at each read."""
        return tuple(_dense_row(row, self.ncols) for row in self.sparse_rows)

    @classmethod
    def identity(cls, n):
        return cls._trusted_sparse([((i,), (1,)) for i in range(n)], n)

    def __eq__(self, other):
        return self is other or (isinstance(other, IntMatrix) and self.ncols == other.ncols
                                 and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.sparse_rows, self.ncols))

    def __getitem__(self, i):
        return _dense_row(self.sparse_rows[i], self.ncols)

    def transpose(self):
        if self.nrows:
            return IntMatrix._trusted(zip(*self.rows), self.nrows)
        return IntMatrix._trusted([()] * self.ncols, 0)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows)) if other.nrows else []
        return IntMatrix._trusted(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows],
            other.ncols)

    def to_lists(self):
        return [list(row) for row in self.rows]

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_lists(),)


def _xgcd(a, b):
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0.

    When a divides b the result is (|a|, sign(a), 0), so that the derived 2x2
    elimination transform leaves the pivot row fixed.  H does not depend on
    this choice, but the transform U does, and with U the rows that
    unimodular_complete adds to a lattice basis (the completed lattice matrix
    of every bundled table) and the kernel rows that integer_kernel reduces;
    the case keeps them fixed.
    """
    if a and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon_pivots(rows):
    """The pivot columns of the nonzero sparse rows, if rows are in echelon
    form with positive pivots and every zero row at the bottom; else None.
    A row's pivot is its first column."""
    pivots = []
    for columns, values in rows:
        if not columns or values[0] < 0:
            break
        if pivots and columns[0] <= pivots[-1]:
            return None
        pivots.append(columns[0])
    # the rows from the first without a positive pivot on must all be zero
    if any(columns for columns, _ in rows[len(pivots):]):
        return None
    return pivots


def _is_hnf(rows):
    """True iff the sparse rows are in row HNF: echelon form with positive
    pivots, zero rows at the bottom, and every entry above a pivot in
    [0, pivot).  The entries in pivot columns are found against a column ->
    pivot map, and a row with none past its own pivot is passed in C."""
    if _echelon_pivots(rows) is None:
        return False
    heads = {columns[0]: values[0] for columns, values in rows if columns}
    for columns, values in rows:
        if not heads.keys().isdisjoint(columns[1:]) and not all(
                0 < v < heads[c] for c, v in zip(columns[1:], values[1:]) if c in heads):
            return False
    return True


def hnf_with_transform(matrix):
    """Row-style Hermite normal form H with a unimodular U such that U @ matrix = H.

    A matrix already in HNF is returned with the identity: the elimination
    performs no operation on it, so both results are the elimination's."""
    if _is_hnf(matrix.sparse_rows):
        return matrix, IntMatrix.identity(matrix.nrows)
    return _eliminate(matrix)


def _eliminate(matrix):
    """hnf_with_transform by elimination, on any matrix."""
    # every step replaces whole rows, so the rows start as the input tuples
    a = list(matrix.rows)
    nr, nc = matrix.nrows, matrix.ncols
    u = list(IntMatrix.identity(nr).rows)
    pr = 0
    for c in range(nc):
        piv = next((i for i in range(pr, nr) if a[i][c]), None)
        if piv is None:
            continue
        for i in range(piv + 1, nr):
            if not a[i][c]:
                continue
            g, x, y = _xgcd(a[piv][c], a[i][c])
            p, q = a[piv][c] // g, a[i][c] // g
            a[piv], a[i] = ([x * rp + y * ri for rp, ri in zip(a[piv], a[i])],
                            [-q * rp + p * ri for rp, ri in zip(a[piv], a[i])])
            u[piv], u[i] = ([x * rp + y * ri for rp, ri in zip(u[piv], u[i])],
                            [-q * rp + p * ri for rp, ri in zip(u[piv], u[i])])
        a[pr], a[piv] = a[piv], a[pr]
        u[pr], u[piv] = u[piv], u[pr]
        if a[pr][c] < 0:
            a[pr] = [-v for v in a[pr]]
            u[pr] = [-v for v in u[pr]]
        for r in range(pr):
            q = a[r][c] // a[pr][c]
            if q:
                a[r] = [v - q * w for v, w in zip(a[r], a[pr])]
                u[r] = [v - q * w for v, w in zip(u[r], u[pr])]
        pr += 1
        if pr == nr:
            break
    return IntMatrix._trusted(a, nc), IntMatrix._trusted(u, nr)


def hnf(matrix):
    """Row-style HNF: upper echelon, positive pivots, entries above a pivot in [0, pivot)."""
    return hnf_with_transform(matrix)[0]


def hnf_basis(matrix):
    """HNF with zero rows dropped: the canonical basis of the row-span lattice."""
    h = hnf(matrix)
    rows = [(columns, values) for columns, values in h.sparse_rows if columns]
    return h if len(rows) == h.nrows else IntMatrix._trusted_sparse(rows, h.ncols)


def integer_kernel(matrix):
    """Z-basis (HNF-canonical) of {v in Z^ncols : matrix @ v = 0}; saturated."""
    h, u = hnf_with_transform(matrix.transpose())
    kernel_rows = [row for row, (columns, _) in zip(u.sparse_rows, h.sparse_rows) if not columns]
    return hnf_basis(IntMatrix._trusted_sparse(kernel_rows, matrix.ncols))


def rational_constraints(rows, ncols):
    """Integer matrix E whose integer solutions are those of exact linear constraints.

    Each constraint row may mix ints, Fractions and Cyclotomics; cyclotomic
    rows are first expanded into phi(m) rational rows over the power basis,
    then denominators are cleared.  Zero rows are dropped.
    """
    expanded = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("constraint width mismatch")
        if all(isinstance(v, (int, Fraction)) for v in row):
            rational_rows = [row]
        else:
            entries = [Cyclotomic._coerce(v) for v in row]
            if any(e is NotImplemented for e in entries):
                raise TypeError("unsupported scalar in constraint row")
            m = lcm(*(e.conductor for e in entries))
            coords = [e.lift(m).rational_coords() for e in entries]
            rational_rows = [[c[t] for c in coords] for t in range(euler_phi(m))]
        for rational_row in rational_rows:
            if any(rational_row):
                denom = lcm(*(q.denominator for q in rational_row))
                expanded.append([int(q * denom) for q in rational_row])
    return IntMatrix(expanded, ncols)


def rational_kernel(rows, ncols):
    """Z-basis (HNF-canonical) of the integer solutions of exact linear
    constraints, as rational_constraints reads them; saturated."""
    return integer_kernel(rational_constraints(rows, ncols))


def is_unit_echelon(basis):
    """True iff basis is in echelon form with every pivot 1 and no zero row.
    Its pivot minor is then unitriangular, so Q*span(basis) meets Z^ncols in
    span(basis) alone: the row lattice is saturated."""
    pivots = _echelon_pivots(basis.sparse_rows)
    return (pivots is not None and len(pivots) == basis.nrows
            and all(values[0] == 1 for _, values in basis.sparse_rows))


def is_unimodular(matrix):
    """True iff matrix is square with determinant +-1: its HNF is the identity."""
    return matrix.nrows == matrix.ncols and hnf(matrix) == IntMatrix.identity(matrix.nrows)


def unimodular_complete(basis):
    """Complete the rows of a saturated lattice basis to a unimodular square matrix.

    With U @ basis^T = H in HNF, the rows of basis are a basis of a saturated
    lattice exactly when H is [I_m; 0]; then basis^T = U^-1 [I_m; 0], so basis
    is the first m rows of the unimodular (U^-1)^T, which is the result.  U^-1
    is the transform of the HNF of U, whose HNF is the identity.  Raises
    ValueError if the input is not a basis of a saturated sublattice.
    """
    m, n = basis.nrows, basis.ncols
    if m > n:
        raise ValueError("more rows than columns")
    h, u = hnf_with_transform(basis.transpose())
    if h.sparse_rows != IntMatrix.identity(m).sparse_rows + (((), ()),) * (n - m):
        raise ValueError("completion impossible: the rows do not span a saturated "
                         "lattice of rank %d" % m)
    completed = hnf_with_transform(u)[1].transpose()
    if completed.sparse_rows[:m] != basis.sparse_rows:
        raise AssertionError("completion lost the input rows")
    if not is_unimodular(completed):
        raise AssertionError("completion is not unimodular")
    return completed
