import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from conftest import in_lattice, sparse_built
from projrep import exactlin
from projrep.exactlin import (Cyclotomic, IntMatrix, _eliminate, _is_hnf,
                              cyclotomic_polynomial, euler_phi, hnf,
                              hnf_basis, hnf_with_transform, integer_kernel, is_unimodular,
                              is_unit_echelon, rational_kernel, unimodular_complete)


# ---------------------------------------------------------------------------
# cyclotomics


def test_zeta_power_relations():
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        zeta = Cyclotomic.zeta(m)
        assert zeta ** m == 1
        assert zeta.conjugate() == zeta ** (m - 1)


def test_conjugation_is_an_involution():
    rng = random.Random(7)
    for m in (3, 4, 5, 12):
        for _ in range(10):
            value = Cyclotomic(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(m)])
            assert value.conjugate().conjugate() == value


def test_cyclotomic_rejects_a_conductor_that_is_not_an_integer():
    for bad in (2.7, "4", Fraction(9, 2), None):
        with pytest.raises(ValueError):
            Cyclotomic(bad, [1, 1])
    assert Cyclotomic(4.0, [0, 1]) == Cyclotomic.zeta(4)


def test_conductor_four_square_is_minus_one():
    zeta = Cyclotomic.zeta(4)
    assert zeta * zeta == -1
    # Phi_4 = x^2 + 1, so the canonical form has two coordinates
    assert euler_phi(4) == 2
    assert len(zeta.coeffs) == 2


def test_conductor_of_sum_and_product_is_lcm():
    a = Cyclotomic.zeta(4)
    b = Cyclotomic.zeta(3)
    assert (a + b).conductor == 12
    assert (a * b).conductor == 12
    assert (a + 1).conductor == 4


def test_vanishing_cyclotomic_sums():
    for m in (3, 5, 7):
        total = sum((Cyclotomic.zeta(m, k) for k in range(1, m)),
                    Cyclotomic.from_rational(0))
        assert total == -1


def test_cross_conductor_equality_and_rationality():
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == -(z3 ** 2)
    two = Cyclotomic(4, [2, 0, 0, 0])
    assert two == 2
    assert two.is_rational() and two.rational_value() == 2
    assert not Cyclotomic.zeta(5).is_rational()


def test_lift_to_the_own_conductor_is_the_element_itself(monkeypatch):
    z4 = Cyclotomic(4, [1, 2, 0, 0])
    assert z4.lift(4) is z4
    assert z4.lift(8) == z4 and z4.lift(8).conductor == 8
    lifts = []
    original = Cyclotomic.lift

    def counted(self, conductor):
        lifts.append((self.conductor, conductor))
        return original(self, conductor)

    monkeypatch.setattr(Cyclotomic, "lift", counted)
    # only the operand whose conductor differs from the common one is lifted
    assert z4 + Cyclotomic.zeta(4) == Cyclotomic(4, [1, 3])
    assert z4 * 3 == Cyclotomic(4, [3, 6])
    assert (z4 == Cyclotomic.zeta(2)) is False
    assert Cyclotomic.zeta(4) * Cyclotomic.zeta(3) == Cyclotomic.zeta(12, 7)
    assert lifts == [(2, 4), (4, 12), (3, 12)]


def test_integral_coordinates_are_ints():
    # an int coordinate stays an int, and an integral Fraction becomes one
    values = [Cyclotomic(4, [Fraction(3, 1), 2, Fraction(4, 2), True]),
              Cyclotomic.zeta(12, 7) * Cyclotomic.zeta(3) + 5,
              Cyclotomic.from_rational(Fraction(6, 3), 4), Cyclotomic.zeta(9).galois(2),
              Cyclotomic.zeta(4).lift(8), Cyclotomic.zeta(5).conjugate() * -2,
              Cyclotomic(4, [Fraction(1, 2), 0, Fraction(1, 2)])]
    for value in values:
        assert all(type(q) is int for q in value.rational_coords()), value
    assert Cyclotomic(4, [Fraction(3, 1), 2, Fraction(4, 2), True]).coeffs == (1, 1)
    assert Cyclotomic.from_rational(Fraction(6, 3)).rational_value() == 2


def test_non_integral_coordinates_stay_fractions():
    value = Cyclotomic(4, [Fraction(1, 2), Fraction(2, 3), 1])
    assert value.coeffs == (Fraction(-1, 2), Fraction(2, 3))
    assert [type(q) for q in value.coeffs] == [Fraction, Fraction]
    assert (value * 2).coeffs == (-1, Fraction(4, 3))
    assert [type(q) for q in (value * 2).coeffs] == [int, Fraction]
    assert (value / 3).coeffs == (Fraction(-1, 6), Fraction(2, 9))


@pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
def test_int_coordinates_print_and_compare_as_fraction_coordinates(m):
    # str, repr and equality of a value built from ints are those of the
    # same value built from Fractions
    rng = random.Random(m)
    for _ in range(10):
        coords = [rng.randint(-4, 4) for _ in range(m)]
        from_ints = Cyclotomic(m, coords)
        from_fractions = Cyclotomic(m, [Fraction(q) for q in coords])
        assert str(from_ints) == str(from_fractions)
        assert repr(from_ints) == repr(from_fractions)
        assert from_ints == from_fractions and not from_ints != from_fractions
        assert from_ints.coeffs == from_fractions.coeffs
        assert (from_ints == from_fractions + 1) is False
    assert repr(Cyclotomic(4, [1, Fraction(-1, 2)])) == "Cyclotomic(4, ['1', '-1/2'])"
    assert str(Cyclotomic(4, [Fraction(2), Fraction(-1, 2)])) == "2 + -1/2*z4^1"


def test_the_cyclotomic_polynomials_multiply_to_x_to_the_m_minus_one():
    # prod over d | m of Phi_d = x^m - 1, an identity independent of the
    # Moebius product that builds each Phi_m
    for m in range(1, 301):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi_d = cyclotomic_polynomial(d)
                assert len(phi_d) == euler_phi(d) + 1 and phi_d[-1] == 1
                out = [0] * (len(product) + len(phi_d) - 1)
                for i, a in enumerate(phi_d):
                    if a:
                        for j, b in enumerate(product):
                            out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (m - 1) + [1], m


# ---------------------------------------------------------------------------
# HNF


def test_hnf_trivial_examples():
    assert hnf(IntMatrix.identity(2)) == IntMatrix.identity(2)
    assert hnf(IntMatrix([[0, 1], [1, 0]])) == IntMatrix.identity(2)
    assert hnf(IntMatrix([[2, 1], [0, 2]])) == IntMatrix([[2, 1], [0, 2]])


def test_hnf_shape_and_convention():
    h = hnf(IntMatrix([[4, 6], [2, 2]]))
    # positive pivots, upper echelon, entries above a pivot reduced into [0, pivot)
    assert h == IntMatrix([[2, 0], [0, 2]])
    h2 = hnf(IntMatrix([[1, 5], [0, 3]]))
    assert h2 == IntMatrix([[1, 2], [0, 3]])


def test_hnf_idempotent_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        h = hnf(m)
        assert hnf(h) == h


def test_hnf_transform_is_unimodular():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        h, u = hnf_with_transform(m)
        assert sympy.Matrix(u.rows).det() in (1, -1)
        assert u @ m == h


def test_int_matrix_rejects_entries_that_are_not_integers():
    for bad in (1.5, "3", "x", Fraction(7, 2), float("nan"), None, Cyclotomic.zeta(4)):
        with pytest.raises(ValueError):
            IntMatrix([[bad, 2]])
    # integer values of other types are converted, never truncated
    matrix = IntMatrix([[2.0, Fraction(4, 2), True]])
    assert matrix.rows == ((2, 2, 1),)
    assert all(type(v) is int for v in matrix.rows[0])


def test_int_matrix_rejects_a_width_that_is_not_a_non_negative_integer():
    for bad in (2.5, "2", -3, Fraction(5, 2)):
        with pytest.raises(ValueError):
            IntMatrix([], bad)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], 2.5)
    assert IntMatrix([], 2.0).ncols == 2 and type(IntMatrix([], 2.0).ncols) is int


def test_is_unit_echelon():
    assert is_unit_echelon(IntMatrix([[1, 5, 0], [0, 0, 1]]))
    assert is_unit_echelon(IntMatrix((), 3))
    assert not is_unit_echelon(IntMatrix([[2, 0]]))
    assert not is_unit_echelon(IntMatrix([[0, 1], [1, 0]]))
    assert not is_unit_echelon(IntMatrix([[1, 0], [0, 0]]))
    assert not is_unit_echelon(IntMatrix([[1, 0], [1, 1]]))


nonzero_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-6, 6), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])).filter(
    lambda rows: any(any(row) for row in rows))


@settings(deadline=None, max_examples=200)
@given(nonzero_matrices)
def test_hnf_basis_against_sympy(rows):
    # an independent oracle: sympy's HNF of A^T holds a basis of the row
    # lattice of A in its columns, in the mirror image of our row-style form,
    # so ours of A with reversed columns, read backwards, must equal it
    ours = hnf_basis(IntMatrix([row[::-1] for row in rows]))
    theirs = hermite_normal_form(sympy.Matrix(rows).T)
    assert [list(row[::-1]) for row in reversed(ours.rows)] == \
        [[int(v) for v in theirs.col(j)] for j in range(theirs.cols)]


@st.composite
def inspection_inputs(draw):
    """A small integer matrix, its HNF, or its HNF with one entry edited."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    matrix = IntMatrix(draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols,
                                              max_size=ncols),
                                     min_size=nrows, max_size=nrows)), ncols)
    form = draw(st.sampled_from(["drawn", "hnf", "edited"]))
    if form == "drawn":
        return matrix
    rows = [list(row) for row in hnf(matrix).rows]
    if form == "edited" and rows:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] += draw(st.sampled_from([-1, 1]))
    return IntMatrix(rows, ncols)


@settings(deadline=None, max_examples=400)
@given(inspection_inputs())
def test_hnf_inspection_returns_what_the_elimination_returns(matrix):
    h, u = hnf_with_transform(matrix)
    assert (h, u) == _eliminate(matrix)
    nonzero = [row for row in h.rows if any(row)]
    if nonzero:
        # sympy's column-style HNF of the column-reversed transpose, read
        # backwards (see test_hnf_basis_against_sympy)
        theirs = hermite_normal_form(sympy.Matrix([row[::-1] for row in matrix.rows]).T)
        assert [list(row) for row in reversed(nonzero)] == \
            [[int(v) for v in theirs.col(j)][::-1] for j in range(theirs.cols)]


@pytest.mark.parametrize("rows, eliminated", [
    ([[1, 0], [0, 1]], False),
    ([[2, 1, 5], [0, 2, -7], [0, 0, 0]], False),
    ([[0, 0]], False),
    ([[-1, 0]], True),                 # a negative pivot
    ([[1, 2], [0, 2]], True),          # an entry above a pivot equal to the pivot
    ([[3, -1], [0, 2]], True),         # an entry above a pivot below 0
    ([[0, 0], [0, 1]], True),          # a zero row above a nonzero row
    ([[1, 0], [1, 1]], True),          # two rows with one pivot column
    ([[0, 1], [1, 0]], True),          # pivots decreasing
])
def test_only_a_matrix_not_in_hnf_is_eliminated(monkeypatch, rows, eliminated):
    matrix = IntMatrix(rows)
    expected = _eliminate(matrix)
    calls = []
    monkeypatch.setattr(exactlin, "_eliminate",
                        lambda m: calls.append(m) or _eliminate(m))
    for built in (matrix, sparse_built(rows, matrix.ncols)):
        assert _is_hnf(built.sparse_rows) is not eliminated
        assert is_unit_echelon(built) == unit_echelon_oracle(rows)
        h, u = hnf_with_transform(built)
        assert (h, u) == expected
        assert calls == ([built] if eliminated else [])
        assert (h == built) is not eliminated
        calls.clear()


def unit_echelon_oracle(rows):
    """is_unit_echelon read off the dense rows."""
    leads = [next((j for j, v in enumerate(row) if v), None) for row in rows]
    return (None not in leads and all(a < b for a, b in zip(leads, leads[1:]))
            and all(row[j] == 1 for row, j in zip(rows, leads)))


@st.composite
def dense_rows(draw):
    """0-6 rows of 0-6 entries up to 2^70 in size, some of them zero rows,
    as drawn or as the rows of their HNF, so that both answers of the
    inspection occur."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.integers(-2 ** 70, 2 ** 70) | st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols)
                         | st.just([0] * ncols), min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows = hnf(IntMatrix(rows, ncols)).rows
    return [list(row) for row in rows], ncols


def test_reading_the_dense_rows_stores_nothing():
    # the sparse rows are the one stored form, set at construction: .rows,
    # [i] and to_lists() build dense rows at each read and leave every slot
    # holding the object it held
    rows = [[0, 2, 0], [1, 0, -3]]
    assert IntMatrix.__slots__ == ("sparse_rows", "nrows", "ncols")
    for matrix in (IntMatrix(rows), IntMatrix._trusted(rows, 3), sparse_built(rows, 3)):
        held = [getattr(matrix, name) for name in IntMatrix.__slots__]
        assert held == [(((1,), (2,)), ((0, 2), (1, -3))), 2, 3]
        assert matrix.rows == ((0, 2, 0), (1, 0, -3)) and matrix[1] == (1, 0, -3)
        assert matrix.to_lists() == rows
        assert all(getattr(matrix, name) is value
                   for name, value in zip(IntMatrix.__slots__, held))


@settings(deadline=None, max_examples=300)
@given(dense_rows())
def test_sparse_and_dense_forms_are_one_matrix(drawn):
    rows, ncols = drawn
    dense = IntMatrix(rows, ncols)
    assert sparse_built(rows, ncols) == dense == sparse_built(rows, ncols)
    assert hash(sparse_built(rows, ncols)) == hash(dense)
    sparse = sparse_built(rows, ncols)
    assert sparse.nrows == dense.nrows == len(rows)
    assert sparse.rows == dense.rows and sparse.to_lists() == dense.to_lists() == rows
    in_hnf = _eliminate(dense)[0] == dense
    for built in (dense, sparse_built(rows, ncols)):
        assert _is_hnf(built.sparse_rows) is in_hnf
        assert is_unit_echelon(built) == unit_echelon_oracle(rows)
    assert hnf_with_transform(sparse_built(rows, ncols)) == _eliminate(dense)
    assert hnf_with_transform(dense) == _eliminate(dense)


def _random_elementary_transform(rng, matrix):
    """Apply random unimodular row operations: an equal-lattice witness."""
    rows = [list(r) for r in matrix.rows]
    for _ in range(8):
        op = rng.randint(0, 2)
        i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-v for v in rows[i]]
        elif i != j:
            k = rng.randint(-3, 3)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows, matrix.ncols)


def _solve_unique_rational(matrix, target):
    """Oracle: the unique rational x with x @ matrix = target, for independent rows.

    Returns None when the system is inconsistent.  Fraction elimination only,
    independent of the HNF machinery.
    """
    width = matrix.ncols
    nr = matrix.nrows
    work = [[Fraction(v) for v in row]
            + [Fraction(1 if i == j else 0) for j in range(nr)]
            for i, row in enumerate(matrix.rows)]
    pivots = []
    for r in range(nr):
        for pr, pc in pivots:
            if work[r][pc]:
                f = work[r][pc] / work[pr][pc]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
        lead = next(c for c in range(width) if work[r][c])
        pivots.append((r, lead))
    residue = [Fraction(v) for v in target]
    solution = [Fraction(0)] * nr
    for pr, pc in pivots:
        if residue[pc]:
            f = residue[pc] / work[pr][pc]
            residue = [a - f * b for a, b in zip(residue, work[pr][:width])]
            for k in range(nr):
                solution[k] += f * work[pr][width + k]
    if any(residue):
        return None
    return solution


def _random_full_rank(rng, rows, cols):
    while True:
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        if hnf_basis(m).nrows == rows:
            return m


def test_equal_lattices_iff_equal_hnf():
    rng = random.Random(17)
    for _ in range(25):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 4)
        a = _random_full_rank(rng, rows, cols)
        b = _random_elementary_transform(rng, a)
        assert hnf_basis(a) == hnf_basis(b)
        # scaling one row shrinks the lattice strictly; the dropped row is the witness
        scaled_rows = [list(r) for r in a.rows]
        scaled_rows[0] = [2 * v for v in scaled_rows[0]]
        c = IntMatrix(scaled_rows, cols)
        assert hnf_basis(a) != hnf_basis(c)
        x = _solve_unique_rational(c, a.rows[0])
        assert x is None or any(q.denominator != 1 for q in x)


def test_membership_reduction():
    m = IntMatrix([[1, -1, 0], [0, 0, 1]])
    assert in_lattice([2, -2, 5], m)
    assert not in_lattice([1, 0, 0], m)
    assert in_lattice([0, 0, 0], IntMatrix([], 3))
    assert not in_lattice([0, 1, 0], IntMatrix([], 3))


# ---------------------------------------------------------------------------
# kernels


def _brute_force_kernel_points(constraint_rows, ncols, bound=3):
    points = []
    for vec in product(range(-bound, bound + 1), repeat=ncols):
        if all(sum(r * v for r, v in zip(row, vec)) == 0 for row in constraint_rows):
            points.append(vec)
    return points


def test_rational_kernel_examples():
    k = rational_kernel([[1, 1, 0]], 3)
    assert hnf_basis(k) == hnf_basis(IntMatrix([[1, -1, 0], [0, 0, 1]]))
    assert rational_kernel([[0, 0]], 2) == IntMatrix.identity(2)
    assert rational_kernel([[1, -1], [1, -1]], 2) == IntMatrix([[1, 1]])


def test_rational_kernel_against_brute_force():
    rng = random.Random(29)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 2), rng.randint(1, 3)
        constraints = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = rational_kernel(constraints, ncols)
        for point in _brute_force_kernel_points(constraints, ncols):
            assert in_lattice(point, basis)
        for row in basis.rows:
            assert all(sum(r * v for r, v in zip(c, row)) == 0 for c in constraints)


def _invariant_factors(rows):
    """Oracle: the invariant factors of an m x n integer matrix, m <= n, from
    sympy's Smith normal form (0 for each missing rank)."""
    if not rows:
        return ()
    diag = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return tuple(abs(int(diag[i, i])) for i in range(len(rows)))


def test_rational_kernel_saturated():
    rng = random.Random(31)
    for _ in range(20):
        ncols = rng.randint(1, 4)
        constraints = [[rng.randint(-3, 3) for _ in range(ncols)]
                       for _ in range(rng.randint(1, 3))]
        basis = rational_kernel(constraints, ncols)
        assert _invariant_factors(basis.rows) == (1,) * basis.nrows


def test_rational_kernel_cyclotomic_expansion():
    z3 = Cyclotomic.zeta(3)
    # v0 + z3*v1 = 0 over Q(z3) forces v0 = v1 = 0
    basis = rational_kernel([[1, z3]], 2)
    assert basis.nrows == 0
    # z3*(v0 - v1) = 0 has the diagonal as solutions
    basis = rational_kernel([[z3, -z3]], 2)
    assert basis == IntMatrix([[1, 1]])


def test_rational_kernel_fraction_entries():
    basis = rational_kernel([[Fraction(1, 2), Fraction(-1, 3)]], 2)
    assert basis == IntMatrix([[2, 3]])


integer_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=4).map(
        lambda rows: IntMatrix(rows, ncols)))


@settings(deadline=None, max_examples=150)
@given(integer_matrices)
def test_integer_kernel_against_sympy(matrix):
    # integer_kernel is the one kernel of every verification fallback
    basis = integer_kernel(matrix)
    assert basis.ncols == matrix.ncols
    for vector in basis.rows:
        assert all(sum(a * b for a, b in zip(row, vector)) == 0 for row in matrix.rows)
    rank = sympy.Matrix(matrix.nrows, matrix.ncols, [v for row in matrix.rows for v in row]).rank()
    assert basis.nrows == matrix.ncols - rank
    assert hnf_basis(basis) == basis
    # saturated: every Smith invariant factor is 1
    assert _invariant_factors(basis.rows) == (1,) * basis.nrows


# ---------------------------------------------------------------------------
# unimodular completion


def test_unimodular_complete_examples():
    completed = unimodular_complete(IntMatrix([[1, 1]]))
    assert completed.rows[0] == (1, 1)
    assert sympy.Matrix(completed.rows).det() in (1, -1)
    completed = unimodular_complete(IntMatrix([[1, 0, 0], [0, 1, 0]]))
    assert completed.rows[:2] == ((1, 0, 0), (0, 1, 0))
    assert sympy.Matrix(completed.rows).det() in (1, -1)
    completed = unimodular_complete(IntMatrix([[1, 1, 0], [0, 0, 1]]))
    assert completed.rows[:2] == ((1, 1, 0), (0, 0, 1))
    assert sympy.Matrix(completed.rows).det() in (1, -1)


def test_unimodular_complete_rejects_unsaturated():
    with pytest.raises(ValueError):
        unimodular_complete(IntMatrix([[2, 0]]))
    with pytest.raises(ValueError):
        unimodular_complete(IntMatrix([[2, 4], [6, 8]]))


def test_unimodular_complete_random_saturated():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        u = _random_elementary_transform(rng, IntMatrix.identity(n))
        basis = IntMatrix(u.rows[:m], n)
        completed = unimodular_complete(basis)
        assert completed.rows[:m] == basis.rows
        assert sympy.Matrix(completed.rows).det() in (1, -1)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n).flatmap(lambda m: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m)))))
def test_unimodular_complete_against_smith_form(shape_rows):
    # the completion exists exactly when every invariant factor is 1
    n, rows = shape_rows
    basis = IntMatrix(rows, n)
    if any(d != 1 for d in _invariant_factors(rows)):
        with pytest.raises(ValueError):
            unimodular_complete(basis)
        return
    completed = unimodular_complete(basis)
    assert completed.rows[:len(rows)] == basis.rows
    assert sympy.Matrix(completed.rows).det() in (1, -1)


def test_is_unimodular():
    assert is_unimodular(IntMatrix.identity(3))
    assert is_unimodular(IntMatrix([[2, 1], [1, 1]]))
    assert is_unimodular(IntMatrix((), 0))
    assert not is_unimodular(IntMatrix([[1, 1], [0, 2]]))
    assert not is_unimodular(IntMatrix([[1, 2], [2, 4]]))
    assert not is_unimodular(IntMatrix([[1, 0]]))
