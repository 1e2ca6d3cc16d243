"""Results built without the constructors' checks (HNFs, transforms, kernels,
transposes, partitions, merged indices, and the sums, negations and products
of graded elements) equal the same values passed through the validating
constructors, and keep the coefficient types those constructors store."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from projrep.exactlin import IntMatrix, hnf_basis, hnf_with_transform, integer_kernel
from projrep.partitions import MultiPartition, Partition, multipartitions, partitions
from projrep.symfunc import C, SymElement, X
from projrep.wreath import PHI, WreathElement


def assert_validated(matrix):
    assert matrix == IntMatrix(matrix.rows, matrix.ncols)
    assert all(type(v) is int for row in matrix.rows for v in row)


matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-6, 6), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]).map(
        lambda rows: IntMatrix(rows, shape[1])))


@settings(deadline=None, max_examples=150)
@given(matrices)
def test_matrix_results_equal_the_validated_matrices(matrix):
    h, u = hnf_with_transform(matrix)
    for result in (h, u, hnf_basis(matrix), matrix.transpose(), integer_kernel(matrix),
                   u @ matrix, IntMatrix.identity(matrix.ncols)):
        assert_validated(result)


def test_partitions_equal_the_validated_partitions():
    for n in range(12):
        assert all(lam == Partition(lam.parts) and type(lam.parts) is tuple
                   for lam in partitions(n))
    for mp in multipartitions(3, 5):
        assert mp == MultiPartition(tuple(Partition(c.parts) for c in mp))
        assert mp.merge(mp) == MultiPartition(
            tuple(Partition(sorted(c.parts * 2, reverse=True)) for c in mp))


sym_coefficients = st.one_of(st.integers(-3, 3),
                             st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def sym_operands(draw):
    """Two SymElements of one degree and a third of another, in one basis."""
    basis = draw(st.sampled_from((X, C)))

    def element(degree):
        return SymElement(basis, degree, draw(st.dictionaries(
            st.sampled_from(partitions(degree)), sym_coefficients, max_size=4)))

    degree = draw(st.integers(0, 4))
    return element(degree), element(degree), element(draw(st.integers(0, 3)))


@st.composite
def phi_operands(draw):
    """Two Phi-basis WreathElements of one degree and a third of another."""
    ncomp = draw(st.integers(1, 3))

    def element(degree):
        return WreathElement(PHI, degree, ncomp, draw(st.dictionaries(
            st.sampled_from(multipartitions(ncomp, degree)), st.integers(-3, 3),
            max_size=4)))

    degree = draw(st.integers(0, 3))
    return element(degree), element(degree), element(draw(st.integers(0, 2)))


def assert_sym_validated(element):
    rebuilt = SymElement(element.basis, element.degree, element.coeffs)
    assert element == rebuilt
    # integral coefficients are int, the others Fraction, as the constructor stores them
    types = {index: type(c) for index, c in element.coeffs.items()}
    assert types == {index: type(c) for index, c in rebuilt.coeffs.items()}
    assert types == {index: int if c.denominator == 1 else Fraction
                     for index, c in element.coeffs.items()}


def assert_phi_validated(element):
    assert element == WreathElement(PHI, element.degree, element.ncomp, element.coeffs)
    assert all(type(coeff) is int for coeff in element.coeffs.values())


@settings(deadline=None, max_examples=150)
@given(sym_operands())
def test_sym_arithmetic_equals_the_validated_elements(operands):
    a, b, c = operands
    for result in (a + b, a - b, -a, a * c, c * b, a * b, a ** 2):
        assert_sym_validated(result)
    assert not a + (-a) and not a - a and (b - b).coeffs == {}


@settings(deadline=None, max_examples=100)
@given(phi_operands())
def test_phi_arithmetic_equals_the_validated_elements(operands):
    a, b, c = operands
    for result in (a + b, a - b, -a, a * c, c * b, a * b, a ** 2):
        assert_phi_validated(result)
    assert not a + (-a) and not a - a and (b - b).coeffs == {}
