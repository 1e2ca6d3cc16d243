"""The certificates that prove a degree's lattice equality without computing
the kernel, cross-checked against the kernel path they replace."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from projrep import modsym, wreath
from projrep.exactlin import (RANK_PRIME, Cyclotomic, IntMatrix, certify_kernel_basis,
                              hnf_basis, integer_kernel, rank_mod, rational_constraints,
                              rational_kernel)
from projrep.modsym import VerificationReport, singular_class_rows, verify_theorem1
from projrep.partitions import multipartitions, partitions
from projrep.wreath import e_lattice, singular_index_rows, verify_theorem2


def decide(basis, constraints, expected):
    return VerificationReport.decide(0, 2, lambda: IntMatrix(constraints, len(basis[0])),
                                     IntMatrix(basis), expected, 0.0)


# ---------------------------------------------------------------------------
# desk-scale cross-check against the kernel path


def test_sym_certificate_agrees_with_kernel():
    # structural = certificate = kernel
    for p in (2, 3, 5):
        for n in range(11):
            report = verify_theorem1(n, p)
            assert report.method == "structural", (n, p)
            constraints = rational_constraints(singular_class_rows(n, p), len(partitions(n)))
            assert certify_kernel_basis(report.monomial_hnf, constraints, report.expected_rank)
            assert hnf_basis(integer_kernel(constraints)) == report.monomial_hnf
            assert report.lattice_hnf == report.monomial_hnf


@pytest.mark.parametrize("name, p, max_n", [("c2_table", 2, 5), ("c2_table", 3, 4),
                                            ("c3_table", 2, 3), ("s3_table", 2, 3),
                                            ("c4_table", 2, 3), ("c4_table", 3, 3),
                                            ("trivial_table", 2, 6), ("trivial_table", 3, 6),
                                            ("c3_table", 3, 3), ("s3_table", 3, 3)])
def test_wreath_certificate_agrees_with_kernel(request, name, p, max_n):
    # structural = certificate = kernel
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    for n in range(max_n + 1):
        report = verify_theorem2(table, p, n, lattice=lattice)
        assert report.method == "structural", (table.name, p, n)
        constraints = rational_constraints(singular_index_rows(table, p, n),
                                           len(multipartitions(table.N, n)))
        assert certify_kernel_basis(report.monomial_hnf, constraints, report.expected_rank)
        assert hnf_basis(integer_kernel(constraints)) == report.monomial_hnf
        assert report.lattice_hnf == report.monomial_hnf


def _fallback_cases(c2_table, s3_table):
    cases = [(verify_theorem1, (n, p)) for p in (2, 3) for n in range(9)]
    for table, p, max_n in ((c2_table, 2, 4), (s3_table, 2, 2)):
        lattice = e_lattice(table, p)
        cases += [(verify_theorem2, (table, p, n, lattice)) for n in range(max_n + 1)]
    return cases


def break_the_link(monkeypatch):
    """Make the link X = S * (1 + Y) fail on honest generators in both engines."""
    monkeypatch.setattr(modsym, "_generators_linked", lambda n, p: False)
    monkeypatch.setattr(wreath, "satisfies_quotient", lambda *args: False)


def test_forced_kernel_fallback_reproduces_reports(monkeypatch, c2_table, s3_table):
    cases = _fallback_cases(c2_table, s3_table)
    certified = [verify(*args) for verify, args in cases]

    def check_kernel_reports():
        for (verify, args), expected in zip(cases, certified):
            report = verify(*args)
            assert report.method == "kernel"
            assert report.verdict is expected.verdict is True
            assert report.rank == expected.rank
            assert report.lattice_hnf == expected.lattice_hnf
            assert report.monomial_hnf == expected.monomial_hnf

    # (b) of the structural certificate fails: straight to the kernel
    with monkeypatch.context() as patch:
        patch.setattr(modsym, "is_unit_echelon", lambda basis: False)
        check_kernel_reports()
    # the link fails, and then the certificate
    break_the_link(monkeypatch)
    monkeypatch.setattr(modsym, "certify_kernel_basis", lambda *args: False)
    check_kernel_reports()


def test_a_failed_link_runs_the_certificate(monkeypatch, c2_table, s3_table):
    # honest generators whose link is not proved: certificate, not structural
    cases = _fallback_cases(c2_table, s3_table)
    break_the_link(monkeypatch)
    for verify, args in cases:
        report = verify(*args)
        assert report.method == "certificate" and report.verdict is True
        assert report.lattice_hnf == report.monomial_hnf
        assert report.rank == report.expected_rank


# ---------------------------------------------------------------------------
# the certificate on hand-made inputs: it either proves equality or stands aside


def test_certificate_proves_a_unit_pivot_basis():
    assert certify_kernel_basis(IntMatrix([[1, 0]]), IntMatrix([[0, 1]]), 1)
    assert certify_kernel_basis(IntMatrix([[1, 0], [0, 1]]), IntMatrix((), 2), 2)
    report = decide([[1, 1, 0]], [[1, -1, 0], [0, 0, 1]], 1)
    assert report.method == "certificate" and report.verdict


def test_certificate_refuses_a_non_unit_pivot():
    assert not certify_kernel_basis(IntMatrix([[2, 0]]), IntMatrix([[0, 1]]), 1)
    report = decide([[2, 0]], [[0, 1]], 1)
    assert report.method == "kernel" and not report.verdict
    # saturated despite the pivot 2: the fallback proves the equality
    assert not certify_kernel_basis(IntMatrix([[2, 1]]), IntMatrix([[1, -2]]), 1)
    report = decide([[2, 1]], [[1, -2]], 1)
    assert report.method == "kernel" and report.verdict
    assert report.lattice_hnf == IntMatrix([[2, 1]])


def test_certificate_refuses_a_rank_deficit():
    # the kernel has rank 2, the basis only 1 row
    constraints = [[1, -1, 0], [2, -2, 0]]
    assert not certify_kernel_basis(IntMatrix([[1, 1, 0]]), IntMatrix(constraints), 1)
    report = decide([[1, 1, 0]], constraints, 1)
    assert report.method == "kernel" and not report.verdict and report.rank == 2
    # a rank lost only modulo the prime: not certified, yet the kernel verifies
    assert not certify_kernel_basis(IntMatrix([[0, 1]]), IntMatrix([[RANK_PRIME, 0]]), 1)
    report = decide([[0, 1]], [[RANK_PRIME, 0]], 1)
    assert report.method == "kernel" and report.verdict


def test_certificate_refuses_a_row_that_does_not_vanish():
    assert not certify_kernel_basis(IntMatrix([[1, 0]]), IntMatrix([[1, 0]]), 1)
    report = decide([[1, 0]], [[1, 0]], 1)
    assert report.method == "kernel" and not report.verdict


def test_certificate_refuses_rows_out_of_echelon_form():
    basis = IntMatrix([[0, 1], [1, 0]])
    assert not certify_kernel_basis(basis, IntMatrix((), 2), 2)
    assert not certify_kernel_basis(IntMatrix([[1, 0], [0, 0]]), IntMatrix((), 2), 2)
    report = decide([[0, 1], [1, 0]], [], 2)
    assert report.method == "kernel" and not report.verdict
    assert report.lattice_hnf == IntMatrix.identity(2)


# ---------------------------------------------------------------------------
# rank_mod and rational_constraints against sympy, a test-only oracle


small_matrices = st.integers(0, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-40, 40), min_size=ncols, max_size=ncols), max_size=6).map(
    lambda rows: IntMatrix(rows, ncols)))


def rank_q(matrix):
    return sympy.Matrix(matrix.nrows, matrix.ncols, [v for row in matrix.rows for v in row]).rank()


@settings(deadline=None, max_examples=150)
@given(small_matrices)
def test_rank_mod_equals_rank_over_q(matrix):
    # every minor is below 2^61 - 1 in absolute value, so no rank is lost
    assert rank_mod(matrix) == rank_q(matrix)


@settings(deadline=None, max_examples=60)
@given(small_matrices, st.integers(0, 3))
def test_rank_mod_bounds_rank_over_q(matrix, scale):
    scaled = IntMatrix([[v * RANK_PRIME ** scale + v for v in row] for row in matrix.rows],
                       matrix.ncols)
    assert rank_mod(scaled) <= rank_q(scaled)
    assert rank_mod(IntMatrix([[v * RANK_PRIME for v in row] for row in matrix.rows],
                              matrix.ncols)) == 0


@settings(deadline=None, max_examples=100)
@given(small_matrices, st.data())
def test_rank_mod_ignores_column_order(matrix, data):
    order = data.draw(st.permutations(range(matrix.ncols)))
    permuted = IntMatrix([[row[c] for c in order] for row in matrix.rows], matrix.ncols)
    assert rank_mod(permuted) == rank_mod(matrix)


def test_singular_class_rows_have_full_rank_mod():
    # the rows are independent: each has its last nonzero entry at its own class
    for p in (2, 3, 5):
        for n in range(15):
            rows = singular_class_rows(n, p)
            assert rank_mod(rational_constraints(rows, len(partitions(n)))) == len(rows)


scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(lambda m, coeffs: Cyclotomic(m, coeffs), st.sampled_from((3, 4)),
              st.lists(st.integers(-2, 2), min_size=4, max_size=4)))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda ncols: st.tuples(
    st.just(ncols), st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                             max_size=3))))
def test_rational_constraints_keep_the_kernel(case):
    ncols, rows = case
    constraints = rational_constraints(rows, ncols)
    basis = integer_kernel(constraints)
    assert basis == rational_kernel(rows, ncols)
    assert basis.nrows == ncols - rank_q(constraints)
    for vector in basis.rows:
        for row in rows:
            assert sum((c * v for c, v in zip(row, vector)), Fraction(0)) == 0
