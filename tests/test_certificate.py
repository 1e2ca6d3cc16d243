"""The two proofs of a degree's lattice equality: the structural certificate,
which computes no kernel, cross-checked against the integer-kernel fallback."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from projrep import modsym
from projrep.exactlin import (Cyclotomic, IntMatrix, hnf_basis, integer_kernel,
                              rational_constraints, rational_kernel)
from projrep.modsym import Run, VerificationReport, verify_theorem1
from projrep.partitions import multipartitions, partitions
from projrep.symfunc import perm_char_value
from projrep.wreath import e_lattice, verify_theorem2

from conftest import singular_index_rows


def decide(basis, constraints, expected):
    return VerificationReport.decide(0, 2, lambda: IntMatrix(constraints, len(basis[0])),
                                     IntMatrix(basis), expected, 0.0)


# ---------------------------------------------------------------------------
# desk-scale cross-check against the kernel path


def test_sym_certificate_agrees_with_kernel():
    # structural = kernel, the constraint rows from the counting oracle of
    # the permutation characters x_lambda
    for p in (2, 3, 5):
        for n in range(11):
            report = verify_theorem1(n, p)
            assert report.method == "structural", (n, p)
            rows = [[perm_char_value(lam, mu) for lam in partitions(n)]
                    for mu in partitions(n) if not mu.is_p_regular(p)]
            constraints = rational_constraints(rows, len(partitions(n)))
            assert hnf_basis(integer_kernel(constraints)) == report.monomial_hnf
            assert report.lattice_hnf == report.monomial_hnf
            lists = report.to_dict()
            assert lists["lattice_hnf"] is lists["monomial_hnf"]


@pytest.mark.parametrize("name, p, max_n", [("c2_table", 2, 5), ("c2_table", 3, 4),
                                            ("c3_table", 2, 3), ("s3_table", 2, 3),
                                            ("c4_table", 2, 3), ("c4_table", 3, 3),
                                            ("trivial_table", 2, 6), ("trivial_table", 3, 6),
                                            ("c3_table", 3, 3), ("s3_table", 3, 3)])
def test_wreath_certificate_agrees_with_kernel(request, name, p, max_n):
    # structural = kernel
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    for n in range(max_n + 1):
        report = verify_theorem2(table, p, n, lattice=lattice)
        assert report.method == "structural", (table.name, p, n)
        constraints = rational_constraints(singular_index_rows(table, p, n),
                                           len(multipartitions(table.N, n)))
        assert hnf_basis(integer_kernel(constraints)) == report.monomial_hnf
        assert report.lattice_hnf == report.monomial_hnf


def _fallback_cases(c2_table, s3_table):
    cases = [(verify_theorem1, (n, p)) for p in (2, 3) for n in range(9)]
    for table, p, max_n in ((c2_table, 2, 4), (s3_table, 2, 2)):
        lattice = e_lattice(table, p)
        cases += [(verify_theorem2, (table, p, n, lattice)) for n in range(max_n + 1)]
    return cases


def break_the_link(monkeypatch):
    """Make the link X = S * (1 + Y) fail on honest generators: the one link
    of the one engine, which both verify_theorem1 and verify_theorem2 run,
    each in a fresh Run."""
    monkeypatch.setattr(Run, "linked", lambda *args: False)


def test_forced_kernel_fallback_reproduces_reports(monkeypatch, c2_table, s3_table):
    cases = _fallback_cases(c2_table, s3_table)
    structural = [verify(*args) for verify, args in cases]
    assert all(report.method == "structural" for report in structural)

    def check_kernel_reports():
        for (verify, args), expected in zip(cases, structural):
            report = verify(*args)
            assert report.method == "kernel"
            assert report.verdict is expected.verdict is True
            assert report.rank == report.expected_rank == expected.rank
            assert report.lattice_hnf == report.monomial_hnf == expected.lattice_hnf
            assert report.monomial_hnf == expected.monomial_hnf
            lists = report.to_dict()
            assert lists["lattice_hnf"] == lists["monomial_hnf"]
            assert lists["lattice_hnf"] is not lists["monomial_hnf"]

    # (b) of the structural certificate fails
    with monkeypatch.context() as patch:
        patch.setattr(modsym, "is_unit_echelon", lambda basis: False)
        check_kernel_reports()
    # honest generators whose link is not proved
    break_the_link(monkeypatch)
    check_kernel_reports()


def test_a_failed_link_runs_the_certificate(monkeypatch, c2_table, s3_table):
    # honest generators whose link is not proved: the integer kernel is the
    # certificate that proves the degree, not the structural one
    cases = _fallback_cases(c2_table, s3_table)
    break_the_link(monkeypatch)
    for verify, args in cases:
        report = verify(*args)
        assert report.method == "kernel" and report.verdict is True
        assert report.lattice_hnf == report.monomial_hnf
        assert report.rank == report.expected_rank


# ---------------------------------------------------------------------------
# the kernel fallback on hand-made inputs without the link: bases that a
# certificate computing no kernel would prove, and each way one can fail


def test_certificate_proves_a_unit_pivot_basis():
    report = decide([[1, 0]], [[0, 1]], 1)
    assert report.method == "kernel" and report.verdict
    report = decide([[1, 0], [0, 1]], [], 2)
    assert report.method == "kernel" and report.verdict
    report = decide([[1, 1, 0]], [[1, -1, 0], [0, 0, 1]], 1)
    assert report.method == "kernel" and report.verdict
    assert report.lattice_hnf == IntMatrix([[1, 1, 0]])


def test_certificate_refuses_a_non_unit_pivot():
    report = decide([[2, 0]], [[0, 1]], 1)
    assert report.method == "kernel" and not report.verdict
    assert report.lattice_hnf == IntMatrix([[1, 0]])
    # saturated despite the pivot 2: the fallback proves the equality
    report = decide([[2, 1]], [[1, -2]], 1)
    assert report.method == "kernel" and report.verdict
    assert report.lattice_hnf == IntMatrix([[2, 1]])


def test_certificate_refuses_a_rank_deficit():
    # the kernel has rank 2, the basis only 1 row
    constraints = [[1, -1, 0], [2, -2, 0]]
    report = decide([[1, 1, 0]], constraints, 1)
    assert report.method == "kernel" and not report.verdict and report.rank == 2
    assert report.lattice_hnf == IntMatrix([[1, 1, 0], [0, 0, 1]])
    # a constraint that vanishes modulo the prime 2^61 - 1: the kernel is exact
    report = decide([[0, 1]], [[(1 << 61) - 1, 0]], 1)
    assert report.method == "kernel" and report.verdict
    assert report.lattice_hnf == IntMatrix([[0, 1]])


def test_certificate_refuses_a_row_that_does_not_vanish():
    report = decide([[1, 0]], [[1, 0]], 1)
    assert report.method == "kernel" and not report.verdict
    assert report.lattice_hnf == IntMatrix([[0, 1]])


def test_certificate_refuses_rows_out_of_echelon_form():
    report = decide([[0, 1], [1, 0]], [], 2)
    assert report.method == "kernel" and not report.verdict
    assert report.lattice_hnf == IntMatrix.identity(2)


# ---------------------------------------------------------------------------
# rational_constraints against sympy, a test-only oracle


def rank_q(matrix):
    return sympy.Matrix(matrix.nrows, matrix.ncols, [v for row in matrix.rows for v in row]).rank()


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
