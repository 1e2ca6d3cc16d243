from fractions import Fraction

import pytest
import sympy

from conftest import in_lattice
from projrep import cli, modsym, series, wreath
from projrep.exactlin import IntMatrix, integer_kernel
from projrep.modsym import (FIELD, SYM_CHARACTERS, check_packable, monomial_matrix,
                            singular_constraints, worked_examples_check, verify_theorem1,
                            x_class_value_matrix)
from projrep.partitions import Partition, p_regular_partitions, partitions
from projrep.symfunc import SymElement, X, class_values, mn_character, perm_char_value


def y_monomials(n, p):
    """The engine's matrix of the y-monomials of degree n: the generator
    monomials of the one lattice row (1,) of the one-class group."""
    return wreath.generator_monomials(((1,),), p, n)


def reg_lattice(n, p):
    """The vanishing lattice of degree n: the kernel of the shared constraint
    builder for the one-class group."""
    return integer_kernel(singular_constraints(SYM_CHARACTERS, p, n))


def test_reg_lattice_examples():
    lattice = reg_lattice(3, 2)
    assert lattice == IntMatrix([[1, -1, 0], [0, 0, 1]])
    for p in (2, 3, 5):
        assert reg_lattice(1, p) == IntMatrix([[1]])
    assert reg_lattice(4, 2).nrows == 2


def test_reg_lattice_rows_vanish_on_singular_classes():
    for p in (2, 3):
        for n in range(1, 8):
            lattice = reg_lattice(n, p)
            values = x_class_value_matrix(n)
            classes = partitions(n)
            assert lattice.nrows == len(p_regular_partitions(n, p))
            for row in lattice.rows:
                for j, mu in enumerate(classes):
                    value = sum(row[i] * values[i][j] for i in range(len(classes)))
                    if not mu.is_p_regular(p):
                        assert value == 0


def test_y_monomials_examples():
    assert y_monomials(3, 2) == IntMatrix([[1, -1, 0], [0, 0, 1]])
    # p=3: rows for y_2 = x_(2) and y_1^2 = x_(1,1)
    assert y_monomials(2, 3) == IntMatrix([[1, 0], [0, 1]])
    assert y_monomials(2, 2) == IntMatrix([[0, 1]])


def test_y_monomials_are_the_coordinates_of_the_generator_products():
    # the oracle: the y_lambda as SymElement products
    for p in (2, 3, 5):
        for n in range(15):
            positions = {lam: i for i, lam in enumerate(partitions(n))}
            rows = []
            for lam in p_regular_partitions(n, p):
                row = [0] * len(positions)
                for index, coeff in series.y_monomial(lam, p).coeffs.items():
                    row[positions[index]] = coeff
                rows.append(tuple(row))
            assert y_monomials(n, p).rows == tuple(rows)


def test_a_non_integral_generator_coefficient_is_an_internal_error(monkeypatch):
    half = SymElement.monomial(X, (2, 1), Fraction(1, 2))
    with pytest.raises(AssertionError, match="non-integral"):
        monomial_matrix(lambda j, v: half, 1, 1, 2, 3, {})
    honest = wreath.y_explicit
    monkeypatch.setattr(wreath, "y_explicit",
                        lambda k, q: honest(k, q) + half if (k, q) == (3, 2) else honest(k, q))
    caches = (wreath.yk_closed_form, wreath._linked, wreath._monomial_memo)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(AssertionError, match="non-integ"):
            y_monomials(3, 2)
        assert cli.main(["sym", "verify", "--p", "2", "--max-degree", "3"]) == 3
    finally:
        for cache in caches:
            cache.cache_clear()


def test_a_degree_that_overflows_a_key_field_is_refused_before_any_work(monkeypatch):
    check_packable((1 << FIELD) - 1)
    monkeypatch.setattr(modsym, "multipartitions", lambda *args, **kwargs: 1 / 0)
    for build in (check_packable, lambda n: y_monomials(n, 2),
                  lambda n: monomial_matrix(None, 1, 1, 2, n, {})):
        with pytest.raises(ValueError, match="16 bits"):
            build(1 << FIELD)


def test_y_monomial_rows_lie_in_lattice():
    for p in (2, 3, 5):
        for n in range(0, 8):
            lattice = reg_lattice(n, p)
            for row in y_monomials(n, p).rows:
                assert in_lattice(row, lattice)


def test_verify_theorem1_small():
    report = verify_theorem1(3, 2)
    assert report.verdict and report.rank == report.expected_rank == 2
    assert verify_theorem1(1, 2).verdict
    assert verify_theorem1(0, 5).verdict


def test_verify_theorem1_rank_counts():
    for p in (2, 3, 5):
        for n in range(0, 8):
            report = verify_theorem1(n, p)
            assert report.verdict
            assert report.rank == len(p_regular_partitions(n, p))


def _fraction_inverse(matrix):
    n = matrix.nrows
    work = [[Fraction(v) for v in row]
            + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(matrix.rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def test_change_of_basis_between_hnfs_is_unimodular():
    # square full-rank case: p exceeding n leaves no singular classes
    for n in range(1, 6):
        report = verify_theorem1(n, 7)
        h1, h2 = report.lattice_hnf, report.monomial_hnf
        assert h1.nrows == h1.ncols
        inverse_rows = _fraction_inverse(h1)
        change = [[sum(h2.rows[i][k] * inverse_rows[k][j] for k in range(h1.nrows))
                   for j in range(h1.nrows)] for i in range(h1.nrows)]
        assert all(v.denominator == 1 for row in change for v in row)
        determinant = sympy.Matrix([[int(v) for v in row] for row in change]).det()
        assert determinant in (1, -1)


def test_worked_examples_report():
    report = worked_examples_check()
    assert report.all_passed
    names = [check.name for check in report.checks]
    assert any("y_3" in name for name in names)
    assert any("regular character" in name for name in names)
    assert report.notes and "2*x2" in report.notes[0]
    payload = report.to_dict()
    assert payload["all_passed"] is True


def test_minus_y3_is_the_standard_character():
    from projrep.series import y_explicit
    minus_y3 = -y_explicit(3, 2)
    values = class_values(minus_y3)
    for mu in partitions(3):
        assert values[mu] == mn_character(Partition((2, 1)), mu)


def test_x_class_value_matrix_matches_both_oracles():
    # the integer recursion against the counting oracle and the power-sum expansion
    for n in range(13):
        classes = partitions(n)
        values = x_class_value_matrix(n)
        assert len(values) == len(classes)
        for lam, row in zip(classes, values):
            expanded = class_values(SymElement.monomial(X, lam))
            assert row == tuple(perm_char_value(lam, mu) for mu in classes)
            assert row == tuple(expanded[mu] for mu in classes)
