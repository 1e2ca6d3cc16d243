from fractions import Fraction

import pytest
import sympy

from conftest import in_lattice, packed_key
from projrep import cli, modsym, series, wreath
from projrep.exactlin import IntMatrix, integer_kernel
from projrep.modsym import (FIELD, SYM_CHARACTERS, Run, check_packable, key_fields,
                            lowest_part, part_key, singular_constraints,
                            worked_examples_check, verify_theorem1, x_class_value_matrix)
from projrep.partitions import Partition, multipartitions, p_regular_partitions, partitions
from projrep.symfunc import SymElement, X, class_values, mn_character, perm_char_value


def y_monomials(n, p):
    """The engine's matrix of the y-monomials of degree n: the generator
    monomials of the one lattice row (1,) of the one-class group, in a
    fresh run."""
    return Run(SYM_CHARACTERS, ((1,),), p).monomials(n)


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
    # refused where the generator is first packed: its substitution into X_k;
    # every run below is fresh, so each reads the corrupted generator
    half = SymElement.monomial(X, (2, 1), Fraction(1, 2))
    honest = modsym.y_explicit
    monkeypatch.setattr(modsym, "y_explicit",
                        lambda k, q: honest(k, q) + half if (k, q) == (3, 2) else honest(k, q))
    with pytest.raises(AssertionError, match="non-integral"):
        Run(SYM_CHARACTERS, ((1,),), 2).yk(0, 3)
    with pytest.raises(AssertionError, match="non-integ"):
        y_monomials(3, 2)
    assert cli.main(["sym", "verify", "--p", "2", "--max-degree", "3"]) == 3


def test_a_degree_that_overflows_a_key_field_is_refused_before_any_work(
        monkeypatch, c2_table):
    check_packable((1 << FIELD) - 1)
    lattice = wreath.e_lattice(c2_table, 2)
    runs = [Run(SYM_CHARACTERS, ((1,),), 2), wreath.lattice_run(c2_table, lattice)]
    for owner, name in ((Run, "multipartition_keys"), (Run, "partition_keys"),
                        (Run, "degree_keys"), (Run, "power_product"), (Run, "x_monomial"),
                        (Run, "y_explicit"), (modsym, "_key_product"),
                        (modsym, "monomial_matrix")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: 1 / 0)
    # the run refuses it where it is entered, before it builds a closed form,
    # a link or a matrix of any degree: its memos stay empty
    for build in (check_packable, lambda n: verify_theorem1(n, 2, runs[0]),
                  lambda n: wreath.verify_theorem2(c2_table, 2, n, run=runs[1]),
                  lambda n: wreath.generator_exchange_check(c2_table, lattice, n, runs[1])):
        with pytest.raises(ValueError, match="16 bits"):
            build(1 << FIELD)
    assert [run.memos for run in runs] == [{}, {}]


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_the_key_enumeration_is_the_multipartitions_order(p):
    # the rows (parts prime to p) and columns of monomial_matrix, as keys
    part_filter = None if p is None else (lambda v: v % p)
    for k in range(1, 5):
        for n in range(9):
            assert Run(SYM_CHARACTERS).multipartition_keys(k, n, p) == tuple(
                packed_key(mp) for mp in multipartitions(k, n, part_filter)), (k, n)
    # component 0 is the run's memoised keys themselves, not copies
    run = Run(SYM_CHARACTERS)
    assert all(run.multipartition_keys(1, n, p) is run.partition_keys(1, p, n)[0]
               for n in range(9))


def test_the_key_helpers_read_back_the_parts():
    # part_key, lowest_part and key_fields against the oracle's layout
    for k in range(1, 4):
        for n in range(1, 7):
            for mp in multipartitions(k, n):
                key = packed_key(mp)
                assert key == sum(part_key(k, j, v) for j, lam in enumerate(mp) for v in lam)
                assert [[lam.multiplicities().get(v, 0) for v in range(1, len(fields) + 1)]
                        for lam, fields in zip(mp, key_fields(key, k))] == key_fields(key, k)
                assert max(map(len, key_fields(key, k))) == max(max(lam, default=0) for lam in mp)
                v = min(min(lam, default=n + 1) for lam in mp)
                assert lowest_part(key, k) == (min(j for j, lam in enumerate(mp) if v in lam), v)


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
