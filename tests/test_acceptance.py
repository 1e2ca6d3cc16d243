"""Acceptance suite: every criterion is exact (tolerance zero) and prints one
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the lines."""

import time
from fractions import Fraction

from projrep import cli
from projrep.modsym import worked_examples_check, verify_theorem1
from projrep.partitions import p_regular_partitions, partitions
from projrep.series import (GradedSeries, exp, quotient_y, y_explicit,
                            y_from_quotient, y_monomial)
from projrep.symfunc import SymElement, X, class_values
from projrep.wreath import e_lattice, generator_exchange_check, verify_theorem2, yk_generators

from conftest import table_path, xk_exp_identity_check


def report(number, description, ok):
    print("ACCEPTANCE %d %s: %s" % (number, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (number, description)


def x(*parts):
    return SymElement.monomial(X, parts)


KNOWN_GENERATORS_P2 = {
    1: x(1),
    3: x(3) - x(2, 1),
    5: x(5) - x(3, 2) + x(2, 2, 1) - x(4, 1),
    7: (x(7) - x(5, 2) - x(4, 3) + x(3, 2, 2) - x(6, 1)
        + 2 * x(4, 2, 1) - x(2, 2, 2, 1)),
}

EXPECTED_CLI_LINES = [
    "y_1 = x1",
    "y_3 = x3 - x2*x1",
    "y_5 = x5 - x4*x1 - x3*x2 + x2^2*x1",
    "y_7 = x7 - x6*x1 - x5*x2 - x4*x3 + 2*x4*x2*x1 + x3*x2^2 - x2^3*x1",
]


def test_criterion_1_generator_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["sym", "generators", "--p", "2", "--max-degree", "7"])
    out = capsys.readouterr().out
    ok = code == 0 and out.strip().splitlines()[:4] == EXPECTED_CLI_LINES
    for n, expected in KNOWN_GENERATORS_P2.items():
        ok = ok and y_explicit(n, 2) == expected
    for p in (2, 3, 5):
        quotient = y_from_quotient(12, p)
        for n in range(1, 13):
            expected = (SymElement.zero(X, n) if n % p == 0 else y_explicit(n, p))
            ok = ok and quotient[n] == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        report(1, "known generator list reproduced; both paths agree for "
                  "n <= 12, p in {2,3,5} (%.2fs < 5s)" % elapsed, ok)


def test_criterion_2_theorem1_desk_scale(capsys):
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for n in range(0, 11):
            result = verify_theorem1(n, p)
            ok = ok and result.verdict
            ok = ok and result.rank == len(p_regular_partitions(n, p))
    ok = ok and verify_theorem1(3, 2).rank == 2
    ok = ok and verify_theorem1(4, 2).rank == 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(2, "theorem 1 verified for n <= 10, p in {2,3,5} with "
                  "rank = |P_reg| (%.2fs < 60s)" % elapsed, ok)


def test_criterion_3_vanishing_on_singular_classes(capsys):
    ok = True
    for p in (2, 3, 5):
        for n in range(1, 11):
            for lam in p_regular_partitions(n, p):
                values = class_values(y_monomial(lam, p))
                for mu in partitions(n):
                    if not mu.is_p_regular(p):
                        ok = ok and values[mu] == 0
    with capsys.disabled():
        report(3, "class values of y_lambda vanish on every p-singular class "
                  "for p-regular |lambda| <= 10, p in {2,3,5}", ok)


def test_criterion_4_oracle_agreement(capsys):
    from projrep.symfunc import (ClassValues, inner_product, mn_character,
                                 perm_char_value, schur_in_x)
    ok = True
    for n in range(8):
        for lam in partitions(n):
            values = class_values(SymElement.monomial(X, lam))
            for mu in partitions(n):
                ok = ok and values[mu] == perm_char_value(lam, mu)
    for n in range(7):
        for lam in partitions(n):
            values = class_values(schur_in_x(lam))
            for mu in partitions(n):
                ok = ok and values[mu] == mn_character(lam, mu)
    for n in range(1, 7):
        chars = {lam: ClassValues(n, {mu: Fraction(mn_character(lam, mu))
                                      for mu in partitions(n)})
                 for lam in partitions(n)}
        for a in partitions(n):
            for b in partitions(n):
                ok = ok and inner_product(chars[a], chars[b]) == (1 if a == b else 0)
    with capsys.disabled():
        report(4, "permutation-character, Murnaghan-Nakayama and orthonormality "
                  "oracles all agree", ok)


def test_criterion_5_worked_examples(capsys):
    result = worked_examples_check()
    values3 = class_values(-y_explicit(3, 2))
    values4 = class_values(-(y_explicit(1, 2) * y_explicit(3, 2)))
    ok = result.all_passed
    ok = ok and values3.as_tuple() == (2, 0, -1)
    ok = ok and values4.as_tuple() == (8, 0, 0, -1, 0)
    for degree_values, n in ((values3, 3), (values4, 4)):
        for mu in partitions(n):
            if not mu.is_p_regular(2):
                ok = ok and degree_values[mu] == 0
    # the discrepancy is reported as a note, never asserted as a check
    ok = ok and any("2*x2" in note for note in result.notes)
    ok = ok and all("2*x2" not in check.name for check in result.checks)
    with capsys.disabled():
        report(5, "-y_3 -> (2,0,-1), -y_1*y_3 -> (8,0,0,-1,0), both vanishing on "
                  "2-singular classes; example discrepancy reported not asserted", ok)


WREATH_FIXTURES = (("c2", 2, 6), ("c2", 3, 5), ("c3", 2, 4), ("s3", 2, 3))


def test_criterion_6_theorem2_desk_scale(capsys):
    from projrep.wreath import load_table
    start = time.perf_counter()
    ok = True
    for name, p, max_n in WREATH_FIXTURES:
        table = load_table(table_path(name))
        lattice = e_lattice(table, p)
        for n in range(max_n + 1):
            result = verify_theorem2(table, p, n, lattice=lattice)
            ok = ok and result.verdict and result.rank == result.expected_rank
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    with capsys.disabled():
        report(6, "theorem 2 verified for C2 (p=2, n<=6), C2 (p=3, n<=5), "
                  "C3 (p=2, n<=4), S3 (p=2, n<=3) (%.2fs < 300s)" % elapsed, ok)


def test_criterion_7_structural_identities(capsys):
    from projrep.wreath import load_table
    ok = True
    for name, p, max_n in WREATH_FIXTURES:
        table = load_table(table_path(name))
        lattice = e_lattice(table, p)
        for k in range(1, lattice.M + 1):
            ok = ok and xk_exp_identity_check(table, lattice, k, max_n)
        ok = ok and generator_exchange_check(table, lattice, max_n)
    with capsys.disabled():
        report(7, "X_k = exp(C_k) with p-regular support and generator exchange "
                  "hold on all criterion-6 fixtures", ok)


def test_criterion_8_scalar_sanity(capsys):
    series = exp(GradedSeries([Fraction(1 if i == 1 else 0) for i in range(7)]))
    quotient = quotient_y(series, 2)
    ok = (quotient[1] == 1 and quotient[3] == Fraction(-1, 3)
          and quotient[5] == Fraction(2, 15))
    with capsys.disabled():
        report(8, "quotient of exp(t) at p=2 gives tanh coefficients "
                  "1, -1/3, 2/15", ok)


def test_criterion_9_trivial_group_reduction(capsys):
    from projrep.wreath import load_table
    table = load_table(table_path("trivial"))
    ok = True
    for p in (2, 3):
        lattice = e_lattice(table, p)
        generators = yk_generators(table, lattice, 1, 8)
        for n in range(1, 9):
            mapped = {mp[0]: c
                      for mp, c in generators[n].coeffs.items()}
            expected = dict(y_explicit(n, p).coeffs) if n % p else {}
            ok = ok and mapped == expected
        for n in range(0, 9):
            wreath_result = verify_theorem2(table, p, n, lattice=lattice)
            sym_result = verify_theorem1(n, p)
            ok = ok and wreath_result.verdict and sym_result.verdict
            ok = ok and wreath_result.rank == sym_result.rank
            ok = ok and wreath_result.lattice_hnf == sym_result.lattice_hnf
            ok = ok and wreath_result.monomial_hnf == sym_result.monomial_hnf
    with capsys.disabled():
        report(9, "trivial-group wreath pipeline reproduces the symmetric-group "
                  "engine coefficient-for-coefficient for n <= 8, p in {2,3}", ok)
