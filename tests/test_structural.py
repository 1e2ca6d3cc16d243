"""The structural certificate: generator class values by the induction-product
convolution, checked against the class-value tables it replaces, and the
link X = S * (1 + Y) that ties those values to the coordinates in the HNF."""

from functools import lru_cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from projrep import modsym, series, wreath
from projrep.exactlin import Cyclotomic, IntMatrix, is_unit_echelon
from projrep.modsym import (SYM_WEIGHT, CycleWeight, _times, class_labels, convolve,
                            cycle_products, generator_values, generators_vanish,
                            monomial_values, verify_theorem1, x_class_value_matrix)
from projrep.partitions import multipartitions, partitions
from projrep.series import satisfies_quotient, x_generator_series, y_explicit
from projrep.symfunc import SymElement, X
from projrep.wreath import (PHI, ELatticeBasis, WreathElement, cycle_weight, e_lattice,
                            load_table, verify_theorem2, xk_closed_series, xk_series,
                            yk_generators)

from conftest import table_path

TABLES = ("trivial", "c2", "c3", "c4", "s3")


@lru_cache(maxsize=None)
def bundled(name):
    return load_table(table_path(name))


def sym_key(mu):
    return tuple(reversed(mu.parts))


def character_weight(table, j):
    """chi_j as a CycleWeight: its single-generator series is Phi_j(x)."""
    m = table.conductor
    return CycleWeight(tuple(tuple(int(q) for q in irr_value.lift(m).rational_coords())
                             for irr_value in table.irreducibles[j].values),
                       tuple(c.element_order for c in table.classes), m)


def wreath_product_values(table, rho):
    """Values of the Phi monomial rho by convolving its one-part factors."""
    weights = [character_weight(table, j) for j in range(table.N)]
    unit = {(): (1,) + (0,) * (len(weights[0].values[0]) - 1)}
    return reduce(lambda f, g: convolve(f, g, table.conductor),
                  [cycle_products(weights[j], v) for j, lam in enumerate(rho)
                   for v in lam.parts], unit)


# ---------------------------------------------------------------------------
# the values against the class-value tables


def test_sym_generator_values_are_the_values_of_y_explicit():
    for p in (2, 3, 5):
        for n in range(1, 11):
            table = x_class_value_matrix(n)
            coords = y_explicit(n, p).coeffs
            rows = [(table[i], int(coords[lam])) for i, lam in enumerate(partitions(n))
                    if lam in coords]
            values = generator_values(SYM_WEIGHT, p, n)
            for j, mu in enumerate(partitions(n)):
                expected = sum(c * row[j] for row, c in rows)
                assert values.get(sym_key(mu), (0,)) == (expected,), (p, n, mu)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("p", (2, 3))
def test_wreath_generator_values_are_the_values_of_the_generators(name, p):
    table = bundled(name)
    lattice = e_lattice(table, p)
    for k in range(1, lattice.M + 1):
        weight = cycle_weight(table, lattice, k)
        generators = yk_generators(table, lattice, k, 4)
        for n in range(1, 5):
            coords = generators[n].coeffs
            index = multipartitions(table.N, n)
            values = generator_values(weight, p, n)
            for nu in index:
                rows = monomial_values(table.characters, class_labels(nu))
                expected = tuple(sum(coords[rho] * row[i]
                                     for i, rho in enumerate(index) if rho in coords)
                                 for row in rows)
                zero = (0,) * len(rows)
                assert values.get(class_labels(nu), zero) == expected, (name, p, k, n, nu)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, len(partitions(n)) - 1))))
def test_convolution_matches_the_permutation_character_table(case):
    n, i = case
    lam = partitions(n)[i]
    values = reduce(lambda f, g: convolve(f, g, 1),
                    [cycle_products(SYM_WEIGHT, v) for v in lam.parts])
    for j, mu in enumerate(partitions(n)):
        assert values.get(sym_key(mu), (0,)) == (x_class_value_matrix(n)[i][j],)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TABLES[1:]).flatmap(lambda name: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(name), st.just(n), st.integers(
        0, len(multipartitions(bundled(name).N, n)) - 1)))))
def test_convolution_matches_the_wreath_class_values(case):
    name, n, i = case
    table = bundled(name)
    index = multipartitions(table.N, n)
    values = wreath_product_values(table, index[i])
    for nu in index:
        rows = monomial_values(table.characters, class_labels(nu))
        expected = tuple(row[i] for row in rows)
        assert values.get(class_labels(nu), (0,) * len(rows)) == expected


cyclotomic_coords = st.sampled_from((1, 3, 4, 5, 8, 12)).flatmap(lambda m: st.tuples(
    st.just(m), *[st.lists(st.integers(-9, 9), min_size=m, max_size=m)] * 2))


@settings(deadline=None, max_examples=100)
@given(cyclotomic_coords)
@example((1, [7], [-9]))
def test_times_is_the_cyclotomic_product(case):
    m, a, b = case
    x, y = Cyclotomic(m, a), Cyclotomic(m, b)
    product = _times(tuple(map(int, x.coeffs)), tuple(map(int, y.coeffs)), m)
    assert product == tuple(map(int, (x * y).coeffs))


def test_generators_vanish_and_the_check_can_fail(c2_table):
    for p in (2, 3, 5):
        assert generators_vanish(SYM_WEIGHT, p, 16)
    # psi = the trivial character of C2 is no lattice row at p = 2: y_1 = X_1
    # is 1 on the class of one cycle of length 1 through the element of order 2
    weight = character_weight(c2_table, 0)
    assert generator_values(weight, 2, 1) == {(2,): (1,), (3,): (1,)}
    assert not generators_vanish(weight, 2, 1)


# ---------------------------------------------------------------------------
# the link X = S * (1 + Y): a corrupted coordinate is never certified


@pytest.mark.parametrize("phi", [((2, -1), (1, 0)), ((-3, 1), (1, 0)), ((1, 0), (-2, 1))])
def test_closed_form_of_xk_matches_the_series_arithmetic(phi, c2_table):
    # every class of C2 is 3-regular, so any unimodular matrix is a lattice basis
    lattice = ELatticeBasis(3, 2, IntMatrix(phi))
    for k in (1, 2):
        series_xk = xk_series(c2_table, lattice, k, 6)
        assert xk_closed_series(c2_table, lattice, k, 6) == series_xk
        assert satisfies_quotient(series_xk, yk_generators(c2_table, lattice, k, 6)[1:], 3)


@pytest.mark.parametrize("name, p", [(name, p) for name in ("c3_table", "c4_table", "s3_table")
                                     for p in (2, 3)])
def test_closed_form_of_xk_matches_the_series_on_the_vanishing_lattices(request, name, p):
    # the lattice rows the wreath link reads X_k from: zero exponents phi_kj,
    # and rows such as (1, 1, 1, 1) that multiply several H_j
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    for k in range(1, lattice.M + 1):
        assert xk_closed_series(table, lattice, k, 4) == xk_series(table, lattice, k, 4)


def test_a_corrupted_sym_generator_coordinate_is_not_certified(monkeypatch):
    n, p = 5, 2
    honest = series.y_explicit

    def corrupted(k, q):
        # one coordinate of y_5 off by one: x4*x1 is not a projective class
        y = honest(k, q)
        return y + SymElement.monomial(X, (4, 1)) if (k, q) == (n, p) else y

    caches = (series.y_monomial, modsym._generators_linked, modsym._y_products)
    monkeypatch.setattr(series, "y_explicit", corrupted)
    monkeypatch.setattr(modsym, "y_explicit", corrupted)
    for cache in caches:
        cache.cache_clear()
    try:
        report = verify_theorem1(n, p)
        assert not satisfies_quotient(x_generator_series(n),
                                      [corrupted(k, p) for k in range(1, n + 1)], p)
        assert not modsym._generators_linked(n, p)
        # without the link, (a'), (b) and (c') would all have held
        assert generators_vanish(SYM_WEIGHT, p, n)
        assert is_unit_echelon(report.monomial_hnf)
        assert report.monomial_hnf.nrows == report.expected_rank
        assert report.method == "kernel" and not report.verdict
        assert report.lattice_hnf != report.monomial_hnf
    finally:
        for cache in caches:
            cache.cache_clear()


def test_a_corrupted_wreath_generator_coordinate_is_not_certified(monkeypatch, c2_table):
    p, n = 2, 3
    lattice = e_lattice(c2_table, p)
    honest = wreath.yk_generators
    # the coordinate of Phi_triv(x_2)*Phi_triv(x_1) in y_{1,3}, off by one
    extra = WreathElement(PHI, n, 2, {((2, 1), ()): 1})

    def corrupted(table, lat, k, order):
        y = list(honest(table, lat, k, order))
        if k == 1 and order >= n:
            y[n] = y[n] + extra
        return tuple(y)

    monkeypatch.setattr(wreath, "yk_generators", corrupted)
    assert not satisfies_quotient(xk_closed_series(c2_table, lattice, 1, n),
                                  corrupted(c2_table, lattice, 1, n)[1:], p)
    report = verify_theorem2(c2_table, p, n, lattice=lattice)
    assert generators_vanish(cycle_weight(c2_table, lattice, 1), p, n)
    assert is_unit_echelon(report.monomial_hnf)
    assert report.monomial_hnf.nrows == report.expected_rank
    assert report.method == "kernel" and not report.verdict


def test_a_generator_off_the_lattice_makes_the_verdict_false(monkeypatch, c2_table):
    honest = [verify_theorem1(4, 2)]
    lattice = e_lattice(c2_table, 2)
    honest.append(verify_theorem2(c2_table, 2, 3, lattice=lattice))
    monkeypatch.setattr(modsym, "generators_vanish", lambda *args: False)
    monkeypatch.setattr(wreath, "generators_vanish", lambda *args: False)
    for report, expected in zip([verify_theorem1(4, 2),
                                 verify_theorem2(c2_table, 2, 3, lattice=lattice)], honest):
        assert report.method == "kernel" and report.verdict is False
        assert report.lattice_hnf == expected.lattice_hnf
        assert report.monomial_hnf == expected.monomial_hnf
