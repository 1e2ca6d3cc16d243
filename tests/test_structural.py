"""The structural certificate: generator and monomial class values by the
induction product on packed keys, checked against the permutation characters
and the xi expansion, and the link X = S * (1 + Y) that ties those values to
the coordinates in the HNF."""

from functools import lru_cache, reduce
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from projrep import modsym, wreath
from projrep.exactlin import Cyclotomic, IntMatrix, is_unit_echelon
from projrep.modsym import (FIELD, SYM_CHARACTERS, SYM_WEIGHT, CycleWeight, _key_product,
                            _label_shift, _reduced, _singular_mask, check_packable,
                            cycle_products, generator_values, generators_vanish,
                            is_p_singular, monomial_values, singular_classes,
                            singular_constraints, verify_theorem1, x_class_value_matrix)
from projrep.partitions import multipartitions, partitions
from projrep.series import GradedSeries, satisfies_quotient, x_generator_series, y_explicit
from projrep.symfunc import SymElement, X, perm_char_value
from projrep.wreath import (PHI, ELatticeBasis, WreathElement, cycle_weight, e_lattice,
                            load_table, verify_theorem2, xi_from_phi, xk_series,
                            yk_closed_form, yk_generators)

from conftest import centralizer_order, singular_indices, table_path

TABLES = ("trivial", "c2", "c3", "c4", "s3")


@lru_cache(maxsize=None)
def bundled(name):
    return load_table(table_path(name))


def sym_key(mu):
    return tuple(reversed(mu.parts))


def labels(nu):
    """The class of G wr S_n with cycle lengths nu[c] through the class C_c
    of G, as its sorted tuple of cycle labels r * N + c."""
    return tuple(sorted(r * len(nu) + c for c, lam in enumerate(nu) for r in lam.parts))


def character_weight(table, j):
    """chi_j as a CycleWeight: its single-generator series is Phi_j(x)."""
    m = table.conductor
    return CycleWeight(tuple(tuple(int(q) for q in irr_value.lift(m).rational_coords())
                             for irr_value in table.irreducibles[j].values),
                       tuple(c.element_order for c in table.classes), m)


def values_on(values, weight, classes):
    """The coordinates of a packed class function at each class (a label
    tuple) of one degree: its F at the key of the class, divided by
    n! / aut.  The classes must account for every key of values."""
    ncls, width = len(weight.values), len(weight.values[0])
    out = []
    for cls in classes:
        key = sum(1 << _label_shift(label, ncls, width) for label in cls)
        scale = (factorial(sum(label // ncls for label in cls))
                 // prod(factorial(cls.count(label)) for label in set(cls)))
        coords = [values.get(key + t, 0) for t in range(width)]
        assert all(v % scale == 0 for v in coords), cls
        out.append(tuple(v // scale for v in coords))
    assert len(values) == sum(map(bool, (v for coords in out for v in coords)))
    return out


def induction_product(factors, conductor):
    """The packed induction product of the packed class functions in factors,
    given as (degree, values) pairs."""
    def times(f, g):
        (j, a), (k, b) = f, g
        scale = comb(j + k, j)
        return j + k, _reduced({key: scale * v for key, v in _key_product(a, b).items()},
                               conductor)
    return reduce(times, factors, (0, {0: 1}))[1]


def xi_values(table, element):
    """The coordinates of the PHI element's values on every class nu of its
    degree, in multipartitions order: its xi_nu coefficient times the
    centralizer order of nu."""
    expansion = xi_from_phi(element, table).coeffs
    zero = Cyclotomic.from_rational(0)
    return [tuple(map(int, (centralizer_order(table, nu) * expansion.get(nu, zero))
                      .lift(table.conductor).rational_coords()))
            for nu in multipartitions(table.N, element.degree)]


def wreath_product_values(table, rho):
    """Values of the Phi monomial rho, the induction product of its one-part
    factors."""
    weights = [character_weight(table, j) for j in range(table.N)]
    return induction_product([(v, cycle_products(weights[j], v)) for j, lam in enumerate(rho)
                              for v in lam.parts], table.conductor)


# ---------------------------------------------------------------------------
# the values against the permutation characters and the xi expansion


def test_sym_generator_values_are_the_values_of_y_explicit():
    for p in (2, 3, 5):
        for n in range(1, 11):
            coords = y_explicit(n, p).coeffs
            values = values_on(generator_values(SYM_WEIGHT, p, n), SYM_WEIGHT,
                               map(sym_key, partitions(n)))
            for j, mu in enumerate(partitions(n)):
                expected = sum(int(c) * perm_char_value(lam, mu) for lam, c in coords.items())
                assert values[j] == (expected,), (p, n, mu)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("p", (2, 3))
def test_wreath_generator_values_are_the_values_of_the_generators(name, p):
    table = bundled(name)
    lattice = e_lattice(table, p)
    for k in range(1, lattice.M + 1):
        weight = cycle_weight(table.characters, lattice.phi.rows[k - 1])
        generators = yk_generators(table, lattice, k, 4)
        for n in range(1, 5):
            coords = generators[n].coeffs
            index = multipartitions(table.N, n)
            values = values_on(generator_values(weight, p, n), weight, map(labels, index))
            expected = xi_values(table, generators[n])
            for nu, value, want in zip(index, values, expected):
                assert value == want, (name, p, k, n, nu)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, len(partitions(n)) - 1))))
def test_convolution_matches_the_permutation_character_table(case):
    n, i = case
    lam = partitions(n)[i]
    values = values_on(induction_product([(v, cycle_products(SYM_WEIGHT, v))
                                          for v in lam.parts], 1),
                       SYM_WEIGHT, map(sym_key, partitions(n)))
    for j, mu in enumerate(partitions(n)):
        assert values[j] == (perm_char_value(lam, mu),)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TABLES[1:]).flatmap(lambda name: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(name), st.just(n), st.integers(
        0, len(multipartitions(bundled(name).N, n)) - 1)))))
def test_convolution_matches_the_wreath_class_values(case):
    name, n, i = case
    table = bundled(name)
    index = multipartitions(table.N, n)
    values = values_on(wreath_product_values(table, index[i]), table.characters[0],
                       map(labels, index))
    assert values == xi_values(table, WreathElement(PHI, n, table.N, {index[i]: 1}))


@pytest.mark.parametrize("name", TABLES)
def test_monomial_values_are_the_scaled_xi_coefficients_on_every_class(name):
    table = bundled(name)
    width = len(table.characters[0].values[0])
    for n in range(5):
        index = multipartitions(table.N, n)
        columns = list(monomial_values(table.characters, n))
        assert len(columns) == len(index)
        for rho, column in zip(index, columns):
            values = [column[i:i + width] for i in range(0, len(column), width)]
            assert values == xi_values(table, WreathElement(PHI, n, table.N, {rho: 1})), rho


@pytest.mark.parametrize("name", TABLES)
def test_singular_classes_are_the_singular_indices(name):
    table = bundled(name)
    for p in (2, 3, 5):
        for n in range(7):
            assert singular_classes(table.characters, p, n) == singular_indices(table, p, n)


cyclotomic_coords = st.sampled_from((1, 3, 4, 5, 8, 12)).flatmap(lambda m: st.tuples(
    st.just(m), *[st.lists(st.integers(-9, 9), min_size=m, max_size=m)] * 2))


@settings(deadline=None, max_examples=100)
@given(cyclotomic_coords)
@example((1, [7], [-9]))
@example((12, [0, 0, 0, 5], [0, 0, 0, -3]))
def test_the_reduced_key_product_is_the_cyclotomic_product(case):
    # a value of the empty class: its keys are the zeta_m exponents alone
    m, a, b = case
    x, y = Cyclotomic(m, a), Cyclotomic(m, b)

    def packed(z):
        return {s: int(v) for s, v in enumerate(z.coeffs) if v}
    assert _reduced(_key_product(packed(x), packed(y)), m) == packed(x * y)


@pytest.mark.parametrize("name", TABLES)
def test_the_singular_mask_meets_the_keys_of_the_singular_classes(name):
    table = bundled(name)
    weight = table.characters[0]
    width = len(weight.values[0])
    for p in (2, 3, 5):
        for n in range(1, 7):
            mask = _singular_mask(weight, p, n)
            for cls in map(labels, multipartitions(table.N, n)):
                key = sum(1 << _label_shift(label, table.N, width) for label in cls)
                assert bool(key & mask) == any(is_p_singular(label, weight.element_orders, p)
                                               for label in cls)


def test_keys_that_could_overflow_a_field_are_refused_before_any_work(monkeypatch):
    # 2 * width - 2 exponents must fit the zeta field: 2^15 does, 2^15 + 1 not
    check_packable(1, 1 << FIELD - 1)
    wide = CycleWeight(((0,) * ((1 << FIELD - 1) + 1),), (1,), 1)
    monkeypatch.setattr(modsym, "_key_product", lambda *args: 1 / 0)
    monkeypatch.setattr(modsym, "_vanishes_on_singular", lambda *args: 1 / 0)
    for build in (lambda: check_packable(1, len(wide.values[0])),
                  lambda: cycle_products(wide, 1), lambda: generator_values(wide, 2, 1),
                  lambda: generators_vanish(wide, 2, 1)):
        with pytest.raises(ValueError, match="width 32769 needs fields wider than 16 bits"):
            build()
    for build in (lambda: cycle_products(SYM_WEIGHT, 1 << FIELD),
                  lambda: generator_values(SYM_WEIGHT, 2, 1 << FIELD),
                  lambda: generators_vanish(SYM_WEIGHT, 2, 1 << FIELD)):
        with pytest.raises(ValueError, match="16 bits"):
            build()


def test_a_monomial_degree_that_could_overflow_is_refused_before_any_product(monkeypatch):
    monkeypatch.setattr(modsym, "_key_product", lambda *args: 1 / 0)
    monkeypatch.setattr(modsym, "multipartitions", lambda *args: 1 / 0)
    for build in (lambda: next(monomial_values(SYM_CHARACTERS, 1 << FIELD)),
                  lambda: next(monomial_values(SYM_CHARACTERS, 1 << FIELD, 2)),
                  lambda: singular_constraints(SYM_CHARACTERS, 2, 1 << FIELD),
                  lambda: x_class_value_matrix(1 << FIELD)):
        with pytest.raises(ValueError, match="16 bits"):
            build()


def test_generators_vanish_and_the_check_can_fail(c2_table):
    for p in (2, 3, 5):
        assert generators_vanish(SYM_WEIGHT, p, 16)
    # psi = the trivial character of C2 is no lattice row at p = 2: y_1 = X_1
    # is 1 on the class of one cycle of length 1 through the element of order 2
    weight = character_weight(c2_table, 0)
    assert values_on(generator_values(weight, 2, 1), weight, [(2,), (3,)]) == [(1,), (1,)]
    assert not generators_vanish(weight, 2, 1)


# ---------------------------------------------------------------------------
# the link X = S * (1 + Y): a corrupted coordinate is never certified


def closed_series(exponents, order):
    """X_k(t) to the given order from its closed form (as the engine reads it)."""
    return GradedSeries([wreath.xk_closed_form(exponents, i) for i in range(order + 1)])


# the caches of the verify engine that hold generators or link verdicts
ENGINE_CACHES = (wreath._x_monomial, wreath.yk_closed_form, wreath._linked,
                 wreath._monomial_memo)


@pytest.mark.parametrize("phi", [((2, -1), (1, 0)), ((-3, 1), (1, 0)), ((1, 0), (-2, 1))])
def test_closed_form_of_xk_matches_the_series_arithmetic(phi, c2_table):
    # every class of C2 is 3-regular, so any unimodular matrix is a lattice basis
    lattice = ELatticeBasis(3, 2, IntMatrix(phi))
    for k in (1, 2):
        series_xk = xk_series(c2_table, lattice, k, 6)
        generators = yk_generators(c2_table, lattice, k, 6)
        assert closed_series(phi[k - 1], 6) == series_xk
        assert satisfies_quotient(series_xk, generators[1:], 3)
        assert [yk_closed_form(phi[k - 1], 3, n) for n in range(1, 7)] == list(generators[1:])


@pytest.mark.parametrize("name, p", [(name, p) for name in ("c3_table", "c4_table", "s3_table")
                                     for p in (2, 3)])
def test_closed_form_of_xk_matches_the_series_on_the_vanishing_lattices(request, name, p):
    # the lattice rows the wreath link reads X_k from: zero exponents phi_kj,
    # and rows such as (1, 1, 1, 1) that multiply several H_j
    # y_{k,n} by substitution into y_explicit against the series quotient
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    for k in range(1, lattice.M + 1):
        row = lattice.phi.rows[k - 1]
        assert closed_series(row, 4) == xk_series(table, lattice, k, 4)
        generators = yk_generators(table, lattice, k, 4)
        for n in range(1, 5):
            assert yk_closed_form(row, p, n) == generators[n], (k, n)


def test_a_corrupted_sym_generator_coordinate_is_not_certified(monkeypatch):
    n, p = 5, 2
    honest = wreath.y_explicit

    def corrupted(k, q):
        # one coordinate of y_5 off by one: x4*x1 is not a projective class
        y = honest(k, q)
        return y + SymElement.monomial(X, (4, 1)) if (k, q) == (n, p) else y

    monkeypatch.setattr(wreath, "y_explicit", corrupted)
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    try:
        report = verify_theorem1(n, p)
        assert not satisfies_quotient(x_generator_series(n),
                                      [corrupted(k, p) for k in range(1, n + 1)], p)
        assert not wreath._linked((1,), p, n)
        # without the link, (a'), (b) and (c') would all have held
        assert generators_vanish(SYM_WEIGHT, p, n)
        assert is_unit_echelon(report.monomial_hnf)
        assert report.monomial_hnf.nrows == report.expected_rank
        assert report.method == "kernel" and not report.verdict
        assert report.lattice_hnf != report.monomial_hnf
    finally:
        for cache in ENGINE_CACHES:
            cache.cache_clear()


def test_a_corrupted_wreath_generator_coordinate_is_not_certified(monkeypatch, c2_table):
    p, n = 2, 3
    lattice = e_lattice(c2_table, p)
    row = lattice.phi.rows[0]
    honest = wreath.yk_closed_form
    # the coordinate of Phi_triv(x_2)*Phi_triv(x_1) in y_{1,3}, off by one
    extra = WreathElement(PHI, n, 2, {((2, 1), ()): 1})

    def corrupted(exponents, q, v):
        y = honest(exponents, q, v)
        return y + extra if (exponents, q, v) == (row, p, n) else y

    monkeypatch.setattr(wreath, "yk_closed_form", corrupted)
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    try:
        assert not satisfies_quotient(closed_series(row, n),
                                      [corrupted(row, p, v) for v in range(1, n + 1)], p)
        report = verify_theorem2(c2_table, p, n, lattice=lattice)
        assert not wreath._linked(row, p, n)
        assert generators_vanish(cycle_weight(c2_table.characters, row), p, n)
        assert is_unit_echelon(report.monomial_hnf)
        assert report.monomial_hnf.nrows == report.expected_rank
        assert report.method == "kernel" and not report.verdict
    finally:
        for cache in ENGINE_CACHES:
            cache.cache_clear()


def test_a_corrupted_closed_form_of_xk_is_not_certified(monkeypatch, c2_table):
    # one extra term in X_{1,n}: the substituted Y_k still satisfies
    # X_k = S_k (1 + Y_k), an identity in the x_i, so only the power rule
    # H_j D_j X_k = e_j X_k D H_j refuses the closed form
    p = 2
    lattice = e_lattice(c2_table, p)
    honest = wreath.xk_closed_form
    cases = [((1,), 5, WreathElement(PHI, 5, 1, {((4, 1),): 1}), SYM_WEIGHT,
              lambda: verify_theorem1(5, p)),
             (lattice.phi.rows[0], 3, WreathElement(PHI, 3, 2, {((2, 1), ()): 1}),
              cycle_weight(c2_table.characters, lattice.phi.rows[0]),
              lambda: verify_theorem2(c2_table, p, 3, lattice=lattice))]
    for row, n, extra, weight, verify in cases:
        monkeypatch.setattr(wreath, "xk_closed_form", lambda e, v, row=row, n=n, extra=extra:
                            honest(e, v) + extra if (e, v) == (row, n) else honest(e, v))
        for cache in ENGINE_CACHES:
            cache.cache_clear()
        try:
            report = verify()
            assert satisfies_quotient(closed_series(row, n), [
                wreath.yk_closed_form(row, p, v) for v in range(1, n + 1)], p)
            assert wreath._linked(row, p, n - 1) and not wreath._linked(row, p, n)
            assert generators_vanish(weight, p, n)
            assert is_unit_echelon(report.monomial_hnf)
            assert report.monomial_hnf.nrows == report.expected_rank
            assert report.method == "kernel" and not report.verdict
        finally:
            for cache in ENGINE_CACHES:
                cache.cache_clear()


def test_a_generator_off_the_lattice_makes_the_verdict_false(monkeypatch, c2_table):
    honest = [verify_theorem1(4, 2)]
    lattice = e_lattice(c2_table, 2)
    honest.append(verify_theorem2(c2_table, 2, 3, lattice=lattice))
    monkeypatch.setattr(wreath, "generators_vanish", lambda *args: False)
    for report, expected in zip([verify_theorem1(4, 2),
                                 verify_theorem2(c2_table, 2, 3, lattice=lattice)], honest):
        assert report.method == "kernel" and report.verdict is False
        assert report.lattice_hnf == expected.lattice_hnf
        assert report.monomial_hnf == expected.monomial_hnf
