"""The structural certificate: generator and monomial class values by the
induction product on packed keys, checked against the permutation characters
and the xi expansion, and the link X = S * (1 + Y) that ties those values to
the coordinates in the HNF."""

from functools import lru_cache, reduce
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from projrep import modsym
from projrep.exactlin import Cyclotomic, IntMatrix, integer_kernel, is_unit_echelon
from projrep.modsym import (FIELD, SYM_CHARACTERS, SYM_WEIGHT, CycleWeight, Run, _key_product,
                            _label_shift, _reduced, _singular_mask, check_packable,
                            cycle_weight, is_p_singular, monomial_values,
                            singular_constraints, verify_theorem1, x_class_value_matrix)
from projrep.partitions import multipartitions, partitions
from projrep.series import GradedSeries, x_generator_series, y_explicit, y_from_quotient
from projrep.symfunc import SymElement, X, perm_char_value
from projrep.wreath import (PHI, ELatticeBasis, WreathElement, e_lattice, lattice_run,
                            load_table, verify_theorem2, xi_from_phi, xk_series, yk_generators)

from conftest import (centralizer_order, packed, packed_key, satisfies_quotient,
                      singular_indices, table_path)

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
    weights, run = [character_weight(table, j) for j in range(table.N)], Run(table.characters)
    return induction_product([(v, run.cycle_products(weights[j], v)) for j, lam in enumerate(rho)
                              for v in lam.parts], table.conductor)


# ---------------------------------------------------------------------------
# the values against the permutation characters and the xi expansion


def test_sym_generator_values_are_the_values_of_y_explicit():
    for p in (2, 3, 5):
        run = Run(SYM_CHARACTERS, ((1,),), p)
        for n in range(1, 11):
            coords = y_explicit(n, p).coeffs
            values = values_on(run.generator_values(0, n), SYM_WEIGHT,
                               map(sym_key, partitions(n)))
            for j, mu in enumerate(partitions(n)):
                expected = sum(int(c) * perm_char_value(lam, mu) for lam, c in coords.items())
                assert values[j] == (expected,), (p, n, mu)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("p", (2, 3))
def test_wreath_generator_values_are_the_values_of_the_generators(name, p):
    table = bundled(name)
    lattice = e_lattice(table, p)
    run = lattice_run(table, lattice)
    for k in range(1, lattice.M + 1):
        weight = cycle_weight(table.characters, lattice.phi.rows[k - 1])
        generators = yk_generators(table, lattice, k, 4)
        for n in range(1, 5):
            coords = generators[n].coeffs
            index = multipartitions(table.N, n)
            values = values_on(run.generator_values(k - 1, n), weight, map(labels, index))
            expected = xi_values(table, generators[n])
            for nu, value, want in zip(index, values, expected):
                assert value == want, (name, p, k, n, nu)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, len(partitions(n)) - 1))))
def test_convolution_matches_the_permutation_character_table(case):
    n, i = case
    lam = partitions(n)[i]
    run = Run(SYM_CHARACTERS)
    values = values_on(induction_product([(v, run.cycle_products(SYM_WEIGHT, v))
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
def test_the_singular_values_are_the_values_at_the_singular_indices(name):
    # the classes monomial_values picks by the singular mask of their keys
    # are the p-singular multipartitions, read off their parts
    table = bundled(name)
    width = len(table.characters[0].values[0])
    for n in range(6):
        index = multipartitions(table.N, n)
        every = list(monomial_values(table.characters, n))
        for p in (2, 3, 5):
            at = [index.index(nu) for nu in singular_indices(table, p, n)]
            assert list(monomial_values(table.characters, n, p)) == [
                tuple(v for i in at for v in column[i * width:(i + 1) * width])
                for column in every], (p, n)


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
    for name in ("cycle_products", "generator_values", "vanish", "monomials"):
        monkeypatch.setattr(Run, name, lambda *args: 1 / 0)
    # a run refuses both where it is entered, before any value of X_n, of a
    # generator or of (a'); the hnf is never reached
    for build in (lambda: check_packable(1, len(wide.values[0])),
                  lambda: Run((wide,), ((1,),), 2).verify(1),
                  lambda: next(monomial_values((wide,), 1, 2))):
        with pytest.raises(ValueError, match="width 32769 needs fields wider than 16 bits"):
            build()
    for build in (lambda: Run(SYM_CHARACTERS, ((1,),), 2).verify(1 << FIELD),
                  lambda: verify_theorem1(1 << FIELD, 2),
                  lambda: next(monomial_values(SYM_CHARACTERS, 1 << FIELD, 2))):
        with pytest.raises(ValueError, match="16 bits"):
            build()


def test_a_monomial_degree_that_could_overflow_is_refused_before_any_product(monkeypatch):
    monkeypatch.setattr(modsym, "_key_product", lambda *args: 1 / 0)
    monkeypatch.setattr(Run, "multipartition_keys", lambda *args: 1 / 0)
    for build in (lambda: next(monomial_values(SYM_CHARACTERS, 1 << FIELD)),
                  lambda: next(monomial_values(SYM_CHARACTERS, 1 << FIELD, 2)),
                  lambda: singular_constraints(SYM_CHARACTERS, 2, 1 << FIELD),
                  lambda: x_class_value_matrix(1 << FIELD)):
        with pytest.raises(ValueError, match="16 bits"):
            build()


def test_generators_vanish_and_the_check_can_fail(c2_table):
    for p in (2, 3, 5):
        assert Run(SYM_CHARACTERS, ((1,),), p).vanish(0, 16)
    # psi = the trivial character of C2, the row (1, 0), is no lattice row at
    # p = 2: y_1 = X_1 is 1 on the class of one cycle of length 1 through the
    # element of order 2
    weight = character_weight(c2_table, 0)
    run = Run(c2_table.characters, ((1, 0),), 2)
    assert run.weights == [weight]
    assert values_on(run.generator_values(0, 1), weight, [(2,), (3,)]) == [(1,), (1,)]
    assert not run.vanish(0, 1)


# ---------------------------------------------------------------------------
# the link X = S * (1 + Y): a corrupted coordinate is never certified


def unpacked(terms, ncomp, degree):
    """The Phi-basis WreathElement of degree-degree terms held as {packed key:
    coefficient}, each key read off the multipartitions it packs."""
    index = {packed_key(mp): mp for mp in multipartitions(ncomp, degree)}
    return WreathElement(PHI, degree, ncomp, {index[key]: c for key, c in terms.items()})


def plus(a, b):
    """The sum of two elements held as {packed key: coefficient}."""
    return {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}


def closed_series(run, k, order):
    """X_k(t) to the given order from the run's closed form of row k (as the
    engine reads it)."""
    ncomp = len(run.rows[k])
    return GradedSeries([unpacked(run.xk(k, i), ncomp, i) for i in range(order + 1)])


def assert_closed_forms_match(run, k, series_xk, generators, order):
    """The packed closed forms of X_{k,n} and y_{k,n}, n <= order, of row k
    of the run are the series' coefficients packed, term for term: no term
    is missing, and none is built whose coefficient is zero."""
    for n in range(order + 1):
        assert run.xk(k, n) == packed(series_xk[n]), (run.rows[k], n)
    for n in range(1, order + 1):
        assert run.yk(k, n) == packed(generators[n]), (run.rows[k], run.p, n)


@pytest.mark.parametrize("phi", [((2, -1), (1, 0)), ((-3, 1), (1, 0)), ((1, 0), (-2, 1))])
def test_closed_form_of_xk_matches_the_series_arithmetic(phi, c2_table):
    # every class of C2 is 3-regular, so any unimodular matrix is a lattice basis
    lattice = ELatticeBasis(3, 2, IntMatrix(phi))
    run = lattice_run(c2_table, lattice)
    for k in (1, 2):
        series_xk = xk_series(c2_table, lattice, k, 6)
        generators = yk_generators(c2_table, lattice, k, 6)
        assert satisfies_quotient(series_xk, generators[1:], 3)
        assert_closed_forms_match(run, k - 1, series_xk, generators, 6)


@pytest.mark.parametrize("name, p", [(name, p) for name in ("c3_table", "c4_table", "s3_table")
                                     for p in (2, 3)])
def test_closed_form_of_xk_matches_the_series_on_the_vanishing_lattices(request, name, p):
    # the lattice rows the wreath link reads X_k from: zero exponents phi_kj,
    # and rows such as (1, 1, 1, 1) that multiply several H_j
    # y_{k,n} by substitution into y_explicit against the series quotient
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    run = lattice_run(table, lattice)
    for k in range(1, lattice.M + 1):
        assert_closed_forms_match(run, k - 1, xk_series(table, lattice, k, 6),
                                  yk_generators(table, lattice, k, 6), 6)


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_of_the_row_1_is_the_sym_generator_series(p):
    # the one-class group: X = H, whose closed form holds one term per degree
    run = Run(SYM_CHARACTERS, ((1,),), p)
    assert_closed_forms_match(run, 0, x_generator_series(6), y_from_quotient(6, p), 6)
    assert all(len(run.xk(0, n)) == 1 for n in range(30))


def test_a_corrupted_sym_generator_coordinate_is_not_certified():
    n, p = 5, 2
    run = Run(SYM_CHARACTERS, ((1,),), p)
    honest = run.y_explicit

    def corrupted(k):
        # one coordinate of y_5 off by one: x4*x1 is not a projective class
        y = honest(k)
        return y + SymElement.monomial(X, (4, 1)) if k == n else y

    run.y_explicit = corrupted
    report = verify_theorem1(n, p, run)
    assert not satisfies_quotient(x_generator_series(n),
                                  [corrupted(k) for k in range(1, n + 1)], p)
    assert not run.linked(0, n)
    # without the link, (a'), (b) and (c') would all have held
    assert run.vanish(0, n)
    assert is_unit_echelon(report.monomial_hnf)
    assert report.monomial_hnf.nrows == report.expected_rank
    assert report.method == "kernel" and not report.verdict
    assert report.lattice_hnf != report.monomial_hnf


def test_a_corrupted_wreath_generator_coordinate_is_not_certified(c2_table):
    p, n = 2, 3
    lattice = e_lattice(c2_table, p)
    run = lattice_run(c2_table, lattice)
    honest = run.yk
    # the coordinate of Phi_triv(x_2)*Phi_triv(x_1) in y_{1,3}, off by one
    extra = packed(WreathElement(PHI, n, 2, {((2, 1), ()): 1}))

    def corrupted(k, v):
        y = honest(k, v)
        return plus(y, extra) if (k, v) == (0, n) else y

    run.yk = corrupted
    assert not satisfies_quotient(closed_series(run, 0, n), [
        unpacked(corrupted(0, v), 2, v) for v in range(1, n + 1)], p)
    report = verify_theorem2(c2_table, p, n, run=run)
    assert not run.linked(0, n)
    assert run.vanish(0, n)
    assert run.weights == [cycle_weight(c2_table.characters, lattice.phi.rows[0])]
    assert is_unit_echelon(report.monomial_hnf)
    assert report.monomial_hnf.nrows == report.expected_rank
    assert report.method == "kernel" and not report.verdict


def test_a_corrupted_closed_form_of_xk_is_not_certified(c2_table):
    # one extra term in X_{1,n}: the substituted Y_k still satisfies
    # X_k = S_k (1 + Y_k), an identity in the x_i, so only the power rule
    # H_j D_j X_k = e_j X_k D H_j refuses the closed form
    p = 2
    lattice = e_lattice(c2_table, p)
    cases = [(Run(SYM_CHARACTERS, ((1,),), p), 5,
              packed(WreathElement(PHI, 5, 1, {((4, 1),): 1})), SYM_WEIGHT,
              lambda run: verify_theorem1(5, p, run)),
             (lattice_run(c2_table, lattice), 3,
              packed(WreathElement(PHI, 3, 2, {((2, 1), ()): 1})),
              cycle_weight(c2_table.characters, lattice.phi.rows[0]),
              lambda run: verify_theorem2(c2_table, p, 3, run=run))]
    for run, n, extra, weight, verify in cases:
        honest = run.xk
        run.xk = lambda k, v, n=n, extra=extra, honest=honest: (
            plus(honest(k, v), extra) if (k, v) == (0, n) else honest(k, v))
        report = verify(run)
        assert satisfies_quotient(closed_series(run, 0, n), [
            unpacked(run.yk(0, v), len(run.rows[0]), v) for v in range(1, n + 1)], p)
        assert run.linked(0, n - 1) and not run.linked(0, n)
        assert run.weights == [weight] and run.vanish(0, n)
        assert is_unit_echelon(report.monomial_hnf)
        assert report.monomial_hnf.nrows == report.expected_rank
        assert report.method == "kernel" and not report.verdict


def test_the_kernel_decides_a_corrupted_closed_form_of_c4(c4_table):
    # the failed link sends c4 p=2 n=5 to the kernel of a 451 x 252
    # constraint matrix, which decides it within seconds
    p, n = 2, 5
    run = lattice_run(c4_table, e_lattice(c4_table, p))
    extra, honest = packed(WreathElement(PHI, n, 4, {((4, 1), (), (), ()): 1})), run.xk
    run.xk = lambda k, v: plus(honest(k, v), extra) if (k, v) == (0, n) else honest(k, v)
    report = verify_theorem2(c4_table, p, n, run=run)
    assert run.linked(0, n - 1) and not run.linked(0, n)
    assert report.method == "kernel" and report.verdict is False


def test_the_kernel_of_c4_at_degree_5_is_the_structural_lattice(c4_table):
    report = verify_theorem2(c4_table, 2, 5)
    assert report.method == "structural" and report.verdict
    assert integer_kernel(singular_constraints(c4_table.characters, 2, 5)) == report.lattice_hnf


def test_a_generator_off_the_lattice_makes_the_verdict_false(monkeypatch, c2_table):
    honest = [verify_theorem1(4, 2)]
    lattice = e_lattice(c2_table, 2)
    honest.append(verify_theorem2(c2_table, 2, 3, lattice=lattice))
    # every run below is fresh, and its (a') fails
    monkeypatch.setattr(Run, "vanish", lambda *args: False)
    for report, expected in zip([verify_theorem1(4, 2),
                                 verify_theorem2(c2_table, 2, 3, lattice=lattice)], honest):
        assert report.method == "kernel" and report.verdict is False
        assert report.lattice_hnf == expected.lattice_hnf
        assert report.monomial_hnf == expected.monomial_hnf
