import json
import random
import re
from fractions import Fraction

import pytest
import sympy

from projrep import modsym
from projrep.exactlin import (Cyclotomic, IntMatrix, euler_phi, hnf_basis, integer_kernel,
                              rational_constraints)
from projrep.modsym import (FIELD, SYM_CHARACTERS, Run, cycle_weight, singular_constraints,
                            verify_theorem1)
from projrep.partitions import (EMPTY, MultiPartition, Partition, count_multipartitions,
                                multipartitions)
from projrep.series import y_explicit
from projrep.symfunc import SymElement, X, x_to_c
from projrep.wreath import (PHI, XI, CharTable, ELatticeBasis, Irreducible, TableError,
                            WreathElement, e_lattice, generator_exchange_check,
                            lattice_run, load_table, p_regular_classes, phi_c_in_xi,
                            phi_x_in_xi, verify_theorem2, xi_from_phi, xk_series,
                            yk_generators)

from conftest import (centralizer_order, exchange_oracle, monomial_rows, packed,
                      singular_index_rows, singular_indices, xk_exp_identity_check)


def xi_mono(ncomp, placements, coeff=1):
    comps = [EMPTY] * ncomp
    for idx, parts in placements.items():
        comps[idx] = Partition(parts)
    return WreathElement(XI, sum(sum(p) for p in placements.values()), ncomp,
                         {MultiPartition(comps): coeff})


# ---------------------------------------------------------------------------
# table loading


def test_load_bundled_tables(trivial_table, c2_table, c3_table, s3_table, c4_table):
    assert trivial_table.N == 1 and trivial_table.order == 1
    assert c2_table.N == 2 and c2_table.order == 2
    assert c3_table.N == 3 and c3_table.conductor == 3
    assert s3_table.N == 3 and s3_table.order == 6
    assert c4_table.N == 4 and c4_table.conductor == 4


def test_s3_table_matches_symmetric_group_oracle(s3_table):
    from projrep.symfunc import mn_character
    # classes 1a, 2a, 3a correspond to cycle types (1,1,1), (2,1), (3)
    class_types = [Partition((1, 1, 1)), Partition((2, 1)), Partition((3,))]
    irr_types = {"triv": Partition((3,)), "sgn": Partition((1, 1, 1)),
                 "std": Partition((2, 1))}
    for irr in s3_table.irreducibles:
        lam = irr_types[irr.label]
        for value, mu in zip(irr.values, class_types):
            assert value == mn_character(lam, mu)


def _table_payload():
    return {
        "name": "C2", "order": 2, "conductor": 1,
        "classes": [{"label": "1a", "size": 1, "element_order": 1},
                    {"label": "2a", "size": 1, "element_order": 2}],
        "irreducibles": [{"label": "triv", "values": [1, 1]},
                         {"label": "sgn", "values": [1, -1]}],
    }


def test_load_rejects_wrong_value(tmp_path):
    payload = _table_payload()
    payload["irreducibles"][1]["values"] = [1, -2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(TableError, match="orthogonality"):
        load_table(str(bad))


def test_load_rejects_size_mismatch(tmp_path):
    payload = _table_payload()
    payload["classes"][1]["size"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(TableError, match="sum"):
        load_table(str(bad))


def test_load_rejects_a_table_of_no_group(tmp_path):
    payload = _table_payload()
    payload["classes"][1]["element_order"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(TableError, match="must divide the group order 2"):
        load_table(str(bad))
    from projrep.wreath import ClassInfo
    with pytest.raises(TableError, match="class 2a: size 4"):
        CharTable("x", 6, 1, [ClassInfo("1a", 1, 1), ClassInfo("3a", 1, 3),
                              ClassInfo("2a", 4, 2)],
                  [None, None, None])


def test_load_rejects_a_value_outside_its_classes_field(c4_misplaced_zeta4):
    with pytest.raises(TableError, match=r"chi_i on class 2a \(element order 2\) does "
                                         r"not lie in Q\(zeta_2\)"):
        load_table(c4_misplaced_zeta4)


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.update(order=2.5), "order must be an integer, not 2.5"),
    (lambda t: t.update(conductor=True), "conductor must be an integer, not True"),
    (lambda t: t.update(order="2"), "order must be an integer, not '2'"),
    (lambda t: t["classes"][1].update(size=1.9), "size of class 2a must be an integer"),
    (lambda t: t["classes"][1].update(element_order=2.0),
     "element order of class 2a must be an integer"),
    (lambda t: t["classes"][0].update(size=True), "size of class 1a must be an integer"),
    (lambda t: t["irreducibles"][0].update(values=[True, True]), "unsupported value True"),
    (lambda t: t["irreducibles"][0].update(values=[[True], 1]),
     "a cyclotomic value must be a list of 1 integers"),
])
def test_load_rejects_non_integers_and_booleans(tmp_path, edit, message):
    # int() would truncate 2.5 to 2 and read true as 1; both must be refused
    payload = _table_payload()
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(TableError, match=re.escape(message)):
        load_table(str(bad))


@pytest.mark.parametrize("conductor", [16000, 69996])
def test_a_wide_conductor_loads(tmp_path, conductor):
    # loads that took 2 s (16000) and more than a minute (69996) while Phi_m
    # was x^m - 1 divided by every Phi_d; it is now one product of binomials
    # (x^d - 1)^mu(m/d), and a rational value needs no Galois check
    payload = _table_payload()
    payload["conductor"] = conductor
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(payload))
    table = load_table(str(wide))
    zeros = (0,) * (euler_phi(conductor) - 1)
    assert [chi.values for chi in table.characters] == [((1,) + zeros, (1,) + zeros),
                                                        ((1,) + zeros, (-1,) + zeros)]
    assert all(chi.conductor == conductor for chi in table.characters)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TableError):
        load_table(str(bad))
    missing = tmp_path / "missing.json"
    with pytest.raises(TableError):
        load_table(str(missing))


def test_first_class_must_be_identity(c2_table):
    from projrep.wreath import ClassInfo
    with pytest.raises(TableError, match="identity"):
        CharTable("x", 2, 1, [ClassInfo("2a", 1, 2), ClassInfo("1a", 1, 1)],
                  c2_table.irreducibles)


# ---------------------------------------------------------------------------
# regular classes and the vanishing lattice


def test_p_regular_classes(c2_table, s3_table):
    assert [c.label for c in p_regular_classes(c2_table, 2)] == ["1a"]
    assert [c.label for c in p_regular_classes(c2_table, 3)] == ["1a", "2a"]
    assert [c.label for c in p_regular_classes(s3_table, 2)] == ["1a", "3a"]
    assert [c.label for c in p_regular_classes(s3_table, 3)] == ["1a", "2a"]


def test_e_lattice_c2(c2_table):
    lattice = e_lattice(c2_table, 2)
    assert lattice.M == 1
    # the regular character chi_triv + chi_sgn spans the lattice
    assert lattice.phi.rows[0] == (1, 1)
    assert sympy.Matrix(lattice.phi.rows).det() in (1, -1)


def test_e_lattice_s3(s3_table):
    lattice = e_lattice(s3_table, 2)
    assert lattice.M == 2
    assert hnf_basis(IntMatrix(lattice.phi.rows[:2], 3)) == IntMatrix([[1, 1, 0], [0, 0, 1]])
    assert sympy.Matrix(lattice.phi.rows).det() in (1, -1)


def test_e_lattice_p_coprime_order(c2_table, c3_table):
    # p coprime to |G|: no singular classes, the lattice is everything
    for table, p in ((c2_table, 3), (c3_table, 2)):
        lattice = e_lattice(table, p)
        assert lattice.M == table.N
        assert hnf_basis(lattice.phi) == IntMatrix.identity(table.N)


# lattice.phi for each bundled table and p, pinned: the completion rows come
# from the HNF transform of the kernel, so they would follow any drift in the
# kernel rows or in the constraints behind them
E_LATTICE_PHI = {
    ("trivial", 2): ((1,),), ("trivial", 3): ((1,),), ("trivial", 5): ((1,),),
    ("c2", 2): ((1, 1), (0, 1)), ("c2", 3): ((1, 0), (0, 1)), ("c2", 5): ((1, 0), (0, 1)),
    ("c3", 2): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ("c3", 3): ((1, 1, 1), (0, 1, 0), (0, 0, 1)),
    ("c3", 5): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ("c4", 2): ((1, 1, 1, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ("c4", 3): ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ("c4", 5): ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ("s3", 2): ((1, 1, 0), (0, 0, 1), (0, 1, 0)),
    ("s3", 3): ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    ("s3", 5): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


@pytest.mark.parametrize("name, p", sorted(E_LATTICE_PHI))
def test_e_lattice_is_pinned(request, name, p):
    table = request.getfixturevalue(name + "_table")
    lattice = e_lattice(table, p)
    assert lattice.phi.rows == E_LATTICE_PHI[name, p]
    assert lattice.M == len(p_regular_classes(table, p))


def relabel(table, class_order, irr_order):
    """The table with its classes and irreducibles listed in the given orders."""
    return CharTable(
        table.name + "'", table.order, table.conductor,
        [table.classes[c] for c in class_order],
        [Irreducible(table.irreducibles[j].label,
                     tuple(table.irreducibles[j].values[c] for c in class_order))
         for j in irr_order])


def test_e_lattice_is_degree_one_of_the_constraint_builder(trivial_table, c2_table, c3_table,
                                                            s3_table, c4_table):
    # the kernel of the Cyclotomic constraints chi_j(C) over the p-singular
    # classes C, on the bundled tables and on relabelled ones
    tables = [trivial_table, c2_table, c3_table, s3_table, c4_table]
    for seed in range(1, 8):
        rng = random.Random(seed)
        for table in (c2_table, c3_table, s3_table, c4_table):
            tables.append(relabel(table, [0] + rng.sample(range(1, table.N), table.N - 1),
                                  rng.sample(range(table.N), table.N)))
    for table in tables:
        for p in (2, 3, 5, 7):
            singular = [c for c, cls in enumerate(table.classes) if cls.element_order % p == 0]
            rows = [[irr.values[c] for irr in table.irreducibles] for c in singular]
            lattice = e_lattice(table, p)
            assert IntMatrix(lattice.phi.rows[:lattice.M], table.N) == \
                integer_kernel(rational_constraints(rows, table.N))


def test_the_symmetric_group_is_the_one_class_case(trivial_table):
    # S_n is G wr S_n for G = 1: the trivial table carries the sym character data
    assert trivial_table.characters == SYM_CHARACTERS


def coordinates(value, conductor):
    return tuple(map(int, value.lift(conductor).rational_coords()))


def test_characters_are_the_lifted_table_values(trivial_table, c2_table, c3_table,
                                                s3_table, c4_table):
    # the integer characters against the validated Cyclotomic values, which
    # load at conductor 1 where they are integers; and the lattice rows
    # psi_k = sum_j phi_kj chi_j against their Cyclotomic sums
    tables = (trivial_table, c2_table, c3_table, s3_table, c4_table,
              relabel(c4_table, (0, 3, 1, 2), (2, 0, 3, 1)))
    for table in tables:
        m = table.conductor
        orders = tuple(cls.element_order for cls in table.classes)
        for chi, irr in zip(table.characters, table.irreducibles):
            assert chi.conductor == m and chi.element_orders == orders
            for c, value in enumerate(irr.values):
                assert chi.values[c] == coordinates(value, m)
                assert all(type(v) is int for v in chi.values[c])
        for p in (2, 3):
            lattice = e_lattice(table, p)
            for k, row in enumerate(lattice.phi.rows, 1):
                weight = cycle_weight(table.characters, row)
                for c in range(table.N):
                    total = sum((e * irr.values[c] for e, irr in zip(row, table.irreducibles)),
                                Cyclotomic.from_rational(0))
                    assert weight.values[c] == coordinates(total, m), (table.name, p, k, c)


def test_e_lattice_rows_vanish_on_singular_classes(s3_table, c4_table):
    for table, p in ((s3_table, 2), (s3_table, 3), (c4_table, 2)):
        lattice = e_lattice(table, p)
        for row in lattice.phi.rows[:lattice.M]:
            for idx, cls in enumerate(table.classes):
                if cls.element_order % p == 0:
                    total = Cyclotomic.from_rational(0)
                    for j, irr in enumerate(table.irreducibles):
                        total = total + row[j] * irr.values[idx]
                    assert total == 0


# ---------------------------------------------------------------------------
# basis expansion


def test_phi_x1_for_c2(c2_table):
    element = phi_x_in_xi(c2_table, 0, 1)
    half = Fraction(1, 2)
    assert element == (xi_mono(2, {0: (1,)}, half) + xi_mono(2, {1: (1,)}, half))


def test_xi_round_trip_c2(c2_table):
    # xi_{n,1a} = conj(triv(1a))*Phi_triv(c_n) + conj(sgn(1a))*Phi_sgn(c_n)
    for n in (1, 2, 3, 4):
        recovered = phi_c_in_xi(c2_table, 0, n) + phi_c_in_xi(c2_table, 1, n)
        assert recovered == xi_mono(2, {0: (n,)})
        twisted = phi_c_in_xi(c2_table, 0, n) - phi_c_in_xi(c2_table, 1, n)
        assert twisted == xi_mono(2, {1: (n,)})


def test_xi_round_trip_general(c3_table, s3_table):
    # xi_{n,C} = sum_rho conj(rho(C)) Phi_rho(c_n)
    for table in (c3_table, s3_table):
        for c_index in range(table.N):
            for n in (1, 2):
                acc = WreathElement.zero(XI, n, table.N)
                for j, irr in enumerate(table.irreducibles):
                    acc = acc + irr.values[c_index].conjugate() * phi_c_in_xi(table, j, n)
                assert acc == xi_mono(table.N, {c_index: (n,)})


def test_trivial_group_reduces_to_symfunc(trivial_table):
    for n in range(7):
        element = phi_x_in_xi(trivial_table, 0, n)
        expected = x_to_c(SymElement.generator(X, n))
        assert {mp[0]: c.rational_value() for mp, c in element.coeffs.items()} == \
            dict(expected.coeffs)


def test_xi_from_phi_is_a_ring_morphism(c2_table):
    rng = random.Random(19)
    mps = multipartitions(2, 2)
    for _ in range(8):
        a = WreathElement(PHI, 2, 2,
                          {mp: rng.randint(-3, 3) for mp in mps})
        b = WreathElement(PHI, 2, 2,
                          {mp: rng.randint(-3, 3) for mp in mps})
        assert xi_from_phi(a * b, c2_table) == \
            xi_from_phi(a, c2_table) * xi_from_phi(b, c2_table)


def test_wreath_elements_of_different_algebras_do_not_mix():
    xi = WreathElement.generator(XI, 0, 1, 2)
    for other in (WreathElement.generator(PHI, 0, 1, 2),
                  WreathElement.generator(XI, 0, 1, 3)):
        with pytest.raises(ValueError):
            xi + other
        with pytest.raises(ValueError):
            xi * other
        assert xi != other


@pytest.mark.parametrize("name", ["trivial_table", "c2_table", "c3_table", "s3_table",
                                  "c4_table"])
def test_singular_index_rows_are_scaled_xi_coefficients(request, name):
    # the class-value recursion against the xi expansion it replaces
    table = request.getfixturevalue(name)
    zero = Cyclotomic.from_rational(0)
    for n in range(5):
        phi_index = multipartitions(table.N, n)
        expansions = [xi_from_phi(WreathElement(PHI, n, table.N, {rho: 1}), table)
                      for rho in phi_index]
        for p in (2, 3):
            rows = singular_index_rows(table, p, n)
            nus = singular_indices(table, p, n)
            assert len(rows) == len(nus)
            for nu, row in zip(nus, rows):
                scale = centralizer_order(table, nu)
                assert len(row) == len(phi_index)
                for value, expansion in zip(row, expansions):
                    assert value.conductor == table.conductor
                    assert value == scale * expansion.coeffs.get(nu, zero), (p, n, nu)
            assert singular_constraints(table.characters, p, n) == \
                rational_constraints(rows, len(phi_index))


def test_singular_index_rows_follow_a_relabelled_table(c4_table):
    # relabel the irreducibles and the non-identity classes of C4: the rows
    # follow the classes and the columns follow the irreducibles
    class_order = (0, 3, 1, 2)
    irr_order = (2, 0, 3, 1)
    relabelled = relabel(c4_table, class_order, irr_order)

    def move(mp, order):
        return MultiPartition([mp[i] for i in order])

    for p in (2, 3):
        for n in range(5):
            phi_index = multipartitions(4, n)
            column = {rho: i for i, rho in enumerate(phi_index)}
            new_rows = dict(zip(singular_indices(relabelled, p, n),
                                singular_index_rows(relabelled, p, n)))
            old_rows = singular_index_rows(c4_table, p, n)
            assert len(new_rows) == len(old_rows)
            for nu, row in zip(singular_indices(c4_table, p, n), old_rows):
                new_row = new_rows[move(nu, class_order)]
                for rho, value in zip(phi_index, row):
                    assert new_row[column[move(rho, irr_order)]] == value


def test_monomial_multiplication_is_union():
    a = xi_mono(2, {0: (2, 1)})
    b = xi_mono(2, {0: (2,), 1: (1,)})
    assert a * b == xi_mono(2, {0: (2, 2, 1), 1: (1,)})


# ---------------------------------------------------------------------------
# generator series


def test_xk_series_trivial_group(trivial_table):
    lattice = e_lattice(trivial_table, 2)
    series = xk_series(trivial_table, lattice, 1, 5)
    for i in range(6):
        expected = ({MultiPartition((Partition((i,)),)): 1} if i
                    else {MultiPartition((EMPTY,)): 1})
        assert series[i] == WreathElement(PHI, i, 1, expected)


def test_xk_series_identity_lattice(c2_table):
    # p coprime to |G|: phi is the identity so X_k is the plain generator series
    lattice = e_lattice(c2_table, 3)
    assert hnf_basis(lattice.phi) == IntMatrix.identity(2)
    for k in (1, 2):
        series = xk_series(c2_table, lattice, k, 4)
        row = lattice.phi.rows[k - 1]
        j = row.index(1)
        for i in range(1, 5):
            mono = [EMPTY, EMPTY]
            mono[j] = Partition((i,))
            assert series[i] == WreathElement(PHI, i, 2, {MultiPartition(mono): 1})


def test_xk_series_c2_product(c2_table):
    lattice = e_lattice(c2_table, 2)
    series = xk_series(c2_table, lattice, 1, 3)
    deg1 = (WreathElement.generator(PHI, 0, 1, 2)
            + WreathElement.generator(PHI, 1, 1, 2))
    assert series[1] == deg1


def test_yk_generators_trivial_group(trivial_table):
    for p in (2, 3):
        lattice = e_lattice(trivial_table, p)
        ys = yk_generators(trivial_table, lattice, 1, 8)
        for n in range(1, 9):
            mapped = {mp[0]: c for mp, c in ys[n].coeffs.items()}
            expected = (dict(y_explicit(n, p).coeffs) if n % p else {})
            assert mapped == expected


def test_yk_generators_c2_p3(c2_table):
    # p coprime to |G|: y_{k,n} is y_explicit pushed through Phi_k
    lattice = e_lattice(c2_table, 3)
    for k in (1, 2):
        j = lattice.phi.rows[k - 1].index(1)
        ys = yk_generators(c2_table, lattice, k, 4)
        expected = y_explicit(4, 3)
        mapped = {mp[j]: c for mp, c in ys[4].coeffs.items()}
        assert mapped == dict(expected.coeffs)
        assert all(mp[1 - j] == EMPTY for mp in ys[4].coeffs)


def test_yk_c2_p2_xi_support(c2_table):
    lattice = e_lattice(c2_table, 2)
    ys = yk_generators(c2_table, lattice, 1, 5)
    assert ys[1] == (WreathElement.generator(PHI, 0, 1, 2)
                     + WreathElement.generator(PHI, 1, 1, 2))
    support = xi_from_phi(ys[1], c2_table)
    assert list(support.coeffs) == [MultiPartition((Partition((1,)), EMPTY))]
    # all odd coefficients expand over regular multipartitions only
    for n in (1, 3, 5):
        for mp in xi_from_phi(ys[n], c2_table).coeffs:
            assert mp[1] == EMPTY and mp[0].is_p_regular(2)


# ---------------------------------------------------------------------------
# verification


def test_verify_theorem2_small(c2_table, s3_table, c3_table):
    for table, p, max_n in ((c2_table, 2, 4), (c2_table, 3, 3),
                            (s3_table, 2, 2), (c3_table, 2, 2)):
        for n in range(max_n + 1):
            report = verify_theorem2(table, p, n)
            assert report.verdict, (table.name, p, n)
            assert report.rank == report.expected_rank


def product_chain_rows(table, lattice, p, n):
    """The rows of the generator monomials as WreathElement products."""
    positions = {mp: i for i, mp in enumerate(multipartitions(table.N, n))}
    generators = {k: yk_generators(table, lattice, k, n) for k in range(1, lattice.M + 1)}
    rows = []
    for assignment in multipartitions(lattice.M, n, part_filter=lambda v: v % p != 0):
        product = WreathElement.one(PHI, table.N)
        for k0, lam in enumerate(assignment):
            for part in lam.parts:
                product = product * generators[k0 + 1][part]
        row = [0] * len(positions)
        for index, coeff in product.coeffs.items():
            row[positions[index]] = coeff
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("name", ["trivial_table", "c2_table", "c3_table", "s3_table",
                                  "c4_table"])
def test_monomial_rows_are_the_generator_products(request, name):
    table = request.getfixturevalue(name)
    for p in (2, 3):
        lattice = e_lattice(table, p)
        for n in range(5):
            generators = {k: yk_generators(table, lattice, k, n)
                          for k in range(1, lattice.M + 1)}
            rows = monomial_rows(lambda j, v: packed(generators[j + 1][v]), table.characters,
                                 lattice.phi.rows[:lattice.M], p, n).rows
            assert rows == product_chain_rows(table, lattice, p, n)
            report = verify_theorem2(table, p, n, lattice=lattice)
            assert report.monomial_hnf == hnf_basis(IntMatrix(rows, report.monomial_hnf.ncols))


@pytest.mark.parametrize("name, p", [("trivial_table", 2), ("trivial_table", 3),
                                     ("c2_table", 3), ("s3_table", 2), ("c4_table", 3)])
def test_a_cold_degree_equals_the_degree_built_after_the_lower_ones(
        monkeypatch, request, name, p):
    # the run's matrices: a cold call of degree n in a fresh run builds 0..n
    # in ascending order, never more than one below another, each degree
    # from the rows of the lower ones, and its matrix is the one built in a
    # run where degrees 0..n-1 came first
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    finished, active, build = [], [], modsym.monomial_matrix

    def recorded(*args):
        active.append(args[2])
        assert len(active) <= 2, active
        matrix = build(*args)
        finished.append(active.pop())
        return matrix

    monkeypatch.setattr(modsym, "monomial_matrix", recorded)
    for n in range(7):
        del finished[:]
        cold = lattice_run(table, lattice).monomials(n)
        assert finished == list(range(n + 1))
        run = lattice_run(table, lattice)
        warm = [run.monomials(d) for d in range(n + 1)][-1]
        assert cold == warm
        assert cold.rows == product_chain_rows(table, lattice, p, n), (name, p, n)


def test_a_term_that_cancels_leaves_no_zero_in_a_monomial_row(c2_table):
    # generators A + B and A - B of degree 1: their product A^2 - B^2 has a
    # zero coefficient at AB, which a sparse row must not hold
    a, b = MultiPartition([Partition((1,)), EMPTY]), MultiPartition([EMPTY, Partition((1,))])
    generators = {(0, 1): {a: 1, b: 1}, (1, 1): {a: 1, b: -1},
                  (0, 2): {MultiPartition([Partition((2,)), EMPTY]): 1},
                  (1, 2): {MultiPartition([EMPTY, Partition((2,))]): 1}}
    matrix = monomial_rows(lambda j, v: packed(WreathElement(PHI, v, 2, generators[j, v])),
                           c2_table.characters, ((1, 0), (0, 1)), 5, 2)
    assert all(0 not in values for columns, values in matrix.sparse_rows)
    assert matrix == IntMatrix([[1, 0, 0, 0, 0], [0, 1, 2, 0, 1], [0, 1, 0, 0, -1],
                                [0, 0, 0, 1, 0], [0, 1, -2, 0, 1]])


def test_verify_theorem2_refuses_a_degree_that_overflows_a_key_field(monkeypatch, c2_table):
    monkeypatch.setattr(Run, "yk", lambda *args: 1 / 0)
    monkeypatch.setattr(Run, "linked", lambda *args: 1 / 0)
    with pytest.raises(ValueError, match="16 bits"):
        verify_theorem2(c2_table, 2, 1 << FIELD)


def test_verify_theorem2_matches_theorem1_for_trivial_group(trivial_table):
    for p in (2, 3):
        lattice = e_lattice(trivial_table, p)
        for n in range(7):
            wreath_report = verify_theorem2(trivial_table, p, n, lattice=lattice)
            sym_report = verify_theorem1(n, p)
            assert wreath_report.verdict and sym_report.verdict
            assert wreath_report.rank == sym_report.rank
            assert wreath_report.lattice_hnf == sym_report.lattice_hnf
            assert wreath_report.monomial_hnf == sym_report.monomial_hnf


def test_rank_equals_regular_class_count(c2_table, s3_table):
    # S3, p=2: rank in degree n equals the odd-part multipartition count over 2 classes
    for n in range(3):
        report = verify_theorem2(s3_table, 2, n)
        assert report.rank == len(multipartitions(
            2, n, part_filter=lambda v: v % 2 == 1))
    # C2, p=2: single regular class, so |P_{n,reg}|
    from projrep.partitions import p_regular_partitions
    for n in range(5):
        report = verify_theorem2(c2_table, 2, n)
        assert report.rank == len(p_regular_partitions(n, 2))


def test_verdict_independent_of_lattice_basis(c2_table, s3_table):
    rng = random.Random(43)
    for table, p, n in ((c2_table, 2, 3), (s3_table, 2, 2)):
        base = e_lattice(table, p)
        reference = verify_theorem2(table, p, n, lattice=base)
        # recombine the first M rows by a random unimodular transform
        rows = [list(r) for r in base.phi.rows]
        if base.M > 1:
            i, j = rng.sample(range(base.M), 2)
            rows[i] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[0] = [-v for v in rows[0]]
        permuted = ELatticeBasis(p, base.M, IntMatrix(rows, table.N))
        assert sympy.Matrix(permuted.phi.rows).det() in (1, -1)
        report = verify_theorem2(table, p, n, lattice=permuted)
        assert report.verdict == reference.verdict
        assert report.rank == reference.rank
        assert report.lattice_hnf == reference.lattice_hnf
        assert report.monomial_hnf == reference.monomial_hnf


def test_dimension_consistency(c2_table, s3_table, c4_table):
    # the counted expected rank against the enumerated p-regular classes
    cases = [(c2_table, 2, 4), (s3_table, 2, 2)]
    cases += [(table, p, 4) for table in (s3_table, c4_table) for p in (2, 3, 5)]
    for table, p, n in cases:
        lattice = e_lattice(table, p)
        monomial_count = len(multipartitions(lattice.M, n, part_filter=lambda v: v % p != 0))
        regular = len(multipartitions(len(p_regular_classes(table, p)), n,
                                      part_filter=lambda v: v % p != 0))
        counted = count_multipartitions(lattice.M, n, lambda v: v % p != 0)
        report = verify_theorem2(table, p, n, lattice=lattice)
        assert monomial_count == regular == counted == report.expected_rank == report.rank


def test_generator_exchange(trivial_table, c2_table, c3_table):
    for table, p, n in ((trivial_table, 2, 4), (c2_table, 2, 4), (c3_table, 2, 3)):
        lattice = e_lattice(table, p)
        assert generator_exchange_check(table, lattice, n)


def test_generator_exchange_rejects_a_non_unimodular_lattice(c2_table):
    lattice = ELatticeBasis(2, 1, IntMatrix([[1, 1], [0, 2]]))
    assert not generator_exchange_check(c2_table, lattice, 2)


@pytest.mark.parametrize("name", ["trivial_table", "c2_table", "c3_table", "c4_table",
                                  "s3_table"])
@pytest.mark.parametrize("p", [2, 3])
def test_the_exchange_check_on_the_closed_forms_agrees_with_the_series(request, name, p):
    table = request.getfixturevalue(name)
    lattice = e_lattice(table, p)
    for n in range(7):
        assert generator_exchange_check(table, lattice, n) == exchange_oracle(table, lattice, n)


@pytest.mark.parametrize("term, trust_the_link, passes", [
    ("linear", False, False), ("linear", True, False),
    ("square", False, False), ("square", True, True)])
def test_a_corrupted_closed_form_fails_the_exchange_check(monkeypatch, c2_table, term,
                                                          trust_the_link, passes):
    # one term of X_{1,2} off by one, Phi_sgn(x_2) or Phi_triv(x_1)^2: the
    # power rule refuses either closed form; with the link taken on trust,
    # the linear coefficient read off the closed form refuses the first
    lattice = e_lattice(c2_table, 2)
    key = {"linear": 1 << FIELD * ((2 - 1) * 2 + 1), "square": 2}[term]
    run = lattice_run(c2_table, lattice)
    honest = run.xk

    def corrupted(k, v):
        x = dict(honest(k, v))
        if (k, v) == (0, 2):
            x[key] = x.get(key, 0) + 1
        return x

    run.xk = corrupted
    if trust_the_link:
        run.linked = lambda *args: True
    assert generator_exchange_check(c2_table, lattice, 1, run)
    for n in (2, 4):
        assert generator_exchange_check(c2_table, lattice, n, run) == passes


def test_phi_coefficients_are_integers():
    index = MultiPartition((Partition((1,)), EMPTY))
    with pytest.raises(AssertionError):
        WreathElement(PHI, 1, 2, {index: Fraction(1, 2)})
    with pytest.raises(AssertionError):
        WreathElement(PHI, 1, 2, {index: Cyclotomic.zeta(3)})
    element = WreathElement(PHI, 1, 2, {index: Fraction(3)})
    assert type(element.coeffs[index]) is int and element.coeffs[index] == 3
    assert isinstance(WreathElement(XI, 1, 2, {index: 3}).coeffs[index], Cyclotomic)


def test_xk_exponential_identity(c2_table, s3_table, c3_table):
    for table, p, order in ((c2_table, 2, 5), (c2_table, 3, 4),
                            (s3_table, 2, 3), (s3_table, 3, 3), (c3_table, 2, 3)):
        lattice = e_lattice(table, p)
        for k in range(1, lattice.M + 1):
            assert xk_exp_identity_check(table, lattice, k, order), (table.name, p, k)


def test_yk_requires_lattice_row(c2_table):
    lattice = e_lattice(c2_table, 2)
    with pytest.raises(ValueError):
        yk_generators(c2_table, lattice, 2, 3)
