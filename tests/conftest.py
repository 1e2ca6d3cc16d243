import json
from fractions import Fraction
from functools import reduce
from importlib import resources
from operator import add

import pytest

from projrep.exactlin import Cyclotomic, IntMatrix, hnf_basis, is_unimodular
from projrep.modsym import FIELD, Run, monomial_values
from projrep.partitions import EMPTY, MultiPartition, Partition, multipartitions, z
from projrep.series import GradedSeries, exp
from projrep.wreath import XI, WreathElement, load_table, xi_from_phi, xk_series


def in_lattice(vector, basis):
    """Membership by HNF equality: adding a lattice vector keeps the basis."""
    return hnf_basis(IntMatrix(basis.rows + (tuple(vector),), basis.ncols)) == hnf_basis(basis)


def sparse_built(rows, ncols):
    """The matrix of these dense rows, built from its sparse rows."""
    return IntMatrix._trusted_sparse(
        [(tuple(j for j, v in enumerate(row) if v), tuple(v for v in row if v))
         for row in rows], ncols)


def packed_key(index):
    """The key of a MultiPartition index of N components, built from its
    parts: field (v - 1) * N + j, FIELD bits wide, holds the multiplicity of
    the part v in component j.  The oracle of modsym's key enumeration."""
    ncomp = len(index)
    return sum(1 << FIELD * ((v - 1) * ncomp + j)
               for j, lam in enumerate(index.components) for v in lam.parts)


def packed(element):
    """{packed key: coefficient} of a SymElement or WreathElement, the form
    of the engine's closed forms and monomial_matrix's generators: a
    partition index is the multipartition with that one component."""
    return {packed_key(index if isinstance(index, MultiPartition) else MultiPartition((index,))):
            coeff for index, coeff in element.coeffs.items()}


def monomial_rows(generator, characters, rows, p, n):
    """The engine's monomial matrix of degree n with these generators in
    place of the closed forms y_{k,v}: a fresh Run of the characters and
    rows, its yk replaced, builds each lower degree it reads from them."""
    run = Run(characters, rows, p)
    run.yk = generator
    return run.monomials(n)


def satisfies_quotient(x_series, generators, p):
    """The oracle of the link: True iff the generators y_1..y_D
    (generators[i - 1] = y_i) satisfy every degree i <= D, the order of
    x_series, of X(t) = S(t) * (1 + Y(t)), S the part of X in degrees
    divisible by p:
        x_i = sum over p | j, 0 <= j <= i of x_j * y_{i-j},  y_0 = 1,
    on graded elements, by series arithmetic."""
    one_plus_y = (x_series[0],) + tuple(generators)
    return all(reduce(add, [x_series[j] * one_plus_y[i - j] for j in range(0, i + 1, p)])
               == x_series[i] for i in range(1, x_series.order + 1))


def exchange_oracle(table, lattice, n):
    """The generator exchange check on the series arithmetic: True iff the
    completed lattice matrix is unimodular and, in every degree i <= n, the
    coefficient of Phi_j(x_i) in xk_series for every row k, lattice rows and
    the rest, is phi_kj."""
    if not is_unimodular(lattice.phi):
        return False
    series = [xk_series(table, lattice, k, n) for k in range(1, table.N + 1)]
    return all(series[k][i].coeffs.get(
        MultiPartition([(i,) if t == j else () for t in range(table.N)]), 0) == e
        for i in range(1, n + 1) for k, row in enumerate(lattice.phi.rows)
        for j, e in enumerate(row))


def centralizer_order(table, nu):
    """Z_nu = prod over classes C of z(nu_C) * (|G|/|C|)^len(nu_C)."""
    result = 1
    for cls, lam in zip(table.classes, nu):
        result *= z(lam) * (table.order // cls.size) ** len(lam)
    return result


def singular_indices(table, p, n):
    """The p-singular classes nu: a cycle length divisible by p, or a cycle
    through a class of G whose element order p divides."""
    return [nu for nu in multipartitions(table.N, n)
            if any(lam.parts and (cls.element_order % p == 0 or not lam.is_p_regular(p))
                   for cls, lam in zip(table.classes, nu))]


def singular_index_rows(table, p, n):
    """One constraint row per p-singular class nu of degree n: the values
    X_rho(nu) of monomial_values as Cyclotomics of the table's
    conductor, columns in multipartitions(N, n) order.  Each row is
    Z_nu = prod over C of z(nu_C) * (|G|/|C|)^len(nu_C), the centralizer
    order of nu, times the xi_nu coefficients of the PHI monomials, so their
    integer solutions are the vanishing lattice; modsym.singular_constraints
    reads them off as integer coordinates."""
    m, width = table.conductor, len(table.characters[0].values[0])
    rows = list(zip(*monomial_values(table.characters, n, p)))
    return [[Cyclotomic(m, coords) for coords in zip(*rows[i:i + width])]
            for i in range(0, len(rows), width)]


def xk_exp_identity_check(table, lattice, k, order):
    """True iff X_k(t) expanded over xi equals exp(C_k(t)) with C_k supported on
    p-regular xi generators, for a lattice row k <= M."""
    if not 1 <= k <= lattice.M:
        raise ValueError("k must index a lattice row (1..M)")
    p = lattice.p
    n_comp = table.N
    exponents = lattice.phi.rows[k - 1]

    log_coeffs = [WreathElement.zero(XI, 0, n_comp)]
    for i in range(1, order + 1):
        acc = WreathElement.zero(XI, i, n_comp)
        for c_index, cls in enumerate(table.classes):
            scalar = Cyclotomic.from_rational(0)
            for j in range(n_comp):
                scalar = scalar + (exponents[j]
                                   * table.irreducibles[j].values[c_index]
                                   * Fraction(cls.size, table.order))
            if cls.element_order % p == 0:
                if scalar:
                    return False
                continue
            comps = [EMPTY] * n_comp
            comps[c_index] = Partition((i,))
            acc = acc + WreathElement(XI, i, n_comp,
                                      {MultiPartition(comps): scalar * Fraction(1, i)})
        log_coeffs.append(acc)

    rhs = exp(GradedSeries(log_coeffs))
    xk = xk_series(table, lattice, k, order)
    lhs = GradedSeries([xi_from_phi(c, table) for c in xk.coeffs])
    return lhs == rhs


def table_path(name):
    return str(resources.files("projrep") / "tables" / ("%s.json" % name))


@pytest.fixture(scope="session")
def trivial_table():
    return load_table(table_path("trivial"))


@pytest.fixture(scope="session")
def c2_table():
    return load_table(table_path("c2"))


@pytest.fixture(scope="session")
def c3_table():
    return load_table(table_path("c3"))


@pytest.fixture(scope="session")
def s3_table():
    return load_table(table_path("s3"))


@pytest.fixture(scope="session")
def c4_table():
    return load_table(table_path("c4"))


@pytest.fixture
def c4_misplaced_zeta4(tmp_path):
    """Path of the C4 table with the value columns of 4a and 2a swapped: it
    still passes row orthogonality, but its order-2 class carries zeta_4."""
    with open(table_path("c4")) as handle:
        data = json.load(handle)
    assert [c["element_order"] for c in data["classes"]] == [1, 4, 2, 4]
    for irr in data["irreducibles"]:
        values = irr["values"]
        values[1], values[2] = values[2], values[1]
    path = tmp_path / "c4_misplaced.json"
    path.write_text(json.dumps(data))
    return str(path)
