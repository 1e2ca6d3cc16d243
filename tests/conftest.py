import json
from importlib import resources

import pytest

from projrep.exactlin import IntMatrix, hnf_basis
from projrep.wreath import load_table


def in_lattice(vector, basis):
    """Membership by HNF equality: adding a lattice vector keeps the basis."""
    return hnf_basis(IntMatrix(basis.rows + (tuple(vector),), basis.ncols)) == hnf_basis(basis)


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
