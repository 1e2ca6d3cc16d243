import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, strategies as st

from projrep import cli, modsym
from projrep.exactlin import IntMatrix, integer_kernel
from projrep.modsym import SYM_CHARACTERS, singular_constraints, verify_theorem1
from projrep.partitions import Partition, count_multipartitions, partitions
from projrep.series import y_explicit
from projrep.symfunc import SymElement, X, mn_character

from conftest import sparse_built, table_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_element(mapping, degree):
    return SymElement(X, degree,
                      {Partition(tuple(int(v) for v in key.strip("[]").split(",")
                                       if v)): Fraction(value)
                       for key, value in mapping.items()})


def test_sym_generators_text(capsys):
    code, out, _ = run(capsys, "sym", "generators", "--p", "2", "--max-degree", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == [
        "y_1 = x1",
        "y_3 = x3 - x2*x1",
        "y_5 = x5 - x4*x1 - x3*x2 + x2^2*x1",
        "y_7 = x7 - x6*x1 - x5*x2 - x4*x3 + 2*x4*x2*x1 + x3*x2^2 - x2^3*x1",
    ]
    assert "agree" in lines[-1]


def test_sym_generators_json_round_trip(capsys):
    code, out, _ = run(capsys, "sym", "generators", "--p", "3", "--max-degree", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert [g["n"] for g in payload["generators"]] == [1, 2, 4, 5]
    for entry in payload["generators"]:
        rebuilt = parse_element(entry["x_basis"], entry["n"])
        assert rebuilt == y_explicit(entry["n"], 3)


def test_sym_verify_exit_code_and_json(capsys):
    code, out, _ = run(capsys, "sym", "verify", "--p", "2", "--max-degree", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_verified"] is True
    assert len(payload["reports"]) == 6
    for entry in payload["reports"]:
        direct = verify_theorem1(entry["degree"], entry["p"])
        assert entry["verdict"] == direct.verdict
        assert entry["rank"] == direct.rank
        assert IntMatrix(entry["lattice_hnf"],
                         len(partitions(entry["degree"]))) == direct.lattice_hnf
        assert IntMatrix(entry["monomial_hnf"],
                         len(partitions(entry["degree"]))) == direct.monomial_hnf


def test_non_prime_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sym", "verify", "--p", "4", "--max-degree", "3"])
    assert info.value.code == 2


def test_bad_max_degree_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sym", "verify", "--p", "2", "--max-degree", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize("p", [pytest.param(str(10 ** 400), id="10**400"),
                               "1000000000000000003", "4294967311",
                               "4294967297", "4294967295", "1", "-3", "two"])
def test_refused_p_exits_2_at_once(capsys, p):
    # 10**400, too large for a float square root, and the prime 10**18 + 3,
    # too large to trial-divide, are refused by the bound 2^32 at once
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        cli.main(["sym", "verify", "--p", p, "--max-degree", "3"])
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    assert "argument --p" in capsys.readouterr().err


def test_p_is_prime_below_the_bound(capsys):
    assert [n for n in range(-3, 3000) if is_accepted_p(n)] == list(sympy.primerange(3000))
    assert not is_accepted_p(cli.PRIME_BOUND)
    start = time.perf_counter()
    for p in ("4294967291", "4294967279"):  # the largest primes below 2^32
        code, out, _ = run(capsys, "sym", "verify", "--p", p, "--max-degree", "3")
        assert code == 0 and "VERIFIED for p=%s" % p in out
    assert time.perf_counter() - start < 2


def is_accepted_p(n):
    try:
        cli.prime(str(n))
    except argparse.ArgumentTypeError:
        return False
    return True


def test_sym_chartable(capsys):
    code, out, _ = run(capsys, "sym", "chartable", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    classes = sorted(partitions(4))
    assert payload["classes"] == [str(mu) for mu in classes]
    for row in payload["rows"]:
        lam = Partition(tuple(int(v) for v in row["partition"].strip("[]").split(",")))
        assert row["values"] == [mn_character(lam, mu) for mu in classes]


def test_wreath_verify_bundled_name(capsys):
    code, out, _ = run(capsys, "wreath", "verify", "--table", "c2",
                       "--p", "2", "--max-degree", "3")
    assert code == 0
    assert "VERIFIED" in out


def test_wreath_verify_by_path(capsys):
    code, out, _ = run(capsys, "wreath", "verify", "--table", table_path("s3"),
                       "--p", "2", "--max-degree", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_verified"] is True
    assert all(entry["generator_exchange"] for entry in payload["reports"])


def test_wreath_generators(capsys):
    code, out, _ = run(capsys, "wreath", "generators", "--table", "c2",
                       "--p", "2", "--max-degree", "3")
    assert code == 0
    assert "y_{1,1} = Phi[triv](x1) + Phi[sgn](x1)" in out


def test_corrupted_table_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "order": 2, "conductor": 1,
        "classes": [{"label": "1a", "size": 1, "element_order": 1},
                    {"label": "2a", "size": 1, "element_order": 2}],
        "irreducibles": [{"label": "triv", "values": [1, 1]},
                         {"label": "sgn", "values": [1, -2]}]}))
    code, _, err = run(capsys, "wreath", "verify", "--table", str(bad),
                       "--p", "2", "--max-degree", "2")
    assert code == 2
    assert "orthogonality" in err


def test_table_of_no_group_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "order": 2, "conductor": 1,
        "classes": [{"label": "1a", "size": 1, "element_order": 1},
                    {"label": "2a", "size": 1, "element_order": 3}],
        "irreducibles": [{"label": "triv", "values": [1, 1]},
                         {"label": "sgn", "values": [1, -1]}]}))
    code, out, err = run(capsys, "wreath", "verify", "--table", str(bad),
                         "--p", "3", "--max-degree", "2")
    assert code == 2
    assert "VERIFIED" not in out
    assert "divide" in err


@pytest.mark.parametrize("edit", [lambda t: t.update(order=2.5),
                                  lambda t: t["classes"][1].update(size=1.9),
                                  lambda t: t["irreducibles"][0].update(values=[True, True])])
def test_table_with_a_non_integer_or_boolean_exits_2(tmp_path, capsys, edit):
    table = {
        "name": "C2", "order": 2, "conductor": 1,
        "classes": [{"label": "1a", "size": 1, "element_order": 1},
                    {"label": "2a", "size": 1, "element_order": 2}],
        "irreducibles": [{"label": "triv", "values": [1, 1]},
                         {"label": "sgn", "values": [1, -1]}]}
    edit(table)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(table))
    code, out, err = run(capsys, "wreath", "verify", "--table", str(bad),
                         "--p", "2", "--max-degree", "2")
    assert code == 2
    assert "VERIFIED" not in out
    assert "malformed table file" in err


def test_table_value_outside_its_field_exits_2(c4_misplaced_zeta4, capsys):
    code, out, err = run(capsys, "wreath", "verify", "--table", c4_misplaced_zeta4,
                         "--p", "2", "--max-degree", "2")
    assert code == 2
    assert "VERIFIED" not in out
    assert "does not lie in Q(zeta_2)" in err


@pytest.mark.parametrize("conductor, width", [(32771, 32770), (10 ** 5, 40000),
                                              (10 ** 6, 400000),
                                              pytest.param(10 ** 18 + 3, 10 ** 18 + 3,
                                                           id="10**18+3")])
def test_a_conductor_too_wide_to_pack_exits_2_at_load(tmp_path, capsys, conductor, width):
    # phi(32771) = 32770 is past the widest values a packed key holds; the
    # table is refused before the Galois check, whose cost grows with the
    # conductor, and the prime 10**18 + 3, too large to factor, by its size
    with open(table_path("trivial")) as handle:
        data = json.load(handle)
    data["conductor"] = conductor
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "wreath", "verify", "--table", str(wide),
                         "--p", "2", "--max-degree", "1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == ("table error: conductor %d is too large: degree 1 with values of width "
                   "%d needs fields wider than 16 bits\n" % (conductor, width))


# Runs cli.main on its arguments in a fresh interpreter, so that no cache
# filled by another test hides a code path, and prints the exit code, then
# the kinds and the number of the Fractions and WreathElements it built.
CONSTRUCTION_PROBE = """
import contextlib, fractions, io, sys
sys.path.insert(0, %r)
from projrep import cli
from projrep.partitions import MultiPartition
from projrep.wreath import WreathElement
built = []
new, init = fractions.Fraction.__new__, WreathElement.__init__
mp_init, mp_trusted = MultiPartition.__init__, MultiPartition._trusted.__func__

def counted_new(cls, *args, **kwargs):
    built.append("Fraction")
    return new(cls, *args, **kwargs)

def counted_init(self, *args, **kwargs):
    built.append("WreathElement")
    return init(self, *args, **kwargs)

def counted_mp_init(self, *args, **kwargs):
    built.append("MultiPartition")
    return mp_init(self, *args, **kwargs)

def counted_mp_trusted(cls, *args, **kwargs):
    built.append("MultiPartition")
    return mp_trusted(cls, *args, **kwargs)

fractions.Fraction.__new__ = counted_new
WreathElement.__init__ = counted_init
MultiPartition.__init__ = counted_mp_init
MultiPartition._trusted = classmethod(counted_mp_trusted)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, sorted(set(built)), len(built) > 0)
""" % str(Path(cli.__file__).parent.parent)


def constructions(*argv):
    return subprocess.run([sys.executable, "-c", CONSTRUCTION_PROBE, *argv],
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("argv", [
    ("sym", "verify", "--p", "2", "--max-degree", "8"),
    ("sym", "verify", "--p", "3", "--max-degree", "8"),
    ("wreath", "verify", "--table", "c4", "--p", "3", "--max-degree", "5"),
    ("wreath", "verify", "--table", "s3", "--p", "2", "--max-degree", "5"),
    ("wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "5"),
    ("wreath", "verify", "--table", "c2", "--p", "2", "--max-degree", "5"),
    ("wreath", "verify", "--table", "c3", "--p", "2", "--max-degree", "5"),
    ("wreath", "verify", "--table", "trivial", "--p", "2", "--max-degree", "5")],
    ids=" ".join)
def test_the_verify_commands_build_no_fraction_and_no_wreath_element(argv):
    # a table loads in int coordinates, the exchange check reads the
    # certified closed forms, not the series of WreathElements, and every
    # monomial and class index, the lattice of G's too, is a packed key
    assert constructions(*argv, "--format", "json") == "0 [] False\n"


@pytest.mark.parametrize("p", [2, 3])
def test_a_json_report_holds_the_engines_own_matrix(monkeypatch, p):
    # on the structural path hnf_basis returns its input, so in JSON mode the
    # report's monomial_hnf is the one copy the run keeps of each matrix
    payloads, built, build = [], [], modsym.monomial_matrix
    monkeypatch.setattr(cli, "emit", lambda args, payload, lines: payloads.append(payload))
    monkeypatch.setattr(modsym, "monomial_matrix",
                        lambda *args: built.append(build(*args)) or built[-1])
    assert cli.main(["sym", "verify", "--p", str(p), "--max-degree", "10",
                     "--format", "json"]) == 0
    assert len(built) == 11
    for n, report in enumerate(payloads[0]["reports"]):
        assert report["method"] == "structural"
        assert report["monomial_hnf"] is built[n]


def test_importing_the_cli_loads_no_hashlib():
    # only the text digests use hashlib, and loading it costs start-up time
    probe = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
             "import projrep.cli; print(sorted({'hashlib', '_hashlib'} & before), "
             "sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))"
             % str(Path(cli.__file__).parent.parent))
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True).stdout == "[] []\n"


def test_importing_the_cli_without_site_loads_no_importlib_resources():
    # only a bundled --table name needs it; without site (python3 -S), which
    # otherwise may load it first, importing it costs start-up time
    probe = ("import sys; sys.path.insert(0, %r); import projrep.cli; "
             "print('importlib.resources' in sys.modules)" % str(Path(cli.__file__).parent.parent))
    assert subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          check=True).stdout == "False\n"
    assert cli.resolve_table("c2").name == "C2"


def test_the_construction_probe_counts():
    assert constructions("examples") == "0 ['Fraction'] True\n"
    assert constructions("wreath", "generators", "--table", "c2", "--p", "2",
                         "--max-degree", "2") == "0 ['MultiPartition', 'WreathElement'] True\n"


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    from projrep import modsym

    def broken(n, p, run):
        raise AssertionError("non-integral coordinate")

    monkeypatch.setattr(modsym, "verify_theorem1", broken)
    code, out, err = run(capsys, "sym", "verify", "--p", "2", "--max-degree", "3")
    assert code == 3
    assert out == ""
    assert err == "internal invariant failure: non-integral coordinate\n"


def test_verify_reports_the_method(capsys):
    code, out, _ = run(capsys, "sym", "verify", "--p", "3", "--max-degree", "4")
    assert code == 0
    assert all(line.endswith("method=structural")
               for line in out.strip().splitlines()[:-1])
    for n in range(5):
        report = verify_theorem1(n, 3)
        assert report.monomial_hnf == integer_kernel(
            singular_constraints(SYM_CHARACTERS, 3, n))
    code, out, _ = run(capsys, "wreath", "verify", "--table", "c3", "--p", "2",
                       "--max-degree", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [entry["method"] for entry in reports] == ["structural"] * 3
    table = cli.resolve_table("c3")
    for n, entry in enumerate(reports):
        assert (IntMatrix(entry["monomial_hnf"], count_multipartitions(3, n))
                == integer_kernel(singular_constraints(table.characters, 2, n)))


def test_missing_table_exits_2(capsys):
    code, _, err = run(capsys, "wreath", "verify", "--table", "/no/such/file.json",
                       "--p", "2", "--max-degree", "2")
    assert code == 2
    assert "table error" in err


def test_guardrail_refuses_then_force(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GUARD_LIMIT", 1)
    code, _, err = run(capsys, "wreath", "verify", "--table", "c2", "--p", "2",
                       "--max-degree", "3")
    assert code == 2
    assert "refusing" in err and "(limit 1)" in err
    code, out, _ = run(capsys, "wreath", "verify", "--table", "c2", "--p", "2",
                       "--max-degree", "3", "--force")
    assert code == 0
    assert "VERIFIED" in out


REFUSED = "refusing: degree %s needs %d multipartition indices (limit 20000); " \
          "pass --force to override\n"


@pytest.mark.parametrize("table, p, degree, asked, err", [
    ("c4", "3", 13, list(range(13)) + [13], REFUSED % ("13 over C4", 64960)),
    ("c2", "2", 30, list(range(21)) + [30], REFUSED % ("30 over C2", 589128)),
    # the count at 65535 would take minutes: the refusal names degree 12's
    ("c4", "3", 65535, list(range(13)) + [12],
     REFUSED % ("65535 over C4: degree 12 already", 35693)),
    ("c2", "2", 3, [0, 1, 2, 3], "")], ids=["c4-13", "c2-30", "c4-65535", "c2-3"])
def test_the_guard_counts_up_to_the_first_degree_over_its_limit(
        capsys, monkeypatch, table, p, degree, asked, err):
    # the degrees that the guard counts are recorded; none is counted under --force
    counted, count = [], cli.count_multipartitions

    def recorded(k, n):
        counted.append(n)
        return count(k, n)

    monkeypatch.setattr(cli, "count_multipartitions", recorded)
    table = cli.resolve_table(table)
    assert cli.guardrail(argparse.Namespace(force=True, max_degree=degree), table)
    assert counted == []
    code, _, stderr = run(capsys, "wreath", "verify", "--table", table.name, "--p", p,
                          "--max-degree", str(degree))
    assert (code, stderr, counted) == ((2, err, asked) if err else (0, "", asked))


@pytest.mark.parametrize("command", [("sym", "verify"), ("sym", "generators"),
                                     ("wreath", "verify", "--table", "c2"),
                                     ("wreath", "generators", "--table", "c2")], ids=" ".join)
def test_a_degree_too_wide_to_pack_exits_2_at_parse_time(capsys, command):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        cli.main([*command, "--max-degree", str(1 << 16)])
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    assert ("argument --max-degree: degree 65536 with values of width 1 needs fields "
            "wider than 16 bits") in capsys.readouterr().err
    # the largest packable degree is accepted, and only parsed here
    assert cli.build_parser().parse_args([*command, "--max-degree", "65535"]).max_degree == 65535


def test_examples_command(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "-y_3 -> (2, 0, -1)" in out
    assert "-y_1*y_3 -> (8, 0, 0, -1, 0)" in out
    assert "INFO" in out and "2*x2" in out
    assert "FAIL" not in out


def test_examples_json(capsys):
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["notes"]


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-2 ** 200, 2 ** 200) | st.floats() | st.text())
json_values = st.recursive(json_scalars, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner)), max_leaves=40)
Pair = namedtuple("Pair", "a b")


@st.composite
def shared_matrix_payloads(draw):
    """One list of rows under two keys of a dict, and again under two keys of
    a dict one level down, inside a list of dicts beside it."""
    rows = draw(st.lists(st.lists(json_scalars, max_size=3), max_size=3))
    first, second, nested = draw(st.lists(st.text(), min_size=3, max_size=3, unique=True))
    other = draw(json_values)
    return {first: rows, second: rows,
            nested: [{first: rows, second: rows, nested: other}, {first: other}]}


matrix_rows = st.integers(0, 4).flatmap(lambda ncols: st.tuples(st.lists(
    st.lists(st.integers(-2 ** 70, 2 ** 70) | st.just(0), min_size=ncols, max_size=ncols)
    | st.just([0] * ncols), max_size=4), st.just(ncols)))


@st.composite
def sparse_matrix_payloads(draw):
    """Matrices built from sparse rows: one under two keys of a dict, as in a
    structural report, another beside it, in a list and in a nested dict."""
    shared, other = (sparse_built(*draw(matrix_rows)) for _ in range(2))
    first, second, nested = draw(st.lists(st.text(), min_size=3, max_size=3, unique=True))
    return {first: shared, second: shared,
            nested: [other, {first: other, second: draw(json_values)}]}


def as_lists(value):
    """value with each IntMatrix replaced by its to_lists()."""
    if isinstance(value, IntMatrix):
        return value.to_lists()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


# the matrix of a degree-0 report, under both keys as in a structural report
DEGREE_ZERO = sparse_built([[1]], 1)


@given(json_values | shared_matrix_payloads() | sparse_matrix_payloads())
@example({})
@example([])
@example({"a\"\\\n\u00e9\u2603": [[], {}, (), [1, [2]], -2 ** 70, float("nan")]})
@example([Pair(1, 2), [Pair(3, [4])], (True, False, None, float("inf"), -float("inf"))])
@example({"zero rows": sparse_built([[0, 0, 0], [0, 0, 0]], 3),
          "zero width": sparse_built([[], []], 0), "no rows": sparse_built([], 2)})
@example({"lattice_hnf": DEGREE_ZERO, "monomial_hnf": DEGREE_ZERO, "degree": 0})
def test_writer_matches_the_stdlib_encoder(value):
    written = "".join(cli.json_chunks(value))
    assert written == json.dumps(as_lists(value), indent=2, sort_keys=True)


@given(matrix_rows)
@example(([], 3))
@example(([[1, -2, 0]], 3))
@example(([[0, 0], [0, 5]], 2))
@example(([[], []], 0))
def test_matrix_digest_is_the_digest_of_the_whole_dump(drawn):
    rows, ncols = drawn
    whole = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:12]
    assert cli.matrix_digest(sparse_built(rows, ncols)) == whole
    assert cli.matrix_digest(IntMatrix(rows, ncols)) == whole


@pytest.mark.parametrize("argv", [
    ("sym", "verify", "--p", "3", "--max-degree", "12"),
    ("wreath", "verify", "--table", "c4", "--p", "3", "--max-degree", "4")], ids=" ".join)
def test_reports_read_no_dense_row_of_a_monomial_matrix(monkeypatch, capsys, argv):
    # the monomial matrices are built as sparse rows, and the verification,
    # the JSON writer and the text digests read those alone
    built, dense_reads = [], []
    original, rows = modsym.monomial_matrix, IntMatrix.rows

    def recorded(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(modsym, "monomial_matrix", recorded)
    monkeypatch.setattr(IntMatrix, "rows",
                        property(lambda self: dense_reads.append(self) or rows.fget(self)))
    # the matrices are kept for the run, which ends with its command: each
    # format builds its own, each degree once
    for fmt in ("json", "text"):
        assert run(capsys, *argv, "--format", fmt)[0] == 0
    assert len(built) == 2 * (int(argv[-1]) + 1)
    assert not set(map(id, built)) & set(map(id, dense_reads))


@pytest.mark.parametrize("argv", [
    ("sym", "verify", "--p", "3", "--max-degree", "10"),
    ("wreath", "verify", "--table", "c4", "--p", "3", "--max-degree", "3"),
    ("sym", "chartable", "--n", "6")], ids=" ".join)
def test_json_output_is_the_stdlib_serialisation(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# sha256 of the text and of the --format json output, recorded before the
# two element classes shared one algebra: pins rendering and term order.  The
# verify commands pin their text only (recorded before the JSON writer
# replaced the stdlib encoder), since their JSON carries timings.
GOLDEN = {
    ("sym", "verify", "--p", "2", "--max-degree", "10"): (
        "c398551e507b7e7c4eda57fadd20bbda124d76f739822fac0c8a97634c7b990e",),
    ("wreath", "verify", "--p", "3", "--max-degree", "3", "--table", "c4"): (
        "06c7337deae3adff0d6b86732b48526b1dd996011e43e83cfc4a217fc01e1593",),
    ("sym", "generators", "--p", "2", "--max-degree", "9"): (
        "057b5704ad36ebc91bc5c6549706d46077ee3e3e705da06d44acfe85ed522e18",
        "4c4991deb5dd0e3296abce8f84ee9407ab085b64be7ba6d387674705c1df583d"),
    ("sym", "generators", "--p", "3", "--max-degree", "8"): (
        "5d18fa62e9b03bf407a27c07a44d80ed78e2e5957b797725fec3e86164c527aa",
        "de75bea25a0a09861f6a19340764a6b4e7917eac66c34d3e3949317ad2acda55"),
    ("wreath", "generators", "--p", "2", "--max-degree", "4", "--table", "trivial"): (
        "71e416331712d2805187345c77070f1409431d1f44d7ea499855e59240001f93",
        "8404d86fab8c3b94e3bc6b04404200d9e685c54fe5727744acb12284364e58e0"),
    ("wreath", "generators", "--p", "2", "--max-degree", "4", "--table", "c2"): (
        "09f5d7142b45e013b7926b212b2dd650e90fd168ecbd56f8271ada7bf7476fa0",
        "d838600e0bec9c5912c2fee8bf1ba17eccf49d2eb9a9921c829823c7e5b58e92"),
    ("wreath", "generators", "--p", "2", "--max-degree", "4", "--table", "c3"): (
        "6910cf29f42046a65fb22a4abbacc8891ee8a49c61a2af19b0d376c61c2019a7",
        "a963cd9feabdd77c75e69d3078f7955ccc1b4fcd4da274b32c6f48e1b27f98f6"),
    ("wreath", "generators", "--p", "2", "--max-degree", "4", "--table", "c4"): (
        "c49169f5c26d3878ad073e690b3785d4db652f4198a57952ad5fdf0411452a83",
        "f21d760daca4fd0b6273de304123b87bf1d1ab086491962016627ae0e95772c5"),
    ("wreath", "generators", "--p", "2", "--max-degree", "4", "--table", "s3"): (
        "eb98e9ef7a9b87113f525b123fe9f9ac265f201b11694b5f7696280244c5c455",
        "ba9638acf67370f5f58f8be4b445642e1f7a20579458635a7e162dc21b9d5d2a"),
    ("examples",): (
        "24ea6330bef2a820685e4e17d8ef3b1cbc6d1da9344cb79f8b016b949662d76b",
        "0b786011a49c43b5bec13fb5d86ab28318d3fb085a1739acf4bf26c196ae5a0b"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_output(capsys, argv):
    digests = []
    for fmt in ("text", "json")[:len(GOLDEN[argv])]:
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN[argv]


# sha256 of the --format json output of the verify commands with every
# "seconds" value written as 0, recorded before sums, products, partitions
# and HNF results were built without re-running the constructors' checks.
GOLDEN_MASKED_JSON = {
    ("sym", "verify", "--p", "3", "--max-degree", "12"):
        "8217007d3e1232b19240ee8acf33d12e298b2f50e625505cd269f9c5f1fbed4c",
    ("wreath", "verify", "--table", "c4", "--p", "3", "--max-degree", "4"):
        "c7177e933c1d19e5fc300acece138743a88c80e01be3be9e0b7419cbd54f3f0c",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_MASKED_JSON), ids=" ".join)
def test_golden_verify_json_without_timings(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    masked = re.sub(r'"seconds": [-0-9.e+]+', '"seconds": 0', out)
    assert masked.count('"seconds": 0') == int(argv[-1]) + 1
    assert hashlib.sha256(masked.encode()).hexdigest() == GOLDEN_MASKED_JSON[argv]
