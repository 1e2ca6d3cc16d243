import argparse
import hashlib
import json
import re
import time
from collections import namedtuple
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from projrep import cli
from projrep.exactlin import IntMatrix, integer_kernel
from projrep.modsym import SYM_CHARACTERS, SYM_WEIGHT, singular_constraints, verify_theorem1
from projrep.partitions import Partition, count_multipartitions, partitions
from projrep.series import y_explicit
from projrep.symfunc import SymElement, X, mn_character

from conftest import table_path


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


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    from projrep import modsym

    def broken(n, p):
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
            singular_constraints(SYM_CHARACTERS, SYM_WEIGHT.element_orders, 3, n))
    code, out, _ = run(capsys, "wreath", "verify", "--table", "c3", "--p", "2",
                       "--max-degree", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [entry["method"] for entry in reports] == ["structural"] * 3
    table = cli.resolve_table("c3")
    for n, entry in enumerate(reports):
        assert (IntMatrix(entry["monomial_hnf"], count_multipartitions(3, n))
                == integer_kernel(singular_constraints(table._multipliers,
                                                       table._element_orders, 2, n)))


def test_missing_table_exits_2(capsys):
    code, _, err = run(capsys, "wreath", "verify", "--table", "/no/such/file.json",
                       "--p", "2", "--max-degree", "2")
    assert code == 2
    assert "table error" in err


def test_guardrail_refuses_then_force(capsys):
    code, _, err = run(capsys, "wreath", "verify", "--table", "c2", "--p", "2",
                       "--max-degree", "3", "--guard-limit", "1")
    assert code == 2
    assert "refusing" in err
    code, out, _ = run(capsys, "wreath", "verify", "--table", "c2", "--p", "2",
                       "--max-degree", "3", "--guard-limit", "1", "--force")
    assert code == 0
    assert "VERIFIED" in out


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


@given(json_values)
@example({})
@example([])
@example({"a\"\\\n\u00e9\u2603": [[], {}, (), [1, [2]], -2 ** 70, float("nan")]})
@example([Pair(1, 2), [Pair(3, [4])], (True, False, None, float("inf"), -float("inf"))])
def test_writer_matches_the_stdlib_encoder(value):
    assert "".join(cli.json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)


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
