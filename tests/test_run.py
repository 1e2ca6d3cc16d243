"""The state of a verification lives in one modsym.Run and ends with it: no
memo of the verify path is a module-level cache (a lint), commands run one
after another in one process report what fresh processes report, a run
shared by a range of degrees builds each degree once, and a finished
command leaves no run behind."""

import ast
import contextlib
import gc
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import projrep
from projrep import cli, modsym, wreath
from projrep.modsym import SYM_CHARACTERS, Run, verify_theorem1

SRC = Path(projrep.__file__).parent
LINTED = ("modsym", "wreath", "series")
# the caches these modules may keep for the process, none on the verify path
ALLOWED = {
    ("modsym", "x_class_value_matrix"): "a test oracle, whose counters perfbench reads",
    ("series", "y_monomial"): "the tests' oracle of the S_n monomial rows",
    ("wreath", "phi_x_in_xi"): "the tests' oracle in the xi basis",
    ("wreath", "_monomial_in_xi"): "the tests' oracle in the xi basis",
}


def is_cache(decorator):
    """True for functools.lru_cache or functools.cache as a decorator, called
    or not, by its own name or as an attribute."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("lru_cache", "cache")


def cached_functions(path):
    """The names of the functions of a module, nested ones and methods too,
    that a cache decorates."""
    return sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(map(is_cache, node.decorator_list)))


def test_only_the_allowed_oracles_are_cached_for_the_process():
    found = {(module, name) for module in LINTED
             for name in cached_functions(SRC / ("%s.py" % module))}
    assert found == set(ALLOWED)


def test_a_cache_decorator_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import functools\nfrom functools import cache\n\n\n"
                      "def outer():\n    @functools.lru_cache(maxsize=None)\n"
                      "    def inner():\n        return 1\n    return inner\n\n\n"
                      "class Holder:\n    @cache\n    def method(self):\n        return 2\n\n\n"
                      "def plain():\n    return 3\n")
    assert cached_functions(module) == ["inner", "method"]


def test_the_engine_modules_import_only_at_the_top():
    # modsym holds the run, and wreath imports modsym: no import cycle is
    # left for a function to break by importing late
    late = [(module, node.lineno) for module in LINTED
            for function in ast.walk(ast.parse((SRC / ("%s.py" % module)).read_text()))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert late == []


def masked(report):
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": X', report)


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, masked(out.getvalue())


def in_a_fresh_process(argv):
    result = subprocess.run([sys.executable, "-m", "projrep.cli", *argv], capture_output=True,
                            text=True, check=False, env={"PYTHONPATH": str(SRC.parent)})
    return result.returncode, masked(result.stdout)


def test_commands_in_one_process_report_what_fresh_processes_report():
    wreath_argv = ("wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "6",
                   "--format", "json")
    sym_argv = ("sym", "verify", "--p", "2", "--max-degree", "12", "--format", "json")
    fresh = {argv: in_a_fresh_process(argv) for argv in (wreath_argv, sym_argv)}
    assert all(code == 0 for code, _ in fresh.values())
    for argv in (wreath_argv, sym_argv, wreath_argv):
        assert in_process(argv) == fresh[argv], argv


@pytest.mark.parametrize("name", ["trivial_table", "s3_table", "c4_table"])
def test_one_run_over_a_range_of_degrees_builds_each_matrix_once(monkeypatch, request, name):
    built, build = [], modsym.monomial_matrix

    def counted(*args):
        built.append(args[2])
        return build(*args)

    monkeypatch.setattr(modsym, "monomial_matrix", counted)
    table = request.getfixturevalue(name)
    lattice = wreath.e_lattice(table, 3)
    run = wreath.lattice_run(table, lattice)
    assert all(wreath.verify_theorem2(table, 3, n, run=run).verdict for n in range(9))
    assert built == list(range(9))
    del built[:]
    run = Run(SYM_CHARACTERS, ((1,),), 2)
    assert all(verify_theorem1(n, 2, run).verdict for n in range(9))
    assert built == list(range(9))


@pytest.mark.parametrize("argv", [
    ("sym", "verify", "--p", "2", "--max-degree", "8"),
    ("wreath", "verify", "--table", "c2", "--p", "2", "--max-degree", "4",
     "--format", "json")], ids=" ".join)
def test_a_finished_command_leaves_no_run_behind(argv):
    # freed as the command returns, with the cycle collector off: no
    # reference cycle holds a run until a collection
    gc.collect()
    gc.disable()
    try:
        assert in_process(argv)[0] == 0
        assert [obj for obj in gc.get_objects() if isinstance(obj, Run)] == []
    finally:
        gc.enable()
