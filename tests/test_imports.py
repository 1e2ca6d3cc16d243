"""Every top-level import of a projrep module is used in that module or
exported by its __all__: a dead import reads as a dependency that is none.
Every top-level definition is referenced somewhere outside itself.  And the
command line imports no module it does not need."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import projrep

# perfbench/layers.py patches these by name, so they stay although unused
PINNED = {("modsym", "rational_kernel"), ("wreath", "rational_kernel"),
          ("modsym", "y_monomial"), ("wreath", "hnf_basis")}
MODULES = sorted(Path(projrep.__file__).parent.glob("*.py"))
# where a definition may be referenced: the package, its tests and the
# benchmark, which patches some names by string
REFERENCING = sorted(MODULES + list(Path(__file__).parent.glob("*.py"))
                     + list((Path(__file__).parent.parent / "perfbench").glob("*.py")))


def imported_names(tree):
    """The names that the top-level import statements of a module bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree) | {name for module, name in PINNED
                                           if module == path.stem}
    assert [name for name in imported_names(tree) if name not in kept] == []


def test_every_pinned_import_is_still_patched():
    # a pin outlives its reason once the benchmark no longer patches the name
    layers = (Path(__file__).parent.parent / "perfbench" / "layers.py").read_text()
    assert sorted(pin for pin in PINNED if '(%s, "%s"' % pin not in layers) == []


def defined_names(tree):
    """The functions, classes and constants that a module's top-level
    statements define, dunder names aside, with the statement of each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def referenced_names(node):
    """The identifiers a statement mentions: as a name, as an attribute, or
    inside a string that is not a docstring."""
    docstrings = {id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Expr)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            yield from re.findall(r"\w+", sub.value)


def unreferenced_definitions(modules, referencing):
    """The (module, name) of each top-level definition of the modules that no
    statement of the referencing files mentions, its own statement aside."""
    mentions = {}
    for path in referencing:
        for node in ast.parse(path.read_text()).body:
            for name in set(referenced_names(node)):
                mentions.setdefault(name, set()).add((path, node.lineno))
    dead = []
    for path in modules:
        for name, node in defined_names(ast.parse(path.read_text())):
            if not mentions.get(name, set()) - {(path, node.lineno)}:
                dead.append((path.stem, name))
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions(MODULES, REFERENCING) == []


def test_an_unreferenced_definition_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
                      "def recursive(n):\n    return n and recursive(n - 1)\n")
    caller = tmp_path / "caller.py"
    caller.write_text("import module\nmodule.used()\n")
    assert unreferenced_definitions([module], [module, caller]) == [("module", "recursive")]
    caller.write_text("import module\nmodule.used()\nPATCHED = ('module', 'recursive')\n")
    assert unreferenced_definitions([module], [module, caller]) == []


def test_the_command_line_does_not_import_dataclasses():
    # a cold import of dataclasses adds start-up time and peak memory to
    # every run of the command line
    src = str(Path(projrep.__file__).parent.parent)
    probe = ("import sys; sys.path.insert(0, %r); import projrep.cli; "
             "print('dataclasses' in sys.modules)" % src)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


def test_only_modsym_knows_the_key_layout():
    # the field width of a packed key is modsym's: the other modules build
    # and read keys through its helpers
    assert [path.stem for path in MODULES
            if path.stem != "modsym" and "FIELD" in path.read_text()] == []
