"""Every top-level import of a projrep module is used in that module or
exported by its __all__: a dead import reads as a dependency that is none.
And the command line imports no module it does not need."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import projrep

# perfbench/layers.py patches these by name, so they stay although unused
PINNED = {("modsym", "rational_kernel"), ("wreath", "rational_kernel"),
          ("modsym", "y_monomial")}
MODULES = sorted(Path(projrep.__file__).parent.glob("*.py"))


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


def test_the_command_line_does_not_import_dataclasses():
    # a cold import of dataclasses adds start-up time and peak memory to
    # every run of the command line
    src = str(Path(projrep.__file__).parent.parent)
    probe = ("import sys; sys.path.insert(0, %r); import projrep.cli; "
             "print('dataclasses' in sys.modules)" % src)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"
