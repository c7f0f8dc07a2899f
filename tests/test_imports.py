"""Every name a package module imports is used in that module.

Each module under ``src/aodvcheck`` but the package's ``__init__``,
which imports names only to export them, is parsed, and the names its
imports bind are checked against the names its code reads.  ``KEPT``
lists the names kept only so that ``bench/spans.py`` can patch them
where they are looked up; the test also fails when one of them is
imported no longer or read again, so the list stays exact.
"""
import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "aodvcheck")
MODULES = sorted(f[:-3] for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")

KEPT = {
    "awn": {"bdigest"},
    "messages": {"value_key"},
    "protocol": {"value_key"},
    "simulate": {"digest"},
    "cli": {"digest", "value_key"},
}


def imported_names(tree) -> set:
    """The names the module's import statements bind."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


def read_names(tree) -> set:
    """The names the module's code reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path) -> set:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return imported_names(tree) - read_names(tree)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    unused = unused_imports(os.path.join(SRC, module + ".py"))
    assert unused == KEPT.get(module, set())


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "from json import dumps, loads as load_text\n"
                    "x = os.sep\n"
                    "print(dumps)\n")
    assert unused_imports(path) == {"load_text"}
