"""No module imports a name it never uses, and no package module another's
private name.

No linter is installed, so this reads the syntax tree of each file of the
package, tests/ and perfbench/: every name an import binds must be
read as a name somewhere in the same file. The package's __init__.py is
skipped, because its imports are the public names it exports. A module of
the package imports no _-prefixed name (dunders aside) from another.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/tabuq", "tests", "perfbench")
               for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "tabuq").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport a.b\nfrom c import d, e as f\nfrom __future__ import annotations\nos, a, f\n"
    assert unused_imports(source) == ["line 3: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """The _-prefixed names (dunders aside) source imports from a module, with
    their line numbers."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_the_check_finds_a_private_import():
    source = ("from . import __version__\nfrom .evaluation import _scaled, train_methods\n"
              "from tabuq.cli import _seed_data as seed_data\nimport _thread\n")
    assert private_imports(source) == ["line 2: _scaled", "line 3: _seed_data"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_package_module_imports_a_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
