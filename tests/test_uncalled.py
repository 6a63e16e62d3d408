"""Every module-level function of the package is referenced somewhere in it.

No linter is installed, so this reads the syntax tree of each module of the
package, __init__.py aside, whose imports are the public names it exports: a
function counts as referenced when some module reads its name, as a name or as
an attribute, outside the function's own body. A helper that only tests call
fails here, unless EXEMPT lists it with the reason it stays.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src" / "tabuq").glob("*.py")) if path.name != "__init__.py"}

EXEMPT = {
    # perfbench/tracer.py binds these to time them.
    "ensemble.train_deep_ensemble",
    "numeric.dropout_mask",
    # The benchmark's and README's data generator.
    "data.generate_synthetic",
}


def unreferenced(modules: dict[str, str]) -> list[str]:
    """module.function for each module-level function of modules (name ->
    source) that no module reads outside the function itself."""
    defined, read = [], set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node.name))
                names.discard(node.name)
            read |= names
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_the_check_finds_an_unreferenced_function():
    modules = {"a": "def used():\n    return 1\n\ndef alone():\n    return alone()\n",
               "b": "from . import a\n\ndef caller():\n    return a.used()\n\ncaller()\n"}
    assert unreferenced(modules) == ["a.alone"]


def test_every_function_is_referenced_in_the_package():
    assert sorted(unreferenced(PACKAGE)) == sorted(EXEMPT)
