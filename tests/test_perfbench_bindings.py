"""The benchmark tracer wraps package functions by module and name. A function
it names that no longer exists is skipped at run time and its metric reads 0,
so every name it binds is checked here against the package."""
import ast
import importlib
import pkgutil
from pathlib import Path

import tabuq

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {m.name for m in pkgutil.iter_modules(tabuq.__path__)}


def tracer_bindings() -> set[tuple[str, str]]:
    """Every (module, attribute) tuple literal in tracer.py that names a tabuq module."""
    found = set()
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, attr = node.elts[:2]
            if (isinstance(mod, ast.Constant) and mod.value in MODULES
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                found.add((mod.value, attr.value))
    return found


def test_every_traced_name_resolves_to_a_package_callable():
    bindings = tracer_bindings()
    assert {("evaluation", "train_method"), ("mlp", "mc_dropout_predict"),
            ("numeric", "minimize_gd"), ("ensemble", "ensemble_predict"),
            ("logistic", "train_bootstrapped_lr")} <= bindings
    missing = [f"tabuq.{mod}.{attr}" for mod, attr in sorted(bindings)
               if not callable(getattr(importlib.import_module(f"tabuq.{mod}"), attr, None))]
    assert missing == []
