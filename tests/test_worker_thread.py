"""The package's one worker thread, and its one fit site.

Read from each module's syntax tree: no module under src/tabuq but numeric.py
imports a thread or process module, and a threading.Thread is built only
inside numeric.beside_worker, which decides whether to start it. In
evaluation.py, only train_methods calls a trainer, and every such call comes
before its first train_method call; train_method only wraps the models it is
handed. In the package, train_methods has one call site, the group fit
nested in cli._execute, which fits the networks of a group of seeds in one
stack; no function of evaluation.py splits or scales data.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tabuq"
MODULES = sorted(PACKAGE.glob("*.py"))
THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")
TRAINERS = ("train_mlp", "train_vae", "train_bootstrapped_lr")


def thread_imports(source: str) -> list[str]:
    """The thread or process modules source imports, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)]
    return found


def call_name(node: ast.Call) -> str | None:
    """<name> for a call of <name> or <x>.<name>."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def callers(source: str, names) -> list[str]:
    """The outermost function around each call of <name> or <x>.<name> in
    source, for each of names ("<module>" outside any), with its line number."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in names:
                found.append(f"line {node.lineno}: {where}")
        for child in ast.iter_child_nodes(node):
            inner = child.name if (where == "<module>" and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))) else where
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def data_calls(source: str, names) -> list[str]:
    """Each call of <name> or data.<name> in source for each of names, with
    its line number; a method call such as rng.split is none of them."""
    return [f"line {node.lineno}: {call_name(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and call_name(node) in names
            and (isinstance(node.func, ast.Name) or isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "data")]


def statements_calling(source: str, function: str, names) -> list[tuple[int, str]]:
    """(index of the statement in the body of source's top-level `function`,
    name) for each call of one of names, nested functions and loops included,
    sorted. A call inside a loop shares the loop's index with every other."""
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted((i, name) for i, statement in enumerate(func.body)
                  for node in ast.walk(statement) if isinstance(node, ast.Call)
                  and (name := call_name(node)) in names)


def test_the_checks_find_thread_modules_and_builders():
    source = ("import threading, os\nfrom concurrent import futures\n"
              "from multiprocessing.pool import Pool\nimport _thread as t\n"
              "from threading import Thread\n"
              "def f():\n    def g():\n        return threading.Thread(target=g)\n"
              "Thread(target=f)\n")
    assert thread_imports(source) == [
        "line 1: threading", "line 2: concurrent.futures", "line 3: multiprocessing.pool.Pool",
        "line 4: _thread", "line 5: threading.Thread"]
    assert callers(source, ("Thread",)) == ["line 8: f", "line 9: <module>"]
    source = ("def f():\n    def g():\n        return train_mlp()\n"
              "    for m in g():\n        train_vae()\n        m.train_method()\n"
              "    return [train_method(x) for x in ()]\ntrain_mlp()\n")
    assert statements_calling(source, "f", ("train_mlp", "train_vae", "train_method")) == [
        (0, "train_mlp"), (1, "train_method"), (1, "train_vae"), (2, "train_method")]
    source = "split(d)\nrng.split('x')\ndata.fit_scaler(d)\nself.data.split(d)\n"
    assert data_calls(source, ("split", "fit_scaler")) == ["line 1: split", "line 3: fit_scaler"]


def test_only_numeric_imports_a_thread_module():
    imports = {path.name: thread_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert [name for name, found in imports.items() if found] == ["numeric.py"]
    assert [line.partition(": ")[2] for line in imports["numeric.py"]] == ["threading"]


def test_only_beside_worker_builds_a_thread():
    builders = {path.name: callers(path.read_text(encoding="utf-8"), ("Thread",))
                for path in MODULES}
    assert {name: [line.partition(": ")[2] for line in found]
            for name, found in builders.items() if found} == {"numeric.py": ["beside_worker"]}


def test_only_train_methods_calls_a_trainer():
    source = (PACKAGE / "evaluation.py").read_text(encoding="utf-8")
    found = {name: [line.partition(": ")[2] for line in callers(source, (name,))]
             for name in TRAINERS}
    assert found == {name: ["train_methods"] for name in TRAINERS}


def test_train_methods_fits_every_model_before_it_wraps_any():
    source = (PACKAGE / "evaluation.py").read_text(encoding="utf-8")
    found = statements_calling(source, "train_methods", (*TRAINERS, "train_method"))
    assert {name for _, name in found} == {*TRAINERS, "train_method"}
    fits = [i for i, name in found if name in TRAINERS]
    assert max(fits) < min(i for i, name in found if name == "train_method")


def test_only_execute_fits_a_seed_and_no_experiment_prepares_data():
    fits = {path.name: [line.partition(": ")[2] for line in
                        callers(path.read_text(encoding="utf-8"), ("train_methods",))]
            for path in MODULES}
    assert {name: found for name, found in fits.items() if found} == {"cli.py": ["_execute"]}
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    execute = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "_execute")
    sites = [func.name for func in ast.walk(execute) if isinstance(func, ast.FunctionDef)
             and any(isinstance(call, ast.Call) and call_name(call) == "train_methods"
                     for statement in func.body for call in ast.walk(statement))]
    assert sites == ["_execute", "fit"]  # the group fit, nested in _execute
    source = (PACKAGE / "evaluation.py").read_text(encoding="utf-8")
    assert data_calls(source, ("split", "exclude_group", "fit_scaler", "apply_scaler")) == []
