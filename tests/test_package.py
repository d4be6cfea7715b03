import ast
import pathlib

import chaosdet


def test_every_exported_name_resolves():
    missing = [name for name in chaosdet.__all__ if not hasattr(chaosdet, name)]
    assert not missing
    namespace: dict = {}
    exec("from chaosdet import *", namespace)
    assert set(chaosdet.__all__) <= set(namespace)


# The import graph of the package, read from its source: the chaos-product
# oracle in ``chaos`` is an independent route only while ``chaos`` cannot
# reach a closed-form term, and import-time order is only well defined
# while the graph is acyclic and every import sits at module level.
SRC = pathlib.Path(chaosdet.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _imports(tree) -> set:
    """Package modules a module imports.

    The package imports itself relatively; an absolute import of it is
    recorded as "chaosdet", which names no module and fails the graph test.
    """
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            deps |= {"chaosdet" for a in node.names if a.name.split(".")[0] == "chaosdet"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            deps |= {"chaosdet"} if (node.module or "").split(".")[0] == "chaosdet" else set()
        elif isinstance(node, ast.ImportFrom) and node.module:
            deps.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" names a module or a name of the package itself
            deps |= {a.name if a.name in MODULES else "__init__" for a in node.names}
    return deps


GRAPH = {name: _imports(tree) for name, tree in MODULES.items()}


def _reachable(start: str) -> set:
    seen, todo = set(), [start]
    while todo:
        for dep in GRAPH.get(todo.pop(), set()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_every_import_is_at_module_level():
    local = [
        f"{name}.{func.name}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(func))
    ]
    assert local == []


def test_package_import_graph_is_acyclic():
    assert set().union(*GRAPH.values()) <= set(MODULES)
    cyclic = sorted(name for name in GRAPH if name in _reachable(name))
    assert cyclic == []


def test_chaos_cannot_reach_the_closed_forms():
    # the oracle lives in chaos: nothing it reaches may compute a closed-form term
    assert _reachable("chaos").isdisjoint({"malliavin", "montecarlo", "verify", "cli"})
