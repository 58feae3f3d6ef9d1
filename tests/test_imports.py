"""Package structure: imports run at module level, and never in a cycle."""

import ast
import pathlib

import sclkit

PACKAGE = pathlib.Path(sclkit.__file__).parent


def parsed_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def internal_imports(name, tree, modules):
    """The package modules that module `name` imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(a.name for a in node.names if a.name in modules)
            else:
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "sclkit" and len(parts) > 1:
                out.add(parts[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sclkit" and len(parts) > 1:
                    out.add(parts[1])
    out.discard(name)
    return out


def test_no_function_level_imports():
    found = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append("%s.py:%d" % (name, inner.lineno))
    assert found == []


def test_import_graph_is_acyclic():
    modules = parsed_modules()
    graph = {name: internal_imports(name, tree, modules)
             for name, tree in modules.items()}
    assert graph["sclenc"] >= {"freegroup", "surfcert"}
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
