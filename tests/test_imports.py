"""Package structure: imports run at module level, never in a cycle, and
no floating point reaches a computed value."""

import ast
import importlib
import pathlib
import subprocess
import sys

import sclkit

from conftest import child_env

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


def test_no_dataclasses():
    # records are namedtuple subclasses: dataclasses, and the inspect it
    # pulls in, would cost every sclkit process its start-up time
    found = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += ["%s.py:%d" % (name, node.lineno)
                          for alias in node.names
                          if alias.name.split(".")[0] == "dataclasses"]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "dataclasses"):
                found.append("%s.py:%d" % (name, node.lineno))
    assert found == []


def test_cli_import_leaves_out_dataclasses():
    # a fresh interpreter, as each sclkit command is
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sclkit.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout == "False\n"


def test_no_floating_point():
    # cli.py keeps its wall-clock timing and soft budget; every other
    # module computes with ints and rationals only
    found = []
    for name, tree in parsed_modules().items():
        if name == "cli":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append("%s.py:%d float literal" % (name, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "math"
                  and node.attr not in ("gcd", "lcm")):
                found.append("%s.py:%d math.%s" % (name, node.lineno,
                                                   node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.append("%s.py:%d from math import" % (name, node.lineno))
    assert found == []


def test_caps_declared_once():
    # the default caps are sclenc.MAX_LETTERS and sclenc.MAX_PIVOTS (ratlp,
    # below sclenc, keeps its own pivot default); everything above forwards
    found = []
    for name, tree in parsed_modules().items():
        if name in ("sclenc", "ratlp"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
                found += ["%s.py:%d %s" % (name, node.lineno, a.arg)
                          for a in defaulted
                          if a.arg in ("max_letters", "max_pivots")]
    assert found == []


def traced_functions():
    """The (module, function) pairs of perfbench/spans.py's TRACED table;
    the file is parsed, not imported."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = root / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(), str(path))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"])


def test_traced_functions_exist():
    # perfbench/spans.py wraps these by name, so a renamed or folded
    # function fails here rather than inside a traced benchmark run
    traced = traced_functions()
    missing = ["sclkit.%s.%s" % pair for pair in traced
               if not callable(getattr(importlib.import_module(
                   "sclkit." + pair[0]), pair[1], None))]
    assert traced
    assert missing == [], "perfbench traces missing functions %s" % missing


def test_no_dead_public_functions():
    # a public module-level function is used in the package, exported by
    # sclkit/__init__.py, or traced by perfbench; the one exception is
    # ratlp.linear_program, the constructor for LPs built from outside input
    modules = parsed_modules()
    exported = {(node.module, alias.name)
                for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    kept = exported | set(traced_functions()) | {("ratlp", "linear_program")}
    # the names each top-level statement reads, keyed by (module, function)
    # for a function definition, so a function's own body does not count
    reads = {}
    for name, tree in modules.items():
        for stmt in tree.body:
            owner = (name, stmt.name) if isinstance(
                stmt, ast.FunctionDef) else (name, None)
            reads.setdefault(owner, set()).update(
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)))
    public = [(name, stmt.name) for name, tree in modules.items()
              for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
              and not stmt.name.startswith("_")]
    dead = ["%s.%s" % fn for fn in public if fn not in kept
            and not any(fn[1] in names for owner, names in reads.items()
                        if owner != fn)]
    assert dead == [], "public functions without a use: %s" % dead


def test_no_unreachable_markers():
    # a check that no input can reach is deleted, not marked
    found = ["%s:%d" % (path.name, lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if "raise AssertionError" in line or "pragma: no cover" in line]
    assert found == []
