"""Static checks on the library source and on the names the benchmark reads."""

import ast
import builtins
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "grazemap"
BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}


def test_library_raises_no_builtin_exception():
    # Every library exception derives from GrazemapError; only the console
    # entry point of cli.py ends in SystemExit.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            if name in BUILTIN_EXCEPTIONS and (path.name, name) != ("cli.py", "SystemExit"):
                offenders.append(f"{path.name}:{node.lineno}: raise {name}")
    assert offenders == []


def test_benchmark_tracer_mechanisms_resolve():
    # bench/tracer.py sums each mechanism metric over public functions and
    # methods it wraps by name, and its traced round raises KeyError for a
    # name grazemap no longer defines.  Read its table; do not run it.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, names, _ in tracer.MECHANISMS:
        for name in names:
            layer, *path = name.split(".")
            owner = importlib.import_module(f"grazemap.{layer}")
            for attr in path[:-1]:
                owner = vars(owner).get(attr)
            # The tracer wraps what a module or class defines itself, by public name.
            obj = vars(owner).get(path[-1]) if owner is not None else None
            if (not callable(obj) or path[-1].startswith("_")
                    or obj.__module__ != f"grazemap.{layer}"):
                missing.append(name)
    assert missing == []


def test_every_private_helper_has_a_caller():
    # A module-level private function or class counts as called when its own
    # module names it, or when a module imports it by name from there or
    # reaches it as an attribute of that module; two modules' helpers of one
    # name stay distinct.  A private method counts when any module reads an
    # attribute of its name.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    names = {module: set() for module in trees}  # module -> names it loads
    used = set()  # (module, name) reached from outside the module
    attributes = set()
    for module, tree in trees.items():
        imported = {}  # local name -> defining module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update({alias.asname or alias.name: node.module for alias in node.names})
            elif isinstance(node, ast.Name):
                names[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in trees:
                    used.add((node.value.id, node.attr))
        used.update((imported[name], name) for name in names[module] if name in imported)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (private(node.name) and node.name not in names[module]
                    and (module, node.name) not in used):
                unused.append(f"{module}.{node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, ast.FunctionDef) and private(method.name)
                        and method.name not in attributes):
                    unused.append(f"{module}.{node.name}.{method.name}")
    assert unused == []


def test_only_the_jet_kernel_generator_turns_text_into_code():
    # The one generated code is MultiPoly's jet kernel, whose source holds
    # names and int exponents only: no other function may exec, compile or
    # eval, under any name.
    found = []

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in {"exec", "compile", "eval"}:
                found.append((path.name, inner, name))
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    assert sorted(found) == [("diffgeo.py", "MultiPoly._kernel", "compile"),
                             ("diffgeo.py", "MultiPoly._kernel", "exec")]
