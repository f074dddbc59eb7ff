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
