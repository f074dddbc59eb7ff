"""Static checks on the library source, on the source it generates, and on
the names the benchmark reads."""

import ast
import builtins
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import grazemap as gm
from grazemap import diffgeo
from grazemap.reflection import _newton_source

from conftest import quartic_vsq, rounded_quartic, surface_zoo

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


def _unresolved_tracer_names() -> list[str]:
    """The layers and mechanism names of bench/tracer.py that grazemap does not
    define.  The tracer wraps each public function and method its layers
    define by name and sums each mechanism metric over those it names, so its
    traced round raises for a name grazemap no longer defines.  Its tables
    are read; the module is executed for them, no tracer is installed, and no
    bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [layer for layer in tracer.LAYERS if not (SRC / f"{layer}.py").is_file()]
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
    return missing


def test_benchmark_tracer_mechanisms_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert _unresolved_tracer_names() == []


def test_benchmark_tracer_check_names_a_deleted_method(monkeypatch):
    # The check fires on a method the traced round sums, once it is gone.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delattr(gm.SymmetricZeta, "gradient")
    assert _unresolved_tracer_names() == ["grazing.SymmetricZeta.gradient"]


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
    # The one place text becomes code is diffgeo._generate, which the jet
    # kernel and the Newton kernel both call: no other function may exec,
    # compile or eval, under any name.
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
    assert sorted(found) == [("diffgeo.py", "_generate", "compile"),
                             ("diffgeo.py", "_generate", "exec")]


def _non_int_constants(source):
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and type(node.value) is not int]


def test_generated_sources_hold_only_int_constants(monkeypatch):
    # Values are names bound in the namespace, never text: the jet kernels of
    # the test zoo, of polynomials with -0.0, nan and inf coefficients, of the
    # zero polynomial and of a sum split into statements, and the Newton
    # kernel of every dimension 1..4 and phase kind.
    sources, real = [], diffgeo._generate

    def spy(source, names):
        sources.append(source)
        return real(source, names)

    monkeypatch.setattr(diffgeo, "_generate", spy)
    rng = np.random.default_rng(3)
    polys = [o.surface.poly for o in (*surface_zoo().values(), quartic_vsq(), rounded_quartic())
             if isinstance(o.surface, gm.PolynomialSurface)]
    polys += [gm.MultiPoly(2, {(1, 0): -0.0, (2, 1): np.nan, (0, 3): np.inf, (1, 1): 1e-300}),
              gm.MultiPoly(3, {}),
              gm.MultiPoly(2, {e: float(rng.normal()) for e in np.ndindex(25, 25)})]
    for poly in polys:
        poly._jet = None
        poly._kernel()
    assert len(sources) == len(polys)
    sources += [_newton_source(d, kind) for d in range(1, 5)
                for kind in ("plane", "spherical", "convex")]
    assert [_non_int_constants(source) for source in sources] == [[]] * len(sources)


def test_each_generated_source_compiles_once(monkeypatch):
    # Twenty fresh parses of one spec compile its jet kernel once, and
    # inversions over them one Newton kernel per phase kind.
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(diffgeo, "_generated", {})
    monkeypatch.setattr(diffgeo, "compile", counting, raising=False)
    specs = ROOT / "specs"
    for _ in range(20):
        obstacle = gm.parse_obstacle(str(specs / "rounded_quartic.obstacle"))
        for name in ("side_source.phase", "plane.phase"):
            phase = gm.parse_phase(str(specs / name), obstacle=obstacle)
            y = gm.flow_map(obstacle, phase, 0.5, [-0.2, 0.1], 0.3).y
            s, _, _ = gm.invert_flow(obstacle, phase, y, seed=(0.45, [-0.19, 0.11]))
            assert abs(s - 0.5) < 1e-10
    assert [source.split("(")[0] for source in compiled] == ["def kernel", "def record",
                                                            "def record"]
    assert compiled[1:] == [_newton_source(2, "spherical"), _newton_source(2, "plane")]
