"""Every public name of blindjam resolves in the one module whose ``__all__``
lists it, as the README's library table does; the package re-exports none.
A deletion that leaves a stale export fails here, and so does an import that
nothing reads any more, or one of neither the standard library nor numpy,
and a function or class that only the tests call.
The result, row and config types take only what they cannot derive."""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import blindjam

MODULES = sorted(info.name for info in pkgutil.iter_modules(blindjam.__path__)
                 if info.name != "__main__")
SOURCES = sorted(Path(blindjam.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the power oracle that the tests compare encode against
TEST_ONLY = {("schemes", "analytic_power")}


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"blindjam.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"blindjam.{module}.__all__ names missing attributes: {missing}"


PUBLIC = [(module, name) for module in MODULES
          for name in importlib.import_module(f"blindjam.{module}").__all__]


@pytest.mark.parametrize("module, name", PUBLIC)
def test_package_import_resolves(module, name):
    # one name per object: a public name is imported from its module, the one
    # __all__ that lists it (test_module_all_resolves checks that it is
    # there), and the package re-exports none
    assert [where for where, public in PUBLIC if public == name] == [module]
    assert not hasattr(blindjam, name)


def test_readme_library_table_is_the_public_surface():
    # README's `| module | public names |` table, row by row, is every module's __all__
    text = README.read_text(encoding="utf-8")
    lines = text.split("| module | public names |\n| --- | --- |\n", 1)[1].splitlines()
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        module, names = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((module, names.split(", ")))
    assert rows == [(f"{module}.py", list(importlib.import_module(f"blindjam.{module}").__all__))
                    for module in MODULES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # name an import binds -> its line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name} imports names it never reads: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_runtime_imports_are_stdlib_or_numpy(path):
    # pyproject declares numpy as the one runtime dependency: every absolute
    # import, a function's own included, names it or a standard-library module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [(node.lineno, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [(node.lineno, node.module) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    foreign = sorted((line, name) for line, name in imported
                     if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"})
    assert not foreign, f"{path.name} imports beyond the standard library and numpy: {foreign}"


@pytest.mark.parametrize("name, settable", [
    ("ChannelRealization", ["h", "g", "sigma1", "sigma2"]),
    ("SchemeConfig", ["kind", "p", "delta", "h", "alphas", "c_bar"]),
    ("ErrorEstimate", ["trials", "errors"]),
    ("RateBound", ["i_v_y1", "i_v_y2"]),
    ("DminStudy", ["rows", "redraws"]),
    ("SweepRow", ["kind", "m", "delta", "draw_id", "p", "gamma", "trials", "errors",
                  "i_vy1", "i_vy1_se", "i_vy2", "i_vy2_se"]),
    ("SerRow", ["p", "m", "delta", "draw_id", "trials", "errors"]),
])
def test_types_take_only_what_they_cannot_derive(name, settable):
    # m, gamma, q, a, the error rate and its stderr, the rate bound and the
    # d_min slopes are derived in __post_init__, never passed. Each type is
    # public in one module, and read from it
    modules = [importlib.import_module(f"blindjam.{module}") for module in MODULES]
    kind, = [getattr(mod, name) for mod in modules if name in mod.__all__]
    assert [f.name for f in fields(kind) if f.init] == settable


def _identifiers(nodes) -> set[str]:
    """Every name and attribute the nodes read or bind."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _benchmark_names() -> set[str]:
    """What perfbench names: the identifiers of its code, and the attribute
    strings of its tracer's TRACED, the functions it wraps by name."""
    names = _identifiers(ast.parse(path.read_text(encoding="utf-8"))
                         for path in PERFBENCH.glob("*.py"))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return names | {attr for _, attr, _, _ in tracer.TRACED}


def test_every_definition_is_named_outside_the_tests():
    # code only tests reach leaves src/: each top-level function and class is
    # named by src/ code outside its own definition, or by the benchmark
    tops = [(path.stem, top, _identifiers([top])) for path in SOURCES
            for top in ast.parse(path.read_text(encoding="utf-8")).body]
    named = _benchmark_names()
    unread = {(module, defn.name) for module, defn, _ in tops
              if isinstance(defn, (ast.FunctionDef, ast.ClassDef)) and defn.name not in named
              and not any(defn.name in ids for _, top, ids in tops if top is not defn)}
    assert unread == TEST_ONLY, f"read only by the tests: {sorted(unread - TEST_ONLY)}"
