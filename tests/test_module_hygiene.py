"""The library as a set of modules: its runtime stays stdlib-only, and a
re-import leaves no earlier copy of it alive."""

import ast
import inspect
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import geninv

SRC = Path(geninv.__file__).parent
EXPORTING_MODULES = ("errors", "exact", "factorize", "rect", "square", "penrose")


def imported_top_level_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "geninv" if node.level else node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 8
    foreign = {f"{path.name}: {name}" for path in sources
               for name in imported_top_level_modules(path)
               if name != "geninv" and name not in sys.stdlib_module_names}
    assert foreign == set()


def test_only_exact_takes_an_lcm():
    # putting grids over the lcm of their denominators is decided in exact alone
    takers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names) \
                    or isinstance(node, ast.Attribute) and node.attr == "lcm":
                takers.add(path.name)
    assert takers == {"exact.py"}


def modules_naming(name):
    """The library modules that name ``name``: as a name, an attribute or an import."""
    namers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == name \
                    or isinstance(node, ast.Attribute) and node.attr == name \
                    or isinstance(node, ast.alias) and node.name == name:
                namers.add(path.name)
    return namers


def test_only_exact_runs_the_elimination():
    # the pivot policy is decided in exact alone: no other module names _echelon
    assert modules_naming("_echelon") == {"exact.py"}


def test_only_exact_steps_the_rows():
    # the integer rows and their steps are exact's alone: no other module
    # back-substitutes the elimination's rows itself
    assert modules_naming("_back_substitute") == {"exact.py"}


def names_in_body(path, function):
    """The names that the body of ``function``, defined at the top of path,
    reads: as a name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("module, function", [("rect", "moore_penrose"),
                                              ("square", "drazin_inverse")])
def test_unique_inverses_share_one_core(module, function):
    # B*(W*A*B)^-1*W is written once, in exact._outer, which also decides the
    # regular case: neither unique inverse inverts a matrix itself
    names = names_in_body(SRC / f"{module}.py", function)
    assert "_outer" in names and "mat_inverse" not in names


def parser_tokens(path):
    """The tokens of path that CPython's parser keeps: all but comments,
    non-logical newlines and the encoding marker."""
    with path.open("rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


def test_exact_stays_below_4096_parser_tokens():
    # CPython 3.11's parser doubles its token array as it passes 4,096 tokens.
    # A build of exact.py at 4,103 tokens compiled with a 1,719 KiB peak
    # (tracemalloc) against 1,530 KiB at 4,056, and lifted the benchmark's
    # cli-small peak_rss_mib from 19.61-19.82 to 19.85-20.10, as its set-up
    # compiles the package every round; at 4,090 tokens it read 19.71-19.80.
    # A change that needs more tokens in exact.py must offset them there.
    assert parser_tokens(SRC / "exact.py") < 4096


REIMPORT = """
import gc, sys
for _ in range(10):
    for name in [n for n in sys.modules if n == "geninv" or n.startswith("geninv.")]:
        del sys.modules[name]
    import geninv
    gc.collect()
print(sum(1 for o in gc.get_objects()
          if isinstance(o, type) and o.__module__ == "geninv.exact" and o.__name__ == "RMatrix"))
"""


def test_reimport_frees_the_previous_copy():
    # A module-level typing construct such as Optional[RMatrix] is cached by
    # typing and keeps its RMatrix, and through it a whole copy of the library,
    # alive for good; a process that re-imports the library then grows.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1


def test_all_names_resolve_once():
    assert len(geninv.__all__) == len(set(geninv.__all__))
    assert [name for name in geninv.__all__ if not hasattr(geninv, name)] == []


def test_public_definitions_are_exported():
    # a public function or class defined in a library module is part of the API
    missing = set()
    for module_name in EXPORTING_MODULES:
        module = getattr(geninv, module_name)
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__ and name not in geninv.__all__):
                missing.add(f"{module_name}.{name}")
    assert missing == set()


# public names with no caller in the library, scripts/ or perfbench/, each kept on purpose
UNREFERENCED_ON_PURPOSE = {
    "validate_g2_blocks": "the paper's block conditions for a {2}-inverse, checked from outside",
    "validate_g3_blocks": "the paper's block conditions for a {1,3}-inverse, checked from outside",
    "validate_g4_blocks": "the paper's block conditions for a {1,4}-inverse, checked from outside",
}


def names_used(path):
    """The names path reads, as a name, an attribute or a string constant such
    as perfbench's tracer lists, each with the names whose definition it is in."""
    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            yield node.id, inside
        elif isinstance(node, ast.Attribute):
            yield node.attr, inside
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, inside
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inside)

    yield from walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())


def test_every_public_name_has_a_caller():
    # a public name that only the tests call is a test helper; it belongs in tests/
    root = SRC.parent.parent
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    assert len(paths) >= 10
    used = {name for path in paths for name, inside in names_used(path) if name not in inside}
    unused = set(geninv.__all__) - used
    assert unused == set(UNREFERENCED_ON_PURPOSE)
