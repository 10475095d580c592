"""The package's import graph, read from the source: every import sits at
module level, and no two modules import each other, directly or around a
longer loop.  Also read from the source: every Bernoulli cache is passed in
explicitly, with no default to fall back on."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hclab"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module) -> list[ast.stmt]:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _package_imports(tree: ast.Module) -> set[str]:
    """The hclab modules one module imports, wherever the statement is."""
    out = set()
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("hclab.")}
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "hclab":
            continue
        module = node.module if node.level else node.module.partition(".")[2]
        # `from . import primes` and `from hclab import primes` name modules
        out |= {module} if module else {a.name for a in node.names}
    return out & TREES.keys()


@pytest.mark.parametrize("name", sorted(TREES))
def test_imports_only_at_module_level(name):
    tree = TREES[name]
    nested = [node.lineno for node in _imports(tree) if node not in tree.body]
    assert nested == [], f"{name}.py imports below module level, at lines {nested}"


def test_package_import_graph_is_acyclic():
    graph = {name: _package_imports(tree) - {name} for name, tree in TREES.items()}
    assert graph["bernoulli"] >= {"_kernels", "primes"}  # the parser sees relative imports
    # Peel off modules that import no module still left; a cycle is never peeled.
    left = dict(graph)
    while leaves := [name for name, deps in left.items() if not deps & left.keys()]:
        for name in leaves:
            del left[name]
    assert left == {}, f"on an import cycle, or importing one: {sorted(left)}"


def test_kernel_is_pure_arithmetic():
    """The Bernoulli kernel forks nothing and raises no command's error: a
    long fill is split across processes by the cache that calls it."""
    assert _package_imports(TREES["_kernels"]) & {"fork", "errors"} == set()


def test_submodule_import_gives_the_module():
    """The package root binds no function over a submodule of the same name."""
    import hclab.bernoulli as m
    assert m is sys.modules["hclab.bernoulli"]
    import hclab.harmonic as m
    assert m is sys.modules["hclab.harmonic"]


def _defaults(args: ast.arguments) -> list[ast.arg]:
    """The parameters of one signature that have a default."""
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults):]
    return with_default + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def test_cache_parameters_have_no_default():
    """Every Bernoulli read goes to the cache its caller passes."""
    found = [f"{name}.py:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))
             if any(a.arg == "cache" for a in _defaults(node.args))]
    assert found == [], f"a cache parameter has a default at {found}"


def test_no_module_assigns_default_cache():
    found = [f"{name}.py:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and target.id == "_default_cache"]
    assert found == [], f"_default_cache assigned at {found}"
