"""Every name a module exports exists: ``__all__`` lists no stale entry
left behind by a deletion, and ``from module import *`` succeeds.  And
every exported name is reached from outside the tests: some module of
the package, a demo, the benchmark or the acceptance criteria uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import teleroute

MODULES = sorted(m.name for m in pkgutil.iter_modules(teleroute.__path__))
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(teleroute.__file__).resolve().parent

# exported names that only the tests use, each kept for a reason
UNREACHED_BUT_KEPT = {
    # the dict form of one primitive: the tests hold the fast JSON
    # writer of a schedule to it
    "op_to_dict",
    # the lexicographically smallest BFS path: the tests hold the hop
    # paths of the teleport packer's distance sweep to it
    "shortest_path",
    # the expansion-based advantage caps that the planned rounds lower
    # bound and the router comparison read; tested against the interval
    # ends of the expansion bounds
    "advantage_upper_bounds",
    # builds the product graph that route_product's schedules run on,
    # which the tests verify them on
    "cartesian_product",
}


def test_every_module_is_listed():
    assert {"graphs", "sparse_routing", "swap_routing", "tele_routing"} \
        <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_import(name):
    mod = importlib.import_module(f"teleroute.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [x for x in exported if not hasattr(mod, x)]
    assert not missing, f"teleroute.{name}.__all__ names missing {missing}"
    namespace: dict = {}
    exec(f"from teleroute.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_next_hop_is_exported():
    from teleroute.graphs import __all__ as names, next_hop
    assert "next_hop" in names and callable(next_hop)


def _names_used(paths) -> set[str]:
    """Every name read, attribute and import alias in the given files; a
    name that is only assigned to does not count."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
                used.add(node.asname or node.name)
    return used


def test_every_export_is_reached_outside_the_tests():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    used = _names_used(users)
    unreached = {x for name in MODULES
                 for x in importlib.import_module(f"teleroute.{name}").__all__
                 if x not in used}
    assert unreached == UNREACHED_BUT_KEPT


# module-level private names that no code of the package reads, each
# kept for a reason
PRIVATE_UNREFERENCED_BUT_KEPT = {
    # the documented phase table of a Pauli product, which the tableau's
    # sign update is derived from and the tests check it against
    "stabilizer._G",
}


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and assigned names."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {x for x in names if x.startswith("_") and not x.startswith("__")}


def test_every_private_helper_is_referenced():
    """A fast path deleted with its helpers leaves none of them behind:
    every module-level private name of the package is read somewhere in
    the package's source."""
    paths = sorted(PACKAGE.glob("*.py"))
    read = _names_used(paths)
    orphans = {f"{p.stem}.{x}" for p in paths
               for x in _private_definitions(ast.parse(p.read_text()))
               if x not in read}
    assert orphans == PRIVATE_UNREFERENCED_BUT_KEPT
