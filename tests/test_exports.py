"""Every name a module exports exists: ``__all__`` lists no stale entry
left behind by a deletion, and ``from module import *`` succeeds."""

import importlib
import pkgutil

import pytest

import teleroute

MODULES = sorted(m.name for m in pkgutil.iter_modules(teleroute.__path__))


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
