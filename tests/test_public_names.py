"""Each library module's ``__all__`` is the one list of its public names.

The package re-exports exactly those lists, so a name added to a module
but not to its ``__all__``, or listed twice, fails here.
"""

import importlib
import inspect
import pkgutil

import pytest

import kerrcasimir

LIBRARY = ("asymptotic", "errors", "geometry", "modes", "oracles", "sweep", "thermal")


def module(name):
    return importlib.import_module(f"kerrcasimir.{name}")


def defined_here(mod):
    """Public classes and functions whose definition lives in ``mod``."""
    return [
        name for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    ]


def test_every_module_but_the_cli_is_a_library_module():
    found = {info.name for info in pkgutil.iter_modules(kerrcasimir.__path__)}
    assert found == {*LIBRARY, "cli"}


@pytest.mark.parametrize("name", LIBRARY)
def test_module_all_is_its_one_list_of_public_names(name):
    mod = module(name)
    assert isinstance(getattr(mod, "__all__", None), list)
    assert [n for n in defined_here(mod) if n not in mod.__all__] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    others = {n for other in LIBRARY if other != name for n in module(other).__all__}
    assert sorted(others.intersection(mod.__all__)) == []
    for n in mod.__all__:
        assert getattr(kerrcasimir, n) is getattr(mod, n), n


def test_package_all_is_the_concatenation_of_the_module_lists():
    assert kerrcasimir.__all__ == [n for name in LIBRARY for n in module(name).__all__]
    namespace = {}
    exec("from kerrcasimir import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(kerrcasimir.__all__)
