"""The package docstring's usage example must actually work, and the
persistence/sharding/collection modules must keep full public docstring
coverage (module, classes, functions, and public methods)."""

import doctest
import inspect

import pytest

import repro
import repro.bench.regression
import repro.core.collection
import repro.ir.persist
import repro.ir.shard


def test_package_docstring_example():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted >= 1
    assert results.failed == 0


def test_public_api_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__ == "1.0.0"


# -- docstring coverage ------------------------------------------------------

COVERED_MODULES = [repro.ir.persist, repro.ir.shard,
                   repro.core.collection, repro.bench.regression]


def _public_members(module):
    """(qualified name, object) for every public class/function defined in
    ``module``, plus the public methods and properties of those classes."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members.append((f"{module.__name__}.{name}", obj))
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if isinstance(attr, property):
                    members.append(
                        (f"{module.__name__}.{name}.{attr_name}", attr.fget))
                elif inspect.isfunction(attr) or isinstance(
                        attr, (classmethod, staticmethod)):
                    func = attr.__func__ if isinstance(
                        attr, (classmethod, staticmethod)) else attr
                    members.append(
                        (f"{module.__name__}.{name}.{attr_name}", func))
    return members


@pytest.mark.parametrize("module", COVERED_MODULES,
                         ids=lambda module: module.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module.__name__} has no module docstring"


@pytest.mark.parametrize("module", COVERED_MODULES,
                         ids=lambda module: module.__name__)
def test_public_api_docstrings(module):
    members = _public_members(module)
    assert members, f"{module.__name__} exposes no public API?"
    missing = [name for name, obj in members
               if not (getattr(obj, "__doc__", None) or "").strip()]
    assert not missing, (
        f"public APIs without docstrings: {missing} — every public "
        f"class/function/method in {module.__name__} must document itself "
        f"(Args/Returns/Raises where applicable)"
    )
