"""The package's public namespace."""

import importlib
import inspect
import pkgutil
import types

import inducedmaps

# Defaulted parameters over the public functions of every package module.
# A new one is a new option to test; moving this pin puts it in review.
DEFAULTED_PUBLIC_PARAMETERS = 23


def test_public_names_resolve_and_are_not_modules():
    assert inducedmaps.__all__
    for name in inducedmaps.__all__:
        assert not isinstance(getattr(inducedmaps, name), types.ModuleType), name


def test_defaulted_public_parameters_are_pinned():
    defaulted = []
    for info in pkgutil.iter_modules(inducedmaps.__path__):
        module = importlib.import_module(f"inducedmaps.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from another module, counted there
            defaulted += [
                f"{info.name}.{name}({p.name})"
                for p in inspect.signature(obj).parameters.values()
                if p.default is not p.empty
            ]
    assert len(defaulted) == DEFAULTED_PUBLIC_PARAMETERS, defaulted
