"""The package's public namespace."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

import inducedmaps

# Defaulted parameters over the public functions of every package module.
# A new one is a new option to test; moving this pin puts it in review.
DEFAULTED_PUBLIC_PARAMETERS = 21


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


def unread_imports(path: pathlib.Path) -> list[str]:
    """Names that a module imports and never reads, as ``file:line name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_package_modules_read_every_name_they_import():
    # __init__.py imports to re-export; every other module imports to use.
    # An unread import is a leftover that still ties the two modules.
    root = pathlib.Path(inducedmaps.__file__).parent
    unread = []
    for path in sorted(root.glob("*.py")):
        if path.name != "__init__.py":
            unread += unread_imports(path)
    assert unread == []
