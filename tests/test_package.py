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
DEFAULTED_PUBLIC_PARAMETERS = 16

# Code lines of the package modules, as code_lines counts them.  A change
# that grows the package shows here; moving this pin puts it in review.
SRC_CODE_LINES = 1388

# Names in the package's __all__.  A change that grows the public API
# shows here; moving this pin puts it in review.
PUBLIC_NAMES = 63


def test_public_names_resolve_and_are_not_modules():
    assert len(inducedmaps.__all__) == PUBLIC_NAMES, inducedmaps.__all__
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


def code_lines(path: pathlib.Path) -> int:
    """Non-blank lines of a module that are neither comments nor inside a
    module, class or function docstring."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def test_code_lines_are_pinned():
    root = pathlib.Path(inducedmaps.__file__).parent
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    assert sum(counts.values()) == SRC_CODE_LINES, counts
