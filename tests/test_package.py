"""The package's public namespace."""

import types

import inducedmaps


def test_public_names_resolve_and_are_not_modules():
    assert inducedmaps.__all__
    for name in inducedmaps.__all__:
        assert not isinstance(getattr(inducedmaps, name), types.ModuleType), name
