"""The package's export list against the names its __init__ imports."""

import inspect

import pqbernstein


def test_every_export_resolves():
    assert [name for name in pqbernstein.__all__ if not hasattr(pqbernstein, name)] == []
    assert len(set(pqbernstein.__all__)) == len(pqbernstein.__all__)


def test_every_public_import_is_exported():
    public = {
        name
        for name, value in vars(pqbernstein).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert sorted(public - set(pqbernstein.__all__)) == []
