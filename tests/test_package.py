"""The package's public names: `import gallai` imports them on first
use, and each is the object its home module defines."""

import importlib

import pytest

import gallai


def test_every_public_name_is_its_home_modules_object():
    assert gallai.__all__ == sorted(set(gallai.__all__))
    for name in gallai.__all__:
        value = getattr(gallai, name)
        home = value.__module__
        assert home.startswith("gallai.") and home != "gallai.cli", name
        assert getattr(importlib.import_module(home), name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gallai import *", namespace)
    for name in gallai.__all__:
        assert namespace[name] is getattr(gallai, name), name


def test_from_imports_and_submodules_resolve():
    from gallai import TriangleCensus, search, triangle_census

    assert TriangleCensus is gallai.census.TriangleCensus
    assert triangle_census is gallai.census.triangle_census
    assert search is gallai.search and search.MAX_N == gallai.search.MAX_N


def test_unknown_names_are_refused_by_name():
    with pytest.raises(AttributeError, match="module 'gallai' has no attribute 'no_such_name'"):
        gallai.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from gallai import no_such_name  # noqa: F401
    assert not hasattr(gallai, "cli_main")


def test_dir_lists_the_public_names():
    listed = dir(gallai)
    assert set(gallai.__all__) <= set(listed)
    assert listed == sorted(listed)
