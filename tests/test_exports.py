"""The package's public names: every name in ``__all__`` resolves, once."""

import triphoton


def test_all_names_resolve_once():
    names = triphoton.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(triphoton, n)] == []


def test_star_import():
    # a name left in __all__ after its import is deleted breaks only this
    namespace = {}
    exec("from triphoton import *", namespace)
    assert set(triphoton.__all__) <= namespace.keys()
