"""The package's public names: every name in ``__all__`` resolves, once."""

import inspect

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


def test_method_is_taken_by_the_transform_entry_points_only():
    # the coherence module owns the numerical-path choice; the rate and
    # oracle entry points take none
    def takes_method(obj):
        try:
            return "method" in inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to inspect
            return False

    public = (getattr(triphoton, n) for n in triphoton.__all__)
    assert {obj.__name__ for obj in public if callable(obj) and takes_method(obj)} == {
        "transform_1d", "gamma_pump", "gamma_prime", "coherence_surface"}
