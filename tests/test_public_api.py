"""The package's exported names: everything in `__all__` must import."""

from __future__ import annotations

import factcache


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from factcache import *", namespace)  # AttributeError if missing
    assert set(factcache.__all__) <= namespace.keys()


def test_exported_names_are_unique():
    assert len(factcache.__all__) == len(set(factcache.__all__))
