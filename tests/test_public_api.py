"""The package's exported names: everything in `__all__` must import, and
the names the benchmark patches or constructs must keep existing."""

from __future__ import annotations

import importlib
import inspect

import pytest

import factcache
from factcache.cache import RemoteSparqlSource, TieredFactStore
from factcache.pipeline import Pipeline


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from factcache import *", namespace)  # AttributeError if missing
    assert set(factcache.__all__) <= namespace.keys()


def test_exported_names_are_unique():
    assert len(factcache.__all__) == len(set(factcache.__all__))


# What the benchmark under perfbench/ patches or calls. Its own self-tests
# are not collected here, so a rename would otherwise go unnoticed.
PATCHED = [
    ("factcache.pipeline", "Pipeline.answer_traced"),
    ("factcache.pipeline", "Pipeline.extract_entities"),
    ("factcache.pipeline", "rank_triples"),
    ("factcache.pipeline", "assemble_prompt"),
    ("factcache.cache", "TieredFactStore.retrieve"),
    ("factcache.cache", "TieredFactStore.apply_update"),
    ("factcache.cache", "TieredFactStore.prefetch_neighbors"),
    ("factcache.models", "MockTableModel.generate"),
    ("factcache.cache", "LocalDumpSource.fetch_subject"),
    ("factcache.cache", "read_dump"),
    ("factcache.cli", "read_dump"),
    ("factcache.cache", "load_state"),
    ("factcache.cache", "save_state"),
]


@pytest.mark.parametrize("module, path", PATCHED)
def test_benchmark_patch_points_exist(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_benchmark_constructor_calls_bind():
    def binds(cls, *args, **kwargs):
        inspect.signature(cls).bind(*args, **kwargs)  # TypeError if not

    binds(TieredFactStore, slow=None, capacity=8, prefetch_depth=1)
    binds(RemoteSparqlSource, "http://kb.invalid/sparql", transport=None)
    binds(Pipeline, store=None, aliases=None, model=None)
