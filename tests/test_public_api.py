"""The package's exported names: everything in `__all__` must import, the
names the benchmark patches or constructs must keep existing, and the
README's library example runs as it says."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import factcache
from factcache import pipeline as pipeline_module
from factcache.cache import RemoteSparqlSource, TieredFactStore
from factcache.pipeline import Pipeline


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from factcache import *", namespace)  # AttributeError if missing
    assert set(factcache.__all__) <= namespace.keys()


def test_exported_names_are_unique():
    assert len(factcache.__all__) == len(set(factcache.__all__))


def test_the_readme_library_example_prints_what_it_says(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Library usage\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = re.search(r"^# -> (.+)$", block, re.MULTILINE).group(1)
    assert expected == "Joe Biden"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == expected + "\n"


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
    ("factcache.cache", "InMemorySlowSource.fetch_subject"),
    ("factcache.cache", "RemoteSparqlSource.fetch_subject"),
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


# The traced benchmark wraps pipeline.rank_triples and takes len() of its
# second argument as the answer's candidate count.
@pytest.mark.parametrize("question, entities, candidates", [
    ("Who is the head of government of America?", ("America",), 2),
    ("Who is the spouse of Joe Biden, head of government of America?",
     ("Joe Biden", "America"), 3),
])
def test_each_answer_ranks_once_over_a_sized_candidate_set(
        us_pipeline, monkeypatch, question, entities, candidates):
    calls = []
    rank = pipeline_module.rank_triples

    def spy(query, found, *args, **kwargs):
        calls.append(len(found))
        return rank(query, found, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "rank_triples", spy)
    _, trace = us_pipeline.answer_traced(question)
    assert trace.entities == entities
    assert calls == [candidates]


# The traced benchmark wraps these five calls on the instances a pipeline
# holds and on the pipeline module; an answer that skipped one (say, by
# reading a memo directly) would lose that layer's span.
def test_a_warm_answer_makes_each_traced_call_once(us_pipeline, monkeypatch):
    question = "Who is the head of government of America?"
    first = us_pipeline.answer(question)  # fills the store and the memos
    calls = []

    def spy(owner, name, label):
        call = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(label)
            return call(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # perfbench patches answer_traced to time its pipeline.answer span
    spy(us_pipeline, "answer_traced", "answer_traced")
    spy(us_pipeline, "extract_entities", "extract")
    spy(us_pipeline.store, "retrieve", "retrieve")
    spy(pipeline_module, "rank_triples", "rank")
    spy(pipeline_module, "assemble_prompt", "assemble")
    spy(us_pipeline.model, "generate", "generate")
    hits = us_pipeline.store.stats.hits
    assert us_pipeline.answer(question) == first
    assert us_pipeline.store.stats.hits == hits + 1
    assert calls == ["answer_traced", "extract", "retrieve", "rank",
                     "assemble", "generate"]


def test_benchmark_constructor_calls_bind():
    def binds(cls, *args, **kwargs):
        inspect.signature(cls).bind(*args, **kwargs)  # TypeError if not

    binds(TieredFactStore, slow=None, capacity=8, prefetch_depth=1)
    binds(RemoteSparqlSource, "http://kb.invalid/sparql", transport=None)
    binds(Pipeline, store=None, aliases=None, model=None)
