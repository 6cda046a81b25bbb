from __future__ import annotations

import json
import re
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): a top-level acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        label = marker.kwargs.get("label", item.name)
        if report.passed:
            print(f"\nACCEPTANCE PASS  {label}", flush=True)
        elif report.failed:
            print(f"\nACCEPTANCE FAIL  {label}", flush=True)

from factcache.cache import InMemorySlowSource, TieredFactStore
from factcache.dataset import load_relation_templates
from factcache.models import MockTableModel
from factcache.pipeline import AliasIndex, Pipeline
from factcache.sparqlio import TransportReply
from factcache.triples import FactTriple, Source, TripleSet

FIXTURES = Path(__file__).parent / "fixtures"

SNAPSHOT = datetime(2024, 1, 1, tzinfo=timezone.utc)


def triple(subject, relation, obj, **kwargs):
    return FactTriple(subject=subject, relation=relation, obj=obj, **kwargs)


def subject_facts_endpoint(facts, sent_at, labels=None):
    """A transport standing in for Wikidata's SPARQL endpoint: it answers
    subject_facts.rq from `facts`, item id -> [(property id, property
    label, object, object label)], sending an object that is an item id
    as its entity URI, and appends each request's time.monotonic() to
    `sent_at`. With `labels`, item id -> label, replies also carry the
    subject's label column."""
    entity = "http://www.wikidata.org/entity/"

    def cell(value, uri=False):
        return {"type": "uri" if uri else "literal", "value": value}

    def transport(url, params, headers):
        sent_at.append(time.monotonic())
        subject = re.search(r"wd:(\w+) ", params["query"]).group(1)
        bindings = []
        names = ["relation", "relationLabel", "object", "objectLabel"]
        for prop, prop_label, obj, obj_label in facts.get(subject, ()):
            item = re.fullmatch(r"Q\d+", obj) is not None
            bindings.append({
                "relation": cell(entity + prop, uri=True),
                "relationLabel": cell(prop_label),
                "object": cell(entity + obj if item else obj, uri=item),
                "objectLabel": cell(obj_label)})
        if labels is not None:
            names.append("subjectLabel")
            for row in bindings:
                row["subjectLabel"] = cell(labels.get(subject, subject))
        return TransportReply(200, json.dumps({
            "head": {"vars": names}, "results": {"bindings": bindings}}))

    return transport


@pytest.fixture
def templates():
    return load_relation_templates()


@pytest.fixture
def us_triples():
    return [
        triple("America", "head of government", "Joe Biden",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Joe Biden", "spouse", "Jill Biden",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Sioux Falls", "head of government", "Paul Ten Haken",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("America", "capital", "Washington",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
    ]


@pytest.fixture
def us_store(us_triples):
    slow = InMemorySlowSource(us_triples, snapshot_at=SNAPSHOT)
    return TieredFactStore(slow=slow, prefetch_depth=1)


@pytest.fixture
def us_pipeline(us_store, us_triples):
    aliases = AliasIndex.from_triples(TripleSet(us_triples))
    aliases.add("United States", "America")
    aliases.add("Biden", "Joe Biden")
    return Pipeline(store=us_store, aliases=aliases, model=MockTableModel())
