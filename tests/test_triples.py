from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factcache.cli import load_entities
from factcache.triples import (FactTriple, RelationRef, Source, TaskKind,
                               TripleSet)
from conftest import triple


class TestEntityRef:
    """An entity as the entities file states it: an id, a label and
    aliases, read by load_entities into (surface, id) pairs."""

    def test_surface_forms_include_label(self, tmp_path):
        path = tmp_path / "entities.json"
        path.write_text(json.dumps([{"id": "Q30", "label": "United States",
                                     "aliases": ["America", "US"]}]))
        pairs = load_entities(str(path))
        assert {surface for surface, _ in pairs} == {
            "United States", "America", "US"}
        assert {entity for _, entity in pairs} == {"Q30"}


class TestRelationRef:
    def test_requires_qa_template(self):
        with pytest.raises(ValueError):
            RelationRef(id="P6", task_templates={})

    def test_rejects_multi_placeholder_template(self):
        with pytest.raises(ValueError):
            RelationRef(id="P6", task_templates={
                TaskKind.QA: ("Who leads {} and {}?",)})

    def test_rejects_placeholder_free_template(self):
        with pytest.raises(ValueError):
            RelationRef(id="P6", task_templates={
                TaskKind.QA: ("Who leads the town?",)})

    def test_template_lookup(self):
        ref = RelationRef(id="P6", label="head of government",
                          task_templates={TaskKind.QA: ("Who leads {}?",)})
        assert ref.template(TaskKind.QA) == "Who leads {}?"


class TestFactTriple:
    def test_requires_subject_and_relation(self):
        with pytest.raises(ValueError):
            FactTriple(subject="", relation="r", obj="o")
        with pytest.raises(ValueError):
            FactTriple(subject="s", relation="", obj="o")

    def test_version_must_be_positive(self):
        with pytest.raises(ValueError):
            FactTriple(subject="s", relation="r", obj="o", version=0)

    def test_labels_default_to_ids(self):
        t = FactTriple(subject="Q30", relation="P6", obj="Q6279")
        assert (t.subject_label, t.relation_label, t.object_label) == \
            ("Q30", "P6", "Q6279")

    def test_render_uses_labels(self):
        t = FactTriple(subject="Q30", relation="P6", obj="Q6279",
                       subject_label="America",
                       relation_label="head of government",
                       object_label="Joe Biden")
        assert t.render() == "(America, head of government, Joe Biden)"


class TestTripleSet:
    def test_membership_ignores_provenance(self):
        a = triple("s", "r", "o", source=Source.WIKIDATA, version=1)
        b = triple("s", "r", "o", source=Source.MANUAL, version=4)
        ts = TripleSet([a, b])
        assert len(ts) == 1
        assert a in ts and b in ts

    def test_the_first_fact_of_a_repeated_key_is_kept(self):
        first = triple("s", "r", "o", source=Source.WIKIDATA, version=1)
        later = triple("s", "r", "o", source=Source.MANUAL, version=4)
        other = triple("s", "q", "o")
        kept = TripleSet([first, other, later]).triples
        assert len(kept) == 2 and kept[0] is other and kept[1] is first
        (kept,) = TripleSet([later, first]).triples
        assert kept is later

    def test_contains_accepts_key_tuples(self):
        ts = TripleSet([triple("s", "r", "o")])
        assert ("s", "r", "o") in ts
        assert ("s", "r", "other") not in ts

    def test_equality_is_by_key_set(self):
        left = TripleSet([triple("s", "r", "o", source=Source.WIKIDATA)])
        right = TripleSet([triple("s", "r", "o", source=Source.MANUAL)])
        assert left == right

    def test_union_and_difference(self):
        a, b = triple("a", "r", "b"), triple("b", "r", "c")
        assert TripleSet([a]) | TripleSet([b]) == TripleSet([a, b])
        assert TripleSet([a, b]) - TripleSet([a]) == TripleSet([b])

    def test_iteration_sorted_by_key(self):
        ts = TripleSet([triple("z", "r", "x"), triple("a", "r", "y")])
        assert [t.subject for t in ts] == ["a", "z"]

    def test_subject_index(self):
        a, b = triple("s", "r1", "x"), triple("s", "r2", "y")
        ts = TripleSet([triple("t", "r1", "z"), b, a])
        assert [t for t in ts if t.subject == "s"] == [a, b]
        assert [t for t in ts if t.subject == "missing"] == []


_ids = st.text(alphabet="abcdef", min_size=1, max_size=3)
_triples = st.builds(lambda s, r, o: triple(s, r, o), _ids, _ids, _ids)


@given(st.lists(_triples, max_size=30))
def test_subject_index_consistent_with_contents(ts_list):
    ts = TripleSet(ts_list)
    # grouped by subject, the set holds each given key once, in key order
    subjects = {t.subject for t in ts}
    grouped = [t for s in sorted(subjects) for t in ts if t.subject == s]
    assert [t.key for t in grouped] == sorted({t.key for t in ts_list})
    assert all(t in ts for t in ts_list)
