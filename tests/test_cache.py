from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import queue
import random
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from factcache.cache import (CacheStats, EditRequest, InMemorySlowSource,
                             LocalDumpSource, RemoteSparqlSource,
                             TieredFactStore, UpdateOutcome, load_state,
                             parse_rfc3339, read_dump, save_state,
                             triple_to_row, write_dump)
from factcache.cli import load_entities
from factcache.config import load_config
from factcache.dataset import (BenchmarkItem, load_benchmark,
                               load_relation_templates)
from factcache.errors import (SURROGATE, ConfigError, FactCacheError,
                              ParseError, SlowUnreachable)
from factcache.models import MockTableModel
from factcache.pipeline import AliasIndex, Pipeline
from factcache.triples import Source, TripleSet
from conftest import FIXTURES, SNAPSHOT, subject_facts_endpoint, triple


def make_store(triples=(), snapshot_at=SNAPSHOT, **kwargs):
    slow = InMemorySlowSource(triples, snapshot_at=snapshot_at)
    return TieredFactStore(slow=slow, **kwargs), slow


US_BIDEN = triple("US", "head_of_gov", "Biden", source=Source.WIKIDATA,
                  fetched_at=SNAPSHOT)
BIDEN_JILL = triple("Biden", "spouse", "Jill", source=Source.WIKIDATA,
                    fetched_at=SNAPSHOT)


class TestRetrieve:
    def test_cold_start_reads_through(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        result = store.retrieve("US")
        assert result == TripleSet([US_BIDEN])
        assert store.stats.misses == 1
        assert store.stats.slow_fetches == 1
        assert store.stats.hits == 0

    def test_warm_hit_skips_slow(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        result = store.retrieve("US")
        assert result == TripleSet([US_BIDEN])
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.slow_fetches == 1
        assert slow.fetch_log == ["US"]

    def test_true_negative(self):
        store, _ = make_store([], prefetch_depth=0)
        assert store.retrieve("ghost") == TripleSet()
        assert store.stats.misses == 1
        assert store.stats.slow_fetches == 1

    def test_absence_is_not_cached(self):
        # a repeated miss re-fetches; remembering absence is out of contract
        store, slow = make_store([], prefetch_depth=0)
        store.retrieve("ghost")
        store.retrieve("ghost")
        assert slow.fetch_log == ["ghost", "ghost"]
        assert store.stats.misses == 2

    def test_read_through_exactness(self):
        rows = [triple("e", f"r{i}", f"o{i}") for i in range(5)]
        store, _ = make_store(rows, prefetch_depth=0)
        assert store.retrieve("e") == TripleSet(rows)

    def test_unreachable_slow_leaves_store_untouched(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        slow.unreachable = True
        with pytest.raises(SlowUnreachable):
            store.retrieve("US")
        assert len(store) == 0
        # errored calls count neither a hit nor a miss
        assert store.stats.hits + store.stats.misses == 0
        assert store.stats.slow_fetches == 0

    def test_counter_discipline_over_mixed_calls(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.retrieve("US")
        store.retrieve("nobody")
        slow.unreachable = True
        with pytest.raises(SlowUnreachable):
            store.retrieve("other")
        assert store.stats.hits + store.stats.misses == 3
        assert store.stats.misses == store.stats.slow_fetches

    def test_failed_reads_hold_nothing_and_evict_nothing(self):
        facts = [triple(f"s{i}", "r", f"o{i}") for i in range(5)]
        store, slow = make_store(facts, capacity=2, prefetch_depth=0)
        slow.unreachable = True
        for i in range(10):
            with pytest.raises(SlowUnreachable):
                store.retrieve(f"ghost{i}")
        assert not store._subjects and not store._lru
        slow.unreachable = False
        for t in facts:
            assert store.retrieve(t.subject) == TripleSet([t])
        assert store.stats.evictions == 3  # s0, s1, s2: the two left fit
        assert set(store._subjects) == {"s3", "s4"}

    def test_rejects_empty_entity(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.retrieve("")

    def test_edit_before_first_fetch_reads_through(self):
        capital = triple("US", "capital", "Washington",
                         source=Source.WIKIDATA, fetched_at=SNAPSHOT)
        store, slow = make_store([US_BIDEN, capital], prefetch_depth=0)
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        merged = TripleSet([triple("US", "head_of_gov", "Harris"), capital])
        assert store.retrieve("US") == merged  # the edit wins
        assert store.stats.misses == store.stats.slow_fetches == 1
        assert store.stats.hits == 0
        assert store.retrieve("US") == merged
        assert store.stats.hits == 1
        assert slow.fetch_log == ["US"]


class TestPrefetch:
    def test_depth_zero_disables_prefetch(self):
        store, _ = make_store([US_BIDEN, BIDEN_JILL], prefetch_depth=0)
        added = store.prefetch_neighbors(TripleSet([US_BIDEN]))
        assert added == 0

    def test_neighbor_becomes_a_hit(self):
        store, _ = make_store([US_BIDEN, BIDEN_JILL], prefetch_depth=1)
        store.retrieve("US")  # cold miss; prefetch pulls Biden's facts
        assert store.retrieve("Biden") == TripleSet([BIDEN_JILL])
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.slow_fetches == 1  # prefetch tracked separately
        assert store.stats.prefetch_fetches == 1

    def test_literal_objects_have_no_neighbors(self):
        length = triple("Bridge", "length", "352 km", object_is_entity=False)
        store, slow = make_store([length], prefetch_depth=1)
        store.bulk_load([length])
        assert store.prefetch_neighbors(TripleSet([length])) == 0
        assert slow.fetch_log == []

    @pytest.mark.parametrize("depth", [-1, 0, 1, 2])
    def test_depth_is_zero_or_one(self, tmp_path, depth):
        path = tmp_path / "factcache.json"
        path.write_text(json.dumps({"store": {"prefetch_depth": depth}}))
        if depth in (0, 1):
            assert TieredFactStore(prefetch_depth=depth).prefetch_depth == \
                depth
            assert load_config(str(path)).prefetch_depth == depth
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                TieredFactStore(prefetch_depth=depth)
            with pytest.raises(ConfigError, match="0 or 1"):
                load_config(str(path))

    def test_a_failed_prefetch_still_answers_the_miss(self, caplog):
        store, slow = make_store([US_BIDEN, BIDEN_JILL], prefetch_depth=1)
        fetch = slow.fetch_subject

        def unreachable_past_us(entity):
            if entity != "US":
                raise SlowUnreachable("budget exhausted")
            return fetch(entity)

        slow.fetch_subject = unreachable_past_us
        with caplog.at_level(logging.WARNING, logger="factcache.cache"):
            assert store.retrieve("US") == TripleSet([US_BIDEN])
        assert "prefetch after retrieve(US) incomplete" in caplog.text
        assert store.stats.prefetch_fetches == 0
        assert store.get("Biden", "spouse") is None

    def test_partial_prefetch_kept_on_failure(self):
        class FlakySource(InMemorySlowSource):
            def __init__(self, triples, fail_after):
                super().__init__(triples, snapshot_at=SNAPSHOT)
                self.fail_after = fail_after

            def fetch_subject(self, entity):
                if len(self.fetch_log) >= self.fail_after:
                    raise SlowUnreachable("budget exhausted")
                return super().fetch_subject(entity)

        a_b = triple("a", "r", "b")
        a_c = triple("a", "r2", "c")
        b_x = triple("b", "r", "x")
        c_y = triple("c", "r", "y")
        slow = FlakySource([a_b, a_c, b_x, c_y], fail_after=1)
        store = TieredFactStore(slow=slow, prefetch_depth=1)
        store.bulk_load([a_b, a_c])
        with pytest.raises(SlowUnreachable):
            store.prefetch_neighbors(TripleSet([a_b, a_c]))
        # the first neighbor fetched before the failure is retained
        assert store.get("b", "r") is not None
        assert store.get("c", "r") is None

    def test_a_prefetch_stopped_part_way_releases_the_targets_left(self):
        seeds = [triple("a", f"r{n}", n) for n in "bcd"]
        store, slow = make_store(
            [*seeds, *(triple(n, "r", "x") for n in "bcd")])
        fetch = slow.fetch_subject

        def unreachable_past_b(entity):
            if entity != "b":
                raise SlowUnreachable("budget exhausted")
            return fetch(entity)

        slow.fetch_subject = unreachable_past_b
        store.apply_update(EditRequest("d", "r2", "y"))  # held, not released
        with pytest.raises(SlowUnreachable):
            store.prefetch_neighbors(TripleSet(seeds))
        assert set(store._subjects) == set(store._lru) | {"d"} == {"b", "d"}
        assert store.get("d", "r2").obj == "y"


class TestApplyUpdate:
    def test_first_write_inserts(self):
        store, _ = make_store()
        outcome = store.apply_update(EditRequest("US", "head_of_gov", "Obama"))
        assert outcome is UpdateOutcome.INSERTED
        assert store.get("US", "head_of_gov").version == 1

    def test_presidential_transition_replaces(self):
        store, _ = make_store()
        store.apply_update(EditRequest("US", "head_of_gov", "Obama"))
        second = store.apply_update(EditRequest("US", "head_of_gov", "Trump"))
        third = store.apply_update(EditRequest("US", "head_of_gov", "Biden"))
        assert second is UpdateOutcome.REPLACED
        assert third is UpdateOutcome.REPLACED
        result = store.retrieve("US")
        assert result == TripleSet([triple("US", "head_of_gov", "Biden")])
        assert store.get("US", "head_of_gov").version == 3

    def test_idempotent_reapply_keeps_version(self):
        store, _ = make_store()
        store.apply_update(EditRequest("US", "head_of_gov", "Biden"))
        outcome = store.apply_update(EditRequest("US", "head_of_gov", "Biden"))
        assert outcome is UpdateOutcome.REPLACED
        assert store.get("US", "head_of_gov").version == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_last_writer_wins(self, n):
        store, _ = make_store()
        for i in range(n):
            store.apply_update(EditRequest("US", "head_of_gov", f"v{i}"))
        assert store.retrieve("US") == TripleSet(
            [triple("US", "head_of_gov", f"v{n - 1}")])

    def test_inject_manual_sets_source(self):
        store, _ = make_store()
        store.inject_manual(EditRequest("US", "head_of_gov", "Biden"))
        assert store.get("US", "head_of_gov").source is Source.MANUAL

    def test_inject_manual_first_write_inserts(self):
        store, _ = make_store()
        assert store.inject_manual(EditRequest("US", "head_of_gov", "Obama")) \
            is UpdateOutcome.INSERTED

    def test_inject_manual_transition_replaces(self):
        store, _ = make_store()
        store.inject_manual(EditRequest("US", "head_of_gov", "Obama"))
        assert store.inject_manual(
            EditRequest("US", "head_of_gov", "Trump")) is UpdateOutcome.REPLACED
        assert store.inject_manual(
            EditRequest("US", "head_of_gov", "Biden")) is UpdateOutcome.REPLACED
        assert store.retrieve("US") == TripleSet(
            [triple("US", "head_of_gov", "Biden")])

    def test_inject_manual_reapply_is_a_noop(self):
        store, _ = make_store()
        store.inject_manual(EditRequest("US", "head_of_gov", "Biden"))
        outcome = store.inject_manual(EditRequest("US", "head_of_gov", "Biden"))
        assert outcome is UpdateOutcome.REPLACED
        assert store.get("US", "head_of_gov").version == 1

    WRITES = pytest.mark.parametrize("write, source", [
        (TieredFactStore.apply_update, Source.SYNTHETIC),
        (TieredFactStore.inject_manual, Source.MANUAL)],
        ids=["apply_update", "inject_manual"])

    @WRITES
    def test_a_fact_is_stored_with_the_write_source_version_one_and_its_time(
            self, write, source):
        store, _ = make_store()
        fact = triple("US", "head_of_gov", "Joe Biden",
                      subject_label="United States",
                      relation_label="head of government",
                      object_label="Biden", object_is_entity=False,
                      source=Source.WIKIDATA,
                      fetched_at=SNAPSHOT + timedelta(hours=1), version=7)
        assert write(store, fact) is UpdateOutcome.INSERTED
        assert store.get("US", "head_of_gov") == dataclasses.replace(
            fact, source=source, version=1)

    @WRITES
    def test_a_fact_without_a_time_is_stamped_when_written(self, write,
                                                          source):
        store, _ = make_store()
        before = datetime.now(timezone.utc)
        write(store, triple("US", "head_of_gov", "Biden"))
        after = datetime.now(timezone.utc)
        stored = store.get("US", "head_of_gov")
        assert stored.source is source
        assert before <= stored.fetched_at <= after

    def test_replacement_counter_tracks_changes_only(self):
        store, _ = make_store()
        store.apply_update(EditRequest("s", "r", "a"))
        store.apply_update(EditRequest("s", "r", "a"))  # no-op
        store.apply_update(EditRequest("s", "r", "b"))
        assert store.stats.updates_applied == 3
        assert store.stats.replacements == 1


@st.composite
def _op_sequences(draw):
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["s1", "s2"]), st.sampled_from(["r1", "r2"]),
        st.text(alphabet="xyz", min_size=1, max_size=2)), max_size=25))
    return ops


@given(_op_sequences())
@settings(max_examples=50, deadline=None)
def test_functional_dependency_invariant(ops):
    store, _ = make_store()
    last = {}
    for subject, relation, obj in ops:
        store.apply_update(EditRequest(subject, relation, obj))
        last[(subject, relation)] = obj
    snapshot = store.fast_snapshot()
    seen = {}
    for t in snapshot:
        assert (t.subject, t.relation) not in seen
        seen[(t.subject, t.relation)] = t.obj
    assert seen == last


MODEL_SUBJECTS = ["s0", "s1", "s2", "s3"]
MODEL_RELATIONS = ["r0", "r1", "r2"]


@st.composite
def _store_scenarios(draw):
    objects = st.sampled_from(MODEL_SUBJECTS + ["x", "y"])
    slow_facts = draw(st.dictionaries(
        st.tuples(st.sampled_from(MODEL_SUBJECTS),
                  st.sampled_from(MODEL_RELATIONS)), objects, max_size=8))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("retrieve"), st.sampled_from(MODEL_SUBJECTS)),
        st.tuples(st.just("edit"), st.sampled_from(MODEL_SUBJECTS),
                  st.sampled_from(MODEL_RELATIONS), objects),
        st.tuples(st.just("bulk_load"),
                  st.sets(st.sampled_from(MODEL_SUBJECTS), max_size=2)),
        st.tuples(st.just("sync")),
    ), max_size=30))
    return (slow_facts, draw(st.integers(1, 4)), draw(st.integers(0, 1)),
            ops)


@given(_store_scenarios())
@settings(max_examples=200, deadline=None)
def test_store_matches_reference_model(scenario):
    """The store against the slow source's facts with the edits laid over
    them: every read equals that view, and only edits outgrow capacity. The
    edits are synthetic, so a sync gives each one on a relation the slow
    source holds way to the slow value; a subject left with no other edit
    is released and counts against capacity again."""
    slow_facts, capacity, prefetch_depth, ops = scenario
    slow_rows = [triple(s, r, o) for (s, r), o in slow_facts.items()]
    store, _ = make_store(slow_rows, capacity=capacity,
                          prefetch_depth=prefetch_depth)
    edits: dict[tuple[str, str], str] = {}
    retrieves = 0

    def view(subject):
        model = {r: o for (s, r), o in slow_facts.items() if s == subject}
        model.update({r: o for (s, r), o in edits.items() if s == subject})
        return {(subject, r, o) for r, o in model.items()}

    for op in ops:
        if op[0] == "retrieve":
            retrieves += 1
            assert store.retrieve(op[1]).keys() == view(op[1])
        elif op[0] == "edit":
            _, subject, relation, obj = op
            store.apply_update(EditRequest(subject, relation, obj))
            edits[(subject, relation)] = obj
        elif op[0] == "sync":
            store.sync()
            edits = {key: o for key, o in edits.items()
                     if key not in slow_facts}
        else:
            store.bulk_load([t for t in slow_rows if t.subject in op[1]])
        resident = store.fast_snapshot()
        assert all(t.key in view(t.subject) for t in resident)
        assert all(store.get(s, r).obj == o for (s, r), o in edits.items())
        edited = {s for s, _ in edits}
        assert len(resident) == len(store) <= capacity + sum(
            t.subject in edited for t in resident)
        assert store.stats.hits + store.stats.misses == retrieves
        assert store.stats.misses == store.stats.slow_fetches


SYNC_KEYS = st.tuples(st.sampled_from(MODEL_SUBJECTS),
                      st.sampled_from(MODEL_RELATIONS))
SYNC_OBJECTS = st.sampled_from(["x", "y", "z"])


@st.composite
def _sync_scenarios(draw):
    source = draw(st.dictionaries(SYNC_KEYS, SYNC_OBJECTS, max_size=8))
    # an edit's age is None for a synthetic edit, else the hours between
    # the source's snapshot and a manual edit's issue time
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("read"), st.sampled_from(MODEL_SUBJECTS)),
        st.tuples(st.just("edit"), SYNC_KEYS, SYNC_OBJECTS,
                  st.sampled_from([None, -1, 1])),
    ), max_size=20))
    # a source change puts an object, or removes the fact when it is None
    changes = draw(st.lists(st.tuples(SYNC_KEYS, st.none() | SYNC_OBJECTS),
                            max_size=6))
    return source, ops, changes


@given(_sync_scenarios())
@settings(max_examples=200, deadline=None)
def test_sync_lays_the_surviving_edits_over_a_changed_source(scenario):
    """After the source changes, a sync leaves each resident subject with
    the source's facts and the surviving edits laid over them. An edit
    survives if the source lacks its relation, or if its fact is a manual
    edit newer than the snapshot that still differs from the source's. A
    subject is outside the LRU exactly when it keeps such an edit."""
    source, ops, changes = scenario
    store, slow = make_store(
        [triple(s, r, o, source=Source.WIKIDATA, fetched_at=SNAPSHOT)
         for (s, r), o in source.items()], prefetch_depth=0)
    resident: dict[str, dict[str, str]] = {}
    edited: set[tuple[str, str]] = set()
    # the age of each edited fact's manual edit, None for a synthetic one
    manual_age: dict[tuple[str, str], int | None] = {}
    for op in ops:
        if op[0] == "read":
            subject = op[1]
            fetched = {r: o for (s, r), o in source.items() if s == subject}
            if subject in resident or fetched:  # absence is not cached
                facts = resident.setdefault(subject, {})
                for relation, obj in fetched.items():
                    facts.setdefault(relation, obj)  # each edit wins
            store.retrieve(subject)
            continue
        _, key, obj, age = op
        subject, relation = key
        facts = resident.setdefault(subject, {})
        if facts.get(relation) != obj:
            facts[relation] = obj
            manual_age[key] = age
        elif age is not None and (manual_age.get(key) is None
                                  or manual_age[key] < age):
            manual_age[key] = age  # a manual edit takes over a kept object
        edited.add(key)
        if age is None:
            store.apply_update(EditRequest(subject, relation, obj))
        else:
            store.inject_manual(EditRequest(
                subject, relation, obj,
                issued_at=SNAPSHOT + timedelta(hours=age)))
    now = dict(source)
    for (subject, relation), obj in changes:
        if obj is None:
            slow.remove(subject, relation)
            now.pop((subject, relation), None)
        else:
            slow.put(triple(subject, relation, obj, source=Source.WIKIDATA,
                            fetched_at=SNAPSHOT))
            now[(subject, relation)] = obj

    store.sync()

    expected, released = {}, set()
    for subject, facts in resident.items():
        held = {r: o for (s, r), o in now.items() if s == subject}
        kept = {r for r in facts if (subject, r) in edited and (
            r not in held or manual_age.get((subject, r)) == 1
            and facts[r] != held[r])}
        view = {**held, **{r: facts[r] for r in kept}}
        if view:  # a subject left with no fact is dropped
            expected[subject] = view
            if not kept:
                released.add(subject)
    snapshot = store.fast_snapshot()
    assert {s: {t.relation: t.obj for t in snapshot if t.subject == s}
            for s in {t.subject for t in snapshot}} == expected
    assert len(store) == sum(map(len, expected.values()))
    assert set(store._lru) == released  # with no capacity, none is evicted


class TestSync:
    def test_unchanged_slow_is_a_fixed_point(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        assert store.sync() == 0

    def test_changed_object_is_replaced(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        updated = triple("US", "head_of_gov", "Harris",
                         source=Source.WIKIDATA, fetched_at=SNAPSHOT)
        slow.put(updated)
        slow.snapshot_at = SNAPSHOT + timedelta(days=1)
        # fixture-diff oracle: expected change count from dict comparison
        fast_before = {t.key[:2]: t.obj for t in store.fast_snapshot()}
        slow_now = {("US", "head_of_gov"): "Harris"}
        expected = sum(1 for k, v in slow_now.items()
                       if fast_before.get(k) != v)
        assert store.sync() == expected == 1
        assert store.get("US", "head_of_gov").obj == "Harris"

    def test_new_relation_in_slow_is_inserted(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        slow.put(triple("US", "capital", "Washington",
                        source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        assert store.sync() == 1
        assert store.get("US", "capital") is not None

    def test_manual_edit_newer_than_snapshot_survives(self):
        store, slow = make_store([US_BIDEN], snapshot_at=SNAPSHOT,
                                 prefetch_depth=0)
        store.retrieve("US")
        after_snapshot = SNAPSHOT + timedelta(hours=2)
        store.inject_manual(EditRequest("US", "head_of_gov", "Harris",
                                        issued_at=after_snapshot))
        assert store.sync() == 0
        assert store.get("US", "head_of_gov").obj == "Harris"

    def test_a_newer_manual_edit_that_confirms_the_value_survives(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        after_snapshot = SNAPSHOT + timedelta(hours=2)
        assert store.inject_manual(EditRequest(
            "US", "head_of_gov", "Biden", issued_at=after_snapshot)) \
            is UpdateOutcome.REPLACED
        (served,) = store.retrieve("US")
        assert (served.source, served.fetched_at, served.version) == (
            Source.MANUAL, after_snapshot, 1)
        slow.put(triple("US", "head_of_gov", "Harris",
                        source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        assert store.sync() == 0
        assert store.get("US", "head_of_gov").obj == "Biden"

    def test_an_older_manual_edit_keeps_the_newer_ones_provenance(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        newer, older = (SNAPSHOT + timedelta(hours=h) for h in (2, 1))
        store.inject_manual(EditRequest("US", "head_of_gov", "Harris",
                                        issued_at=newer))
        store.inject_manual(EditRequest("US", "head_of_gov", "Harris",
                                        issued_at=older))
        assert store.get("US", "head_of_gov").fetched_at == newer

    def test_a_manual_edit_issued_at_the_snapshot_time_loses(self):
        # sync keeps a manual edit issued after the snapshot, not at it
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.inject_manual(EditRequest("US", "head_of_gov", "Obama",
                                        issued_at=SNAPSHOT))
        assert store.sync() == 1
        assert store.get("US", "head_of_gov").obj == "Biden"

    def test_manual_edit_older_than_snapshot_loses(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        before_snapshot = SNAPSHOT - timedelta(days=30)
        store.inject_manual(EditRequest("US", "head_of_gov", "Obama",
                                        issued_at=before_snapshot))
        assert store.sync() == 1
        assert store.get("US", "head_of_gov").obj == "Biden"

    @pytest.mark.parametrize("snapshot_at", [None, SNAPSHOT],
                             ids=["no-snapshot", "older-snapshot"])
    def test_an_absorbed_manual_edit_follows_the_source(self, snapshot_at):
        store, slow = make_store([US_BIDEN], snapshot_at=snapshot_at,
                                 prefetch_depth=0)
        store.retrieve("US")
        store.inject_manual(EditRequest("US", "head_of_gov", "Harris"))
        slow.put(triple("US", "head_of_gov", "Harris",
                        source=Source.WIKIDATA))
        assert store.sync() == 0  # absorbed: the mark is cleared
        slow.put(triple("US", "head_of_gov", "Vance",
                        source=Source.WIKIDATA))
        assert store.sync() == 1
        assert store.get("US", "head_of_gov").obj == "Vance"

    def test_a_subject_loaded_pinned_is_synced(self, tmp_path):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.apply_update(EditRequest("US", "spouse", "Jill"))  # pins US
        save_state(store, tmp_path / "state.json")
        slow.put(triple("US", "head_of_gov", "Harris",
                        source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        loaded = load_state(TieredFactStore(slow, prefetch_depth=0),
                            tmp_path / "state.json")
        assert loaded.sync() == 1
        assert loaded.get("US", "head_of_gov").obj == "Harris"
        assert loaded.get("US", "spouse").obj == "Jill"

    def test_edits_the_source_holds_are_released_to_capacity(self,
                                                             tmp_path):
        store, slow = make_store(capacity=100, prefetch_depth=0)
        for i in range(1000):
            store.apply_update(EditRequest(f"s{i}", "r", f"o{i}"))
            slow.put(store.get(f"s{i}", "r"))
        assert len(store) == 1000 and store.stats.evictions == 0
        assert store.sync() == 0
        assert len(store) <= store.capacity
        assert store.stats.evictions == 900
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert len(state["entries"]) == 100
        assert not any(row["edited"] for row in state["entries"])

    def test_a_newer_manual_edit_that_differs_stays_pinned(self, tmp_path):
        store, _ = make_store([US_BIDEN], capacity=1, prefetch_depth=0)
        store.retrieve("US")
        store.inject_manual(EditRequest(
            "US", "head_of_gov", "Harris",
            issued_at=SNAPSHOT + timedelta(hours=2)))
        store.sync()
        assert store.get("US", "head_of_gov").obj == "Harris"
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert [row["edited"] for row in state["entries"]] == [True]

    def test_an_edit_on_a_relation_the_source_lacks_stays_pinned(
            self, tmp_path):
        store, _ = make_store([US_BIDEN], capacity=1, prefetch_depth=0)
        store.apply_update(EditRequest("US", "spouse", "Jill"))
        store.sync()
        assert len(store) == 2  # US's facts, pinned past capacity
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert {row["relation_id"]: row["edited"]
                for row in state["entries"]} == {"head_of_gov": False,
                                                 "spouse": True}

    def test_a_fact_the_source_dropped_is_dropped_and_releases(
            self, tmp_path):
        capital = triple("US", "capital", "DC", source=Source.WIKIDATA,
                         fetched_at=SNAPSHOT)
        store, slow = make_store([US_BIDEN, capital], prefetch_depth=0)
        store.retrieve("US")
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        slow.put(triple("US", "head_of_gov", "Harris",
                        source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        slow.remove("US", "capital")
        assert store.sync() == 1  # the drop
        assert store.retrieve("US") == TripleSet(
            [triple("US", "head_of_gov", "Harris")])
        assert len(store) == 1
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert [row["edited"] for row in state["entries"]] == [False]

    def test_a_subject_the_source_dropped_is_dropped(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        slow.remove("US", "head_of_gov")
        assert store.sync() == 1
        assert len(store) == 0 and store.fast_snapshot() == TripleSet()
        assert store.retrieve("US") == TripleSet()
        assert store.stats.misses == 2

    def test_a_state_file_that_flags_every_row_of_a_pinned_subject(
            self, tmp_path):
        store, slow = make_store([US_BIDEN], capacity=1, prefetch_depth=0)
        store.retrieve("US")
        store.apply_update(EditRequest("US", "spouse", "Jill"))
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        for row in state["entries"]:
            row["edited"] = True  # as files written before per-fact marks
        (tmp_path / "state.json").write_text(json.dumps(state))
        loaded = load_state(TieredFactStore(slow, capacity=1,
                                            prefetch_depth=0),
                            tmp_path / "state.json")
        assert loaded.sync() == 0
        assert len(loaded) == 2
        save_state(loaded, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert {row["relation_id"]: row["edited"]
                for row in state["entries"]} == {"head_of_gov": False,
                                                 "spouse": True}

    def test_unreachable_slow_applies_nothing(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        slow.put(triple("US", "head_of_gov", "Harris"))
        slow.unreachable = True
        with pytest.raises(SlowUnreachable):
            store.sync()
        assert store.get("US", "head_of_gov").obj == "Biden"


# one relation with three objects, listed greatest first
CHILDREN = [triple("A", "child", child, source=Source.WIKIDATA,
                   fetched_at=SNAPSHOT) for child in "DCB"]


def dump_source(directory, rows):
    path = directory / "dump.jsonl"
    write_dump(path, rows, snapshot_at=SNAPSHOT)
    return LocalDumpSource(path)


def store_state(store):
    """What a store holds, fact by fact, with each fact's version."""
    return sorted((t.key, t.version) for t in store.fast_snapshot())


class TestOneObjectPerRelation:
    """A source may give one relation several objects (a hand-made dump, a
    multi-valued Wikidata property); the store keeps the least object id."""

    def test_a_second_sync_over_an_unchanged_source_changes_nothing(
            self, tmp_path):
        store = TieredFactStore(slow=dump_source(tmp_path, CHILDREN),
                                prefetch_depth=0)
        store.retrieve("A")
        assert [store.sync(), store.sync()] == [0, 0]
        assert store.get("A", "child").version == 1
        assert store.stats.replacements == 0

    def test_retrieve_and_sync_serve_the_same_object(self, tmp_path):
        slow = dump_source(tmp_path, CHILDREN)
        store = TieredFactStore(slow=slow, prefetch_depth=0)
        assert store.retrieve("A").objects == {"B"}
        # a subject made resident by an edit is filled in by the sync
        synced = TieredFactStore(slow=slow, prefetch_depth=0)
        synced.apply_update(EditRequest("A", "spouse", "E"))
        synced.sync()
        assert synced.get("A", "child").obj == "B"

    def test_a_resident_edit_still_wins_on_read_through(self, tmp_path):
        store = TieredFactStore(slow=dump_source(tmp_path, CHILDREN),
                                prefetch_depth=0)
        store.apply_update(EditRequest("A", "child", "Z"))
        assert store.retrieve("A").objects == {"Z"}

    def test_bulk_load_takes_a_subject_from_wherever_it_stands(self):
        store, _ = make_store(prefetch_depth=0)
        other = triple("X", "child", "Y")
        assert store.bulk_load([CHILDREN[0], other, *CHILDREN[1:]]) == 2
        assert store.get("A", "child").obj == "B"


@given(rows=st.lists(st.tuples(st.sampled_from("AB"),
                               st.sampled_from(["child", "spouse"]),
                               st.sampled_from("CDEF")),
                     min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_shuffled_dump_rows_give_the_same_store(tmp_path_factory, rows,
                                                order):
    facts = [triple(s, r, o, source=Source.WIKIDATA, fetched_at=SNAPSHOT)
             for s, r, o in rows]
    shuffled = facts[:]
    order.shuffle(shuffled)
    expected = sorted(
        ((s, r, min(o for s2, r2, o in rows if (s2, r2) == (s, r))), 1)
        for s, r in {(s, r) for s, r, _ in rows})
    for rows_in_order in (facts, shuffled):
        directory = tmp_path_factory.mktemp("dump")
        read = TieredFactStore(slow=dump_source(directory, rows_in_order),
                               prefetch_depth=0)
        for subject in "AB":
            read.retrieve(subject)
        assert read.sync() == 0
        loaded, _ = make_store(prefetch_depth=0)
        loaded.bulk_load(read_dump(directory / "dump.jsonl")[1])
        assert store_state(read) == store_state(loaded) == expected


@pytest.mark.parametrize("build, message", [
    (lambda: TieredFactStore(capacity=0), "capacity must be >= 1 when set"),
    (lambda: RemoteSparqlSource(""), "endpoint must be non-empty")],
    ids=["zero-capacity", "no-endpoint"])
def test_a_tier_without_room_or_an_endpoint_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestCapacity:
    def test_capacity_is_enforced_for_readonly_triples(self):
        store, _ = make_store(capacity=2, prefetch_depth=0)
        store.bulk_load([triple(f"s{i}", "r", f"o{i}") for i in range(3)])
        assert len(store) == 2
        assert store.stats.evictions == 1

    def test_lru_order_evicts_stalest(self):
        store, _ = make_store(capacity=2, prefetch_depth=0)
        store.bulk_load([triple("a", "r", "x"), triple("b", "r", "y")])
        store.retrieve("a")  # refresh a; b is now the LRU victim
        store.bulk_load([triple("c", "r", "z")])
        assert store.get("a", "r") is not None
        assert store.get("b", "r") is None

    def test_edits_outlive_prefetched_bystanders(self):
        store, _ = make_store(capacity=2, prefetch_depth=0)
        store.bulk_load([triple("bystander", "r", "x")])
        store.apply_update(EditRequest("edited", "r", "v"))
        store.bulk_load([triple("another", "r", "y")])
        assert store.get("edited", "r") is not None
        assert store.get("bystander", "r") is None

    def test_edits_alone_may_exceed_capacity(self):
        store, _ = make_store(capacity=1, prefetch_depth=0)
        store.apply_update(EditRequest("a", "r", "x"))
        store.apply_update(EditRequest("b", "r", "y"))
        assert len(store) == 2  # edits are never dropped

    def test_partly_pushed_out_subject_is_never_a_partial_hit(self):
        a_facts = [triple("A", "r1", "x"), triple("A", "r2", "y")]
        store, _ = make_store(a_facts + [triple("B", "r1", "z")],
                              capacity=2, prefetch_depth=0)
        store.retrieve("A")
        store.retrieve("B")  # three facts: A must leave whole
        assert store.retrieve("A") == TripleSet(a_facts)
        assert store.stats.hits == 0
        assert store.stats.misses == store.stats.slow_fetches == 3

    def test_eviction_removes_whole_subjects_in_lru_order(self):
        store, _ = make_store(capacity=4, prefetch_depth=0)
        store.bulk_load([triple(s, r, "o") for s in "abc"
                         for r in ("r1", "r2")])
        assert len(store) == 4
        assert store.get("a", "r1") is None and store.get("a", "r2") is None
        store.retrieve("b")  # refresh b; c is now least recently used
        store.bulk_load([triple("d", "r1", "o")])
        assert store.get("c", "r1") is None and store.get("c", "r2") is None
        assert store.retrieve("b") == TripleSet(
            [triple("b", "r1", "o"), triple("b", "r2", "o")])
        assert len(store) == 3
        assert store.stats.evictions == 2

    def test_pinned_subject_survives_any_number_of_evictions(self):
        store, _ = make_store(capacity=1, prefetch_depth=0)
        store.bulk_load([triple("p", "r1", "x")])
        store.apply_update(EditRequest("p", "r2", "v"))  # pins all of p
        for i in range(50):
            store.bulk_load([triple(f"s{i}", "r", "o")])
        assert store.stats.evictions == 50
        assert store.retrieve("p") == TripleSet(
            [triple("p", "r1", "x"), triple("p", "r2", "v")])
        assert store.stats.hits == 1


def served_fresh(store, subject):
    """retrieve(subject), after checking it triple by triple (versions
    and labels too) against a set built now from the facts the store
    holds."""
    view = store.retrieve(subject)
    fresh = TripleSet(t for t in store.fast_snapshot() if t.subject == subject)
    assert view.triples == fresh.triples
    return view


class TestCachedView:
    """A hit serves the subject's cached TripleSet; every write that
    changes the subject's facts must drop it."""

    CAPITAL = triple("US", "capital", "Washington", source=Source.WIKIDATA,
                     fetched_at=SNAPSHOT)

    def test_hits_without_a_write_share_one_set(self):
        store, _ = make_store([US_BIDEN, self.CAPITAL], prefetch_depth=0)
        first = store.retrieve("US")  # the miss builds the view
        assert store.retrieve("US") is first
        assert store.retrieve("US") is first
        assert store.stats.hits == 2

    def test_an_inserting_edit_drops_the_view(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        before = store.retrieve("US")
        assert store.apply_update(EditRequest("US", "capital", "Washington")) \
            is UpdateOutcome.INSERTED
        after = served_fresh(store, "US")
        assert after is not before
        assert after == TripleSet([US_BIDEN, self.CAPITAL])

    def test_a_replacing_edit_drops_the_view(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        after = served_fresh(store, "US")
        assert [(t.obj, t.version) for t in after] == [("Harris", 2)]

    def test_reapplying_the_current_object_keeps_the_view(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        before = store.retrieve("US")
        assert store.apply_update(EditRequest("US", "head_of_gov", "Biden")) \
            is UpdateOutcome.REPLACED
        assert served_fresh(store, "US") is before

    def test_reading_through_an_incomplete_subject(self):
        store, _ = make_store([US_BIDEN, self.CAPITAL], prefetch_depth=0)
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        first = served_fresh(store, "US")  # the read-through
        assert first == TripleSet([triple("US", "head_of_gov", "Harris"),
                                   self.CAPITAL])
        assert served_fresh(store, "US") is first

    def test_a_bulk_load_that_adds_a_fact_drops_the_view(self):
        store, _ = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        assert store.bulk_load([US_BIDEN, self.CAPITAL]) == 1
        assert served_fresh(store, "US") == TripleSet([US_BIDEN, self.CAPITAL])

    def test_a_sync_that_replaces_a_fact_drops_the_view(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        slow.put(triple("US", "head_of_gov", "Harris"))
        assert store.sync() == 1
        assert served_fresh(store, "US") == TripleSet(
            [triple("US", "head_of_gov", "Harris")])

    def test_an_evicted_subject_is_read_again(self):
        store, slow = make_store([US_BIDEN, BIDEN_JILL], capacity=1,
                                 prefetch_depth=0)
        store.retrieve("US")
        store.retrieve("Biden")  # pushes US out
        slow.put(triple("US", "head_of_gov", "Harris"))
        assert served_fresh(store, "US") == TripleSet(
            [triple("US", "head_of_gov", "Harris")])
        assert store.stats.misses == 3

    def test_reset_drops_the_view(self):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.reset()
        slow.put(triple("US", "head_of_gov", "Harris"))
        assert served_fresh(store, "US") == TripleSet(
            [triple("US", "head_of_gov", "Harris")])
        assert store.stats.misses == 1


class TestConcurrency:
    def test_concurrent_misses_converge_to_one_copy(self):
        barrier = threading.Barrier(2)

        class BlockingSource(InMemorySlowSource):
            def fetch_subject(self, entity):
                barrier.wait(timeout=5)
                return super().fetch_subject(entity)

        slow = BlockingSource([US_BIDEN], snapshot_at=SNAPSHOT)
        store = TieredFactStore(slow=slow, prefetch_depth=0)
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(store.retrieve("US")))
            for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(store) == 1
        assert all(r == TripleSet([US_BIDEN]) for r in results)
        assert store.stats.misses == 2  # both fetches may be counted
        assert store.stats.slow_fetches == 2

    @pytest.mark.parametrize("edited, slow_now", [
        ("Harris", "Biden"),  # the edit changes the object
        ("Biden", "Harris"),  # it re-applies it; the slow source moved on
    ], ids=["changing-edit", "reapplied-edit"])
    def test_an_edit_during_a_sync_fetch_neither_waits_nor_is_lost(
            self, edited, slow_now):
        in_fetch, release = threading.Event(), threading.Event()

        class BlockingSource(InMemorySlowSource):
            def fetch_subject(self, entity):
                in_fetch.set()
                release.wait(timeout=5)  # hold sync inside its fetch
                return super().fetch_subject(entity)

        slow = BlockingSource([US_BIDEN], snapshot_at=SNAPSHOT)
        store = TieredFactStore(slow=slow, prefetch_depth=0)
        store.bulk_load([US_BIDEN])
        slow.put(triple("US", "head_of_gov", slow_now,
                        source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        synced = []
        sync_thread = threading.Thread(
            target=lambda: synced.append(store.sync()))
        sync_thread.start()
        try:
            assert in_fetch.wait(timeout=5)
            edit_thread = threading.Thread(
                target=store.apply_update,
                args=(EditRequest("US", "head_of_gov", edited),))
            edit_thread.start()
            edit_thread.join(timeout=2)
            assert not edit_thread.is_alive()  # done before the fetch ends
        finally:
            release.set()
            sync_thread.join(timeout=5)
        assert synced == [0]
        assert store.get("US", "head_of_gov").obj == edited

    def test_concurrent_writers_serialize(self):
        store, _ = make_store()
        threads = [threading.Thread(
            target=store.apply_update,
            args=(EditRequest(f"s{i}", "r", f"o{i}"),)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(store) == 16
        assert store.stats.updates_applied == 16


def random_world(rng):
    """Sixteen subjects of one to three facts; each r0 names a subject."""
    subjects = [f"s{i}" for i in range(16)]
    facts = []
    for subject in subjects:
        for j in range(rng.randint(1, 3)):
            entity = j == 0
            obj = rng.choice(subjects) if entity else f"{subject}-v{j}"
            facts.append(triple(subject, f"r{j}", obj, object_is_entity=entity,
                                source=Source.WIKIDATA, fetched_at=SNAPSHOT))
    return subjects, facts


class NappingSource(InMemorySlowSource):
    """A slow source with a round trip: each fetch sleeps 50 us, which lets
    the other threads run while a read-through is out."""

    def fetch_subject(self, entity):
        time.sleep(5e-5)
        return super().fetch_subject(entity)


@pytest.mark.parametrize("seed", range(4))
def test_three_threads_mixing_reads_and_edits(seed):
    """Reads (each miss prefetching one hop), edits and syncs race. Each
    edit survives as some thread's last write, unless a sync that ended
    after that write began gave it way to the source's fact."""
    subjects, facts = random_world(random.Random(seed))
    store = TieredFactStore(slow=NappingSource(facts, snapshot_at=SNAPSHOT),
                            capacity=6)
    source = {(t.subject, t.relation): t.obj for t in facts}
    start = threading.Barrier(3)
    retrieves = [0, 0, 0]
    clock = itertools.count()  # orders write starts and sync ends
    sync_ends: list[int] = []
    finished = []
    writes: list[list[tuple[tuple[str, str], str, int]]] = [[], [], []]

    def worker(tid):
        ops = random.Random(seed * 10 + tid)
        start.wait(timeout=5)
        for n in range(400):
            subject = ops.choice(subjects)
            relation = f"r{ops.randrange(4)}"  # r3 is never in the source
            roll = ops.random()
            if roll < 0.6:
                store.retrieve(subject)
                retrieves[tid] += 1
            elif roll < 0.65:
                value = f"t{tid}-{n}"
                writes[tid].append(((subject, relation), value, next(clock)))
                store.apply_update(EditRequest(subject, relation, value,
                                               object_is_entity=False))
            elif roll < 0.67 and n < 200:  # the last 200 edits race no sync
                store.sync()
                sync_ends.append(next(clock))
            else:
                store.get(subject, relation)
        finished.append(tid)  # not reached if a call raised

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert sorted(finished) == [0, 1, 2]
    assert sync_ends

    assert store.stats.hits + store.stats.misses == sum(retrieves)
    # each thread's last value per key, with the clock when its write began
    last_writes: dict[tuple[str, str], dict[str, int]] = {}
    for thread_writes in writes:
        last = {key: (value, began) for key, value, began in thread_writes}
        for key, (value, began) in last.items():
            last_writes.setdefault(key, {})[value] = began
    for key, values in last_writes.items():
        held = store.get(*key)
        if key in source and (held is None or held.obj == source[key]) \
                and max(sync_ends) > min(values.values()):
            continue  # a later sync gave the edit way; it may be evicted
        assert held is not None and held.obj in values
    snapshot = store.fast_snapshot()
    for t in snapshot:
        if (t.subject, t.relation) not in last_writes:
            assert t.obj == source[t.subject, t.relation]
    edited = {subject for subject, _ in last_writes}
    pinned = sum(1 for t in snapshot if t.subject in edited)
    assert len(store) == len(snapshot) <= 6 + pinned


@pytest.mark.parametrize("seed", range(4))
def test_two_threads_answering_one_cold_question_select_alike(seed):
    subjects, facts = random_world(random.Random(seed))
    question = "What is the r1 of s0?"

    def pipeline(slow):
        aliases = AliasIndex()
        for subject in subjects:
            aliases.add(subject, subject)
        return Pipeline(store=TieredFactStore(slow=slow, capacity=6),
                        aliases=aliases, model=MockTableModel(), k=2)

    _, alone = pipeline(InMemorySlowSource(facts)).answer_traced(question)
    both_in_fetch = threading.Barrier(2)

    class BlockingSource(InMemorySlowSource):
        def fetch_subject(self, entity):
            if entity == "s0":  # both threads miss before either absorbs
                both_in_fetch.wait(timeout=5)
            return super().fetch_subject(entity)

    shared = pipeline(BlockingSource(facts))
    traces = []
    threads = [threading.Thread(
        target=lambda: traces.append(shared.answer_traced(question)[1]))
        for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert shared.store.stats.misses == 2  # one read-through each
    assert alone.evidence
    assert [trace.evidence.selected for trace in traces] == \
        [alone.evidence.selected] * 2


# --- stale fetches and per-subject linearizability --------------------------

class GatedSource(InMemorySlowSource):
    """A slow source whose every fetch reads the source and then waits at a
    gate until the test opens it, so the test decides when each fetch
    returns. `parked` hands over each waiting fetch's gate in turn; the
    history checker also puts None there when one of its calls ends."""

    def __init__(self, triples=()):
        super().__init__(triples, snapshot_at=SNAPSHOT)
        self.parked: queue.Queue = queue.Queue()

    def fetch_subject(self, entity):
        facts = super().fetch_subject(entity)
        gate = threading.Event()
        self.parked.put(gate)
        if not gate.wait(timeout=10):
            raise SlowUnreachable("the test never opened this fetch's gate")
        return facts

    def park(self, call, *args):
        """Start call(*args) on its own thread and wait until its fetch
        waits at its gate; returns the thread and the gate."""
        thread = OnThread(call, *args)
        return thread, self.parked.get(timeout=5)

    def run(self, call, *args):
        """call(*args) on its own thread, opening each gate its fetches
        wait at; returns its result."""
        thread = OnThread(call, *args)
        while thread.is_alive():
            try:
                self.parked.get(timeout=0.01).set()
            except queue.Empty:
                pass
        return thread.join()


class OnThread(threading.Thread):
    """call(*args), started at once on its own thread; join() returns what
    it returned."""

    def __init__(self, call, *args):
        super().__init__(daemon=True)
        self.call, self.args, self.result = call, args, None
        self.start()

    def run(self):
        self.result = self.call(*self.args)

    def join(self, timeout=5):
        super().join(timeout)
        assert not self.is_alive()
        return self.result


def literals(subject, **objects):
    return [triple(subject, relation, obj, object_is_entity=False)
            for relation, obj in objects.items()]


def pairs(triples):
    return {(t.relation, t.obj) for t in triples}


def assert_counts(store, retrieves):
    assert store.stats.hits + store.stats.misses == retrieves
    assert store.stats.misses == store.stats.slow_fetches


class TestStaleFetches:
    """A fetch that comes back after its subject was written (read through,
    synced or edited) is dropped, and its caller is served what is
    resident. Each history parks fetches at a gate to force its order."""

    def test_a_read_older_than_a_later_read_and_sync_is_dropped(self):
        slow = GatedSource(literals("X", r1="a", r2="b"))
        store = TieredFactStore(slow, prefetch_depth=0)
        first, gate = slow.park(store.retrieve, "X")  # reads {r1, r2}
        slow.remove("X", "r2")
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "a")}
        assert slow.run(store.sync) == 0
        gate.set()
        assert pairs(first.join()) == {("r1", "a")}
        assert pairs(store.retrieve("X")) == {("r1", "a")}
        assert slow.run(store.sync) == 0
        assert_counts(store, 3)
        assert store.stats.hits == 1

    def test_a_sync_older_than_a_read_is_dropped(self):
        slow = GatedSource(literals("Y", r1="a", r2="b"))
        store = TieredFactStore(slow, prefetch_depth=0)
        store.apply_update(EditRequest("Y", "r3", "c", object_is_entity=False))
        sync, gate = slow.park(store.sync)  # reads {r1, r2}
        slow.remove("Y", "r2")
        served = {("r1", "a"), ("r3", "c")}
        assert pairs(slow.run(store.retrieve, "Y")) == served
        gate.set()
        assert sync.join() == 0
        assert pairs(store.retrieve("Y")) == served
        assert_counts(store, 2)

    def test_two_reads_of_different_sources_do_not_merge(self):
        slow = GatedSource(literals("X", r1="a", r2="b"))
        store = TieredFactStore(slow, prefetch_depth=0)
        first, first_gate = slow.park(store.retrieve, "X")  # {r1, r2}
        slow.remove("X", "r2")
        slow.put(literals("X", r3="c")[0])
        second, second_gate = slow.park(store.retrieve, "X")  # {r1, r3}
        first_gate.set()
        assert pairs(first.join()) == {("r1", "a"), ("r2", "b")}
        second_gate.set()
        # the first copy stored is the one copy served, never a mix
        assert pairs(second.join()) == {("r1", "a"), ("r2", "b")}
        assert pairs(store.retrieve("X")) == {("r1", "a"), ("r2", "b")}
        assert slow.run(store.sync) == 2  # r2 dropped, r3 inserted
        assert pairs(store.retrieve("X")) == {("r1", "a"), ("r3", "c")}
        assert_counts(store, 4)

    def test_a_prefetch_older_than_a_read_is_dropped(self):
        slow = GatedSource([triple("S", "r0", "Y"),
                            *literals("Y", r1="a", r2="b")])
        store = TieredFactStore(slow, prefetch_depth=1)
        miss, gate = slow.park(store.retrieve, "S")
        gate.set()
        prefetch = slow.parked.get(timeout=5)  # reads Y's {r1, r2}
        slow.remove("Y", "r2")
        assert pairs(slow.run(store.retrieve, "Y")) == {("r1", "a")}
        prefetch.set()
        assert pairs(miss.join()) == {("r0", "Y")}
        assert pairs(store.retrieve("Y")) == {("r1", "a")}
        assert store.stats.prefetch_fetches == 1  # a dropped fetch counts
        assert_counts(store, 3)

    def test_an_edit_during_a_first_read_leaves_the_subject_unread(self):
        # the read answers as of its fetch, and the edit, made after the
        # source dropped r2, reports what it found: no fact under r1
        slow = GatedSource(literals("X", r1="a", r2="b"))
        store = TieredFactStore(slow, prefetch_depth=0)
        first, gate = slow.park(store.retrieve, "X")  # reads {r1, r2}
        slow.remove("X", "r2")
        assert store.apply_update(EditRequest(
            "X", "r1", "e", object_is_entity=False)) is UpdateOutcome.INSERTED
        gate.set()
        assert pairs(first.join()) == {("r1", "a"), ("r2", "b")}
        assert store.get("X", "r2") is None  # the stale fetch was dropped
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "e")}
        assert_counts(store, 2)

    def test_a_read_older_than_an_eviction_is_not_stored(self):
        # the first read answers with the copy the second stored, as it
        # would have had X stayed resident
        slow = GatedSource(literals("X", r1="a") + literals("Y", r1="y"))
        store = TieredFactStore(slow, capacity=1, prefetch_depth=0)
        first, gate = slow.park(store.retrieve, "X")  # reads {r1: a}
        slow.put(literals("X", r1="b")[0])
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "b")}
        slow.run(store.retrieve, "Y")  # evicts X
        gate.set()
        assert pairs(first.join()) == {("r1", "b")}
        assert store.get("X", "r1") is None
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "b")}
        assert_counts(store, 4)

    def test_a_read_older_than_an_eviction_and_a_new_miss_is_dropped(self):
        slow = GatedSource(literals("X", r1="a") + literals("Y", r1="y"))
        store = TieredFactStore(slow, capacity=1, prefetch_depth=0)
        first, first_gate = slow.park(store.retrieve, "X")  # reads {r1: a}
        slow.put(literals("X", r1="b")[0])
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "b")}
        slow.run(store.retrieve, "Y")  # evicts X
        third, third_gate = slow.park(store.retrieve, "X")  # reads {r1: b}
        first_gate.set()
        assert pairs(first.join()) == {("r1", "b")}
        third_gate.set()
        assert pairs(third.join()) == {("r1", "b")}
        assert store.get("X", "r1").obj == "b"
        assert pairs(store.retrieve("X")) == {("r1", "b")}
        assert_counts(store, 5)

    def test_a_read_an_older_one_overtook_answers_as_its_copy_was(self):
        # the second read defers to the first one's copy, which a hit served
        # after the source moved on; that copy is evicted before the second
        # read lands, and the second still answers with it, not its own
        slow = GatedSource(literals("X", r1="a") + literals("Y", r1="y"))
        store = TieredFactStore(slow, capacity=1, prefetch_depth=0)
        first, first_gate = slow.park(store.retrieve, "X")  # reads {r1: a}
        slow.put(literals("X", r1="b")[0])
        second, second_gate = slow.park(store.retrieve, "X")  # {r1: b}
        first_gate.set()
        assert pairs(first.join()) == {("r1", "a")}
        slow.put(literals("X", r1="c")[0])
        assert pairs(store.retrieve("X")) == {("r1", "a")}  # a hit
        slow.run(store.retrieve, "Y")  # evicts X
        second_gate.set()
        assert pairs(second.join()) == {("r1", "a")}
        assert pairs(slow.run(store.retrieve, "X")) == {("r1", "c")}
        assert_counts(store, 5)

    def test_a_read_older_than_an_absent_read_is_not_stored(self):
        slow = GatedSource(literals("X", r1="a"))
        store = TieredFactStore(slow, prefetch_depth=0)
        first, gate = slow.park(store.retrieve, "X")  # reads {r1: a}
        slow.remove("X", "r1")
        assert pairs(slow.run(store.retrieve, "X")) == set()
        gate.set()
        assert pairs(first.join()) == {("r1", "a")}
        assert len(store) == 0 and store.get("X", "r1") is None
        assert pairs(slow.run(store.retrieve, "X")) == set()
        assert_counts(store, 3)


@dataclass
class Call:
    """One call in a recorded history: when it started and ended on one
    clock, and what it returned (None: not checked)."""

    kind: str
    subject: Optional[str]  # None for a sync, which touches every subject
    args: tuple
    start: int = -1
    end: int = -1
    result: object = None
    may_pass: bool = False  # it may leave the subject as it found it


def model_step(state, call):
    """The store, one subject at a time, with no capacity and synthetic
    edits only: each (result, state after) that `call` may give from
    `state` = (source, held, complete, marked, read). source and held are
    frozensets of (relation, object) pairs; held is None while the subject
    is not resident and holds only edits while it is incomplete. A sync
    takes two steps, as the store fetches every subject before it applies
    any: a "read" of the source, kept in `read` by the sync's number, and
    the "sync" that applies it later, or passes over the subject."""
    source, held, complete, marked, read = state
    if call.kind in ("put", "remove"):
        facts = {r: o for r, o in source if r != call.args[0]}
        facts.update([call.args] if call.kind == "put" else [])
        return [(None, (frozenset(facts.items()), *state[1:]))]
    if call.kind == "retrieve":
        if held is not None and complete:
            return [(held, state)]
        view = frozenset({**dict(source), **dict(held or ())}.items())
        filled = (source, view or None, True, marked, read)
        return [(view, filled)] + [(view, state)] * call.may_pass
    if call.kind == "edit":
        relation, obj = call.args
        facts = {**dict(held or ()), relation: obj}
        outcome = "replaced" if held and relation in dict(held) else "inserted"
        return [(outcome, (source, frozenset(facts.items()),
                           held is not None and complete, marked | {relation},
                           read))]
    number = call.args[0]
    if call.kind == "read":
        return [(None, (*state[:4], read | {(number, source)}))]
    fetched = dict(read).get(number)
    if fetched is None:
        return []  # a sync applies only what it read
    read = read - {(number, fetched)}
    if held is None:  # a subject not resident is not synced
        return [(None, (*state[:4], read))]
    now, facts = dict(fetched), dict(held)
    kept = frozenset(r for r in marked if r not in now)
    view = frozenset({**now, **{r: facts[r] for r in kept}}.items())
    synced = [(None, (source, view or None, True, kept, read))]
    return synced + [(None, (*state[:4], read))] * call.may_pass


def linearizable(history, initial, step=model_step) -> bool:
    """Wing and Gong's search, with Lowe's memo of the states reached: can
    the calls of `history` be put in one order, each between its start and
    its end, in which `step` gives each call its recorded result?"""
    seen = set()

    def search(left, state):
        if not left:
            return True
        if (left, state) in seen:
            return False
        seen.add((left, state))
        first_end = min(history[i].end for i in left)
        for i in left:
            call = history[i]
            if call.start > first_end:
                continue  # a call left ended before this one started
            for result, after in step(state, call):
                if (call.result is None or result == call.result) \
                        and search(left - {i}, after):
                    return True
        return False

    return search(frozenset(range(len(history))), initial)


def record_history(seed, steps=40, changed=("r1", "r2"), capacity=None):
    """Seeded threads call retrieve, apply_update and sync on two or three
    subjects, and the source puts and removes facts, through a gated
    source: one call runs at a time, and each step either starts a call or
    opens one parked fetch, so the seed alone sets the interleaving.
    The source puts and removes only `changed` relations, so by default
    every subject keeps r0 there; a final retrieve of each subject closes
    the history. The store holds up to `capacity` facts. Returns the
    store, the source's first facts and the calls."""
    rng = random.Random(seed)
    subjects = ["X", "Y", "Z"][:rng.choice((2, 2, 3))]
    first = {(s, r): f"{s}-{r}" for s in subjects
             for r in ["r0"] + ["r1"] * rng.randrange(2)}
    slow = GatedSource(triple(s, r, o, object_is_entity=False)
                       for (s, r), o in first.items())
    store = TieredFactStore(slow, capacity=capacity, prefetch_depth=0)
    clock = itertools.count()
    calls: list[Call] = []
    gates: list[threading.Event] = []
    running = [0]
    failed = []

    def settle():  # wait until the one running call parks or ends
        event = slow.parked.get(timeout=5)
        if event is None:
            running[0] -= 1
        else:
            gates.append(event)

    def begin(call, act):
        def body():
            call.start = next(clock)
            try:
                call.result = act()
            except BaseException as exc:
                failed.append(exc)
            call.end = next(clock)
            slow.parked.put(None)

        calls.append(call)
        running[0] += 1
        threading.Thread(target=body, daemon=True).start()
        settle()

    def read(subject):
        begin(Call("retrieve", subject, ()),
              lambda: frozenset(pairs(store.retrieve(subject))))

    def edit(subject, relation, obj):
        begin(Call("edit", subject, (relation, obj)),
              lambda: store.apply_update(EditRequest(
                  subject, relation, obj, object_is_entity=False)).value)

    def change(kind, subject, *args):  # the source's; no call is running
        call = Call(kind, subject, args, start=next(clock))
        if kind == "put":
            slow.put(triple(subject, *args, object_is_entity=False))
        else:
            slow.remove(subject, *args)
        call.end = next(clock)
        calls.append(call)

    def open_all():
        while running[0]:
            gates.pop(rng.randrange(len(gates))).set()
            settle()

    for n in range(steps):
        roll, subject = rng.random(), rng.choice(subjects)
        if gates and (roll < 0.3 or running[0] == 3):
            gates.pop(rng.randrange(len(gates))).set()
            settle()
        elif roll < 0.55:
            read(subject)
        elif roll < 0.65:
            edit(subject, rng.choice(["r0", "r1", "r2", "r3"]), f"e{n}")
        elif roll < 0.72:
            begin(Call("sync", None, ()), store.sync)
        elif roll < 0.86:
            change("put", subject, rng.choice(changed), f"p{n}")
        else:
            change("remove", subject, rng.choice(changed))
    open_all()
    for subject in subjects:  # a last read of each subject closes it
        read(subject)
        open_all()
    assert not failed
    return store, first, calls


def may_pass(call, calls, subject) -> bool:
    """Whether `call` may leave `subject` as it found it: a sync passes
    over a subject another call wrote while it ran (a retrieve or edit of
    it, or another sync), and a miss leaves one edited while it ran to be
    read again."""
    writers = ("edit",) if call.kind == "retrieve" else ("retrieve", "edit")
    return any(other.start < call.end and call.start < other.end
               for other in calls if other is not call and (
                   other.kind == call.kind == "sync"
                   or other.subject == subject and other.kind in writers))


@pytest.mark.parametrize("seed", range(60))
def test_every_subject_is_linearizable(seed):
    """Each subject's history, on its own, against model_step: a subject
    is its own object, so the store is linearizable if each subject is."""
    store, first, calls = record_history(seed)
    assert_counts(store, sum(call.kind == "retrieve" for call in calls))
    for subject in {s for s, _ in first}:
        history = [dataclasses.replace(call, may_pass=call.kind == "retrieve"
                                       and may_pass(call, calls, subject))
                   for call in calls if call.subject == subject]
        for number, sync in enumerate(calls):
            if sync.kind == "sync":  # its count sums over every subject
                history += [dataclasses.replace(
                    sync, kind=kind, args=(number,), result=None,
                    may_pass=may_pass(sync, calls, subject))
                    for kind in ("read", "sync")]
        source = frozenset((r, o) for (s, r), o in first.items()
                           if s == subject)
        initial = (source, None, False, frozenset(), frozenset())
        assert linearizable(history, initial), (subject, history)


def evicting_step(state, call):
    """model_step in a store with a capacity: before any call, a resident
    subject with no marked fact may have been evicted."""
    source, held, complete, marked, read = state
    evicted = (source, None, False, marked, read)
    return model_step(state, call) + (
        model_step(evicted, call) if held is not None and not marked else [])


def may_release(call, calls, subject) -> bool:
    """may_pass, and also: a retrieve that another retrieve of `subject`,
    or a sync, ran alongside may leave the subject as it found it, since
    either may find the subject absent in the source and drop its record
    before this retrieve's fetch lands."""
    return may_pass(call, calls, subject) or call.kind == "retrieve" and any(
        other.start < call.end and call.start < other.end
        for other in calls if other is not call and (
            other.kind == "sync"
            or other.kind == "retrieve" and other.subject == subject))


@pytest.mark.parametrize("capacity", [None, 1])
@pytest.mark.parametrize("seed", range(60))
def test_every_subject_is_linearizable_through_absence(seed, capacity):
    """As test_every_subject_is_linearizable, but the source puts and
    removes r0 too, so a subject can become absent in it, and a capacity
    of one fact evicts: a fetch that finds its subject's record dropped,
    or held anew, must not put an older copy back."""
    store, first, calls = record_history(seed, changed=("r0", "r1", "r2"),
                                         capacity=capacity)
    assert_counts(store, sum(call.kind == "retrieve" for call in calls))
    for subject in {s for s, _ in first}:
        history = [dataclasses.replace(
            call, may_pass=call.kind == "retrieve"
            and may_release(call, calls, subject))
            for call in calls if call.subject == subject]
        for number, sync in enumerate(calls):
            if sync.kind == "sync":
                history += [dataclasses.replace(
                    sync, kind=kind, args=(number,), result=None,
                    may_pass=may_pass(sync, calls, subject))
                    for kind in ("read", "sync")]
        source = frozenset((r, o) for (s, r), o in first.items()
                           if s == subject)
        initial = (source, None, False, frozenset(), frozenset())
        step = model_step if capacity is None else evicting_step
        assert linearizable(history, initial, step), (subject, history)


# any code point, a lone surrogate too: the JSON escape \ud800 spells one
_CHARS = st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(_CHARS, max_size=4) | st.sampled_from(["", "US", "2024-01-01"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def _near(draw, row, breaks=3):
    """`row` with up to `breaks` of its keys dropped or set to any text or
    JSON value."""
    row = dict(row)
    for key in draw(st.sets(st.sampled_from(sorted(row)), max_size=breaks)):
        if draw(st.booleans()):
            del row[key]
        else:
            row[key] = draw(st.text(_CHARS, max_size=4) | _JSON)
    return row


@st.composite
def _near_valid(draw, row, key):
    """`row` with `key` set to a non-empty name that UTF-8 can encode; in
    half the draws, with at most one of its keys broken as `_near` breaks
    it."""
    row = {**row, key: draw(st.text(min_size=1, max_size=6))}
    return draw(_near(row, breaks=1)) if draw(st.booleans()) else row


_STATE_ROW = {**triple_to_row(US_BIDEN), "version": 1, "edited": False}
_STATES = _JSON | st.fixed_dictionaries({}, optional={
    "stats": _JSON | st.dictionaries(
        st.sampled_from(sorted(CacheStats().snapshot())), _JSON),
    "entries": _JSON | st.lists(_near(_STATE_ROW), max_size=3),
    "incomplete": _JSON | st.lists(st.sampled_from(["US", "x"]))})
_ENTITIES = _JSON | st.lists(_JSON | st.fixed_dictionaries(
    {"id": _JSON | st.just("Q1")},
    optional={key: _JSON for key in ("label", "aliases", "kind", "gender")}),
    max_size=3)
_ENTITY_ROW = {"id": "Q30", "label": "United States",
               "aliases": ["America", "US"]}
_SINGLE_HOP_RECORD = json.loads(
    (FIXTURES / "single_hop_item.jsonl").read_text())
_MULTIHOP_RECORD = json.loads((FIXTURES / "multihop_item.jsonl").read_text())
_RECORDS = _JSON | _near(_SINGLE_HOP_RECORD) | _near(_MULTIHOP_RECORD)
_TEMPLATE_ROW = {"id": "P6", "label": "head of government",
                 "qa": ["Who heads {}?"], "completion": ["{} is headed by"],
                 "cloze": ["() heads {}."], "choice": ["Who heads {}?"],
                 "nest": ["the head of {}"]}
_TEMPLATES = _JSON | st.lists(_JSON | _near(_TEMPLATE_ROW), max_size=3)


def _typed(t):
    """Whether every field of `t` has its type, each string one that UTF-8
    can encode."""
    return (all(type(v) is str and not SURROGATE.search(v) for v in (
                t.subject, t.relation, t.obj, t.subject_label,
                t.relation_label, t.object_label))
            and type(t.object_is_entity) is bool and type(t.version) is int
            and isinstance(t.source, Source)
            and (t.fetched_at is None or isinstance(t.fetched_at, datetime)))


def _loads_typed_or_refuses(load, text, tmp_path_factory, content=bool):
    """load(path) of a file holding text, or None when it raised a
    FactCacheError; an event reports which, and whether `content` of what
    was read is truthy, so a property's statistics show what it tests."""
    path = tmp_path_factory.mktemp("input") / "file.json"
    path.write_text(text, encoding="utf-8")
    try:
        loaded = load(path)
    except FactCacheError:
        event("refused")
        return None
    event("typed with content" if content(loaded) else "read empty")
    return loaded


def _near_valid_loads_typed(tmp_path_factory, load, files, check,
                            content=bool):
    """The companion of a `test_any_json_*` property: each file drawn from
    `files`, a valid one with at most one key broken, is refused or loads
    to what passes `check`, and at a fixed seed at least half of them load
    with content, so the typed checks run."""
    with_content = []

    @seed(49)
    @settings(max_examples=100, deadline=None, database=None)
    @given(value=files)
    def run(value):
        loaded = _loads_typed_or_refuses(load, json.dumps(value),
                                         tmp_path_factory, content)
        if loaded is not None:
            check(loaded)
        with_content.append(loaded is not None and bool(content(loaded)))

    run()
    assert sum(with_content) >= len(with_content) / 2, (
        f"{sum(with_content)} of {len(with_content)} loaded with content")


def _dump_typed(dump):
    assert all(map(_typed, dump[1]))


def _state_typed(store):
    assert all(type(n) is int for n in store.stats.snapshot().values())
    assert all(map(_typed, store.fast_snapshot()))
    assert all(type(r) is str for record in store._subjects.values()
               for r in record.edited)


def _entities_typed(pairs):
    assert type(pairs) is list
    assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
    assert all(type(text) is str and text for pair in pairs for text in pair)


def _items_typed(items):
    for item in items:
        if isinstance(item, BenchmarkItem):
            texts = [*item.queries.values(), item.locality_subject,
                     item.locality_object, item.locality_query,
                     *(text for pair in item.choice_options for text in pair)]
            assert _typed(item.triple)
        else:
            texts = [*item.hop_queries, item.multihop_query]
            assert all(map(_typed, item.chain))
        assert all(type(text) is str for text in texts)


def _templates_typed(loaded):
    for ref in loaded.values():
        assert type(ref.id) is str and ref.id and type(ref.label) is str
        assert len(ref.task_templates) == 5
        assert all(tpls and all(type(tpl) is str and tpl.count("{}") == 1
                                for tpl in tpls)
                   for tpls in ref.task_templates.values())


def _load_state(path):
    return load_state(TieredFactStore(), path)


@given(row=_JSON | _near(_STATE_ROW))
@settings(max_examples=150, deadline=None)
def test_any_json_dump_row_loads_typed_or_is_refused(tmp_path_factory, row):
    loaded = _loads_typed_or_refuses(read_dump, json.dumps(row),
                                     tmp_path_factory, lambda dump: dump[1])
    if loaded is not None:
        _dump_typed(loaded)


def test_a_near_valid_dump_row_loads_typed(tmp_path_factory):
    _near_valid_loads_typed(tmp_path_factory, read_dump,
                            _near_valid(_STATE_ROW, "subject_id"), _dump_typed,
                            lambda dump: dump[1])


@given(state=_STATES)
@settings(max_examples=150, deadline=None)
def test_any_json_state_file_loads_typed_or_is_refused(tmp_path_factory,
                                                       state):
    store = _loads_typed_or_refuses(
        _load_state, json.dumps(state), tmp_path_factory,
        lambda store: store.fast_snapshot())
    if store is not None:
        _state_typed(store)


def test_a_near_valid_state_file_loads_typed(tmp_path_factory):
    states = st.fixed_dictionaries(
        {"entries": _near_valid(_STATE_ROW, "subject_id").map(
            lambda row: [row])},
        optional={"stats": st.just(CacheStats().snapshot()),
                  "incomplete": st.lists(st.sampled_from(["US", "x"]),
                                         max_size=2)})
    _near_valid_loads_typed(tmp_path_factory, _load_state, states,
                            _state_typed, lambda store: store.fast_snapshot())


@given(entities=_ENTITIES)
@settings(max_examples=150, deadline=None)
def test_any_json_entities_file_loads_typed_or_is_refused(tmp_path_factory,
                                                          entities):
    loaded = _loads_typed_or_refuses(load_entities, json.dumps(entities),
                                     tmp_path_factory)
    if loaded is not None:
        _entities_typed(loaded)


def test_a_near_valid_entities_file_loads_typed(tmp_path_factory):
    _near_valid_loads_typed(
        tmp_path_factory, load_entities,
        _near_valid(_ENTITY_ROW, "id").map(lambda row: [row]),
        _entities_typed)


@given(record=_RECORDS)
@settings(max_examples=150, deadline=None)
def test_any_json_benchmark_line_loads_typed_or_is_refused(tmp_path_factory,
                                                          record):
    items = _loads_typed_or_refuses(load_benchmark, json.dumps(record),
                                    tmp_path_factory)
    _items_typed(items or ())


def test_a_near_valid_benchmark_line_loads_typed(tmp_path_factory):
    _near_valid_loads_typed(
        tmp_path_factory, load_benchmark,
        _near_valid(_SINGLE_HOP_RECORD, "subject_label")
        | _near_valid(_MULTIHOP_RECORD, "s1_label"),
        _items_typed)


@given(rows=_TEMPLATES)
@settings(max_examples=150, deadline=None)
def test_any_json_templates_file_loads_typed_or_is_refused(tmp_path_factory,
                                                           rows):
    loaded = _loads_typed_or_refuses(load_relation_templates,
                                     json.dumps(rows), tmp_path_factory)
    _templates_typed(loaded or {})


def test_a_near_valid_templates_file_loads_typed(tmp_path_factory):
    _near_valid_loads_typed(
        tmp_path_factory, load_relation_templates,
        _near_valid(_TEMPLATE_ROW, "id").map(lambda row: [row]),
        _templates_typed)


class TestRemoteSparqlSource:
    WIKIDATA_PAYLOAD = """\
{"head": {"vars": ["relation", "relationLabel", "object", "objectLabel"]},
 "results": {"bindings": [
   {"relation": {"type": "uri",
                 "value": "http://www.wikidata.org/entity/P6"},
    "relationLabel": {"type": "literal", "value": "head of government"},
    "object": {"type": "uri",
               "value": "http://www.wikidata.org/entity/Q6279"},
    "objectLabel": {"type": "literal", "value": "Joe Biden"}},
   {"relation": {"type": "uri",
                 "value": "http://www.wikidata.org/entity/P2043"},
    "relationLabel": {"type": "literal", "value": "length"},
    "object": {"type": "literal", "value": "352 km"},
    "objectLabel": {"type": "literal", "value": "352 km"}}]}}"""

    def make_source(self, replies, naps):
        from factcache.cache import RemoteSparqlSource
        from factcache.sparqlio import TransportReply

        calls = []

        def transport(url, params, headers):
            calls.append(params["query"])
            status, text, *hdrs = replies[min(len(calls) - 1, len(replies) - 1)]
            return TransportReply(status=status, text=text,
                                  headers=hdrs[0] if hdrs else {})

        source = RemoteSparqlSource("https://unit.test/sparql",
                                    transport=transport,
                                    sleep=lambda s: naps.append(s))
        return source, calls

    def test_rows_become_triples(self):
        naps = []
        source, calls = self.make_source([(200, self.WIKIDATA_PAYLOAD)], naps)
        triples = source.fetch_subject("Q30")
        assert len(triples) == 2
        entity = next(t for t in triples if t.object_is_entity)
        assert (entity.subject, entity.relation, entity.obj) == \
            ("Q30", "P6", "Q6279")
        assert entity.object_label == "Joe Biden"
        literal = next(t for t in triples if not t.object_is_entity)
        assert literal.obj == "352 km"
        assert "wd:Q30" in calls[0]
        assert naps == []

    def test_a_relation_made_of_slashes_names_no_fact(self):
        payload = json.loads(self.WIKIDATA_PAYLOAD)
        payload["results"]["bindings"][0]["relation"]["value"] = "/"
        source, _ = self.make_source([(200, json.dumps(payload))], [])
        store = TieredFactStore(slow=source, prefetch_depth=0)
        assert [t.relation for t in store.retrieve("Q30")] == ["P2043"]

    def test_a_web_address_is_a_literal(self):
        payload = json.loads(self.WIKIDATA_PAYLOAD)
        payload["results"]["bindings"][0].update(
            relation={"type": "uri",
                      "value": "http://www.wikidata.org/entity/P856"},
            object={"type": "uri", "value": "https://www.whitehouse.gov/"})
        source, _ = self.make_source([(200, json.dumps(payload))], [])
        website = next(t for t in source.fetch_subject("Q30")
                       if t.relation == "P856")
        assert (website.obj, website.object_is_entity) == (
            "https://www.whitehouse.gov/", False)

    def test_a_literal_is_its_value_and_survives_a_state_round_trip(
            self, tmp_path):
        payload = json.loads(self.WIKIDATA_PAYLOAD)
        payload["results"]["bindings"][1].update(
            object={"type": "literal", "value": "1.5"},
            objectLabel={"type": "literal", "value": "one and a half"})
        source, _ = self.make_source([(200, json.dumps(payload))], [])
        store = TieredFactStore(slow=source, prefetch_depth=0)
        store.retrieve("Q30")
        length = store.get("Q30", "P2043")
        assert (length.obj, length.object_label) == ("1.5", "1.5")
        save_state(store, tmp_path / "state.json")
        loaded = load_state(TieredFactStore(slow=source, prefetch_depth=0),
                            tmp_path / "state.json")
        assert loaded.get("Q30", "P2043") == length
        assert loaded.sync() == 0
        assert loaded.get("Q30", "P2043").render() == "(Q30, length, 1.5)"

    @pytest.mark.parametrize("label, rendered", [
        ("United States", "(United States, head of government, Joe Biden)"),
        (None, "(Q30, head of government, Joe Biden)")],
        ids=["label-column", "no-label-column"])
    def test_a_fact_takes_the_subject_label_from_the_reply(self, label,
                                                           rendered):
        payload = json.loads(self.WIKIDATA_PAYLOAD)
        if label is not None:
            payload["head"]["vars"].append("subjectLabel")
            for row in payload["results"]["bindings"]:
                row["subjectLabel"] = {"type": "literal", "value": label}
        source, _ = self.make_source([(200, json.dumps(payload))], [])
        store = TieredFactStore(slow=source, prefetch_depth=0)
        facts = store.retrieve("Q30")
        assert {t.subject_label for t in facts} == {label or "Q30"}
        assert store.get("Q30", "P6").render() == rendered

    def test_three_attempts_with_exponential_backoff(self):
        naps = []
        source, calls = self.make_source([(503, "unavailable")], naps)
        with pytest.raises(SlowUnreachable):
            source.fetch_subject("Q30")
        assert len(calls) == 3
        assert naps == [0.25, 0.5]

    def test_recovers_on_a_later_attempt(self):
        naps = []
        source, calls = self.make_source(
            [(503, "unavailable"), (200, self.WIKIDATA_PAYLOAD)], naps)
        triples = source.fetch_subject("Q30")
        assert len(triples) == 2
        assert len(calls) == 2
        assert naps == [0.25]

    def test_rate_limit_waits_for_the_retry_after_hint(self):
        naps = []
        source, calls = self.make_source(
            [(429, "slow down", {"Retry-After": "3"}),
             (200, self.WIKIDATA_PAYLOAD)], naps)
        assert len(source.fetch_subject("Q30")) == 2
        assert len(calls) == 2
        assert naps == [3.0]

    @pytest.mark.parametrize("hint", ["inf", "-inf", "nan"])
    def test_a_non_finite_retry_after_hint_falls_back_to_the_backoff(
            self, hint):
        naps = []
        source, calls = self.make_source(
            [(429, "slow down", {"Retry-After": hint}),
             (200, self.WIKIDATA_PAYLOAD)], naps)
        assert len(source.fetch_subject("Q30")) == 2
        assert len(calls) == 2
        assert naps == [0.25]

    @pytest.mark.parametrize("hint", ["1e300", "3601"])
    def test_a_huge_retry_after_hint_falls_back_to_the_backoff(self, hint):
        naps = []
        source, calls = self.make_source(
            [(429, "slow down", {"Retry-After": hint}),
             (200, self.WIKIDATA_PAYLOAD)], naps)
        assert len(source.fetch_subject("Q30")) == 2
        assert len(calls) == 2
        assert naps == [0.25]

    @pytest.mark.parametrize("body", [
        "null", "42", '"results"', '{"results": {"bindings": null}}',
        # wrong inner shapes: head, vars, a binding row, a cell
        '{"head": 42, "results": {"bindings": []}}',
        '{"head": {"vars": "ab"}, "results": {"bindings": [{}]}}',
        '{"head": {"vars": [["x"]]}, "results": {"bindings": [{}]}}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": [42]}}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": [{"x": "x"}]}}',
        '{"results": 5}'])
    def test_a_reply_that_is_not_a_results_object_is_retried(self, body):
        from factcache.errors import MalformedResponse

        naps = []
        source, calls = self.make_source([(200, body)], naps)
        with pytest.raises(SlowUnreachable) as exc:
            source.fetch_subject("Q30")
        assert isinstance(exc.value.__cause__, MalformedResponse)
        assert str(exc.value).count("https://unit.test/sparql") == 1
        assert len(calls) == 1 and naps == []  # the same reply would return

    def test_a_rejected_query_is_not_retried(self):
        naps = []
        source, calls = self.make_source([(400, "bad query")], naps)
        with pytest.raises(SlowUnreachable) as exc:
            source.fetch_subject("Q30")
        assert str(exc.value).count("https://unit.test/sparql") == 1
        assert len(calls) == 1 and naps == []

    def test_a_programming_error_in_the_transport_is_raised_as_itself(self):
        from factcache.cache import RemoteSparqlSource

        calls, naps = [], []

        def transport(url, params, headers):
            calls.append(url)
            raise TypeError("a programming error")

        source = RemoteSparqlSource("https://unit.test/sparql",
                                    transport=transport, sleep=naps.append)
        with pytest.raises(TypeError):
            source.fetch_subject("Q30")
        assert len(calls) == 1 and naps == []

    def test_the_network_transport_sends_without_waiting(self, monkeypatch):
        # the endpoint paces its clients with 429 and Retry-After
        from factcache import sparqlio
        from factcache.cache import RemoteSparqlSource

        now = [0.0]
        sent_at, naps = [], []

        def sleep(seconds):
            naps.append(seconds)
            now[0] += seconds

        def network(url, params, headers):
            sent_at.append(now[0])
            return sparqlio.TransportReply(200, self.WIKIDATA_PAYLOAD)

        monkeypatch.setattr(sparqlio, "http_transport", network)
        source = RemoteSparqlSource("https://unit.test/sparql", sleep=sleep)
        for _ in range(3):
            assert len(source.fetch_subject("Q30")) == 2
        assert naps == [] and sent_at == [0.0, 0.0, 0.0]

        source, calls = self.make_source([(200, self.WIKIDATA_PAYLOAD)], naps)
        for _ in range(3):
            assert len(source.fetch_subject("Q30")) == 2
        assert len(calls) == 3 and naps == []

    def test_a_cold_retrieve_and_a_sync_send_without_waiting(
            self, monkeypatch):
        from factcache import sparqlio
        from factcache.cache import RemoteSparqlSource

        neighbours = [f"Q{n}" for n in range(2, 6)]
        facts = {"Q1": [(f"P{n}", "part", item, item)
                        for n, item in enumerate(neighbours)]}
        facts.update({item: [("P2043", "length", "1 km", "1 km")]
                      for item in neighbours})
        sent_at, naps = [], []
        monkeypatch.setattr(sparqlio, "http_transport",
                            subject_facts_endpoint(facts, sent_at))
        store = TieredFactStore(slow=RemoteSparqlSource(
            "https://unit.test/sparql", sleep=naps.append))
        assert len(store.retrieve("Q1")) == 4
        assert len(sent_at) == 5 and len(store) == 8  # the four prefetched
        assert store.sync() == 0
        assert len(sent_at) == 10 and naps == []

    def test_an_endpoint_the_network_cannot_reach_is_not_retried(
            self, monkeypatch):
        from factcache import sparqlio
        from factcache.cache import RemoteSparqlSource

        calls, naps = [], []
        network = sparqlio.http_transport

        def counted(url, params, headers):
            calls.append(url)
            return network(url, params, headers)

        monkeypatch.setattr(sparqlio, "http_transport", counted)
        # the transport refuses both before it opens a connection
        for endpoint in ("unit.test/sparql", "http://"):  # no scheme, no host
            source = RemoteSparqlSource(endpoint, sleep=naps.append)
            with pytest.raises(ConfigError, match="cannot send a request"):
                source.fetch_subject("Q30")
        assert len(calls) == 2 and naps == []

    @pytest.mark.parametrize("entity", [
        "Q1 . } SELECT * WHERE { ?s ?p ?o", "Scale Town 1", "Q1\n"],
        ids=["injection", "label", "trailing-newline"])
    def test_an_entity_that_is_no_item_id_sends_no_query(self, entity):
        naps = []
        source, calls = self.make_source([(200, self.WIKIDATA_PAYLOAD)], naps)
        assert source.fetch_subject(entity) == []
        assert calls == []
        assert len(source.fetch_subject("Q42")) == 2
        assert len(calls) == 1 and "wd:Q42 " in calls[0]


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        rows = [
            US_BIDEN,
            triple("Bridge", "length", "352 km", object_is_entity=False,
                   source=Source.DBPEDIA, fetched_at=SNAPSHOT),
        ]
        write_dump(path, rows, snapshot_at=SNAPSHOT)
        snapshot_at, loaded = read_dump(path)
        assert snapshot_at == SNAPSHOT
        assert TripleSet(loaded) == TripleSet(rows)
        literal = next(t for t in loaded if not t.object_is_entity)
        assert literal.obj == "352 km"

    def test_a_time_without_an_offset_is_read_as_utc(self, tmp_path):
        fetched = parse_rfc3339("2024-01-01T00:00:00")
        assert fetched.tzinfo is not None and fetched == SNAPSHOT
        row = triple_to_row(dataclasses.replace(US_BIDEN, fetched_at=fetched))
        assert row["fetched_at"] == "2024-01-01T00:00:00+00:00"
        path = tmp_path / "dump.jsonl"
        path.write_text(json.dumps({"snapshot_at": "2024-01-01T00:00:00"})
                        + "\n" + json.dumps(row) + "\n")
        snapshot_at, (loaded,) = read_dump(path)
        assert snapshot_at.tzinfo is not None and snapshot_at == SNAPSHOT
        assert loaded.fetched_at == SNAPSHOT

    def test_local_dump_source(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        write_dump(path, [US_BIDEN, BIDEN_JILL], snapshot_at=SNAPSHOT)
        source = LocalDumpSource(path)
        assert source.snapshot_at == SNAPSHOT
        assert TripleSet(source.fetch_subject("US")) == TripleSet([US_BIDEN])
        assert source.fetch_subject("nobody") == []

    def test_state_round_trip(self, tmp_path):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        state_path = tmp_path / "state.json"
        save_state(store, state_path)
        restored = load_state(TieredFactStore(slow, prefetch_depth=0),
                              state_path)
        assert restored.stats.snapshot() == store.stats.snapshot()
        assert restored.get("US", "head_of_gov").version == 2
        assert restored.fast_snapshot() == store.fast_snapshot()
        # edited flag survives: the restored edit still wins over slow data
        restored.bulk_load([US_BIDEN])
        assert restored.get("US", "head_of_gov").obj == "Harris"

    def test_a_failed_first_read_leaves_the_state_file_empty(self,
                                                              tmp_path):
        store, slow = make_store()
        slow.unreachable = True
        with pytest.raises(SlowUnreachable):
            store.retrieve("US")
        save_state(store, tmp_path / "state.json")
        state = json.loads((tmp_path / "state.json").read_text())
        assert (state["entries"], state["incomplete"]) == ([], [])

    def test_state_keeps_incomplete_subjects(self, tmp_path):
        capital = triple("US", "capital", "Washington",
                         source=Source.WIKIDATA, fetched_at=SNAPSHOT)
        store, slow = make_store([US_BIDEN, capital], prefetch_depth=0)
        store.apply_update(EditRequest("US", "head_of_gov", "Harris"))
        state_path = tmp_path / "state.json"
        save_state(store, state_path)
        restored = load_state(TieredFactStore(slow, prefetch_depth=0),
                              state_path)
        assert restored.retrieve("US") == TripleSet(
            [triple("US", "head_of_gov", "Harris"), capital])
        assert restored.stats.misses == restored.stats.slow_fetches == 1

    def test_state_without_incomplete_list_loads_complete(self, tmp_path):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        state_path = tmp_path / "state.json"
        save_state(store, state_path)
        state = json.loads(state_path.read_text(encoding="utf-8"))
        del state["incomplete"]
        state_path.write_text(json.dumps(state), encoding="utf-8")
        restored = load_state(TieredFactStore(slow, prefetch_depth=0),
                              state_path)
        assert restored.retrieve("US") == TripleSet([US_BIDEN])
        assert restored.stats.hits == 1
        assert slow.fetch_log == ["US"]

    def test_load_state_evicts_down_to_a_smaller_capacity(self, tmp_path):
        store, slow = make_store(prefetch_depth=0)
        store.bulk_load([triple(f"s{i}", "r", f"o{i}") for i in range(10)])
        store.apply_update(EditRequest("p", "r", "v"))  # pinned: stays
        state_path = tmp_path / "state.json"
        save_state(store, state_path)
        restored = load_state(TieredFactStore(slow, capacity=3,
                                              prefetch_depth=0), state_path)
        assert len(restored) == 3
        assert restored.get("p", "r").obj == "v"
        # the file keeps no recency: subjects load, and so are evicted,
        # in name order
        assert {t.subject for t in restored.fast_snapshot()} == \
            {"p", "s8", "s9"}
        restored.retrieve("s8")
        assert len(restored) == 3
        assert restored.stats.hits == 1

    def test_failed_save_leaves_previous_state(self, tmp_path):
        store, slow = make_store([US_BIDEN], prefetch_depth=0)
        store.retrieve("US")
        state_path = tmp_path / "state.json"
        save_state(store, state_path)
        saved = state_path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails midway
        store.apply_update(EditRequest("US", "capital", "\ud800"))
        with pytest.raises(UnicodeEncodeError):
            save_state(store, state_path)
        assert state_path.read_bytes() == saved
        restored = load_state(TieredFactStore(slow, prefetch_depth=0),
                              state_path)
        assert restored.fast_snapshot() == TripleSet([US_BIDEN])
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    @pytest.mark.parametrize("row, key", [
        ("{broken", "Expecting"),
        ('{"subject_id": "US", "object_label": "x"}', "relation_id"),
        ("42", "JSON object"),
        (json.dumps({**triple_to_row(US_BIDEN), "source": "bogus"}),
         "source"),
        (json.dumps({**triple_to_row(US_BIDEN), "object_label": 5}),
         "object_label"),
        (json.dumps({**triple_to_row(US_BIDEN), "subject_id": 5}),
         "subject_id"),
        (json.dumps({**triple_to_row(US_BIDEN), "object_id": 3}),
         "object_id"),
        (json.dumps({**triple_to_row(US_BIDEN), "fetched_at": "noon"}),
         "fetched_at"),
        (json.dumps({**triple_to_row(US_BIDEN), "version": True}),
         "version"),
        ('{"snapshot_at": 5}', "snapshot_at")],
        ids=["not-json", "no-relation", "not-an-object", "unknown-source",
             "int-object-label", "int-subject-id", "int-object-id",
             "bad-time", "bool-version", "int-snapshot"])
    def test_a_bad_dump_row_is_a_parse_error_at_its_line(self, tmp_path, row,
                                                         key):
        path = tmp_path / "dump.jsonl"
        write_dump(path, [US_BIDEN], snapshot_at=SNAPSHOT)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ParseError) as exc:
            read_dump(path)
        assert exc.value.line == 3
        assert str(path) in str(exc.value) and key in str(exc.value)

    def test_a_dump_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        write_dump(path, [US_BIDEN], snapshot_at=SNAPSHOT)
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_dump(path)

    @pytest.mark.parametrize("text, line, key", [
        ("not json", 1, "Expecting"),
        ("{\n  \"entries\": [,]}", 2, "Expecting"),
        ("[]", None, "JSON object"),
        ('{"entries": [{"subject_id": "US", "object_label": "x"}]}', None,
         "entries[0]: relation_id"),
        ('{"entries": [{"subject_id": "US", "relation_id": "r", '
         '"object_label": "x", "source": "bogus"}]}', None, "source"),
        ('{"stats": {"hits": "x"}}', None, "stats.hits"),
        ('{"stats": {"hits": true}}', None, "stats.hits"),
        ('{"entries": [{"subject_id": "US", "relation_id": "r", '
         '"object_label": "x", "edited": "no"}]}', None, "entries[0]: edited"),
        ('{"incomplete": "US"}', None, "incomplete"),
        ('{"incomplete": [1]}', None, "incomplete"),
        ('{"entries": {}}', None, "entries")],
        ids=["not-json", "bad-json-line-2", "not-an-object", "no-relation",
             "unknown-source", "text-count", "bool-count", "text-edited",
             "text-incomplete", "int-incomplete", "object-entries"])
    def test_a_corrupt_state_file_is_a_parse_error(self, tmp_path, text,
                                                   line, key):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_state(TieredFactStore(), path)
        assert exc.value.line == line
        assert str(path) in str(exc.value) and key in str(exc.value)
