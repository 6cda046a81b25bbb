from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache import cli
from factcache import pipeline as pipeline_module
from factcache import ranking as ranking_module
from factcache.cache import (EditRequest, InMemorySlowSource, LocalDumpSource,
                             TieredFactStore, read_dump)
from factcache.config import Config
from factcache.dataset import (BenchmarkItem, MultiHopItem, build_multihop,
                               build_multihop_benchmark,
                               load_relation_templates)
from factcache.errors import HopFailed
from factcache.models import MockTableModel, ModelAnswer
from factcache.pipeline import (AliasIndex, ExtractorKind, MultihopMode,
                                Pipeline, aliases_for_items)
from factcache.ranking import rank_triples, token_cosine, tokenize
from factcache.triples import Source, TaskKind, TripleSet
from conftest import SNAPSHOT, triple


@pytest.fixture
def alias_index():
    index = AliasIndex()
    index.add("Casino Royale", "Q161678")
    index.add("Seine-Maritime", "Q12675")
    index.add("America", "Q30")
    index.add("United States", "Q30")
    index.add("US", "Q30")
    index.add("Route 128 station", "Q7371545")
    return index


class TestAliasIndex:
    def test_longest_match_examples(self, alias_index):
        assert alias_index.entities(
            "Who is the cast member of Casino Royale?") == ["Q161678"]
        assert alias_index.entities(
            "What is the inspiration behind the name of Seine-Maritime?") == \
            ["Q12675"]

    def test_empty_dictionary_finds_nothing(self):
        assert AliasIndex().entities("Anything at all?") == []

    def test_longest_span_wins(self, alias_index):
        # "Route 128 station" (3 tokens) comes before "America" (1 token)
        # and no one-token surface inside it fires
        alias_index.add("Route", "Q1")
        text = "Is Route 128 station in America?"
        assert alias_index.entities(text) == ["Q7371545", "Q30"]

    def test_tie_goes_to_the_leftmost(self):
        index = AliasIndex()
        index.add("Paris", "Q90")
        index.add("Berlin", "Q64")
        assert index.entities("Paris or Berlin?") == ["Q90", "Q64"]
        assert index.entities("Berlin or Paris?") == ["Q64", "Q90"]

    def test_an_equal_span_overlap_goes_to_the_leftmost(self):
        index = AliasIndex()
        index.add("New York", "Q60")
        index.add("York City", "Q2")
        assert index.entities("New York City") == ["Q60"]

    def test_word_boundaries_respected(self, alias_index):
        # "US" must not fire inside other words
        assert alias_index.entities("A virus mutation") == []

    def test_case_insensitive(self, alias_index):
        assert alias_index.entities("who leads AMERICA?") == ["Q30"]

    def test_greedy_matches_do_not_overlap(self, alias_index):
        ids = alias_index.entities(
            "Route 128 station sits in the United States")
        assert ids == ["Q7371545", "Q30"]

    def test_each_entity_is_named_once_in_reading_order(self, alias_index):
        assert alias_index.entities(
            "Is the US, or America, near Casino Royale and the US?") == \
            ["Q30", "Q161678"]

    def test_first_registration_wins_for_shared_surface(self):
        index = AliasIndex()
        index.add("Springfield", "Q1")
        index.add("Springfield", "Q2")
        assert index.lookup("Springfield") == "Q1"
        assert index.entities("Springfield") == ["Q1"]

    def test_a_surface_added_after_an_extraction_is_found(self, alias_index):
        # the memo of a text's entities must not outlive a registration
        text = "Who is the mayor of Gotham City?"
        first = alias_index.entities(text)
        assert first == []
        first.append("not kept")  # each caller gets its own list
        assert alias_index.entities(text) == []
        alias_index.add("Gotham City", "Q1")
        assert alias_index.entities(text) == ["Q1"]
        alias_index.add("mayor", "Q2")
        assert alias_index.entities(text) == ["Q2", "Q1"]

    def test_the_entities_memo_is_cleared_when_full(self, alias_index,
                                                    monkeypatch):
        monkeypatch.setattr(pipeline_module, "ALIAS_MEMO_SIZE", 8)
        texts = [f"Is America {i}?" for i in range(9)]
        for text in texts[:8]:
            assert alias_index.entities(text) == ["Q30"]
        assert list(alias_index._memo) == texts[:8]
        for text in texts[:8]:  # hits, which change nothing
            assert alias_index.entities(text) == ["Q30"]
        assert list(alias_index._memo) == texts[:8]
        assert alias_index.entities(texts[8]) == ["Q30"]
        assert list(alias_index._memo) == texts[8:]

    def test_from_entities_uses_all_surface_forms(self, us_store, tmp_path):
        # the CLI registers each entities-file entry under every surface
        path = tmp_path / "entities.json"
        path.write_text(json.dumps([{"id": "Q30", "label": "United States",
                                     "aliases": ["America", "US"]}]))
        assert cli.load_entities(path) == [
            ("America", "Q30"), ("US", "Q30"), ("United States", "Q30")]
        index = cli._pipeline(Config(entities_path=str(path)),
                              us_store).aliases
        assert index.lookup("america") == "Q30"
        assert index.lookup("United States") == "Q30"
        assert index.entities("Is the US America?") == ["Q30"]


class ReferenceAliasIndex:
    """The dictionary written out plainly: token-tuple keys for every
    surface, and `matches` probes every length up to the longest surface at
    each start, longest first, as (start, length, entity_id)."""

    def __init__(self):
        self.by_tokens: dict[tuple[str, ...], str] = {}
        self.max_tokens = 0

    def __len__(self):
        return len(self.by_tokens)

    def add(self, surface, entity_id):
        tokens = tuple(tokenize(surface))
        if tokens:
            self.by_tokens.setdefault(tokens, entity_id)
            self.max_tokens = max(self.max_tokens, len(tokens))

    def lookup(self, surface):
        return self.by_tokens.get(tuple(tokenize(surface)))

    def matches(self, text):
        tokens = tokenize(text)
        found = []
        for start in range(len(tokens)):
            top = min(self.max_tokens, len(tokens) - start)
            for length in range(top, 0, -1):
                entity_id = self.by_tokens.get(
                    tuple(tokens[start:start + length]))
                if entity_id is not None:
                    found.append((start, length, entity_id))
        return found


def reference_entities(reference, text):
    """The match policy written out plainly: take the longest match, the
    leftmost of equal ones, unless it overlaps one taken before; then read
    the taken ones left to right, each entity once."""
    remaining = reference.matches(text)
    taken = []
    while remaining:
        best = min(remaining, key=lambda m: (-m[1], m[0]))
        remaining.remove(best)
        start, length, _ = best
        if all(start + length <= s or s + n <= start
               for s, n, _ in taken):
            taken.append(best)
    ids = []
    for _, _, entity_id in sorted(taken):
        if entity_id not in ids:
            ids.append(entity_id)
    return ids


# digits, punctuation, a word that tokenizes to nothing or to two tokens,
# and words that `tokenize_all` cannot translate in its one pass: two that
# are not ASCII (the Kelvin sign folds to "k") and one that holds a newline
ALIAS_WORDS = st.sampled_from(["new", "York", "new-york", "route", "128",
                               "42nd", "st.", "U.S.", "a", "!", "Paris",
                               "Z\u00fcrich", "\u212aelvin", "new\nyork"])
ALIAS_IDS = st.sampled_from(["Q1", "Q2", "Q3"])


def alias_surfaces(min_words=1):
    return st.lists(ALIAS_WORDS, min_size=min_words, max_size=4).map(" ".join)


@st.composite
def alias_rows(draw):
    """(surface, id) rows with a surface shared by two ids, a multi-word
    surface whose first word is also a one-word surface, and a two-word
    surface that starts with its last word."""
    rows = draw(st.lists(st.tuples(alias_surfaces(), ALIAS_IDS), max_size=8))
    phrase = draw(alias_surfaces(min_words=2))
    rows += [(phrase, draw(ALIAS_IDS)), (phrase.split()[0], draw(ALIAS_IDS)),
             (f"{phrase.split()[-1]} {draw(ALIAS_WORDS)}", draw(ALIAS_IDS))]
    surface, _ = draw(st.sampled_from(rows))
    rows.append((surface, "Q9"))  # no drawn id is Q9
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alias_index_agrees_with_the_reference_model(data):
    rows = data.draw(alias_rows())
    triples = [triple(s_id, "r", o_id, subject_label=s, object_label=o,
                      object_is_entity=entity)
               for (s, s_id), (o, o_id), entity in data.draw(st.lists(
                   st.tuples(st.sampled_from(rows), st.sampled_from(rows),
                             st.booleans()), min_size=1, max_size=12))]
    index = AliasIndex.from_triples(triples)
    row_by_row, reference = AliasIndex(), ReferenceAliasIndex()
    for t in triples:
        for built in (row_by_row, reference):
            built.add(t.subject_label, t.subject)
            if t.object_is_entity:
                built.add(t.object_label, t.obj)

    # later registrations, as `eval` adds its items' labels after the rest
    texts = data.draw(st.lists(st.lists(ALIAS_WORDS, min_size=1, max_size=6)
                               .map(" ".join), min_size=1, max_size=2))
    for text in texts:  # memoized before the registrations below
        index.entities(text)
    other_rows = data.draw(alias_rows())
    index.add_all(other_rows)  # one batch; row_by_row takes them one by one
    for surface, entity_id in other_rows:
        for built in (row_by_row, reference):
            built.add(surface, entity_id)

    surfaces = [s for s, _ in rows + other_rows]
    # two surfaces that share a word, written once: "new york" + "york 128"
    overlaps = [f"{a} {b.split(' ', 1)[1]}" for a in surfaces
                for b in surfaces if " " in b and a.split()[-1:] ==
                b.split()[:1]]
    texts += data.draw(st.lists(
        st.lists(st.one_of(ALIAS_WORDS, st.sampled_from(surfaces),
                           st.sampled_from(overlaps)),
                 min_size=1, max_size=6).map(" ".join),
        min_size=1, max_size=4))
    for built in (index, row_by_row):
        assert len(built) == len(reference)
        for surface in surfaces:
            assert built.lookup(surface) == reference.lookup(surface)
        for text in texts:
            expected = reference_entities(reference, text)
            assert built.entities(text) == expected
            assert built.entities(text) == expected  # from the memo


class TestExtractEntity:
    def test_alias_dictionary_mode(self, us_pipeline):
        assert us_pipeline.extract_entities(
            "Who is the head of government in America?") == ["America"]

    def test_not_found_returns_none(self, us_pipeline):
        assert us_pipeline.extract_entities("No entities here at all") == []

    def test_rejects_empty_input(self, us_pipeline, us_store):
        pipeline = Pipeline(store=us_store, aliases=AliasIndex(),
                            model=MockTableModel(),
                            extractor=ExtractorKind.MODEL_PROMPTED)
        with pytest.raises(ValueError):
            pipeline.extract_entities("")
        assert us_pipeline.extract_entities("") == []  # alias mode: no match

    def test_model_prompted_mode_maps_surface_through_aliases(self, us_store):
        aliases = AliasIndex()
        aliases.add("Casino Royale", "Q161678")
        model = MockTableModel(priors={
            "Who is the cast member of Casino Royale?": "Casino Royale"})
        pipeline = Pipeline(store=us_store, aliases=aliases, model=model,
                            extractor=ExtractorKind.MODEL_PROMPTED)
        assert pipeline.extract_entities(
            "Who is the cast member of Casino Royale?") == ["Q161678"]

    def test_model_prompted_unresolvable_surface_is_none(self, us_store):
        model = MockTableModel(priors={"q?": "Unknown Entity"})
        pipeline = Pipeline(store=us_store, aliases=AliasIndex(), model=model,
                            extractor=ExtractorKind.MODEL_PROMPTED)
        assert pipeline.extract_entities("q?") == []


class GenerateOnlyModel:
    """A model client without the raw completion that extraction asks."""

    def generate(self, prompt):
        raise AssertionError("extraction fails first")


class TestAnswer:
    def test_cached_fact_is_echoed(self, us_pipeline):
        answer = us_pipeline.answer(
            "Who is the current head of government for Sioux Falls?")
        assert answer.text == "Paul Ten Haken"

    def test_empty_cache_falls_back_to_the_stale_prior(self):
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        model = MockTableModel(priors={
            "Who is the head of government in America?": "Obama"})
        aliases = AliasIndex()
        aliases.add("America", "America")
        pipeline = Pipeline(store=store, aliases=aliases, model=model)
        answer = pipeline.answer("Who is the head of government in America?")
        assert answer.text == "Obama"  # unedited behavior, visibly stale

    def test_edit_becomes_visible_end_to_end(self, us_pipeline):
        us_pipeline.store.apply_update(
            EditRequest("America", "head of government", "Biden"))
        answer = us_pipeline.answer(
            "Who is the head of government in America?")
        assert answer.text == "Biden"

    def test_an_edit_after_a_repeated_question_is_answered(self,
                                                           us_pipeline):
        # the second answer comes from the memos; the edit makes a new view
        query = "Who is the head of government in America?"
        assert [us_pipeline.answer(query).text for _ in range(2)] == \
            ["Joe Biden", "Joe Biden"]
        us_pipeline.store.apply_update(EditRequest(
            "America", "head of government", "Kamala Harris",
            relation_label="head of government"))
        assert us_pipeline.answer(query).text == "Kamala Harris"

    def test_evidence_suppression_gives_the_base_answer(self, us_pipeline):
        us_pipeline.model.priors[
            "Who is the head of government in America?"] = "Obama"
        edited = us_pipeline.answer(
            "Who is the head of government in America?")
        base = us_pipeline.answer(
            "Who is the head of government in America?", use_evidence=False)
        assert edited.text == "Joe Biden"
        assert base.text == "Obama"

    def test_trace_records_stages(self, us_pipeline):
        answer, trace = us_pipeline.answer_traced(
            "Who is the current head of government for Sioux Falls?")
        assert trace.entities == ("Sioux Falls",)
        assert trace.cache_misses == 1  # cold store read through
        assert len(trace.evidence) == 1
        assert set(trace.latencies) == {"extract", "retrieve", "rank",
                                        "assemble", "generate"}
        assert all(v >= 0 for v in trace.latencies.values())
        answer, trace = us_pipeline.answer_traced(
            "Who is the current head of government for Sioux Falls?")
        assert trace.cache_hits == 1

    def test_latencies_are_the_steps_between_the_clock_readings(
            self, us_pipeline):
        _, trace = us_pipeline.answer_traced(
            "Who is the current head of government for Sioux Falls?")
        latencies, clock = trace.latencies, trace.clock
        assert list(latencies) == ["extract", "retrieve", "rank", "assemble",
                                   "generate"]
        assert len(clock) == 6
        for i, latency in enumerate(latencies.values()):
            assert latency == clock[i + 1] - clock[i] >= 0

    def test_multi_entity_query_unions_retrievals(self, us_pipeline):
        query = "Does Joe Biden lead America?"
        us_pipeline.k = 10  # rank every candidate, not just the best
        _, trace = us_pipeline.answer_traced(query)
        assert set(trace.entities) == {"Joe Biden", "America"}
        retrieved = TripleSet(t for entity in trace.entities
                              for t in us_pipeline.store.retrieve(entity))
        assert len(trace.evidence) == len(retrieved) > 1
        assert trace.evidence == rank_triples(query, retrieved, 10)

    def test_an_edit_is_ranked_from_its_own_vector(self, us_pipeline):
        query = "Who is the head of government in America?"
        for j in range(ranking_module.UNINDEXED_MAX):  # a view to index
            us_pipeline.store.slow.put(triple(
                "America", f"X{j}", f"w{j}", relation_label=f"attribute {j}",
                source=Source.WIKIDATA, fetched_at=SNAPSHOT))
        us_pipeline.answer(query)  # ranks, and so indexes, the America view
        view = us_pipeline.store.retrieve("America")
        assert len(view) > ranking_module.UNINDEXED_MAX
        assert view.rank_index is not None
        us_pipeline.store.apply_update(EditRequest(
            "America", "capital", "Q1",
            object_label="who is the head of government in America"))
        new = us_pipeline.store.get("America", "capital")
        _, trace = us_pipeline.answer_traced(query)
        assert trace.evidence.selected == (new,)
        assert trace.evidence.triples[0][1] == \
            token_cosine(query, new.render())

    def test_model_is_not_a_positional_argument(self, us_pipeline):
        with pytest.raises(TypeError):
            us_pipeline.answer("Who is the head of government in America?",
                               TaskKind.QA, MockTableModel())

    @pytest.mark.parametrize("k", [0, -1])
    def test_a_selection_count_below_one_is_refused(self, us_pipeline, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            Pipeline(store=us_pipeline.store, aliases=us_pipeline.aliases,
                     model=MockTableModel(), k=k)
        assert us_pipeline.store.slow.fetch_log == []  # nothing was read

    @pytest.mark.parametrize("query", [
        "hello there", "Who is the head of government of America?"])
    def test_a_selection_count_set_below_one_is_refused(self, us_pipeline,
                                                        query):
        us_pipeline.k = 0  # after construction
        with pytest.raises(ValueError, match="k must be >= 1, not 0"):
            us_pipeline.answer(query)
        assert us_pipeline.store.slow.fetch_log == []  # nothing was read

    @pytest.mark.parametrize("model, extractor, message", [
        (None, ExtractorKind.ALIAS_DICTIONARY, "no model client configured"),
        (GenerateOnlyModel(), ExtractorKind.MODEL_PROMPTED,
         "model-prompted extraction needs a client with complete_text")],
        ids=["no-model", "no-complete-text"])
    def test_a_model_that_cannot_serve_the_answer_is_refused(
            self, us_pipeline, model, extractor, message):
        pipeline = Pipeline(store=us_pipeline.store,
                            aliases=us_pipeline.aliases, model=model,
                            extractor=extractor)
        with pytest.raises(ValueError, match=message):
            pipeline.answer("Who is the head of government in America?")
        assert us_pipeline.store.slow.fetch_log == []  # nothing was read

    def test_format_invariance_across_phrasings(self, us_pipeline, templates):
        hog = templates["head of government"]
        phrasings = [
            hog.template(TaskKind.QA).replace("{}", "America"),
            hog.template(TaskKind.CLOZE).replace("{}", "America"),
            hog.template(TaskKind.COMPLETION).replace("{}", "America"),
        ]
        tasks = [TaskKind.QA, TaskKind.CLOZE, TaskKind.COMPLETION]
        selected = []
        for query, task in zip(phrasings, tasks):
            _, trace = us_pipeline.answer_traced(query, task)
            selected.append(tuple(t.key for t in trace.evidence.selected))
        assert selected[0] == selected[1] == selected[2]

    def test_evidence_determinism(self, us_pipeline):
        query = "Who is the current head of government for Sioux Falls?"
        _, first = us_pipeline.answer_traced(query)
        _, second = us_pipeline.answer_traced(query)
        assert first.prompt.render() == second.prompt.render()


def chain_world(templates, hops):
    chain = [triple(f"Person {i}", "spouse", f"Person {i + 1}",
                    source=Source.SYNTHETIC)
             for i in range(hops)]
    item = build_multihop(chain, templates)
    store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
    for link in chain:
        store.apply_update(EditRequest(
            subject=link.subject, relation=link.relation,
            new_object=link.obj, relation_label=link.relation_label))
    aliases = AliasIndex.from_triples(TripleSet(chain))
    pipeline = Pipeline(store=store, aliases=aliases, model=MockTableModel())
    return item, pipeline


class TestMultihop:
    def test_two_hop_chain(self, us_pipeline, templates):
        chain = [
            triple("America", "head of government", "Joe Biden",
                   source=Source.SYNTHETIC),
            triple("Joe Biden", "spouse", "Jill Biden",
                   source=Source.SYNTHETIC),
        ]
        item = build_multihop(chain, templates)
        for mode in (MultihopMode.DECOMPOSE, MultihopMode.DIALOGUE):
            answer = us_pipeline.answer_multihop(item, mode)
            assert answer.text == "Jill Biden", mode

    @pytest.mark.parametrize("hops", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", [MultihopMode.DECOMPOSE,
                                      MultihopMode.DIALOGUE])
    def test_full_chains_reach_the_final_object(self, templates, hops, mode):
        item, pipeline = chain_world(templates, hops)
        assert pipeline.answer_multihop(item, mode).text == \
            f"Person {hops}"

    def test_missing_second_hop_fails_at_two(self, us_pipeline, templates):
        chain = [
            triple("America", "head of government", "Joe Biden",
                   source=Source.SYNTHETIC),
            triple("Joe Biden", "spouse", "Jill Biden",
                   source=Source.SYNTHETIC),
        ]
        item = build_multihop(chain, templates)
        # hop 2's fact must be absent from the fast table AND the slow tier
        us_pipeline.store.reset()
        us_pipeline.store.slow.remove("Joe Biden", "spouse")
        us_pipeline.store.apply_update(EditRequest(
            "America", "head of government", "Joe Biden",
            relation_label="head of government"))
        with pytest.raises(HopFailed) as exc:
            us_pipeline.answer_multihop(item, MultihopMode.DECOMPOSE)
        assert exc.value.hop == 2

    def test_decompose_follows_updated_intermediates(self, templates):
        item, pipeline = chain_world(templates, 2)
        # reroute hop 1 to a new intermediate owning nothing known, then
        # cache the rerouted continuation
        pipeline.store.apply_update(EditRequest(
            "Person 0", "spouse", "New Spouse", relation_label="spouse"))
        pipeline.store.apply_update(EditRequest(
            "New Spouse", "spouse", "Final Partner", relation_label="spouse"))
        pipeline.aliases.add("New Spouse", "New Spouse")
        answer = pipeline.answer_multihop(item, MultihopMode.DECOMPOSE)
        assert answer.text == "Final Partner"

    def test_the_sample_amtrak_chain_separates_the_two_modes(self,
                                                              templates):
        # hop 1 selects Route 128 station, but the mock cannot verbalize it
        # from "What entities does Amtrak owns?": decompose follows the
        # selected object, while dialogue names the answer
        sample = Path(__file__).parent.parent / "sample_data"
        _, triples = read_dump(sample / "dump.jsonl")
        [item] = [i for i in build_multihop_benchmark(triples, templates, 2)
                  if i.chain[0].subject == "Amtrak"]
        store = TieredFactStore(slow=LocalDumpSource(sample / "dump.jsonl"))
        pipeline = Pipeline(store=store,
                            aliases=AliasIndex.from_triples(triples),
                            model=MockTableModel())
        answer = pipeline.answer_multihop(item, MultihopMode.DECOMPOSE)
        assert answer.text == "Westwood"
        with pytest.raises(HopFailed) as exc:
            pipeline.answer_multihop(item, MultihopMode.DIALOGUE)
        assert exc.value.hop == 2


class FirstEvidenceModel:
    """Answers with the first evidence fact's object, and keeps the query of
    each prompt under its task."""

    def __init__(self):
        self.asked: dict[TaskKind, list[str]] = {}

    def generate(self, prompt):
        self.asked.setdefault(prompt.task, []).append(prompt.query)
        return ModelAnswer(text=prompt.evidence[0].object_label)


@settings(max_examples=50, deadline=None)
@given(hops=st.integers(2, 5), data=st.data())
def test_both_modes_ask_the_same_question_at_every_hop(hops, data):
    # a model that answers with the selected fact's object makes the last
    # answer and the last selected object one name, so the one rule asks
    # alike in both modes, also where an edit reroutes the chain
    item, pipeline = chain_world(load_relation_templates(), hops)
    rerouted = data.draw(st.none() | st.integers(0, hops - 2))
    if rerouted is not None:
        for subject, obj in ((f"Person {rerouted}", "Someone New"),
                             ("Someone New", f"Person {rerouted + 2}")):
            pipeline.store.apply_update(EditRequest(
                subject, "spouse", obj, relation_label="spouse"))
        pipeline.aliases.add("Someone New", "Someone New")
    pipeline.model = model = FirstEvidenceModel()
    for mode in (MultihopMode.DECOMPOSE, MultihopMode.DIALOGUE):
        assert pipeline.answer_multihop(item, mode).text == f"Person {hops}"
    assert len(model.asked[TaskKind.MULTI_HOP_QA]) == hops
    assert model.asked[TaskKind.DIALOGUE] == model.asked[TaskKind.MULTI_HOP_QA]


def test_concurrent_answers_interleave_with_writers(us_pipeline):
    query = "Who is the head of government in America?"
    objects = [f"Leader {i}" for i in range(20)]
    answers: list[str] = []
    errors: list[Exception] = []

    def reader():
        try:
            for _ in range(20):
                answers.append(us_pipeline.answer(query).text)
        except Exception as exc:  # noqa: BLE001 - the assertion is "none"
            errors.append(exc)

    def writer():
        for obj in objects:
            us_pipeline.store.apply_update(EditRequest(
                "America", "head of government", obj,
                relation_label="head of government"))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not errors
    # every answer is either the pre-edit object or one of the writes
    allowed = {"Joe Biden", *objects}
    assert set(answers) <= allowed
    assert us_pipeline.answer(query).text == "Leader 19"  # last writer wins


def test_threads_answering_distinct_questions_share_the_memos(monkeypatch):
    # memos small enough that every thread keeps filling both of them
    monkeypatch.setattr(pipeline_module, "ALIAS_MEMO_SIZE", 4)
    monkeypatch.setattr(ranking_module, "RANK_MEMO_SIZE", 4)
    facts = [triple("Q30", f"P{i}", f"Q{100 + i}",
                    subject_label="United States",
                    relation_label=f"relation {chr(97 + i)}",
                    object_label=f"Person {chr(97 + i)}")
             for i in range(26)]

    def fresh_pipeline():
        aliases = AliasIndex()
        aliases.add("United States", "Q30")
        store = TieredFactStore(slow=InMemorySlowSource(facts),
                                prefetch_depth=0)
        return Pipeline(store=store, aliases=aliases, model=MockTableModel())

    # 16,000 distinct questions: memos that iterated their dict to evict
    # failed 9 of 10 runs of this test (2 CPUs, CPython 3.11)
    questions = [[f"What is relation {chr(97 + (reader + n) % 26)} of the "
                  f"United States, question {n} of reader {reader}?"
                  for n in range(4000)]
                 for reader in range(4)]
    single = fresh_pipeline()
    expected = [[single.answer(q).text for q in qs] for qs in questions]
    shared = fresh_pipeline()
    shared.store.retrieve("Q30")  # every thread then ranks this one view
    answers: dict[int, list[str]] = {}
    errors: list[Exception] = []

    def reader(index):
        try:
            answers[index] = [shared.answer(q).text
                              for q in questions[index]]
        except Exception as exc:  # noqa: BLE001 - the assertion is "none"
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [answers[i] for i in range(4)] == expected


def test_aliases_for_items_covers_locality_probes(templates):
    import random

    from factcache.dataset import build_item

    t = triple("Sioux Falls", "head of government", "Paul Ten Haken")
    locality = triple("Viarmes", "head of government", "William Rouyer")
    item = build_item(t, templates["head of government"],
                      ["Theodor Leutwein", "Lothar von Trotha"], locality,
                      random.Random(1))
    index = aliases_for_items([item])
    assert index.lookup("Sioux Falls") == "Sioux Falls"
    assert index.lookup("Paul Ten Haken") == "Paul Ten Haken"
    assert index.lookup("Viarmes") == "Viarmes"
    assert index.lookup("William Rouyer") == "William Rouyer"


def old_item_pairs(items):
    """(surface, entity id) for every label an item set can mention, by the
    pair rule aliases_for_items must keep: a subject label names its
    subject, an entity object's label its object, and a locality probe's
    subject and object labels name themselves."""
    for item in items:
        multihop = isinstance(item, MultiHopItem)
        for t in item.chain if multihop else (item.triple,):
            yield t.subject_label, t.subject
            if t.object_is_entity:
                yield t.object_label, t.obj
        if not multihop:
            yield item.locality_subject, item.locality_subject
            yield item.locality_object, item.locality_object


# labels that collide with each other once tokenized, and with the ids;
# two are not ASCII, so a batch takes both paths of `tokenize_all`
ITEM_LABELS = st.sampled_from(["Paris", "paris", "New York", "new-york",
                               "York", "Q1", "q2", "York New", "Z\u00fcrich",
                               "\u212aelvin", "kelvin"])


@st.composite
def benchmark_items(draw):
    """A single-hop or a multi-hop item over drawn ids and labels."""
    ids = st.sampled_from(["Q1", "Q2", "Q3", "Paris"])
    if draw(st.booleans()):
        subjects = draw(st.lists(ids, min_size=3, max_size=4))
        chain = tuple(triple(s, "r", o, subject_label=draw(ITEM_LABELS),
                             object_label=draw(ITEM_LABELS),
                             object_is_entity=draw(st.booleans()))
                      for s, o in zip(subjects, subjects[1:]))
        return MultiHopItem(chain, ("q",) * len(chain), "{}?")
    t = triple(draw(ids), "r", draw(ids), subject_label=draw(ITEM_LABELS),
               object_label=draw(ITEM_LABELS),
               object_is_entity=draw(st.booleans()))
    return BenchmarkItem(
        t, {TaskKind.CHOICE: f"Who?\nA:zz B:{t.object_label} C:yy"},
        draw(ITEM_LABELS.filter(lambda label: label != t.subject_label)),
        draw(ITEM_LABELS), "q")


@settings(max_examples=150, deadline=None)
@given(st.lists(benchmark_items(), max_size=6))
def test_aliases_for_items_registers_as_the_pair_rule_row_by_row(items):
    expected = AliasIndex()
    for surface, entity_id in old_item_pairs(items):
        expected.add(surface, entity_id)
    index = aliases_for_items(items)
    assert index._by_tokens == expected._by_tokens
    assert index._lengths == expected._lengths
