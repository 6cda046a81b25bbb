from __future__ import annotations

import dataclasses
import json
import random

import pytest

from factcache.dataset import (BenchmarkItem, MultiHopItem, build_benchmark,
                               build_item, build_multihop,
                               build_multihop_benchmark, dialogue_turn,
                               emit_benchmark,
                               fill_template, load_benchmark,
                               load_relation_templates, pronoun_for,
                               record_line, substitute_pronoun)
from factcache.errors import (BadTemplate, BrokenChain, DistractorCollision,
                              ParseError, SchemaViolation)
from factcache.metrics import em_score
from factcache.triples import EntityRef, Source, TaskKind
from conftest import FIXTURES, triple

QA_TEMPLATE = "Who is the current head of government for {}?"


class TestFillTemplate:
    def test_qa_template(self):
        assert fill_template(QA_TEMPLATE, "Sioux Falls") == \
            "Who is the current head of government for Sioux Falls?"

    def test_cloze_template(self):
        assert fill_template("() is the head of government in {}.",
                             "Sioux Falls") == \
            "() is the head of government in Sioux Falls."

    def test_missing_placeholder(self):
        with pytest.raises(BadTemplate):
            fill_template("No placeholder here.", "x")

    def test_double_placeholder(self):
        with pytest.raises(BadTemplate):
            fill_template("{} and {}", "x")


def sioux_falls_item(templates, seed=1, fc_truth=True):
    hog = templates["head of government"]
    t = triple("Sioux Falls", "head of government", "Paul Ten Haken",
               source=Source.SYNTHETIC)
    locality = triple("Viarmes", "head of government", "William Rouyer",
                      source=Source.SYNTHETIC)
    return build_item(t, hog, ["Theodor Leutwein", "Lothar von Trotha"],
                      locality, random.Random(seed), fc_truth=fc_truth)


class TestBuildItem:
    def test_reproduces_reference_queries(self, templates):
        item = sioux_falls_item(templates)
        assert item.queries[TaskKind.QA] == \
            "Who is the current head of government for Sioux Falls?"
        assert item.queries[TaskKind.CLOZE] == \
            "() is the head of government in Sioux Falls."
        assert item.queries[TaskKind.COMPLETION] == \
            "The head of government for Sioux Falls is"
        # seed 1 shuffles the options into the reference arrangement
        assert item.queries[TaskKind.CHOICE] == (
            "Who holds the position of head of government in Sioux Falls?"
            "\nA:Theodor Leutwein B:Lothar von Trotha C:Paul Ten Haken")
        assert item.queries[TaskKind.FACT_CHECK] == (
            "Determine whether the proposition is true.\nProposition:"
            "The head of government for Sioux Falls is Paul Ten Haken.")
        assert item.locality_query == \
            "Who is the current head of government for Viarmes?"
        assert item.gold == "Paul Ten Haken"

    def test_false_proposition_uses_a_distractor(self, templates):
        item = sioux_falls_item(templates, fc_truth=False)
        assert "Paul Ten Haken" not in item.queries[TaskKind.FACT_CHECK]
        assert item.gold_for(TaskKind.FACT_CHECK) == "False"

    @pytest.mark.parametrize("proposition, truth", [
        ("Scale Town is led by Mayor 1.", True),
        ("Scale Town is led by Mayor 10.", False)],
        ids=["names-the-gold", "names-a-longer-name"])
    def test_a_foreign_proposition_must_name_the_gold_whole(
            self, templates, proposition, truth):
        item = build_item(
            triple("Scale Town", "head of government", "Mayor 1"),
            templates["head of government"], ["Mayor 2", "Mayor 3"],
            triple("Viarmes", "head of government", "William Rouyer"),
            random.Random(0))
        foreign = dataclasses.replace(item, queries={
            **item.queries, TaskKind.FACT_CHECK: proposition})
        assert foreign.fc_truth is truth

    def test_distractor_equal_to_gold_rejected(self, templates):
        hog = templates["head of government"]
        t = triple("Sioux Falls", "head of government", "Paul Ten Haken")
        locality = triple("Viarmes", "head of government", "William Rouyer")
        with pytest.raises(DistractorCollision):
            build_item(t, hog, ["Paul Ten Haken", "Lothar von Trotha"],
                       locality, random.Random(0))

    def test_locality_must_share_relation(self, templates):
        hog = templates["head of government"]
        t = triple("Sioux Falls", "head of government", "Paul Ten Haken")
        wrong = triple("France", "capital", "Paris")
        with pytest.raises(SchemaViolation):
            build_item(t, hog, ["a", "b"], wrong, random.Random(0))

    def test_locality_must_differ_in_subject(self, templates):
        hog = templates["head of government"]
        t = triple("Sioux Falls", "head of government", "Paul Ten Haken")
        same = triple("Sioux Falls", "head of government", "Someone Else")
        with pytest.raises(SchemaViolation):
            build_item(t, hog, ["a", "b"], same, random.Random(0))

    @pytest.mark.parametrize("seed", range(12))
    def test_choice_contains_gold_exactly_once(self, templates, seed):
        item = sioux_falls_item(templates, seed=seed, fc_truth=None)
        texts = [text for _, text in item.choice_options]
        assert texts.count("Paul Ten Haken") == 1
        assert sorted(letter for letter, _ in item.choice_options) == \
            ["A", "B", "C"]

    def test_options_their_line_would_misread_are_refused(self, templates):
        # first on the line, "Al B: Gore" reads back as "Al" and " Gore B:..";
        # elsewhere it reads back whole, through a record too
        t = triple("America", "head of government", "Joe Biden")
        locality = triple("Viarmes", "head of government", "William Rouyer")
        refused = 0
        for seed in range(12):
            try:
                item = build_item(t, templates["head of government"],
                                  ["Al B: Gore", "Bush"], locality,
                                  random.Random(seed))
            except SchemaViolation as exc:
                assert "misread" in str(exc)
                refused += 1
                continue
            loaded = BenchmarkItem.from_record(item.to_record())
            assert sorted(loaded.option_map().values()) == \
                ["Al B: Gore", "Bush", "Joe Biden"]
        assert 0 < refused < 12

    def test_a_choice_query_without_an_options_line_is_refused(
            self, templates):
        item = sioux_falls_item(templates)
        with pytest.raises(SchemaViolation):
            dataclasses.replace(item, queries={
                **item.queries, TaskKind.CHOICE: "Who heads Sioux Falls?"})


class TestReadChoice:
    def test_every_letter_form_reads_as_its_option(self, templates):
        golds = {}
        for seed in range(12):
            item = sioux_falls_item(templates, seed=seed, fc_truth=None)
            letter = next(letter for letter, text in item.choice_options
                          if text == item.gold)
            golds.setdefault(letter, item)
        assert sorted(golds) == ["A", "B", "C"]
        for letter, item in golds.items():
            for answer in (letter, letter.lower(), f"{letter}.",
                           f"({letter})", f" {letter} "):
                assert item.read_choice(answer) == item.gold, answer

    def test_choice_accepts_the_bare_letter(self, templates):
        item = sioux_falls_item(templates)  # A, B, C: Leutwein, Trotha, Haken
        assert em_score([(item.read_choice("C"), item.gold)]) == 100.0
        assert item.read_choice("A") == "Theodor Leutwein"
        assert em_score([(item.read_choice("A"), item.gold)]) == 0.0

    def test_choice_accepts_the_option_text_too(self, templates):
        item = sioux_falls_item(templates)
        assert em_score([(item.read_choice(item.gold), item.gold)]) == 100.0
        # an answer that names no letter comes back as given
        for answer in ("Paul Ten Haken", "Lothar von Trotha", "D", "AB",
                       "a b", "", "I don't know"):
            assert item.read_choice(answer) == answer


AMTRAK_CHAIN = [
    triple("Amtrak", "owner of", "Route 128 station", source=Source.SYNTHETIC),
    triple("Route 128 station",
           "located in the administrative territorial entity", "Westwood",
           source=Source.SYNTHETIC),
]


class TestBuildMultihop:
    def test_amtrak_chain_matches_reference_format(self, templates):
        item = build_multihop(AMTRAK_CHAIN, templates)
        assert item.multihop_query == (
            "In which administrative territorial entity is the entities {} "
            "owns located?")
        assert fill_template(item.multihop_query, "Amtrak") == (
            "In which administrative territorial entity is the entities "
            "Amtrak owns located?")
        assert item.hop_queries[0] == "What entities does Amtrak owns?"
        assert item.hop_queries[1] == ("In which administrative territorial "
                                       "entity is Route 128 station located?")
        assert item.final_gold == "Westwood"

    def test_dialogue_pronoun_for_tagged_person(self, templates):
        chain = [
            triple("America", "head of government", "Joe Biden",
                   source=Source.SYNTHETIC),
            triple("Joe Biden", "spouse", "Jill Biden",
                   source=Source.SYNTHETIC),
        ]
        entities = {"Joe Biden": EntityRef(id="Joe Biden", kind="person",
                                           gender="male")}
        item = build_multihop(chain, templates, entities)
        assert item.dialogue_turns[1] == "Who is his spouse?"

    def test_dialogue_pronoun_defaults_to_it(self, templates):
        item = build_multihop(AMTRAK_CHAIN, templates)
        assert item.dialogue_turns[1] == (
            "In which administrative territorial entity is it located?")

    def test_three_hop_nesting(self, templates):
        chain = [
            triple("America", "head of government", "Joe Biden"),
            triple("Joe Biden", "spouse", "Jill Biden"),
            triple("Jill Biden", "employer", "NOVA"),
        ]
        item = build_multihop(chain, templates)
        assert item.multihop_query == (
            "Who is the employer of the spouse of the head of government "
            "in {}?")

    def test_broken_chain_rejected(self, templates):
        broken = [
            triple("America", "head of government", "Joe Biden"),
            triple("Someone Else", "spouse", "Jill Biden"),
        ]
        with pytest.raises(BrokenChain):
            build_multihop(broken, templates)

    @pytest.mark.parametrize("length", [1, 6])
    def test_length_bounds(self, templates, length):
        chain = [triple(f"e{i}", "spouse", f"e{i + 1}")
                 for i in range(length)]
        with pytest.raises(BrokenChain):
            build_multihop(chain, templates)

    @pytest.mark.parametrize("hop", [0, 1])
    def test_a_relation_without_templates_is_refused(self, templates, hop):
        chain = list(AMTRAK_CHAIN)
        chain[hop] = dataclasses.replace(chain[hop], relation="P999")
        with pytest.raises(BadTemplate, match="no templates registered for "
                                              "'P999'"):
            build_multihop(chain, templates)


def _fact(subject, relation, obj):
    return triple(subject, relation, obj, subject_label=subject,
                  object_label=obj)


class TestBuildFromDump:
    HOG = [_fact("Naples", "P6", "Gaetano Manfredi"),
           _fact("Kyoto", "P6", "Koji Matsui"),
           _fact("Paris", "P6", "Anne Hidalgo")]

    def test_items_come_in_key_order_whatever_the_input_order(self,
                                                              templates):
        other = [_fact("Gaetano Manfredi", "P26", "Cristina Bertoni"),
                 _fact("Paris", "P999", "no templates")]
        forward = build_benchmark(self.HOG + other, templates,
                                  random.Random(3))
        backward = build_benchmark((self.HOG + other)[::-1], templates,
                                   random.Random(3))
        assert [record_line(i) for i in forward] == \
            [record_line(i) for i in backward]
        # one spouse fact is too few for distractors; P999 has no templates
        assert [i.triple.subject for i in forward] == \
            ["Kyoto", "Naples", "Paris"]
        # the probe is the relation's next fact, wrapping around
        assert [i.locality_subject for i in forward] == \
            ["Naples", "Paris", "Kyoto"]

    def test_a_probe_never_shares_the_subject_label(self, templates):
        # two places named Springfield: neither probes the other
        facts = [triple("Q1", "P6", "Ann", subject_label="Springfield"),
                 triple("Q2", "P6", "Bob", subject_label="Springfield"),
                 triple("Q3", "P6", "Cy", subject_label="Shelbyville")]
        items = build_benchmark(facts, templates, random.Random(1))
        assert [(i.triple.subject, i.locality_subject) for i in items] == [
            ("Q1", "Shelbyville"), ("Q2", "Shelbyville"), ("Q3", "Springfield")]

    @pytest.mark.parametrize("capitals", [
        # two object labels: each fact has one distractor, not two
        [_fact("Austria", "P36", "Vienna"),
         _fact("Habsburg realm", "P36", "Vienna"),
         _fact("Hungary", "P36", "Budapest")],
        # three places named Springfield: none can probe another
        [triple(f"Q{n}", "P36", city, subject_label="Springfield")
         for n, city in enumerate(["Ann", "Bob", "Cy"])]],
        ids=["one-other-object-label", "one-subject-label"])
    def test_a_fact_without_distractors_or_a_probe_is_skipped(
            self, templates, capitals):
        items = build_benchmark(self.HOG + capitals, templates,
                                random.Random(1))
        assert [i.triple.subject for i in items] == ["Kyoto", "Naples",
                                                     "Paris"]

    def test_a_probe_shares_the_relation_id(self, templates):
        # one head of government named by label, as sample_data names it,
        # among three named P6, as data fetch writes them: one template
        # groups the four, and the fact with no probe of its id is skipped
        mixed = self.HOG + [_fact("Viarmes", "head of government",
                                  "William Rouyer")]
        items = build_benchmark(mixed, templates, random.Random(1))
        assert [(i.triple.subject, i.locality_subject) for i in items] == [
            ("Kyoto", "Naples"), ("Naples", "Paris"), ("Paris", "Kyoto")]

    def test_a_fact_whose_choice_line_would_misread_is_skipped(self,
                                                              templates):
        # first on the line, "Al B: Gore" reads back as "Al" and " Gore B:.."
        hog = self.HOG + [_fact("Viarmes", "P6", "Al B: Gore")]
        built = {seed: build_benchmark(hog, templates, random.Random(seed))
                 for seed in range(8)}
        assert min(map(len, built.values())) < 4  # some seeds skip a fact
        for items in built.values():
            for item in items:
                loaded = BenchmarkItem.from_record(item.to_record())
                assert loaded.option_map() == item.option_map()

    def test_chains_follow_objects_and_drop_dead_ends(self, templates):
        facts = [_fact("Westwood", "P17", "United States"),
                 _fact("Route 128 station", "P131", "Westwood"),
                 _fact("Amtrak", "P1830", "Route 128 station")]

        def subjects(hops):
            return [[t.subject for t in item.chain] for item in
                    build_multihop_benchmark(facts, templates, hops)]

        assert subjects(2) == [["Amtrak", "Route 128 station"],
                               ["Route 128 station", "Westwood"]]
        assert subjects(3) == [["Amtrak", "Route 128 station", "Westwood"]]
        assert subjects(4) == []


class TestPronouns:
    def test_pronoun_map(self):
        male = EntityRef(id="x", kind="person", gender="male")
        female = EntityRef(id="x", kind="person", gender="female")
        unknown = EntityRef(id="x", kind="person")
        place = EntityRef(id="x")
        assert pronoun_for(male, possessive=True) == "his"
        assert pronoun_for(female, possessive=True) == "her"
        assert pronoun_for(unknown, possessive=True) == "their"
        assert pronoun_for(place, possessive=True) == "its"
        assert pronoun_for(male, possessive=False) == "him"
        assert pronoun_for(None, possessive=False) == "it"

    def test_dialogue_turn_possessive_form(self):
        male = EntityRef(id="Joe Biden", kind="person", gender="male")
        assert dialogue_turn("Who is Joe Biden's spouse?", "Joe Biden",
                             male) == "Who is his spouse?"

    def test_dialogue_turn_plain_form(self):
        assert dialogue_turn("In which country is Westwood located?",
                             "Westwood") == "In which country is it located?"

    def test_substitute_possessive(self):
        assert substitute_pronoun("Who is his spouse?", "Joe Biden") == \
            "Who is Joe Biden's spouse?"

    def test_substitute_objective(self):
        assert substitute_pronoun(
            "In which administrative territorial entity is it located?",
            "Route 128 station") == ("In which administrative territorial "
                                     "entity is Route 128 station located?")

    def test_substitute_her_possessive_vs_objective(self):
        assert substitute_pronoun("Who is her spouse?", "Jill") == \
            "Who is Jill's spouse?"
        assert substitute_pronoun("Who employs her?", "Jill") == \
            "Who employs Jill?"


class TestLoadBenchmark:
    def test_reference_single_hop_record(self):
        items = load_benchmark(FIXTURES / "single_hop_item.jsonl")
        (item,) = items
        assert isinstance(item, BenchmarkItem)
        assert item.gold == "Paul Ten Haken"
        assert item.fc_truth is True
        assert item.option_map() == {
            "a": "Theodor Leutwein", "b": "Lothar von Trotha",
            "c": "Paul Ten Haken"}

    def test_reference_multihop_record(self):
        items = load_benchmark(FIXTURES / "multihop_item.jsonl")
        (item,) = items
        assert isinstance(item, MultiHopItem)
        assert item.hops == 2
        assert item.chain[0].subject == "Amtrak"
        assert item.chain[1].obj == "Westwood"
        assert item.final_gold == "Westwood"

    def test_reference_records_reemit_byte_identically(self):
        for name in ("single_hop_item.jsonl", "multihop_item.jsonl"):
            original = (FIXTURES / name).read_text(encoding="utf-8")
            (item,) = load_benchmark(FIXTURES / name)
            assert record_line(item) + "\n" == original

    def test_missing_field_is_a_schema_violation(self, tmp_path):
        record = json.loads(
            (FIXTURES / "single_hop_item.jsonl").read_text())
        del record["object_label"]
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaViolation) as exc:
            load_benchmark(path)
        assert exc.value.line == 1

    def test_bad_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ParseError):
            load_benchmark(path)

    def test_lenient_mode_skips_invalid_lines(self, tmp_path):
        good = (FIXTURES / "single_hop_item.jsonl").read_text()
        path = tmp_path / "mixed.jsonl"
        path.write_text("{broken\n" + good)
        items = load_benchmark(path, strict=False)
        assert len(items) == 1

    @pytest.mark.parametrize("line, key", [
        ("5", "JSON object"),
        ("[]", "JSON object"),
        (json.dumps({**json.loads(
            (FIXTURES / "multihop_item.jsonl").read_text()),
            "MultihopQA_query": 5}), "MultihopQA_query"),
        (json.dumps({**json.loads(
            (FIXTURES / "single_hop_item.jsonl").read_text()),
            "qa_query": ["x"]}), "qa_query")],
        ids=["int", "list", "int-multihop-query", "list-qa-query"])
    def test_a_record_of_the_wrong_type_is_a_schema_violation(
            self, tmp_path, line, key):
        path = tmp_path / "broken.jsonl"
        path.write_text((FIXTURES / "single_hop_item.jsonl").read_text()
                        + line + "\n")
        with pytest.raises(SchemaViolation) as exc:
            load_benchmark(path)
        assert exc.value.line == 2
        assert str(path) in str(exc.value) and key in str(exc.value)

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_bytes((FIXTURES / "single_hop_item.jsonl").read_bytes()
                         + b"\xff\xfe\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            load_benchmark(path)
        assert exc.value.line == 2 and str(path) in str(exc.value)

    def test_lenient_mode_skips_a_bad_line_of_any_kind(self, tmp_path):
        good = (FIXTURES / "single_hop_item.jsonl").read_bytes()
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b"5\n{broken\n\xff\n" + good)
        assert len(load_benchmark(path, strict=False)) == 1


class TestLoadRelationTemplates:
    ROW = {"id": "P6", "label": "head of government",
           "qa": ["Who heads {}?"], "completion": ["{} is headed by"],
           "cloze": ["() heads {}."], "choice": ["Who heads {}?"],
           "nest": ["the head of {}"]}

    def test_a_file_loads_keyed_by_id_and_label(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps([self.ROW]))
        templates = load_relation_templates(path)
        assert templates["P6"] is templates["head of government"]
        assert templates["P6"].template(TaskKind.CLOZE) == "() heads {}."

    @pytest.mark.parametrize("rows, key", [
        ([{k: v for k, v in ROW.items() if k != "label"}], "label is missing"),
        ([{**ROW, "nest": "the head of {}"}], "nest"),
        ([{**ROW, "qa": ["Who heads it?"]}], "qa must be"),
        ([{**ROW, "cloze": []}], "cloze must be a non-empty list"),
        ({"P6": ROW}, "JSON list")],
        ids=["no-label", "text-nest", "no-placeholder", "no-cloze",
             "not-a-list"])
    def test_a_bad_templates_file_is_a_parse_error(self, tmp_path, rows,
                                                   key):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(rows))
        with pytest.raises(ParseError) as exc:
            load_relation_templates(path)
        assert str(path) in str(exc.value) and key in str(exc.value)


class TestRoundTrip:
    def test_emit_then_load_reproduces_items(self, templates, tmp_path):
        entities = {"Joe Biden": EntityRef(id="Joe Biden", kind="person",
                                           gender="male")}
        single = sioux_falls_item(templates)
        multi = build_multihop([
            triple("America", "head of government", "Joe Biden",
                   source=Source.SYNTHETIC),
            triple("Joe Biden", "spouse", "Jill Biden",
                   source=Source.SYNTHETIC),
        ], templates, entities)
        path = tmp_path / "items.jsonl"
        emit_benchmark([single, multi], path)
        loaded = load_benchmark(path, entities=entities)
        assert loaded[0] == single
        assert loaded[1] == multi

    def test_nested_option_labels_round_trip_fc_truth(self, templates,
                                                      tmp_path):
        # "Paris" is a token-phrase inside "Paris Saint-Germain"; the false
        # proposition must still load back as false
        capital = templates["capital"]
        t = triple("France", "capital", "Paris", source=Source.SYNTHETIC)
        locality = triple("Sweden", "capital", "Stockholm",
                          source=Source.SYNTHETIC)
        item = build_item(t, capital, ["Paris Saint-Germain", "Lyon"],
                          locality, random.Random(3), fc_truth=False)
        assert "Paris Saint-Germain" in item.queries[TaskKind.FACT_CHECK] or \
            "Lyon" in item.queries[TaskKind.FACT_CHECK]
        path = tmp_path / "nested.jsonl"
        emit_benchmark([item], path)
        (loaded,) = load_benchmark(path)
        assert loaded.fc_truth is False

    def test_fixed_seed_emits_identical_bytes(self, templates, tmp_path):
        paths = []
        for run in range(2):
            items = [sioux_falls_item(templates, seed=99, fc_truth=None)
                     for _ in range(5)]
            path = tmp_path / f"run{run}.jsonl"
            emit_benchmark(items, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
