from __future__ import annotations

import json
import random

import pytest

from factcache.cache import InMemorySlowSource, TieredFactStore
from factcache.dataset import build_item, build_multihop
from factcache.errors import EmptySet, HopFailed
from factcache.harness import (REFERENCE_MULTIHOP_EM, run_main_eval,
                               run_multihop_scenario, run_scale_scenario,
                               run_transition_scenario)
from factcache.models import MockTableModel
from factcache.pipeline import (AliasIndex, MultihopMode, Pipeline,
                                aliases_for_items)
from factcache.triples import Source, TaskKind
from conftest import triple


def desk_set(templates, n=6, prior_hits=0):
    """n single-hop items over distinct facts, plus a mock whose priors
    answer prior_hits of the locality probes correctly (and none of the
    task queries)."""
    hog = templates["head of government"]
    facts, locality_facts = [], []
    for i in range(n):
        facts.append(triple(f"Town {i}", "head of government", f"Mayor {i}",
                            source=Source.SYNTHETIC))
        locality_facts.append(triple(f"Village {i}", "head of government",
                                     f"Reeve {i}", source=Source.SYNTHETIC))
    rng = random.Random(11)
    items = [
        build_item(fact, hog,
                   [f"Mayor {(i + 1) % n}", f"Mayor {(i + 2) % n}"],
                   locality_facts[i], rng)
        for i, fact in enumerate(facts)
    ]
    priors = {}
    for item in items[:prior_hits]:
        priors[item.locality_query] = item.locality_object
    model = MockTableModel(priors=priors)
    store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
    pipeline = Pipeline(store=store, aliases=aliases_for_items(items),
                        model=model)
    return items, pipeline


class TestMainEval:
    def test_fully_cached_desk_set_is_perfect(self, templates):
        items, pipeline = desk_set(templates)
        report = run_main_eval(items, pipeline)
        assert set(report.per_task_em) == {
            "qa", "completion", "cloze", "choice", "fact_check"}
        assert all(em == 100.0 for em in report.per_task_em.values())
        assert report.em_macro == 100.0
        assert report.em_micro == 100.0
        assert report.dd == 0.0
        assert report.nkl == pytest.approx(0.0, abs=1e-9)
        assert report.sure_score == 100.0
        assert report.items == len(items)
        assert report.wall_time_s > 0

    def test_a_distractor_that_contains_the_gold_is_judged_false(
            self, templates):
        paris = triple("France", "capital", "Paris", source=Source.SYNTHETIC)
        item = build_item(paris, templates["capital"],
                          ["Paris Saint-Germain", "Lyon"],
                          triple("Italy", "capital", "Rome"),
                          random.Random(0), fc_truth=False)
        assert item.queries[TaskKind.FACT_CHECK].endswith(
            "Paris Saint-Germain.")
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        pipeline = Pipeline(store=store, aliases=aliases_for_items([item]),
                            model=MockTableModel())
        report = run_main_eval([item], pipeline)
        assert report.per_task_em["fact_check"] == 100.0

    def test_base_em_equals_the_prior_hit_rate(self, templates):
        items, pipeline = desk_set(templates)
        # priors answer exactly 2 of 6 QA queries
        for item in items[:2]:
            pipeline.model.priors[item.queries[TaskKind.QA]] = item.gold
        report = run_main_eval(items, pipeline, use_evidence=False)
        assert report.per_task_em["qa"] == pytest.approx(100 * 2 / 6)
        assert report.dd == 0.0  # base vs base: no degradation

    def test_locality_baseline_feeds_dd(self, templates):
        items, pipeline = desk_set(templates, prior_hits=3)
        report = run_main_eval(items, pipeline)
        assert report.base_locality_em == pytest.approx(50.0)
        assert report.edited_locality_em == pytest.approx(50.0)
        assert report.dd == 0.0

    def test_empty_items_rejected(self, templates):
        _, pipeline = desk_set(templates)
        with pytest.raises(EmptySet):
            run_main_eval([], pipeline)

    def test_report_serializes(self, templates):
        items, pipeline = desk_set(templates, n=3)
        report = run_main_eval(items, pipeline)
        payload = json.loads(report.to_json())
        assert payload["sure"] == 100.0
        assert payload["nkl_scaled"] == pytest.approx(0.0, abs=1e-5)
        table = report.format_table()
        assert "SURE" in table and "NKL(1e-4)" in table

    def test_nkl_unavailable_without_distributions(self, templates):
        class NoDistributionMock(MockTableModel):
            def generate(self, prompt):
                answer = super().generate(prompt)
                return type(answer)(text=answer.text, distribution=None)

        items, pipeline = desk_set(templates, n=3)
        pipeline.model = NoDistributionMock()
        report = run_main_eval(items, pipeline)
        assert report.nkl is None
        assert report.nkl_scaled is None
        assert "*" in report.format_table()


class TestTransitionScenario:
    def test_em_is_flat_across_edit_counts(self, templates):
        items, pipeline = desk_set(templates)
        curve = run_transition_scenario(items, pipeline)
        assert list(curve) == [1, 2, 5, 10]
        assert set(curve.values()) == {100.0}

    def test_single_edit_matches_main_eval_qa(self, templates):
        items, pipeline = desk_set(templates)
        curve = run_transition_scenario(items, pipeline, edit_counts=(1,))
        pipeline.store.reset()
        report = run_main_eval(items, pipeline)
        assert curve[1] == report.per_task_em["qa"]


class TestScaleScenario:
    def test_em_flat_and_latency_recorded(self, templates):
        _, pipeline = desk_set(templates)
        points = run_scale_scenario(pipeline, sizes=(1, 10, 100),
                                    probe_count=10, latency_samples=30)
        assert [p.em for p in points.values()] == [100.0, 100.0, 100.0]
        for p in points.values():
            assert p.median_lookup_s >= 0
            assert p.median_answer_s > 0

    def test_size_one_baseline(self, templates):
        _, pipeline = desk_set(templates)
        points = run_scale_scenario(pipeline, sizes=(1,), probe_count=5,
                                    latency_samples=5)
        assert points[1].em == 100.0


def spouse_chain_items(templates, hop_counts=(2, 3, 4, 5)):
    items = []
    for hops in hop_counts:
        chain = [triple(f"H{hops} Person {i}", "spouse",
                        f"H{hops} Person {i + 1}", source=Source.SYNTHETIC)
                 for i in range(hops)]
        items.append(build_multihop(chain, templates))
    return items


class TestMultihopScenario:
    def test_fully_cached_chains_score_perfectly(self, templates):
        items = spouse_chain_items(templates)
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        pipeline = Pipeline(store=store, aliases=aliases_for_items(items),
                            model=MockTableModel())
        report = run_multihop_scenario(items, pipeline)
        for mode in (MultihopMode.DECOMPOSE.value, MultihopMode.DIALOGUE.value):
            assert report.em[mode] == {2: 100.0, 3: 100.0, 4: 100.0, 5: 100.0}
        assert report.counts == {2: 1, 3: 1, 4: 1, 5: 1}

    def test_reference_points_are_recorded_not_asserted(self, templates):
        items = spouse_chain_items(templates, hop_counts=(2,))
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        pipeline = Pipeline(store=store, aliases=aliases_for_items(items),
                            model=MockTableModel())
        report = run_multihop_scenario(items, pipeline)
        assert report.reference_em["decompose"][2] == \
            REFERENCE_MULTIHOP_EM[("decompose", 2)]
        payload = report.to_dict()
        assert payload["reference_em"]["dialogue"][2] == 94.6
        assert "reference" in report.format_table()

    def test_broken_chain_scores_zero(self, templates):
        items = spouse_chain_items(templates, hop_counts=(3,))
        middle = items[0].chain[1].subject_label
        # hop 2 asks about the middle entity, which no surface names
        aliases = AliasIndex()
        for link in items[0].chain:
            for label, entity in ((link.subject_label, link.subject),
                                  (link.object_label, link.obj)):
                if label != middle:
                    aliases.add(label, entity)
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        pipeline = Pipeline(store=store, aliases=aliases,
                            model=MockTableModel())
        report = run_multihop_scenario(items, pipeline)
        assert report.em == {"decompose": {3: 0.0}, "dialogue": {3: 0.0}}
        with pytest.raises(HopFailed) as failed:
            pipeline.answer_multihop(items[0])
        assert failed.value.hop == 2

    def test_empty_items_rejected(self, templates):
        _, pipeline = desk_set(templates)
        with pytest.raises(EmptySet):
            run_multihop_scenario([], pipeline)
