"""Scenario drivers: the main per-task evaluation plus the repeated-edit,
multi-hop, and bulk-scale protocols.

Every driver applies edits through the store's update path and then probes
through the full pipeline, so what is measured is the end-to-end edited
behavior. Reference EM values from the full-scale runs this harness mirrors
are recorded in reports for comparison; they are never asserted.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Optional, Sequence

from .dataset import BenchmarkItem, MultiHopItem, load_relation_templates
from .errors import EmptySet, HopFailed
from .metrics import (NKL_REPORT_SCALE, SUREParams, drawdown, em_score, nkl,
                      normalize_answer, sure)
from .pipeline import AliasIndex, MultihopMode, Pipeline
from .triples import SINGLE_HOP_TASKS, FactTriple, TaskKind

# Reference EM for the full-scale (real language model) runs, recorded in
# reports for side-by-side comparison. Percent scale.
REFERENCE_MULTIHOP_EM = {
    (MultihopMode.DECOMPOSE.value, 2): 96.0,
    (MultihopMode.DECOMPOSE.value, 3): 78.6,
    (MultihopMode.DECOMPOSE.value, 4): 42.7,
    (MultihopMode.DECOMPOSE.value, 5): 16.7,
    (MultihopMode.DIALOGUE.value, 2): 94.6,
    (MultihopMode.DIALOGUE.value, 3): 75.7,
    (MultihopMode.DIALOGUE.value, 4): 39.0,
    (MultihopMode.DIALOGUE.value, 5): 18.1,
}


def _align_support(p, q):
    """Zero-extend a distribution pair onto the union of their candidate
    sets; KL needs a shared support and the smoothing keeps it finite."""
    if p is None or q is None or p.keys() == q.keys():
        return p, q
    union = p.keys() | q.keys()
    return ({c: p.get(c, 0.0) for c in union},
            {c: q.get(c, 0.0) for c in union})


@dataclass
class EvalReport:
    """Per-task EM plus locality metrics and the composite score."""

    per_task_em: dict[str, float]
    em_macro: float
    em_micro: float
    base_locality_em: float
    edited_locality_em: float
    dd: float
    nkl: Optional[float]
    sure_score: float
    wall_time_s: float
    items: int

    @property
    def nkl_scaled(self) -> Optional[float]:
        """NKL with the 1e-4 reporting multiplier dropped."""
        return None if self.nkl is None else self.nkl * NKL_REPORT_SCALE

    def to_dict(self) -> dict:
        return {
            "per_task_em": self.per_task_em,
            "em_macro": self.em_macro,
            "em_micro": self.em_micro,
            "base_locality_em": self.base_locality_em,
            "edited_locality_em": self.edited_locality_em,
            "dd": self.dd,
            "nkl": self.nkl,
            "nkl_scaled": self.nkl_scaled,
            "sure": self.sure_score,
            "wall_time_s": self.wall_time_s,
            "items": self.items,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        lines = [f"{'task':<12} {'EM':>8}"]
        for task, em in self.per_task_em.items():
            lines.append(f"{task:<12} {em:>8.2f}")
        nkl_cell = "*" if self.nkl is None else f"{self.nkl_scaled:.2f}"
        lines += [
            f"{'EM (macro)':<12} {self.em_macro:>8.2f}",
            f"{'EM (micro)':<12} {self.em_micro:>8.2f}",
            f"{'DD':<12} {self.dd:>8.2f}",
            f"{'NKL(1e-4)':<12} {nkl_cell:>8}",
            f"{'SURE':<12} {self.sure_score:>8.2f}",
            f"{'items':<12} {self.items:>8d}",
            f"{'wall (s)':<12} {self.wall_time_s:>8.3f}",
        ]
        return "\n".join(lines)


def run_main_eval(items: Iterable[BenchmarkItem], pipeline: Pipeline,
                  params: SUREParams = SUREParams(),
                  use_evidence: bool = True) -> EvalReport:
    """Edit every item's fact, then score each task; DD and NKL come from
    the paired locality probes (base = evidence suppressed).

    use_evidence=False runs the whole evaluation with retrieval suppressed,
    which is the unedited-model baseline row.
    """
    single_hop = [i for i in items if isinstance(i, BenchmarkItem)]
    if not single_hop:
        raise EmptySet("no single-hop items to evaluate")
    started = time.perf_counter()

    for item in single_hop:
        pipeline.store.apply_update(item.triple)

    per_task_pairs: dict[TaskKind, list[tuple[str, str]]] = {}
    for item in single_hop:
        for task in SINGLE_HOP_TASKS:
            text = pipeline.answer(item.queries[task], task,
                                   use_evidence=use_evidence).text
            if task is TaskKind.CHOICE:
                text = item.read_choice(text)
            per_task_pairs.setdefault(task, []).append(
                (text, item.gold_for(task)))

    per_task_em: dict[str, float] = {}
    correct_weighted = 0.0
    total = 0
    for task, pairs in per_task_pairs.items():
        em = em_score(pairs)
        per_task_em[task.value] = em
        correct_weighted += em * len(pairs)
        total += len(pairs)
    em_macro = sum(per_task_em.values()) / len(per_task_em)
    em_micro = correct_weighted / total

    base_pairs, edited_pairs = [], []
    base_dists, edited_dists = [], []
    for item in single_hop:
        base = pipeline.answer(item.locality_query, TaskKind.LOCALITY,
                               use_evidence=False)
        edited = pipeline.answer(item.locality_query, TaskKind.LOCALITY,
                                 use_evidence=use_evidence)
        base_pairs.append((base.text, item.locality_object))
        edited_pairs.append((edited.text, item.locality_object))
        base_dist, edited_dist = _align_support(base.distribution,
                                                edited.distribution)
        base_dists.append(base_dist)
        edited_dists.append(edited_dist)
    base_em = em_score(base_pairs)
    edited_em = em_score(edited_pairs)
    dd = drawdown(base_em, edited_em)
    nkl_value = nkl(base_dists, edited_dists)

    return EvalReport(
        per_task_em=per_task_em,
        em_macro=em_macro,
        em_micro=em_micro,
        base_locality_em=base_em,
        edited_locality_em=edited_em,
        dd=dd,
        nkl=nkl_value,
        sure_score=sure(em_macro, dd, params),
        wall_time_s=time.perf_counter() - started,
        items=len(single_hop),
    )


def run_transition_scenario(items: Iterable[BenchmarkItem],
                            pipeline: Pipeline,
                            edit_counts: Sequence[int] = (1, 2, 5, 10)
                            ) -> dict[int, float]:
    """Apply n successive distinct updates per fact and score QA EM against
    the final value, for each n."""
    single_hop = [i for i in items if isinstance(i, BenchmarkItem)]
    if not single_hop:
        raise EmptySet("no items for the transition scenario")
    results: dict[int, float] = {}
    for n in edit_counts:
        if n < 1:
            raise ValueError("edit counts must be >= 1")
        pipeline.store.reset()
        for item in single_hop:
            t = item.triple
            for j in range(1, n):
                revision = f"{t.object_label} (revision {j})"
                pipeline.store.apply_update(
                    replace(t, obj=revision, object_label=revision))
            pipeline.store.apply_update(t)
        pairs = []
        for item in single_hop:
            answer = pipeline.answer(item.queries[TaskKind.QA], TaskKind.QA)
            pairs.append((answer.text, item.gold))
        results[n] = em_score(pairs)
    return results


@dataclass
class ScalePoint:
    em: float
    median_lookup_s: float
    median_answer_s: float


def run_scale_scenario(pipeline: Pipeline,
                       sizes: Sequence[int] = (1, 10, 100, 1000, 10_000, 100_000),
                       probe_count: int = 100,
                       latency_samples: int = 200) -> dict[int, ScalePoint]:
    """Inject size synthetic edits, probe a fixed set, and time lookups.

    Subjects and objects are deterministic synthetic labels; the probe set
    covers the first min(size, probe_count) facts at every size. The
    pipeline's store and alias index are reset per size, so run this on a
    scenario-owned pipeline.
    """
    templates = load_relation_templates()
    relation = templates["head of government"]
    qa_template = relation.template(TaskKind.QA)
    results: dict[int, ScalePoint] = {}
    for size in sizes:
        if size < 1:
            raise ValueError("sizes must be >= 1")
        pipeline.store.reset()
        subjects = [f"Scale Town {i}" for i in range(size)]
        for i, subject in enumerate(subjects):
            pipeline.store.apply_update(FactTriple(
                subject, relation.id, f"Mayor Number {i}",
                relation_label=relation.label))
        pipeline.aliases = AliasIndex()
        pipeline.aliases.add_all([(s, s) for s in subjects])

        probes = [f"Scale Town {i}" for i in range(min(size, probe_count))]
        pairs = []
        answer_times = []
        for subject in probes:
            query = qa_template.replace("{}", subject)
            t0 = time.perf_counter()
            answer = pipeline.answer(query, TaskKind.QA)
            answer_times.append(time.perf_counter() - t0)
            pairs.append((answer.text, f"Mayor Number {subject.split()[-1]}"))

        lookup_times = []
        for j in range(latency_samples):
            subject = probes[j % len(probes)]
            t0 = time.perf_counter()
            pipeline.store.retrieve(subject)
            lookup_times.append(time.perf_counter() - t0)

        results[size] = ScalePoint(
            em=em_score(pairs),
            median_lookup_s=statistics.median(lookup_times),
            median_answer_s=statistics.median(answer_times),
        )
    return results


@dataclass
class MultihopReport:
    """EM per (mode, hop count), with full-scale reference points recorded
    alongside for comparison."""

    em: dict[str, dict[int, float]]
    counts: dict[int, int]
    reference_em: dict[str, dict[int, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        lines = [f"{'mode':<12} {'hops':>4} {'EM':>8} {'reference':>10}"]
        for mode, by_hops in self.em.items():
            for hops, em in sorted(by_hops.items()):
                ref = self.reference_em.get(mode, {}).get(hops)
                ref_cell = f"{ref:.1f}" if ref is not None else "-"
                lines.append(f"{mode:<12} {hops:>4} {em:>8.2f} {ref_cell:>10}")
        return "\n".join(lines)


def run_multihop_scenario(items: Iterable[MultiHopItem], pipeline: Pipeline
                          ) -> MultihopReport:
    """Edit every chain's links, then score EM per hop count in each
    traversal mode; a failed hop scores as wrong."""
    chains = [i for i in items if isinstance(i, MultiHopItem)]
    if not chains:
        raise EmptySet("no multi-hop items to evaluate")
    for item in chains:
        for link in item.chain:
            pipeline.store.apply_update(link)

    by_hops: dict[int, list[MultiHopItem]] = {}
    for item in chains:
        by_hops.setdefault(item.hops, []).append(item)

    em: dict[str, dict[int, float]] = {}
    for mode in (MultihopMode.DECOMPOSE, MultihopMode.DIALOGUE):
        em[mode.value] = {}
        for hops, group in sorted(by_hops.items()):
            correct = 0
            for item in group:
                try:
                    answer = pipeline.answer_multihop(item, mode)
                except HopFailed:
                    continue
                if normalize_answer(answer.text) == normalize_answer(
                        item.final_gold):
                    correct += 1
            em[mode.value][hops] = 100.0 * correct / len(group)
    return MultihopReport(
        em=em,
        counts={hops: len(group) for hops, group in sorted(by_hops.items())},
        reference_em={mode: {hops: REFERENCE_MULTIHOP_EM[(mode, hops)]
                             for hops in by_hops_em}
                      for mode, by_hops_em in em.items()},
    )
