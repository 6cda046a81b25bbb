"""Benchmark item construction from triples and templates, and loading /
validation / emission of benchmark files.

Files are JSON Lines, one item per line. Single-hop records carry the six
task queries plus a paired locality probe; multi-hop records carry the
per-hop questions and a nested question template whose single `{}` takes
the chain's first subject.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (NAME, BadTemplate, BrokenChain, DistractorCollision,
                     OptionsMisread, SchemaViolation, fault, read_json_lines,
                     read_json_rows, write_text)
from .ranking import contains_phrase
from .triples import FactTriple, RelationRef, Source, TaskKind, TripleSet

CHOICE_LETTERS = ("A", "B", "C")

# each single-hop task's record key, in record order
QUERY_KEYS = {
    TaskKind.QA: "qa_query",
    TaskKind.CLOZE: "fill_query",
    TaskKind.COMPLETION: "completion_query",
    TaskKind.CHOICE: "choose_query",
    TaskKind.FACT_CHECK: "FC_query",
}

SINGLE_HOP_KEYS = (
    "subject_label", "relation_label", "object_label",
    "localitysubjectLabel", "localityobjectLabel",
    *QUERY_KEYS.values(), "locality_query",
)
# a choose_query is the question, then a last line of the three options
_CHOICE_LINE = re.compile(r".*\nA:([^\n]*?) B:([^\n]*?) C:([^\n]*)", re.S)
SINGLE_HOP_RULES = {key: (True, *NAME) for key in SINGLE_HOP_KEYS} | {
    "choose_query": (True, "a question, then an 'A:.. B:.. C:..' line",
                     lambda v: type(v) is str and _CHOICE_LINE.fullmatch(v))}

FC_INSTRUCTION_PREFIX = "Determine whether the proposition is true.\nProposition:"


def fill_template(template: str, subject_label: str) -> str:
    """Replace the template's single `{}` placeholder with the subject."""
    if template.count("{}") != 1:
        raise BadTemplate(
            f"template must contain exactly one {{}} placeholder: {template!r}")
    return template.replace("{}", subject_label)


# --- single-hop items ---------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkItem:
    """One single-hop task instance over a fact triple.

    queries maps each edit-facing task kind to the final query string; the
    CHOICE and FACT_CHECK entries embed their options / proposition. The
    gold answer is the object label, and the options and the fact-check
    truth are read off their queries.
    """

    triple: FactTriple
    queries: Mapping[TaskKind, str]
    locality_subject: str
    locality_object: str
    locality_query: str

    def __post_init__(self):
        object.__setattr__(self, "queries", dict(self.queries))
        matches = sum(1 for _, text in self.choice_options if text == self.gold)
        if matches != 1:  # no options line reads as no options
            raise SchemaViolation(
                f"choice options must contain the gold exactly once, got {matches}")
        if self.locality_subject == self.triple.subject_label:
            raise SchemaViolation("locality probe must not share the subject")

    @property
    def gold(self) -> str:
        return self.triple.object_label

    @property
    def fc_truth(self) -> bool:
        """Whether the proposition states the gold answer. Generated
        propositions have the fixed shape instruction + completion query +
        stated option + period, so the stated option is recovered exactly;
        foreign shapes fall back to token-bounded containment."""
        fc = self.queries[TaskKind.FACT_CHECK]
        prefix = (f"{FC_INSTRUCTION_PREFIX}"
                  f"{self.queries[TaskKind.COMPLETION]} ")
        if fc.startswith(prefix) and fc.endswith("."):
            return fc[len(prefix):-1] == self.gold
        return contains_phrase(fc, self.gold)

    def gold_for(self, task: TaskKind) -> str:
        if task is TaskKind.FACT_CHECK:
            return "True" if self.fc_truth else "False"
        if task is TaskKind.LOCALITY:
            return self.locality_object
        return self.gold

    @property
    def choice_options(self) -> tuple[tuple[str, str], ...]:  # (letter, text)
        line = _CHOICE_LINE.fullmatch(self.queries[TaskKind.CHOICE])
        return tuple(zip(CHOICE_LETTERS, line.groups() if line else ()))

    def option_map(self) -> dict[str, str]:
        return {letter.lower(): text for letter, text in self.choice_options}

    def read_choice(self, answer: str) -> str:
        """The option that a bare letter answer names ("A", "b.", "(C)"),
        or else the answer as given."""
        letter = answer.strip(string.whitespace + string.punctuation).lower()
        return self.option_map().get(letter, answer)

    def to_record(self) -> dict:
        return {
            "subject_label": self.triple.subject_label,
            "relation_label": self.triple.relation_label,
            "object_label": self.triple.object_label,
            "localitysubjectLabel": self.locality_subject,
            "localityobjectLabel": self.locality_object,
            **{key: self.queries[task] for task, key in QUERY_KEYS.items()},
            "locality_query": self.locality_query,
        }

    @classmethod
    def from_record(cls, record) -> "BenchmarkItem":
        if reason := fault(record, SINGLE_HOP_RULES):
            raise SchemaViolation(reason)
        return cls(
            triple=FactTriple(
                subject=record["subject_label"],
                relation=record["relation_label"],
                obj=record["object_label"],
                source=Source.SYNTHETIC,
            ),
            queries={task: record[key] for task, key in QUERY_KEYS.items()},
            locality_subject=record["localitysubjectLabel"],
            locality_object=record["localityobjectLabel"],
            locality_query=record["locality_query"],
        )


def build_item(triple: FactTriple, relation: RelationRef,
               distractors: Sequence[str], locality: FactTriple,
               rng: random.Random,
               fc_truth: Optional[bool] = None) -> BenchmarkItem:
    """Instantiate every single-hop task for one triple.

    Choice-letter assignment and the fact-check truth coin come from `rng`,
    so a fixed seed reproduces items byte-for-byte.
    """
    if len(distractors) != 2:
        raise DistractorCollision("exactly two distractors required")
    gold = triple.object_label
    if gold in distractors or distractors[0] == distractors[1]:
        raise DistractorCollision(
            f"distractors must be distinct from the gold answer: {distractors}")
    if locality.relation != triple.relation:
        raise SchemaViolation("locality probe must share the relation")

    subject = triple.subject_label
    qa = fill_template(relation.template(TaskKind.QA), subject)
    completion = fill_template(relation.template(TaskKind.COMPLETION), subject)
    cloze = fill_template(relation.template(TaskKind.CLOZE), subject)

    options = [gold, *distractors]
    rng.shuffle(options)
    options_line = " ".join(
        f"{letter}:{text}" for letter, text in zip(CHOICE_LETTERS, options))
    choose = (fill_template(relation.template(TaskKind.CHOICE), subject)
              + "\n" + options_line)
    line = _CHOICE_LINE.fullmatch(choose)  # as BenchmarkItem reads it back
    if not line or line.groups() != tuple(options):
        raise OptionsMisread(f"options {options} misread: {options_line!r}")

    truth = rng.random() < 0.5 if fc_truth is None else fc_truth
    stated = gold if truth else rng.choice(list(distractors))
    proposition = f"{completion} {stated}."
    fc = f"{FC_INSTRUCTION_PREFIX}{proposition}"

    locality_query = fill_template(relation.template(TaskKind.QA),
                                   locality.subject_label)
    return BenchmarkItem(
        triple=triple,
        queries={
            TaskKind.QA: qa,
            TaskKind.COMPLETION: completion,
            TaskKind.CLOZE: cloze,
            TaskKind.CHOICE: choose,
            TaskKind.FACT_CHECK: fc,
        },
        locality_subject=locality.subject_label,
        locality_object=locality.object_label,
        locality_query=locality_query,
    )


# --- multi-hop items ----------------------------------------------------------

@dataclass(frozen=True)
class MultiHopItem:
    """An ordered chain of triples with per-hop questions and one nested
    question template.

    The chain has 2..5 links and satisfies object(i) == subject(i+1); the
    answer to the whole item is the final object label.
    """

    chain: tuple[FactTriple, ...]
    hop_queries: tuple[str, ...]
    multihop_query: str

    def __post_init__(self):
        if not 2 <= len(self.chain) <= 5:
            raise BrokenChain(
                f"chain length must be 2..5, got {len(self.chain)}")
        for left, right in zip(self.chain, self.chain[1:]):
            if left.obj != right.subject:
                raise BrokenChain(
                    f"object {left.obj!r} does not match next subject "
                    f"{right.subject!r}")
        if len(self.hop_queries) != len(self.chain):
            raise SchemaViolation("one hop query required per chain link")
        if self.multihop_query.count("{}") != 1:
            raise SchemaViolation(
                "multihop query must keep exactly one {} placeholder")

    @property
    def hops(self) -> int:
        return len(self.chain)

    @property
    def final_gold(self) -> str:
        return self.chain[-1].object_label

    def to_record(self) -> dict:
        record: dict = {"s1_label": self.chain[0].subject_label}
        for i, t in enumerate(self.chain, start=1):
            record[f"relation_label_{i}"] = t.relation_label
            record[f"o{i}_label"] = t.object_label
        for i, q in enumerate(self.hop_queries, start=1):
            record[f"qa_query_{i}"] = q
        record["MultihopQA_query"] = self.multihop_query
        return record

    @classmethod
    def from_record(cls, record: dict) -> "MultiHopItem":
        hops = 0
        while f"relation_label_{hops + 1}" in record:
            hops += 1
        links = [(f"relation_label_{i}", f"o{i}_label", f"qa_query_{i}")
                 for i in range(1, hops + 1)]
        required = ["s1_label", *(key for link in links for key in link),
                    "MultihopQA_query"]
        if reason := fault(record, {key: (True, *NAME) for key in required}):
            raise SchemaViolation(reason)
        subjects = [record["s1_label"], *(record[obj] for _, obj, _ in links)]
        chain = tuple(FactTriple(subject=subject, relation=record[relation],
                                 obj=record[obj], source=Source.SYNTHETIC)
                      for subject, (relation, obj, _) in zip(subjects, links))
        return cls(chain=chain,
                   hop_queries=tuple(record[query] for _, _, query in links),
                   multihop_query=record["MultihopQA_query"])


def build_multihop(chain: Sequence[FactTriple],
                   relations: Mapping[str, RelationRef]) -> MultiHopItem:
    """Compose a chain of triples into per-hop questions and one nested
    question.

    `relations` maps relation ids to their templates; every relation but the
    last needs a nesting phrase (MULTI_HOP_QA template), the last needs QA.
    MultiHopItem checks the chain.
    """
    refs = []
    for t in chain:
        ref = relations.get(t.relation)
        if ref is None:
            raise BadTemplate(f"no templates registered for {t.relation!r}")
        refs.append(ref)

    hop_queries = tuple(
        fill_template(ref.template(TaskKind.QA), t.subject_label)
        for ref, t in zip(refs, chain))

    multihop_query = "{}"
    for i, ref in enumerate(refs, start=1):
        kind = TaskKind.QA if i == len(refs) else TaskKind.MULTI_HOP_QA
        if kind not in ref.task_templates:
            raise BadTemplate(f"relation {ref.id!r} has no nesting phrase")
        multihop_query = ref.template(kind).replace("{}", multihop_query)

    return MultiHopItem(chain=tuple(chain), hop_queries=hop_queries,
                        multihop_query=multihop_query)


AnyItem = Union[BenchmarkItem, MultiHopItem]


# --- item selection from a triple dump ----------------------------------------

def _by_relation(triples: Iterable[FactTriple],
                 templates: Mapping[str, RelationRef]) -> dict[str, list]:
    """(template, triple) pairs in key order, grouped by relation id;
    triples whose relation id or label has no templates are left out."""
    by_relation: dict[str, list] = {}
    for t in sorted(triples, key=lambda t: t.key):
        ref = templates.get(t.relation) or templates.get(t.relation_label)
        if ref is not None:
            by_relation.setdefault(ref.id, []).append((ref, t))
    return by_relation


def build_benchmark(triples: Iterable[FactTriple],
                    templates: Mapping[str, RelationRef],
                    rng: random.Random) -> list[BenchmarkItem]:
    """Single-hop items for relations with three or more facts, in relation
    id order. Each fact needs two distractors from the relation's other
    object labels and, as its locality probe, the relation's next fact
    (wrapping around) with its relation id and another subject label,
    since a record holds labels only; without them, or when its choice
    line would misread (build_item), it is skipped."""
    items = []
    for _, group in sorted(_by_relation(triples, templates).items()):
        if len(group) < 3:
            continue
        object_labels = sorted({t.object_label for _, t in group})
        for i, (ref, t) in enumerate(group):
            candidates = [o for o in object_labels if o != t.object_label]
            if len(candidates) < 2:
                continue
            distractors = rng.sample(candidates, 2)
            locality = next((lt for _, lt in group[i + 1:] + group[:i]
                             if lt.subject_label != t.subject_label
                             and lt.relation == t.relation), None)
            if locality is None:
                continue
            try:
                items.append(build_item(t, ref, distractors, locality, rng))
            except OptionsMisread:
                continue
    return items


def build_multihop_benchmark(triples: Iterable[FactTriple],
                             templates: Mapping[str, RelationRef], hops: int
                             ) -> list[MultiHopItem]:
    """One chain per templated fact, in key order: follow each object to
    the first fact (by key) about it until the chain has `hops` links;
    walks that dead-end earlier are dropped."""
    pairs = [p for group in _by_relation(triples, templates).values()
             for p in group]
    pool = TripleSet(t for _, t in pairs)
    relation_map = {t.relation: ref for ref, t in pairs}
    first_about: dict[str, FactTriple] = {}
    for t in pool:  # key order, so the first fact about each subject stays
        first_about.setdefault(t.subject, t)
    items = []
    for first in pool:
        chain = [first]
        while len(chain) < hops and chain[-1].obj in first_about:
            chain.append(first_about[chain[-1].obj])
        if len(chain) == hops:
            items.append(build_multihop(chain, relation_map))
    return items


# --- file I/O -----------------------------------------------------------------

def record_line(item: AnyItem) -> str:
    return json.dumps(item.to_record(), ensure_ascii=False)


def emit_benchmark(items: Iterable[AnyItem], path: str | Path) -> int:
    lines = [record_line(item) + "\n" for item in items]
    write_text(path, "".join(lines))
    return len(lines)


def load_benchmark(path: str | Path, strict: bool = True) -> list[AnyItem]:
    """Parse and validate a benchmark file.

    An unreadable file or a line that is not UTF-8 JSON is a ParseError, a
    record that breaks the item schema a SchemaViolation, each naming the
    file and the line; a bad line raises (strict) or is logged and skipped
    (lenient). Multi-hop records are recognized by `s1_label`.
    """
    def parse(record) -> AnyItem:
        if type(record) is dict and "s1_label" in record:
            return MultiHopItem.from_record(record)
        return BenchmarkItem.from_record(record)

    return read_json_lines(path, parse, strict)


# --- packaged relation templates ----------------------------------------------

# each task's key in a templates file row
TEMPLATE_KEYS = {TaskKind.QA: "qa", TaskKind.COMPLETION: "completion",
                 TaskKind.CLOZE: "cloze", TaskKind.CHOICE: "choice",
                 TaskKind.MULTI_HOP_QA: "nest"}
TEMPLATE_RULES = {"id": (True, *NAME), "label": (True, *NAME), **{
    key: (True, "a non-empty list of strings with one {} each",
          lambda v: type(v) is list and v != []
          and all(type(x) is str and x.count("{}") == 1 for x in v))
    for key in TEMPLATE_KEYS.values()}}


def load_relation_templates(path: Optional[str | Path] = None
                            ) -> dict[str, RelationRef]:
    """Curated per-relation templates, keyed by both relation id and label.
    A row that breaks TEMPLATE_RULES raises ParseError naming the file, the
    entry and the key."""
    if path is None:
        path = resources.files("factcache.assets") / "relation_templates.json"
    out: dict[str, RelationRef] = {}
    for row in read_json_rows(path, TEMPLATE_RULES, "relation"):
        ref = RelationRef(id=row["id"], label=row["label"], task_templates={
            task: tuple(row[key]) for task, key in TEMPLATE_KEYS.items()})
        out[ref.id] = ref
        out[ref.label] = ref
    return out
