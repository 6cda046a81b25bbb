"""Core fact-triple types: entities, relations, triples, and triple sets.

A triple's identity is its (subject, relation, object) key. Provenance fields
(source, fetched_at, version) and display labels never affect set membership:
two triples asserting the same fact are one element of a TripleSet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator, Mapping

TripleKey = tuple[str, str, str]


class Source(enum.Enum):
    """Where a triple came from."""

    WIKIDATA = "wikidata"
    DBPEDIA = "dbpedia"
    MANUAL = "manual"
    SYNTHETIC = "synthetic"


class TaskKind(enum.Enum):
    """Task formats a fact can be probed with."""

    QA = "qa"
    COMPLETION = "completion"
    CLOZE = "cloze"
    CHOICE = "choice"
    FACT_CHECK = "fact_check"
    LOCALITY = "locality"
    MULTI_HOP_QA = "multi_hop_qa"
    DIALOGUE = "dialogue"


SINGLE_HOP_TASKS = (
    TaskKind.QA,
    TaskKind.COMPLETION,
    TaskKind.CLOZE,
    TaskKind.CHOICE,
    TaskKind.FACT_CHECK,
)


@dataclass(frozen=True)
class EntityRef:
    """A stable entity identifier with display label and surface aliases."""

    id: str
    label: str = ""
    aliases: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.id:
            raise ValueError("entity id must be non-empty")
        if not self.label:
            object.__setattr__(self, "label", self.id)
        if "" in self.aliases:
            raise ValueError("aliases must not contain the empty string")

    @property
    def surface_forms(self) -> frozenset[str]:
        """Label plus aliases; everything this entity can be called in text."""
        return self.aliases | {self.label}


@dataclass(frozen=True)
class RelationRef:
    """A relation with its per-task query templates.

    Every template contains exactly one `{}` placeholder for the subject
    label. The MULTI_HOP_QA entry is a noun phrase used to nest relations
    when composing multi-hop questions (e.g. "the spouse of {}").
    """

    id: str
    label: str = ""
    task_templates: Mapping[TaskKind, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("relation id must be non-empty")
        if not self.label:
            object.__setattr__(self, "label", self.id)
        templates = {k: tuple(v) for k, v in self.task_templates.items()}
        object.__setattr__(self, "task_templates", templates)
        if TaskKind.QA not in templates or not templates[TaskKind.QA]:
            raise ValueError(f"relation {self.id!r} needs at least one QA template")
        for kind, variants in templates.items():
            for tpl in variants:
                if tpl.count("{}") != 1:
                    raise ValueError(
                        f"template {tpl!r} for {self.id}/{kind.value} must contain "
                        "exactly one {} placeholder"
                    )

    def template(self, kind: TaskKind) -> str:
        return self.task_templates[kind][0]


@dataclass(frozen=True, slots=True)
class FactTriple:
    """One (subject, relation, object) assertion with provenance.

    `obj` holds an entity id when `object_is_entity` is true, otherwise a
    literal string (literals have no outgoing edges). Labels default to the
    ids so desk-scale data can use labels directly as identifiers.

    A triple is plain data: its slots are its ten fields and nothing
    caches on it. Ranking keeps its caches on the TripleSet that holds it.
    """

    subject: str
    relation: str
    obj: str
    subject_label: str = ""
    relation_label: str = ""
    object_label: str = ""
    object_is_entity: bool = True
    source: Source = Source.MANUAL
    fetched_at: datetime | None = None
    version: int = 1

    def __post_init__(self):
        if not self.subject or not self.relation:
            raise ValueError("subject and relation must be non-empty")
        if self.version < 1:
            raise ValueError("version must be >= 1")
        if not self.subject_label:
            object.__setattr__(self, "subject_label", self.subject)
        if not self.relation_label:
            object.__setattr__(self, "relation_label", self.relation)
        if not self.object_label:
            object.__setattr__(self, "object_label", self.obj)

    @property
    def key(self) -> TripleKey:
        return (self.subject, self.relation, self.obj)

    def render(self) -> str:
        """Serialize as the ``(s, r, o)`` line used in prompts."""
        return f"({self.subject_label}, {self.relation_label}, {self.object_label})"


class TripleSet:
    """An immutable set of fact triples.

    Membership and equality are keyed on (subject, relation, object) only;
    when duplicates are supplied the first occurrence wins. Iteration order
    is sorted by key, so downstream output is deterministic.

    The set stores its facts once, as the key-sorted tuple `triples`;
    membership, equality and `keys()` read the keys off it. `rank_index`
    (norms and postings, on a set too wide to score fact by fact) and
    `rank_memo` (recent evidence, cleared when full) are caches that
    `rank_triples` fills; the set is immutable, so they never go stale.
    """

    __slots__ = ("triples", "rank_index", "rank_memo")

    def __init__(self, triples: Iterable[FactTriple] = ()):
        by_key: dict[TripleKey, FactTriple] = {}
        for t in triples:  # t.key, without the property call
            by_key.setdefault((t.subject, t.relation, t.obj), t)
        self.triples = tuple(map(by_key.__getitem__, sorted(by_key)))
        self.rank_index: tuple | None = None
        self.rank_memo: dict | None = None

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[FactTriple]:
        return iter(self.triples)

    def __contains__(self, item) -> bool:
        key = item.key if isinstance(item, FactTriple) else tuple(item)
        return key in self.keys()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self.keys() == other.keys()

    __hash__ = None  # mutable-free but identity is by key set; not hashable

    def __repr__(self) -> str:
        return f"TripleSet({len(self)} triples)"

    def __or__(self, other: "TripleSet") -> "TripleSet":
        return TripleSet([*self, *other])

    def __sub__(self, other: "TripleSet") -> "TripleSet":
        keys = other.keys()
        return TripleSet(t for t in self if t.key not in keys)

    def keys(self) -> frozenset[TripleKey]:
        return frozenset(t.key for t in self.triples)

    @property
    def objects(self) -> frozenset[str]:
        return frozenset(t.obj for t in self)
