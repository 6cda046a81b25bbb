"""Scope algebra over fact triples: join, frontier expansion, and probe
classification into in-scope / extended / outside.

The extended scope of an edit is everything derivable from it by chaining
triples whose subject matches a prior object. Chaining matches ids exactly;
equivalence (aliases, paraphrases) only enters at hop zero and when mapping
probes onto triples, through the oracle's equivalence tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .errors import UnresolvableProbe
from .triples import FactTriple, TripleKey, TripleSet


class ScopeClass(enum.Enum):
    IN_SCOPE = "in_scope"
    EXTENDED = "extended"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class SimpleOracle:
    """Identity on ids plus explicit equivalence tables.

    - `entity_sets` / `relation_sets` map an id to its set id (identity when
      absent).
    - `query_map` maps a known query string to the (subject, relation) pair
      it asks about.
    - `answer_map` maps an answer surface string to an entity id; unmapped
      answers are treated as literals equal only to themselves.
    """

    entity_sets: Mapping[str, str] = field(default_factory=dict)
    relation_sets: Mapping[str, str] = field(default_factory=dict)
    query_map: Mapping[str, tuple[str, str]] = field(default_factory=dict)
    answer_map: Mapping[str, str] = field(default_factory=dict)

    def probe_triple(self, query: str, answer: str):
        """Underlying (subject, relation, object) for a probe, or None."""
        pair = self.query_map.get(query)
        if pair is None:
            return None
        subject, relation = pair
        return (subject, relation, self.answer_map.get(answer, answer))


IDENTITY_ORACLE = SimpleOracle()


def join(a: TripleSet, b: TripleSet) -> TripleSet:
    """One-hop frontier of `a` through `b`: triples of `b` whose subject is
    an object of `a`."""
    objects = a.objects
    return TripleSet(t for t in b if t.subject in objects)


def _triple_class(key: TripleKey, oracle: SimpleOracle) -> TripleKey:
    subject, relation, obj = key
    entities = oracle.entity_sets
    return (entities.get(subject, subject),
            oracle.relation_sets.get(relation, relation),
            entities.get(obj, obj))


def frontier(
    tr: FactTriple,
    graph: TripleSet,
    i: int,
    oracle: SimpleOracle = IDENTITY_ORACLE,
) -> TripleSet:
    """Hop-`i` frontier of `tr` in `graph`.

    Hop zero is the seed triple together with every graph triple whose
    components are all equivalent to the seed's; hop i >= 1 is the join of
    the previous frontier with the graph.
    """
    if i < 0:
        raise ValueError("hop count must be >= 0")
    seed_class = _triple_class(tr.key, oracle)
    current = TripleSet(
        [tr, *(t for t in graph if _triple_class(t.key, oracle) == seed_class)]
    )
    for _ in range(i):
        current = join(current, graph)
    return current


def compute_ex(
    tr: FactTriple,
    graph: TripleSet,
    max_hops: int = 5,
    oracle: SimpleOracle = IDENTITY_ORACLE,
) -> TripleSet:
    """Union of frontiers 0..max_hops: the extended scope of `tr`, truncated
    at `max_hops` so cyclic graphs terminate."""
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    current = frontier(tr, graph, 0, oracle)
    result = current
    for _ in range(max_hops):
        current = join(current, graph)
        if not current:
            break
        result = result | current
    return result


def classify_scope(
    edit: FactTriple,
    probe_query: str,
    probe_answer: str,
    graph: TripleSet,
    oracle: SimpleOracle,
    max_hops: int = 5,
) -> ScopeClass:
    """Classify a (query, answer) probe against an edit.

    IN_SCOPE when the probe's underlying triple is component-wise equivalent
    to the edit; EXTENDED when it matches a triple reachable from the edit
    (excluding hop zero); OUTSIDE otherwise. Raises UnresolvableProbe when
    the oracle cannot map the probe onto any triple.
    """
    resolved = oracle.probe_triple(probe_query, probe_answer)
    if resolved is None:
        raise UnresolvableProbe(f"probe not mapped to a triple: {probe_query!r}")
    probe_class = _triple_class(resolved, oracle)
    if probe_class == _triple_class(edit.key, oracle):
        return ScopeClass.IN_SCOPE
    hop_zero = frontier(edit, graph, 0, oracle)
    extended = compute_ex(edit, graph, max_hops, oracle) - hop_zero
    for t in extended:
        if _triple_class(t.key, oracle) == probe_class:
            return ScopeClass.EXTENDED
    return ScopeClass.OUTSIDE
