"""The edited-model pipeline: entity extraction, tiered retrieval, evidence
ranking, prompt assembly, and generation, plus multi-hop traversal.

Entity extraction discards task surface form, so the same fact feeds the
QA, cloze, and completion phrasings identically. The pipeline itself is
immutable configuration over a shared store; answering concurrently is
safe under the store's contract.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional

from .cache import TieredFactStore
from .dataset import MultiHopItem, substitute_pronoun
from .errors import HopFailed
from .models import ModelAnswer, ModelClient
from .prompts import AssembledPrompt, assemble_prompt, build_extraction_prompt
from .ranking import EMPTY_EVIDENCE, RankedEvidence, rank_triples, tokenize
from .triples import EntityRef, FactTriple, TaskKind

# texts whose entities an AliasIndex keeps; a full memo is cleared
ALIAS_MEMO_SIZE = 1 << 14


class ExtractorKind(enum.Enum):
    ALIAS_DICTIONARY = "alias_dictionary"
    MODEL_PROMPTED = "model_prompted"


class MultihopMode(enum.Enum):
    DIALOGUE = "dialogue"
    DECOMPOSE = "decompose"


@dataclass(frozen=True)
class AliasMatch:
    start: int      # token offset in the input
    length: int     # tokens covered
    entity_id: str


def _alias_key(tokens: list[str]) -> str | tuple[str, ...]:
    return tokens[0] if len(tokens) == 1 else tuple(tokens)


class AliasIndex:
    """Surface-form dictionary: token n-grams mapped to entity ids.

    Matching is case-insensitive on word boundaries. When one surface names
    several entities, the first registration wins (register in a
    deterministic order).

    A one-token surface is keyed by its bare token, a longer one by its
    token tuple. `_lengths` maps a token to the lengths, longest first, of
    the multi-token surfaces that start with it, so `matches` probes only
    n-grams that some surface could fill.
    """

    def __init__(self):
        self._by_tokens: dict[str | tuple[str, ...], str] = {}
        self._lengths: dict[str, tuple[int, ...]] = {}
        self._memo: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._by_tokens)

    def add(self, surface: str, entity_id: str) -> None:
        tokens = tokenize(surface)
        if tokens:
            self._register(_alias_key(tokens), entity_id)

    def _register(self, key: str | tuple[str, ...], entity_id: str) -> None:
        if key in self._by_tokens:
            return  # first registration wins; its length is already known
        self._by_tokens[key] = entity_id
        self._memo.clear()
        if type(key) is tuple:
            lengths = {*self._lengths.get(key[0], ()), len(key)}
            self._lengths[key[0]] = tuple(sorted(lengths, reverse=True))

    def add_triple(self, t: FactTriple) -> None:
        """Register the subject label and any entity-object label."""
        self.add(t.subject_label, t.subject)
        if t.object_is_entity:
            self.add(t.object_label, t.obj)

    def add_entity(self, entity: EntityRef) -> None:
        for surface in sorted(entity.surface_forms):
            self.add(surface, entity.id)

    @classmethod
    def from_triples(cls, triples: Iterable[FactTriple]) -> "AliasIndex":
        """Index subject and entity-object labels as `add_triple` would row
        by row, tokenizing each distinct label once."""
        first: dict[str, str] = {}
        for t in triples:
            first.setdefault(t.subject_label, t.subject)
            if t.object_is_entity:
                first.setdefault(t.object_label, t.obj)
        index = cls()
        for label, entity_id in first.items():
            index.add(label, entity_id)
        return index

    def merge(self, other: "AliasIndex") -> None:
        """Fold another index in; existing registrations keep priority."""
        for key, entity_id in other._by_tokens.items():
            self._register(key, entity_id)

    def lookup(self, surface: str) -> Optional[str]:
        return self._by_tokens.get(_alias_key(tokenize(surface)))

    def matches(self, text: str) -> list[AliasMatch]:
        tokens = tokenize(text)
        end = len(tokens)
        by_tokens, lengths = self._by_tokens, self._lengths
        found = []
        for start, token in enumerate(tokens):
            for length in lengths.get(token, ()):
                if start + length <= end:
                    entity_id = by_tokens.get(
                        tuple(tokens[start:start + length]))
                    if entity_id is not None:
                        found.append(AliasMatch(start, length, entity_id))
            entity_id = by_tokens.get(token)
            if entity_id is not None:
                found.append(AliasMatch(start, 1, entity_id))
        return found

    def entities(self, text: str) -> list[str]:
        """`greedy_alias_matches(self, text)`, kept in a dict for up to
        ALIAS_MEMO_SIZE texts until a registration adds a surface, which can
        change any text's. A full memo is cleared, never iterated: answering
        threads share it."""
        memo = self._memo
        found = memo.get(text)
        if found is None:
            found = tuple(greedy_alias_matches(self, text))
            if len(memo) >= ALIAS_MEMO_SIZE:
                memo.clear()
            memo[text] = found
        return list(found)


def aliases_for_items(items) -> AliasIndex:
    """Alias index covering every label a benchmark item set can mention:
    subjects, entity objects, and locality subjects/objects."""
    index = AliasIndex()
    for item in items:
        if isinstance(item, MultiHopItem):
            for t in item.chain:
                index.add_triple(t)
            continue
        index.add_triple(item.triple)
        index.add(item.locality_subject, item.locality_subject)
        index.add(item.locality_object, item.locality_object)
    return index


def greedy_alias_matches(index: AliasIndex, text: str) -> list[str]:
    """Non-overlapping matches, longest span first, then leftmost; returned
    in reading order with duplicates removed."""
    matches = index.matches(text)
    if len(matches) < 2:  # nothing can overlap or repeat
        return [m.entity_id for m in matches]
    chosen: list[AliasMatch] = []
    taken: set[int] = set()
    for m in sorted(matches, key=lambda m: (-m.length, m.start)):
        span = set(range(m.start, m.start + m.length))
        if span & taken:
            continue
        taken |= span
        chosen.append(m)
    seen = set()
    ordered = []
    for m in sorted(chosen, key=lambda m: m.start):
        if m.entity_id not in seen:
            seen.add(m.entity_id)
            ordered.append(m.entity_id)
    return ordered


@dataclass(slots=True)
class AnswerTrace:
    """Everything the pipeline did for one answer, for --trace output and
    multi-hop bookkeeping."""

    entities: tuple[str, ...]
    cache_hits: int
    cache_misses: int
    evidence: RankedEvidence
    prompt: AssembledPrompt
    latencies: dict[str, float] = field(default_factory=dict)


@dataclass
class Pipeline:
    """Composable answerer over a tiered store and an alias dictionary."""

    store: TieredFactStore
    aliases: AliasIndex = field(default_factory=AliasIndex)
    model: Optional[ModelClient] = None
    k: int = 1
    extractor: ExtractorKind = ExtractorKind.ALIAS_DICTIONARY

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, not {self.k}")

    # -- extraction -----------------------------------------------------------

    def extract_entities(self, text: str) -> list[str]:
        """Every entity mentioned, in reading order; retrieval unions them
        all.

        ALIAS_DICTIONARY takes the non-overlapping alias matches, longest
        span first (ties: leftmost). MODEL_PROMPTED asks the model with the
        packaged few-shot prompt and maps the returned surface through the
        alias index, so it finds one entity at most; it rejects empty input.
        """
        if self.extractor is ExtractorKind.ALIAS_DICTIONARY:
            return self.aliases.entities(text)
        if not text:
            raise ValueError("input must be non-empty")
        if not hasattr(self.model, "complete_text"):
            raise ValueError(
                "model-prompted extraction needs a client with complete_text")
        surface = self.model.complete_text(
            build_extraction_prompt(text)).strip()
        entity = self.aliases.lookup(surface)
        return [entity] if entity is not None else []

    # -- answering --------------------------------------------------------------

    def answer(self, query: str, task: TaskKind = TaskKind.QA, *,
               use_evidence: bool = True) -> ModelAnswer:
        answer, _ = self.answer_traced(query, task, use_evidence=use_evidence)
        return answer

    def answer_traced(self, query: str, task: TaskKind = TaskKind.QA, *,
                      use_evidence: bool = True
                      ) -> tuple[ModelAnswer, AnswerTrace]:
        """extract -> retrieve -> rank -> assemble -> generate, with
        per-stage latencies.

        With use_evidence=False the retrieval stages are skipped entirely,
        which is the unedited-model baseline. A failed extraction degrades
        to an empty-evidence prompt.
        """
        self.__post_init__()  # k may have been set since construction
        if self.model is None:
            raise ValueError("no model client configured")
        stats, clock = self.store.stats, time.perf_counter
        hits0, misses0 = stats.hits, stats.misses

        t0 = clock()
        entities: tuple[str, ...] = ()
        if use_evidence:
            entities = tuple(self.extract_entities(query))
        t1 = clock()

        candidates: Collection[FactTriple] = ()
        if len(entities) == 1:
            # the store's cached set, which ranking indexes once
            candidates = self.store.retrieve(entities[0])
        elif entities:
            # distinct entities, one subject per retrieve: no key repeats
            candidates = [triple for entity in entities
                          for triple in self.store.retrieve(entity)]
        t2 = clock()

        evidence = (rank_triples(query, candidates, self.k) if candidates
                    else EMPTY_EVIDENCE)
        t3 = clock()

        prompt = assemble_prompt(task, evidence, query)
        t4 = clock()

        answer = self.model.generate(prompt)  # ModelError propagates
        t5 = clock()

        trace = AnswerTrace(
            entities, stats.hits - hits0, stats.misses - misses0, evidence,
            prompt, {"extract": t1 - t0, "retrieve": t2 - t1,
                     "rank": t3 - t2, "assemble": t4 - t3,
                     "generate": t5 - t4})
        return answer, trace

    # -- multi-hop ---------------------------------------------------------------

    def answer_multihop(self, item: MultiHopItem,
                        mode: MultihopMode = MultihopMode.DECOMPOSE
                        ) -> ModelAnswer:
        """Traverse a chain item turn by turn (DIALOGUE) or by hopping to
        each evidence object (DECOMPOSE); returns the final answer.

        Raises HopFailed(i) when hop i selects no evidence at all.
        """
        if mode is MultihopMode.DIALOGUE:
            return self._answer_dialogue(item)
        return self._answer_decompose(item)

    def _answer_dialogue(self, item: MultiHopItem) -> ModelAnswer:
        answer: Optional[ModelAnswer] = None
        for i, turn in enumerate(item.dialogue_turns):
            query = turn if i == 0 else substitute_pronoun(turn, answer.text)
            answer, trace = self.answer_traced(query, TaskKind.DIALOGUE)
            if not trace.evidence:
                raise HopFailed(i + 1)
        return answer

    def _answer_decompose(self, item: MultiHopItem) -> ModelAnswer:
        current = item.chain[0].subject_label
        answer: Optional[ModelAnswer] = None
        for i, (link, hop_query) in enumerate(zip(item.chain,
                                                  item.hop_queries)):
            # intermediate objects may have been edited since the item was
            # built; retarget the stored sub-question at the current entity
            query = hop_query.replace(link.subject_label, current)
            answer, trace = self.answer_traced(query, TaskKind.MULTI_HOP_QA)
            if not trace.evidence:
                raise HopFailed(i + 1)
            current = trace.evidence.selected[0].object_label
        return answer
