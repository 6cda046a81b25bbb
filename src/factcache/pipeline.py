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
from typing import Collection, Iterable, Iterator, Optional

from .cache import TieredFactStore
from .dataset import MultiHopItem
from .errors import HopFailed
from .models import ModelAnswer, ModelClient
from .prompts import AssembledPrompt, assemble_prompt, build_extraction_prompt
from .ranking import (EMPTY_EVIDENCE, RankedEvidence, rank_triples, tokenize,
                      tokenize_all)
from .triples import FactTriple, TaskKind

# texts whose entities an AliasIndex keeps; a full memo is cleared
ALIAS_MEMO_SIZE = 1 << 14


class ExtractorKind(enum.Enum):
    ALIAS_DICTIONARY = "alias_dictionary"
    MODEL_PROMPTED = "model_prompted"


class MultihopMode(enum.Enum):
    DIALOGUE = "dialogue"
    DECOMPOSE = "decompose"


def _alias_key(tokens: list[str]) -> str | tuple[str, ...]:
    return tokens[0] if len(tokens) == 1 else tuple(tokens)


class AliasIndex:
    """Surface-form dictionary: token n-grams mapped to entity ids.

    Matching is case-insensitive on word boundaries. When one surface names
    several entities, the first registration wins (register in a
    deterministic order).

    A one-token surface is keyed by its bare token, a longer one by its
    token tuple. `_lengths` maps a token to the lengths, longest first, of
    the multi-token surfaces that start with it, so `_scan` probes only
    n-grams that some surface could fill.
    """

    def __init__(self):
        self._by_tokens: dict[str | tuple[str, ...], str] = {}
        self._lengths: dict[str, tuple[int, ...]] = {}
        self._memo: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._by_tokens)

    def add(self, surface: str, entity_id: str) -> None:
        self.add_all([(surface, entity_id)])

    def add_all(self, pairs: Collection[tuple[str, str]]) -> None:
        """Register each (surface, entity id) pair in order; `pairs` is read
        twice, to tokenize its surfaces in one batch. Clears the memo once."""
        by_tokens, lengths = self._by_tokens, self._lengths
        for tokens, (_, entity_id) in zip(
                tokenize_all([surface for surface, _ in pairs]), pairs,
                strict=True):
            key = _alias_key(tokens)
            if not tokens or key in by_tokens:
                continue  # the first registration wins; its length is known
            by_tokens[key] = entity_id
            if type(key) is tuple:
                known = {*lengths.get(key[0], ()), len(key)}
                lengths[key[0]] = tuple(sorted(known, reverse=True))
        self._memo.clear()

    def add_facts(self, triples: Iterable[FactTriple]) -> None:
        """Register the names rule, as `add` would row by row: a subject
        label names its subject, an entity object's label its object. Each
        distinct label is tokenized once."""
        first: dict[str, str] = {}
        for t in triples:
            first.setdefault(t.subject_label, t.subject)
            if t.object_is_entity:
                first.setdefault(t.object_label, t.obj)
        self.add_all(first.items())

    @classmethod
    def from_triples(cls, triples: Iterable[FactTriple]) -> "AliasIndex":
        index = cls()
        index.add_facts(triples)
        return index

    def lookup(self, surface: str) -> Optional[str]:
        return self._by_tokens.get(_alias_key(tokenize(surface)))

    def _scan(self, tokens: list[str]) -> list[str]:
        """Non-overlapping matches, longest span first, then leftmost;
        returned in reading order with each entity once."""
        end = len(tokens)
        by_tokens, lengths = self._by_tokens, self._lengths
        found = []  # (-length, start, entity_id); no two share a span
        for start, token in enumerate(tokens):
            for length in lengths.get(token, ()):
                if start + length <= end:
                    entity_id = by_tokens.get(
                        tuple(tokens[start:start + length]))
                    if entity_id is not None:
                        found.append((-length, start, entity_id))
            entity_id = by_tokens.get(token)
            if entity_id is not None:
                found.append((-1, start, entity_id))
        if len(found) < 2:  # nothing can overlap or repeat
            return [entity_id for _, _, entity_id in found]
        found.sort()
        taken = [False] * end
        chosen = []
        for negative_length, start, entity_id in found:
            stop = start - negative_length
            if not any(taken[start:stop]):
                taken[start:stop] = [True] * (stop - start)
                chosen.append((start, entity_id))
        return list(dict.fromkeys(entity for _, entity in sorted(chosen)))

    def entities(self, text: str) -> list[str]:
        """The entities `text` names, kept in a dict for up to
        ALIAS_MEMO_SIZE texts until a registration adds a surface, which can
        change any text's. A full memo is cleared, never iterated: answering
        threads share it."""
        memo = self._memo
        found = memo.get(text)
        if found is None:
            found = tuple(self._scan(tokenize(text)))
            if len(memo) >= ALIAS_MEMO_SIZE:
                memo.clear()
            memo[text] = found
        return list(found)


def item_facts(items) -> Iterator[FactTriple]:
    """The facts whose labels a benchmark item set can mention: each
    chain's links, or each item's triple and its locality probe."""
    for item in items:
        if isinstance(item, MultiHopItem):
            yield from item.chain
        else:
            yield item.triple
            yield FactTriple(item.locality_subject, item.triple.relation,
                             item.locality_object)


def aliases_for_items(items) -> AliasIndex:
    """An alias index of `item_facts(items)`, in order."""
    return AliasIndex.from_triples(item_facts(items))


@dataclass(slots=True)
class AnswerTrace:
    """Everything the pipeline did for one answer, for --trace output and
    multi-hop bookkeeping. `clock` holds the perf_counter readings taken
    before each stage and after the last."""

    entities: tuple[str, ...]
    cache_hits: int
    cache_misses: int
    evidence: RankedEvidence
    prompt: AssembledPrompt
    clock: tuple[float, ...]

    @property
    def latencies(self) -> dict[str, float]:
        """Seconds each stage took, in order: extract, retrieve, rank,
        assemble, generate."""
        clock = self.clock
        return {stage: clock[i + 1] - clock[i] for i, stage in enumerate(
            ("extract", "retrieve", "rank", "assemble", "generate"))}


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

        ALIAS_DICTIONARY takes `AliasIndex.entities`. MODEL_PROMPTED asks
        the model with the packaged few-shot prompt and maps the returned
        surface through the alias index, so it finds one entity at most; it
        rejects empty input.
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
            # the store's cached set, whose memo and any index persist
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
            prompt, (t0, t1, t2, t3, t4, t5))
        return answer, trace

    # -- multi-hop ---------------------------------------------------------------

    def answer_multihop(self, item: MultiHopItem,
                        mode: MultihopMode = MultihopMode.DECOMPOSE
                        ) -> ModelAnswer:
        """Answer a chain item hop by hop; returns the final answer. From
        hop 2 on, the item's question for the hop names, in place of the
        link's subject, the last answer (DIALOGUE) or the object of the
        fact the last hop selected (DECOMPOSE), which an edit may have
        changed since the item was built.

        Raises HopFailed(i) when hop i selects no evidence at all.
        """
        dialogue = mode is MultihopMode.DIALOGUE
        task = TaskKind.DIALOGUE if dialogue else TaskKind.MULTI_HOP_QA
        answer: Optional[ModelAnswer] = None
        for i, query in enumerate(item.hop_queries):
            if i:
                last = (answer.text if dialogue
                        else trace.evidence.selected[0].object_label)
                query = query.replace(item.chain[i].subject_label, last)
            answer, trace = self.answer_traced(query, task)
            if not trace.evidence:
                raise HopFailed(i + 1)
        return answer
