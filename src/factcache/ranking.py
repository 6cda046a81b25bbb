"""Evidence ranking: score candidate triples against a query, keep top-k.

The score is a deterministic lexical one: cosine over lowercase token-count
vectors of the serialized triple vs. the query. A triple's vector is
computed once, the first time it is ranked, and kept on the triple; later
queries tokenize only themselves.

A TripleSet of two or more facts is ranked through an index kept on the
set: each fact's norm, in key order, and each token's postings (the
positions of the facts that contain it, once per occurrence). A query then
touches only the facts that share a token with it, and the top k come from
a stable heap selection over the key order. Any other candidates are
scored one by one. Both give the same scores and the same selection.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .triples import FactTriple, TripleSet

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _vector(text: str) -> tuple[Counter, float]:
    """Token counts of `text` and their Euclidean norm."""
    counts = Counter(tokenize(text))
    return counts, math.sqrt(sum(v * v for v in counts.values()))


def token_cosine(a: str, b: str) -> float:
    """Cosine similarity of token-count vectors; 0 when either is empty."""
    (ca, norm_a), (cb, norm_b) = _vector(a), _vector(b)
    if not ca or not cb:
        return 0.0
    dot = sum(n * ca.get(t, 0) for t, n in cb.items())
    norm = norm_a * norm_b
    return dot / norm if norm else 0.0


def _cache_vector(t: FactTriple) -> tuple:
    """Store `(norm, *tokens)` of the rendered triple on it, each token as
    often as it occurs, and return it."""
    counts, norm = _vector(t.render())
    vector = (norm, *map(sys.intern, counts.elements()))
    object.__setattr__(t, "token_vector", vector)
    return vector


def contains_phrase(text: str, phrase: str) -> bool:
    """Token-bounded containment; 'Mayor 1' must not match inside
    'Mayor 10'."""
    text_tokens = tokenize(text)
    phrase_tokens = tokenize(phrase)
    if not phrase_tokens:
        return False
    n = len(phrase_tokens)
    return any(text_tokens[i:i + n] == phrase_tokens
               for i in range(len(text_tokens) - n + 1))


@dataclass(frozen=True)
class RankedEvidence:
    """Top-k candidates with their scores, best first."""

    triples: tuple[tuple[FactTriple, float], ...]
    k: int

    def __post_init__(self):
        scores = [s for _, s in self.triples]
        if any(x < y for x, y in zip(scores, scores[1:])):
            raise ValueError("scores must be non-increasing")
        if len(self.triples) > self.k:
            raise ValueError("more evidence than the selection count")

    def __len__(self) -> int:
        return len(self.triples)

    def __bool__(self) -> bool:
        return bool(self.triples)

    @property
    def selected(self) -> tuple[FactTriple, ...]:
        return tuple(t for t, _ in self.triples)


def _cache_index(candidates: TripleSet) -> tuple:
    """Store `(norms, postings)` on the set and return it. `norms` follows
    the set's key order; `postings` maps each token to the position of the
    one fact that holds it once, or else to a list with a position per
    occurrence."""
    norms = []
    postings: dict[str, int | list[int]] = {}
    for position, t in enumerate(candidates.triples):
        vector = t.token_vector or _cache_vector(t)
        norms.append(vector[0])
        for token in vector[1:]:
            hit = postings.get(token)
            if hit is None:
                postings[token] = position
            elif type(hit) is int:
                postings[token] = [hit, position]
            else:
                hit.append(position)
    index = (tuple(norms), postings)
    candidates.rank_index = index
    return index


def rank_triples(query: str, candidates: Iterable[FactTriple],
                 k: int = 1) -> RankedEvidence:
    """Score every candidate against the query and keep the top k.

    Ties break on the (subject, relation, object) key, so with distinct
    keys the selection does not depend on the order of the candidates.
    A TripleSet of two or more facts is scored through the index cached
    on it; anything else is scored candidate by candidate, with the same
    results.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q, qnorm = _vector(query)
    # one fact needs no index: scoring it directly is cheaper
    if isinstance(candidates, TripleSet) and len(candidates) > 1:
        return _rank_indexed(q, qnorm, candidates, k)
    get = q.get
    scored = []
    for t in candidates:
        vector = t.token_vector or _cache_vector(t)
        norm = vector[0]
        # the same integer dot product and division as token_cosine
        dot = sum(map(get, vector[1:], repeat(0)))
        scored.append((t, dot / (qnorm * norm) if q and norm else 0.0))
    scored.sort(key=lambda ts: (-ts[1], ts[0].key))
    return RankedEvidence(triples=tuple(scored[:k]), k=k)


def _rank_indexed(q: Counter, qnorm: float, candidates: TripleSet,
                  k: int) -> RankedEvidence:
    norms, postings = candidates.rank_index or _cache_index(candidates)
    dots = [0] * len(norms)
    for token, count in q.items():
        hit = postings.get(token)
        if hit is None:
            continue
        if type(hit) is int:
            dots[hit] += count
        else:
            for position in hit:
                dots[position] += count
    # the same integer dot product and division as token_cosine; a fact
    # that shares no token with the query scores 0.0 either way
    scores = [dot / (qnorm * norm) if dot else 0.0
              for dot, norm in zip(dots, norms)]
    # stable: equal scores keep key order, so ties go to the smaller key
    top = heapq.nlargest(k, range(len(scores)), key=scores.__getitem__)
    triples = candidates.triples
    return RankedEvidence(
        triples=tuple((triples[i], scores[i]) for i in top), k=k)
