"""Evidence ranking: score candidate triples against a query, keep top-k.

The score is a deterministic lexical one: cosine over lowercase token-count
vectors of the serialized triple vs. the query, built from the tokens of
the triple's labels, which are the tokens of its rendered line: the
brackets and commas that join them are not token characters.

Ranking caches only on a TripleSet, which is immutable, so nothing goes
stale. A set of more than UNINDEXED_MAX facts is ranked through an index
kept on it (see `_cache_index`). When all its facts share one subject
label, the label's tokens add the same count to every fact's dot product,
so a query scores only the facts its other tokens touch, plus the k best
of the rest, which the index keeps in norm order. A smaller set and any
other candidates are scored fact by fact from their labels' tokens. Both
give the same scores and selection. Every set's evidence memo is cleared
when full.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse, islice, repeat
from operator import mul
from typing import Collection, Iterable, Iterator

from .triples import FactTriple, TripleSet

_TOKEN_RE = re.compile(r"[0-9a-z]+")
# for ASCII text: keep 0-9 and a-z, fold A-Z, make every other byte a space
_ASCII_TOKENS = bytes(c | 32 if chr(c).isalpha() else c if chr(c).isdigit()
                      else 32 for c in range(128)) + b" " * 128
_ASCII_LINES = _ASCII_TOKENS[:10] + b"\n" + _ASCII_TOKENS[11:]  # keeps "\n"
# distinct relation labels whose tokens are kept for reuse
RELATION_MEMO_SIZE = 4096
# queries whose evidence a TripleSet keeps; a full memo is cleared
RANK_MEMO_SIZE = 64
# a set of at most this many facts is scored fact by fact and keeps no
# index: on sets kept alive, that scores a question 1.5 us cheaper than
# building an index and querying it once at 8 facts, about even at 10-12
UNINDEXED_MAX = 8


def tokenize(text: str) -> list[str]:
    """The runs of [0-9a-z] in text.lower(). Only ASCII text takes the
    byte table: folding other text can yield ASCII letters (the Kelvin
    sign, U+212A, folds to 'k')."""
    if text.isascii():
        return text.encode().translate(_ASCII_TOKENS).decode().split()
    return _TOKEN_RE.findall(text.lower())


def tokenize_all(texts: Collection[str]) -> Iterator[list[str]]:
    """`tokenize(text)` for each text, in order. The ASCII texts that hold
    no newline are joined by one and translated in one pass; any other
    text goes through `tokenize`."""
    joined = "\n".join(texts)
    one_pass = joined.isascii() and joined.count("\n") == len(texts) - 1
    if not one_pass:  # a text needs `tokenize`, or there is no text
        joined = "\n".join([text for text in texts
                            if text.isascii() and "\n" not in text])
    lines = map(str.split, joined.encode().translate(_ASCII_LINES).decode()
                .split("\n"))
    return lines if one_pass else (
        next(lines) if text.isascii() and "\n" not in text else tokenize(text)
        for text in texts)


def _vector(tokens: Iterable[str]) -> tuple[dict[str, int], float]:
    """How often each token occurs, and the Euclidean norm of the counts."""
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    values = counts.values()
    return counts, math.sqrt(sum(map(mul, values, values)))


def token_cosine(a: str, b: str) -> float:
    """Cosine similarity of token-count vectors; 0 when either is empty."""
    (ca, norm_a), (cb, norm_b) = _vector(tokenize(a)), _vector(tokenize(b))
    if not ca or not cb:
        return 0.0
    dot = sum(n * ca.get(t, 0) for t, n in cb.items())
    norm = norm_a * norm_b
    return dot / norm if norm else 0.0


@lru_cache(maxsize=RELATION_MEMO_SIZE)
def _relation_tokens(label: str) -> tuple[str, ...]:
    return tuple(tokenize(label))


def _norm(tokens: tuple[str, ...]) -> float:
    # the same integer sum of squares, and so the same norm, as _vector
    return (math.sqrt(len(tokens)) if len(set(tokens)) == len(tokens)
            else _vector(tokens)[1])


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


@dataclass(frozen=True, slots=True)
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

    @property
    def selected(self) -> tuple[FactTriple, ...]:
        return tuple([t for t, _ in self.triples])


EMPTY_EVIDENCE = RankedEvidence(triples=(), k=1)


def _cache_index(candidates: TripleSet) -> tuple:
    """Store `(norms, postings, shared, by_norm)` on the set and return
    it. `norms` follows the set's key order. If all facts have one subject
    label, `shared` holds its tokens, which every fact has, and `by_norm`
    the positions by ascending norm, then key; else both are empty.
    `postings` maps each token past `shared` to the position of the one
    fact that holds it once, or else to a position per occurrence."""
    triples = candidates.triples
    label = triples[0].subject_label
    shared = (tuple(tokenize(label))
              if all(t.subject_label == label for t in triples) else ())
    norms = []
    postings: dict[str, int | list[int]] = {}
    for position, t in enumerate(triples):
        own = (*_relation_tokens(t.relation_label), *tokenize(t.object_label))
        if not shared:
            own = (*tokenize(t.subject_label), *own)
        norms.append(_norm((*shared, *own)))
        for token in own:
            hit = postings.get(token)
            if hit is None:
                postings[token] = position
            elif type(hit) is int:
                postings[token] = [hit, position]
            else:
                hit.append(position)
    by_norm = array("q", sorted(range(len(norms)), key=norms.__getitem__)
                    if shared else ())
    index = (array("d", norms), postings, shared, by_norm)
    candidates.rank_index = index
    return index


def rank_triples(query: str, candidates: Iterable[FactTriple],
                 k: int = 1) -> RankedEvidence:
    """Score every candidate against the query and keep the top k.

    Ties break on the (subject, relation, object) key, so with distinct
    keys the selection does not depend on the order of the candidates.
    A TripleSet of more than UNINDEXED_MAX facts is scored through the
    index cached on it; anything else is scored candidate by candidate
    from its labels' tokens, with the same results. Any TripleSet keeps
    the evidence of up to RANK_MEMO_SIZE queries and is immutable, so a
    repeated query and k reuse it. A full memo is cleared, never
    iterated: answering threads share it.
    """
    if not isinstance(candidates, TripleSet):
        return _rank(query, candidates, k)
    memo = candidates.rank_memo
    if memo is None:
        memo = candidates.rank_memo = {}
    evidence = memo.get(query)
    if evidence is None or evidence.k != k:
        evidence = _rank(query, candidates, k)
        if len(memo) >= RANK_MEMO_SIZE:
            memo.clear()
        memo[query] = evidence
    return evidence


def _rank(query: str, candidates: Iterable[FactTriple], k: int
          ) -> RankedEvidence:
    if k < 1:
        raise ValueError("k must be >= 1")
    q, qnorm = _vector(tokenize(query))
    if isinstance(candidates, TripleSet) and len(candidates) > UNINDEXED_MAX:
        return _rank_indexed(q, qnorm, candidates, k)
    get = q.get
    scored = []
    for t in candidates:
        tokens = (*tokenize(t.subject_label),
                  *_relation_tokens(t.relation_label),
                  *tokenize(t.object_label))
        norm = _norm(tokens)
        # the same integer dot product and division as token_cosine
        dot = sum(map(get, tokens, repeat(0)))
        scored.append((t, dot / (qnorm * norm) if q and norm else 0.0))
    scored.sort(key=lambda ts: (-ts[1], ts[0].key))
    return RankedEvidence(triples=tuple(scored[:k]), k=k)


def _rank_indexed(q: dict[str, int], qnorm: float, candidates: TripleSet,
                  k: int) -> RankedEvidence:
    norms, postings, shared, by_norm = (candidates.rank_index
                                        or _cache_index(candidates))
    # the integer dot product of token_cosine, split into the shared
    # subject tokens' part, the same for every fact, and the rest
    base = sum(map(q.get, shared, repeat(0)))
    dots: dict[int, int] = {}
    for token, count in q.items():
        hit = postings.get(token)
        if hit is None:
            continue
        if type(hit) is int:
            dots[hit] = dots.get(hit, base) + count
        else:
            for position in hit:
                dots[position] = dots.get(position, base) + count
    # The k best of the untouched facts. They score base / (qnorm * norm):
    # the square roots of distinct small integers differ by far more than
    # rounding, so a larger norm scores strictly lower. With base 0 they
    # all score 0.0 and the first positions win.
    order = by_norm if base else range(len(norms))
    for position in islice(filterfalse(dots.__contains__, order), k):
        dots[position] = base
    # token_cosine's division, negated exactly: an ascending sort puts the
    # best first, ties on the smaller key; a zero dot scores 0.0 either way
    ranked = [(-dot / (qnorm * norms[position]) if dot else -0.0, position)
              for position, dot in dots.items()]
    ranked.sort()
    triples = candidates.triples
    return RankedEvidence(
        triples=tuple((triples[i], -score) for score, i in ranked[:k]), k=k)
