from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache.ranking import (RankedEvidence, rank_triples, token_cosine,
                               tokenize)
from factcache.triples import TripleSet
from conftest import triple

HOG = triple("America", "head of government", "Biden",
             relation_label="head of government")
CAPITAL = triple("America", "capital", "Washington")
QUERY = "Who is the head of government in America?"


class TestTokenCosine:
    def test_hand_computed_example(self):
        # query tokens: who,is,the,head,of,government,in,america (8, all 1s)
        # hog render tokens: america,head,of,government,biden -> overlap 4
        # capital render tokens: america,capital,washington -> overlap 1
        assert token_cosine(QUERY, HOG.render()) == \
            pytest.approx(4 / math.sqrt(8 * 5))
        assert token_cosine(QUERY, CAPITAL.render()) == \
            pytest.approx(1 / math.sqrt(8 * 3))

    def test_empty_text_scores_zero(self):
        assert token_cosine("", "anything") == 0.0

    def test_identical_texts_score_one(self):
        assert token_cosine("head of state", "head of state") == \
            pytest.approx(1.0)

    def test_tokenizer_lowercases_and_splits_punctuation(self):
        assert tokenize("Route 128 station, USA!") == \
            ["route", "128", "station", "usa"]


class TestRankTriples:
    def test_relation_match_outranks_shared_subject(self):
        evidence = rank_triples(QUERY, TripleSet([HOG, CAPITAL]), k=1)
        assert evidence.selected == (HOG,)
        assert evidence.triples[0][1] == pytest.approx(4 / math.sqrt(40))

    def test_singleton_candidate(self):
        evidence = rank_triples(QUERY, TripleSet([CAPITAL]), k=1)
        assert evidence.selected == (CAPITAL,)
        assert 0.0 <= evidence.triples[0][1] <= 1.0

    def test_tie_breaks_lexicographically(self):
        a = triple("a", "r", "x")
        b = triple("b", "r", "x")
        evidence = rank_triples("completely unrelated words",
                                TripleSet([b, a]), k=1)
        assert evidence.selected == (a,)  # equal scores; smaller key first

    def test_empty_candidates_yield_empty_evidence(self):
        evidence = rank_triples(QUERY, TripleSet(), k=3)
        assert len(evidence) == 0
        assert not evidence

    def test_k_caps_the_selection(self):
        ts = TripleSet([triple(f"s{i}", "head of government", f"o{i}")
                        for i in range(5)])
        assert len(rank_triples(QUERY, ts, k=2)) == 2

    def test_scores_non_increasing(self):
        ts = TripleSet([HOG, CAPITAL, triple("x", "y", "z")])
        evidence = rank_triples(QUERY, ts, k=3)
        scores = [s for _, s in evidence.triples]
        assert scores == sorted(scores, reverse=True)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_triples(QUERY, TripleSet(), k=0)


def _reference_cosine(a: str, b: str) -> float:
    """The token cosine written out longhand, as a fixed reference."""
    ca, cb = Counter(tokenize(a)), Counter(tokenize(b))
    if not ca or not cb:
        return 0.0
    dot = sum(ca[t] * cb[t] for t in ca.keys() & cb.keys())
    norm = math.sqrt(sum(v * v for v in ca.values()))
    norm *= math.sqrt(sum(v * v for v in cb.values()))
    return dot / norm if norm else 0.0


# a small vocabulary, so labels and queries share tokens and scores tie
_WORDS = st.sampled_from(["head", "of", "government", "America", "capital",
                          "Paris", "the", "1", "10", "Who", "is", "?", ","])
_TEXT = st.lists(_WORDS, max_size=6).map(" ".join)
_LABEL = st.lists(_WORDS, min_size=1, max_size=4).map(" ".join)


@st.composite
def _candidates(draw):
    triples = []
    for i in range(draw(st.integers(0, 12))):
        triples.append(triple(
            f"s{draw(st.integers(0, 4))}", f"r{i % 3}", f"o{i}",
            subject_label=draw(_LABEL), relation_label=draw(_LABEL),
            object_label=draw(_LABEL)))
    return TripleSet(triples)


@given(query=_TEXT, candidates=_candidates(), k=st.integers(1, 6),
       order=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rank_triples_matches_brute_force(query, candidates, k, order):
    evidence = rank_triples(query, candidates, k)
    shuffled = list(candidates)  # a plain list, in no particular order
    order.shuffle(shuffled)
    assert rank_triples(query, shuffled, k) == evidence
    for t, score in evidence.triples:
        assert score == token_cosine(query, t.render())
        assert score == _reference_cosine(query, t.render())
    brute = sorted(((t, token_cosine(query, t.render())) for t in candidates),
                   key=lambda ts: (-ts[1], ts[0].key))[:k]
    assert evidence.triples == tuple(brute)


class TestRankedEvidence:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError):
            RankedEvidence(triples=((HOG, 0.1), (CAPITAL, 0.9)), k=2)

    def test_rejects_overfull_selection(self):
        with pytest.raises(ValueError):
            RankedEvidence(triples=((HOG, 0.9), (CAPITAL, 0.1)), k=1)
