from __future__ import annotations

import inspect
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache import ranking
from factcache.cache import TieredFactStore, save_state, write_dump
from factcache.ranking import (RankedEvidence, rank_triples, token_cosine,
                               tokenize)
from factcache.triples import FactTriple, Source, TripleSet
from conftest import SNAPSHOT, triple

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


@given(query=_TEXT, query2=_TEXT, candidates=_candidates(),
       k=st.integers(1, 6), order=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rank_triples_matches_brute_force(query, query2, candidates, k, order):
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
    # the same, now warm, set against another query: its index must hold
    # nothing of the query that first ranked it
    again = rank_triples(query2, candidates, max(1, len(candidates)))
    assert len(again) == len(candidates)
    for t, score in again.triples:
        assert score == token_cosine(query2, t.render())


def _brute_force(query, candidates, k):
    return tuple(sorted(
        ((t, token_cosine(query, t.render())) for t in candidates),
        key=lambda ts: (-ts[1], ts[0].key))[:k])


@st.composite
def _one_subject(draw):
    """A one-subject view whose subject words recur in its relation and
    object labels, queries with and without those words, and a k up to
    one past the size."""
    subject_label = draw(_LABEL)
    subject_tokens = set(tokenize(subject_label))
    words = st.sampled_from(subject_label.split()) | _WORDS
    label = st.lists(words, min_size=1, max_size=4).map(" ".join)
    n = draw(st.integers(2, 12))
    triples = [triple("s", f"r{i % 3}", f"o{i}", subject_label=subject_label,
                      relation_label=draw(label), object_label=draw(label))
               for i in range(n)]
    others = _WORDS.filter(lambda w: not subject_tokens & set(tokenize(w)))
    queries = []
    for _ in range(2):
        query = draw(st.lists(others, max_size=6))
        if draw(st.booleans()):
            query.insert(draw(st.integers(0, len(query))), subject_label)
        queries.append(" ".join(query))
    return TripleSet(triples), queries, draw(st.integers(1, n + 1))


@given(case=_one_subject(), list_first=st.booleans(),
       order=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_a_one_subject_view_matches_brute_force(case, list_first, order):
    candidates, queries, k = case
    shuffled = list(candidates)
    order.shuffle(shuffled)
    if list_first:  # the list path first, then the index
        rank_triples(queries[0], shuffled, k)
    for query in queries:
        brute = _brute_force(query, candidates, k)
        assert rank_triples(query, candidates, k).triples == brute
        assert rank_triples(query, shuffled, k).triples == brute
    assert candidates.rank_index is not None


@pytest.mark.parametrize("subject, relation, obj", [
    ("İstanbul", "capital of", "İzmir"),
    ("\u212aelvin", "unit of", "\u212a"),
    ("ΟΔΥΣΣΕΥΣ", "king of", "Ithaca ΟΔΥΣΣΕΥΣ"),
    ("Paris,France", "capital of", "France,Paris"),
    ("Route 128", "opened in", "1951 128"),
])
def test_the_index_holds_the_vector_of_each_rendered_line(
        subject, relation, obj):
    # the index, which shares the subject, keeps each fact's norm and
    # postings
    pair = TripleSet([triple(subject, relation, obj),
                      triple(subject, "r", "x")])
    rank_triples(QUERY, pair)
    norms, postings, shared, _ = pair.rank_index
    for position, t in enumerate(pair):
        counts = Counter(tokenize(t.render()))
        assert norms[position] == \
            math.sqrt(sum(v * v for v in counts.values()))
        own = Counter()
        for token, hit in postings.items():
            own[token] = ([hit] if type(hit) is int else hit).count(position)
        assert Counter(shared) + own == counts


def test_a_fact_is_plain_data_that_ranking_leaves_unchanged():
    fields = tuple(inspect.signature(FactTriple).parameters)
    assert FactTriple.__slots__ == fields

    def state(facts):
        return [(tuple(getattr(t, name) for name in fields), sys.getsizeof(t))
                for t in facts]
    facts = [triple("America", "head of government", "Biden"),
             triple("America", "capital", "Washington"),
             triple("Paris", "r", "x")]
    before = state(facts)
    for candidates in (list(facts), TripleSet(facts[:1]), TripleSet(facts)):
        rank_triples(QUERY, candidates, k=2)
        assert state(facts) == before


def test_positions_past_two_to_the_sixteenth_are_ranked():
    # key order is position order; every fact's object label has three
    # tokens but the one at `short`, which has one and so the least norm
    n, short, rare = 70_000, 69_000, 66_000
    facts = [triple("s", "r", f"o{i:05d}", subject_label="Big Town",
                    object_label=f"w{i}" if i == short else f"w{i} x y")
             for i in range(n)]
    candidates = TripleSet(facts)
    # the first touches no fact past the subject's tokens, so the least
    # norm wins from norm order; the second also touches `rare`, which wins
    for query, best in (("big town", short), (f"big town w{rare}", rare)):
        evidence = rank_triples(query, candidates, k=3)
        assert evidence.selected[0] is facts[best]
        assert evidence.triples == _brute_force(query, candidates, 3)


def test_the_relation_label_memo_is_bounded():
    memo = ranking._relation_tokens
    assert memo.cache_info().maxsize == ranking.RELATION_MEMO_SIZE == 4096
    rank_triples(QUERY, [triple("s", f"r{i}", "o", relation_label=f"r {i}")
                         for i in range(ranking.RELATION_MEMO_SIZE + 10)])
    assert memo.cache_info().currsize == ranking.RELATION_MEMO_SIZE


@st.composite
def _memo_case(draw):
    """A set of 1-40 facts, one subject label for all of them or not, and
    more distinct queries than a set keeps evidence for."""
    one_subject = draw(st.booleans())
    subject_label = draw(_LABEL)
    triples = [triple(f"s{i % 3}", f"r{i % 4}", f"o{i}",
                      subject_label=(subject_label if one_subject
                                     else draw(_LABEL)),
                      relation_label=draw(_LABEL), object_label=draw(_LABEL))
               for i in range(draw(st.integers(1, 40)))]
    texts = draw(st.lists(_TEXT, min_size=1, max_size=8))
    # a numbered suffix keeps the queries distinct; "1" and "10" are also
    # label words, so it can change the scores
    queries = [f"{texts[i % len(texts)]} {i}"
               for i in range(ranking.RANK_MEMO_SIZE + 8)]
    return TripleSet(triples), queries


@given(case=_memo_case(), ks=st.lists(st.integers(1, 3), min_size=1),
       order=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_the_rank_memo_matches_a_fresh_ranking(case, ks, order):
    candidates, queries = case
    asked = queries * 2  # each query twice, interleaved with the others
    order.shuffle(asked)
    for i, query in enumerate(asked):
        k = ks[i % len(ks)]
        memoized = rank_triples(query, candidates, k)
        fresh = rank_triples(query, list(candidates), k)  # never memoized
        assert (memoized.triples, memoized.k) == (fresh.triples, fresh.k)
    assert len(candidates.rank_memo) == ranking.RANK_MEMO_SIZE


def test_a_repeated_query_is_served_from_the_set():
    ts = TripleSet([HOG, CAPITAL])
    evidence = rank_triples(QUERY, ts)
    assert rank_triples(QUERY, ts) is evidence
    assert rank_triples(QUERY, ts, k=2) is not evidence  # another k
    assert rank_triples(QUERY, [HOG, CAPITAL]) is not evidence  # a list
    assert list(ts.rank_memo) == [QUERY]
    for i in range(ranking.RANK_MEMO_SIZE):
        rank_triples(f"{QUERY} {i}", ts)
    assert QUERY not in ts.rank_memo  # the oldest went first
    assert len(ts.rank_memo) == ranking.RANK_MEMO_SIZE


def test_a_set_is_indexed_once_and_counts_repeated_tokens():
    paris = triple("Paris", "capital of", "Paris")  # "paris" twice
    ts = TripleSet([paris, CAPITAL, HOG])
    assert ts.rank_index is None
    rank_triples(QUERY, ts)
    index = ts.rank_index
    assert index is not None
    evidence = rank_triples("Paris capital", ts, k=3)
    assert ts.rank_index is index
    assert evidence.selected[0] == paris
    for t, score in evidence.triples:
        assert score == token_cosine("Paris capital", t.render())


class TestRankedEvidence:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError):
            RankedEvidence(triples=((HOG, 0.1), (CAPITAL, 0.9)), k=2)

    def test_rejects_overfull_selection(self):
        with pytest.raises(ValueError):
            RankedEvidence(triples=((HOG, 0.9), (CAPITAL, 0.1)), k=1)


class TestRankedTriple:
    """Ranking a triple leaves its identity, its copies and its serialized
    forms as those of a triple never ranked."""

    @staticmethod
    def ranked_and_fresh():
        def make():
            return triple("America", "head of government", "Joe Biden",
                          source=Source.WIKIDATA, fetched_at=SNAPSHOT)
        ranked, fresh = make(), make()
        rank_triples(QUERY, [ranked])
        return ranked, fresh

    def test_identity_ignores_ranking(self):
        ranked, fresh = self.ranked_and_fresh()
        assert ranked == fresh
        assert hash(ranked) == hash(fresh)
        assert repr(ranked) == repr(fresh)

    def test_constructor_takes_only_the_data_fields(self):
        assert list(inspect.signature(FactTriple).parameters) == [
            "subject", "relation", "obj", "subject_label", "relation_label",
            "object_label", "object_is_entity", "source", "fetched_at",
            "version"]

    def test_files_do_not_depend_on_ranking(self, tmp_path):
        ranked, fresh = self.ranked_and_fresh()
        for name, t in (("ranked", ranked), ("fresh", fresh)):
            write_dump(tmp_path / f"{name}.jsonl", [t], snapshot_at=SNAPSHOT)
            store = TieredFactStore()
            store.bulk_load([t])
            save_state(store, tmp_path / f"{name}.json")
        for suffix in (".jsonl", ".json"):
            assert (tmp_path / f"ranked{suffix}").read_bytes() == \
                (tmp_path / f"fresh{suffix}").read_bytes()
