from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache.errors import UnresolvableProbe
from factcache.scope import (ScopeClass, SimpleOracle, classify_scope,
                             compute_ex, frontier, join)
from factcache.triples import TripleSet
from conftest import triple


# --- independent oracles ------------------------------------------------------

def brute_force_join(a: TripleSet, b: TripleSet) -> set:
    """All-pairs object/subject comparison, no indexing."""
    keys = set()
    for u in a:
        for t in b:
            if u.obj == t.subject:
                keys.add(t.key)
    return keys


def brute_force_ex_keys(edit, graph: TripleSet, max_hops: int) -> set:
    """Path enumeration from the edit's object: every sequence of graph
    triples t1..ti (i <= max_hops) chained by object == subject, starting at
    the seed's object. No per-level dedup; cycles are walked literally."""
    triples = list(graph)
    keys = {edit.key}
    keys.update(t.key for t in triples if t.key == edit.key)
    paths = [[edit.obj]]
    for _ in range(max_hops):
        next_paths = []
        for path in paths:
            tail = path[-1]
            for t in triples:
                if t.subject == tail:
                    keys.add(t.key)
                    next_paths.append(path + [t.obj])
        if not next_paths:
            break
        paths = next_paths
    return keys


def random_graph(rng: random.Random, max_triples: int = 50) -> TripleSet:
    n_entities = rng.randint(2, 10)
    entities = [f"e{i}" for i in range(n_entities)]
    relations = ["r1", "r2", "r3"]
    n = rng.randint(1, max_triples)
    return TripleSet(
        triple(rng.choice(entities), rng.choice(relations),
               rng.choice(entities))
        for _ in range(n))


# --- join ----------------------------------------------------------------------

class TestJoin:
    def test_empty_left_operand(self):
        graph = TripleSet([triple("a", "r", "b")])
        assert join(TripleSet(), graph) == TripleSet()

    def test_one_hop_example_matches_brute_force(self):
        a = TripleSet([triple("US", "head_of_gov", "Biden")])
        b = TripleSet([triple("Biden", "spouse", "Jill"),
                       triple("Paris", "capital_of", "France")])
        result = join(a, b)
        assert result == TripleSet([triple("Biden", "spouse", "Jill")])
        assert result.keys() == frozenset(brute_force_join(a, b))

    def test_self_loop_fixed_point(self):
        loop = TripleSet([triple("a", "r", "a")])
        assert join(loop, loop) == loop

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_graphs(self, seed):
        rng = random.Random(seed)
        a = random_graph(rng, 20)
        b = random_graph(rng, 20)
        assert join(a, b).keys() == frozenset(brute_force_join(a, b))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_left_argument(self, seed):
        rng = random.Random(seed)
        big = random_graph(rng, 20)
        sub = TripleSet(t for t in big if rng.random() < 0.5)
        graph = random_graph(rng, 20)
        assert join(sub, graph).keys() <= join(big, graph).keys()


# --- frontier -------------------------------------------------------------------

class TestFrontier:
    def test_hop_zero_identity_oracle_is_seed_only(self):
        seed = triple("x", "r", "y")
        graph = TripleSet([triple("p", "r", "q")])
        assert frontier(seed, graph, 0) == TripleSet([seed])

    def test_hop_zero_includes_alias_equivalents(self):
        seed = triple("US", "head_of_gov", "Biden")
        equivalent = triple("America", "leader", "Joe Biden")
        graph = TripleSet([equivalent, triple("Paris", "capital_of", "France")])
        oracle = SimpleOracle(
            entity_sets={"US": "us", "America": "us",
                         "Biden": "biden", "Joe Biden": "biden"},
            relation_sets={"head_of_gov": "hog", "leader": "hog"},
        )
        assert frontier(seed, graph, 0, oracle) == TripleSet([seed, equivalent])

    def test_chain_hop_one(self):
        a_b = triple("a", "r1", "b")
        b_c = triple("b", "r2", "c")
        graph = TripleSet([a_b, b_c])
        assert frontier(a_b, graph, 1) == TripleSet([b_c])

    def test_chain_hop_two_reaches_third_link(self):
        links = [triple("a", "r1", "b"), triple("b", "r2", "c"),
                 triple("c", "r3", "d")]
        graph = TripleSet(links)
        assert frontier(links[0], graph, 2) == TripleSet([links[2]])

    def test_rejects_negative_hops(self):
        with pytest.raises(ValueError):
            frontier(triple("a", "r", "b"), TripleSet(), -1)


# --- compute_ex -----------------------------------------------------------------

class TestComputeEx:
    def test_acyclic_chain_collects_every_link(self):
        links = [triple(f"n{i}", "r", f"n{i + 1}") for i in range(5)]
        graph = TripleSet(links)
        result = compute_ex(links[0], graph, max_hops=5)
        assert result == TripleSet(links)

    def test_cycle_terminates_and_matches_closure(self):
        cycle = [triple("a", "r", "b"), triple("b", "r", "c"),
                 triple("c", "r", "a")]
        graph = TripleSet(cycle)
        result = compute_ex(cycle[0], graph, max_hops=4)
        # independent closure: visited-set walk from the seed's object
        visited, frontier_entities = set(), {"b"}
        reached = set()
        while frontier_entities:
            entity = frontier_entities.pop()
            if entity in visited:
                continue
            visited.add(entity)
            edges = [t for t in graph if t.subject == entity]
            reached |= {t.key for t in edges}
            frontier_entities |= {t.obj for t in edges}
        assert result.keys() == reached | {cycle[0].key}

    def test_isolated_triple_is_hop_zero_only(self):
        seed = triple("a", "r", "leaf")
        graph = TripleSet([seed, triple("x", "r", "a")])
        assert compute_ex(seed, graph, max_hops=3) == TripleSet([seed])

    def test_requires_positive_max_hops(self):
        with pytest.raises(ValueError):
            compute_ex(triple("a", "r", "b"), TripleSet(), max_hops=0)

    def test_frontier_subset_property(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng)
            seed = triple("e0", "r1", "e1")
            ex = compute_ex(seed, graph, max_hops=3)
            for i in range(4):
                assert frontier(seed, graph, i).keys() <= ex.keys()

    def test_matches_path_enumeration_on_random_graphs(self):
        rng = random.Random(40)
        for _ in range(50):
            graph = random_graph(rng)
            seed = rng.choice(list(graph))
            max_hops = rng.randint(1, 3)
            assert compute_ex(seed, graph, max_hops).keys() == \
                frozenset(brute_force_ex_keys(seed, graph, max_hops))


# --- classify_scope ---------------------------------------------------------------

@pytest.fixture
def us_oracle():
    return SimpleOracle(
        entity_sets={"US": "us", "America": "us"},
        query_map={
            "Who is the current head of government for America?":
                ("US", "head_of_gov"),
            "The head of government for America is __":
                ("US", "head_of_gov"),
            "Who is the spouse of the President of the United States?":
                ("Biden", "spouse"),
            "What color is the Sky?": ("Sky", "color"),
        },
        answer_map={"Joe Biden": "Biden", "Jill Biden": "Jill"},
    )


@pytest.fixture
def us_graph():
    return TripleSet([
        triple("US", "head_of_gov", "Biden"),
        triple("Biden", "spouse", "Jill"),
        triple("Sky", "color", "Blue"),
    ])


class TestClassifyScope:
    EDIT = triple("US", "head_of_gov", "Biden")

    def test_paraphrase_probe_is_in_scope(self, us_graph, us_oracle):
        assert classify_scope(
            self.EDIT, "The head of government for America is __",
            "Joe Biden", us_graph, us_oracle) is ScopeClass.IN_SCOPE

    def test_derived_fact_probe_is_extended(self, us_graph, us_oracle):
        assert classify_scope(
            self.EDIT, "Who is the spouse of the President of the United States?",
            "Jill Biden", us_graph, us_oracle) is ScopeClass.EXTENDED

    def test_unrelated_probe_is_outside(self, us_graph, us_oracle):
        assert classify_scope(
            self.EDIT, "What color is the Sky?", "Blue",
            us_graph, us_oracle) is ScopeClass.OUTSIDE

    def test_unmapped_probe_raises(self, us_graph, us_oracle):
        with pytest.raises(UnresolvableProbe):
            classify_scope(self.EDIT, "Unknown question?", "answer",
                           us_graph, us_oracle)

    def test_partition_is_deterministic(self, us_graph, us_oracle):
        probes = [
            ("Who is the current head of government for America?", "Joe Biden"),
            ("The head of government for America is __", "Joe Biden"),
            ("Who is the spouse of the President of the United States?",
             "Jill Biden"),
            ("What color is the Sky?", "Blue"),
        ]
        for query, answer in probes:
            first = classify_scope(self.EDIT, query, answer, us_graph,
                                   us_oracle)
            second = classify_scope(self.EDIT, query, answer, us_graph,
                                    us_oracle)
            assert first is second
            assert first in (ScopeClass.IN_SCOPE, ScopeClass.EXTENDED,
                             ScopeClass.OUTSIDE)

    def test_wrong_answer_on_edit_query_is_not_in_scope(self, us_graph,
                                                        us_oracle):
        result = classify_scope(
            self.EDIT, "Who is the current head of government for America?",
            "Jill Biden", us_graph, us_oracle)
        assert result is not ScopeClass.IN_SCOPE
