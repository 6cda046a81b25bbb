from __future__ import annotations

import hashlib
import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import factcache
from factcache.cache import RemoteSparqlSource, row_to_triple, triple_to_row
from factcache.errors import (ConfigError, HttpError, MalformedResponse,
                             RateLimited)
from factcache.kbclient import (DBPEDIA_ENDPOINT, EquivalentPropertyPair,
                                KnowledgeBaseClient, RawTripleRow,
                                _identifier_like, dbpedia_triples_query,
                                equivalent_properties_query, filter_ambiguous,
                                wikidata_triples_query)
from factcache.sparqlio import (ENTITY_NAMESPACES, RequestPolicy,
                                TransportReply, entity_id, row_fact)
from factcache.triples import Source
from conftest import FIXTURES, SNAPSHOT

# Pinned digests of the packaged query/prompt assets; any edit to the files
# (including whitespace) fails here.
ASSET_DIGESTS = {
    "sparql/equivalent_properties.rq":
        "2fca224b896d381405c78c858cbc5a91540462afd0f096a01d68b9c06f819262",
    "sparql/wikidata_triples.rq":
        "76cf3fa228b60c6a1e51628443251a4932100589e7c139b411feaab9a28bc45d",
    "sparql/dbpedia_triples.rq":
        "94f5477cef0711069631a935bc05675816610f2cab38a9968976741aacbbb8ef",
    "sparql/subject_facts.rq":
        "13b84399b8d64596d5e00a0ce69b862accb3ce3c9b1605bf3ba2fd04e050d27d",
}


def fixture_transport(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")

    def transport(url, params, headers):
        assert params["query"]
        assert headers["Accept"] == "application/sparql-results+json"
        return TransportReply(status=200, text=text)

    return transport


def wikidata_client(fixture: str = "wikidata_triples_response.json"):
    return KnowledgeBaseClient(kind="wikidata", endpoint="https://unit.test/sparql",
                               transport=fixture_transport(fixture))


def dbpedia_client(fixture: str = "dbpedia_triples_response.json"):
    return KnowledgeBaseClient(kind="dbpedia", endpoint=DBPEDIA_ENDPOINT,
                               transport=fixture_transport(fixture))


def reply_with(*rows):
    """A transport answering every query with `rows`, each a dict of
    variable to value; a None value is left unbound."""
    names = sorted({name for row in rows for name in row})
    body = json.dumps({"head": {"vars": names}, "results": {"bindings": [
        {name: {"type": "literal", "value": value}
         for name, value in row.items() if value is not None}
        for row in rows]}})
    return lambda url, params, headers: TransportReply(200, body)


def refuse(url, params, headers):
    raise AssertionError("a request was sent")


class TestQueryGeneration:
    @pytest.mark.parametrize("name,digest", sorted(ASSET_DIGESTS.items()))
    def test_query_assets_are_pinned(self, name, digest):
        data = (resources.files("factcache.assets") / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_equivalent_properties_query_shape(self):
        q = equivalent_properties_query()
        assert "owl:equivalentProperty" in q
        assert "FILTER ( CONTAINS ( str(?WikidataProp) , 'wikidata' ) )" in q
        assert q.endswith("ORDER BY  ?WikidataProp\n")

    def test_wikidata_substitution(self):
        q = wikidata_triples_query("P6", limit=100, offset=200)
        assert "?subject wdt:P6 ?object." in q
        assert "LIMIT 100" in q and "OFFSET 200" in q
        assert "{item}" not in q and "{limit}" not in q and "{offset}" not in q
        assert "# ?subject wdt:P31 wd:Q5." in q  # human filter stays commented

    def test_person_only_uncomments_human_filter(self):
        q = wikidata_triples_query("P6", 10, 0, person_only=True)
        assert "# ?subject wdt:P31 wd:Q5." not in q
        assert "?subject wdt:P31 wd:Q5." in q

    def test_dbpedia_substitution(self):
        url = "http://dbpedia.org/ontology/primeMinister"
        q = dbpedia_triples_query(url)
        assert f"?subject <{url}> ?object." in q
        assert "{property_url}" not in q

    def test_generation_is_a_pure_string_function(self):
        assert wikidata_triples_query("P36", 5, 15) == \
            wikidata_triples_query("P36", 5, 15)
        assert dbpedia_triples_query("http://x/y") == \
            dbpedia_triples_query("http://x/y")


class TestEquivalentProperties:
    def test_fixture_pairs_filtered(self):
        client = dbpedia_client("equivalent_properties_response.json")
        pairs = client.fetch_equivalent_properties()
        labels = [p.label for p in pairs]
        assert "birth place" in labels      # plain relation retained
        assert "VIAF ID" not in labels      # identifier-like dropped
        assert "IATA code" in labels        # allowlisted designator kept
        birth = next(p for p in pairs if p.label == "birth place")
        assert birth.wikidata_property == "P19"
        assert birth.dbpedia_property == "http://dbpedia.org/ontology/birthPlace"

    def test_empty_result_set(self):
        empty = json.dumps({"head": {"vars": ["DBpediaProp", "itemLabel",
                                              "WikidataProp"]},
                            "results": {"bindings": []}})
        client = KnowledgeBaseClient(
            kind="dbpedia", endpoint="https://unit.test",
            transport=lambda u, p, h: TransportReply(200, empty))
        assert client.fetch_equivalent_properties() == []

    def test_property_id_shape_enforced(self):
        with pytest.raises(ValueError):
            EquivalentPropertyPair(dbpedia_property="http://x",
                                   wikidata_property="Q42", label="x")

    @pytest.mark.parametrize("label,expected", [
        ("VIAF ID", True),
        ("ISO 3166 code", True),
        ("IATA code", False),          # allowlist wins
        ("ICAO code", False),
        ("president", False),          # substring 'id' must not match
        ("head of government", False),
    ])
    def test_identifier_blocklist_matches_tokens(self, label, expected):
        assert _identifier_like(label) is expected


class TestFetchTriples:
    def test_wikidata_fixture_rows(self):
        client = wikidata_client()
        rows = client.fetch_triples("P6", limit=10,
                                    relation_label="head of government")
        assert rows[0].fact.subject_label == "Sioux Falls"
        assert rows[0].fact.object_label == "Paul Ten Haken"
        assert rows[0].relation_count == 41
        assert rows[0].fact.source is Source.WIKIDATA

    def test_zero_limit_short_circuits(self):
        calls = []

        def transport(url, params, headers):
            calls.append(url)
            return TransportReply(200, "{}")

        client = KnowledgeBaseClient(kind="wikidata", endpoint="https://u.t",
                                     transport=transport)
        assert client.fetch_triples("P6", limit=0) == []
        assert calls == []

    @pytest.mark.parametrize("kind", ["wikidata", "dbpedia"])
    @pytest.mark.parametrize("relation", ["/", "//"])
    def test_a_relation_that_names_no_property_sends_nothing(self, kind,
                                                             relation):
        def transport(url, params, headers):
            raise AssertionError("a request was sent")

        client = KnowledgeBaseClient(kind=kind, endpoint="https://u.t",
                                     transport=transport)
        with pytest.raises(ConfigError, match="names no property id"):
            client.fetch_triples(relation, limit=5)

    def test_dbpedia_pages_client_side(self):
        client = dbpedia_client()
        rows = client.fetch_triples("http://dbpedia.org/ontology/capital",
                                    limit=2, offset=1)
        assert [r.fact.subject_label for r in rows] == ["France", "Norway"]

    def test_a_literal_object_has_no_uri(self):
        body = json.dumps({
            "head": {"vars": ["subject", "subjectLabel", "object"]},
            "results": {"bindings": [{
                "subject": {"type": "uri", "value":
                            "http://dbpedia.org/resource/Highway_to_Hell"},
                "subjectLabel": {"type": "literal",
                                 "value": "Highway to Hell"},
                "object": {"type": "literal", "value": "AC/DC"}}]}})
        client = KnowledgeBaseClient(
            kind="dbpedia", endpoint=DBPEDIA_ENDPOINT,
            transport=lambda u, p, h: TransportReply(200, body))
        (raw,) = client.fetch_triples("http://dbpedia.org/ontology/artist",
                                      limit=5)
        assert (raw.object_uri, raw.fact.object_label) == (None, "AC/DC")
        (fact,) = filter_ambiguous([raw])
        assert (fact.obj, fact.object_is_entity) == ("AC/DC", False)

    def test_an_item_name_with_a_slash_is_the_whole_id(self):
        band = "http://dbpedia.org/resource/AC/DC"
        body = json.dumps({
            "head": {"vars": ["subject", "subjectLabel", "object",
                              "objectLabel"]},
            "results": {"bindings": [{
                "subject": {"type": "uri", "value": band},
                "subjectLabel": {"type": "literal", "value": "AC/DC"},
                "object": {"type": "uri", "value":
                           "http://dbpedia.org/resource/Back_in_Black/Live"},
                "objectLabel": {"type": "literal",
                                "value": "Back in Black (live)"}}]}})
        client = KnowledgeBaseClient(
            kind="dbpedia", endpoint=DBPEDIA_ENDPOINT,
            transport=lambda u, p, h: TransportReply(200, body))
        (raw,) = client.fetch_triples("http://dbpedia.org/ontology/album",
                                      limit=5)
        (fact,) = filter_ambiguous([raw])
        assert (fact.subject, fact.obj, fact.object_is_entity) == \
            ("AC/DC", "Back_in_Black/Live", True)

    def test_an_unlabelled_item_is_labelled_by_its_id(self):
        client = KnowledgeBaseClient(kind="dbpedia", endpoint=DBPEDIA_ENDPOINT,
                                     transport=reply_with({
            "subject": "http://dbpedia.org/resource/Sweden",
            "subjectLabel": "Sweden",
            "object": "http://dbpedia.org/resource/Stockholm"}))
        (raw,) = client.fetch_triples("http://dbpedia.org/ontology/capital",
                                      limit=5)
        assert raw.fact.object_label == "Stockholm"
        (fact,) = filter_ambiguous([raw])
        assert fact.render() == "(Sweden, capital, Stockholm)"

    def test_a_row_with_no_object_states_no_fact(self):
        client = KnowledgeBaseClient(kind="wikidata", endpoint="https://u.t",
                                     transport=reply_with({
            "subject": WD + "Q1", "subjectLabel": "Town",
            "object": None, "objectLabel": "Mayor"}))
        assert client.fetch_triples("P6", limit=5) == []

    @pytest.mark.parametrize("relation", [
        "P6 } #", "P6\n", "p6", "Q6", "P", "P6.5",
        "http://www.wikidata.org/prop/direct/P6 } #"])
    def test_a_wikidata_relation_must_be_a_property_id(self, relation):
        client = KnowledgeBaseClient(kind="wikidata", endpoint="https://u.t",
                                     transport=refuse)
        with pytest.raises(ConfigError, match="names no property id"):
            client.fetch_triples(relation, limit=5)

    @pytest.mark.parametrize("kind", ["wikidata", "dbpedia"])
    @pytest.mark.parametrize("bad", list('<>"{}|^`\\ \n\t\x00\x1f'))
    def test_a_relation_that_is_no_iri_sends_nothing(self, kind, bad):
        client = KnowledgeBaseClient(kind=kind, endpoint="https://u.t",
                                     transport=refuse)
        relation = f"http://dbpedia.org/ontology/{bad}/P6"
        with pytest.raises(ConfigError, match="no IRI may"):
            client.fetch_triples(relation, limit=5)

    def test_a_dbpedia_relation_cannot_reshape_the_query(self):
        client = KnowledgeBaseClient(kind="dbpedia", endpoint="https://u.t",
                                     transport=refuse)
        with pytest.raises(ConfigError, match="no IRI may"):
            client.fetch_triples(
                "http://dbpedia.org/ontology/capital> ?o . } #", limit=5)

    def test_a_wikidata_property_url_names_its_id(self):
        queries = []

        def transport(url, params, headers):
            queries.append(params["query"])
            return fixture_transport("wikidata_triples_response.json")(
                url, params, headers)

        client = KnowledgeBaseClient(kind="wikidata", endpoint="https://u.t",
                                     transport=transport)
        rows = client.fetch_triples("http://www.wikidata.org/prop/direct/P6",
                                    limit=5)
        assert queries == [wikidata_triples_query("P6", 5, 0)]
        assert {(r.fact.relation, r.fact.relation_label) for r in rows} == \
            {("P6", "P6")}

    @pytest.mark.parametrize("kind", ["wikidata", "dbpedia"])
    @pytest.mark.parametrize("limit, offset", [(-1, 0), (5, -1)])
    def test_a_negative_limit_or_offset_sends_nothing(self, kind, limit,
                                                      offset):
        client = KnowledgeBaseClient(kind=kind, endpoint="https://u.t",
                                     transport=refuse)
        with pytest.raises(ConfigError, match="must be non-negative"):
            client.fetch_triples("P6", limit=limit, offset=offset)

    def test_offset_beyond_data_is_empty(self):
        client = dbpedia_client()
        assert client.fetch_triples("http://dbpedia.org/ontology/capital",
                                    limit=5, offset=99) == []

    def test_http_error_propagates(self):
        client = KnowledgeBaseClient(
            kind="wikidata", endpoint="https://u.t",
            transport=lambda u, p, h: TransportReply(500, "boom"))
        naps = []
        client.policy.sleep = naps.append
        with pytest.raises(HttpError):
            client.fetch_triples("P6", limit=5)
        assert naps == [0.25, 0.5]  # a 5xx is retried, then propagates

    def test_one_unavailable_reply_is_retried(self):
        replies = [TransportReply(503, "unavailable"),
                   TransportReply(200, (FIXTURES / "wikidata_triples_response"
                                        ".json").read_text(encoding="utf-8"))]
        client = KnowledgeBaseClient(
            kind="wikidata", endpoint="https://u.t",
            transport=lambda u, p, h: replies.pop(0))
        naps = []
        client.policy.sleep = naps.append
        rows = client.fetch_triples("P6", limit=10)
        assert rows[0].fact.subject_label == "Sioux Falls"
        assert (replies, naps) == ([], [0.25])

    def test_rate_limited_carries_retry_after(self):
        client = KnowledgeBaseClient(
            kind="wikidata", endpoint="https://u.t",
            transport=lambda u, p, h: TransportReply(
                429, "slow down", headers={"Retry-After": "17"}))
        naps = []
        client.policy.sleep = naps.append
        with pytest.raises(RateLimited) as exc:
            client.fetch_triples("P6", limit=5)
        assert exc.value.retry_after == 17.0
        assert naps == [17.0, 17.0]  # each retry waits for the hint

    def test_malformed_response(self):
        client = KnowledgeBaseClient(
            kind="wikidata", endpoint="https://u.t",
            transport=lambda u, p, h: TransportReply(200, "not json"))
        with pytest.raises(MalformedResponse):
            client.fetch_triples("P6", limit=5)

    @pytest.mark.parametrize("body", [
        "null", "42", '"results"', '{"results": {"bindings": null}}',
        # wrong inner shapes: head, vars, a binding row, a cell
        '{"head": 42, "results": {"bindings": []}}',
        '{"head": {"vars": "ab"}, "results": {"bindings": [{}]}}',
        '{"head": {"vars": [["x"]]}, "results": {"bindings": [{}]}}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": [42]}}',
        '{"head": {"vars": ["x"]}, "results": {"bindings": [{"x": "x"}]}}'])
    def test_json_that_is_not_a_results_object_is_malformed(self, body):
        client = KnowledgeBaseClient(
            kind="wikidata", endpoint="https://u.t",
            transport=lambda u, p, h: TransportReply(200, body))
        with pytest.raises(MalformedResponse):
            client.fetch_triples("P6", limit=5)


class TestWithRetries:
    """The request policy's retries, over a transport that replays one
    reply, or raises one exception, per request."""

    @staticmethod
    def policy(replies, naps):
        calls = []

        def transport(url, params, headers):
            calls.append(params["query"])
            reply = replies[len(calls) - 1]
            if isinstance(reply, Exception):
                raise reply
            return reply

        return RequestPolicy("https://u.t", transport, naps.append), calls

    def test_backoff_doubles_and_the_last_error_propagates(self):
        errors = [OSError("a"), TransportReply(503, "b"), OSError("c")]
        naps = []
        policy, calls = self.policy(errors, naps)
        with pytest.raises(HttpError) as exc:
            policy.select("q")
        assert exc.value.__cause__ is errors[-1]  # a connection error
        assert len(calls) == 3 and naps == [0.25, 0.5]

    def test_retry_after_hint_replaces_the_backoff_for_that_wait(self):
        naps = []
        policy, calls = self.policy(
            [TransportReply(429, "a", {"Retry-After": "3"}),
             TransportReply(503, "b"),
             TransportReply(429, "c", {"Retry-After": "-1"}),
             TransportReply(502, "d")], naps)
        policy.attempts = 4
        with pytest.raises(HttpError):
            policy.select("q")
        assert naps == [3.0, 0.5, 0.0]  # a negative hint waits not at all

    @pytest.mark.parametrize("headers", [{}, {"Retry-After": "soon"}],
                             ids=["no-hint", "text-hint"])
    def test_a_rate_limit_without_a_usable_hint_backs_off(self, headers):
        naps = []
        policy, calls = self.policy(
            [TransportReply(429, "slow down", headers)] * 3, naps)
        with pytest.raises(RateLimited) as exc:
            policy.select("q")
        assert exc.value.retry_after is None
        assert len(calls) == 3 and naps == [0.25, 0.5]

    def test_other_errors_are_not_retried(self):
        for reply, error in [(TransportReply(200, "not json"),
                              MalformedResponse),
                             (TransportReply(400, "bad query"), HttpError),
                             (TypeError("a programming error"), TypeError)]:
            naps = []
            policy, calls = self.policy([reply], naps)
            with pytest.raises(error):
                policy.select("q")
            assert len(calls) == 1 and naps == []


@pytest.mark.parametrize("fetch", [
    lambda transport: KnowledgeBaseClient(
        kind="wikidata", endpoint="https://u.t",
        transport=transport).fetch_triples("P6", limit=5),
    lambda transport: RemoteSparqlSource(
        "https://u.t", transport=transport).fetch_subject("Q30"),
], ids=["data-fetch", "slow-tier"])
def test_every_request_names_factcache_and_its_version(fetch):
    agents = []

    def transport(url, params, headers):
        agents.append(headers["User-Agent"])
        return TransportReply(200, '{"head": {"vars": []}, '
                                   '"results": {"bindings": []}}')

    fetch(transport)
    assert agents == [f"factcache/{factcache.__version__}"]


@pytest.mark.parametrize("value, expected", [
    ("http://www.wikidata.org/entity/Q30", "Q30"),
    ("http://dbpedia.org/resource/Paris", "Paris"),
    ("http://dbpedia.org/resource/AC/DC", "AC/DC"),
    ("http://dbpedia.org/resource/", None),
    ("https://example.org/AC/DC", None),
    ("AC/DC", None),
    ("", None),
    (None, None)])
def test_an_entity_id_is_the_value_after_its_namespace(value, expected):
    assert entity_id(value) == expected


WD = "http://www.wikidata.org/entity/"


def row(subject_uri, subject_label, object_uri, object_label,
        relation_id="P57", relation_label="director"):
    """A fetched row, its fact read by the rule fetch_triples keeps."""
    fact = row_fact(subject_uri, relation_id, object_uri or object_label,
                    object_label, subject_label, relation_label,
                    Source.WIKIDATA, None)
    return RawTripleRow(fact, subject_uri, object_uri)


class TestFilterAmbiguous:
    def test_shared_name_drops_both(self):
        rows = [
            row(WD + "Q327214", "Hope Springs", WD + "Q1", "A"),
            row(WD + "Q596646", "Hope Springs", WD + "Q2", "B"),
            row(WD + "Q42", "Clear Label", WD + "Q3", "C"),
        ]
        kept = filter_ambiguous(rows)
        assert {t.subject_label for t in kept} == {"Clear Label"}

    def test_multiple_objects_drop_the_subject(self):
        rows = [
            row(WD + "Q10", "Parent", WD + "Q11", "First Child",
                relation_id="P40", relation_label="child"),
            row(WD + "Q10", "Parent", WD + "Q12", "Second Child",
                relation_id="P40", relation_label="child"),
        ]
        assert len(filter_ambiguous(rows)) == 0

    def test_unambiguous_row_is_kept(self):
        kept = filter_ambiguous(
            [row(WD + "Q488056", "Sioux Falls",
                 WD + "Q63538209", "Paul Ten Haken",
                 relation_id="P6", relation_label="head of government")])
        (t,) = kept
        assert t.subject == "Q488056"
        assert t.obj == "Q63538209"
        assert t.object_label == "Paul Ten Haken"
        assert t.relation == "P6"

    def test_every_kept_triple_carries_the_given_stamp(self):
        rows = [row(WD + "Q1", "Town", WD + "Q2", "Mayor"),
                row(WD + "Q3", "City", WD + "Q4", "Chief")]
        assert {t.fetched_at for t in filter_ambiguous(rows)} == {None}
        stamped = filter_ambiguous(rows, fetched_at=SNAPSHOT)
        assert [t.fetched_at for t in stamped] == [SNAPSHOT, SNAPSHOT]

    def test_exact_duplicates_do_not_fake_a_conflict(self):
        duplicated = row(WD + "Q1", "Town", WD + "Q2", "Mayor")
        kept = filter_ambiguous([duplicated, duplicated])
        assert len(kept) == 1

    def test_a_subject_outside_both_namespaces_states_no_fact(self):
        client = KnowledgeBaseClient(kind="wikidata", endpoint="https://u.t",
                                     transport=reply_with({
            "subject": "http://wd/Q1", "subjectLabel": "Town",
            "object": WD + "Q2", "objectLabel": "Mayor"}))
        assert client.fetch_triples("P6", limit=5) == []

    def test_literal_objects_survive(self):
        kept = filter_ambiguous(
            [row(WD + "Q9", "Bridge", None, "352 km",
                 relation_id="P2043", relation_label="length")])
        (t,) = kept
        assert not t.object_is_entity
        assert t.obj == "352 km"

    def test_output_satisfies_functional_dependencies(self):
        rows = [
            row(WD + "Q1", "A", WD + "Q2", "x"),
            row(WD + "Q1", "A", WD + "Q3", "y"),   # dup objects
            row(WD + "Q4", "B", WD + "Q5", "z"),
            row(WD + "Q6", "B2", WD + "Q5", "z"),
            row(WD + "Q7", "C", WD + "Q8", "w"),
            row(WD + "Q9", "C", WD + "Q10", "v"),  # dup label
        ]
        kept = filter_ambiguous(rows)
        labels = {}
        pairs = {}
        for t in kept:
            assert labels.setdefault(t.subject_label, t.subject) == t.subject
            assert pairs.setdefault((t.subject, t.relation), t.obj) == t.obj


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
# a cell: unbound, or text under an item namespace, a web address or none
CELLS = st.none() | st.tuples(
    st.sampled_from(ENTITY_NAMESPACES + ("https://example.org/", "")),
    TEXT).map("".join)


@given(obj=CELLS, label=CELLS, relation=CELLS)
def test_the_slow_tier_and_data_fetch_read_a_row_alike(obj, label,
                                                        relation):
    slow = RemoteSparqlSource("https://u.t", transport=reply_with(
        {"relation": relation, "object": obj, "objectLabel": label}))
    client = KnowledgeBaseClient(kind="dbpedia", endpoint="https://u.t",
                                 transport=reply_with({
        "subject": WD + "Q30", "subjectLabel": "United States",
        "object": obj, "objectLabel": label}))
    try:
        fetched = list(filter_ambiguous(
            client.fetch_triples(relation or "", limit=5)))
    except ConfigError as error:
        if "no IRI may" in str(error):
            return  # data fetch never sends it; the slow tier may read it
        fetched = []  # a relation that names no property id
    facts = slow.fetch_subject("Q30")

    def objects(triples):
        return [(t.obj, t.object_label, t.object_is_entity) for t in triples]

    assert objects(facts) == objects(fetched)
    for fact in facts + fetched:
        assert row_to_triple(triple_to_row(fact)) == fact
