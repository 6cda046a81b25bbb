"""The network transport against a loopback HTTP server, and every network
reply reader against any JSON body."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from factcache.cache import RemoteSparqlSource
from factcache.errors import (SURROGATE, ConfigError, FactCacheError,
                              HttpError, MalformedResponse, ModelError,
                              RateLimited)
from factcache.kbclient import KnowledgeBaseClient, filter_ambiguous
from factcache.models import HttpCompletionModel
from factcache.sparqlio import (ENTITY_NAMESPACES, HEADERS, RequestPolicy,
                                TransportReply, entity_id, exec_sparql,
                                http_transport)
from factcache.triples import FactTriple

LABEL = "Zürich"  # not ASCII, so the body's charset matters


def results(label: str) -> dict:
    return {"head": {"vars": ["subject", "subjectLabel"]},
            "results": {"bindings": [{
                "subject": {"type": "uri",
                            "value": "http://www.wikidata.org/entity/Q72"},
                "subjectLabel": {"type": "literal", "value": label}}]}}


class Handler(BaseHTTPRequestHandler):
    """Answers with the status the path names (`/200`, `/429`, `/503`): a
    200 carries a SPARQL results document for a GET and a completion for a
    POST, in ISO-8859-1, or in UTF-8 labelled with a charset Python does not
    know (`/200/unknown-charset`); an error reply asks to be retried after
    7 s. `/garbled` answers with no HTTP status line at all."""

    def reply(self, body: dict):
        self.server.requests.append(self)
        path = urlsplit(self.path).path
        if path == "/garbled":
            self.wfile.write(b"not http\r\n\r\n")
            return
        status = int(path.split("/")[1])
        known = not path.endswith("/unknown-charset")
        self.send_response(status)
        self.send_header("Retry-After", "7")
        self.send_header("Content-Type", "application/json; charset=" + (
            "iso-8859-1" if known else "no-such-charset"))
        self.end_headers()
        if status == 200:
            self.wfile.write(json.dumps(body, ensure_ascii=False).encode(
                "iso-8859-1" if known else "utf-8"))
        else:
            self.wfile.write(b"try later")

    def do_GET(self):
        self.reply(results(LABEL))

    def do_POST(self):
        self.body = json.loads(
            self.rfile.read(int(self.headers["Content-Length"])))
        self.reply({"text": f"{LABEL}\nsecond line"})

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.requests = []
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield httpd, f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def closed_port() -> int:
    """A loopback port that was just listened on, and is now refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestGet:
    def test_a_reply_is_decoded_by_its_charset(self, server):
        httpd, base = server
        rows = exec_sparql(f"{base}/200", "SELECT ?s {}")
        assert rows == [{"subject": "http://www.wikidata.org/entity/Q72",
                         "subjectLabel": LABEL}]
        (request,) = httpd.requests
        assert request.command == "GET"
        assert parse_qs(urlsplit(request.path).query) == {
            "query": ["SELECT ?s {}"], "format": ["json"]}
        assert all(request.headers[k] == v for k, v in HEADERS.items())

    def test_an_unknown_charset_is_read_as_utf8(self, server):
        _, base = server
        rows = exec_sparql(f"{base}/200/unknown-charset", "SELECT ?s {}")
        assert rows[0]["subjectLabel"] == LABEL

    def test_the_reply_headers_come_back(self, server):
        _, base = server
        reply = http_transport(f"{base}/200?x=1", {"y": "2"}, {})
        assert isinstance(reply, TransportReply) and reply.status == 200
        assert reply.headers["Retry-After"] == "7"
        assert json.loads(reply.text) == results(LABEL)

    def test_a_429_is_retried_after_its_hint_then_raised(self, server):
        httpd, base = server
        naps = []
        policy = RequestPolicy(f"{base}/429", sleep=naps.append)
        with pytest.raises(RateLimited) as exc:
            policy.select("SELECT ?s {}")
        assert exc.value.retry_after == 7.0
        assert naps == [7.0, 7.0] and len(httpd.requests) == 3

    def test_a_503_is_an_http_error(self, server):
        _, base = server
        with pytest.raises(HttpError) as exc:
            exec_sparql(f"{base}/503", "SELECT ?s {}")
        assert exc.value.status == 503

    def test_a_garbled_reply_is_retried_then_an_http_error(self, server):
        httpd, base = server
        naps = []
        policy = RequestPolicy(f"{base}/garbled", sleep=naps.append)
        with pytest.raises(HttpError, match="BadStatusLine"):
            policy.select("SELECT ?s {}")
        assert len(httpd.requests) == 3 and len(naps) == 2

    def test_a_refused_connection_is_an_http_error(self):
        with pytest.raises(HttpError, match="failed") as exc:
            exec_sparql(f"http://127.0.0.1:{closed_port()}/", "SELECT ?s {}")
        assert exc.value.status is None

    # no scheme and no host: test_cache.py's
    # test_an_endpoint_the_network_cannot_reach_is_not_retried
    @pytest.mark.parametrize("url", [
        "ftp://unit.test/", "http://unit.test:port/", "http://unit test/"],
        ids=["ftp", "port-no-number", "a-space"])
    def test_a_url_that_cannot_be_sent_to_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match="cannot send a request"):
            http_transport(url, {"query": "q"}, HEADERS)


class TestPost:
    def test_a_completion_is_decoded_by_its_charset(self, server):
        httpd, base = server
        model = HttpCompletionModel(endpoint=f"{base}/200", api_key="k",
                                    max_tokens=9)
        assert model.complete_text("Where?") == LABEL
        (request,) = httpd.requests
        assert request.command == "POST"
        assert request.body == {"prompt": "Where?", "max_tokens": 9}
        assert request.headers["Content-Type"] == "application/json"
        assert request.headers["Authorization"] == "Bearer k"

    @pytest.mark.parametrize("status", [429, 503])
    def test_an_error_status_is_a_model_error_sent_once(self, server,
                                                         status):
        httpd, base = server
        model = HttpCompletionModel(endpoint=f"{base}/{status}")
        with pytest.raises(ModelError, match=f"HTTP {status}: try later"):
            model.complete_text("Where?")
        assert len(httpd.requests) == 1

    def test_a_refused_connection_is_a_model_error(self):
        model = HttpCompletionModel(
            endpoint=f"http://127.0.0.1:{closed_port()}/")
        with pytest.raises(ModelError, match="request failed"):
            model.complete_text("Where?")


def one_row(row) -> str:
    return json.dumps({"head": {"vars": ["s"]},
                       "results": {"bindings": [row]}})


@pytest.mark.parametrize("body", [
    "{", '"\\ud800"', "[]", '{"results": {"bindings": []}, "head": 5}',
    one_row(5), one_row({"s": 5}), one_row({"s": {"value": 5}})],
    ids=["not-json", "surrogate", "no-bindings", "head", "row", "cell",
         "value"])
def test_a_malformed_reply_names_its_endpoint(body):
    def transport(url, params, headers):
        return TransportReply(200, body)

    with pytest.raises(MalformedResponse) as exc:
        exec_sparql("https://unit.test/sparql", "SELECT ?s {}", transport)
    assert str(exc.value).startswith("https://unit.test/sparql: ")


# --- the entity rule ---------------------------------------------------------

_NAMESPACES = st.sampled_from(ENTITY_NAMESPACES)


def _outside(value: str) -> bool:
    return not value.startswith(ENTITY_NAMESPACES)


@given(namespace=_NAMESPACES, item=st.text(min_size=1))
@settings(max_examples=200, deadline=None)
def test_an_id_under_either_namespace_round_trips_to_its_uri(namespace,
                                                             item):
    uri = namespace + item
    assert entity_id(uri) == item
    assert namespace + entity_id(uri) == uri


@given(value=st.none()
       | st.text().filter(_outside)  # a literal
       | st.builds("{}://{}.example/{}".format,  # a web address
                   st.sampled_from(["http", "https"]),
                   st.from_regex(r"[a-z]{1,8}", fullmatch=True), st.text())
       | _NAMESPACES  # a bare namespace
       | st.builds(lambda namespace, cut, rest: namespace[:cut] + rest,
                   _NAMESPACES, st.integers(0, 40),
                   st.text(max_size=4)).filter(_outside))  # one cut short
@settings(max_examples=300, deadline=None)
def test_a_value_outside_both_namespaces_names_no_entity(value):
    assert entity_id(value) is None


# --- any JSON as a network reply ------------------------------------------

# Leaves lean to the values the readers treat specially: a path of slashes
# only, a URI in or out of the entity namespaces, a text that is no count.
_VALUES = st.sampled_from([
    "/", "x", "http://www.wikidata.org/entity/Q1",
    "http://www.wikidata.org/prop/direct/P6"])
# any code point, a lone surrogate too: the JSON escape \ud800 spells one
_CHARS = st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff")
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(_CHARS, max_size=3)
            | _VALUES)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["value"]),
                      inner, max_size=3),
    max_leaves=8)


@st.composite
def sparql_results(draw, variables):
    """A SPARQL results document over `variables`: each row binds most of
    them, mostly to a value from _VALUES, and any part of the document is
    now and then any JSON value instead."""
    def part(shaped, absent=0):
        """`shaped`; or, one time in 8, any JSON value; or, `absent`
        times in 8, None (an unbound variable)."""
        pick = draw(st.integers(0, 7))
        return None if pick < absent else draw(_JSON) if pick == 7 else shaped

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        cells = {var: part({"type": "literal",
                            "value": draw(_VALUES | _SCALARS)}, absent=1)
                 for var in variables}
        rows.append(part({var: cell for var, cell in cells.items()
                          if cell is not None}))
    return part({"head": part({"vars": part(list(variables))}),
                 "results": part({"bindings": part(rows)})})


def strings_for(variable):
    """What a string_results cell binds `variable` to: a decimal count, a
    label, or a URI, a property's or an item's as its name says as often
    as one from _VALUES."""
    if variable.endswith("Count"):
        return st.integers(0, 99).map(str)
    if variable.endswith("Label"):
        return st.text(min_size=1, max_size=3)
    if variable.endswith("Prop"):
        return st.just("http://www.wikidata.org/entity/P6") | _VALUES
    return st.sampled_from([ns + "Q2" for ns in ENTITY_NAMESPACES]) | _VALUES


@st.composite
def string_results(draw, variables):
    """A well-formed SPARQL results document over `variables` whose two to
    five rows bind each of them to a strings_for string; in one document
    in 8, one cell holds any scalar instead."""
    rows = [{var: {"type": "literal", "value": draw(strings_for(var))}
             for var in variables}
            for _ in range(draw(st.integers(2, 5)))]
    if draw(st.integers(0, 7)) == 7:
        cell = {"type": "literal", "value": draw(_SCALARS)}
        draw(st.sampled_from(rows))[draw(st.sampled_from(variables))] = cell
    return {"head": {"vars": list(variables)}, "results": {"bindings": rows}}


def reached(check, variables, examples=100):
    """The share of `examples` string_results replies over `variables`,
    drawn from a fixed seed, for which check(reply) says it reached its
    typed checks (it read at least one fact or row)."""
    outcomes = []

    @seed(39)
    @settings(max_examples=examples, deadline=None, database=None)
    @given(body=string_results(variables))
    def run(body):
        outcomes.append(check(body))

    run()
    return sum(outcomes) / len(outcomes)


def replaying(body):
    text = json.dumps(body)
    return lambda url, params, headers: TransportReply(200, text)


def text(value) -> bool:
    """Whether `value` is a string UTF-8 can encode, so it can be printed
    and saved."""
    return type(value) is str and not SURROGATE.search(value)


def typed_or_refused(read):
    """read()'s value, or None when it raised a FactCacheError; an event
    reports which, so a property's statistics show its accepted share."""
    try:
        value = read()
    except FactCacheError:
        event("refused")
        return None
    event("read, with items" if value else "read, empty")
    return value


@given(body=sparql_results(["relation", "relationLabel", "object",
                            "objectLabel", "subjectLabel"]))
@settings(max_examples=100, deadline=None)
def test_any_subject_facts_reply_reads_typed_or_is_refused(body):
    source = RemoteSparqlSource("https://unit.test/sparql",
                                transport=replaying(body),
                                sleep=lambda s: None)
    facts = typed_or_refused(lambda: source.fetch_subject("Q30"))
    assert facts is None or all(isinstance(t, FactTriple) and all(
        map(text, (t.relation, t.obj, t.object_label))) for t in facts)


def subject_facts_are_typed(body) -> bool:
    """The checks of test_any_subject_facts_reply_reads_typed_or_is_refused
    on the reply `body`; whether they saw a fact."""
    source = RemoteSparqlSource("https://unit.test/sparql",
                                transport=replaying(body),
                                sleep=lambda s: None)
    facts = typed_or_refused(lambda: source.fetch_subject("Q30"))
    assert facts is None or all(isinstance(t, FactTriple) and all(
        map(text, (t.relation, t.obj, t.object_label))) for t in facts)
    return bool(facts)


def test_string_subject_facts_replies_reach_their_typed_checks():
    assert reached(subject_facts_are_typed, [
        "relation", "relationLabel", "object", "objectLabel",
        "subjectLabel"]) >= 0.5


# Wikidata's triples query counts each subject's relations; DBpedia's
# does not, so a fault in reading a count cannot hide one in filtering
@pytest.mark.parametrize("kind, relation, variables", [
    ("wikidata", "P6", ["subject", "object", "subjectLabel", "objectLabel",
                        "relationCount"]),
    ("dbpedia", "http://dbpedia.org/ontology/birthPlace",
     ["subject", "subjectLabel", "object", "objectLabel"])],
    ids=["wikidata", "dbpedia"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_triples_reply_reads_and_filters_typed_or_is_refused(
        kind, relation, variables, data):
    body = data.draw(sparql_results(variables))
    client = KnowledgeBaseClient(kind, "https://unit.test/sparql",
                                 transport=replaying(body))
    rows = typed_or_refused(lambda: client.fetch_triples(relation, limit=5))
    if rows is not None:
        assert all(text(row.subject_uri) and text(row.fact.object_label) and
                   type(row.relation_count) in (int, type(None))
                   for row in rows)
        assert all(isinstance(t, FactTriple) and text(t.obj)
                   for t in filter_ambiguous(rows))


TRIPLES_QUERIES = [
    ("wikidata", "P6", ["subject", "object", "subjectLabel", "objectLabel",
                        "relationCount"]),
    ("dbpedia", "http://dbpedia.org/ontology/birthPlace",
     ["subject", "subjectLabel", "object", "objectLabel"])]


@pytest.mark.parametrize("kind, relation, variables", TRIPLES_QUERIES,
                         ids=["wikidata", "dbpedia"])
def test_string_triples_replies_reach_their_typed_checks(kind, relation,
                                                         variables):
    def rows_are_typed(body) -> bool:
        """The checks of
        test_any_triples_reply_reads_and_filters_typed_or_is_refused on
        the reply `body`; whether they saw a row."""
        client = KnowledgeBaseClient(kind, "https://unit.test/sparql",
                                     transport=replaying(body))
        rows = typed_or_refused(
            lambda: client.fetch_triples(relation, limit=5))
        if rows is not None:
            assert all(text(row.subject_uri) and
                       text(row.fact.object_label) and
                       type(row.relation_count) in (int, type(None))
                       for row in rows)
            assert all(isinstance(t, FactTriple) and text(t.obj)
                       for t in filter_ambiguous(rows))
        return bool(rows)

    assert reached(rows_are_typed, variables) >= 0.5


@given(body=sparql_results(["DBpediaProp", "itemLabel", "WikidataProp"]))
@settings(max_examples=100, deadline=None)
def test_any_properties_reply_reads_typed_or_is_refused(body):
    client = KnowledgeBaseClient("dbpedia", "https://unit.test/sparql",
                                 transport=replaying(body))
    pairs = typed_or_refused(client.fetch_equivalent_properties)
    assert pairs is None or all(
        text(p.dbpedia_property) and text(p.label) for p in pairs)


def test_string_properties_replies_reach_their_typed_checks():
    def pairs_are_typed(body) -> bool:
        """The checks of test_any_properties_reply_reads_typed_or_is_refused
        on the reply `body`; whether they saw a pair."""
        client = KnowledgeBaseClient("dbpedia", "https://unit.test/sparql",
                                     transport=replaying(body))
        pairs = typed_or_refused(client.fetch_equivalent_properties)
        assert pairs is None or all(
            text(p.dbpedia_property) and text(p.label) for p in pairs)
        return bool(pairs)

    assert reached(pairs_are_typed,
                   ["DBpediaProp", "itemLabel", "WikidataProp"]) >= 0.5


@given(body=_JSON
       | st.fixed_dictionaries({"text": _JSON | st.text(_CHARS)}))
@settings(max_examples=100, deadline=None)
def test_any_completion_reads_as_one_line_or_is_a_model_error(body):
    reply = TransportReply(200, json.dumps(body))
    model = HttpCompletionModel(
        endpoint="https://unit.test",
        transport=lambda url, payload, headers: reply)
    try:
        answer = model.complete_text("Where?")
    except ModelError:
        return
    assert text(answer) and answer and answer == answer.strip()
    assert "\n" not in answer
