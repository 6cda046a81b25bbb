from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache.errors import EmptyCompletion, ModelError
from factcache.models import (HttpCompletionModel, MockTableModel,
                              ModelAnswer)
from factcache.prompts import AssembledPrompt, assemble_prompt
from factcache.ranking import RankedEvidence, tokenize
from factcache.sparqlio import TransportReply
from factcache.triples import TaskKind
from conftest import triple

SIOUX = triple("Sioux Falls", "head of government", "Paul Ten Haken")


def qa_prompt(query, evidence_triples=()):
    evidence = RankedEvidence(
        triples=tuple((t, 1.0) for t in evidence_triples),
        k=max(1, len(evidence_triples)))
    return assemble_prompt(TaskKind.QA, evidence, query)


class TestModelAnswer:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ModelAnswer(text="x", distribution={"a": 0.7, "b": 0.1})

    def test_distribution_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ModelAnswer(text="x", distribution={"a": 1.5, "b": -0.5})

    @pytest.mark.parametrize("distribution", [
        {"a": math.nan}, {"a": math.nan, "b": 1.0},
        {"a": math.inf}, {"a": math.inf, "b": -math.inf, "c": 1.0},
        {"a": -math.inf, "b": 1.0}],
        ids=["nan", "nan-and-one", "inf", "infs-and-one", "minus-inf"])
    def test_distribution_entries_must_be_finite(self, distribution):
        with pytest.raises(ValueError):
            ModelAnswer(text="x", distribution=distribution)

    def test_absent_distribution_is_fine(self):
        assert ModelAnswer(text="x").distribution is None


class TestMockModel:
    def test_evidence_echo(self):
        mock = MockTableModel()
        prompt = qa_prompt(
            "Who is the current head of government for Sioux Falls?", [SIOUX])
        assert mock.generate(prompt).text == "Paul Ten Haken"

    def test_prior_table_without_evidence(self):
        mock = MockTableModel(priors={"Who leads America?": "Obama"})
        assert mock.generate(qa_prompt("Who leads America?")).text == "Obama"

    def test_unknown_query_gets_the_default(self):
        mock = MockTableModel()
        assert mock.generate(qa_prompt("Anything?")).text == \
            MockTableModel.DEFAULT_ANSWER == "I don't know"

    def test_irrelevant_evidence_falls_back_to_priors(self):
        mock = MockTableModel(priors={"What is the capital of France?":
                                      "Paris"})
        prompt = qa_prompt("What is the capital of France?", [SIOUX])
        assert mock.generate(prompt).text == "Paris"

    def test_fact_check_true_when_object_is_stated(self):
        prompt = assemble_prompt(
            TaskKind.FACT_CHECK,
            RankedEvidence(triples=((SIOUX, 1.0),), k=1),
            "Determine whether the proposition is true.\nProposition:The "
            "head of government for Sioux Falls is Paul Ten Haken.")
        assert MockTableModel().generate(prompt).text == "True"

    def test_fact_check_false_when_a_distractor_is_stated(self):
        prompt = assemble_prompt(
            TaskKind.FACT_CHECK,
            RankedEvidence(triples=((SIOUX, 1.0),), k=1),
            "Determine whether the proposition is true.\nProposition:The "
            "head of government for Sioux Falls is Lothar von Trotha.")
        assert MockTableModel().generate(prompt).text == "False"

    def test_fact_check_false_when_the_distractor_contains_the_object(self):
        # the stated option is the proposition's last phrase
        prompt = assemble_prompt(
            TaskKind.FACT_CHECK,
            RankedEvidence(triples=((triple("France", "capital", "Paris"),
                                     1.0),), k=1),
            "Determine whether the proposition is true.\nProposition:The "
            "capital of France is Paris Saint-Germain.")
        assert MockTableModel().generate(prompt).text == "False"

    @pytest.mark.parametrize("gold, stated, verdict", [
        ("York", "York", "True"), ("York", "New York", "False"),
        ("New York", "New York", "True"), ("New York", "York", "False")])
    def test_fact_check_false_when_the_object_ends_the_distractor(
            self, gold, stated, verdict):
        # "New York" ends with York's tokens, but after no function word
        prompt = assemble_prompt(
            TaskKind.FACT_CHECK,
            RankedEvidence(triples=((triple("Ruritania", "capital", gold),
                                     1.0),), k=1),
            "Determine whether the proposition is true.\nProposition:The "
            f"capital of Ruritania is {stated}.")
        assert MockTableModel().generate(prompt).text == verdict

    def test_distribution_mass_concentrates_on_the_answer(self):
        mock = MockTableModel(priors={"q": "a"})  # EPSILON is 0.01
        answer = mock.generate(qa_prompt("q"))
        dist = answer.distribution
        n = len(dist)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert dist["a"] == pytest.approx(0.99 + 0.01 / n)
        for candidate, mass in dist.items():
            if candidate != "a":
                assert mass == pytest.approx(0.01 / n)

    def test_determinism(self):
        mock = MockTableModel(priors={"q": "a"})
        prompt = qa_prompt("q", [SIOUX])
        first = mock.generate(prompt)
        second = mock.generate(prompt)
        assert first.text == second.text
        assert first.distribution == second.distribution

    def test_complete_text_reads_the_last_line(self):
        mock = MockTableModel(priors={"Who leads Naples?": "Naples"})
        assert mock.complete_text("instruction\n\nWho leads Naples?") == \
            "Naples"


# The mock's answer as first written: every relation label tokenized on
# every call, the query tokenized again for a fact check, the distribution
# filled candidate by candidate. The mock must keep giving its answers.
REFERENCE_STOPWORDS = frozenset(
    "a an and at by for in is of on or the to with".split())


def reference_generate(priors, prompt):
    query_tokens = set(tokenize(prompt.query)) - REFERENCE_STOPWORDS
    applicable = None
    for t in prompt.evidence:
        if (set(tokenize(t.relation_label)) - REFERENCE_STOPWORDS) \
                & query_tokens:
            applicable = t
            break
    if applicable is None:
        answer = priors.get(prompt.query, "I don't know")
    elif prompt.task is TaskKind.FACT_CHECK:
        said = tokenize(applicable.object_label)
        words = tokenize(prompt.query)
        cut = len(words) - len(said)
        stated = (bool(said) and cut > 0 and words[cut:] == said
                  and words[cut - 1] in REFERENCE_STOPWORDS)
        answer = "True" if stated else "False"
    else:
        answer = applicable.object_label
    candidates = {answer, "I don't know"}
    candidates.update(priors.values())
    candidates.update(t.object_label for t in prompt.evidence)
    ordered = sorted(candidates)
    share = 0.01 / len(ordered)
    dist = {c: share for c in ordered}
    dist[answer] += 1.0 - 0.01
    return answer, dist


# words that relation labels, objects and queries are drawn from: function
# words, content words and punctuation, so labels can be all stopwords
WORDS = st.sampled_from(["the", "of", "is", "a", "in", "head", "Head",
                         "government", "capital", "York", "New", "Paris",
                         "-", ",", "?", "'s", "1", "10"])
PHRASES = st.lists(WORDS, max_size=5).map(" ".join)


@st.composite
def prompts(draw):
    evidence = tuple(
        triple(f"S{i}", f"P{i}", draw(PHRASES), subject_label=draw(PHRASES),
               relation_label=draw(PHRASES), object_label=draw(PHRASES))
        for i in range(draw(st.integers(0, 3))))
    labels = [t.relation_label for t in evidence] or ["capital"]
    objects = [t.object_label for t in evidence] or ["Paris"]
    query = " ".join((draw(PHRASES), draw(st.sampled_from(["", *labels]))))
    if draw(st.booleans()):  # a proposition that ends with an object
        query = " ".join((query, draw(st.sampled_from(["is", "New", "-"])),
                          draw(st.sampled_from(objects))))
    task = draw(st.one_of(st.just(TaskKind.FACT_CHECK),
                          st.sampled_from(list(TaskKind))))
    return AssembledPrompt(task, query, evidence)


@settings(max_examples=300, deadline=None)
@given(prompt=prompts(),
       priors=st.dictionaries(PHRASES, PHRASES, max_size=3),
       ask_a_prior=st.booleans())
def test_the_mock_answers_as_the_reference_does(prompt, priors, ask_a_prior):
    if ask_a_prior and priors:
        priors = {**priors, prompt.query: next(iter(priors.values()))}
    answer = MockTableModel(priors).generate(prompt)
    text, distribution = reference_generate(priors, prompt)
    assert answer.text == text
    # the same keys in the same order, and bit for bit the same floats
    assert list(answer.distribution.items()) == list(distribution.items())


class TestHttpCompletionModel:
    @staticmethod
    def fixed_transport(status=200, body=None, recorder=None):
        def transport(url, payload, headers):
            if recorder is not None:
                recorder.append((url, payload, headers))
            text = body if body is not None else json.dumps(
                {"text": "Paul Ten Haken\nsecond line ignored"})
            return TransportReply(status=status, text=text)
        return transport

    def test_fixture_playback_returns_first_line(self):
        recorder = []
        model = HttpCompletionModel(endpoint="https://unit.test/complete",
                                    transport=self.fixed_transport(
                                        recorder=recorder))
        answer = model.generate(qa_prompt("Who leads Sioux Falls?"))
        assert answer.text == "Paul Ten Haken"
        assert answer.distribution is None
        (call,) = recorder
        assert call[1]["max_tokens"] == 64
        assert "Who leads Sioux Falls?" in call[1]["prompt"]

    def test_api_key_header_is_attached(self):
        recorder = []
        model = HttpCompletionModel(endpoint="https://unit.test",
                                    api_key="secret-key",
                                    transport=self.fixed_transport(
                                        recorder=recorder))
        model.generate(qa_prompt("q"))
        assert recorder[0][2]["Authorization"] == "Bearer secret-key"

    def test_empty_completion_raises(self):
        model = HttpCompletionModel(
            endpoint="https://unit.test",
            transport=self.fixed_transport(body=json.dumps({"text": "  \n"})))
        with pytest.raises(EmptyCompletion):
            model.generate(qa_prompt("q"))

    def test_http_error_surfaces(self):
        model = HttpCompletionModel(
            endpoint="https://unit.test",
            transport=self.fixed_transport(status=500, body="exploded"))
        with pytest.raises(ModelError):
            model.generate(qa_prompt("q"))

    @pytest.mark.parametrize("body", [
        None, "not json", json.dumps({"answer": "x"}), json.dumps(["x"]),
        json.dumps({"text": 5}), json.dumps({"text": None}),
        json.dumps({"text": ["x"]})],
        ids=["transport-raises", "not-json", "no-text", "a-list",
             "text-a-number", "text-null", "text-a-list"])
    def test_a_failed_request_or_a_malformed_payload(self, body):
        def transport(url, payload, headers):
            if body is None:
                raise ConnectionError("refused")
            return TransportReply(status=200, text=body)

        model = HttpCompletionModel(endpoint="https://unit.test",
                                    transport=transport)
        with pytest.raises(ModelError):
            model.generate(qa_prompt("q"))

    def test_zero_budget_never_retries(self):
        for status in (503, 429):  # a rate limit is not waited out either
            calls = []

            def failing_transport(url, payload, headers):
                calls.append(1)
                return TransportReply(status=status, text="nope",
                                      headers={"Retry-After": "3"})

            model = HttpCompletionModel(endpoint="https://unit.test",
                                        transport=failing_transport)
            with pytest.raises(ModelError, match=f"HTTP {status}"):
                model.generate(qa_prompt("q"))
            assert len(calls) == 1

    def test_against_a_live_local_endpoint(self):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                request = json.loads(self.rfile.read(length))
                body = json.dumps(
                    {"text": f"echo: {request['max_tokens']}"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            model = HttpCompletionModel(
                endpoint=f"http://127.0.0.1:{port}/complete", max_tokens=32)
            assert model.generate(qa_prompt("q")).text == "echo: 32"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
