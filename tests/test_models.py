from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from factcache.errors import EmptyCompletion, ModelError
from factcache.models import (HttpCompletionModel, MockTableModel,
                              ModelAnswer)
from factcache.prompts import assemble_prompt
from factcache.ranking import RankedEvidence
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
        None, "not json", json.dumps({"answer": "x"}), json.dumps(["x"])],
        ids=["transport-raises", "not-json", "no-text", "a-list"])
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
