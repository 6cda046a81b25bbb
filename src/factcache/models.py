"""Generation clients: an abstract interface, a deterministic table-backed
mock, and an HTTP completion-API adapter.

The mock stands in for a language model in tests and scenarios: given
evidence it echoes the applicable object (or a True/False verdict for
fact-check prompts); without evidence it answers from a fixed prior table,
playing the role of a stale model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Optional, Protocol

from .errors import EmptyCompletion, ModelError, parse_json
from .prompts import AssembledPrompt
from .ranking import RELATION_MEMO_SIZE, tokenize
from .sparqlio import TransportReply, http_transport
from .triples import TaskKind

DISTRIBUTION_TOLERANCE = 1e-9

# function words carry no signal about which relation a query asks for
_STOPWORDS = frozenset(
    "a an and at by for in is of on or the to with".split())


@lru_cache(maxsize=RELATION_MEMO_SIZE)
def _content_words(label: str) -> frozenset[str]:
    """A relation label's tokens, less the function words."""
    return frozenset(tokenize(label)).difference(_STOPWORDS)


@dataclass(frozen=True, slots=True)
class ModelAnswer:
    """Generated text and an optional answer distribution, whose entries
    are finite, non-negative and sum to 1."""

    text: str
    distribution: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.distribution is not None:
            dist = dict(self.distribution)
            object.__setattr__(self, "distribution", dist)
            total = sum(dist.values())
            # a NaN or infinite entry makes the sum fail this comparison
            if not abs(total - 1.0) <= DISTRIBUTION_TOLERANCE:
                raise ValueError(f"distribution sums to {total}, expected 1")
            if min(dist.values()) < 0:
                raise ValueError("distribution entries must be non-negative")


class ModelClient(Protocol):
    def generate(self, prompt: AssembledPrompt) -> ModelAnswer:
        ...

    def complete_text(self, text: str) -> str:
        """Raw text completion, for prompts outside the evidence layout
        (e.g. entity extraction)."""
        ...


class MockTableModel:
    """Deterministic mock: evidence echo, else prior-table lookup.

    The answer is the object of the first evidence triple whose relation
    tokens overlap the query; fact-check prompts instead yield True/False
    depending on whether the proposition ends with that object right after
    a function word, since a proposition states its option last, after the
    template's "is" ("... is Paris."): "... is New York." does not state
    York. With no applicable evidence the fixed prior table answers
    (DEFAULT_ANSWER when the query is unknown). The emitted distribution
    puts mass 1 - EPSILON on the answer and spreads EPSILON uniformly over
    the candidate set.
    """

    DEFAULT_ANSWER = "I don't know"
    EPSILON = 0.01

    def __init__(self, priors: Optional[Mapping[str, str]] = None):
        self.priors = dict(priors or {})

    def generate(self, prompt: AssembledPrompt) -> ModelAnswer:
        words = tokenize(prompt.query) if prompt.evidence else []
        applicable = None
        for triple in prompt.evidence:
            if not _content_words(triple.relation_label).isdisjoint(words):
                applicable = triple
                break
        if applicable is None:
            answer = self.priors.get(prompt.query, self.DEFAULT_ANSWER)
        elif prompt.task is TaskKind.FACT_CHECK:
            said = tokenize(applicable.object_label)
            cut = len(words) - len(said)
            stated = (bool(said) and cut > 0 and words[cut:] == said
                      and words[cut - 1] in _STOPWORDS)
            answer = "True" if stated else "False"
        else:
            answer = applicable.object_label
        candidates = {answer, self.DEFAULT_ANSWER, *self.priors.values(),
                      *[t.object_label for t in prompt.evidence]}
        dist = dict.fromkeys(sorted(candidates),
                             self.EPSILON / len(candidates))
        dist[answer] += 1.0 - self.EPSILON
        return ModelAnswer(text=answer, distribution=dist)

    def complete_text(self, text: str) -> str:
        """Answer the last line of a raw prompt from the prior table."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return self.DEFAULT_ANSWER
        return self.priors.get(lines[-1], self.DEFAULT_ANSWER)


PostTransport = Callable[[str, dict, Mapping[str, str]], TransportReply]


def post_transport(url: str, payload: dict,
                   headers: Mapping[str, str]) -> TransportReply:
    return http_transport(url, {}, headers, payload, timeout=120.0)


@dataclass
class HttpCompletionModel:
    """Adapter for a JSON completion endpoint.

    Request: {"prompt": str, "max_tokens": int}; response: {"text": str}.
    The answer is the trimmed first line of the completion. Generation is
    not idempotent, so each call sends one request and never retries it;
    any failure raises ModelError.
    """

    endpoint: str
    api_key: Optional[str] = None
    max_tokens: int = 64
    transport: PostTransport = field(default=post_transport)

    def generate(self, prompt: AssembledPrompt) -> ModelAnswer:
        return ModelAnswer(text=self.complete_text(prompt.render()))

    def complete_text(self, text: str) -> str:
        payload = {"prompt": text, "max_tokens": self.max_tokens}
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            reply = self.transport(self.endpoint, payload, headers)
        except Exception as exc:
            raise ModelError(f"completion request failed: {exc}") from exc
        if not 200 <= reply.status < 300:
            raise ModelError(f"completion endpoint returned HTTP "
                             f"{reply.status}: {reply.text[:200]}")
        try:
            body = parse_json(reply.text)
            completion = body["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelError(f"malformed completion payload: {exc}") from exc
        if not isinstance(completion, str):
            raise ModelError("malformed completion payload: text not a string")
        first_line = completion.strip().splitlines()
        if not first_line or not first_line[0].strip():
            raise EmptyCompletion("completion endpoint returned empty text")
        return first_line[0].strip()
