"""Exception types shared across the package."""

from __future__ import annotations


class FactCacheError(Exception):
    """Base class for all errors raised by this package."""


# --- knowledge model ---

class UnresolvableProbe(FactCacheError):
    """A probe (query, answer) pair could not be mapped to any triple."""


# --- tiered store ---

class SlowUnreachable(FactCacheError):
    """The slow knowledge source could not be reached within the retry budget."""


# --- knowledge-base clients ---

class HttpError(FactCacheError):
    """A SPARQL or completion endpoint returned a non-success status."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class RateLimited(HttpError):
    """Endpoint returned 429; carries the server's retry-after hint, if any."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message, status=429)
        self.retry_after = retry_after


class MalformedResponse(FactCacheError):
    """Endpoint response could not be parsed as SPARQL JSON results."""


# --- dataset construction / loading ---

class BadTemplate(FactCacheError):
    """A query template does not contain exactly one `{}` placeholder."""


class DistractorCollision(FactCacheError):
    """A multiple-choice distractor equals the gold answer."""


class BrokenChain(FactCacheError):
    """A multi-hop chain violates the object-to-subject adjacency constraint."""


class ParseError(FactCacheError):
    """An input file (benchmark, dump or state) is not valid JSON or lacks a
    field it needs; `line` is the file line, where one exists."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaViolation(ParseError):
    """A benchmark record parses but violates the item schema."""


# --- pipeline / prompts ---

class UnknownTask(FactCacheError):
    """No instruction is registered for the requested task kind."""


class HopFailed(FactCacheError):
    """A multi-hop traversal found no applicable triple at hop `hop` (1-based)."""

    def __init__(self, hop: int):
        super().__init__(f"no applicable triple at hop {hop}")
        self.hop = hop


# --- model clients ---

class ModelError(FactCacheError):
    """Generation failed (network, auth, an error reply, or a malformed
    completion payload)."""


class EmptyCompletion(ModelError):
    """The completion endpoint returned empty text."""


# --- metrics ---

class EmptySet(FactCacheError):
    """A metric was asked to aggregate over zero items."""


class SupportMismatch(FactCacheError):
    """Paired distributions do not share a candidate set."""


# --- configuration ---

class ConfigError(FactCacheError):
    """Configuration file is missing, unreadable, or out of range."""
