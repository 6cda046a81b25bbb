"""Exception types shared across the package, and the one place that reads
an input file and writes an output file: a file that cannot be read,
decoded or parsed, or whose values break a rule table, is a ParseError
naming the path, the line where one exists, and the key."""

from __future__ import annotations

import json
import logging
import os
import re
import reprlib
from pathlib import Path
from typing import Callable, Optional

log = logging.getLogger(__name__)


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


class ParseError(FactCacheError):
    """An input file (dump, state, entities, benchmark or templates) cannot
    be read, is not UTF-8 JSON, or holds a value its rule table refuses;
    `line` is the file line, where one exists."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaViolation(ParseError):
    """A benchmark record parses but violates the item schema."""


class BrokenChain(SchemaViolation):
    """A multi-hop chain does not have 2..5 links, each link's object the
    next link's subject."""


class OptionsMisread(SchemaViolation):
    """A choice line would not read back the options it was built from."""


# --- reading input files ---

def _located(path, exc: Exception, line: Optional[int] = None
             ) -> ParseError:
    """The ParseError naming `path`, and `line` where given, for a file
    that cannot be read, decoded or parsed, or a value a parse refused."""
    if isinstance(exc, ParseError):
        return type(exc)(f"{path}: {exc}", line)
    if isinstance(exc, OSError):
        return ParseError(f"{path}: cannot be read: {exc.strerror or exc}")
    reason = "not UTF-8" if isinstance(exc, UnicodeError) else "not JSON"
    # a JSONDecodeError knows its line in a document; a line holds one value
    return ParseError(f"{path}: {reason}: {exc}",
                      line or getattr(exc, "lineno", None))


# a code point no UTF-8 text holds, and a JSON escape that may spell one
SURROGATE = re.compile(r"[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str) -> object:
    """json.loads(text), for text decoded from bytes, which holds no lone
    surrogate itself; a string whose escapes spell one is a UnicodeError
    (a ValueError)."""
    value = json.loads(text)
    if _SURROGATE_ESCAPE.search(text) and SURROGATE.search(
            json.dumps(value, ensure_ascii=False)):
        raise UnicodeError("a string holds a lone surrogate")
    return value


def read_text(path) -> str:
    """The UTF-8 text in `path`, a path or a packaged resource."""
    try:
        raw = (Path(path) if isinstance(path, str) else path).read_bytes()
        return raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _located(path, exc) from exc


def read_json(path) -> object:
    """The JSON document in `path`, a path or a packaged resource."""
    text = read_text(path)
    try:
        return parse_json(text)
    except (ValueError, RecursionError) as exc:
        raise _located(path, exc) from exc


def read_json_lines(path, parse: Callable[[object], object],
                    strict: bool = True) -> list:
    """parse(value) for the JSON value on each non-blank line of `path`, in
    order. A line that is not UTF-8 JSON, or that `parse` refuses with a
    ParseError, raises that error naming the path and the line; unless
    `strict`, it is logged and skipped instead."""
    items = []
    try:
        with open(path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    if line := line.decode("utf-8").strip():
                        items.append(parse(parse_json(line)))
                except (ParseError, ValueError, RecursionError) as exc:
                    error = _located(path, exc, lineno)
                    if strict:
                        raise error from exc
                    log.warning("skipping %s", error)
    except OSError as exc:
        raise _located(path, exc) from exc
    return items


def write_text(path, text: str) -> None:
    """Replace the file at `path` (a symlink's target) with UTF-8 `text`:
    on a failure the old file stays, the temporary file is removed, and
    the OSError names `path`, not the temporary file."""
    data, target = text.encode("utf-8"), Path(path).resolve()  # before a file
    tmp = Path(f"{target}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:  # the mode open(path, "w") would give
            f.write(data)
        tmp.replace(target)
    except OSError as exc:  # the same error, of the same subclass
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:  # gone once it replaced the file; removed if it did not
        tmp.unlink(missing_ok=True)


# common rule-table rows: what a value must be, and its test
TEXT = ("a string", lambda v: type(v) is str)
NAME = ("a non-empty string", lambda v: type(v) is str and v != "")


def fault(value, rules: dict, prefix: str = "") -> Optional[str]:
    """The first way the JSON object `value` breaks `rules`, a table of
    key -> (required, expected, test), each key named after `prefix`; or
    None when it keeps them."""
    if type(value) is not dict:
        return f"must be a JSON object, not {reprlib.repr(value)}"
    for key, (required, expected, ok) in rules.items():
        if key not in value:
            if required:
                return f"{prefix}{key} is missing"
        elif not ok(value[key]):
            return (f"{prefix}{key} must be {expected}, "
                    f"not {reprlib.repr(value[key])}")
    return None


def read_json_rows(path, rules: dict, what: str) -> list[dict]:
    """The JSON list of objects in `path`, each checked against `rules`; a
    fault names the path, the `what` and its index, and the key."""
    rows = read_json(path)
    if type(rows) is not list:
        raise ParseError(f"{path}: must be a JSON list, "
                         f"not {reprlib.repr(rows)}")
    for index, row in enumerate(rows):
        if reason := fault(row, rules):
            raise ParseError(f"{path}: {what} {index}: {reason}")
    return rows


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
