"""Low-level SPARQL-over-HTTP plumbing shared by the KB clients and the
remote slow source: request execution, retries, results-JSON parsing, URI
helpers.

The transport is injectable so every test can run against recorded
responses; the default transport issues a real GET via requests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, TypeVar

from .errors import HttpError, MalformedResponse, RateLimited

RESULTS_JSON = "application/sparql-results+json"
# A Retry-After hint longer than this is treated as no hint, so the caller's
# backoff applies; time.sleep rejects a huge value with OverflowError.
MAX_RETRY_AFTER_S = 3600.0
RETRY_BACKOFF_S = 0.25  # the first wait between attempts; doubles per retry

T = TypeVar("T")


@dataclass
class TransportReply:
    """What a transport hands back: status, response headers, and body."""

    status: int
    text: str
    headers: Mapping[str, str] = field(default_factory=dict)


Transport = Callable[[str, Mapping[str, str], Mapping[str, str]], TransportReply]


def requests_transport(url: str, params: Mapping[str, str],
                       headers: Mapping[str, str]) -> TransportReply:
    import requests

    resp = requests.get(url, params=params, headers=headers, timeout=60)
    return TransportReply(status=resp.status_code, text=resp.text,
                          headers=dict(resp.headers))


def exec_sparql(endpoint: str, query: str,
                transport: Optional[Transport] = None) -> dict:
    """Run one SPARQL query and return the parsed results-JSON document.

    Raises RateLimited on 429 (carrying any Retry-After hint), HttpError on
    other non-2xx statuses or transport failures, MalformedResponse when the
    body is not a SPARQL results document.
    """
    transport = transport or requests_transport
    try:
        reply = transport(endpoint, {"query": query, "format": "json"},
                          {"Accept": RESULTS_JSON})
    except Exception as exc:  # connection errors from the real transport
        raise HttpError(f"request to {endpoint} failed: {exc}") from exc
    if reply.status == 429:
        retry_after = parse_retry_after(reply.headers)
        raise RateLimited(f"{endpoint} rate-limited", retry_after=retry_after)
    if not 200 <= reply.status < 300:
        raise HttpError(f"{endpoint} returned HTTP {reply.status}",
                        status=reply.status)
    try:
        payload = json.loads(reply.text)
    except ValueError as exc:
        raise MalformedResponse(f"not JSON: {exc}") from exc
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, dict) or \
            not isinstance(results.get("bindings"), list):
        raise MalformedResponse("missing results.bindings")
    return payload


def with_retries(call: Callable[[], T], attempts: int,
                 sleep: Callable[[float], None],
                 retry_on: type[Exception]) -> T:
    """Run `call` up to `attempts` times while it raises `retry_on`.

    Between attempts, sleep for the error's `retry_after` hint when it
    carries one (RateLimited does), else for a backoff that starts at
    RETRY_BACKOFF_S and doubles each time. The last error propagates as is.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = RETRY_BACKOFF_S
    for _ in range(attempts - 1):
        try:
            return call()
        except retry_on as exc:
            hint = getattr(exc, "retry_after", None)
            sleep(max(0.0, hint) if hint is not None else delay)
            delay *= 2
    return call()


def parse_retry_after(headers: Mapping[str, str]) -> Optional[float]:
    """Seconds in a Retry-After header; None if absent, not a finite
    number, or above MAX_RETRY_AFTER_S."""
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                seconds = float(value)
            except ValueError:
                return None
            if not math.isfinite(seconds) or seconds > MAX_RETRY_AFTER_S:
                return None
            return seconds
    return None


def parse_bindings(payload: dict) -> list[dict[str, Optional[str]]]:
    """Flatten a results document into rows of variable -> plain value;
    MalformedResponse when its head, a binding row or a cell is misshapen."""
    head = payload.get("head", {})
    vars_ = head.get("vars", []) if isinstance(head, dict) else None
    if not isinstance(vars_, list) or \
            not all(isinstance(var, str) for var in vars_):
        raise MalformedResponse("head.vars is not a list of names")
    rows = []
    for binding in payload["results"]["bindings"]:
        if not isinstance(binding, dict):
            raise MalformedResponse(f"row {binding!r} is not an object")
        row: dict[str, Optional[str]] = {}
        for var in vars_:
            cell = binding.get(var)
            if cell is not None and not isinstance(cell, dict):
                raise MalformedResponse(f"cell {var!r} is not an object")
            row[var] = cell.get("value") if cell else None
        rows.append(row)
    return rows


def uri_tail(uri: str) -> str:
    """Last path segment of a URI: the bare id for Wikidata/DBpedia items."""
    return uri.rstrip("/").rsplit("/", 1)[-1]
