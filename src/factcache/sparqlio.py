"""Low-level SPARQL-over-HTTP plumbing shared by the KB clients and the
remote slow source: the request policy (retries), request execution,
results-JSON parsing, query assets, URI helpers, and the one rule that
turns a result row into a fact.

The transport is injectable so every test can run against recorded
responses; the default, http_transport, sends a real request through the
standard library's urllib.request, imported on the first request.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime
from importlib import resources
from typing import Callable, Mapping, Optional

from . import __version__
from .errors import (ConfigError, HttpError, MalformedResponse, RateLimited,
                     parse_json, read_text)
from .triples import FactTriple, Source

# Wikimedia asks every client of its endpoints to name itself:
# https://meta.wikimedia.org/wiki/User-Agent_policy
HEADERS = {"Accept": "application/sparql-results+json",
           "User-Agent": f"factcache/{__version__}"}
# A Retry-After hint longer than this is treated as no hint, so the
# backoff applies; time.sleep rejects a huge value with OverflowError.
MAX_RETRY_AFTER_S = 3600.0
RETRY_BACKOFF_S = 0.25  # the first wait between attempts; doubles per retry
# URIs under these name knowledge-base items; any other value is a literal
ENTITY_NAMESPACES = ("http://www.wikidata.org/entity/",
                     "http://dbpedia.org/resource/")


@dataclass
class TransportReply:
    """What a transport hands back: status, response headers, and body."""

    status: int
    text: str
    headers: Mapping[str, str] = field(default_factory=dict)


Transport = Callable[[str, Mapping[str, str], Mapping[str, str]], TransportReply]


def http_transport(url: str, params: Mapping[str, str],
                   headers: Mapping[str, str], payload: Optional[dict] = None,
                   timeout: float = 60.0) -> TransportReply:
    """GET `url` with `params` as its query string, or POST `payload` as
    JSON. A reply of any status is returned, decoded by its charset or else
    UTF-8. A failed connection or a garbled reply is an OSError; a URL that
    names no http(s) host is a ConfigError, raised before sending."""
    import http.client
    import urllib.error
    import urllib.request
    from urllib.parse import urlencode, urlsplit

    try:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("it names no http or https host")
        if params:
            url += ("&" if parts.query else "?") + urlencode(params)
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(url, data, headers)
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, info, body = resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:  # an error reply holds its socket until closed
            status, info, body = exc.code, exc.headers, exc.read()
    except (ValueError, http.client.InvalidURL) as exc:
        # a bad port, a control character: sending it again fails alike
        raise ConfigError(f"cannot send a request to {url}: {exc}") from exc
    except http.client.HTTPException as exc:  # a garbled or cut-off reply
        raise ConnectionError(f"{url}: {exc!r}") from exc
    charset = info.get_content_charset() or "utf-8"
    try:
        text = body.decode(charset, errors="replace")
    except LookupError:  # a charset Python does not know
        text = body.decode("utf-8", errors="replace")
    return TransportReply(status, text, dict(info))


def exec_sparql(endpoint: str, query: str,
                transport: Optional[Transport] = None) -> list[dict]:
    """Run one SPARQL query and return its rows, each a dict of variable
    to plain value, None where unbound.

    Raises RateLimited on 429 (carrying any Retry-After hint), HttpError on
    other non-2xx statuses or a connection error (an OSError, as urllib's
    are), MalformedResponse when the body is not a SPARQL results document
    or its head, a row or a cell is misshapen; each names the endpoint. Any
    other exception from the transport propagates.
    """
    transport = transport or http_transport
    try:
        reply = transport(endpoint, {"query": query, "format": "json"},
                          HEADERS)
    except OSError as exc:
        raise HttpError(f"request to {endpoint} failed: {exc}") from exc
    if reply.status == 429:
        retry_after = parse_retry_after(reply.headers)
        raise RateLimited(f"{endpoint} rate-limited", retry_after=retry_after)
    if not 200 <= reply.status < 300:
        raise HttpError(f"{endpoint} returned HTTP {reply.status}",
                        status=reply.status)
    try:
        payload = parse_json(reply.text)
    except ValueError as exc:
        raise MalformedResponse(f"{endpoint}: not JSON: {exc}") from exc
    results = payload.get("results") if isinstance(payload, dict) else None
    bindings = results.get("bindings") if isinstance(results, dict) else None
    if not isinstance(bindings, list):
        raise MalformedResponse(f"{endpoint}: missing results.bindings")
    head = payload.get("head", {})
    vars_ = head.get("vars", []) if isinstance(head, dict) else None
    if not isinstance(vars_, list) or \
            not all(isinstance(var, str) for var in vars_):
        raise MalformedResponse(
            f"{endpoint}: head.vars is not a list of names")
    rows = []
    for binding in bindings:
        if not isinstance(binding, dict):
            raise MalformedResponse(
                f"{endpoint}: row {binding!r} is not an object")
        row: dict[str, Optional[str]] = {}
        for var in vars_:
            cell = binding.get(var)
            if cell is not None and not isinstance(cell, dict):
                raise MalformedResponse(
                    f"{endpoint}: cell {var!r} is not an object")
            value = row[var] = cell.get("value") if cell else None
            if value is not None and not isinstance(value, str):
                raise MalformedResponse(
                    f"{endpoint}: cell {var!r}: value is no string")
        rows.append(row)
    return rows


class RequestPolicy:
    """How a client asks one SPARQL endpoint.

    `select` runs the query and returns its rows, making up to `attempts`
    requests. A request goes out as soon as the last one is answered: the
    endpoint paces its clients, with a 429 and a Retry-After hint. `select`
    retries only a transient failure (a connection error, a 5xx or a 429),
    after the 429's Retry-After hint or else a backoff from RETRY_BACKOFF_S
    that doubles; the last error propagates. A MalformedResponse, another
    4xx or any other exception propagates at once.
    """

    attempts = 3

    def __init__(self, endpoint: str, transport: Optional[Transport] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint
        self.transport = transport
        self.sleep = sleep

    def select(self, query: str) -> list[dict[str, Optional[str]]]:
        delay = RETRY_BACKOFF_S
        for attempt in range(1, self.attempts + 1):
            try:
                return exec_sparql(self.endpoint, query, self.transport)
            except HttpError as exc:
                transient = exc.status in (None, 429) or exc.status >= 500
                if not transient or attempt == self.attempts:
                    raise
                hint = getattr(exc, "retry_after", None)
                self.sleep(max(0.0, hint) if hint is not None else delay)
                delay *= 2
        raise ValueError("attempts must be >= 1")


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


def load_query(name: str) -> str:
    """The text of a packaged query under assets/sparql/."""
    return read_text(resources.files("factcache.assets.sparql") / name)


def uri_tail(uri: str) -> str:
    """Last path segment of a URI: the bare id of a property."""
    return uri.rstrip("/").rsplit("/", 1)[-1]


def entity_id(value: Optional[str]) -> Optional[str]:
    """The id of the Wikidata or DBpedia item a result value names, all of
    it after the namespace (`.../resource/AC/DC` is `AC/DC`); None for any
    other value: a literal, a web address, a bare namespace, no value."""
    if value and value.startswith(ENTITY_NAMESPACES):
        for namespace in ENTITY_NAMESPACES:
            if value.startswith(namespace):
                return value[len(namespace):] or None
    return None


def row_fact(subject: Optional[str], relation: Optional[str],
             obj: Optional[str], object_label: Optional[str],
             subject_label: Optional[str], relation_label: Optional[str],
             source: Source, fetched_at: Optional[datetime]
             ) -> Optional[FactTriple]:
    """The fact a result row states, or None if it states none.

    A row states no fact without a subject, a relation (the last segment of
    `relation`) or an object, or when its subject is no item's URI. An
    object under ENTITY_NAMESPACES is the item entity_id names, labelled
    `object_label` or else its id; any other object is a literal whose
    value is both its id and its label, as a dump row keeps it. A missing
    subject or relation label is the id."""
    subject, relation = entity_id(subject), uri_tail(relation or "")
    if not (subject and relation and obj):
        return None
    item = entity_id(obj)  # None for a literal
    return FactTriple(subject=subject, relation=relation, obj=item or obj,
                      subject_label=subject_label or "",
                      relation_label=relation_label or "",
                      object_label=(object_label or item) if item else obj,
                      object_is_entity=item is not None, source=source,
                      fetched_at=fetched_at)
