"""SPARQL clients for Wikidata and DBpedia: equivalent-property discovery,
paginated triple collection, and ambiguity filtering.

Query texts are loaded from text assets and substituted verbatim; the same
inputs always produce byte-identical query strings. Each client asks its
endpoint through one sparqlio.RequestPolicy, which retries transient
failures; tests run against recorded fixture responses via an injected
transport.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Optional

from .errors import ConfigError, MalformedResponse
from .ranking import tokenize
from .sparqlio import (RequestPolicy, Transport, load_query, row_fact,
                       uri_tail)
from .triples import FactTriple, Source, TripleSet

WIKIDATA_ENDPOINT = "https://query.wikidata.org/sparql"
DBPEDIA_ENDPOINT = "https://dbpedia.org/sparql"

_PROPERTY_ID_RE = re.compile(r"P\d+")  # used with fullmatch
# what SPARQL's IRIREF forbids: a relation is pasted between < and >
_NOT_IN_IRI_RE = re.compile(r'[<>"{}|^`\\\x00-\x20]')

# Relations whose objects are opaque identifiers carry no usable knowledge;
# airline designators are kept because they are real-world answerable facts.
BLOCK_TOKENS = frozenset({"id", "code", "identifier"})
ALLOW_TOKENS = frozenset({"iata", "icao"})


def equivalent_properties_query() -> str:
    return load_query("equivalent_properties.rq")


def wikidata_triples_query(property_id: str, limit: int, offset: int,
                           person_only: bool = False) -> str:
    """Fill the Wikidata collection template with {item}/{limit}/{offset}.

    person_only uncomments the template's instance-of-human restriction.
    """
    query = (load_query("wikidata_triples.rq")
             .replace("{item}", property_id)
             .replace("{limit}", str(limit))
             .replace("{offset}", str(offset)))
    if person_only:
        query = query.replace("# ?subject wdt:P31 wd:Q5.",
                              "?subject wdt:P31 wd:Q5.")
    return query


def dbpedia_triples_query(property_url: str) -> str:
    """Fill the DBpedia collection template; it carries no pagination
    placeholders, so limit/offset are applied client-side."""
    return load_query("dbpedia_triples.rq").replace("{property_url}",
                                                    property_url)


@dataclass(frozen=True)
class EquivalentPropertyPair:
    """A DBpedia property linked to its equivalent Wikidata property."""

    dbpedia_property: str
    wikidata_property: str
    label: str

    def __post_init__(self):
        if not _PROPERTY_ID_RE.fullmatch(self.wikidata_property):
            raise ValueError(
                f"not a Wikidata property id: {self.wikidata_property!r}")
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True)
class RawTripleRow:
    """One result row from a triple-collection query: the fact it states
    (sparqlio.row_fact, with no fetch time), plus what the fact cannot give
    back, the row's URIs and the Wikidata query's relation count."""

    fact: FactTriple
    subject_uri: str
    object_uri: Optional[str]  # None for a literal
    relation_count: Optional[int] = None  # Wikidata query only


@dataclass
class KnowledgeBaseClient:
    """SPARQL request issuer for one endpoint, through one request policy.

    kind selects the query dialect: "wikidata" endpoints use the paginated
    collection query, "dbpedia" endpoints page client-side.
    """

    kind: str
    endpoint: str
    transport: Optional[Transport] = None
    policy: RequestPolicy = field(init=False)

    def __post_init__(self):
        if self.kind not in ("wikidata", "dbpedia"):
            raise ValueError(f"unknown endpoint kind: {self.kind!r}")
        self.policy = RequestPolicy(self.endpoint, self.transport)

    @property
    def source(self) -> Source:
        return Source.WIKIDATA if self.kind == "wikidata" else Source.DBPEDIA

    def fetch_equivalent_properties(self) -> list[EquivalentPropertyPair]:
        """Properties shared by DBpedia and Wikidata, minus identifier-like
        relations (blocklist by label token, with an allowlist override)."""
        pairs = []
        for row in self.policy.select(equivalent_properties_query()):
            dbp = row.get("DBpediaProp")
            label = row.get("itemLabel")
            wd_uri = row.get("WikidataProp")
            if not dbp or not label or not wd_uri:
                raise MalformedResponse(f"incomplete property row: {row}")
            wd_id = uri_tail(wd_uri)
            if not _PROPERTY_ID_RE.fullmatch(wd_id) or _identifier_like(label):
                continue
            pairs.append(EquivalentPropertyPair(
                dbpedia_property=dbp, wikidata_property=wd_id, label=label))
        return pairs

    def fetch_triples(self, relation: str, limit: int, offset: int = 0,
                      relation_label: str = "",
                      person_only: bool = False) -> list[RawTripleRow]:
        """Up to `limit` (subject, object) rows for one relation.

        `relation` is a Wikidata property id (P-number) or URL, or a
        DBpedia property URL, depending on the endpoint kind; the relation
        id is its last segment. A negative limit or offset, or a relation
        naming no property id or holding a character SPARQL's IRIREF
        forbids, is a ConfigError raised before any request.
        A row is kept if it has a subject label and states a fact
        (sparqlio.row_fact), which it holds.
        """
        if limit < 0 or offset < 0:
            raise ConfigError("limit and offset must be non-negative")
        relation_id = uri_tail(relation)  # "" for "/"
        if not relation_id or self.kind == "wikidata" and \
                not _PROPERTY_ID_RE.fullmatch(relation_id):
            # and is never pasted into the query text
            raise ConfigError(f"relation {relation!r} names no property id")
        if _NOT_IN_IRI_RE.search(relation):
            raise ConfigError(
                f"relation {relation!r} holds a character no IRI may")
        if limit == 0:
            return []
        if self.kind == "wikidata":
            rows = self.policy.select(wikidata_triples_query(
                relation_id, limit, offset, person_only=person_only))
        else:  # the DBpedia query has no pages: slice its rows
            rows = self.policy.select(
                dbpedia_triples_query(relation))[offset:offset + limit]
        out = []
        for row in rows:
            subject_label = row.get("subjectLabel")
            fact = row_fact(row.get("subject"), relation_id, row.get("object"),
                            row.get("objectLabel"), subject_label,
                            relation_label, self.source, None)
            if fact is None or not subject_label:
                continue
            count = row.get("relationCount")
            if count is not None and not count.isdecimal():
                raise MalformedResponse(f"relationCount {count!r} is no count")
            out.append(RawTripleRow(
                fact, row["subject"],
                row["object"] if fact.object_is_entity else None,
                int(count) if count is not None else None))
        return out


def _identifier_like(label: str) -> bool:
    tokens = set(tokenize(label))
    if tokens & ALLOW_TOKENS:
        return False
    return bool(tokens & BLOCK_TOKENS)


def filter_ambiguous(rows: list[RawTripleRow],
                     fetched_at: Optional[datetime] = None) -> TripleSet:
    """The rows' facts, stamped `fetched_at` (None when the fetch time is
    unknown), less those that would make a question ambiguous.

    Within the batch (which must cover a single relation per grouping):
    (a) a subject label naming more than one subject is dropped entirely,
    (b) a (subject, relation) with more than one object is dropped entirely.
    """
    # exact duplicate facts collapse first so they do not fake a conflict
    unique: dict[tuple, FactTriple] = {}
    for row in rows:
        unique.setdefault((row.fact.key, row.fact.object_label), row.fact)
    facts = unique.values()
    objects = Counter((t.relation, t.subject) for t in facts)
    subjects = Counter((relation, label) for relation, label, _ in
                       {(t.relation, t.subject_label, t.subject) for t in facts})
    return TripleSet(replace(t, fetched_at=fetched_at) for t in facts
                     if objects[t.relation, t.subject] == 1
                     and subjects[t.relation, t.subject_label] == 1)
