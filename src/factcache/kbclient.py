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
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from .errors import ConfigError, MalformedResponse
from .sparqlio import (RequestPolicy, Transport, entity_id, load_query,
                       uri_tail)
from .triples import FactTriple, Source, TripleSet

WIKIDATA_ENDPOINT = "https://query.wikidata.org/sparql"
DBPEDIA_ENDPOINT = "https://dbpedia.org/sparql"

_PROPERTY_ID_RE = re.compile(r"^P\d+$")

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
        if not _PROPERTY_ID_RE.match(self.wikidata_property):
            raise ValueError(
                f"not a Wikidata property id: {self.wikidata_property!r}")
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True)
class RawTripleRow:
    """One result row from a triple-collection query.

    relation_* and origin are stamped on by the fetching client so the rows
    stay self-describing through filtering.
    """

    subject_uri: str
    subject_label: str
    object_uri: Optional[str]  # None for a literal (sparqlio.entity_id)
    object_label: str
    relation_count: Optional[int] = None  # Wikidata query only
    relation_id: str = ""
    relation_label: str = ""
    origin: Source = Source.WIKIDATA


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
            if not _PROPERTY_ID_RE.match(wd_id):
                continue
            if _identifier_like(label):
                continue
            pairs.append(EquivalentPropertyPair(
                dbpedia_property=dbp, wikidata_property=wd_id, label=label))
        return pairs

    def fetch_triples(self, relation: str, limit: int, offset: int = 0,
                      relation_label: str = "",
                      person_only: bool = False) -> list[RawTripleRow]:
        """Up to `limit` (subject, object) rows for one relation.

        `relation` is a Wikidata property id (P-number) or a DBpedia
        property URL, depending on the endpoint kind.
        """
        if limit < 0 or offset < 0:
            raise ValueError("limit and offset must be non-negative")
        if not uri_tail(relation):  # "/", say: no property to ask for
            raise ConfigError(f"relation {relation!r} names no property id")
        if limit == 0:
            return []
        if self.kind == "wikidata":
            query = wikidata_triples_query(relation, limit, offset,
                                           person_only=person_only)
            rows = self.policy.select(query)
        else:
            query = dbpedia_triples_query(relation)
            rows = self.policy.select(query)[offset:offset + limit]
        out = []
        for row in rows:
            subject_uri = row.get("subject") or ""
            subject_label = row.get("subjectLabel")
            if not _item_id(subject_uri) or not subject_label:
                continue  # no subject, or one made only of slashes
            count, obj = row.get("relationCount"), row.get("object")
            if count is not None and not count.isdecimal():
                raise MalformedResponse(f"relationCount {count!r} is no count")
            out.append(RawTripleRow(
                subject_uri=subject_uri,
                subject_label=subject_label,
                object_uri=obj if entity_id(obj) else None,
                object_label=row.get("objectLabel") or obj or "",
                relation_count=int(count) if count is not None else None,
                relation_id=relation if self.kind == "wikidata"
                else uri_tail(relation),
                relation_label=relation_label or uri_tail(relation),
                origin=self.source,
            ))
        return out


def _identifier_like(label: str) -> bool:
    tokens = {t for t in re.split(r"[^0-9A-Za-z]+", label.lower()) if t}
    if tokens & ALLOW_TOKENS:
        return False
    return bool(tokens & BLOCK_TOKENS)


def _item_id(uri: str) -> str:
    return entity_id(uri) or uri_tail(uri)  # not an item's: a last segment


def filter_ambiguous(rows: list[RawTripleRow],
                     fetched_at: Optional[datetime] = None) -> TripleSet:
    """Drop rows that would make a question ambiguous, then build triples
    stamped `fetched_at` (None when the fetch time is unknown).

    Within the batch (which must cover a single relation per grouping):
    (a) a subject label naming more than one subject URI is dropped entirely,
    (b) a (subject, relation) with more than one object is dropped entirely.
    """
    # exact duplicate rows collapse first so they do not fake a conflict
    unique: dict[tuple, RawTripleRow] = {}
    for row in rows:
        unique.setdefault((row.subject_uri, row.relation_id,
                           row.object_uri, row.object_label), row)
    deduped = list(unique.values())

    uris_per_label: dict[tuple[str, str], set[str]] = {}
    objects_per_subject: dict[tuple[str, str], set[tuple]] = {}
    for row in deduped:
        uris_per_label.setdefault(
            (row.relation_id, row.subject_label), set()).add(row.subject_uri)
        objects_per_subject.setdefault(
            (row.relation_id, row.subject_uri), set()).add(
            (row.object_uri, row.object_label))

    kept = []
    for row in deduped:
        if len(uris_per_label[(row.relation_id, row.subject_label)]) > 1:
            continue
        if len(objects_per_subject[(row.relation_id, row.subject_uri)]) > 1:
            continue
        is_entity = row.object_uri is not None
        obj_id = _item_id(row.object_uri) if is_entity else row.object_label
        kept.append(FactTriple(
            subject=_item_id(row.subject_uri),
            relation=row.relation_id,
            obj=obj_id,
            subject_label=row.subject_label,
            relation_label=row.relation_label,
            object_label=row.object_label or obj_id,
            object_is_entity=is_entity,
            source=row.origin,
            fetched_at=fetched_at,
        ))
    return TripleSet(kept)
