"""The two-tier fact store: a fast local table read-through to a slow source.

The fast table is an indexed, mutable snapshot of whatever the slow source
(an external KB dump or endpoint) has served, plus edits injected directly.
Reads hit the fast table first; a subject not held in full is fetched from
the slow source, stored whole under any edits to it, and optionally the
subjects its facts point at, one hop out, are prefetched.
Updates replace the object under a (subject, relation) key, so repeated
edits to the same fact converge to the last value written.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol

from .errors import (NAME, TEXT, HttpError, MalformedResponse, ParseError,
                     SlowUnreachable, fault, read_json, read_json_lines,
                     write_text)
from .sparqlio import (ENTITY_NAMESPACES, RequestPolicy, Transport,
                       load_query, row_fact)
from .triples import FactTriple, Source, TripleSet

log = logging.getLogger(__name__)


def parse_rfc3339(text: str) -> datetime:
    """An aware time; one with no offset is read as UTC."""
    # Python 3.10 fromisoformat rejects a trailing Z
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)


def utcnow() -> datetime:
    return datetime.now(timezone.utc)


class UpdateOutcome(enum.Enum):
    REPLACED = "replaced"
    INSERTED = "inserted"


@dataclass
class CacheStats:
    """Monotone counters for cache behavior.

    hits + misses equals the number of retrieve calls that completed, and
    misses equals slow_fetches, the miss-driven fetches: a fetch dropped as
    stale still counts in both, as a prefetch's does in prefetch_fetches.
    Sync fetches count in neither, so the equality stays exact. evictions
    counts whole subjects.
    """

    hits: int = 0
    misses: int = 0
    slow_fetches: int = 0
    updates_applied: int = 0
    replacements: int = 0
    prefetch_fetches: int = 0
    evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


def EditRequest(subject: str, relation: str, new_object: str,
                issued_at: Optional[datetime] = None, subject_label: str = "",
                relation_label: str = "", object_label: str = "",
                object_is_entity: bool = True) -> FactTriple:
    """The fact an edit writes: (subject, relation) set to new_object,
    issued at `issued_at` (apply_update stamps it when None). Kept because
    the benchmark under perfbench/ builds its edits with it."""
    return FactTriple(subject, relation, new_object, subject_label,
                      relation_label, object_label, object_is_entity,
                      fetched_at=issued_at)


class SlowSource(Protocol):
    """The slow tier: an authoritative source of triples, fetched by subject."""

    snapshot_at: Optional[datetime]

    def fetch_subject(self, entity: str) -> list[FactTriple]:
        ...


# --- dump file format -------------------------------------------------------
#
# One JSON object per line with keys subject_id, subject_label, relation_id,
# relation_label, object_id (null for literals), object_label, source,
# fetched_at (RFC 3339). The first record is a sidecar {"snapshot_at": ...}.

def triple_to_row(t: FactTriple) -> dict:
    return {
        "subject_id": t.subject,
        "subject_label": t.subject_label,
        "relation_id": t.relation,
        "relation_label": t.relation_label,
        "object_id": t.obj if t.object_is_entity else None,
        "object_label": t.object_label,
        "source": t.source.value,
        "fetched_at": t.fetched_at.isoformat() if t.fetched_at else None,
    }


def _is_time(value) -> bool:
    try:
        parse_rfc3339(value)
    except (AttributeError, ValueError):
        return False
    return True


_OPTIONAL_TEXT = (str, type(None))
_SOURCES = tuple(source.value for source in Source)
# key: required, what it must hold, its test; only a row that
# row_to_triple refused is checked key by key
_ROW_RULES = {
    "subject_id": (True, *NAME),
    "relation_id": (True, *NAME),
    "object_label": (True, *TEXT),
    "object_id": (False, "a string or null",
                  lambda v: type(v) in _OPTIONAL_TEXT),
    "subject_label": (False, *TEXT),
    "relation_label": (False, *TEXT),
    "source": (False, "one of " + ", ".join(_SOURCES),
               lambda v: v in _SOURCES),
    "fetched_at": (False, "an RFC 3339 time or null",
                   lambda v: v in (None, "") or _is_time(v)),
    "version": (False, "an integer of at least 1",
                lambda v: type(v) is int and v >= 1),
}
# a state file's entries, and the file itself
_ENTRY_RULES = {**_ROW_RULES,
                "edited": (False, "true or false", lambda v: type(v) is bool)}
_STATE_RULES = {
    "entries": (False, "a list", lambda v: type(v) is list),
    "incomplete": (False, "a list of strings", lambda v: type(v) is list
                   and all(type(subject) is str for subject in v)),
    "stats": (False, "a JSON object", lambda v: type(v) is dict),
}
_COUNT = (False, "an integer", lambda v: type(v) is int)  # every stats key
_SNAPSHOT_RULES = {"snapshot_at": (True, "an RFC 3339 time", _is_time)}


def row_to_triple(row: dict) -> FactTriple:
    """The fact a dump or state row holds. A row that lacks a key the fact
    needs, or holds a value of the wrong type, raises ParseError naming
    the key."""
    try:
        subject, relation = row["subject_id"], row["relation_id"]
        object_label, object_id = row["object_label"], row.get("object_id")
        subject_label = row.get("subject_label", "")
        relation_label = row.get("relation_label", "")
        fetched, version = row.get("fetched_at"), row.get("version", 1)
        # one test of every type; the rules name the key that failed it
        if not (type(subject) is type(relation) is type(object_label)
                is type(subject_label) is type(relation_label) is str
                and type(object_id) in _OPTIONAL_TEXT
                and type(fetched) in _OPTIONAL_TEXT and type(version) is int):
            raise TypeError
        return FactTriple(
            subject=subject,
            relation=relation,
            obj=object_id if object_id is not None else object_label,
            subject_label=subject_label,
            relation_label=relation_label,
            object_label=object_label,
            object_is_entity=object_id is not None,
            source=Source(row.get("source", "manual")),
            fetched_at=parse_rfc3339(fetched) if fetched else None,
            version=version,
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ParseError(fault(row, _ROW_RULES)) from None


def read_dump(path: str | Path) -> tuple[Optional[datetime], list[FactTriple]]:
    """The snapshot time and the facts of a dump file. A file that cannot
    be read, a line that is not UTF-8 JSON, or a row that row_to_triple
    refuses raises ParseError naming the file and the line."""
    snapshot_at = None

    def parse(record) -> Optional[FactTriple]:
        nonlocal snapshot_at
        if (type(record) is dict and "snapshot_at" in record
                and "subject_id" not in record):
            if reason := fault(record, _SNAPSHOT_RULES):
                raise ParseError(reason)
            snapshot_at = parse_rfc3339(record["snapshot_at"])
            return None
        return row_to_triple(record)

    triples = read_json_lines(path, parse)
    return snapshot_at, [t for t in triples if t is not None]


def write_dump(path: str | Path, triples: Iterable[FactTriple],
               snapshot_at: Optional[datetime] = None) -> int:
    rows = [json.dumps(triple_to_row(t), ensure_ascii=False) for t in triples]
    head = "" if snapshot_at is None else json.dumps(
        {"snapshot_at": snapshot_at.isoformat()}) + "\n"
    write_text(path, head + "".join(row + "\n" for row in rows))
    return len(rows)


# --- slow sources -----------------------------------------------------------

class LocalDumpSource:
    """Slow tier backed by a triple dump file on disk.

    The file is parsed once, on the first access to `fetch_subject`,
    `triples` or `snapshot_at`, so a caller that never reads through never
    parses it. `triples` keeps the parsed rows in file order, so callers
    that need the whole dump (alias registration) reuse this parse.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @cached_property
    def _dump(self) -> tuple[Optional[datetime], list[FactTriple],
                             dict[str, list[FactTriple]]]:
        snapshot_at, triples = read_dump(self.path)
        by_subject: dict[str, list[FactTriple]] = {}
        for t in triples:
            by_subject.setdefault(t.subject, []).append(t)
        return snapshot_at, triples, by_subject

    @property
    def snapshot_at(self) -> Optional[datetime]:
        return self._dump[0]

    @property
    def triples(self) -> list[FactTriple]:
        return self._dump[1]

    def fetch_subject(self, entity: str) -> list[FactTriple]:
        return list(self._dump[2].get(entity, ()))


class InMemorySlowSource:
    """Dict-backed slow tier for tests and synthetic scenarios.

    Set `unreachable` to make every fetch raise SlowUnreachable.
    """

    def __init__(self, triples: Iterable[FactTriple] = (),
                 snapshot_at: Optional[datetime] = None):
        self.snapshot_at = snapshot_at
        self.unreachable = False
        self.fetch_log: list[str] = []
        self._by_subject: dict[str, dict[tuple[str, str], FactTriple]] = {}
        for t in triples:
            self.put(t)

    def put(self, triple: FactTriple) -> None:
        self._by_subject.setdefault(triple.subject, {})[
            (triple.subject, triple.relation)] = triple

    def remove(self, subject: str, relation: str) -> None:
        self._by_subject.get(subject, {}).pop((subject, relation), None)

    def fetch_subject(self, entity: str) -> list[FactTriple]:
        if self.unreachable:
            raise SlowUnreachable("in-memory source marked unreachable")
        self.fetch_log.append(entity)
        return list(self._by_subject.get(entity, {}).values())


_ENTITY_ID = re.compile(r"[A-Za-z0-9_]+")  # any other string names no item


class RemoteSparqlSource:
    """Slow tier backed by a public SPARQL endpoint, asked by subject with
    the packaged subject_facts.rq through a sparqlio.RequestPolicy, which
    retries transient failures. A failure left after it, a malformed reply
    and any other 4xx are SlowUnreachable; any other exception propagates
    as itself: a transport's TypeError, or the ConfigError of an endpoint
    the network transport cannot send to. The query is Wikidata's, so rows
    are WIKIDATA triples; a live endpoint has no snapshot time. Each row is
    a fact by sparqlio.row_fact, the rule `data fetch` keeps too, with the
    subject's English label from the reply, or else its id."""

    snapshot_at: Optional[datetime] = None

    def __init__(self, endpoint: str,
                 transport: Optional[Transport] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.policy = RequestPolicy(endpoint, transport, sleep)
        self.query = load_query("subject_facts.rq")  # {subject} is its slot

    def fetch_subject(self, entity: str) -> list[FactTriple]:
        if not _ENTITY_ID.fullmatch(entity):
            return []  # and is never pasted into the query text
        try:
            rows = self.policy.select(self.query.replace("{subject}", entity))
        except (HttpError, MalformedResponse) as exc:  # names the endpoint
            raise SlowUnreachable(f"slow source failed: {exc}") from exc
        fetched_at, subject = utcnow(), ENTITY_NAMESPACES[0] + entity
        facts = (row_fact(subject, row.get("relation"), row.get("object"),
                          row.get("objectLabel"), row.get("subjectLabel"),
                          row.get("relationLabel"), Source.WIKIDATA,
                          fetched_at) for row in rows)
        return [fact for fact in facts if fact is not None]


# --- the store --------------------------------------------------------------

def _by_subject(triples: Iterable[FactTriple]
                ) -> dict[str, dict[str, FactTriple]]:
    """Facts by subject, then by relation. A (subject, relation) that
    repeats keeps the fact with the least object id, so the order of the
    triples does not matter."""
    subjects: dict[str, dict[str, FactTriple]] = {}
    for subject, run in groupby(triples, key=attrgetter("subject")):
        facts = subjects.setdefault(subject, {})
        for t in run:
            kept = facts.setdefault(t.relation, t)
            if kept is not t and t.obj < kept.obj:
                facts[t.relation] = t
    return subjects


@dataclass(slots=True)
class _Subject:
    """Everything the fast table holds about one subject."""

    facts: dict[str, FactTriple] = field(default_factory=dict)  # by relation
    complete: bool = True  # holds the slow source's facts, not only edits
    # the relations holding an edit; while any does, the subject is pinned
    # (never evicted). An unedited record shares the empty default.
    edited: frozenset[str] = frozenset()
    view: Optional[TripleSet] = None  # served by hits until a write
    stamp: int = 0  # the store's clock at the last write to the subject


class TieredFactStore:
    """Fast table over a slow source, with stats, prefetch, and eviction.

    The subject is the unit of residency. A resident subject maps each of
    its relations to exactly one triple and is either complete (the slow
    source's facts with edits laid over them) or incomplete (edits made
    before the subject was ever read). Of the facts a source gives for one
    relation, the store keeps the one with the least object id.
    Retrieving an incomplete subject reads it through once, as a miss; the
    fetched facts go in under the edits, so every edit wins. Absence is not
    cached.

    A hit serves the subject's view: one immutable TripleSet, built on the
    first hit and returned by every later hit until a write changes the
    subject's facts. Ranking indexes the view once, so a subject read many
    times is sorted and indexed once per write, not once per read.

    Capacity counts facts, as len() does. Past it, whole unpinned subjects
    are evicted, least recently used first. Each edit (apply_update /
    inject_manual) marks its fact, and a subject with a marked fact is
    pinned and never evicted, so edits alone may exceed capacity. A sync
    clears the mark of each fact the slow source now holds and unpins a
    subject left with none.

    With prefetch_depth 1 (the default) a miss also prefetches the
    subjects its facts name as entity objects, one hop out; 0 turns
    prefetch off.

    One short-held lock guards the table; slow fetches run unlocked. Each
    write to a subject stamps it from one store clock. A read-through (a
    miss, a prefetch, a sync) holds its subject's record, an empty and
    incomplete one while its first read is in flight (released if the
    fetch fails), then reads the clock as its ticket and fetches. A fetch
    is applied only onto a record whose stamp the ticket covers. A miss is
    served that record as last written, if it was filled, or else its own
    fetch under the edits it held. So each subject is linearizable, a sync
    taking two steps: it reads the source, then applies what it read unless
    the subject was written since it began. Concurrent misses on one entity
    converge to one stored copy (both fetches count); an edit waits on a
    sync for one subject at most.
    """

    def __init__(self, slow: Optional[SlowSource] = None,
                 capacity: Optional[int] = None,
                 prefetch_depth: int = 1):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when set")
        if prefetch_depth not in (0, 1):
            raise ValueError("prefetch_depth must be 0 or 1")
        self.slow = slow if slow is not None else InMemorySlowSource()
        self.capacity = capacity
        self.prefetch_depth = prefetch_depth
        self.stats = CacheStats()
        self._subjects: dict[str, _Subject] = {}
        # the unpinned resident subjects, least recently used first
        self._lru: OrderedDict[str, _Subject] = OrderedDict()
        self._facts = 0
        self._clock = 0  # moves on at each write to a subject
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._facts

    # -- reads ---------------------------------------------------------------

    def retrieve(self, entity: str) -> TripleSet:
        """All triples with the given subject. A subject not held complete
        is read through from the slow source (a miss) under any edits, and
        its neighbors are prefetched."""
        if not entity:
            raise ValueError("entity must be non-empty")
        with self._lock:
            hit = self._serve_fast(entity)
            if hit is not None:
                self.stats.hits += 1
                return hit
            mine = self._hold(entity)  # its facts are edits only, if any
            held, ticket = (mine, dict(mine.facts)), self._clock
        result = self._read_through("miss", ticket, [entity], held)[1]
        try:
            self.prefetch_neighbors(result)
        except SlowUnreachable as exc:
            log.warning("prefetch after retrieve(%s) incomplete: %s",
                        entity, exc)
        return result

    def get(self, subject: str, relation: str) -> Optional[FactTriple]:
        """Fast-table lookup without read-through; no counters touched."""
        with self._lock:
            record = self._subjects.get(subject)
            return record.facts.get(relation) if record else None

    def fast_snapshot(self) -> TripleSet:
        with self._lock:
            return TripleSet(t for record in self._subjects.values()
                             for t in record.facts.values())

    def bulk_load(self, triples: Iterable[FactTriple]) -> int:
        """Warm the fast table with read-only triples, taking each subject
        they name as complete; resident (subject, relation) keys are left
        untouched. A subject's triples are taken together wherever they
        stand, so their order does not matter. Returns the number
        inserted."""
        grouped = _by_subject(triples)
        added = 0
        with self._lock:
            self._clock += 1  # one stamp for every subject loaded
            for subject, facts in grouped.items():
                record = self._subjects.get(subject)
                if record is None:
                    self._admit(subject, _Subject(facts, stamp=self._clock))
                    added += len(facts)
                else:  # each resident fact wins
                    added += self._lay(subject, record, facts, record.facts)
            self._evict()
        return added

    def _serve_fast(self, entity: str) -> Optional[TripleSet]:
        record = self._subjects.get(entity)
        if record is None or not record.complete:
            return None
        if not record.edited:
            self._lru.move_to_end(entity)
        if record.view is None:
            record.view = TripleSet(record.facts.values())
        return record.view

    # -- prefetch -------------------------------------------------------------

    def prefetch_neighbors(self, seeds: TripleSet) -> int:
        """Fetch the subjects that seed triples name as entity objects, one
        hop out, in sorted order, and insert them as complete subjects under
        any edits; subjects held complete are skipped. Returns the number of
        triples inserted. On SlowUnreachable the partial prefetch already
        inserted is kept, the targets left are released, and the error
        raised."""
        if self.prefetch_depth == 0:
            return 0
        with self._lock:
            targets = sorted({t.obj for t in seeds if t.object_is_entity
                              and not self._hold(t.obj).complete})
            ticket = self._clock
        return self._read_through("prefetch", ticket, targets)[0]  # may raise

    # -- writes ---------------------------------------------------------------

    def apply_update(self, fact: FactTriple,
                     source: Source = Source.SYNTHETIC) -> UpdateOutcome:
        """Write `fact` under its (subject, relation): replace the object
        there, or insert the fact, and pin the subject. It is stored with
        `source`, version 1 (bumped on a replace) and its `fetched_at` as
        the issue time, or now when that is None. An edit to a subject that
        is not resident is laid over the slow source's facts on its next
        retrieve.

        Re-applying the current object is reported as REPLACED with no
        version bump; it still marks the fact, and a manual edit also takes
        over the fact's provenance unless a manual edit issued later holds
        it. The (subject, relation) key stays unique.
        """
        subject, relation = fact.subject, fact.relation
        issued_at = fact.fetched_at or utcnow()
        with self._lock:
            self.stats.updates_applied += 1
            record = self._hold(subject)  # laid over a fetch later
            # marked and stamped even when the object is unchanged
            if not record.edited:
                del self._lru[subject]
            record.edited |= {relation}
            record.stamp = self._clock = self._clock + 1
            existing, version = record.facts.get(relation), 1
            if existing is not None:
                if existing.obj != fact.obj:
                    version = existing.version + 1
                    self.stats.replacements += 1
                elif source is Source.MANUAL and not self._manual_wins(
                        existing, issued_at):
                    # a manual edit takes over the provenance it confirms
                    version = existing.version
                else:
                    return UpdateOutcome.REPLACED
            record.facts[relation] = FactTriple(
                subject, relation, fact.obj, fact.subject_label,
                fact.relation_label, fact.object_label, fact.object_is_entity,
                source, issued_at, version)
            record.view = None
            if existing is not None:
                return UpdateOutcome.REPLACED
            self._facts += 1
            self._evict()
            return UpdateOutcome.INSERTED

    def inject_manual(self, fact: FactTriple) -> UpdateOutcome:
        """apply_update with MANUAL provenance: a real-world fact injected
        directly, ahead of the slow source absorbing it."""
        return self.apply_update(fact, source=Source.MANUAL)

    # -- sync ------------------------------------------------------------------

    def sync(self) -> int:
        """Re-fetch every subject holding a fact and lay its edits over
        exactly the fetched facts, so each unedited fact the source no
        longer returns is dropped; returns replacements + insertions +
        drops. An edit whose fact now equals the source's is absorbed: its
        mark is cleared, and a subject left with none is unpinned.

        A marked manual edit issued after the slow snapshot time, or under
        a source with none, is kept; once absorbed, the source's later
        values replace it like any other fact. All subjects are fetched,
        unlocked, before any is applied, so a SlowUnreachable leaves the
        fast table untouched. A subject evicted, edited or read through
        since the sync began is skipped: the later write wins.
        """
        with self._lock:
            ticket, subjects = self._clock, sorted(
                s for s, record in self._subjects.items() if record.facts)
        return self._read_through("sync", ticket, subjects)[0]

    @staticmethod
    def _manual_wins(resident: FactTriple,
                     snapshot_at: Optional[datetime]) -> bool:
        issued = resident.fetched_at
        return resident.source is Source.MANUAL and issued is not None and (
            snapshot_at is None or issued > snapshot_at)

    # -- the read-through -----------------------------------------------------

    def _read_through(self, why: str, ticket: int, subjects: list[str],
                      held: tuple = ()) -> tuple[int, Optional[TripleSet]]:
        """Fetch `subjects` unlocked for a "miss", "prefetch" or "sync"
        (`why`; a sync fetches all first), then apply each fetch under the
        lock unless its subject's record was written or released since
        `ticket`. A miss is served the record it held, `held[0]`, if that
        holds a full copy (as last written, if released since), else its
        fetch under `held[1]`, the edits at the ticket. On SlowUnreachable,
        each record still held empty and incomplete since the ticket is
        released. Returns (facts changed, answer)."""
        sync = why == "sync"
        fetched = ((subject, self._fetch(subject)) for subject in subjects)
        try:
            if sync:  # SlowUnreachable leaves the fast table untouched
                fetched, snapshot_at = list(fetched), self.slow.snapshot_at
            changed, served = 0, None
            for subject, facts in fetched:
                with self._lock:
                    if why == "miss":
                        self.stats.misses += 1
                        self.stats.slow_fetches += 1
                    elif not sync:
                        self.stats.prefetch_fetches += 1
                    record = self._subjects.get(subject)  # None: released
                    if record is not None and record.stamp <= ticket:
                        # the edits that stay marked (a sync's: see sync())
                        kept = record.edited if not sync else frozenset(
                            r for r in record.edited if r not in facts
                            or facts[r].obj != record.facts[r].obj and
                            self._manual_wins(record.facts[r], snapshot_at))
                        changed += self._lay(subject, record, facts, kept)
                    if why == "miss":
                        mine, edits = held
                        if record is mine:
                            served = self._serve_fast(subject)
                        elif mine.complete:  # as released; empty if absent
                            served = TripleSet(mine.facts.values())
                        served = served or TripleSet(
                            {**facts, **edits}.values())
                    self._evict()
        except SlowUnreachable:
            with self._lock:  # release each hold no fetch has filled
                for subject in subjects:
                    record = self._subjects.get(subject)
                    if record is not None and record.stamp <= ticket and \
                            not (record.complete or record.facts):
                        del self._subjects[subject], self._lru[subject]
            raise
        return changed, served

    def _lay(self, subject: str, record: _Subject,
             facts: dict[str, FactTriple], kept: Iterable[str]) -> int:
        """Lay the resident facts of the `kept` relations over exactly
        `facts`: a record never mixes two fetches, an unchanged object keeps
        its version, only kept edits stay marked. Returns the facts changed."""
        old = record.facts
        new = {**facts, **{r: old[r] for r in kept}}
        changed = len(new.keys() ^ old.keys())  # inserted or dropped
        for relation in new.keys() & old.keys():
            t, existing = new[relation], old[relation]
            if t.obj == existing.obj:
                new[relation] = existing
            else:
                new[relation] = dataclasses.replace(
                    t, version=existing.version + 1)
                changed += 1
                self.stats.replacements += 1
        self._facts += len(new) - len(old)
        if record.edited:
            record.edited = record.edited.intersection(kept)
            if not record.edited:  # the source holds every edit
                self._lru[subject] = record
        record.facts, record.complete = new, True
        record.stamp = self._clock = self._clock + 1
        if changed:
            record.view = None
        if not new:  # absence is not cached
            del self._subjects[subject], self._lru[subject]
        return changed

    # -- internals --------------------------------------------------------------

    def _hold(self, subject: str) -> _Subject:
        """The subject's record, admitted empty and newly stamped if absent."""
        if subject not in self._subjects:
            self._clock += 1
            self._admit(subject, _Subject(complete=False, stamp=self._clock))
        return self._subjects[subject]

    def _admit(self, subject: str, record: _Subject) -> _Subject:
        self._subjects[subject] = record
        if not record.edited:
            self._lru[subject] = record
        self._facts += len(record.facts)
        return record

    def _fetch(self, subject: str) -> dict[str, FactTriple]:
        """The slow source's facts about `subject`, by relation."""
        return _by_subject(self.slow.fetch_subject(subject)).get(subject, {})

    def _evict(self) -> None:
        if self.capacity is None:
            return
        while self._facts > self.capacity and self._lru:
            subject, record = self._lru.popitem(last=False)
            del self._subjects[subject]
            self._facts -= len(record.facts)
            self.stats.evictions += 1

    def reset(self) -> None:
        """Drop all fast-table contents and zero the counters."""
        with self._lock:
            self._subjects.clear()
            self._lru.clear()
            self._facts = 0
            self.stats = CacheStats()


# --- store state persistence (CLI sessions) ---------------------------------

def save_state(store: TieredFactStore, path: str | Path) -> None:
    """Write the store's facts and counters to `path` as JSON. The file is
    replaced atomically: a failed write leaves the previous state intact."""
    with store._lock:
        entries = [
            {**triple_to_row(t), "version": t.version,
             "edited": t.relation in record.edited}
            for _, record in sorted(store._subjects.items())
            for _, t in sorted(record.facts.items())
        ]
        incomplete = sorted(s for s, record in store._subjects.items()
                            if record.facts and not record.complete)
        state = {"stats": store.stats.snapshot(), "entries": entries,
                 "incomplete": incomplete}
    write_text(path, json.dumps(state, ensure_ascii=False, indent=2))


def load_state(store: TieredFactStore, path: str | Path) -> TieredFactStore:
    """Fill the empty `store` with the state save_state wrote to `path`,
    and return it. An edited row marks its fact and pins its subject;
    older files, which flag every row of a pinned subject, load with each
    of its facts marked until a sync. A subject listed as incomplete reads
    through on its next retrieve, and a file without that list loads every
    subject complete.
    Unpinned subjects past the store's capacity are evicted, as after any
    write. The file keeps no recency, so subjects load in name order and
    that eviction takes the first unpinned subjects by name."""
    records: dict[str, _Subject] = {}
    state = read_json(path)
    stats = state.get("stats", {}) if type(state) is dict else {}
    if reason := (fault(state, _STATE_RULES)
                  or fault(stats, dict.fromkeys(stats, _COUNT), "stats.")):
        raise ParseError(f"{path}: {reason}")
    incomplete = set(state.get("incomplete", ()))
    for index, row in enumerate(state.get("entries", ())):
        try:
            triple = row_to_triple(row)
            if type(edited := row.get("edited", False)) is not bool:
                raise ParseError(fault(row, _ENTRY_RULES))
        except ParseError as exc:
            raise ParseError(f"{path}: entries[{index}]: {exc}") from None
        record = records.setdefault(
            triple.subject, _Subject(complete=triple.subject not in incomplete))
        record.facts[triple.relation] = triple
        if edited:
            record.edited |= {triple.relation}
    store.stats = CacheStats(**{k: stats.get(k, 0)
                                for k in CacheStats().snapshot()})
    for subject, record in records.items():
        store._admit(subject, record)
    store._evict()  # the file may hold more than this capacity
    return store
