"""In-memory span recording around calls into factcache's layers.

A span is [name, start, end, parent, request]: `parent` is the index of the
enclosing span (-1 for a root) and every span under one root shares the
root's request id. Spans are kept in a list while the benchmark runs and
written out as JSON Lines at the end. A span's layer is its name up to the
first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._requests = 0
        self._patches: list[tuple] = []
        # per span name, what `note` extracted from each call's arguments
        self.notes: dict[str, list] = defaultdict(list)

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        notes = self.notes[name]

        def traced(*args, **kwargs):
            if note is not None:
                notes.append(note(*args, **kwargs))
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent, request = -1, self._requests
                self._requests += 1
            span = [name, clock(), 0.0, parent, request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr (a module function, a class's method or one
        object's bound method) with a traced wrapper until restore()."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self.wrap(original, name, note))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path: Path, tag: str = "") -> None:
        write_spans(path, self.spans, tag)


def write_spans(path: Path, spans: list[list], tag: str = "") -> None:
    """Append one JSON list per span: [tag, index, name, start, end, parent,
    request]."""
    with open(path, "a", encoding="utf-8") as f:
        for i, span in enumerate(spans):
            f.write(json.dumps([tag, i, *span]) + "\n")


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line)[2:] for line in f]


class SpanStats:
    """Durations and self times per span name, and self time per layer.

    A span's self time is its duration minus its children's durations;
    spans of one thread never overlap, so children cover disjoint time.
    A `cache.retrieve` span is also filed as `cache.retrieve_miss` when it
    called the slow tier and as `cache.retrieve_hit` when it did not.
    """

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_of: dict[str, list[float]] = defaultdict(list)
        self.layer_self: dict[str, float] = defaultdict(float)

    def add(self, spans: list[list]) -> "SpanStats":
        covered = [0.0] * len(spans)
        fetched = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
                fetched[parent] |= name == "slow.fetch"
        for i, (name, start, end, _, _) in enumerate(spans):
            duration = end - start
            self.durations[name].append(duration)
            self.self_of[name].append(duration - covered[i])
            self.layer_self[name.split(".", 1)[0]] += duration - covered[i]
            if name == "cache.retrieve":
                kind = "miss" if fetched[i] else "hit"
                self.durations[f"cache.retrieve_{kind}"].append(duration)
        return self
