"""Workload runners: the program's set-up calls, the measured loop and the
output oracle for each workload, plus the traced variant of each.

Three workloads run in this process from one closed-loop client (the next
operation starts when the previous one returns); `cli_cold` starts one
`factcache` process at a time. Nothing here starts threads.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import factcache.pipeline as pipeline_module
from factcache.cache import (EditRequest, InMemorySlowSource,
                             RemoteSparqlSource, TieredFactStore, write_dump)
from factcache.dataset import (build_item, build_multihop, emit_benchmark,
                               load_benchmark, load_relation_templates,
                               record_line)
from factcache.harness import run_main_eval, run_multihop_scenario
from factcache.models import MockTableModel
from factcache.pipeline import AliasIndex, Pipeline, aliases_for_items
from factcache.sparqlio import TransportReply
from factcache.triples import FactTriple, Source, TaskKind

from spans import Tracer, read_spans
from workloads import (gen_cli_cold, gen_edit_churn, gen_eval_suite,
                       gen_qa_hot)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SNAPSHOT = datetime(2024, 1, 1, tzinfo=timezone.utc)

ROUND_TRIP_S = 0.001  # simulated slow-tier round trip in edit_churn
CAPACITY = 8000       # fast-table capacity in edit_churn, in facts
CHUNK = 50            # operations timed together for ops_per_s
SETUP_REPEATS = 5
# Median reference_work time right after a set-up on the nominal machine
# (2-CPU VM, CPython 3.11): the nominal value that scales `setup_s`.
SETUP_REFERENCE_S = 0.0015


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * q / 100), 1) - 1]


@functools.cache
def _reference_data() -> tuple[list, list[int]]:
    rng = random.Random(0)
    objects = [[i, str(i), (i, i)] for i in range(100_000)]
    return objects, [rng.randrange(len(objects)) for _ in range(1500)]


def reference_work() -> int:
    """A fixed piece of pure-Python work that touches nothing of factcache:
    scattered reads over a table of small objects, string building and a
    sort. Its time follows how fast the machine runs this kind of code at
    the moment (other tenants of a shared host move it by half or more)."""
    objects, picks = _reference_data()
    out = []
    for i in picks:
        o = objects[i]
        out.append((o[1] + "x", o[2][0] * 3))
    out.sort()
    return len(out)


def reference_samples(count: int) -> list[float]:
    clock, out = time.perf_counter, []
    for _ in range(count):
        start = clock()
        reference_work()
        out.append(clock() - start)
    return out


def reference_scale(samples: list[float], nominal_s: float) -> float:
    """Factor that takes a time measured in this run to the nominal machine
    speed: the nominal reference time over the median one the run measured.
    It is below 1 when the machine ran slower than nominal."""
    return nominal_s / statistics.median(samples)


def to_triple(fact) -> FactTriple:
    subject, rid, rlabel, obj, olabel, is_entity = fact
    return FactTriple(subject=subject, relation=rid, obj=obj,
                      relation_label=rlabel, object_label=olabel,
                      object_is_entity=is_entity, source=Source.WIKIDATA,
                      fetched_at=SNAPSHOT)


def timed(fn, sink: list):
    clock = time.perf_counter

    def call(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink[-1].append(clock() - start)

    return call


@dataclass
class Measurement:
    """What a run of passes saw. `failed` counts every wrong output and
    raised error; `gaps` is the part of it the oracle traced to a subject
    served from the fast table without one of its facts (the partial-subject
    read-through gap); anything else lands in `unexpected`. Timings are kept
    per pass, in the order of the pass."""

    attempted: int = 0
    failed: int = 0
    gaps: int = 0
    unexpected: list = field(default_factory=list)
    answer_s: list = field(default_factory=list)
    edit_s: list = field(default_factory=list)
    chunk_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    scaled: bool = False  # time reference_work after every chunk
    passes: int = 0
    ops: int = 0          # operations in one pass
    seconds: float = 0.0  # wall time of all passes
    extra: dict = field(default_factory=dict)

    def fail(self, detail: str, gap: bool = False, count: int = 1) -> None:
        self.failed += count
        if gap:
            self.gaps += count
        elif count:
            self.unexpected.append(detail)

    def end_chunk(self, seconds: float) -> None:
        """Record a chunk's time; in a scaled run, then time one call of
        reference_work, so the reference samples spread over the run."""
        self.chunk_s[-1].append(seconds)
        if self.scaled:
            self.reference_s += reference_samples(1)

    def new_pass(self) -> None:
        self.passes += 1
        for times in (self.answer_s, self.edit_s, self.chunk_s):
            times.append([])


class Workload:
    """Common parts: set-up calls are timed one by one into `setup_parts`,
    and traced when a tracer is set.

    A run is a number of passes over the same fixed work, each from the same
    starting state; `plan` turns a length in seconds into (passes, size) at
    a nominal speed, so a seed and a length always give the same work and
    the same counts."""

    tracer: Tracer | None = None
    # Median reference_work time, in seconds, between chunks of this
    # workload on the nominal machine (2-CPU VM, CPython 3.11), or None when
    # the workload's times are not scaled (see README).
    REFERENCE_S: float | None = None
    # end-to-end metrics left unscaled where REFERENCE_S is set
    UNSCALED: tuple[str, ...] = ()
    # (kind, spans) of each traced child process; only cli_cold has them
    child_spans = ()

    def __init__(self):
        self.setup_parts: dict[str, float] = {}

    def _call(self, name: str, fn, *args):
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, name)
        start = time.perf_counter()
        result = fn(*args)
        self.setup_parts[name] = time.perf_counter() - start
        return result

    def run(self, passes: int, size: int, tracer: Tracer | None = None
            ) -> Measurement:
        """`passes` passes of `size` units of work each; with a tracer, the
        measured part of each pass is traced."""
        m = Measurement(scaled=self.REFERENCE_S is not None)
        start = time.perf_counter()
        for _ in range(passes):
            m.new_pass()
            self._begin_pass(m)
            if tracer is not None:
                self._patch(tracer)
            try:
                m.ops = self._pass(m, size)
            finally:
                if tracer is not None:
                    self._unpatch(tracer)
        m.seconds = time.perf_counter() - start
        return m

    def teardown(self) -> None:
        """Drop what setup() built, so a repeated set-up starts clean."""

    def _begin_pass(self, m: Measurement) -> None:
        """Untimed work that brings the program to the pass's start state."""

    def _patch(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def _unpatch(self, tracer: Tracer) -> None:
        tracer.restore()

    def close(self) -> None:
        pass


def patch_pipeline(tracer: Tracer, pipeline: Pipeline) -> None:
    """Trace the public calls the pipeline makes into each layer."""
    store = pipeline.store
    tracer.patch(pipeline, "answer_traced", "pipeline.answer")
    tracer.patch(pipeline, "extract_entities", "pipeline.extract")
    tracer.patch(store, "retrieve", "cache.retrieve",
                 note=lambda entity: entity)
    tracer.patch(store, "apply_update", "cache.apply_update")
    tracer.patch(store, "prefetch_neighbors", "cache.prefetch")
    tracer.patch(store.slow, "fetch_subject", "slow.fetch",
                 note=lambda entity: entity)
    tracer.patch(pipeline_module, "rank_triples", "ranking.rank",
                 note=lambda query, candidates, *a, **k: len(candidates))
    tracer.patch(pipeline_module, "assemble_prompt", "prompts.assemble")
    tracer.patch(pipeline.model, "generate", "models.generate")


# --- in-process question answering: qa_hot and edit_churn -------------------

class AnswerWorkload(Workload):
    """A fixed sequence of reads (questions) and edits over one pipeline,
    taken in order, from its start again if a run needs more.

    The oracle's expected object for (subject, relation) is the last value
    this client wrote, otherwise the knowledge-base value.
    """

    RATE = 1000    # nominal operations per second, for plan()
    REFERENCE_S = 0.0028

    def __init__(self, data: dict, model_factory=MockTableModel):
        super().__init__()
        self.model_factory = model_factory
        self.triples = [to_triple(f) for f in data["facts"]]
        self.kb = {(f[0], f[1]): f[4] for f in data["facts"]}
        self.relations_of: dict[str, list[str]] = {}
        for f in data["facts"]:
            self.relations_of.setdefault(f[0], []).append(f[1])
        self.ops = data["ops"]
        self.written: dict[tuple[str, str], str] = {}
        self.position = 0
        self.pipeline: Pipeline | None = None

    def plan(self, seconds: float) -> tuple[int, int]:
        return 1, max(1, round(self.RATE * seconds / CHUNK)) * CHUNK

    def _pass(self, m: Measurement, size: int) -> int:
        before = self.pipeline.store.stats.snapshot()
        clock = time.perf_counter
        for _ in range(size // CHUNK):
            start = clock()
            for _ in range(CHUNK):
                self._step(m)
            m.end_chunk(clock() - start)
        after = self.pipeline.store.stats.snapshot()
        m.extra["stats"] = {k: after[k] - before[k] for k in after}
        return size

    def _step(self, m: Measurement, timing: bool = True) -> None:
        op = self.ops[self.position % len(self.ops)]
        self.position += 1
        m.attempted += 1
        store = self.pipeline.store
        clock = time.perf_counter
        if op[0] == "edit":
            _, subject, relation, relation_label, value = op
            edit = EditRequest(subject=subject, relation=relation,
                               new_object=value, subject_label=subject,
                               relation_label=relation_label,
                               object_label=value, object_is_entity=False)
            start = clock()
            try:
                store.apply_update(edit)
            except Exception as exc:  # counted, never fatal to the run
                m.fail(f"edit {subject}/{relation}: {exc!r}")
                return
            finally:
                if timing:
                    m.edit_s[-1].append(clock() - start)
            self.written[(subject, relation)] = value
            stored = store.get(subject, relation)
            if stored is None or stored.obj != value:
                m.fail(f"edit {subject}/{relation} not stored")
            return
        _, subject, relation, task, text = op
        expected = self.written.get((subject, relation),
                                    self.kb[(subject, relation)])
        start = clock()
        try:
            answer = self.pipeline.answer(text, TaskKind(task))
        except Exception as exc:  # counted, never fatal to the run
            m.fail(f"{text!r}: {exc!r}")
            return
        finally:
            if timing:
                m.answer_s[-1].append(clock() - start)
        if answer.text != expected:
            partial = store.get(subject, relation) is None and any(
                store.get(subject, r) is not None
                for r in self.relations_of[subject])
            m.fail(f"{text!r}: got {answer.text!r}, expected {expected!r}",
                   gap=partial)

    def teardown(self) -> None:
        self.pipeline = None

    def _patch(self, tracer: Tracer) -> None:
        patch_pipeline(tracer, self.pipeline)


class QaHot(AnswerWorkload):
    """Questions in Zipf order over a store bulk-loaded during set-up."""

    name = "qa_hot"
    RATE = 1300
    # The slowest answers rank the wide subjects: compute over a small
    # working set, whose speed did not follow the reference (README).
    UNSCALED = ("answer_p99_us",)

    def __init__(self, seed: int, model_factory=MockTableModel, **sizes):
        data = gen_qa_hot(seed, **sizes)
        super().__init__(data, model_factory)
        self.wide = set(data["wide"])

    def setup(self) -> None:
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=1)
        self._call("cache.bulk_load", store.bulk_load, self.triples)
        self.pipeline = Pipeline(store=store,
                                 aliases=AliasIndex.from_triples(self.triples),
                                 model=self.model_factory())

    def _begin_pass(self, m: Measurement) -> None:
        self.position = 0

    def _pass(self, m: Measurement, size: int) -> int:
        size = super()._pass(m, size)
        asked = [self.ops[i % len(self.ops)][1] for i in range(size)]
        m.extra["wide_answer_share"] = (
            sum(s in self.wide for s in asked) / len(asked))
        return size


class SparqlFixture:
    """In-process SPARQL transport: serves prebuilt results documents for
    the synthetic knowledge base after a fixed simulated round trip.
    Nothing goes over a network."""

    SUBJECT = re.compile(r"wd:(\S+)")

    def __init__(self, facts, round_trip_s: float):
        by_subject: dict[str, list] = {}
        for subject, rid, rlabel, obj, olabel, is_entity in facts:
            by_subject.setdefault(subject, []).append({
                "relation": {"type": "uri", "value":
                             f"http://www.wikidata.org/prop/direct/{rid}"},
                "relationLabel": {"type": "literal", "value": rlabel},
                "object": ({"type": "uri", "value":
                            f"http://www.wikidata.org/entity/{obj}"}
                           if is_entity else {"type": "literal", "value": obj}),
                "objectLabel": {"type": "literal", "value": olabel},
            })
        head = {"vars": ["relation", "relationLabel", "object", "objectLabel"]}
        self.bodies = {s: json.dumps({"head": head,
                                      "results": {"bindings": rows}})
                       for s, rows in by_subject.items()}
        self.empty = json.dumps({"head": head, "results": {"bindings": []}})
        self.round_trip_s = round_trip_s

    def wait(self) -> None:
        if self.round_trip_s:
            time.sleep(self.round_trip_s)

    def __call__(self, url, params, headers) -> TransportReply:
        subject = self.SUBJECT.search(params["query"]).group(1)
        self.wait()
        return TransportReply(status=200,
                              text=self.bodies.get(subject, self.empty))


class EditChurn(AnswerWorkload):
    """A pass starts from an empty store and runs the operation sequence
    from its start: untimed and with no simulated round trip until the store
    is full and WARM_OPS operations more, then measured. The store's
    policies are deterministic, so a pass is the same work on every run."""

    name = "edit_churn"
    RATE = 300
    WARM_OPS = 1000  # untimed operations after the store is first full

    def __init__(self, seed: int, model_factory=MockTableModel,
                 capacity: int = CAPACITY, round_trip_s: float = ROUND_TRIP_S,
                 **sizes):
        data = gen_edit_churn(seed, **sizes)
        super().__init__(data, model_factory)
        self.transport = SparqlFixture(data["facts"], round_trip_s)
        self.round_trip_s = round_trip_s
        self.capacity = capacity
        self.aliases: AliasIndex | None = None

    def _fresh_pipeline(self) -> None:
        slow = RemoteSparqlSource("http://kb.invalid/sparql",
                                  transport=self.transport)
        store = TieredFactStore(slow=slow, capacity=self.capacity,
                                prefetch_depth=1)
        self.pipeline = Pipeline(store=store, aliases=self.aliases,
                                 model=self.model_factory())

    def teardown(self) -> None:
        self.pipeline = self.aliases = None

    def setup(self) -> None:
        self.aliases = AliasIndex.from_triples(self.triples)
        self._fresh_pipeline()

    def _begin_pass(self, m: Measurement) -> None:
        self._fresh_pipeline()
        self.position = 0
        self.written = {}
        self.transport.round_trip_s = 0.0
        try:
            while len(self.pipeline.store) < self.capacity:
                self._step(m, timing=False)
            for _ in range(self.WARM_OPS):
                self._step(m, timing=False)
        finally:
            self.transport.round_trip_s = self.round_trip_s
        m.extra["warm_up_ops"] = self.position

    def _patch(self, tracer: Tracer) -> None:
        tracer.patch(self.transport, "wait", "net.wait")
        super()._patch(tracer)


# --- CLI processes: cli_cold -------------------------------------------------

class CliCold(Workload):
    """Cycles of `factcache query`, `factcache edit` and a query about the
    edited fact, each cycle in a fresh directory with a fresh config and
    state file, over one dump written during set-up; each process is its
    own chunk."""

    name = "cli_cold"
    CYCLE_S = 3.3  # nominal seconds per cycle, for plan()

    def __init__(self, seed: int, **sizes):
        super().__init__()
        data = gen_cli_cold(seed, **sizes)
        self.triples = [to_triple(f) for f in data["facts"]]
        self.kb = {(f[0], f[1]): f[4] for f in data["facts"]}
        self.cycles = data["cycles"]
        self.runs = 0
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli_cold-", dir=WORK))
        self.dump = self.work / "dump.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced = False
        self.child_spans = []

    def plan(self, seconds: float) -> tuple[int, int]:
        return 1, max(2, round(seconds / self.CYCLE_S))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self) -> None:
        self._call("cache.write_dump", write_dump, self.dump, self.triples,
                   SNAPSHOT)

    def _spawn(self, m: Measurement, cwd: Path, args: list[str], kind: str
               ) -> tuple[float, int, str, str]:
        spans = cwd / f"spans-{kind}.jsonl"
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans)]
        else:
            cmd = [sys.executable, "-m", "factcache.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + ["--config", "factcache.json", *args],
                              cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=170)
        elapsed = time.perf_counter() - start
        m.end_chunk(elapsed)
        m.attempted += 1
        if self.traced and spans.exists():
            self.child_spans.append((kind, read_spans(spans)))
            spans.unlink()
        return (elapsed, proc.returncode, proc.stdout.strip(),
                proc.stderr.strip()[-300:])

    def _query(self, m, cwd, op, expected):
        _, subject, relation, task, text = op
        elapsed, code, out, err = self._spawn(
            m, cwd, ["query", text, "--task", task], "query")
        m.answer_s[-1].append(elapsed)
        if self.traced and (cwd / "state.json").exists():
            m.extra.setdefault("state_bytes", []).append(
                (cwd / "state.json").stat().st_size)
        if code != 0 or out != expected:
            m.fail(f"query {text!r}: exit {code}, printed {out!r}, "
                   f"expected {expected!r} {err}")

    def _pass(self, m: Measurement, size: int) -> int:
        for n in range(size):
            first, edit, after = self.cycles[n % len(self.cycles)]
            self.runs += 1
            cwd = self.work / f"cycle-{self.runs}"
            cwd.mkdir()
            (cwd / "factcache.json").write_text(json.dumps({
                "store": {"state_path": "state.json", "prefetch_depth": 1},
                "slow_source": {"kind": "local_dump",
                                "locator": str(self.dump)},
                "model": {"kind": "mock"},
            }), encoding="utf-8")
            self._query(m, cwd, first, self.kb[(first[1], first[2])])
            _, subject, relation, relation_label, value = edit
            elapsed, code, out, err = self._spawn(m, cwd, [
                "edit", subject, relation, value, "--subject-label", subject,
                "--relation-label", relation_label, "--object-label", value,
                "--literal"], "edit")
            m.edit_s[-1].append(elapsed)
            if code != 0 or out != "INSERTED":
                m.fail(f"edit {subject}/{relation}: exit {code}, printed "
                       f"{out!r} {err}")
            self._query(m, cwd, after, value)
            shutil.rmtree(cwd)
        return 3 * size

    def _patch(self, tracer: Tracer) -> None:
        self.traced = True

    def _unpatch(self, tracer: Tracer) -> None:
        self.traced = False


# --- the evaluation workflow: eval_suite -------------------------------------

class EvalSuite(Workload):
    """Build, emit and reload a benchmark file during set-up; each pass runs
    the main evaluation and both multi-hop modes on a fresh store and checks
    EM 100, DD 0 and multi-hop EM 100. The two harness calls are the
    chunks."""

    name = "eval_suite"
    RATE = 1300  # nominal items per second, for plan()

    def __init__(self, seed: int, model_factory=MockTableModel, **sizes):
        super().__init__()
        self.data = gen_eval_suite(seed, **sizes)
        self.model_factory = model_factory
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="eval_suite-", dir=WORK))

    def plan(self, seconds: float) -> tuple[int, int]:
        items = len(self.data["single"]) + len(self.data["chains"])
        return max(2, round(self.RATE * seconds / items)), items

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self) -> None:
        templates = load_relation_templates()
        rng = random.Random(self.data["item_seed"])
        items = [build_item(to_triple(s["fact"]), templates[s["fact"][1]],
                            s["distractors"], to_triple(s["locality"]), rng)
                 for s in self.data["single"]]
        items += [build_multihop([to_triple(link) for link in chain],
                                 templates)
                  for chain in self.data["chains"]]
        path = self.work / "items.jsonl"
        self._call("dataset.emit", emit_benchmark, items, path)
        loaded = self._call("dataset.load", load_benchmark, path)
        self.round_trip_ok = ([record_line(i) for i in loaded]
                              == [record_line(i) for i in items])
        self.aliases = aliases_for_items(loaded)
        self.single = loaded[:len(self.data["single"])]
        self.chains = loaded[len(self.data["single"]):]

    def _pass(self, m: Measurement, size: int) -> int:
        store = TieredFactStore(slow=InMemorySlowSource(), prefetch_depth=0)
        pipeline = Pipeline(store=store, aliases=self.aliases,
                            model=self.model_factory())
        tracer = self.tracer
        if tracer is None:
            pipeline.answer_traced = timed(pipeline.answer_traced, m.answer_s)
            store.apply_update = timed(store.apply_update, m.edit_s)
            main_eval, multihop = run_main_eval, run_multihop_scenario
        else:
            patch_pipeline(tracer, pipeline)
            main_eval = tracer.wrap(run_main_eval, "harness.main_eval")
            multihop = tracer.wrap(run_multihop_scenario, "harness.multihop")
        clock = time.perf_counter
        start = clock()
        report = main_eval(self.single, pipeline)
        m.end_chunk(clock() - start)
        start = clock()
        chains = multihop(self.chains, pipeline)
        m.end_chunk(clock() - start)
        # answers scored: five tasks and a locality probe per item, and
        # each chain in both modes; EM and DD give how many were wrong
        n, c = len(self.single), len(self.chains)
        m.attempted += 6 * n + 2 * c
        for task, em in report.per_task_em.items():
            m.fail(f"{task} EM {em}", count=round(n * (100 - em) / 100))
        if report.dd != 0.0:
            m.fail(f"DD {report.dd}", count=max(1, round(n * report.dd / 100)))
        for mode, by_hops in chains.em.items():
            for hops, em in by_hops.items():
                m.fail(f"{mode} {hops}-hop EM {em}",
                       count=round(chains.counts[hops] * (100 - em) / 100))
        if not self.round_trip_ok:
            m.fail("benchmark file did not round-trip byte-identically")
        return n + c

    def _patch(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def _unpatch(self, tracer: Tracer) -> None:
        tracer.restore()
        self.tracer = None


WORKLOADS = {cls.name: cls for cls in (QaHot, EditChurn, CliCold, EvalSuite)}
