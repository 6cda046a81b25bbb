"""Command-line entry point: cache administration, editing, querying, data
fetching/building, and evaluation suites.

Machine-readable output goes to stdout, diagnostics to stderr; every
command is reproducible from the config file plus the seed (``--seed``
overrides the configured one). The fast table and its counters persist
between invocations in the configured state file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import cache as cachemod
from .cache import (InMemorySlowSource, LocalDumpSource, RemoteSparqlSource,
                    TieredFactStore, read_dump)
from .config import Config, DEFAULT_CONFIG_PATH, load_config
from .dataset import (build_benchmark, build_multihop_benchmark,
                      emit_benchmark, load_benchmark, load_relation_templates)
from .errors import (NAME, SURROGATE, TEXT, ConfigError, FactCacheError,
                     read_json_rows, read_text)
from .harness import (run_main_eval, run_multihop_scenario,
                      run_scale_scenario, run_transition_scenario)
from .kbclient import (DBPEDIA_ENDPOINT, WIKIDATA_ENDPOINT,
                       KnowledgeBaseClient, filter_ambiguous)
from .models import HttpCompletionModel, MockTableModel
from .pipeline import AliasIndex, ExtractorKind, Pipeline, item_facts
from .sparqlio import TransportReply
from .triples import EntityRef, FactTriple, TaskKind


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# --- runtime assembly --------------------------------------------------------

def _slow_source(cfg: Config):
    if cfg.slow_kind == "local_dump":
        return LocalDumpSource(cfg.slow_locator)
    if cfg.slow_kind == "remote_sparql":
        return RemoteSparqlSource(cfg.slow_locator)
    return InMemorySlowSource()


def _model(cfg: Config):
    if cfg.model_kind == "http":
        return HttpCompletionModel(
            endpoint=cfg.model_endpoint,
            api_key=os.environ.get(cfg.api_key_env),  # "" names no variable
            max_tokens=cfg.model_max_tokens,
        )
    return MockTableModel(priors=cfg.model_priors)


def _store(cfg: Config, fresh: bool = False) -> TieredFactStore:
    store = TieredFactStore(slow=_slow_source(cfg), capacity=cfg.capacity,
                            prefetch_depth=cfg.prefetch_depth)
    if not fresh and Path(cfg.state_path).exists():
        cachemod.load_state(store, cfg.state_path)
    return store


_ENTITY_RULES = {
    "id": (True, *NAME),
    "label": (False, *TEXT),
    "aliases": (False, "a list of non-empty strings",
                lambda v: type(v) is list and all(type(a) is str and a
                                                  for a in v)),
}


def load_entities(path: str) -> list[EntityRef]:
    """The entities file, in file order: a JSON list of objects, each with
    a non-empty string `id`, an optional `label` string and optional
    `aliases`, a list of non-empty strings; other keys are ignored. A file
    that breaks this raises ParseError naming the file, the entry and the
    key."""
    return [EntityRef(id=row["id"], label=row.get("label", ""),
                      aliases=frozenset(row.get("aliases", ())))
            for row in read_json_rows(path, _ENTITY_RULES, "entity")]


def _pipeline(cfg: Config, store: TieredFactStore) -> Pipeline:
    triples = list(store.fast_snapshot())
    if isinstance(store.slow, LocalDumpSource):
        triples += store.slow.triples  # already parsed, in dump-file order
    aliases = AliasIndex.from_triples(triples)
    refs = load_entities(cfg.entities_path) if cfg.entities_path else ()
    aliases.add_all([(surface, ref.id) for ref in refs
                     for surface in sorted(ref.surface_forms)])
    return Pipeline(
        store=store,
        aliases=aliases,
        model=_model(cfg),
        k=cfg.k,
        extractor=ExtractorKind(cfg.extractor),
    )


# --- commands -----------------------------------------------------------------

def cmd_edit(cfg: Config, args) -> int:
    if args.literal and (args.object_label or args.object) != args.object:
        raise ConfigError("a --literal is stored as its own --object-label")
    store = _store(cfg)
    before = store.get(args.subject, args.relation)
    outcome = store.inject_manual(FactTriple(
        subject=args.subject,
        relation=args.relation,
        obj=args.object,
        subject_label=args.subject_label or "",
        relation_label=args.relation_label or "",
        object_label=args.object_label or "",
        object_is_entity=not args.literal,
    ))
    unchanged = before is not None and before.obj == args.object
    print("REPLACED (no change)" if unchanged else outcome.name)
    cachemod.save_state(store, cfg.state_path)
    return 0


def cmd_query(cfg: Config, args) -> int:
    store = _store(cfg)
    pipeline = _pipeline(cfg, store)
    task = TaskKind(args.task)
    answer, trace = pipeline.answer_traced(args.question, task)
    # persist before printing; output pipes may close early
    cachemod.save_state(store, cfg.state_path)
    print(answer.text)
    if args.trace:
        _err(f"entities: {', '.join(trace.entities) or '(none)'}")
        _err(f"cache: {trace.cache_hits} hit(s), {trace.cache_misses} miss(es)")
        for triple, score in trace.evidence.triples:
            _err(f"evidence: {triple.render()} score={score:.4f}")
        _err("latency: " + " ".join(f"{stage}={seconds * 1e6:.0f}us"
                                    for stage, seconds
                                    in trace.latencies.items()))
        _err("prompt:")
        _err(trace.prompt.render())
    return 0


def cmd_cache(cfg: Config, args) -> int:
    store = _store(cfg)
    if args.action == "stats":
        print(" ".join(f"{k}={v}" for k, v in store.stats.snapshot().items()))
        return 0
    if args.action == "sync":
        changed = store.sync()
        print(f"{changed} changed")
        cachemod.save_state(store, cfg.state_path)
        return 0
    # load <dump>
    if not args.dump:
        _err("cache load requires a dump file path")
        return 2
    _, triples = read_dump(args.dump)
    added = store.bulk_load(triples)
    print(f"{added} triples")
    cachemod.save_state(store, cfg.state_path)
    return 0


def _fixture_transport(path: str):
    text = read_text(path)

    def transport(url, params, headers):
        return TransportReply(status=200, text=text)

    return transport


def cmd_data_fetch(cfg: Config, args) -> int:
    # a replayed fixture stands in for the endpoint, and errors name it
    endpoint = args.fixture or args.endpoint or (
        WIKIDATA_ENDPOINT if args.kb == "wikidata" else DBPEDIA_ENDPOINT)
    transport = _fixture_transport(args.fixture) if args.fixture else None
    client = KnowledgeBaseClient(kind=args.kb, endpoint=endpoint,
                                 transport=transport)
    if args.properties:
        for pair in client.fetch_equivalent_properties():
            print(json.dumps(asdict(pair), ensure_ascii=False))
        return 0
    if not args.relation:
        _err("data fetch requires --relation or --properties")
        return 2
    rows = client.fetch_triples(args.relation, limit=args.limit,
                                offset=args.offset,
                                relation_label=args.relation_label or "",
                                person_only=args.person_only)
    if args.filter_ambiguous:
        # a replayed fixture has no fetch time; a live fetch has one
        fetched_at = None if args.fixture else cachemod.utcnow()
        for t in filter_ambiguous(rows, fetched_at):
            print(json.dumps(cachemod.triple_to_row(t), ensure_ascii=False))
    else:
        for row in rows:
            print(json.dumps({
                "subject_uri": row.subject_uri,
                "subject_label": row.fact.subject_label,
                "object_uri": row.object_uri,
                "object_label": row.fact.object_label,
                "relation_count": row.relation_count,
            }, ensure_ascii=False))
    return 0


def cmd_data_build(cfg: Config, args) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    _, triples = read_dump(args.triples)
    templates = load_relation_templates(cfg.templates_path or None)
    if args.multihop:
        items: list = build_multihop_benchmark(triples, templates, args.hops)
    else:
        items = build_benchmark(triples, templates, random.Random(seed))
    if args.count is not None:
        items = items[:args.count]
    written = emit_benchmark(items, args.out)
    print(f"{written} items written to {args.out}")
    return 0


def cmd_data_validate(cfg: Config, args) -> int:
    path = args.items or cfg.benchmark_path
    if not path:
        _err("data validate requires --items or a configured benchmark_path")
        return 2
    items = load_benchmark(path, strict=not args.lenient)
    print(f"{len(items)} items OK")
    return 0


def cmd_eval(cfg: Config, args) -> int:
    store = _store(cfg, fresh=True)  # evaluation never touches saved state
    pipeline = _pipeline(cfg, store)
    fmt = args.format

    if args.suite in ("main", "rq1", "rq2"):
        path = args.items or (
            cfg.multihop_path if args.suite == "rq2" else cfg.benchmark_path)
        if not path:
            _err(f"eval {args.suite} requires --items or a configured path")
            return 2
        items = load_benchmark(path)
        # after the state, dump and entities labels, which keep their ids
        pipeline.aliases.add_facts(item_facts(items))

    if args.suite == "main":
        report = run_main_eval(items, pipeline, params=cfg.sure_params)
        print(report.to_json() if fmt == "json" else report.format_table())
        return 0
    if args.suite == "rq1":
        curve = run_transition_scenario(items, pipeline,
                                        edit_counts=args.counts)
        if fmt == "json":
            print(json.dumps({"em_by_edit_count": curve}, indent=2))
        else:
            for n, em in curve.items():
                print(f"edits={n} EM={em:.2f}")
        return 0
    if args.suite == "rq2":
        report = run_multihop_scenario(items, pipeline)
        print(report.to_json() if fmt == "json" else report.format_table())
        return 0
    # rq3
    points = run_scale_scenario(pipeline, sizes=args.sizes)
    if fmt == "json":
        print(json.dumps({str(size): asdict(p)
                          for size, p in points.items()}, indent=2))
    else:
        for size, p in points.items():
            print(f"size={size} EM={p.em:.2f} "
                  f"lookup={p.median_lookup_s * 1e3:.3f}ms "
                  f"answer={p.median_answer_s * 1e3:.3f}ms")
    return 0


# --- parser -------------------------------------------------------------------

def _text(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must be non-empty")
    return value


def _int_from(low: int):
    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {number}")
        return number
    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factcache",
        description="Fact-cache editing, querying, data, and evaluation tool")
    parser.add_argument("--config", default=None,
                        help=f"config file (default {DEFAULT_CONFIG_PATH})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_edit = sub.add_parser("edit", help="inject a manual fact update")
    p_edit.set_defaults(run=cmd_edit)
    p_edit.add_argument("subject", type=_text)
    p_edit.add_argument("relation", type=_text)
    p_edit.add_argument("object", type=_text)
    p_edit.add_argument("--subject-label", dest="subject_label")
    p_edit.add_argument("--relation-label", dest="relation_label")
    p_edit.add_argument("--object-label", dest="object_label")
    p_edit.add_argument("--literal", action="store_true",
                        help="object is a literal, not an entity id")

    p_query = sub.add_parser("query", help="answer a question via the cache")
    p_query.set_defaults(run=cmd_query)
    p_query.add_argument("question", type=_text)
    p_query.add_argument("--task", default="qa",
                         choices=[k.value for k in TaskKind])
    p_query.add_argument("--trace", action="store_true",
                         help="print extraction/retrieval details to stderr")

    p_cache = sub.add_parser("cache", help="cache administration")
    p_cache.set_defaults(run=cmd_cache)
    p_cache.add_argument("action", choices=["sync", "stats", "load"])
    p_cache.add_argument("dump", nargs="?", help="dump file for `load`")

    p_data = sub.add_parser("data", help="data collection and benchmarks")
    data_sub = p_data.add_subparsers(dest="data_command", required=True)

    p_fetch = data_sub.add_parser("fetch", help="fetch rows from a KB endpoint")
    p_fetch.set_defaults(run=cmd_data_fetch)
    p_fetch.add_argument("--kb", choices=["wikidata", "dbpedia"],
                         default="wikidata")
    p_fetch.add_argument("--endpoint", default=None)
    p_fetch.add_argument("--fixture", default=None,
                         help="recorded response file instead of live HTTP")
    p_fetch.add_argument("--properties", action="store_true",
                         help="fetch equivalent properties instead of triples")
    p_fetch.add_argument("--relation", default=None)
    p_fetch.add_argument("--relation-label", dest="relation_label")
    p_fetch.add_argument("--limit", type=int, default=100)
    p_fetch.add_argument("--offset", type=int, default=0)
    p_fetch.add_argument("--person-only", action="store_true")
    p_fetch.add_argument("--filter-ambiguous", action="store_true")

    p_build = data_sub.add_parser("build", help="build benchmark items")
    p_build.set_defaults(run=cmd_data_build)
    p_build.add_argument("--triples", required=True, help="triple dump file")
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--multihop", action="store_true")
    p_build.add_argument("--hops", type=int, choices=range(2, 6), default=2)
    p_build.add_argument("--count", type=_int_from(0), default=None)

    p_validate = data_sub.add_parser("validate", help="validate a benchmark file")
    p_validate.set_defaults(run=cmd_data_validate)
    p_validate.add_argument("--items", default=None)
    p_validate.add_argument("--lenient", action="store_true")

    p_eval = sub.add_parser("eval", help="run an evaluation suite")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("suite", choices=["main", "rq1", "rq2", "rq3"])
    p_eval.add_argument("--items", default=None)
    p_eval.add_argument("--format", choices=["json", "table"], default="table")
    p_eval.add_argument("--counts", type=_int_from(1), nargs="+",
                        default=[1, 2, 5, 10])
    p_eval.add_argument("--sizes", type=_int_from(1), nargs="+",
                        default=[1, 10, 100, 1000, 10_000, 100_000])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for arg in argv:  # bytes the system could not decode, kept as surrogates
        if SURROGATE.search(arg):
            _err(f"error: argument {arg!r} is not valid text")
            return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(load_config(args.config), args)
    except (FactCacheError, OSError) as exc:  # OSError: an output file
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
