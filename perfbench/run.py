"""factcache benchmark: one workload per run, checked against an oracle.

    python3 perfbench/run.py --workload qa_hot --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`). The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
report with every end-to-end metric that applies to the workload, by name
and unit, with sample counts. `--workload all` prints both lines for each
workload in turn.

`--seconds` sets the amount of work: each workload turns it into a fixed
number of operations at its nominal speed, so a seed and a length always
give the same work and the same counts, and a run takes about that long.

`--trace 0` reports the end-to-end metrics, with every time scaled to a
nominal machine speed by reference work timed in the same run (see
`bench.reference_scale`); the report gives the measured times as well.
`--trace 1` reports the per-layer metrics instead, unscaled: it runs every
workload for a quarter of the work with spans around the calls into each
layer (each per-layer metric comes from the workload that exercises that
layer), writes the spans to `.bench_work/traces/`, and compares the traced
and untraced time of the named workload for `trace.overhead_pct`.

The exit code is 0 when every output matched the oracle, except for wrong
answers the oracle traces to the partial-subject read-through gap, which
are counted in `failed` but do not fail the run; it is 1 when any other
output check failed and 2 when the checkout has no factcache sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanStats, Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "answer_p50_us": "us", "answer_p99_us": "us", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# Layers whose self time each workload reports, per operation.
SELF_LAYERS = {
    "qa_hot": ("pipeline", "cache", "ranking", "prompts", "models"),
    "edit_churn": ("pipeline", "cache", "slow", "ranking", "prompts",
                   "models"),
    "cli_cold": ("cli", "cache", "slow", "pipeline", "ranking", "prompts",
                 "models"),
    "eval_suite": ("harness", "pipeline", "cache", "ranking", "prompts",
                   "models"),
}

PER_LAYER = {
    # qa_hot
    "pipeline.extract_p50_us": "us", "pipeline.extract_p99_us": "us",
    "pipeline.entities_per_answer": "count",
    "cache.retrieve_hit_p50_us": "us", "cache.retrieve_hit_p99_us": "us",
    "cache.resident_facts": "count", "cache.bulk_load_s": "s",
    "ranking.rank_p50_us": "us", "ranking.rank_p99_us": "us",
    "ranking.candidates_per_answer_p50": "count",
    "ranking.candidates_per_answer_p99": "count",
    "prompts.assemble_p50_us": "us", "models.generate_p50_us": "us",
    # edit_churn
    "cache.retrieve_miss_p50_us": "us", "cache.retrieve_miss_p99_us": "us",
    "cache.apply_update_p50_us": "us", "cache.apply_update_p99_us": "us",
    "cache.hit_ratio": "ratio", "cache.lookups": "count",
    "cache.slow_fetches_per_kop": "count", "cache.prefetch_fetches_per_kop":
    "count", "cache.evictions_per_kop": "count",
    "cache.prefetch_used_ratio": "ratio", "cache.prefetched_subjects": "count",
    "slow.fetch_p50_us": "us", "slow.fetch_p99_us": "us",
    "slow.self_p50_us": "us", "slow.self_p99_us": "us",
    # cli_cold
    "cache.read_dump_ms": "ms", "cache.load_state_ms": "ms",
    "cache.save_state_ms": "ms", "cache.state_bytes": "B",
    "cli.import_ms": "ms", "cli.read_dump_calls_per_query": "count",
    # eval_suite
    "dataset.emit_ms": "ms", "dataset.load_ms": "ms",
    "harness.main_eval_s": "s", "harness.multihop_s": "s",
    "trace.overhead_pct": "%",
    **{f"{layer}.self_us_per_op.{w}": "us"
       for w, layers in SELF_LAYERS.items() for layer in layers},
}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def environment() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count()}


def run_plain(bench, name: str, seed: int, seconds: float):
    """Set up SETUP_REPEATS times, then run the workload's passes; returns
    (report, result) where result is the contract's last line.

    In the workloads that set REFERENCE_S, the times in `metrics` are
    scaled to the nominal machine speed (bench.reference_scale): `setup_s`
    by reference work timed after each set-up, the others, except those in
    the workload's UNSCALED, by reference work timed after each chunk of
    the run. The report also gives the measured times."""
    wl = bench.WORKLOADS[name](seed)
    try:
        setup_s, setup_references = [], []
        for _ in range(bench.SETUP_REPEATS):
            wl.teardown()
            gc.collect()
            start = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - start)
            if wl.REFERENCE_S is not None:
                setup_references += bench.reference_samples(10)
        passes, size = wl.plan(seconds)
        m = wl.run(passes, size)
    finally:
        wl.close()
    pct = bench.percentile
    scale = setup_scale = 1.0
    if wl.REFERENCE_S is not None:
        scale = bench.reference_scale(m.reference_s, wl.REFERENCE_S)
        setup_scale = bench.reference_scale(setup_references,
                                            bench.SETUP_REFERENCE_S)
    answers = [x for times in m.answer_s for x in times]
    measured = {
        "answer_p50_us": statistics.median(answers) * 1e6,
        "answer_p99_us": pct(answers, 99) * 1e6,
        "ops_per_s": m.ops * m.passes / sum(map(sum, m.chunk_s)),
        "setup_s": statistics.median(setup_s),
    }
    factor = {k: 1.0 if k in wl.UNSCALED else scale for k in measured}
    factor["setup_s"] = setup_scale
    metrics = {k: v / factor[k] if k == "ops_per_s" else v * factor[k]
               for k, v in measured.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    report = {"workload": name, "seed": seed, **environment(),
              **metrics, "reference_scale": scale,
              "setup_reference_scale": setup_scale,
              "measured": measured, "passes": m.passes,
              "operations_per_pass": m.ops, "answers": len(answers),
              "answers_beyond_p99": sum(
                  x > measured["answer_p99_us"] / 1e6 for x in answers),
              "measured_s": m.seconds,
              "failed_share": m.failed / m.attempted,
              "attempted": m.attempted, "failed": m.failed,
              "read_through_gap_failures": m.gaps,
              "unexpected_failures": m.unexpected[:5]}
    edits = [x for times in m.edit_s for x in times]
    if edits:
        report.update(edit_p50_us=statistics.median(edits) * 1e6 * scale,
                      edit_p99_us=pct(edits, 99) * 1e6 * scale,
                      edits=len(edits))
    if name == "cli_cold":
        report.update(cli_query_p50_ms=metrics["answer_p50_us"] / 1e3,
                      cli_edit_p50_ms=report["edit_p50_us"] / 1e3)
    report.update({k: v for k, v in m.extra.items() if k != "stats"})
    result = {"correct": not m.unexpected, "attempted": m.attempted,
              "failed": m.failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in metrics.items()}}
    return report, result


def prefetch_used(tracer) -> tuple[int, int]:
    """(prefetched subjects later requested, subjects prefetched)."""
    fetched = iter(tracer.notes["slow.fetch"])
    requested = iter(tracer.notes["cache.retrieve"])
    pending: set[str] = set()
    prefetched = used = 0
    for name, _, _, parent, _ in tracer.spans:
        if name == "slow.fetch":
            entity = next(fetched)
            if parent >= 0 and tracer.spans[parent][0] == "cache.prefetch":
                pending.add(entity)
                prefetched += 1
        elif name == "cache.retrieve":
            entity = next(requested)
            if entity in pending:
                pending.discard(entity)
                used += 1
    return used, prefetched


def layer_metrics(bench, wl, m, stats, tracer) -> dict:
    """The per-layer metrics that belong to workload `wl`."""
    pct, med = bench.percentile, statistics.median
    d = stats.durations
    us = lambda xs, q: pct(xs, q) * 1e6  # noqa: E731
    out = {f"{layer}.self_us_per_op.{wl.name}":
           stats.layer_self[layer] / m.ops * 1e6
           for layer in SELF_LAYERS[wl.name]}
    if wl.name == "qa_hot":
        candidates = tracer.notes["ranking.rank"]
        out.update({
            "pipeline.extract_p50_us": us(d["pipeline.extract"], 50),
            "pipeline.extract_p99_us": us(d["pipeline.extract"], 99),
            "pipeline.entities_per_answer":
                len(d["cache.retrieve"]) / len(d["pipeline.answer"]),
            "cache.retrieve_hit_p50_us": us(d["cache.retrieve_hit"], 50),
            "cache.retrieve_hit_p99_us": us(d["cache.retrieve_hit"], 99),
            "cache.resident_facts": len(wl.pipeline.store),
            "cache.bulk_load_s": wl.setup_parts["cache.bulk_load"],
            "ranking.rank_p50_us": us(d["ranking.rank"], 50),
            "ranking.rank_p99_us": us(d["ranking.rank"], 99),
            "ranking.candidates_per_answer_p50": pct(candidates, 50),
            "ranking.candidates_per_answer_p99": pct(candidates, 99),
            "prompts.assemble_p50_us": us(d["prompts.assemble"], 50),
            "models.generate_p50_us": us(d["models.generate"], 50),
        })
    elif wl.name == "edit_churn":
        delta = m.extra["stats"]
        lookups = delta["hits"] + delta["misses"]
        used, prefetched = prefetch_used(tracer)
        self_fetch = stats.self_of["slow.fetch"]
        out.update({
            "cache.retrieve_miss_p50_us": us(d["cache.retrieve_miss"], 50),
            "cache.retrieve_miss_p99_us": us(d["cache.retrieve_miss"], 99),
            "cache.apply_update_p50_us": us(d["cache.apply_update"], 50),
            "cache.apply_update_p99_us": us(d["cache.apply_update"], 99),
            "cache.hit_ratio": delta["hits"] / lookups,
            "cache.lookups": lookups,
            "cache.slow_fetches_per_kop": delta["slow_fetches"] / m.ops * 1e3,
            "cache.prefetch_fetches_per_kop":
                delta["prefetch_fetches"] / m.ops * 1e3,
            "cache.evictions_per_kop": delta["evictions"] / m.ops * 1e3,
            "cache.prefetch_used_ratio": used / prefetched,
            "cache.prefetched_subjects": prefetched,
            "slow.fetch_p50_us": us(d["slow.fetch"], 50),
            "slow.fetch_p99_us": us(d["slow.fetch"], 99),
            "slow.self_p50_us": us(self_fetch, 50),
            "slow.self_p99_us": us(self_fetch, 99),
        })
    elif wl.name == "cli_cold":
        queries = [spans for kind, spans in wl.child_spans
                   if kind == "query"]
        reads = sum(s[0] == "cache.read_dump" for q in queries for s in q)
        out.update({
            "cache.read_dump_ms": med(d["cache.read_dump"]) * 1e3,
            "cache.load_state_ms": med(d["cache.load_state"]) * 1e3,
            "cache.save_state_ms": med(d["cache.save_state"]) * 1e3,
            "cache.state_bytes": med(m.extra["state_bytes"]),
            "cli.import_ms": import_ms(wl),
            "cli.read_dump_calls_per_query": reads / len(queries),
        })
    else:
        out.update({
            "dataset.emit_ms": wl.setup_parts["dataset.emit"] * 1e3,
            "dataset.load_ms": wl.setup_parts["dataset.load"] * 1e3,
            "harness.main_eval_s": med(d["harness.main_eval"]),
            "harness.multihop_s": med(d["harness.multihop"]),
        })
    return out


def import_ms(wl, repeats: int = 5) -> float:
    """Median time of a process that only imports factcache.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import factcache.cli"],
                       env=wl.env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_traced(bench, name: str, seed: int, seconds: float):
    """One traced pass of every workload, each the size a plain run of a
    quarter of `seconds` uses; the named workload also runs an untraced
    pass before and after it, for trace.overhead_pct."""
    out_dir = bench.WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}-seed{seed}.jsonl"
    out.unlink(missing_ok=True)
    metrics: dict = {}
    attempted = failed = 0
    unexpected: list = []
    for wname, cls in bench.WORKLOADS.items():
        wl = cls(seed)
        parts = []
        try:
            wl.tracer = setup_tracer = Tracer()
            wl.setup()
            wl.tracer = None
            _, size = wl.plan(seconds / len(bench.WORKLOADS))
            if wname == name:
                parts.append(wl.run(1, size))
            tracer = Tracer()
            m = wl.run(1, size, tracer)
            parts.append(m)
            if wname == name:
                parts.append(wl.run(1, size))
                plain_s = statistics.fmean(
                    sum(p.chunk_s[0]) for p in (parts[0], parts[2]))
                metrics["trace.overhead_pct"] = 100 * (
                    sum(m.chunk_s[0]) / plain_s - 1)
            stats = SpanStats().add(tracer.spans)
            for kind, spans in wl.child_spans:
                stats.add(spans)
                write_spans(out, spans, tag=f"{wname}.{kind}")
            metrics.update(layer_metrics(bench, wl, m, stats, tracer))
            setup_tracer.write(out, tag=f"{wname}.setup")
            tracer.write(out, tag=wname)
        finally:
            wl.close()
        for part in parts:
            attempted += part.attempted
            failed += part.failed
            unexpected += part.unexpected
    report = {"workload": name, "seed": seed, **environment(),
              "spans": str(out.relative_to(ROOT)),
              "unexpected_failures": unexpected[:5]}
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in PER_LAYER.items()}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["qa_hot", "edit_churn", "cli_cold",
                                 "eval_suite", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "factcache" / "__init__.py").is_file():
        print(f"no factcache sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    names = list(bench.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    run = run_traced if args.trace else run_plain
    code = 0
    for name in names:
        report, result = run(bench, name, args.seed, args.seconds)
        print(json.dumps({"report": report}), flush=True)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
