"""Self-tests of the benchmark: deterministic inputs, an oracle that catches
wrong answers, exactly repeating counts, and the output contract.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import run
import workloads
from factcache.models import ModelAnswer
from spans import SpanStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

SMALL = {
    "qa_hot": {"subjects": 400, "wide": 8, "wide_facts": 40, "queries": 600},
    "edit_churn": {"subjects": 2000, "hot": 50, "ops": 6000},
    "cli_cold": {"rows": 300, "cycles": 3},
    "eval_suite": {"singles": 40, "chains": 20},
}


class WrongModel:
    supports_distribution = False

    def generate(self, prompt):
        return ModelAnswer(text="certainly not the answer")


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_byte_identical_per_seed(name):
    gen = workloads.GENERATORS[name]
    first = json.dumps(gen(7, **SMALL[name])).encode()
    assert json.dumps(gen(7, **SMALL[name])).encode() == first
    assert json.dumps(gen(8, **SMALL[name])).encode() != first


def test_oracle_counts_every_wrong_answer():
    wl = bench.QaHot(3, model_factory=WrongModel, **SMALL["qa_hot"])
    wl.setup()
    m = wl.run(1, bench.CHUNK)
    assert m.attempted == bench.CHUNK
    assert m.failed == m.attempted and m.gaps == 0
    assert m.unexpected


def test_oracle_fails_the_eval_suite_on_a_wrong_model():
    wl = bench.EvalSuite(3, model_factory=WrongModel, **SMALL["eval_suite"])
    try:
        wl.setup()
        m = wl.run(1, 0)
    finally:
        wl.close()
    assert m.failed / m.attempted > 0.5
    assert m.unexpected


def test_right_model_passes_every_check():
    wl = bench.EvalSuite(3, **SMALL["eval_suite"])
    try:
        wl.setup()
        m = wl.run(1, 0)
    finally:
        wl.close()
    assert (m.attempted, m.failed) == (6 * 40 + 2 * 20, 0)


def churn_counts(seed):
    wl = bench.EditChurn(seed, capacity=300, round_trip_s=0.0,
                         **SMALL["edit_churn"])
    wl.setup()
    m = wl.run(1, 20 * bench.CHUNK)
    return (wl.pipeline.store.stats.snapshot(), m.attempted, m.failed, m.gaps,
            m.unexpected)


def test_churn_counts_repeat_exactly_and_show_the_read_through_gap():
    stats, attempted, failed, gaps, unexpected = churn_counts(5)
    assert churn_counts(5) == (stats, attempted, failed, gaps, unexpected)
    assert stats["evictions"] > 0 and stats["prefetch_fetches"] > 0
    assert failed == gaps > 0, "the partial-subject gap should be counted"
    assert unexpected == []


def cli_read_dump_calls(seed):
    wl = bench.CliCold(seed, **SMALL["cli_cold"])
    try:
        wl.setup()
        m = wl.run(1, 1, tracer=Tracer())
        calls = [(kind, [s[0] for s in spans].count("cache.read_dump"))
                 for kind, spans in wl.child_spans]
    finally:
        wl.close()
    return calls, m.attempted, m.failed


def test_cli_counts_repeat_exactly():
    calls, attempted, failed = cli_read_dump_calls(2)
    assert (attempted, failed) == (3, 0)
    assert calls == [("query", 2), ("edit", 1), ("query", 2)]
    assert cli_read_dump_calls(2) == (calls, attempted, failed)


def test_self_time_subtracts_children():
    tracer = Tracer()
    child = tracer.wrap(lambda: time.sleep(0.02), "inner.call")
    outer = tracer.wrap(lambda: (time.sleep(0.01), child()), "outer.call")
    outer()
    stats = SpanStats().add(tracer.spans)
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 0
    assert stats.layer_self["outer"] == pytest.approx(0.01, abs=0.008)
    assert stats.layer_self["inner"] == pytest.approx(0.02, abs=0.008)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qa_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
