"""Run the factcache command line with spans around its calls into each
layer, then write the spans out.

    python perfbench/cli_traced.py SPANS_FILE [factcache arguments...]
"""

import sys
from pathlib import Path

import factcache.cache as cache
import factcache.cli as cli
import factcache.pipeline as pipeline
from factcache.models import MockTableModel

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    for owner in (cache, cli):  # cli imported read_dump by name
        tracer.patch(owner, "read_dump", "cache.read_dump")
    tracer.patch(cache, "load_state", "cache.load_state")
    tracer.patch(cache, "save_state", "cache.save_state")
    tracer.patch(cache.TieredFactStore, "retrieve", "cache.retrieve")
    tracer.patch(cache.TieredFactStore, "apply_update", "cache.apply_update")
    tracer.patch(cache.TieredFactStore, "prefetch_neighbors", "cache.prefetch")
    tracer.patch(cache.LocalDumpSource, "fetch_subject", "slow.fetch")
    tracer.patch(pipeline.Pipeline, "answer_traced", "pipeline.answer")
    tracer.patch(pipeline.Pipeline, "extract_entities", "pipeline.extract")
    tracer.patch(pipeline, "rank_triples", "ranking.rank")
    tracer.patch(pipeline, "assemble_prompt", "prompts.assemble")
    tracer.patch(MockTableModel, "generate", "models.generate")
    code = tracer.wrap(cli.main, "cli.main")(sys.argv[2:])
    tracer.write(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
