"""factcache: a two-tier fact cache for knowledge editing.

Facts live as (subject, relation, object) triples in a fast local table
read-through to a slow external knowledge source. Edits replace objects in
place; queries are answered by extracting entities, retrieving and ranking
cached triples, and prompting a model with the evidence in context. An
evaluation harness scores edited behavior (EM, DD, NKL, and the composite
score) over single-hop and multi-hop benchmark items.
"""

__version__ = "0.1.0"  # set first: sparqlio names it in its User-Agent

from .cache import (CacheStats, EditRequest, InMemorySlowSource,
                    LocalDumpSource, RemoteSparqlSource, TieredFactStore,
                    UpdateOutcome, read_dump, write_dump)
from .dataset import (BenchmarkItem, MultiHopItem, build_item, build_multihop,
                      fill_template, load_benchmark, emit_benchmark)
from .errors import FactCacheError
from .harness import (EvalReport, MultihopReport, ScalePoint, run_main_eval,
                      run_multihop_scenario, run_scale_scenario,
                      run_transition_scenario)
from .kbclient import (EquivalentPropertyPair, KnowledgeBaseClient,
                       RawTripleRow, filter_ambiguous)
from .metrics import SUREParams, drawdown, em_score, nkl, normalize_answer, sure
from .models import HttpCompletionModel, MockTableModel, ModelAnswer
from .pipeline import (AliasIndex, ExtractorKind, MultihopMode, Pipeline,
                       aliases_for_items)
from .prompts import AssembledPrompt, assemble_prompt, task_instruction
from .ranking import RankedEvidence, rank_triples
from .scope import (ScopeClass, SimpleOracle, classify_scope, compute_ex,
                    frontier, join)
from .triples import FactTriple, RelationRef, Source, TaskKind, TripleSet


__all__ = [
    "AliasIndex", "AssembledPrompt", "BenchmarkItem", "CacheStats",
    "EditRequest", "EquivalentPropertyPair",
    "EvalReport", "ExtractorKind", "FactCacheError", "FactTriple",
    "HttpCompletionModel", "InMemorySlowSource", "KnowledgeBaseClient",
    "LocalDumpSource", "MockTableModel", "ModelAnswer", "MultiHopItem",
    "MultihopMode", "MultihopReport", "Pipeline",
    "RankedEvidence", "RawTripleRow", "RelationRef", "RemoteSparqlSource",
    "SUREParams", "ScalePoint", "ScopeClass", "SimpleOracle", "Source",
    "TaskKind", "TieredFactStore", "TripleSet", "UpdateOutcome",
    "aliases_for_items", "assemble_prompt", "build_item", "build_multihop",
    "classify_scope", "compute_ex", "drawdown", "em_score", "emit_benchmark",
    "fill_template", "filter_ambiguous", "frontier", "join", "load_benchmark",
    "nkl", "normalize_answer", "rank_triples", "read_dump", "run_main_eval",
    "run_multihop_scenario", "run_scale_scenario", "run_transition_scenario",
    "sure", "task_instruction", "write_dump",
]
