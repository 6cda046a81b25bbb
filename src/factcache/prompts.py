"""Prompt assets and prompt assembly.

The per-task instruction lines and the few-shot exemplar blocks live as
packaged text assets and are used verbatim. `AssembledPrompt.render` lays a
prompt out: the instruction line, the exemplar blocks, the serialized
evidence triples, then the query in ``Q: ... / A:`` framing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import UnknownTask, read_text
from .ranking import RankedEvidence
from .triples import FactTriple, TaskKind

# task kind -> key used in the instruction asset
_INSTRUCTION_KEYS = {
    TaskKind.QA: "qa",
    TaskKind.COMPLETION: "completion",
    TaskKind.CLOZE: "fill",
    TaskKind.CHOICE: "choose",
    TaskKind.FACT_CHECK: "fc",
    TaskKind.LOCALITY: "local",
    TaskKind.MULTI_HOP_QA: "qa",
    TaskKind.DIALOGUE: "qa",
}

_INSTRUCTION_LINE_RE = re.compile(r'^(\w+):\s*"(.*)"\s*$')


def _read_asset(name: str) -> str:
    return read_text(resources.files("factcache.assets") / name)


@lru_cache(maxsize=None)
def _instruction_table() -> dict[str, str]:
    table = {}
    for line in _read_asset("task_instructions.txt").splitlines():
        m = _INSTRUCTION_LINE_RE.match(line)
        if m:
            table[m.group(1)] = m.group(2)
    return table


def task_instruction(task: TaskKind) -> str:
    key = _INSTRUCTION_KEYS.get(task)
    table = _instruction_table()
    if key is None or key not in table:
        raise UnknownTask(f"no instruction registered for task {task!r}")
    return table[key]


@lru_cache(maxsize=None)
def utilization_exemplars() -> tuple[str, ...]:
    """Few-shot blocks for knowledge utilization (triple, Q, A)."""
    text = _read_asset("utilization_exemplars.txt").strip("\n")
    return tuple(block for block in text.split("\n\n") if block.strip())


@lru_cache(maxsize=None)
def extraction_exemplars() -> tuple[tuple[str, str], ...]:
    """(input, entity) pairs for the entity-extraction prompt."""
    text = _read_asset("extraction_exemplars.txt").strip("\n")
    pairs = []
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if len(lines) == 2:
            pairs.append((lines[0], lines[1]))
    return tuple(pairs)


@lru_cache(maxsize=None)
def extraction_instruction() -> str:
    """Instruction paragraph of the packaged entity-extraction prompt."""
    return _read_asset("entity_extraction_prompt.txt").split("\n\n")[0]


def build_extraction_prompt(text: str) -> str:
    parts = [extraction_instruction(), ""]
    for question, entity in extraction_exemplars():
        parts += [question, entity, ""]
    parts.append(text)
    return "\n".join(parts)


@dataclass(frozen=True, slots=True)
class AssembledPrompt:
    """A composed in-context prompt: the task, the query and the selected
    evidence triples. `render` lays them out as the text a model reads."""

    task: TaskKind
    query: str
    evidence: tuple[FactTriple, ...]

    def render(self) -> str:
        parts = [task_instruction(self.task), ""]
        for block in utilization_exemplars():
            parts += [block, ""]
        parts.extend(t.render() for t in self.evidence)
        parts.append(f"Q: {self.query}")
        parts.append("A: ")
        return "\n".join(parts)


def assemble_prompt(task: TaskKind, evidence: RankedEvidence,
                    query: str) -> AssembledPrompt:
    """The prompt for `query` over the selected evidence. Empty evidence
    yields a prompt with no triple lines, so the model answers unaided."""
    return AssembledPrompt(task, query, evidence.selected)
