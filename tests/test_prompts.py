from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from factcache.errors import UnknownTask
from factcache.prompts import (AssembledPrompt, assemble_prompt,
                               build_extraction_prompt,
                               extraction_exemplars, task_instruction,
                               utilization_exemplars)
from factcache.ranking import EMPTY_EVIDENCE, RankedEvidence
from factcache.triples import TaskKind
from conftest import triple

PROMPT_ASSET_DIGESTS = {
    "entity_extraction_prompt.txt":
        "4a4d7206973d3dfee3eff731d559b06fd3b9a40cc7dd9eec5e8c644c40c51ae4",
    "knowledge_prompt.txt":
        "b5d1674d7b00ab462d669e56be9a2aa47f6c0cca75820020a34ce6dd940d1cc4",
    "task_instructions.txt":
        "2e62f296fff4b1690b32a244e7ea98c0f9e3fcb22c9eed7799ec09bb4b37b359",
}

HIROSHIMA = triple("Hiroshima Prefecture", "head of government",
                   "Hidehiko Yuzaki")


@pytest.mark.parametrize("name,digest", sorted(PROMPT_ASSET_DIGESTS.items()))
def test_prompt_assets_are_pinned(name, digest):
    data = (resources.files("factcache.assets") / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


class TestTaskInstructions:
    @pytest.mark.parametrize("task,expected", [
        (TaskKind.QA, "Answer the question with one phrase."),
        (TaskKind.COMPLETION, "Complete the sentence with a phrase."),
        (TaskKind.CLOZE, "Identify the content within the parentheses and "
                         "provide the missing information."),
        (TaskKind.CHOICE, "Choose the best answer."),
        (TaskKind.FACT_CHECK, "Determine the veracity of the provided "
                              "statement. Clearly output 'True' if the "
                              "statement is accurate and 'False' if it is "
                              "not."),
        (TaskKind.LOCALITY, "Answer the question with one phrase."),
    ])
    def test_instruction_texts(self, task, expected):
        assert task_instruction(task) == expected

    def test_multi_hop_tasks_reuse_the_qa_instruction(self):
        assert task_instruction(TaskKind.MULTI_HOP_QA) == \
            task_instruction(TaskKind.QA)
        assert task_instruction(TaskKind.DIALOGUE) == \
            task_instruction(TaskKind.QA)

    def test_unknown_task_rejected(self):
        with pytest.raises(UnknownTask):
            task_instruction(None)


class TestExemplars:
    def test_extraction_has_eight_pairs(self):
        pairs = extraction_exemplars()
        assert len(pairs) == 8
        assert pairs[0] == ("What is the inspiration behind the name of "
                            "Seine-Maritime?", "Seine-Maritime")
        assert pairs[1] == ("Who is the cast member of Casino Royale?",
                            "Casino Royale")

    def test_utilization_has_three_blocks(self):
        blocks = utilization_exemplars()
        assert len(blocks) == 3
        assert blocks[0] == (
            "(Hiroshima Prefecture, head of government, Hidehiko Yuzaki)\n"
            "Q: Who is the leader of the government in Hiroshima Prefecture?\n"
            "A: Hidehiko Yuzaki.")
        assert blocks[1].startswith("(Naples, head of government, "
                                    "Gaetano Manfredi)")

    def test_extraction_prompt_ends_with_the_input(self):
        prompt = build_extraction_prompt("Who leads Naples?")
        assert prompt.endswith("\nWho leads Naples?")
        assert prompt.startswith("Given a sentence, identify and extract")


class TestAssemblePrompt:
    def test_layout_and_exemplar_block(self):
        evidence = RankedEvidence(triples=((HIROSHIMA, 1.0),), k=1)
        query = ("Who is the leader of the government in "
                 "Hiroshima Prefecture?")
        prompt = assemble_prompt(TaskKind.QA, evidence, query)
        assert prompt == AssembledPrompt(TaskKind.QA, query, (HIROSHIMA,))
        rendered = prompt.render()
        assert rendered.startswith("Answer the question with one phrase.\n")
        assert ("(Hiroshima Prefecture, head of government, Hidehiko Yuzaki)"
                in rendered)
        assert rendered.endswith(
            "Q: Who is the leader of the government in Hiroshima Prefecture?"
            "\nA: ")
        # evidence precedes the query
        assert rendered.index(HIROSHIMA.render()) < rendered.index("Q: Who")

    def test_empty_evidence_has_no_triple_lines(self):
        prompt = assemble_prompt(TaskKind.QA, EMPTY_EVIDENCE,
                                 "Who leads Naples?")
        rendered = prompt.render()
        last_exemplar_line = "A: Stockholm."
        exemplar_end = rendered.rindex(last_exemplar_line)
        tail = rendered[exemplar_end + len(last_exemplar_line):]
        assert tail == "\n\nQ: Who leads Naples?\nA: "
        assert prompt.evidence == ()

    def test_choice_instruction(self):
        prompt = assemble_prompt(TaskKind.CHOICE, EMPTY_EVIDENCE, "Pick one")
        assert prompt.task is TaskKind.CHOICE
        assert prompt.render().startswith("Choose the best answer.\n")

    def test_render_is_deterministic(self):
        evidence = RankedEvidence(triples=((HIROSHIMA, 0.7),), k=1)
        a = assemble_prompt(TaskKind.QA, evidence, "q").render()
        b = assemble_prompt(TaskKind.QA, evidence, "q").render()
        assert a == b

    def test_prompt_is_immutable_value(self):
        prompt = assemble_prompt(TaskKind.QA, EMPTY_EVIDENCE, "q")
        with pytest.raises(AttributeError):
            prompt.query = "other"
