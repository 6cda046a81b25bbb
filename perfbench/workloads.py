"""Seeded input generators for the four benchmark workloads.

Every generator takes the seed as an argument and returns plain data
(tuples, lists and dicts of strings and numbers), so the same seed gives
byte-identical inputs and the program under test only ever sees what these
functions produce. The shape of each workload (sizes, where the wide or hot
subjects sit in the popularity order, the read/write share) is fixed; the
seed chooses labels, values and the order of operations.

A fact is the tuple (subject, relation_id, relation_label, object,
object_label, object_is_entity); subjects are their own labels.
"""

from __future__ import annotations

import bisect
import json
import random
from pathlib import Path

TEMPLATES_PATH = (Path(__file__).resolve().parent.parent
                  / "src" / "factcache" / "assets" / "relation_templates.json")

# Question templates the deterministic mock model cannot answer even with the
# right evidence, because the question shares no word with the relation label
# ("Where was X born?" vs "place of birth"). They are left out so that every
# wrong answer the oracle counts is the store's or the pipeline's doing.
UNANSWERABLE = {("P19", "qa"), ("P138", "completion"), ("P1830", "qa"),
                ("P1830", "completion"), ("P1830", "cloze")}
READ_TASKS = ("qa", "completion", "cloze")
# Relations whose first QA, completion, cloze and choice templates the mock
# answers, so a built benchmark item scores EM 100 on all five tasks and a
# chain of two scores EM 100 in both traversal modes.
EVAL_RELATIONS = ("P6", "P26", "P36", "P17", "P54", "P131")

ZIPF_S = 1.1


def load_relations() -> dict[str, dict]:
    """Relation id -> {"label", "templates": [(task, template), ...]}."""
    out = {}
    for row in json.loads(TEMPLATES_PATH.read_text(encoding="utf-8")):
        templates = [(task, tpl) for task in READ_TASKS for tpl in row[task]
                     if (row["id"], task) not in UNANSWERABLE]
        if templates:
            out[row["id"]] = {"label": row["label"], "templates": templates}
    return out


def zipf_cum_weights(n: int, s: float = ZIPF_S) -> list[float]:
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += rank ** -s
        cum.append(total)
    return cum


def zipf_draw(rng: random.Random, cum: list[float]) -> int:
    """0-based rank drawn with probability proportional to (rank+1)^-s."""
    return min(bisect.bisect(cum, rng.random() * cum[-1]), len(cum) - 1)


def spread_ranks(cum: list[float], count: int, share: float) -> list[int]:
    """`count` evenly spaced ranks whose popularity adds up as close to
    `share` as the choice of spacing and offset allows."""
    def mass(offset, step):
        ranks = range(offset, offset + step * count, step)
        return sum(cum[r] - (cum[r - 1] if r else 0.0) for r in ranks) / cum[-1]

    offset, step = min(((o, s) for s in range(1, len(cum) // count + 1)
                        for o in range(s)),
                       key=lambda os: abs(mass(*os) - share))
    return list(range(offset, offset + step * count, step))


def _labels(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{n}" for n in rng.sample(range(10 ** 6, 10 ** 7), count)]


def _narrow_facts(rng, subject, rank, relations, rel_ids, max_facts,
                  pick_entity):
    """1..max_facts facts; how many, which relations and which objects are
    entities (one in five) follow from the popularity rank, so every seed
    gives the popular subjects the same shape. Values come from the seed
    and entity objects from `pick_entity`."""
    facts = []
    for j in range(1 + rank % max_facts):
        rid = rel_ids[(3 * rank + j) % len(rel_ids)]
        if (rank + 2 * j) % 5 == 0:
            obj = pick_entity()
            while obj == subject:  # a self-reference would echo the subject
                obj = pick_entity()
            facts.append((subject, rid, relations[rid]["label"], obj, obj, True))
        else:
            value = f"v{rng.randrange(10 ** 7)}"
            facts.append((subject, rid, relations[rid]["label"], value, value,
                          False))
    return facts


def _read_op(rng, relations, subject, facts):
    """A question about one relation the subject has, in one of its
    answerable phrasings."""
    choices = [f for f in facts if f[1] in relations]
    fact = rng.choice(choices)
    task, template = rng.choice(relations[fact[1]]["templates"])
    return ("read", subject, fact[1], task, template.replace("{}", subject))


def gen_qa_hot(seed: int, subjects: int = 20_000, wide: int = 400,
               wide_facts: int = 300, max_narrow_facts: int = 4,
               wide_answer_share: float = 0.10, queries: int = 40_000) -> dict:
    """A warm, read-only store: narrow subjects with 1-4 facts plus `wide`
    subjects with `wide_facts` facts each, placed in the Zipf order so that
    about `wide_answer_share` of questions ask about one."""
    rng = random.Random(seed)
    relations = load_relations()
    rel_ids = sorted(relations)
    cum = zipf_cum_weights(subjects)
    wide_ranks = set(spread_ranks(cum, wide, wide_answer_share))
    by_rank = _labels(rng, "Q", subjects)
    popular = lambda: by_rank[zipf_draw(rng, cum)]  # noqa: E731
    facts_of: dict[str, list] = {}
    for rank, subject in enumerate(by_rank):
        if rank in wide_ranks:
            facts = [(subject, rid, relations[rid]["label"], f"v{i}{subject}",
                      f"v{i}{subject}", False) for i, rid in enumerate(rel_ids)]
            facts += [(subject, f"X{j}", f"attribute {j}", f"w{j}{subject}",
                       f"w{j}{subject}", False)
                      for j in range(wide_facts - len(facts))]
        else:
            facts = _narrow_facts(rng, subject, rank, relations, rel_ids,
                                  max_narrow_facts, popular)
        facts_of[subject] = facts
    ops = []
    for _ in range(queries):
        subject = by_rank[zipf_draw(rng, cum)]
        ops.append(_read_op(rng, relations, subject, facts_of[subject]))
    return {"facts": [f for s in by_rank for f in facts_of[s]], "ops": ops,
            "wide": sorted(by_rank[r] for r in wide_ranks)}


def gen_edit_churn(seed: int, subjects: int = 50_000, max_facts: int = 3,
                   hot: int = 500,
                   edit_share: float = 0.10, ops: int = 40_000) -> dict:
    """Narrow subjects (1-3 facts, a fifth of objects entities) read in Zipf
    order, with `edit_share` of operations rewriting facts of `hot` subjects
    spread evenly over the popularity order, most of them not resident."""
    rng = random.Random(seed)
    relations = load_relations()
    rel_ids = sorted(relations)
    cum = zipf_cum_weights(subjects)
    by_rank = _labels(rng, "Q", subjects)
    # entity objects name popular subjects more often, as in a real KB
    popular = lambda: by_rank[zipf_draw(rng, cum)]  # noqa: E731
    facts_of = {s: _narrow_facts(rng, s, rank, relations, rel_ids, max_facts,
                                 popular) for rank, s in enumerate(by_rank)}
    step = subjects // hot
    hot_subjects = [by_rank[r] for r in range(step // 2, subjects, step)][:hot]
    op_list = []
    for n in range(ops):
        if rng.random() < edit_share:
            subject = rng.choice(hot_subjects)
            fact = rng.choice(facts_of[subject])
            value = f"n{n}"
            op_list.append(("edit", subject, fact[1], fact[2], value))
        else:
            subject = by_rank[zipf_draw(rng, cum)]
            op_list.append(_read_op(rng, relations, subject, facts_of[subject]))
    return {"facts": [f for s in by_rank for f in facts_of[s]],
            "ops": op_list}


def gen_cli_cold(seed: int, rows: int = 30_000, cycles: int = 40) -> dict:
    """A dump of `rows` facts and `cycles` of (query, edit, query about the
    edited fact); each cycle starts from a fresh state file."""
    rng = random.Random(seed)
    relations = load_relations()
    rel_ids = sorted(relations)
    facts: list = []
    pool = _labels(rng, "Q", rows)
    for rank, subject in enumerate(pool):
        if len(facts) >= rows:
            break
        facts += _narrow_facts(rng, subject, rank, relations, rel_ids, 4,
                               lambda: rng.choice(pool))
    facts = facts[:rows]
    facts_of: dict[str, list] = {}
    for f in facts:
        facts_of.setdefault(f[0], []).append(f)
    names = sorted(facts_of)
    cycle_list = []
    for n in range(cycles):
        first = rng.choice(names)
        read = _read_op(rng, relations, first, facts_of[first])
        target = rng.choice(names)
        fact = rng.choice(facts_of[target])
        edit = ("edit", target, fact[1], fact[2], f"n{n}")
        task, template = rng.choice(relations[fact[1]]["templates"])
        after = ("read", target, fact[1], task, template.replace("{}", target))
        cycle_list.append((read, edit, after))
    return {"facts": facts, "cycles": cycle_list}


def gen_eval_suite(seed: int, singles: int = 1000, chains: int = 500) -> dict:
    """Single-hop facts with locality probes and distractors, and two-hop
    chains, over the relations the mock answers in every task format."""
    rng = random.Random(seed)
    relations = load_relations()
    names = iter(_labels(rng, "E", 6 * singles + 3 * chains))
    single = []
    for _ in range(singles):
        rid = rng.choice(EVAL_RELATIONS)
        label = relations[rid]["label"]
        subject, obj, loc_subject, loc_obj = (next(names) for _ in range(4))
        single.append({
            "fact": (subject, rid, label, obj, obj, False),
            "locality": (loc_subject, rid, label, loc_obj, loc_obj, False),
            "distractors": [next(names), None],
        })
    for item in single:
        # the second distractor is another item's answer, as in a real set
        other = rng.choice(single)["fact"][3]
        item["distractors"][1] = other if other != item["fact"][3] \
            else next(names)
    chain_list = []
    for _ in range(chains):
        r1, r2 = rng.choice(EVAL_RELATIONS), rng.choice(EVAL_RELATIONS)
        s1, e2, o3 = (next(names) for _ in range(3))
        chain_list.append([
            (s1, r1, relations[r1]["label"], e2, e2, True),
            (e2, r2, relations[r2]["label"], o3, o3, False),
        ])
    return {"single": single, "chains": chain_list,
            "item_seed": rng.randrange(2 ** 31)}


GENERATORS = {
    "qa_hot": gen_qa_hot,
    "edit_churn": gen_edit_churn,
    "cli_cold": gen_cli_cold,
    "eval_suite": gen_eval_suite,
}
