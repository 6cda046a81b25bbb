"""Evaluation metrics: exact match, drawdown, neighborhood KL divergence,
and the composite accuracy-vs-side-effect score.

EM normalization (lowercase, punctuation stripped, whitespace collapsed,
leading articles dropped) is a pinned convention; multiple-choice answers
may be given as the bare option letter and fact-check answers as any casing
of true/false.
"""

from __future__ import annotations

import math
import string
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import EmptySet, SupportMismatch
from .triples import TaskKind

_ARTICLES = ("a", "an", "the")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

NKL_EPSILON = 1e-9
NKL_REPORT_SCALE = 1e4  # tables report NKL with the 1e-4 multiplier dropped


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop leading
    articles."""
    tokens = text.lower().translate(_PUNCT_TABLE).split()
    while tokens and tokens[0] in _ARTICLES:
        tokens = tokens[1:]
    return " ".join(tokens)


def em_score(pairs: Sequence[tuple[str, str]],
             task: Optional[TaskKind] = None,
             option_maps: Optional[Sequence[Optional[Mapping[str, str]]]] = None
             ) -> float:
    """Percentage of (prediction, gold) pairs that match after normalization.

    For CHOICE, `option_maps` aligns a letter->option mapping with each pair
    so a bare letter answer counts when it names the gold option.
    """
    if not pairs:
        raise EmptySet("no predictions to score")
    if option_maps is not None and len(option_maps) != len(pairs):
        raise ValueError("option_maps must align with pairs")
    matches = 0
    for i, (prediction, gold) in enumerate(pairs):
        pred_norm = normalize_answer(prediction)
        if task is TaskKind.CHOICE and option_maps is not None:
            mapping = option_maps[i] or {}
            if pred_norm in mapping:
                pred_norm = normalize_answer(mapping[pred_norm])
        if pred_norm == normalize_answer(gold):
            matches += 1
    return 100.0 * matches / len(pairs)


def drawdown(base_locality_em: float, edited_locality_em: float) -> float:
    """Clamped locality degradation in percentage points."""
    for value in (base_locality_em, edited_locality_em):
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"EM out of [0, 100]: {value}")
    return max(0.0, base_locality_em - edited_locality_em)


def kl_divergence(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """KL(p || q) over a shared candidate set, with q smoothed by
    NKL_EPSILON and renormalized."""
    if p.keys() != q.keys():
        raise SupportMismatch(
            f"distributions differ in support: {sorted(p.keys() ^ q.keys())}")
    total = sum(q.values()) + NKL_EPSILON * len(q)
    divergence = 0.0
    for key, p_val in p.items():
        if p_val <= 0.0:
            continue
        q_val = (q[key] + NKL_EPSILON) / total
        divergence += p_val * math.log(p_val / q_val)
    return divergence


def nkl(base_dists: Sequence[Optional[Mapping[str, float]]],
        edited_dists: Sequence[Optional[Mapping[str, float]]]
        ) -> Optional[float]:
    """Mean KL(base || edited) over paired answer distributions.

    Returns None (unavailable) when any distribution is missing, as with
    API-only clients that expose no token probabilities.
    """
    if len(base_dists) != len(edited_dists):
        raise SupportMismatch("base and edited lists differ in length")
    if not base_dists:
        raise EmptySet("no distribution pairs")
    if any(d is None for d in base_dists) or any(d is None for d in edited_dists):
        return None
    total = 0.0
    for p, q in zip(base_dists, edited_dists):
        total += kl_divergence(p, q)
    return total / len(base_dists)


@dataclass(frozen=True)
class SUREParams:
    """Weights (a, b) and importance exponents (alpha, beta) for the
    composite score; all default to 1."""

    a: float = 1.0
    b: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        # each message starts with the weight's name, which a config error
        # prefixes with its section
        for name in ("a", "b", "alpha", "beta"):
            value = getattr(self, name)
            # a bool is not a number here, nor is an int past the float range
            if type(value) not in (int, float) or \
                    not abs(value) <= sys.float_info.max:
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
            if name in ("a", "b") and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
            if name in ("alpha", "beta") and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


DEFAULT_SURE = SUREParams()


def sure(em: float, dd: float, params: SUREParams = DEFAULT_SURE) -> float:
    """a * em^alpha - b * dd^beta: accuracy credit minus side-effect cost."""
    if em < 0 or dd < 0:
        raise ValueError("em and dd must be non-negative")
    return params.a * em ** params.alpha - params.b * dd ** params.beta
