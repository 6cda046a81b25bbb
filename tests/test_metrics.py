from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcache.errors import EmptySet, SupportMismatch
from factcache.metrics import (SUREParams, drawdown, em_score, kl_divergence,
                               nkl, normalize_answer, sure)


class TestNormalization:
    def test_lowercase_punctuation_articles(self):
        assert normalize_answer("the Paul Ten Haken.") == "paul ten haken"

    def test_whitespace_collapse(self):
        assert normalize_answer("  Paul\t Ten   Haken ") == "paul ten haken"

    def test_repeated_leading_articles(self):
        assert normalize_answer("The a an answer") == "answer"

    def test_interior_articles_survive(self):
        assert normalize_answer("head of the government") == \
            "head of the government"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1,
                   max_size=16))
    @settings(max_examples=50)
    def test_case_and_punctuation_invariance(self, text):
        decorated = "the " + text.upper() + "..."
        assert normalize_answer(decorated) == normalize_answer(text)


class TestEmScore:
    def test_identity_match(self):
        assert em_score([("Paul Ten Haken", "Paul Ten Haken")]) == 100.0

    def test_normalization_equivalence(self):
        assert em_score([("the Paul Ten Haken.", "Paul Ten Haken")]) == 100.0

    def test_mismatch(self):
        assert em_score([("Lothar von Trotha", "Paul Ten Haken")]) == 0.0

    def test_mixed_batch_percentage(self):
        pairs = [("a", "a"), ("b", "x"), ("c", "c"), ("d", "y")]
        assert em_score(pairs) == 50.0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            em_score([])

    def test_fact_check_is_case_insensitive(self):
        assert em_score([("TRUE", "True")]) == 100.0
        assert em_score([("false.", "False")]) == 100.0
        assert em_score([("True", "False")]) == 0.0


class TestDrawdown:
    def test_degradation(self):
        assert drawdown(50, 40) == 10

    def test_improvement_clamps_to_zero(self):
        assert drawdown(50, 60) == 0

    def test_fixed_point(self):
        assert drawdown(46.16, 46.16) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            drawdown(101, 0)

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_never_negative(self, base, edited):
        assert drawdown(base, edited) >= 0
        if edited >= base:
            assert drawdown(base, edited) == 0


class TestNkl:
    def test_identical_distributions_are_zero(self):
        d = {"a": 0.25, "b": 0.75}
        assert nkl([d, d], [d, d]) == pytest.approx(0.0, abs=1e-8)

    def test_closed_form_ln2(self):
        p = {"a": 1.0, "b": 0.0}
        q = {"a": 0.5, "b": 0.5}
        assert nkl([p], [q]) == pytest.approx(math.log(2), abs=1e-6)

    def test_unavailable_without_distributions(self):
        assert nkl([None], [None]) is None
        assert nkl([{"a": 1.0}], [None]) is None

    def test_support_mismatch_rejected(self):
        with pytest.raises(SupportMismatch):
            nkl([{"a": 1.0}], [{"b": 1.0}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SupportMismatch):
            nkl([{"a": 1.0}], [])

    def test_empty_pairs_rejected(self):
        with pytest.raises(EmptySet):
            nkl([], [])

    def test_mean_over_pairs(self):
        p = {"a": 1.0, "b": 0.0}
        q = {"a": 0.5, "b": 0.5}
        same = {"a": 0.3, "b": 0.7}
        assert nkl([p, same], [q, same]) == \
            pytest.approx(math.log(2) / 2, abs=1e-6)

    def test_zero_iff_equal(self):
        p = {"a": 0.6, "b": 0.4}
        q = {"a": 0.61, "b": 0.39}
        assert nkl([p], [q]) > 1e-5
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-8)


TABLE_ROWS = [
    # (em, dd, published sure)
    (22.72, 9.97, 12.75),    # small model, fine-tuning
    (20.87, 0.00, 20.87),    # small model, locate-then-edit
    (30.90, 84.57, -53.67),  # small model, retrieval baseline
    (50.51, 13.19, 37.32),   # small model, in-context baseline
    (65.80, 0.00, 65.80),    # small model, cache method
    (26.59, 1.38, 25.21),
    (45.85, 0.00, 45.85),
    (55.74, 27.33, 28.42),
    (70.04, 11.42, 58.62),
    (73.93, 0.00, 73.93),
    (41.80, 7.49, 34.31),
    (48.39, 0.36, 48.03),
    (66.26, 29.88, 36.38),
    (91.42, 20.04, 71.38),
    (90.54, 0.00, 90.54),
    (73.75, 17.16, 56.58),
    (89.53, 13.08, 76.45),
    (91.76, 0.00, 91.76),
]


class TestSure:
    @pytest.mark.parametrize("em,dd,expected", TABLE_ROWS)
    def test_published_rows_reproduce(self, em, dd, expected):
        assert sure(em, dd) == pytest.approx(expected, abs=0.02)

    def test_zero_drawdown_identity(self):
        for em in (0, 30.9, 65.8, 100):
            assert sure(em, 0) == em

    def test_params_weight_the_terms(self):
        params = SUREParams(a=2, b=0.5, alpha=1, beta=2)
        assert sure(10, 4, params) == pytest.approx(2 * 10 - 0.5 * 16)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            sure(-1, 0)

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=100)
    def test_monotone_in_em_and_antitone_in_dd(self, em, dd, other):
        higher_em = max(em, other)
        assert sure(higher_em, dd) >= sure(min(em, other), dd)
        higher_dd = max(dd, other)
        assert sure(em, higher_dd) <= sure(em, min(dd, other))


class TestSureParams:
    def test_defaults_are_all_one(self):
        p = SUREParams()
        assert (p.a, p.b, p.alpha, p.beta) == (1, 1, 1, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SUREParams(a=math.inf)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            SUREParams(b=-1)

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            SUREParams(alpha=0)
