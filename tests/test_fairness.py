"""Utility family, leximin order, and the Jain index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfleet.fairness import (
    EPSILON_RATE,
    LEXIMIN_ALPHA,
    alpha_fair_utility,
    is_leximin,
    jain_index,
    leximin_key,
    utility_key,
)

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
vectors = st.lists(rates, min_size=1, max_size=6).map(np.array)
positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=50.0), min_size=1, max_size=6
).map(np.array)


class TestAlphaFairUtility:
    def test_alpha_zero_is_total(self):
        assert alpha_fair_utility(np.array([1.0, 2.5, 0.0]), 0.0) == 3.5

    def test_alpha_one_is_log_sum(self):
        x = np.array([2.0, 4.0])
        assert alpha_fair_utility(x, 1.0) == pytest.approx(math.log(2) + math.log(4))

    def test_alpha_one_floors_zeros(self):
        assert alpha_fair_utility(np.array([0.0]), 1.0) == pytest.approx(
            math.log(EPSILON_RATE)
        )

    def test_alpha_two_closed_form(self):
        # sum x^-1 / -1 = -(1 + 1/2) for x = (1, 2)
        assert alpha_fair_utility(np.array([1.0, 2.0]), 2.0) == pytest.approx(-1.5)

    def test_alpha_half_closed_form(self):
        # sum x^0.5 / 0.5 = 2(2 + 3) for x = (4, 9)
        assert alpha_fair_utility(np.array([4.0, 9.0]), 0.5) == pytest.approx(10.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            alpha_fair_utility(np.ones(2), -0.5)

    def test_rejects_alpha_beyond_leximin(self):
        with pytest.raises(ValueError, match="leximin"):
            alpha_fair_utility(np.ones(2), LEXIMIN_ALPHA + 1)

    @given(x=positive_vectors, alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0]))
    @settings(max_examples=60)
    def test_monotone_in_each_coordinate(self, x, alpha):
        base = alpha_fair_utility(x, alpha)
        for i in range(len(x)):
            bumped = x.copy()
            bumped[i] += 0.5
            assert alpha_fair_utility(bumped, alpha) >= base

    @given(x=positive_vectors, alpha=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40)
    def test_permutation_invariant(self, x, alpha):
        shuffled = x[::-1].copy()
        assert alpha_fair_utility(shuffled, alpha) == pytest.approx(
            alpha_fair_utility(x, alpha)
        )


class TestLeximin:
    def test_threshold(self):
        assert not is_leximin(LEXIMIN_ALPHA)
        assert is_leximin(LEXIMIN_ALPHA + 1e-9)
        assert is_leximin(64.0)

    def test_key_sorts_ascending(self):
        assert leximin_key(np.array([3.0, 1.0, 2.0])) == (1.0, 2.0, 3.0)

    def test_worst_off_first(self):
        # (2, 2) beats (3, 1): the worst coordinate decides
        assert utility_key(np.array([2.0, 2.0]), 64.0) > utility_key(np.array([3.0, 1.0]), 64.0)

    def test_lexicographic_after_tie(self):
        assert utility_key(np.array([1.0, 5.0]), 64.0) > utility_key(np.array([1.0, 4.0]), 64.0)


class TestJain:
    def test_equal_vector_is_one(self):
        assert jain_index(np.array([3.0, 3.0, 3.0])) == pytest.approx(1.0)

    def test_all_zero_is_one(self):
        assert jain_index(np.zeros(4)) == 1.0
        assert jain_index(np.zeros(0)) == 1.0

    def test_single_nonzero_is_reciprocal_n(self):
        assert jain_index(np.array([1.0, 0.0])) == pytest.approx(0.5)
        assert jain_index(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_known_value(self):
        # (1+3)^2 / (2 * (1+9)) = 16/20
        assert jain_index(np.array([1.0, 3.0])) == pytest.approx(0.8)

    @given(x=positive_vectors)
    @settings(max_examples=60)
    def test_bounds(self, x):
        j = jain_index(x)
        assert 1.0 / len(x) - 1e-12 <= j <= 1.0 + 1e-12

    @given(x=positive_vectors, scale=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40)
    def test_scale_invariant(self, x, scale):
        assert jain_index(x * scale) == pytest.approx(jain_index(x))
