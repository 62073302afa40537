"""Domain types: context vectors, context rounds, batch boundaries."""

import dataclasses

import numpy as np
import pytest

from banditsim.core import Group, as_context, last_batch_end
from oracles import BOTTOM, TOP, ContextRound


class TestAsContext:
    def test_valid_vector_passes_through(self):
        np.testing.assert_array_equal(as_context([1, 2.5]), [1.0, 2.5])

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            as_context([1.0, 2.0], d=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_context([np.nan, 0.0])
        with pytest.raises(ValueError):
            as_context([np.inf, 0.0])

    def test_matrix_rejected(self):
        with pytest.raises(ValueError):
            as_context(np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            as_context([])


class TestContextRound:
    def test_a_round_pattern(self):
        r = ContextRound((TOP, TOP), Group.MAJORITY, 1)
        assert r.n_actions == 2
        assert r.dim == 2
        assert r.available_indices() == (0, 1)

    def test_c_round_pattern(self):
        r = ContextRound((BOTTOM, None), Group.MINORITY, 3)
        assert r.available_indices() == (0,)
        assert r.is_available(0)
        assert not r.is_available(1)

    def test_b_round_pattern(self):
        r = ContextRound((TOP, BOTTOM), Group.MINORITY, 2)
        assert r.available_indices() == (0, 1)

    def test_any_availability_pattern_accepted(self):
        r = ContextRound((np.array([0.3, 0.4]), None, np.array([0.1, 0.9])), Group.MAJORITY)
        assert r.available_indices() == (0, 2)

    def test_list_contexts_coerced_to_tuple(self):
        r = ContextRound([TOP, BOTTOM], Group.MINORITY, 1)
        assert isinstance(r.contexts, tuple)

    def test_all_unavailable_rejected(self):
        with pytest.raises(ValueError):
            ContextRound((None, None), Group.MAJORITY)

    def test_round_index_starts_at_one(self):
        with pytest.raises(ValueError):
            ContextRound((TOP, TOP), Group.MAJORITY, 0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ContextRound((TOP, np.array([1.0, 0.0, 0.0])), Group.MAJORITY)

    def test_is_available_out_of_range(self):
        r = ContextRound((TOP, None), Group.MAJORITY)
        assert not r.is_available(5)
        assert not r.is_available(-1)

    def test_dim_skips_leading_unavailable_slots(self):
        r = ContextRound((None, None, np.array([0.1, 0.2, 0.3])), Group.MINORITY)
        assert r.dim == 3
        assert r.n_actions == 3
        assert r.available_indices() == (2,)

    def test_no_slots_rejected(self):
        with pytest.raises(ValueError):
            ContextRound((), Group.MAJORITY)

    def test_non_finite_context_rejected(self):
        with pytest.raises(ValueError):
            ContextRound((TOP, np.array([np.nan, 0.0])), Group.MAJORITY)

    def test_rounds_are_immutable(self):
        r = ContextRound((TOP, BOTTOM), Group.MINORITY, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.round_index = 5


class TestLastBatchEnd:
    def test_mid_second_batch(self):
        assert last_batch_end(150, 100) == 100

    def test_last_round_of_first_batch(self):
        assert last_batch_end(100, 100) == 0

    def test_first_round_of_third_batch(self):
        assert last_batch_end(201, 100) == 200

    def test_boundary_properties(self):
        for t in range(1, 400):
            for y in (1, 3, 7, 100):
                t0 = last_batch_end(t, y)
                assert t0 < t
                assert t0 % y == 0

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 100])
    def test_frozen_data_is_the_completed_batches(self, batch_size):
        # Within a batch every round sees the same data; the data grows by one
        # whole batch at each batch start, and never lags by a batch or more.
        horizon = 5 * batch_size + 2
        ends = np.array([last_batch_end(t, batch_size) for t in range(1, horizon + 1)])
        starts = np.arange(horizon) % batch_size == 0
        steps = np.diff(ends, prepend=-batch_size)
        np.testing.assert_array_equal(steps[starts], batch_size)
        np.testing.assert_array_equal(steps[~starts], 0)
        assert np.all(np.arange(1, horizon + 1) - ends <= batch_size)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            last_batch_end(0, 10)
        with pytest.raises(ValueError):
            last_batch_end(5, 0)
