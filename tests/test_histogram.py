"""Tests for trajectory histograms and the HD lower bound (Theorem 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HistogramSpace, Trajectory, edr, histogram_distance
from repro.core.histogram import HistogramMatcher

from .oracles import (
    flow_histogram_distance,
    flow_match_capacity,
    greedy_match_capacity_1d,
)


def trajectory_strategy(max_length=12, ndim=2, min_size=1):
    point = st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False) for _ in range(ndim)])
    return st.lists(point, min_size=min_size, max_size=max_length).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, ndim)
    )


class TestHistogramSpace:
    def test_bin_indices(self):
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        indices = space.bin_indices(np.array([[0.5, 1.5], [2.9, -0.1]]))
        assert indices.tolist() == [[0, 1], [2, -1]]

    def test_histogram_counts(self):
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        histogram = space.histogram(np.array([[0.1], [0.9], [1.5]]))
        assert histogram == {(0,): 2, (1,): 1}

    def test_points_below_origin_get_negative_bins(self):
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        assert space.histogram(np.array([[-0.5]])) == {(-1,): 1}

    def test_for_trajectories_anchors_at_minimum(self):
        trajectories = [Trajectory([[2.0, 3.0], [5.0, 1.0]])]
        space = HistogramSpace.for_trajectories(trajectories, bin_size=1.0)
        assert np.array_equal(space.origin, [2.0, 1.0])

    def test_for_trajectories_axis_projection(self):
        trajectories = [Trajectory([[2.0, 3.0], [5.0, 1.0]])]
        space = HistogramSpace.for_trajectories(trajectories, bin_size=1.0, axis=1)
        assert space.ndim == 1
        assert space.origin[0] == 1.0

    def test_arity_mismatch_raises(self):
        space = HistogramSpace(origin=[0.0, 0.0], bin_size=1.0)
        with pytest.raises(ValueError):
            space.bin_indices(np.zeros((2, 3)))

    def test_non_positive_bin_size_raises(self):
        with pytest.raises(ValueError):
            HistogramSpace(origin=[0.0], bin_size=0.0)

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            HistogramSpace.for_trajectories([], bin_size=1.0)


class TestHistogramDistance:
    def test_identical_histograms(self):
        assert histogram_distance({(0, 0): 3}, {(0, 0): 3}) == 0

    def test_pure_insertion(self):
        assert histogram_distance({(0,): 2}, {(0,): 3}) == 1

    def test_replacement_counts_once(self):
        # surplus in one far bin, deficit in another: one replace step.
        assert histogram_distance({(0,): 1}, {(9,): 1}) == 1

    def test_adjacent_bins_cancel(self):
        """The paper's boundary example: R=[0.9], S=[1.2], eps=1 — elements
        match under EDR, so the HD between their histograms must be 0."""
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        h_r = space.histogram(np.array([[0.9]]))
        h_s = space.histogram(np.array([[1.2]]))
        assert h_r != h_s  # different bins...
        assert histogram_distance(h_r, h_s) == 0  # ...yet free under EDR

    def test_non_adjacent_bins_do_not_cancel(self):
        assert histogram_distance({(0,): 1}, {(2,): 1}) == 1

    def test_diagonal_adjacency_in_two_dimensions(self):
        assert histogram_distance({(0, 0): 1}, {(1, 1): 1}) == 0

    def test_cancellation_is_maximal_not_order_dependent(self):
        """+1/-1/+1/-1 chain where a greedy pairing can strand units: the
        max-flow cancellation must find the perfect matching (HD = 0)."""
        first = {(0,): 1, (2,): 1}
        second = {(1,): 1, (3,): 1}
        assert histogram_distance(first, second) == 0

    def test_chained_matches_regression(self):
        """R's element in bin 0 matches S's in bin 1 while R's in bin 1
        matches S's in bin 2 — EDR can be 0, so HD must be 0 too.  The
        paper's net-first CompHisDist reports 1 here (bins 0 and 2 are
        not adjacent after netting); the flow form must not."""
        first = {(0,): 1, (1,): 1}
        second = {(1,): 1, (2,): 1}
        assert histogram_distance(first, second) == 0

    def test_chained_matches_regression_concrete_trajectories(self):
        """The same chain built from real coordinates: EDR is 0 while the
        two histograms share no multiset overlap pattern."""
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        r = np.array([[0.9], [1.9]])
        s = np.array([[1.1], [2.1]])
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(space.histogram(r), space.histogram(s)) == 0

    def test_unbalanced_surplus(self):
        assert histogram_distance({(0,): 5}, {(1,): 2}) == 3

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bins_a = {(int(b),): int(c) for b, c in
                      zip(rng.integers(0, 5, 4), rng.integers(1, 4, 4))}
            bins_b = {(int(b),): int(c) for b, c in
                      zip(rng.integers(0, 5, 4), rng.integers(1, 4, 4))}
            assert histogram_distance(bins_a, bins_b) == histogram_distance(
                bins_b, bins_a
            )


class TestTheorem6LowerBound:
    @settings(max_examples=200, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_hd_lower_bounds_edr(self, a, b, epsilon):
        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=epsilon)
        assert histogram_distance(
            space.histogram(a), space.histogram(b)
        ) <= edr(a, b, epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(min_value=2, max_value=4),
    )
    def test_corollary_1_larger_bins(self, a, b, epsilon, delta):
        """Bin size delta*eps still lower-bounds EDR at eps (via Theorem 7)."""
        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=delta * epsilon)
        assert histogram_distance(
            space.histogram(a), space.histogram(b)
        ) <= edr(a, b, epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.0, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    )
    def test_corollary_1_per_axis(self, a, b, epsilon, axis):
        """Per-axis 1-D histograms still lower-bound EDR (via Theorem 8)."""
        space = HistogramSpace(origin=[-4.0], bin_size=epsilon)
        h_a = space.histogram(a[:, axis : axis + 1])
        h_b = space.histogram(b[:, axis : axis + 1])
        assert histogram_distance(h_a, h_b) <= edr(a, b, epsilon)

    def test_coarser_bins_never_beat_fine_bins(self):
        """Wider bins merge more mass, so their HD can only drop."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=(10, 2))
            b = rng.normal(size=(12, 2))
            epsilon = 0.3
            fine = HistogramSpace(origin=[-5.0, -5.0], bin_size=epsilon)
            fine_hd = histogram_distance(fine.histogram(a), fine.histogram(b))
            assert fine_hd <= edr(a, b, epsilon)


class TestOneDimensionalFastPath:
    """On 1-D bins the matcher, the greedy oracle and the flow oracle agree."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(-6, 6), st.integers(1, 5), max_size=8
        ),
        st.dictionaries(
            st.integers(-6, 6), st.integers(1, 5), max_size=8
        ),
    )
    def test_greedy_equals_flow(self, surplus_raw, deficit_raw):
        surplus = {(k,): v for k, v in surplus_raw.items()}
        deficit = {(k,): v for k, v in deficit_raw.items()}
        # The flow oracle on the same bins lifted to 2-D on a line.
        surplus_2d = {(k, 0): v for (k,), v in surplus.items()}
        deficit_2d = {(k, 0): v for (k,), v in deficit.items()}
        greedy = greedy_match_capacity_1d(surplus, deficit)
        assert greedy == flow_match_capacity(surplus_2d, deficit_2d)
        assert HistogramMatcher(deficit).capacity(surplus) == greedy

    def test_chain_is_fully_matched(self):
        surplus, deficit = {(0,): 1, (1,): 1}, {(1,): 1, (2,): 1}
        assert greedy_match_capacity_1d(surplus, deficit) == 2
        assert HistogramMatcher(deficit).capacity(surplus) == 2
        assert HistogramMatcher(surplus).capacity(deficit) == 2

    def test_gap_blocks_matching(self):
        assert greedy_match_capacity_1d({(0,): 3}, {(5,): 3}) == 0
        assert HistogramMatcher({(5,): 3}).capacity({(0,): 3}) == 0


def histogram_strategy(ndim, max_count=5, max_size=10):
    """Sparse histograms over a small grid with negative bin indices."""
    key = st.tuples(*[st.integers(-4, 4) for _ in range(ndim)])
    return st.dictionaries(key, st.integers(1, max_count), max_size=max_size)


class TestHistogramMatcher:
    """The per-query matcher equals the Dinic oracle, bit for bit."""

    @pytest.mark.parametrize("ndim", (1, 2, 3))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_flow_oracle(self, ndim, data):
        query = data.draw(histogram_strategy(ndim))
        candidates = data.draw(
            st.lists(histogram_strategy(ndim), min_size=1, max_size=4)
        )
        # One matcher serves every candidate: no state leaks between calls.
        matcher = HistogramMatcher(query)
        for candidate in candidates:
            expected = flow_match_capacity(candidate, query)
            assert matcher.capacity(candidate) == expected
            assert matcher.distance(candidate) == flow_histogram_distance(
                query, candidate
            )
            assert histogram_distance(candidate, query) == histogram_distance(
                query, candidate
            )
            if ndim == 1:
                assert expected == greedy_match_capacity_1d(candidate, query)

    @settings(max_examples=100, deadline=None)
    @given(
        histogram_strategy(2, max_count=10**6),
        histogram_strategy(2, max_count=10**6),
    )
    def test_large_counts(self, first, second):
        assert HistogramMatcher(first).capacity(second) == flow_match_capacity(
            first, second
        )

    def test_empty_histograms(self):
        assert HistogramMatcher({}).capacity({(0, 0): 3}) == 0
        assert HistogramMatcher({(0, 0): 3}).capacity({}) == 0
        assert HistogramMatcher({}).distance({(0, 0): 3}) == 3
        assert HistogramMatcher({(0, 0): 3}).distance({}) == 3
        assert histogram_distance({}, {}) == 0

    def test_disjoint_histograms(self):
        matcher = HistogramMatcher({(0, 0): 2, (0, 1): 1})
        assert matcher.capacity({(5, 5): 4}) == 0
        assert matcher.distance({(5, 5): 4}) == 4

    def test_greedy_is_repaired_by_augmenting_paths(self):
        # Same-bin-first sends the candidate's (1,) unit to the query's
        # (1,); only rerouting it to (2,) frees (1,) for the (0,) unit.
        query = {(1,): 1, (2,): 1}
        candidate = {(1,): 1, (0,): 1}
        assert HistogramMatcher(query).capacity(candidate) == 2
        assert flow_match_capacity(candidate, query) == 2

    def test_chained_match_case(self):
        """TestPaperCompHisDist's R = [0.9, 1.9], S = [1.1, 2.1] chain."""
        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        h_r = space.histogram(np.array([[0.9], [1.9]]))
        h_s = space.histogram(np.array([[1.1], [2.1]]))
        assert HistogramMatcher(h_r).capacity(h_s) == 2
        assert HistogramMatcher(h_s).capacity(h_r) == 2
        assert flow_match_capacity(h_r, h_s) == 2
        assert HistogramMatcher(h_r).distance(h_s) == 0


class TestPaperCompHisDist:
    """The literal Figure 5 algorithm, kept to document its failure mode."""

    def test_agrees_on_simple_cases(self):
        from repro.core.histogram import comphisdist_paper

        assert comphisdist_paper({(0,): 3}, {(0,): 3}) == 0
        assert comphisdist_paper({(0,): 2}, {(0,): 3}) == 1
        assert comphisdist_paper({(0,): 1}, {(1,): 1}) == 0  # adjacent
        assert comphisdist_paper({(0,): 1}, {(9,): 1}) == 1  # far

    def test_chain_counterexample_overshoots_edr(self):
        """R = [0.9, 1.9], S = [1.1, 2.1], eps = 1: EDR is 0, the sound
        HD is 0, but the net-first algorithm reports 1 — the reason this
        library replaces it with the flow form."""
        from repro.core.histogram import comphisdist_paper

        space = HistogramSpace(origin=[0.0], bin_size=1.0)
        r = np.array([[0.9], [1.9]])
        s = np.array([[1.1], [2.1]])
        h_r, h_s = space.histogram(r), space.histogram(s)
        assert edr(r, s, 1.0) == 0.0
        assert histogram_distance(h_r, h_s) == 0
        assert comphisdist_paper(h_r, h_s) == 1  # the overshoot


class TestQuickBound:
    """The staged cheap bound must stay below the exact HD (and EDR)."""

    @settings(max_examples=200, deadline=None)
    @given(
        trajectory_strategy(),
        trajectory_strategy(),
        st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_quick_below_exact_and_edr(self, a, b, epsilon):
        from repro.core.histogram import histogram_distance_quick

        space = HistogramSpace(origin=[-4.0, -4.0], bin_size=epsilon)
        h_a, h_b = space.histogram(a), space.histogram(b)
        quick = histogram_distance_quick(h_a, h_b)
        exact = histogram_distance(h_a, h_b)
        assert quick <= exact
        assert quick <= edr(a, b, epsilon)

    def test_quick_equals_exact_when_nothing_matches(self):
        from repro.core.histogram import histogram_distance_quick

        first = {(0, 0): 4}
        second = {(9, 9): 2}
        assert histogram_distance_quick(first, second) == 4
        assert histogram_distance(first, second) == 4

    def test_quick_sees_neighbourhood_mass(self):
        from repro.core.histogram import histogram_distance_quick

        first = {(0,): 2}
        second = {(1,): 2}
        assert histogram_distance_quick(first, second) == 0
