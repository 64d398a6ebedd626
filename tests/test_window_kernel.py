"""The bit-parallel window kernel is the row-DP oracle, byte for byte.

:func:`repro.edr_windows_many` prices every banded window of every
candidate in one Myers pass per start (query along the bits).  The float
row DP it replaced lives on as :func:`tests.oracles.rowdp_windows_many`;
here all five outputs — distances, starts, ends, evaluated, abandoned —
must equal the oracle's exactly, dtype included, and every engine path
that prices windows (serial, tiered, sharded) must return the same
answers and counters with the kernel monkeypatched back to the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ShardedDatabase, Trajectory, TrajectoryDatabase, subknn_search
from repro.core import sharding, subtrajectory
from repro.core.batch import warm_pruners
from repro.core.subtrajectory import edr_windows_many, resolve_window_range
from repro.service.pruning import build_pruners
from repro.storage import TieredDatabase, build_store

from .conftest import random_walk_trajectories
from .oracles import rowdp_windows_many, window_answers

pytestmark = pytest.mark.subtrajectory

QUERY_LENGTHS = (1, 2, 63, 64, 65, 130)


def assert_same_as_oracle(query, candidates, epsilon, lo, hi, bounds=None):
    got = edr_windows_many(query, candidates, epsilon, lo, hi, bounds=bounds)
    want = rowdp_windows_many(query, candidates, epsilon, lo, hi, bounds=bounds)
    names = ("distances", "starts", "ends", "evaluated", "abandoned")
    for name, mine, theirs in zip(names, got, want):
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), (name, mine, theirs)
    return got


def _points(rng, length, ndim, grid):
    """A random walk, or (``grid``) small integer coordinates: many ties."""
    if grid:
        return rng.integers(0, 3, size=(length, ndim)).astype(np.float64)
    return np.cumsum(rng.normal(size=(length, ndim)), axis=0)


@st.composite
def window_batches(draw, query_lengths=st.integers(1, 12)):
    """A query, a candidate batch, a band and a bound, from one seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ndim = draw(st.integers(1, 3))
    grid = draw(st.booleans())
    m = draw(query_lengths)
    lengths = draw(st.lists(st.integers(0, 40), max_size=5))
    lo = draw(st.integers(1, m + 6))
    hi = lo + draw(st.integers(0, 12))
    query = _points(rng, m, ndim, grid)
    candidates = [_points(rng, n, ndim, grid) for n in lengths]
    kind = draw(st.sampled_from(("none", "scalar", "per-candidate")))
    if kind == "scalar":
        bounds = float(draw(st.integers(-1, m + 4)))
    elif kind == "per-candidate":
        bounds = [float(draw(st.integers(-1, m + 4))) for _ in lengths]
    else:
        bounds = None
    epsilon = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return query, candidates, epsilon, lo, hi, bounds


class TestKernelEqualsRowDP:
    @settings(max_examples=300, deadline=None)
    @given(window_batches())
    def test_random_batches(self, batch):
        assert_same_as_oracle(*batch)

    @settings(max_examples=40, deadline=None)
    @given(window_batches(query_lengths=st.sampled_from(QUERY_LENGTHS)))
    def test_word_boundary_query_lengths(self, batch):
        assert_same_as_oracle(*batch)

    @pytest.mark.parametrize("m", QUERY_LENGTHS)
    @pytest.mark.parametrize("ndim", (1, 2, 3))
    def test_default_band_per_query_length(self, m, ndim):
        rng = np.random.default_rng(m * 7 + ndim)
        query = _points(rng, m, ndim, grid=False)
        candidates = [_points(rng, n, ndim, grid=False) for n in (0, 1, m, 2 * m + 3)]
        lo, hi = resolve_window_range(m)
        assert_same_as_oracle(query, candidates, 1.0, lo, hi)
        assert_same_as_oracle(query, candidates, 1.0, lo, hi, bounds=m * 0.6)

    def test_empty_query_prices_the_shortest_window(self):
        rng = np.random.default_rng(3)
        candidates = [_points(rng, n, 2, grid=False) for n in (0, 3, 9, 20)]
        for bounds in (None, -1.0, 0.0, [5.0, -2.0, 1.0, 0.0]):
            distances, starts, ends, evaluated, abandoned = assert_same_as_oracle(
                np.empty((0, 2)), candidates, 0.5, 4, 7, bounds=bounds
            )
            assert list(distances) == [0.0, 3.0, 4.0, 4.0]
            assert list(ends) == [0, 3, 4, 4]
            assert not abandoned.any()

    def test_empty_candidates(self):
        query = np.zeros((4, 2))
        got = assert_same_as_oracle(query, [], 0.5, 2, 5)
        assert all(array.size == 0 for array in got)
        distances, _, _, evaluated, _ = assert_same_as_oracle(
            query, [np.empty((0, 2))] * 3, 0.5, 2, 5, bounds=0.0
        )
        assert list(distances) == [4.0] * 3 and list(evaluated) == [1] * 3
        mixed = [np.empty((0, 2)), np.ones((6, 2)), np.empty((0, 2))]
        assert_same_as_oracle(query, mixed, 0.5, 2, 5, bounds=[0.0, 9.0, 0.0])

    def test_candidates_shorter_than_the_band(self):
        rng = np.random.default_rng(5)
        query = _points(rng, 10, 2, grid=False)
        candidates = [_points(rng, n, 2, grid=False) for n in (1, 4, 7, 8, 12)]
        assert_same_as_oracle(query, candidates, 0.8, 8, 12)
        assert_same_as_oracle(query, candidates[:3], 0.8, 8, 12)

    def test_single_length_band(self):
        rng = np.random.default_rng(6)
        query = _points(rng, 9, 2, grid=True)
        candidates = [_points(rng, n, 2, grid=True) for n in (5, 9, 30)]
        lo, hi = resolve_window_range(9, min_window=6, max_window=6)
        assert lo == hi == 6
        assert_same_as_oracle(query, candidates, 0.5, lo, hi)
        assert_same_as_oracle(query, candidates, 0.5, lo, hi, bounds=4.0)

    def test_bound_below_every_row_minimum_abandons_everything(self):
        rng = np.random.default_rng(8)
        query = _points(rng, 12, 2, grid=False)
        candidates = [_points(rng, n, 2, grid=False) for n in (0, 5, 20, 31)]
        distances, starts, ends, evaluated, abandoned = assert_same_as_oracle(
            query, candidates, 0.5, 9, 15, bounds=-1.0
        )
        assert np.isinf(distances[1:]).all()
        assert list(evaluated) == [1, 0, 0, 0] and abandoned[1:].all()

    def test_equal_distance_windows_take_smallest_start_then_end(self):
        query = np.array([[0.0], [1.0], [2.0]])
        # The query appears verbatim at starts 2 and 7; the zero-cost
        # window at the smaller start must win.
        candidate = np.array([[9.0], [9.0], [0.0], [1.0], [2.0], [9.0], [9.0],
                              [0.0], [1.0], [2.0]])
        distances, starts, ends, _, _ = assert_same_as_oracle(
            query, [candidate], 0.1, 2, 4
        )
        assert (distances[0], starts[0], ends[0]) == (0.0, 2, 5)
        # Nothing matches: every window costs max(m, length) = 3 at
        # start 0 for lengths 2 and 3 — the shorter end wins.
        distances, starts, ends, _, _ = assert_same_as_oracle(
            query, [np.full((6, 1), 9.0)], 0.1, 2, 4
        )
        assert (distances[0], starts[0], ends[0]) == (3.0, 0, 2)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="arity"):
            edr_windows_many(np.zeros((3, 2)), [np.zeros((5, 3))], 0.5, 2, 4)


# ----------------------------------------------------------------------
# Engines with the kernel patched back to the oracle
# ----------------------------------------------------------------------
SPEC = "histogram,qgram"
K = 4


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(4411)
    trajectories = random_walk_trajectories(rng, 40, 10, 45)
    trajectories.append(Trajectory(np.empty((0, 2))))
    database = TrajectoryDatabase(trajectories, epsilon=0.5)
    database.warm(q=1, histogram_bins=1.0)
    queries = [
        database.trajectories[5],
        Trajectory(database.trajectories[22].points[3:17]),
        Trajectory(np.cumsum(rng.normal(size=(12, 2)), axis=0)),
    ]
    return database, queries


@pytest.fixture(scope="module")
def tiered(workload, tmp_path_factory):
    database, _ = workload
    directory = tmp_path_factory.mktemp("window-kernel") / "store"
    build_store(
        list(database.trajectories),
        directory,
        database.epsilon,
        parts=("histogram", "histogram-1d", "qgram"),
        chunk_size=16,
    )
    with TieredDatabase.open(directory) as store:
        yield store


@pytest.fixture
def oracle_kernel(monkeypatch):
    """Run a search with the window kernel swapped for the row DP."""
    calls = []

    def kernel(*args, **kwargs):
        calls.append(len(args[1]))
        return rowdp_windows_many(*args, **kwargs)

    def run(search):
        calls.clear()
        with monkeypatch.context() as patch:
            # sharding imports the name directly, so patch both modules.
            patch.setattr(subtrajectory, "edr_windows_many", kernel)
            patch.setattr(sharding, "edr_windows_many", kernel)
            result = search()
        assert calls, "the window kernel never ran"
        return result

    return run


def outcome(result):
    matches, stats = result
    return (
        window_answers(matches),
        stats.windows_evaluated,
        stats.windows_pruned,
        stats.windows_abandoned,
        dict(stats.pruned_by),
        stats.true_distance_computations,
    )


def _chain(database):
    chain = build_pruners(database, SPEC)
    warm_pruners(chain, database.trajectories[0])
    return chain


@pytest.mark.parametrize("early_abandon", (False, True))
def test_serial_and_tiered_match_oracle_kernel(
    workload, tiered, oracle_kernel, early_abandon
):
    database, queries = workload
    chain = _chain(database)
    store_chain = _chain(tiered.database)
    abandoned = 0
    for query in queries:
        # Small rounds, so later rounds run under a finite threshold.
        searches = {
            "serial": lambda: subknn_search(
                database, query, K, chain,
                early_abandon=early_abandon, refine_batch_size=4,
            ),
            "tiered": lambda: tiered.subknn_search(
                query, K, store_chain,
                early_abandon=early_abandon, refine_batch_size=4,
            ),
        }
        for name, search in searches.items():
            got = search()
            assert outcome(got) == outcome(oracle_kernel(search)), name
            abandoned += got[1].windows_abandoned
    assert (abandoned > 0) == early_abandon


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize("early_abandon", (False, True))
def test_sharded_matches_oracle_kernel(workload, oracle_kernel, shards, early_abandon):
    database, queries = workload
    with ShardedDatabase(database, shards, specs=[SPEC], mode="inline") as engine:
        for query in queries:
            def search():
                return engine.subknn_search(
                    query, K, spec=SPEC, early_abandon=early_abandon,
                    refine_batch_size=4,
                )

            assert outcome(search()) == outcome(oracle_kernel(search))
