"""The flow ceiling of the exact histogram stage.

:meth:`HistogramArrayStore.bulk_flow_ceilings` prices every row with one
feasible flow, so ``max(m, n) - F`` can only sit at or above the exact
HD.  The engines use it to settle "the exact bound cannot prune" without
running the matcher.  Two things must hold:

* the ceiling is never below the exact HD (the Dinic oracle in
  :mod:`tests.oracles`), for every store layout and grid position;
* switching the ceiling off (every row +inf, so every exact check runs
  the matcher) changes no answer and no counter on any engine path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ShardedDatabase, knn_search
from repro.core import histogram as histogram_module
from repro.core.histogram import HistogramArrayStore
from repro.core.rangequery import range_search
from repro.core.search import _HistogramQuery, knn_sorted_search
from repro.service.pruning import build_pruners
from repro.storage import TieredDatabase, build_store

from .oracles import answers, flow_histogram_distance

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def histograms(ndim, coordinate=st.integers(-3, 3)):
    """Sparse histograms over a small grid, negative bins and empties included."""
    return st.dictionaries(
        st.tuples(*[coordinate] * ndim), st.integers(1, 4), max_size=6
    )


@st.composite
def cases(draw):
    ndim = draw(st.sampled_from((1, 2, 3)))
    rows = draw(st.lists(histograms(ndim), min_size=1, max_size=8))
    # Query bins may fall far off the database grid.
    query = draw(histograms(ndim, st.integers(-6, 6)))
    return ndim, rows, query


def csr_copy(store):
    """The same store rebuilt around a CSR count matrix."""
    sparse = pytest.importorskip("scipy.sparse")
    matrix = sparse.csr_matrix(np.asarray(store._counts))
    return HistogramArrayStore.from_state(
        store.ndim, store._lo, store._shape, store.totals,
        (matrix.data, matrix.indices, matrix.indptr), sparse=True,
    )


class TestBulkFlowCeilings:
    @SETTINGS
    @given(cases())
    def test_never_below_the_exact_hd(self, case):
        ndim, rows, query = case
        store = HistogramArrayStore(rows, ndim)
        ceilings = store.bulk_flow_ceilings(query)
        assert ceilings.dtype == np.int64
        for index, row in enumerate(rows):
            exact = flow_histogram_distance(query, row)
            total = max(sum(query.values()), sum(row.values()))
            assert exact <= ceilings[index] <= total

    @SETTINGS
    @given(cases())
    def test_csr_and_dense_stores_agree(self, case):
        ndim, rows, query = case
        store = HistogramArrayStore(rows, ndim)
        assert np.array_equal(
            csr_copy(store).bulk_flow_ceilings(query),
            store.bulk_flow_ceilings(query),
        )

    @SETTINGS
    @given(cases(), st.data())
    def test_shard_slices_and_row_subsets_agree(self, case, data):
        ndim, rows, query = case
        store = HistogramArrayStore(rows, ndim)
        full = store.bulk_flow_ceilings(query)
        lo = data.draw(st.integers(0, len(rows) - 1))
        hi = data.draw(st.integers(lo + 1, len(rows)))
        # A shard keeps the parent grid and a slice of the rows.
        shard = HistogramArrayStore.from_state(
            ndim, store._lo, store._shape, store.totals[lo:hi],
            np.asarray(store._counts)[lo:hi],
        )
        assert np.array_equal(shard.bulk_flow_ceilings(query), full[lo:hi])
        for layout in (shard, csr_copy(shard)):
            subset = data.draw(
                st.lists(st.integers(0, hi - lo - 1), unique=True)
            )
            assert np.array_equal(
                layout.bulk_flow_ceilings(query, np.array(subset, dtype=np.int64)),
                full[lo:hi][subset],
            )

    @SETTINGS
    @given(cases())
    def test_identical_histograms_price_to_zero(self, case):
        ndim, rows, _ = case
        store = HistogramArrayStore(rows, ndim)
        for index, row in enumerate(rows):
            assert store.bulk_flow_ceilings(row, np.array([index]))[0] == 0

    @SETTINGS
    @given(cases())
    def test_chunking_changes_no_value(self, case):
        ndim, rows, query = case
        store = HistogramArrayStore(rows, ndim)
        whole = store.bulk_flow_ceilings(query)
        with mock.patch.object(histogram_module, "_CEILING_CELLS", 1):
            # One row per chunk.
            assert np.array_equal(store.bulk_flow_ceilings(query), whole)

    def test_empty_query_and_empty_rows(self):
        store = HistogramArrayStore([{}, {(0, 0): 3}], 2)
        assert store.bulk_flow_ceilings({}).tolist() == [0, 3]
        assert store.bulk_flow_ceilings({(0, 0): 2}).tolist() == [2, 1]
        assert store.bulk_flow_ceilings({(0, 0): 2}, np.array([], dtype=np.int64)).size == 0

    def test_query_off_the_grid_matches_nothing(self):
        store = HistogramArrayStore([{(0, 0): 2}, {(1, 1): 1}], 2)
        assert store.bulk_flow_ceilings({(40, -40): 5}).tolist() == [5, 5]


# ----------------------------------------------------------------------
# Engines: the ceiling settles decisions, never changes them
# ----------------------------------------------------------------------
SPECS = ("histogram,qgram", "histogram-1d,qgram", "histogram,nti")
RADIUS = 20.0


@pytest.fixture(scope="module")
def workload(sharding_workload):
    return sharding_workload


@pytest.fixture
def without_ceiling(monkeypatch):
    """Run an engine call with every flow ceiling at +inf; count matcher calls."""
    calls = []
    exact = _HistogramQuery.exact_lower_bound

    def counted(self, candidate_index):
        calls.append(candidate_index)
        return exact(self, candidate_index)

    def no_ceilings(self, threshold):
        return np.full(self.database_size, np.inf)

    def run(function, ceiling):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_HistogramQuery, "exact_lower_bound", counted)
            if not ceiling:
                patch.setattr(_HistogramQuery, "_flow_ceilings", no_ceilings)
            result = function()
        return result, len(calls)

    return run


def outcome(result):
    neighbors, stats = result
    return (
        answers(neighbors),
        dict(stats.pruned_by),
        stats.true_distance_computations,
        stats.bytes_touched,
        stats.pages_read,
        stats.blocks_opened,
    )


def _split(pruners):
    primary, *secondary = pruners
    return primary, secondary


def assert_same_decisions(without_ceiling, engine, queries):
    """Equal outcomes with and without the ceiling; returns matcher calls saved."""
    saved = 0
    for query in queries:
        expected, uncapped = without_ceiling(lambda: engine(query), False)
        got, capped = without_ceiling(lambda: engine(query), True)
        assert outcome(got) == outcome(expected)
        assert capped <= uncapped
        saved += uncapped - capped
    return saved


@pytest.mark.parametrize("spec", SPECS)
def test_serial_engines_equal_without_ceiling(workload, without_ceiling, spec):
    database, queries = workload
    engines = {
        "knn_search": lambda query: knn_search(
            database, query, 5, build_pruners(database, spec)
        ),
        "knn_sorted_search": lambda query: knn_sorted_search(
            database, query, 5, *_split(build_pruners(database, spec))
        ),
        "range_search": lambda query: range_search(
            database, query, RADIUS, build_pruners(database, spec)
        ),
    }
    for name, engine in engines.items():
        saved = assert_same_decisions(without_ceiling, engine, queries)
        assert saved > 0, f"{name}: the ceiling settled nothing"


@pytest.fixture(scope="module")
def store_directory(workload, tmp_path_factory):
    database, _ = workload
    directory = tmp_path_factory.mktemp("flow-ceiling") / "store"
    build_store(
        database.trajectories,
        directory,
        database.epsilon,
        parts=("histogram", "histogram-1d", "qgram"),
        chunk_size=32,
    )
    return directory


def on_fresh_store(directory, search):
    """Each call opens the store anew, so both sides start from a cold pool."""

    def engine(query):
        with TieredDatabase.open(directory) as store:
            return search(store, query)

    return engine


@pytest.mark.parametrize("spec", SPECS[:2])
@pytest.mark.parametrize("block_skip", (True, False))
def test_tiered_store_equal_without_ceiling(
    workload, store_directory, without_ceiling, spec, block_skip
):
    _, queries = workload
    searches = (
        lambda store, query: store.knn_search(
            query, 5, build_pruners(store.database, spec)
        ),
        lambda store, query: store.knn_sorted_search(
            query, 5, *_split(build_pruners(store.database, spec)),
            block_skip=block_skip,
        ),
        lambda store, query: store.range_search(
            query, RADIUS, build_pruners(store.database, spec),
            block_skip=block_skip,
        ),
    )
    saved = [
        assert_same_decisions(
            without_ceiling, on_fresh_store(store_directory, search), queries
        )
        for search in searches
    ]
    # knn_search materializes the bulk quick bounds, so its ceilings are
    # priced; block-skipping scans never do, and run the matcher instead.
    assert saved[0] > 0
    assert block_skip or all(saved)
    assert not block_skip or saved[1:] == [0, 0]


@pytest.mark.parametrize("spec", SPECS[:2])
def test_sharded_exact_stage_equal_without_ceiling(
    workload, without_ceiling, spec
):
    database, queries = workload

    def sharded(search):
        # A fresh engine per call: shard workers keep per-query pruner
        # state (ceilings included) across repeats of the same query.
        def engine(query):
            with ShardedDatabase(
                database, 2, specs=[spec], mode="inline", exact_stage="always"
            ) as shards:
                return search(shards, query)

        return engine

    # Small rounds, so later rounds run under a finite threshold.
    searches = (
        lambda shards, query: shards.knn_search(
            query, 5, spec=spec, refine_batch_size=8
        ),
        lambda shards, query: shards.range_search(
            query, RADIUS, spec=spec, refine_batch_size=8
        ),
    )
    for search in searches:
        assert assert_same_decisions(without_ceiling, sharded(search), queries) > 0
