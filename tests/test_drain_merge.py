"""A drain of several refine buckets runs as one kernel call per kernel.

When the candidate buffer drains (the seed flush and the end of the
scan), every bucket that would have run unbounded shares one kernel call
per kernel.  Here that merge is patched back to one call per bucket —
the loop it replaced — and every engine with a drain must return the
same answers and the same counters either way: ``pruned_by``,
``true_distance_computations``, ``kernel_cells`` and ``kernel_buckets``
(in the same order), at several refine batch sizes, with early abandoning
on and off, and with a dynamic pruner (NTI) recording distances.  A
pass-through pruner at the end of every chain logs each recorded
distance, so the record stream a dynamic pruner sees must match too —
same candidates, same values, same order.
"""

import numpy as np
import pytest

from repro import TrajectoryDatabase, knn_search
from repro.core import kernels as kernels_module
from repro.core import rangequery, search
from repro.core.kernels import KernelSelection
from repro.core.search import Pruner, QueryPruner, knn_sorted_search
from repro.service.pruning import build_pruners
from repro.storage import TieredDatabase, build_store
from repro.storage import tiered as tiered_module

from .conftest import random_walk_trajectories
from .oracles import answers

SPECS = ("histogram,qgram", "histogram,nti", "nti,qgram")
BATCH_SIZES = (4, 16, 64)
# Range radii as a share of the query length keep a few dozen survivors.
RADIUS_SHARE = 0.95
# Lengths 5..70 span buckets 3..7; the plan mixes two kernels across them.
TABLE = {3: "bitparallel", 4: "batched", 5: "bitparallel", 6: "batched", 7: "bitparallel"}


class RecordLog(Pruner):
    """Never prunes; logs every ``(candidate, distance)`` the engine records."""

    name = "record-log"

    def __init__(self, size, log):
        self.size = size
        self.log = log

    def for_query(self, query):
        return _RecordLogQuery(self)


class _RecordLogQuery(QueryPruner):
    name = RecordLog.name

    def __init__(self, owner):
        self.database_size = owner.size
        self._log = owner.log

    def lower_bound(self, candidate_index, threshold=float("inf")):
        return 0.0

    def bulk_quick_lower_bounds(self):
        return np.zeros(self.database_size)

    def record(self, candidate_index, true_distance):
        self._log.append((candidate_index, true_distance))


def chain(database, spec, log):
    """The spec's pruners with a record log into ``log`` at the end."""
    return [*build_pruners(database, spec), RecordLog(len(database), log)]


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(23)
    trajectories = random_walk_trajectories(rng, 90, 5, 70)
    database = TrajectoryDatabase(trajectories, epsilon=0.5)
    database.warm(q=1, histogram_bins=1.0)
    database._kernel_selection = KernelSelection(table=dict(TABLE), source="loaded")
    queries = [trajectories[i] for i in (3, 40, 77)]
    return database, queries


@pytest.fixture(scope="module")
def store_directory(workload, tmp_path_factory):
    database, _ = workload
    directory = tmp_path_factory.mktemp("drain-merge") / "store"
    build_store(
        database.trajectories,
        directory,
        database.epsilon,
        parts=("histogram", "qgram", "nti"),
        chunk_size=16,
    )
    return directory


@pytest.fixture
def per_bucket(monkeypatch):
    """Run an engine call with drains merged or per bucket; count kernel calls."""
    calls = []
    run_kernel = kernels_module.run_kernel

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return run_kernel(*args, **kwargs)

    refine_batch = search._refine_batch
    verify_buckets = search._verify_buckets

    def drain_per_bucket(database, query, buckets, result, stats,
                         query_pruners, early_abandon, plan):
        for bucket in buckets:
            refine_batch(database, query, bucket, result, stats,
                         query_pruners, early_abandon, plan)

    def verify_per_bucket(database, query, buckets, stats, plan, bound, **kwargs):
        return [
            verify_buckets(database, query, [bucket], stats, plan, bound, **kwargs)[0]
            for bucket in buckets
        ]

    def run(function, merged):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(search, "run_kernel", counted)
            if not merged:
                patch.setattr(search, "_refine_drained", drain_per_bucket)
                patch.setattr(tiered_module, "_refine_drained", drain_per_bucket)
                patch.setattr(rangequery, "_verify_buckets", verify_per_bucket)
            result = function()
        return result, len(calls)

    return run


def outcome(result, log):
    neighbors, stats = result
    return (
        list(log),
        answers(neighbors),
        dict(stats.pruned_by),
        stats.true_distance_computations,
        list(stats.kernel_cells.items()),
        list(stats.kernel_buckets.items()),
        stats.pages_read,
        stats.bytes_touched,
    )


def assert_merge_is_invisible(per_bucket, engine, queries):
    """Equal outcomes merged vs per bucket; returns kernel calls saved."""
    saved = 0
    for query in queries:
        log = []
        expected, separate = per_bucket(lambda: engine(query, log), False)
        want = outcome(expected, log)
        log = []
        got, merged = per_bucket(lambda: engine(query, log), True)
        assert outcome(got, log) == want
        assert merged <= separate
        saved += separate - merged
    return saved


def _split(pruners):
    primary, *secondary = pruners
    return primary, secondary


def serial_engines(database, spec, batch, early_abandon):
    options = dict(
        refine_batch_size=batch, early_abandon=early_abandon, edr_kernel="auto"
    )
    return {
        "knn_search": lambda query, log: knn_search(
            database, query, 6, chain(database, spec, log), **options
        ),
        "knn_sorted_search": lambda query, log: knn_sorted_search(
            database, query, 6, *_split(chain(database, spec, log)), **options
        ),
        "range_search": lambda query, log: rangequery.range_search(
            database, query, RADIUS_SHARE * len(query),
            chain(database, spec, log), **options,
        ),
    }


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("early_abandon", (False, True))
def test_serial_engines(workload, per_bucket, spec, batch, early_abandon):
    database, queries = workload
    for name, engine in serial_engines(database, spec, batch, early_abandon).items():
        saved = assert_merge_is_invisible(per_bucket, engine, queries)
        assert saved > 0, f"{name}: no drain was merged"


@pytest.mark.parametrize("spec", ("histogram,qgram", "histogram,nti"))
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("early_abandon", (False, True))
@pytest.mark.parametrize("block_skip", (True, False))
def test_tiered_paths(
    workload, store_directory, per_bucket, spec, batch, early_abandon, block_skip
):
    _, queries = workload
    options = dict(
        refine_batch_size=batch, early_abandon=early_abandon, edr_kernel="auto"
    )

    def on_fresh_store(search_on):
        # A cold pool on both sides, so pages read compare like with like.
        def engine(query, log):
            with TieredDatabase.open(store_directory) as store:
                store.database._kernel_selection = KernelSelection(
                    table=dict(TABLE), source="loaded"
                )
                return search_on(store, query, chain(store.database, spec, log))

        return engine

    searches = (
        lambda store, query, pruners: store.knn_search(
            query, 6, pruners, **options
        ),
        lambda store, query, pruners: store.knn_sorted_search(
            query, 6, *_split(pruners), block_skip=block_skip, **options
        ),
        lambda store, query, pruners: store.range_search(
            query, RADIUS_SHARE * len(query), pruners,
            block_skip=block_skip, **options,
        ),
    )
    for search_on in searches:
        saved = assert_merge_is_invisible(
            per_bucket, on_fresh_store(search_on), queries
        )
        assert saved > 0
