"""The exact histogram stage is the flow oracle, on every engine path.

The exact HD decision runs through a per-query flow ceiling and, when
that does not settle it, one per-query
:class:`repro.core.histogram.HistogramMatcher`.  Here the ceiling is
switched off and the bound is monkeypatched back to the Dinic reference
in :mod:`tests.oracles`, and every engine that consults the exact stage
must return the same answers *and* the same counters (``pruned_by``,
``true_distance_computations``) either way: the serial, sorted and
range engines, the tiered store and the sharded engine with the exact
stage forced on.
"""

import numpy as np

import pytest

from repro import ShardedDatabase, knn_search
from repro.core.lcss_search import LcssHistogramBound
from repro.core.rangequery import range_search
from repro.core.search import _HistogramQuery, knn_sorted_search
from repro.service.pruning import build_pruners
from repro.storage import TieredDatabase, build_store

from .oracles import answers, flow_histogram_distance, flow_match_capacity

SPECS = ("histogram,qgram", "histogram-1d,qgram")
RADIUS = 20.0


@pytest.fixture(scope="module")
def workload(sharding_workload):
    return sharding_workload


@pytest.fixture
def oracle_exact(monkeypatch):
    """Route every exact HD decision through the flow oracle; count the calls."""
    calls = []

    def no_ceilings(self, threshold):
        return np.full(self.database_size, np.inf)

    def exact_lower_bound(self, candidate_index):
        calls.append(candidate_index)
        return float(
            max(
                flow_histogram_distance(query, per_axis[candidate_index])
                for query, per_axis in zip(self._query, self._database)
            )
        )

    def run(function):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_HistogramQuery, "exact_lower_bound", exact_lower_bound)
            patch.setattr(_HistogramQuery, "_flow_ceilings", no_ceilings)
            result = function()
        assert calls, "the exact stage never ran"
        return result

    return run


def outcome(result):
    neighbors, stats = result
    return (
        answers(neighbors),
        dict(stats.pruned_by),
        stats.true_distance_computations,
    )


@pytest.mark.parametrize("spec", SPECS)
def test_serial_engines_match_oracle(workload, oracle_exact, spec):
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
        for query in queries:
            expected = oracle_exact(lambda: engine(query))
            assert outcome(engine(query)) == outcome(expected), name


def _split(pruners):
    primary, *secondary = pruners
    return primary, secondary


@pytest.fixture(scope="module")
def tiered(workload, tmp_path_factory):
    database, _ = workload
    directory = tmp_path_factory.mktemp("exact-stage") / "store"
    build_store(
        database.trajectories,
        directory,
        database.epsilon,
        parts=("histogram", "histogram-1d", "qgram"),
        chunk_size=32,
    )
    with TieredDatabase.open(directory) as opened:
        yield opened


@pytest.mark.parametrize("spec", SPECS)
def test_tiered_store_matches_oracle(workload, tiered, oracle_exact, spec):
    _, queries = workload
    engines = {
        "knn_search": lambda query: tiered.knn_search(
            query, 5, build_pruners(tiered.database, spec)
        ),
        "knn_sorted_search": lambda query: tiered.knn_sorted_search(
            query, 5, *_split(build_pruners(tiered.database, spec))
        ),
        "range_search": lambda query: tiered.range_search(
            query, RADIUS, build_pruners(tiered.database, spec)
        ),
    }
    for name, engine in engines.items():
        for query in queries:
            expected = oracle_exact(lambda: engine(query))
            assert outcome(engine(query)) == outcome(expected), name


@pytest.mark.parametrize("spec", SPECS)
def test_sharded_exact_stage_matches_oracle(workload, oracle_exact, spec):
    database, queries = workload
    with ShardedDatabase(
        database, 2, specs=[spec], mode="inline", exact_stage="always"
    ) as engine:
        # Small rounds, so later rounds run under a finite threshold.
        for query in queries:
            for search in (
                lambda: engine.knn_search(
                    query, 5, spec=spec, refine_batch_size=8
                ),
                lambda: engine.range_search(
                    query, RADIUS, spec=spec, refine_batch_size=8
                ),
            ):
                expected = oracle_exact(search)
                assert outcome(search()) == outcome(expected)


def test_lcss_capacity_matches_oracle(workload):
    database, queries = workload
    bound = LcssHistogramBound(database)
    space, histograms = database.histograms()
    for query in queries:
        per_query = bound.for_query(query)
        query_histogram = space.histogram(query)
        for index, histogram in enumerate(histograms):
            assert per_query.upper_bound(index) == flow_match_capacity(
                query_histogram, histogram
            )
