"""Span recording around the program's public layer boundaries.

:func:`install` wraps exported functions and public methods of the
service and engine modules in place (every module namespace that bound
the same function object is rebound, so ``from .x import f`` call sites
see the wrapper too).  Nothing with a leading underscore is wrapped.
Each span records its name, start, end, parent span and request id;
spans stay in memory and :func:`dump` writes them out when the server
exits.  Calls too frequent to record one by one (the per-candidate
exact bound) are tallied as counts and summed time at the same
boundary instead.

The recorder lives in the server process only.  Forked replicas and
shard workers inherit the wrappers but their tallies never come back;
the benchmark reads those layers from ``/stats``.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

_clock = time.monotonic


class Recorder:
    """In-memory spans plus counters; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.warm_reports: List[Dict[str, float]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self.request = contextvars.ContextVar("perfbench_request", default=None)

    def add(self, name: str, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[f"{name}.{key}"] += amount

    def open(self):
        return next(self._ids), self.current.get(), _clock()

    def close(self, span_id, parent, name, start, attrs=None) -> None:
        end = _clock()
        with self._lock:
            self.spans.append(
                [span_id, parent, name, start, end, self.request.get(), attrs]
            )

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {
                "spans": self.spans,
                "counters": dict(self.counters),
                "warm": self.warm_reports,
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _span_sync(recorder: Recorder, name: str, function, on_result=None,
               attrs_of=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_id, parent, start = recorder.open()
        token = recorder.current.set(span_id)
        attrs = attrs_of(args, kwargs) if attrs_of is not None else None
        try:
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        finally:
            recorder.current.reset(token)
            recorder.close(span_id, parent, name, start, attrs)

    return wrapper


def _span_async(recorder: Recorder, name: str, function, attrs_of=None,
                new_request=False):
    requests = itertools.count(1)

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        request_token = None
        if new_request:
            request_token = recorder.request.set(next(requests))
        span_id, parent, start = recorder.open()
        token = recorder.current.set(span_id)
        attrs = attrs_of(args, kwargs) if attrs_of is not None else None
        try:
            return await function(*args, **kwargs)
        finally:
            recorder.current.reset(token)
            recorder.close(span_id, parent, name, start, attrs)
            if request_token is not None:
                recorder.request.reset(request_token)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _note_search(recorder: Recorder, layer: str):
    """Fold a returned ``(answers, SearchStats)`` into layer counters."""

    def on_result(result, args, kwargs):
        stats = result[1]
        recorder.add(layer, "calls")
        recorder.add(layer, "candidates", stats.database_size)
        recorder.add(layer, "true_distances", stats.true_distance_computations)
        for kernel, cells in stats.kernel_cells.items():
            recorder.add("kernel", f"cells.{kernel}", cells)
            recorder.add(layer, "kernel_cells", cells)
        for kernel, seconds in stats.kernel_seconds.items():
            recorder.add("kernel", f"seconds.{kernel}", seconds)
            recorder.add(layer, "kernel_seconds", seconds)
        for family, count in stats.pruned_by.items():
            recorder.add(layer, f"pruned.{family.split('-', 1)[0]}", count)
        if stats.windows_total:
            recorder.add(layer, "windows_total", stats.windows_total)
            recorder.add(layer, "windows_evaluated", stats.windows_evaluated)
            recorder.add(layer, "windows_pruned", stats.windows_pruned)
        rounds = getattr(stats, "rounds", None)
        if rounds is not None:
            recorder.add(layer, "rounds", rounds)
        for shard, part in enumerate(getattr(stats, "per_shard", ())):
            recorder.add(layer, f"refines.{shard}",
                         part.true_distance_computations)

    return on_result


def _threshold_of(frame) -> Optional[float]:
    for name in ("threshold", "best", "radius"):
        value = frame.f_locals.get(name)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def _instrument_query_pruner(recorder: Recorder, family: str, query_pruner):
    """Tally the filter stage and the exact-bound stage of one query."""
    bulk = query_pruner.bulk_quick_lower_bounds
    exact = query_pruner.exact_lower_bound

    def bulk_quick_lower_bounds():
        start = _clock()
        try:
            return bulk()
        finally:
            recorder.add("filter", "quick_calls")
            recorder.add("filter", "quick_s", _clock() - start)

    def exact_lower_bound(candidate_index):
        start = _clock()
        value = exact(candidate_index)
        recorder.add("exact", "s", _clock() - start)
        recorder.add("exact", "calls")
        recorder.add("exact", f"calls.{family}")
        threshold = _threshold_of(sys._getframe(1))
        if threshold is not None and value > threshold:
            recorder.add("exact", "pruned")
        return value

    query_pruner.bulk_quick_lower_bounds = bulk_quick_lower_bounds
    query_pruner.exact_lower_bound = exact_lower_bound
    return query_pruner


def install(recorder: Recorder) -> None:
    """Wrap the public layer boundaries of an imported ``repro``."""
    import repro.cli  # noqa: F401 - binds every module the server uses
    from repro.core import batch, rangequery, search, sharding, subtrajectory
    from repro.core.database import TrajectoryDatabase
    from repro.service.batcher import MicroBatcher
    from repro.service.handlers import TrajectoryService
    from repro.service.replicas import ReplicaHandle

    def digest_of_body(args, kwargs):
        body = args[3] if len(args) > 3 else kwargs.get("body", b"")
        return {"route": args[2].split("?", 1)[0],
                "digest": hashlib.sha1(body or b"").hexdigest()}

    TrajectoryService.handle = _span_async(
        recorder, "http.handle", TrajectoryService.handle,
        attrs_of=digest_of_body, new_request=True,
    )

    original_submit = MicroBatcher.submit

    @functools.wraps(original_submit)
    async def submit(self, key, digest, payload, runner):
        submit_id, parent, start = recorder.open()

        # The runner executes on the dispatch thread, where no span is
        # current; the submitting span is its parent.
        def traced_runner(payloads, _runner=runner):
            span_id, _, start = recorder.open()
            token = recorder.current.set(span_id)
            try:
                return _runner(payloads)
            finally:
                recorder.current.reset(token)
                recorder.close(span_id, submit_id, "batcher.run", start,
                               {"payloads": [id(p) for p in payloads]})

        token = recorder.current.set(submit_id)
        try:
            return await original_submit(self, key, digest, payload,
                                         traced_runner)
        finally:
            recorder.current.reset(token)
            recorder.close(submit_id, parent, "batcher.submit", start,
                           {"payload": id(payload)})

    MicroBatcher.submit = submit

    ReplicaHandle.call = _span_async(
        recorder, "rpc.call", ReplicaHandle.call,
        attrs_of=lambda args, kwargs: {"op": args[1]},
    )

    replacements = {
        batch.knn_batch: _span_sync(recorder, "engine.batch", batch.knn_batch),
        search.knn_search: _span_sync(
            recorder, "engine.knn", search.knn_search,
            on_result=_note_search(recorder, "engine"),
        ),
        subtrajectory.subknn_search: _span_sync(
            recorder, "window.subknn", subtrajectory.subknn_search,
            on_result=_note_search(recorder, "window"),
        ),
        rangequery.range_search: _span_sync(
            recorder, "range.search", rangequery.range_search,
            on_result=_note_search(recorder, "range"),
        ),
    }
    for original, replacement in replacements.items():
        _rebind(original, replacement)

    families = {
        search.HistogramPruner: "histogram",
        search.QgramMergeJoinPruner: "qgram",
        search.QgramIndexPruner: "qgram",
        search.NearTrianglePruning: "nti",
    }
    for cls, family in families.items():
        def for_query(self, query, _original=cls.for_query, _family=family):
            return _instrument_query_pruner(
                recorder, _family, _original(self, query)
            )

        cls.for_query = _span_sync(recorder, "filter.setup", for_query)

    sharded = sharding.ShardedDatabase
    sharded.__init__ = _span_sync(recorder, "shard.build", sharded.__init__)
    for method in ("knn_search", "subknn_search"):
        setattr(sharded, method, _span_sync(
            recorder, "shard.knn", getattr(sharded, method),
            on_result=_note_search(recorder, "shard"),
        ))

    TrajectoryDatabase.warm = _span_sync(
        recorder, "database.warm", TrajectoryDatabase.warm,
        on_result=lambda report, args, kwargs: recorder.warm_reports.append(
            dict(report)
        ),
    )
    TrajectoryService.warm = _span_sync(
        recorder, "service.warm", TrajectoryService.warm
    )
