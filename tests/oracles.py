"""Brute-force EDR oracles shared by every engine suite.

Each engine family (serial, sorted-scan, sharded, tiered, replicated
service, subtrajectory) is accepted on byte-equality against a naive
reference that shares **no code** with the engines: plain
:func:`repro.edr` per candidate, plain Python sorts for ranking.  The
per-suite inline scans that used to live in test_search.py,
test_sharding.py, test_tiered.py, and test_replicas.py are deduplicated
here so every suite states expectations in the same vocabulary.

Canonical answer shapes
-----------------------
The histogram matching oracles (:func:`flow_match_capacity`,
:func:`greedy_match_capacity_1d`, :func:`flow_histogram_distance`) are
the reference the per-query :class:`repro.core.histogram.HistogramMatcher`
is accepted against: a Dinic max-flow rebuilt per pair, and the
left-to-right greedy that is exact on one-dimensional bins.
:func:`rowdp_windows_many` is the float64 row DP the bit-parallel
window kernel (:func:`repro.edr_windows_many`) is accepted against,
all five outputs byte for byte.

``answers``/``window_answers`` flatten engine results into comparable
tuples; ``payload_answers``/``payload_windows`` produce the JSON shapes
the HTTP service serves, so served bytes compare against the same
oracle.  Ordering contracts mirror the engines: k-NN ranks on
``(distance, index)``, range results arrive in index order, and each
trajectory's best window resolves ties on ``(distance, start, end)``.
"""

from collections import deque
from itertools import product

import numpy as np

from repro import Trajectory, edr
from repro.core.edr import _points
from repro.core.subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    resolve_window_range,
    window_counts,
)

__all__ = [
    "answers",
    "payload_answers",
    "payload_windows",
    "window_answers",
    "brute_knn",
    "brute_range",
    "brute_subknn",
    "flow_histogram_distance",
    "flow_match_capacity",
    "greedy_match_capacity_1d",
    "rowdp_windows_many",
]


# ----------------------------------------------------------------------
# Answer shapes
# ----------------------------------------------------------------------
def answers(neighbors):
    """Engine k-NN/range results as comparable ``(index, distance)`` tuples."""
    return [(n.index, n.distance) for n in neighbors]


def payload_answers(neighbors):
    """The JSON shape ``/knn`` and ``/range`` serve for ``neighbors``."""
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


def window_answers(matches):
    """Subtrajectory results as ``(index, start, end, distance)`` tuples."""
    return [(m.index, m.start, m.end, m.distance) for m in matches]


def payload_windows(matches):
    """The JSON shape ``/subknn`` serves for ``matches``."""
    return [
        {
            "index": int(m.index),
            "start": int(m.start),
            "end": int(m.end),
            "distance": float(m.distance),
        }
        for m in matches
    ]


# ----------------------------------------------------------------------
# Brute-force references
# ----------------------------------------------------------------------
def brute_knn(database, query, k):
    """Naive k-NN: EDR against every trajectory, rank on (distance, index)."""
    ranked = sorted(
        (float(edr(query, candidate, database.epsilon)), index)
        for index, candidate in enumerate(database.trajectories)
    )
    return [(index, distance) for distance, index in ranked[:k]]


def brute_range(database, query, radius):
    """Naive range query: every trajectory within ``radius``, index order."""
    return [
        (index, distance)
        for index, candidate in enumerate(database.trajectories)
        for distance in (float(edr(query, candidate, database.epsilon)),)
        if distance <= radius
    ]


def _brute_best_window(query, candidate, epsilon, lo, hi):
    """The minimum-EDR window of one candidate, ties on (distance, start, end).

    Mirrors the engine's banded enumeration contract: the global band
    ``[lo, hi]`` is clamped to the candidate length (a short trajectory
    contributes its single whole-trajectory window), and an empty
    candidate prices its one empty window at ``len(query)`` deletions.
    """
    points = candidate.points
    n = int(points.shape[0])
    if n == 0:
        return (float(len(query)), 0, 0)
    lo_e, hi_e = min(lo, n), min(hi, n)
    best = None
    for start in range(0, n - lo_e + 1):
        for end in range(start + lo_e, min(start + hi_e, n) + 1):
            distance = float(
                edr(query, Trajectory(points[start:end]), epsilon)
            )
            key = (distance, start, end)
            if best is None or key < best:
                best = key
    return best


def brute_subknn(
    database,
    query,
    k,
    alpha=DEFAULT_WINDOW_ALPHA,
    min_window=None,
    max_window=None,
):
    """Naive subtrajectory k-NN: full EDR per window, one best per trajectory.

    Returns ``(index, start, end, distance)`` tuples ranked on
    ``(distance, index)`` — the same canonical order
    :func:`repro.subknn_search` answers in.
    """
    lo, hi = resolve_window_range(len(query), alpha, min_window, max_window)
    ranked = []
    for index, candidate in enumerate(database.trajectories):
        distance, start, end = _brute_best_window(
            query, candidate, database.epsilon, lo, hi
        )
        ranked.append((distance, index, start, end))
    ranked.sort(key=lambda entry: entry[:2])
    return [
        (index, start, end, distance)
        for distance, index, start, end in ranked[:k]
    ]


# ----------------------------------------------------------------------
# Histogram matching references (exact HD / LCSS capacity)
# ----------------------------------------------------------------------
def _neighbor_bins(bin_index):
    """The bin itself and every adjacent bin (Definition 5)."""
    for offset in product((-1, 0, 1), repeat=len(bin_index)):
        yield tuple(b + o for b, o in zip(bin_index, offset))


def greedy_match_capacity_1d(surplus, deficit):
    """Exact maximum matching for one-dimensional (path-adjacency) bins.

    On a line a unit in bin b can only pair with bins b-1, b, b+1, so a
    left-to-right greedy that always serves the expiring carry first is
    optimal (a standard exchange argument).
    """
    bins = sorted(set(surplus) | set(deficit))
    carry_surplus = 0
    carry_deficit = 0
    previous = None
    total = 0
    for bin_index in bins:
        position = bin_index[0]
        if previous is not None and position - previous > 1:
            carry_surplus = 0
            carry_deficit = 0
        available_surplus = surplus.get(bin_index, 0)
        available_deficit = deficit.get(bin_index, 0)
        # Expiring carries first: they cannot reach the next bin.
        matched = min(carry_surplus, available_deficit)
        total += matched
        carry_surplus -= matched
        available_deficit -= matched
        matched = min(carry_deficit, available_surplus)
        total += matched
        carry_deficit -= matched
        available_surplus -= matched
        # Same-bin matching never hurts (swappable in any optimum).
        matched = min(available_surplus, available_deficit)
        total += matched
        carry_surplus = available_surplus - matched
        carry_deficit = available_deficit - matched
        previous = position
    return total


def flow_match_capacity(surplus, deficit):
    """Maximum matchable mass by Dinic's algorithm on a fresh flow network.

    source -> each ``surplus`` bin (capacity = count), each ``deficit``
    bin -> sink (capacity = count), and an uncapped edge between every
    pair of approximately-matching bins.  Any dimension.
    """
    if not surplus or not deficit:
        return 0
    source, sink = 0, 1
    node_of = {}
    for bin_index in surplus:
        node_of[("s", bin_index)] = len(node_of) + 2
    for bin_index in deficit:
        node_of[("d", bin_index)] = len(node_of) + 2
    node_count = len(node_of) + 2
    graph = [[] for _ in range(node_count)]
    to = []
    cap = []

    def add_edge(u, v, capacity):
        graph[u].append(len(to))
        to.append(v)
        cap.append(capacity)
        graph[v].append(len(to))
        to.append(u)
        cap.append(0)

    infinite = sum(surplus.values()) + 1
    for bin_index, amount in surplus.items():
        add_edge(source, node_of[("s", bin_index)], amount)
    for bin_index, amount in deficit.items():
        add_edge(node_of[("d", bin_index)], sink, amount)
    for bin_index in surplus:
        for neighbor in _neighbor_bins(bin_index):
            if neighbor in deficit:
                add_edge(
                    node_of[("s", bin_index)], node_of[("d", neighbor)], infinite
                )

    flow = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for edge in graph[u]:
                v = to[edge]
                if cap[edge] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return flow
        pointer = [0] * node_count

        def augment(u, pushed):
            if u == sink:
                return pushed
            while pointer[u] < len(graph[u]):
                edge = graph[u][pointer[u]]
                v = to[edge]
                if cap[edge] > 0 and level[v] == level[u] + 1:
                    found = augment(v, min(pushed, cap[edge]))
                    if found > 0:
                        cap[edge] -= found
                        cap[edge ^ 1] += found
                        return found
                pointer[u] += 1
            return 0

        while True:
            pushed = augment(source, infinite)
            if pushed == 0:
                break
            flow += pushed


def flow_histogram_distance(first, second):
    """HD by the flow oracle: ``max(m, n) - M``."""
    total = max(sum(first.values()), sum(second.values()))
    return total - flow_match_capacity(first, second)


# ----------------------------------------------------------------------
# Window DP reference (subtrajectory search)
# ----------------------------------------------------------------------
def rowdp_windows_many(
    query,
    candidates,
    epsilon,
    lo,
    hi,
    bounds=None,
):
    """Reference window kernel: the float64 row DP over (candidate, start) rows.

    Same signature and outputs as :func:`repro.edr_windows_many`, which
    is accepted against it byte for byte.  Rows of the batch are
    *(candidate, start)* pairs holding the suffix
    ``candidate[s : s + min(hi_e, n - s)]`` padded with +inf points;
    after the ``m``-th query element, DP column ``j`` of a row is
    exactly ``EDR(query, candidate[s : s + j])``.  A row whose masked
    row minimum exceeds its bound has every window at that start
    counted abandoned, and the batch compacts.
    """
    if epsilon < 0.0:
        raise ValueError("matching threshold epsilon must be non-negative")
    if lo < 1:
        raise ValueError("minimum window length must be at least 1")
    if hi < lo:
        raise ValueError("maximum window length must not undercut the minimum")
    query_points = _points(query)
    m = len(query_points)
    count = len(candidates)
    distances = np.full(count, np.inf, dtype=np.float64)
    starts = np.zeros(count, dtype=np.int64)
    ends = np.zeros(count, dtype=np.int64)
    evaluated = np.zeros(count, dtype=np.int64)
    abandoned = np.zeros(count, dtype=np.int64)
    if count == 0:
        return distances, starts, ends, evaluated, abandoned
    points = [_points(candidate) for candidate in candidates]

    bounds_array = None
    if bounds is not None:
        bounds_array = np.ascontiguousarray(
            np.broadcast_to(np.asarray(bounds, dtype=np.float64), (count,))
        )

    # Row bookkeeping: one row per (candidate, start) pair, grouped by
    # candidate with starts ascending — the order the tie-break relies on.
    row_candidate = []
    row_start = []
    row_length = []
    row_low = []
    totals = np.zeros(count, dtype=np.int64)
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            # The empty trajectory offers only its empty window: every
            # query element must be deleted.  Always evaluated — there
            # is no DP to abandon.
            distances[position] = float(m)
            evaluated[position] = 1
            totals[position] = 1
            continue
        if m > 0 and candidate_points.shape[1] != query_points.shape[1]:
            raise ValueError("trajectories must have the same spatial arity")
        lo_e, hi_e = min(lo, n), min(hi, n)
        totals[position] = int(window_counts([n], lo, hi)[0])
        for start in range(0, n - lo_e + 1):
            row_candidate.append(position)
            row_start.append(start)
            row_length.append(min(hi_e, n - start))
            row_low.append(lo_e)
    if not row_candidate:
        return distances, starts, ends, evaluated, abandoned

    row_candidate_array = np.array(row_candidate, dtype=np.int64)
    row_start_array = np.array(row_start, dtype=np.int64)
    row_length_array = np.array(row_length, dtype=np.int64)
    row_low_array = np.array(row_low, dtype=np.int64)
    rows = row_candidate_array.size
    width = int(row_length_array.max())
    dims = query_points.shape[1] if m > 0 else (
        points[int(row_candidate_array[0])].shape[1]
    )

    padded = np.full((rows, width, dims), np.inf, dtype=np.float64)
    row = 0
    for position, candidate_points in enumerate(points):
        n = len(candidate_points)
        if n == 0:
            continue
        lo_e, hi_e = min(lo, n), min(hi, n)
        full = n - hi_e + 1
        # Full-band rows share length hi_e: one strided view fills them
        # all; the at-most (hi_e - lo_e) tail rows shrink one by one.
        windows_view = np.lib.stride_tricks.sliding_window_view(
            candidate_points, hi_e, axis=0
        )
        padded[row : row + full, :hi_e] = windows_view.transpose(0, 2, 1)
        row += full
        for start in range(full, n - lo_e + 1):
            padded[row, : n - start] = candidate_points[start:]
            row += 1
    assert row == rows

    # From here the DP mirrors edr_many with rows in place of candidates:
    # same float64 operations, same masked-row-minimum abandonment, same
    # active-set compaction — plus a final per-end extraction.
    active = np.arange(rows, dtype=np.int64)
    active_lengths = row_length_array.copy()
    active_low = row_low_array.copy()
    indices = np.arange(width + 1, dtype=np.float64)
    column_numbers = np.arange(width + 1, dtype=np.int64)
    previous = np.tile(indices, (rows, 1))
    use_bounds = bounds_array is not None
    active_bounds = bounds_array[row_candidate_array] if use_bounds else None

    for i in range(1, m + 1):
        element = query_points[i - 1]
        matches = np.abs(padded[:, :, 0] - element[0]) <= epsilon
        for axis in range(1, dims):
            if not matches.any():
                break
            matches &= np.abs(padded[:, :, axis] - element[axis]) <= epsilon
        subcost = np.where(matches, 0.0, 1.0)

        tentative = np.empty((active.size, width + 1), dtype=np.float64)
        tentative[:, 0] = float(i)
        np.minimum(
            previous[:, 1:] + 1.0,
            previous[:, :-1] + subcost,
            out=tentative[:, 1:],
        )
        if use_bounds:
            # Masked row minimum over real columns: every DP path to any
            # final column crosses this row with non-negative step costs,
            # so row-min > bound kills every window at this start.  The
            # pre-propagation test is exact for the same prefix argument
            # as edr_many's.
            masked = np.where(
                column_numbers[None, :] <= active_lengths[:, None],
                tentative,
                np.inf,
            )
            alive = masked.min(axis=1) <= active_bounds
            if not alive.all():
                dead = ~alive
                np.add.at(
                    abandoned,
                    row_candidate_array[active[dead]],
                    active_lengths[dead] - active_low[dead] + 1,
                )
                if not alive.any():
                    # Every row is dead: each non-empty candidate's
                    # abandoned count already equals its window total,
                    # and empty candidates were priced up front.
                    return distances, starts, ends, evaluated, abandoned
                active = active[alive]
                active_lengths = active_lengths[alive]
                active_low = active_low[alive]
                tentative = tentative[alive]
                padded = padded[alive]
                active_bounds = active_bounds[alive]
                new_width = int(active_lengths.max())
                if new_width < width:
                    width = new_width
                    tentative = np.ascontiguousarray(tentative[:, : width + 1])
                    padded = np.ascontiguousarray(padded[:, :width])
                    indices = indices[: width + 1]
                    column_numbers = column_numbers[: width + 1]
        previous = indices + np.minimum.accumulate(tentative - indices, axis=1)

    # Extraction: valid ends for a row are columns lo_e..row_length; the
    # masked argmin's first-occurrence rule picks the smallest end, and
    # the ascending-start row order below keeps the smallest start.
    valid = (column_numbers[None, :] >= active_low[:, None]) & (
        column_numbers[None, :] <= active_lengths[:, None]
    )
    masked_final = np.where(valid, previous, np.inf)
    row_best = masked_final.min(axis=1)
    row_end = masked_final.argmin(axis=1)
    for slot in range(active.size):
        row_id = int(active[slot])
        position = int(row_candidate_array[row_id])
        value = float(row_best[slot])
        if value < distances[position]:
            distances[position] = value
            starts[position] = int(row_start_array[row_id])
            ends[position] = int(row_start_array[row_id] + row_end[slot])

    non_empty = np.array(
        [len(candidate_points) > 0 for candidate_points in points]
    )
    evaluated[non_empty] = totals[non_empty] - abandoned[non_empty]
    return distances, starts, ends, evaluated, abandoned
