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

``answers``/``window_answers`` flatten engine results into comparable
tuples; ``payload_answers``/``payload_windows`` produce the JSON shapes
the HTTP service serves, so served bytes compare against the same
oracle.  Ordering contracts mirror the engines: k-NN ranks on
``(distance, index)``, range results arrive in index order, and each
trajectory's best window resolves ties on ``(distance, start, end)``.
"""

from collections import deque
from itertools import product

from repro import Trajectory, edr
from repro.core.subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    resolve_window_range,
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
