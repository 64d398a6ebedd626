"""Subtrajectory similarity search: best-matching *window* per trajectory.

The whole-trajectory engines answer "which trajectories are close to the
query"; passively collected corpora more often need "where *inside* each
trajectory does the query appear" — the subtrajectory similarity search
of Koide et al. (arXiv:2006.05564), restated for EDR.  For a query ``Q``
of length ``m``, every contiguous window ``T[s:e]`` of a corpus
trajectory whose length falls in the band ``[m·(1-α), m·(1+α)]`` is a
candidate answer; :func:`subknn_search` returns the k windows of
smallest ``EDR(Q, T[s:e])``, at most one (the best) per trajectory.

Window enumeration shares one DP per start instead of recomputing per
window: for a fixed start ``s``, the DP of ``Q`` against the suffix
``T[s:s+hi]`` yields ``EDR(Q, T[s:s+j])`` for *every* end at once — it
is the bottom-row cell ``D[m][j]``.  :func:`edr_windows_many` runs that
DP bit-parallel (Myers, J. ACM 1999; blocked as in Hyyrö 2003): the
query lies along the bits of ``ceil(m/64)`` words, each *(trajectory,
start)* lane walks its text columns, and after column ``j`` the
bottom-row score is the previous one plus the last query bit of ``HP``
minus that of ``HN`` (the word update is
:func:`~repro.core.edr_bitparallel.advance_blocks`, shared with the
whole-trajectory kernel).  EDR's unit costs (Definition 2) are what make
the 0/1 formulation exact.  The ε-match mask of each candidate element
is packed once and every lane reading that element gathers it, so a
band of width ``w`` costs one ``O(hi·m/64)`` pass per start instead of
``w`` float DPs.

Pruning reuses the bulk pruner kernels through *window-sound* bounds
(:meth:`~repro.core.search.QueryPruner.bulk_window_lower_bounds`): a
single per-trajectory value proven to lower-bound ``EDR(Q, w)`` for
every window ``w`` of that trajectory, so one comparison against the
current k-th best window distance prunes all of its windows at once.
Soundness per family (property-tested in
``tests/test_subtrajectory.py``):

* **Q-grams** — a window's Q-gram multiset is a sub-multiset of its
  trajectory's, so ``common(Q, w) <= common(Q, T)``; Theorem 1 with
  ``max(m, |w|) >= m`` gives ``EDR(Q, w) >= (m - q + 1 - common(Q, T)) / q``.
* **Histograms** — a window's histogram is elementwise dominated by its
  trajectory's, so the matchable-mass cap computed from the *query*
  side against the whole trajectory only grows:
  ``EDR(Q, w) >= HD(Q, w) >= m - matchable_upper(Q -> T)``
  (:func:`~repro.core.histogram.histogram_window_bound`).  The per-axis
  max of the 1-D variant stays sound because each axis bounds alone.
* **Near triangle inequality** — reference distances say nothing about
  windows, so the family contributes the trivial zero bound.

Early abandoning stays per *start*: the bottom-row minimum over columns
``0..L`` exceeding the frozen threshold proves every window at that
start is farther.  It is the last of the DP's row minima, which never
decrease with the row index (every DP path to any final column crosses
each row and step costs are non-negative), so it exceeds the threshold
iff some row minimum does: the windows counted abandoned are those a
row-by-row DP would abandon, whichever axis the kernel walks.

Counter determinism: per-lane DP results are independent of batch
composition and the threshold is frozen per round (no cooperative
mid-round tightening), so ``windows_evaluated`` / ``windows_pruned`` /
``windows_abandoned`` are byte-identical across the serial, sharded, and
tiered engines — the invariant the differential fuzz suite asserts,
together with ``evaluated + pruned + abandoned == windows_total``.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .database import TrajectoryDatabase
from .edr import _points
from .edr_batch import DEFAULT_REFINE_BATCH_SIZE, TrajectoryLike, iter_length_buckets
from .edr_bitparallel import _ONE, _ONES, advance_blocks
from .kernels import length_bucket, resolve_kernel_plan
from .search import Pruner, SearchStats
from .trajectory import Trajectory

__all__ = [
    "WindowMatch",
    "DEFAULT_WINDOW_ALPHA",
    "WINDOW_KERNEL",
    "resolve_window_range",
    "window_counts",
    "window_dp_cells",
    "edr_windows",
    "edr_windows_many",
    "subknn_search",
]

# Half-width of the relative window-length band: windows of length
# within ±25% of the query's are considered unless overridden.
DEFAULT_WINDOW_ALPHA = 0.25

# Kernel name the window DP reports through SearchStats (payloads,
# ``stats.kernel`` and trace keys).  The window DP has one kernel — the
# bit-parallel pass of :func:`edr_windows_many` — whatever the
# whole-trajectory kernel table says.
WINDOW_KERNEL = "windowed"


class WindowMatch:
    """One subtrajectory answer: ``trajectory[start:end]`` at ``distance``."""

    __slots__ = ("index", "start", "end", "distance")

    def __init__(self, index: int, start: int, end: int, distance: float) -> None:
        self.index = int(index)
        self.start = int(start)
        self.end = int(end)
        self.distance = float(distance)

    def __repr__(self) -> str:
        return (
            f"WindowMatch(index={self.index}, start={self.start}, "
            f"end={self.end}, distance={self.distance})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowMatch):
            return NotImplemented
        return (self.index, self.start, self.end, self.distance) == (
            other.index,
            other.start,
            other.end,
            other.distance,
        )

    def __hash__(self) -> int:
        return hash((self.index, self.start, self.end, self.distance))

    def as_tuple(self) -> Tuple[int, int, int, float]:
        return (self.index, self.start, self.end, self.distance)


WindowSearchResult = Tuple[List[WindowMatch], SearchStats]


class _WindowResultList:
    """The k best windows, keyed canonically on ``(distance, index)``.

    Mirrors the engines' ``_ResultList``: each trajectory contributes at
    most one (its best) window, so the database index disambiguates
    distance ties and offers are commutative — any arrival order yields
    the same contents, which is what lets the sharded merge pass offer
    eagerly.  The per-trajectory tie among equally distant windows is
    already resolved inside the DP kernel (smallest start, then smallest
    end), so ``start``/``end`` never participate in the ordering.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._keys: List[Tuple[float, int]] = []
        self._items: List[WindowMatch] = []

    @property
    def best_so_far(self) -> float:
        """The current k-th window distance — infinite until k exist."""
        if len(self._items) < self.k:
            return float("inf")
        return self._keys[-1][0]

    def offer(self, index: int, start: int, end: int, distance: float) -> None:
        if not np.isfinite(distance):
            return
        key = (float(distance), int(index))
        if len(self._items) >= self.k and key >= self._keys[-1]:
            return
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._items.insert(position, WindowMatch(index, start, end, distance))
        del self._keys[self.k :]
        del self._items[self.k :]

    def matches(self) -> List[WindowMatch]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


def resolve_window_range(
    query_length: int,
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
) -> Tuple[int, int]:
    """The inclusive window-length band ``[lo, hi]`` for a query.

    ``alpha`` sets the relative band ``[m·(1-α), m·(1+α)]`` (rounded
    outward to integers, floored at one element); explicit
    ``min_window`` / ``max_window`` override either edge.  Trajectories
    shorter than ``lo`` still contribute their single whole-trajectory
    window — a short trajectory is its own best effort, and dropping it
    would make the engine's answer depend on corpus composition.
    """
    if query_length < 1:
        raise ValueError("subtrajectory search requires a non-empty query")
    if alpha < 0.0:
        raise ValueError("window band alpha must be non-negative")
    lo = (
        int(min_window)
        if min_window is not None
        else max(1, math.ceil(query_length * (1.0 - alpha)))
    )
    hi = (
        int(max_window)
        if max_window is not None
        else max(lo, math.floor(query_length * (1.0 + alpha)))
    )
    if lo < 1:
        raise ValueError("minimum window length must be at least 1")
    if hi < lo:
        raise ValueError("maximum window length must not undercut the minimum")
    return lo, hi


def _effective_band(n: int, lo: int, hi: int) -> Tuple[int, int]:
    """Per-trajectory band: clamp ``[lo, hi]`` to a length-``n`` trajectory."""
    return min(lo, n), min(hi, n)


def window_counts(
    lengths: Union[Sequence[int], np.ndarray], lo: int, hi: int
) -> np.ndarray:
    """Number of windows in the band, per trajectory, in closed form.

    With the effective band ``[lo_e, hi_e]`` (the global band clamped to
    the trajectory length ``n``): starts ``0..n-hi_e`` carry the full
    ``hi_e - lo_e + 1`` end choices, and the tail starts lose one choice
    each — a triangle.  Empty trajectories count their single empty
    window.  This is the denominator behind ``windows_total`` and the
    per-trajectory increment behind ``windows_pruned``.
    """
    n = np.asarray(lengths, dtype=np.int64)
    lo_e = np.minimum(lo, n)
    hi_e = np.minimum(hi, n)
    band = hi_e - lo_e
    counts = (n - hi_e + 1) * (band + 1) + band * (band + 1) // 2
    return np.where(n <= 0, np.int64(1), counts)


def window_dp_cells(
    lengths: Union[Sequence[int], np.ndarray], lo: int, hi: int
) -> np.ndarray:
    """Per-trajectory DP cells of one windowed pass (one query row each).

    The lane for start ``s`` spans ``min(hi_e, n - s)`` columns; summing
    over starts gives the per-query-row cell count in closed form.  Used
    for ``SearchStats`` kernel-throughput attribution: times ``m`` it
    counts every cell the windows need — abandonment is decided from the
    finished bottom row, so no lane stops early.
    """
    n = np.asarray(lengths, dtype=np.int64)
    lo_e = np.minimum(lo, n)
    hi_e = np.minimum(hi, n)
    band = hi_e - lo_e
    cells = (n - hi_e + 1) * hi_e + band * (lo_e + hi_e - 1) // 2
    return np.where(n <= 0, np.int64(0), cells)


def _element_match_words(
    candidate_points: Sequence[np.ndarray],
    query_points: np.ndarray,
    epsilon: float,
    tail: int,
) -> List[np.ndarray]:
    """ε-match masks of every candidate element against the whole query.

    The query lies along the bits: bit ``i % 64`` of block ``i // 64``
    of entry ``t`` says whether query element ``i`` matches element
    ``t`` of the concatenated candidates (padding bits are zero).  One
    contiguous ``uint64`` vector per block, so a lane reading element
    ``t`` at any column fetches its mask by gather instead of
    re-comparing.  ``|t - q| <= ε`` per axis, the row DP's predicate.
    ``tail`` all-zero entries follow the last element, so lanes that
    run past their text still gather in bounds.
    """
    planes = np.ascontiguousarray(np.concatenate(candidate_points).T)
    m = len(query_points)
    # Query-major comparisons keep numpy's inner loop on the long axis.
    difference = np.empty((m, planes.shape[1]), dtype=np.float64)
    matches = np.empty((m, planes.shape[1]), dtype=bool)
    for axis, plane in enumerate(planes):
        np.subtract(plane[None, :], query_points[:, axis, None], out=difference)
        np.abs(difference, out=difference)
        if axis:
            matches &= difference <= epsilon
        else:
            np.less_equal(difference, epsilon, out=matches)
    words = (m + 63) // 64
    padded = np.zeros((planes.shape[1] + tail, words * 64), dtype=bool)
    padded[: planes.shape[1], :m] = matches.T
    packed = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    return [np.ascontiguousarray(packed[:, block]) for block in range(words)]


def _bottom_rows(
    eq_words: List[np.ndarray], first_element: np.ndarray, width: int, m: int
) -> np.ndarray:
    """Bottom-row scores of every lane, one Myers pass per lane.

    Lane ``r`` walks the text elements ``first_element[r]``,
    ``first_element[r] + 1``, … for ``width`` columns.  ``D[0][j] = j``
    and ``D[i][0] = i``, so the vertical words start all-ones and block
    0 takes a ``+1`` carry per column.  After column ``j`` the score
    ``D[m][j]`` is the previous score plus the last query bit of ``HP``
    minus that of ``HN``.

    Returns ``bottom`` of shape ``(width + 1, lanes)``: ``bottom[j, r]``
    is ``D[m][j]`` of lane ``r`` — ``EDR(query, text[s : s + j])`` while
    ``j`` is within the lane's own text, meaningless past it.
    """
    lanes = first_element.size
    bottom = np.empty((width + 1, lanes), dtype=np.int32)
    bottom[0] = m
    score = np.full(lanes, m, dtype=np.int64)
    element = first_element.copy()
    vp_blocks = [np.full(lanes, _ONES, dtype=np.uint64) for _ in eq_words]
    vn_blocks = [np.zeros(lanes, dtype=np.uint64) for _ in eq_words]
    score_shift = np.uint64((m - 1) % 64)
    for column in range(1, width + 1):
        hp, hn = advance_blocks(
            vp_blocks, vn_blocks, [eq_block[element] for eq_block in eq_words]
        )
        rise = hp >> score_shift
        rise &= _ONE
        fall = hn >> score_shift
        fall &= _ONE
        score += rise.view(np.int64)
        score -= fall.view(np.int64)
        bottom[column] = score
        element += 1
    return bottom


def edr_windows_many(
    query: TrajectoryLike,
    candidates: Sequence[TrajectoryLike],
    epsilon: float,
    lo: int,
    hi: int,
    bounds: Optional[Union[float, Sequence[float], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best banded window of every candidate, in one bit-parallel pass.

    For each candidate the minimum of ``EDR(query, candidate[s:e])``
    over all windows with ``lo <= e - s <= hi`` (band clamped per
    trajectory; candidates shorter than ``lo`` contribute their whole
    self) — ties broken on smallest ``start`` then smallest ``end``.

    Lanes of the pass are *(candidate, start)* pairs.  The query lies
    along the bits; each lane walks its text columns
    ``candidate[s], candidate[s + 1], …`` and reads the bottom-row score
    ``EDR(query, candidate[s : s + j])`` after every column ``j``, so
    one pass prices every end of every start (see the module notes).

    ``bounds`` (scalar or per candidate) enables per-start abandonment:
    a start whose bottom-row minimum over columns ``0..L`` exceeds the
    bound has *every* window proven farther, and its windows count as
    abandoned.  Lanes are priced independently, so results and counters
    do not depend on how candidates are grouped into batches.

    Returns ``(distances, starts, ends, evaluated, abandoned)`` arrays:
    the best distance (``inf`` when every window was abandoned), its
    window ``[start, end)``, and per-candidate counts of windows whose
    exact distance was computed vs. proven farther than the bound.
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
    lengths = np.array([len(p) for p in points], dtype=np.int64)
    if m > 0 and any(
        len(p) and p.shape[1] != query_points.shape[1] for p in points
    ):
        raise ValueError("trajectories must have the same spatial arity")
    bounds_array: Optional[np.ndarray] = None
    if bounds is not None:
        bounds_array = np.broadcast_to(np.asarray(bounds, dtype=np.float64), (count,))

    # The empty trajectory offers only its empty window: every query
    # element must be deleted.  Always evaluated — there is no DP.
    empty = lengths == 0
    distances[empty] = float(m)
    evaluated[empty] = 1
    present = np.flatnonzero(~empty)
    if present.size == 0:
        return distances, starts, ends, evaluated, abandoned
    n = lengths[present]
    low = np.minimum(lo, n)
    totals = window_counts(n, lo, hi)
    if m == 0:
        # No query rows: D[0][j] = j, so the shortest window at start 0
        # wins, and with no DP row there is nothing to abandon.
        distances[present] = low
        ends[present] = low
        evaluated[present] = totals
        return distances, starts, ends, evaluated, abandoned

    # Lanes in (candidate, start) order — the order the tie-break reads.
    lanes_per = n - low + 1
    first_lane = np.cumsum(lanes_per) - lanes_per
    owner = np.repeat(np.arange(present.size), lanes_per)
    lane_start = np.arange(int(lanes_per.sum())) - first_lane[owner]
    lane_length = np.minimum(np.minimum(hi, n)[owner], n[owner] - lane_start)
    element_offset = np.cumsum(n) - n

    width = int(lane_length.max())
    eq_words = _element_match_words(
        [points[int(position)] for position in present], query_points, epsilon, width
    )
    bottom = _bottom_rows(eq_words, element_offset[owner] + lane_start, width, m)
    # Columns past a lane's text get a sentinel above every real score.
    sentinel = m + width + 1
    np.putmask(bottom, np.arange(width + 1)[:, None] > lane_length, sentinel)

    # Valid ends are columns lo..L; a candidate shorter than lo has one
    # lane whose only window is the whole trajectory (column L = n).
    first_end = min(lo, width)
    best = bottom[first_end:].min(axis=0).astype(np.int64)
    best_end = bottom[first_end:].argmin(axis=0) + first_end
    short = np.flatnonzero(lane_length < lo)
    best[short] = bottom[lane_length[short], short]
    best_end[short] = lane_length[short]
    if bounds_array is not None:
        # Abandonment: the bottom-row minimum over columns 0..L is the
        # last of the DP's non-decreasing row minima, so it exceeds the
        # bound iff some row minimum does — the row DP's rule.
        dead = ~(bottom.min(axis=0) <= bounds_array[present][owner])
        best[dead] = sentinel
        abandoned[present] = np.bincount(
            owner[dead],
            weights=(lane_length - low[owner] + 1)[dead],
            minlength=present.size,
        ).astype(np.int64)

    # One key per lane orders (distance, start) within a candidate, so a
    # segment minimum picks the smallest start among equal distances.
    lanes = best.size
    key = best * lanes + np.arange(lanes)
    winner = np.minimum.reduceat(key, first_lane)
    winner_lane = winner % lanes
    found = winner // lanes < sentinel
    chosen = present[found]
    lane_ids = winner_lane[found]
    distances[chosen] = best[lane_ids]
    starts[chosen] = lane_start[lane_ids]
    ends[chosen] = lane_start[lane_ids] + best_end[lane_ids]
    evaluated[present] = totals - abandoned[present]
    return distances, starts, ends, evaluated, abandoned


def edr_windows(
    query: TrajectoryLike,
    candidate: TrajectoryLike,
    epsilon: float,
    lo: int,
    hi: int,
    bound: Optional[float] = None,
) -> Tuple[float, int, int]:
    """Best banded window of one candidate: ``(distance, start, end)``.

    Single-candidate convenience over :func:`edr_windows_many`; the
    distance is ``inf`` when ``bound`` abandoned every window.
    """
    distances, starts, ends, _, _ = edr_windows_many(
        query, [candidate], epsilon, lo, hi, bounds=bound
    )
    return float(distances[0]), int(starts[0]), int(ends[0])


def subknn_search(
    database: TrajectoryDatabase,
    query: Trajectory,
    k: int,
    pruners: Sequence[Pruner] = (),
    alpha: float = DEFAULT_WINDOW_ALPHA,
    min_window: Optional[int] = None,
    max_window: Optional[int] = None,
    early_abandon: bool = False,
    refine_batch_size: Optional[int] = DEFAULT_REFINE_BATCH_SIZE,
    edr_kernel: Optional[str] = None,
) -> WindowSearchResult:
    """Exact top-k subtrajectory search: the k closest banded windows.

    Runs the same frozen-round sorted scan as the sharded engine:
    candidates are visited in ascending order of the primary pruner's
    *window-sound* bulk bound; each round freezes the current k-th best
    window distance as the threshold, prunes whole trajectories whose
    window bound exceeds it (charging all their windows to
    ``windows_pruned``), and prices the survivors' windows through
    :func:`edr_windows_many` in length-ordered batches.  A sorted break
    — the primary bound of the next candidate exceeding the threshold —
    retires every remaining candidate at once, exactly like the
    whole-trajectory sorted engines.

    Answers are byte-for-byte those of the brute-force window oracle:
    pruning compares sound per-window lower bounds strictly against the
    threshold, so a window that could enter the result is never skipped,
    and abandonment (enabled by ``early_abandon``) only discards windows
    proven farther than the frozen threshold.

    ``edr_kernel`` is accepted for interface symmetry and validated
    against the kernel registry, but the window DP has a single kernel
    (:data:`WINDOW_KERNEL`, the bit-parallel pass of
    :func:`edr_windows_many`), which reads the bottom-row score after
    every text column — the per-end extraction the whole-trajectory
    kernels, which return only the final distance, do not offer.
    """
    started = time.perf_counter()
    query_points = _points(query)
    m = len(query_points)
    lo, hi = resolve_window_range(m, alpha, min_window, max_window)
    total = len(database)
    lengths = np.asarray(database.lengths, dtype=np.int64)
    counts = window_counts(lengths, lo, hi)
    cells_per_row = window_dp_cells(lengths, lo, hi)
    stats = SearchStats(database_size=total)
    stats.windows_total = int(counts.sum())
    stats.kernel = WINDOW_KERNEL
    if edr_kernel is not None:
        # Validation (and, for "auto", the shared tuning table) only:
        # the window DP itself has a single implementation.
        resolve_kernel_plan(database, edr_kernel)
    result = _WindowResultList(k)
    if refine_batch_size is None:
        refine_batch_size = DEFAULT_REFINE_BATCH_SIZE
    round_size = max(2, int(refine_batch_size))

    names: List[str] = []
    bound_arrays: List[np.ndarray] = []
    for pruner in pruners:
        query_pruner = pruner.for_query(query)
        names.append(query_pruner.name)
        bound_arrays.append(
            np.asarray(query_pruner.bulk_window_lower_bounds(), dtype=np.float64)
        )
    order_keys = bound_arrays[0] if bound_arrays else np.zeros(total)
    order = np.argsort(order_keys, kind="stable")

    fetch_many = getattr(database.trajectories, "fetch_many", None)
    position = 0
    while position < total:
        threshold = result.best_so_far
        finite = np.isfinite(threshold)
        chunk: List[int] = []
        while position < total and len(chunk) < round_size:
            candidate = int(order[position])
            if finite:
                if order_keys[candidate] > threshold:
                    # Sorted break: the primary bound only grows from
                    # here, so the primary retires every remaining
                    # candidate — and all of their windows.
                    remaining = order[position:]
                    stats.pruned_by[names[0]] = (
                        stats.pruned_by.get(names[0], 0) + int(remaining.size)
                    )
                    stats.windows_pruned += int(counts[remaining].sum())
                    position = total
                    break
                pruned = False
                for name, bounds in zip(names[1:], bound_arrays[1:]):
                    if bounds[candidate] > threshold:
                        stats.credit(name)
                        stats.windows_pruned += int(counts[candidate])
                        pruned = True
                        break
                if pruned:
                    position += 1
                    continue
            chunk.append(candidate)
            position += 1
        if not chunk:
            continue
        bound = float(threshold) if (early_abandon and finite) else None
        chunk_lengths = lengths[np.asarray(chunk, dtype=np.int64)]
        for bucket in iter_length_buckets(chunk_lengths, round_size):
            members = [chunk[int(slot)] for slot in bucket]
            if fetch_many is not None:
                candidates = fetch_many(members)
            else:
                candidates = [database.trajectories[index] for index in members]
            tick = time.perf_counter()
            distances, starts_, ends_, evaluated, abandoned = edr_windows_many(
                query_points, candidates, database.epsilon, lo, hi, bounds=bound
            )
            stats.note_kernel(
                WINDOW_KERNEL,
                int(m * cells_per_row[members].sum()),
                time.perf_counter() - tick,
            )
            stats.kernel_buckets[
                str(length_bucket(int(chunk_lengths[int(bucket[-1])])))
            ] = WINDOW_KERNEL
            for slot, member in enumerate(members):
                stats.true_distance_computations += 1
                stats.windows_evaluated += int(evaluated[slot])
                stats.windows_abandoned += int(abandoned[slot])
                result.offer(
                    member,
                    int(starts_[slot]),
                    int(ends_[slot]),
                    float(distances[slot]),
                )

    stats.elapsed_seconds = time.perf_counter() - started
    return result.matches(), stats
