"""Trajectory histograms and the HD lower bound of EDR (paper Section 4.3).

A trajectory histogram partitions space into equal ε-sized bins per axis
and counts the elements falling in each bin — the trajectory analogue of
a string's frequency vector.  The *histogram distance* HD between two
histograms lower-bounds EDR (Theorem 6) and is linear to compute, so it
makes a cheap pruning filter.

Because elements near a shared boundary of two bins can ε-match without
any edit operation, the distance must treat bins that *approximately
match* (the same bin or an adjacent one, Definition 5) as compatible.
This implementation computes HD as ``max(m, n) - M`` where ``M`` is the
maximum one-to-one pairing of elements across approximately-matching
bins (a small bipartite max-flow): every free match of an EDR script is
such a pair, so the bound can never exceed the true distance — including
the chained-match cases (A-B, B-C) where the paper's net-first
CompHisDist pseudo-code overshoots.  On exact-match (string) alphabets
the formula collapses to the classic frequency distance.

``M`` is computed by one :class:`HistogramMatcher` per query, built
once and reused for every candidate.  Engines only need to know whether
HD exceeds a threshold, and
:meth:`HistogramArrayStore.bulk_flow_ceilings` settles most of those
questions first: one greedy feasible flow per row, priced for many rows
in a few vectorized passes, bounds HD from above.

Bin-size variants: Corollary 1 allows histograms with bin size δ·ε
(δ >= 2) and per-axis one-dimensional histograms, both still lower
bounds of EDR at threshold ε.  :class:`HistogramSpace` covers all of
these — callers choose the bin size and the projection.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

try:  # SciPy is optional; the array store falls back to dense numpy.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None

from .trajectory import Trajectory

__all__ = [
    "HistogramMatcher",
    "HistogramSpace",
    "HistogramArrayStore",
    "histogram_distance",
    "histogram_distance_quick",
    "histogram_match_capacity",
    "histogram_window_bound",
    "TrajectoryHistogram",
]

BinIndex = Tuple[int, ...]
TrajectoryHistogram = Dict[BinIndex, int]


class HistogramSpace:
    """A grid of equal-size bins over d-dimensional space.

    Parameters
    ----------
    origin:
        Per-axis coordinate of the lower edge of bin 0.  Points below the
        origin simply land in negative bin indices, so query trajectories
        outside the dataset's bounding box are handled naturally.
    bin_size:
        Edge length of every bin on every axis.  For the HD lower bound
        to hold against ``EDR_eps``, ``bin_size`` must be ``delta * eps``
        for some ``delta >= 1`` **and** the histogram distance must treat
        adjacency at that same granularity — which this class guarantees
        by construction, since adjacency is defined on its own grid.
    """

    def __init__(self, origin: Sequence[float], bin_size: float) -> None:
        if bin_size <= 0.0:
            raise ValueError("bin size must be positive")
        self.origin = np.asarray(origin, dtype=np.float64).ravel()
        self.bin_size = float(bin_size)

    @classmethod
    def for_trajectories(
        cls,
        trajectories: Iterable[Trajectory],
        bin_size: float,
        axis: Optional[int] = None,
    ) -> "HistogramSpace":
        """Space anchored at the dataset's per-axis minimum (paper §4.3).

        With ``axis`` given, builds a one-dimensional space over that
        coordinate only (the Corollary 1 per-axis variant).
        """
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("need at least one trajectory to anchor the space")
        minima = np.min(
            [t.bounds()[0] for t in trajectories if len(t) > 0], axis=0
        )
        if axis is not None:
            minima = minima[axis : axis + 1]
        return cls(minima, bin_size)

    @property
    def ndim(self) -> int:
        return len(self.origin)

    def bin_indices(self, trajectory: Union[Trajectory, np.ndarray]) -> np.ndarray:
        """Integer bin index of every trajectory element, shape ``(n, d)``."""
        points = (
            trajectory.points if isinstance(trajectory, Trajectory) else
            np.atleast_2d(np.asarray(trajectory, dtype=np.float64))
        )
        if points.shape[1] != self.ndim:
            raise ValueError(
                f"space is {self.ndim}-d but points are {points.shape[1]}-d"
            )
        return np.floor((points - self.origin) / self.bin_size).astype(np.int64)

    def histogram(self, trajectory: Union[Trajectory, np.ndarray]) -> TrajectoryHistogram:
        """Sparse histogram: map from occupied bin index to element count."""
        indices = self.bin_indices(trajectory)
        return dict(Counter(map(tuple, indices.tolist())))


def _approximate_neighbors(bin_index: BinIndex) -> Iterable[BinIndex]:
    """The bin itself and all adjacent bins (Definition 5's approximate match)."""
    offsets = product((-1, 0, 1), repeat=len(bin_index))
    for offset in offsets:
        yield tuple(b + o for b, o in zip(bin_index, offset))


class HistogramMatcher:
    """Maximum ε-matchable mass between one query histogram and any candidate.

    The exact HD of :func:`histogram_distance` needs ``M``: the largest
    one-to-one pairing of elements across approximately-matching bins, a
    bipartite max-flow with the candidate bins (supply = count) on one
    side and the query bins (capacity = count) on the other.  Engines
    evaluate it for many candidates against one query, so everything
    that depends only on the query is built once here: a map from every
    grid bin to the query bins that approximately match it (Definition
    5), the bin itself listed first.

    :meth:`capacity` then solves one candidate in two steps:

    1. a greedy feasible flow — each candidate bin sends its mass to the
       matching query bins with capacity left, same bin first;
    2. BFS augmenting paths on the residual graph (forward edges between
       matching bins are uncapped, reverse edges carry the flow sent so
       far) until none is left.

    With no augmenting path left the flow is maximum, and the max-flow
    value is unique, so ``M`` does not depend on the greedy order.  One
    algorithm serves 1-D, 2-D and 3-D bins.

    The search engines reach the matcher only for the exact checks that
    the bulk flow ceiling (:meth:`HistogramArrayStore.bulk_flow_ceilings`)
    cannot settle — on the perfbench corpus about one /knn check in
    seventeen.
    """

    __slots__ = ("total", "_capacities", "_targets")

    def __init__(self, query: TrajectoryHistogram) -> None:
        self._capacities = list(query.values())
        self.total = sum(self._capacities)
        targets: Dict[BinIndex, List[int]] = {}
        if query:
            # Query bins and their neighbours as rows of one integer array:
            # one numpy pass instead of a generator per bin.
            keys = np.asarray(list(query), dtype=np.int64)
            offsets = np.array(
                list(product((-1, 0, 1), repeat=keys.shape[1])), dtype=np.int64
            )
            neighbors = (keys[:, None, :] + offsets[None, :, :]).tolist()
            for slot, around in enumerate(neighbors):
                for neighbor in around:
                    targets.setdefault(tuple(neighbor), []).append(slot)
        for slot, bin_index in enumerate(query):
            listed = targets[bin_index]
            listed.remove(slot)
            listed.insert(0, slot)
        self._targets = {key: tuple(slots) for key, slots in targets.items()}

    def capacity(self, candidate: TrajectoryHistogram) -> int:
        """``M``: the maximum matchable mass between query and ``candidate``."""
        targets_of = self._targets
        remaining = self._capacities[:]
        # into[query slot] = {candidate position: units sent}; a position
        # numbers the candidate bins that match any query bin.
        into: Dict[int, Dict[int, int]] = {}
        sources: List[Tuple[int, ...]] = []
        excess: Dict[int, int] = {}
        matched = 0

        # Step 1: greedy feasible flow, same bin first.
        for bin_index, amount in candidate.items():
            targets = targets_of.get(bin_index)
            if targets is None:
                continue
            position = len(sources)
            sources.append(targets)
            left = amount
            for slot in targets:
                free = remaining[slot]
                if not free:
                    continue
                sent = free if free < left else left
                remaining[slot] = free - sent
                senders = into.get(slot)
                if senders is None:
                    into[slot] = {position: sent}
                else:
                    senders[position] = sent
                left -= sent
                if not left:
                    break
            matched += amount - left
            if left:
                excess[position] = left

        # Step 2: BFS augmenting paths from every candidate bin with
        # unsent mass to any query bin with capacity left.
        while excess and matched < self.total:
            reached_slot: Dict[int, int] = {}  # query slot -> position
            reached_position = dict.fromkeys(excess, -1)  # -> via slot
            frontier = list(excess)
            end = -1
            while frontier and end < 0:
                grown = []
                for position in frontier:
                    for slot in sources[position]:
                        if slot in reached_slot:
                            continue
                        reached_slot[slot] = position
                        if remaining[slot]:
                            end = slot
                            break
                        for sender, units in into.get(slot, {}).items():
                            if units and sender not in reached_position:
                                reached_position[sender] = slot
                                grown.append(sender)
                    if end >= 0:
                        break
                frontier = grown
            if end < 0:
                break
            # Bottleneck: the query capacity, every reverse edge walked
            # back, and the unsent mass of the path's source.
            pushed = remaining[end]
            slot = end
            while True:
                position = reached_slot[slot]
                back = reached_position[position]
                if back < 0:
                    pushed = min(pushed, excess[position])
                    break
                pushed = min(pushed, into[back][position])
                slot = back
            remaining[end] -= pushed
            slot = end
            while True:
                position = reached_slot[slot]
                senders = into.setdefault(slot, {})
                senders[position] = senders.get(position, 0) + pushed
                back = reached_position[position]
                if back < 0:
                    excess[position] -= pushed
                    if not excess[position]:
                        del excess[position]
                    break
                into[back][position] -= pushed
                slot = back
            matched += pushed
        return matched

    def distance(self, candidate: TrajectoryHistogram) -> int:
        """HD against ``candidate``: ``max(m, n) - M`` (see :func:`histogram_distance`)."""
        return max(self.total, sum(candidate.values())) - self.capacity(candidate)


def histogram_distance(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """HD between two trajectory histograms: a sound lower bound of EDR.

    Computed as ``max(m, n) - M`` where ``M`` is the maximum number of
    one-to-one element pairings between the two histograms along
    approximately-matching bins (Definition 5), a max-flow solved by
    :class:`HistogramMatcher`.
    Soundness (Theorem 6): the free matches of an optimal EDR script are
    element pairs within ε, which always lie in approximately-matching
    bins, so they form one feasible pairing — hence ``p <= M`` and
    ``EDR >= max(m, n) - p >= max(m, n) - M``.

    On strings (exact-match adjacency) ``M`` collapses to the per-symbol
    minimum counts and this formula equals the classic frequency
    distance ``max(surplus, deficit)`` of [18, 2], so HD is the exact
    ε-generalization of FD.  Note that the paper's Figure 5 pseudo-code
    nets the two histograms *first* and then cancels adjacent bins; that
    version over-estimates when matches chain across bins (R's element
    in bin A matching S's in bin B while R's in B matches S's in C) and
    can exceed the true EDR — the flow form computed here never does,
    and the property-based test suite verifies it.
    """
    return HistogramMatcher(first).distance(second)


def histogram_match_capacity(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """Maximum one-to-one ε-matchable element pairs between two trajectories.

    Every ε-matching element pair lies in the same or adjacent bins, so
    any in-order common subsequence — in particular the LCSS alignment —
    induces a feasible flow between the two *full* histograms along
    approximately-matching bins.  The maximum such flow therefore upper
    bounds ``LCSS(R, S)``, which is how the paper's pruning framework
    transfers to LCSS (Section 4, "can also be applied to LCSS").
    """
    return HistogramMatcher(first).capacity(second)


def comphisdist_paper(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """Literal transcription of the paper's Figure 5 (CompHisDist).

    Nets the histograms bin-by-bin first, then walks the bins and
    cancels opposite-sign amounts between approximately-matching bins,
    finally returning ``max(positive, negative)``.

    Kept for comparison and documentation only: when matches chain
    across bins (R's element in bin A matches S's in bin B while R's in
    B matches S's in C), the netting step hides the chain and this
    quantity can exceed the true EDR — see
    ``tests/test_histogram.py::TestPaperCompHisDist`` for the concrete
    counterexample.  Use :func:`histogram_distance` for retrieval.
    """
    difference: Dict[BinIndex, int] = {}
    for bin_index in set(first) | set(second):
        value = first.get(bin_index, 0) - second.get(bin_index, 0)
        if value != 0:
            difference[bin_index] = value
    for bin_index in sorted(difference):
        if difference.get(bin_index, 0) == 0:
            continue
        for neighbor in _approximate_neighbors(bin_index):
            if neighbor == bin_index or difference.get(neighbor, 0) == 0:
                continue
            current = difference.get(bin_index, 0)
            if current == 0:
                break
            other = difference[neighbor]
            if (current > 0) != (other > 0):
                cancelled = min(abs(current), abs(other))
                difference[bin_index] = current - cancelled * (1 if current > 0 else -1)
                difference[neighbor] = other - cancelled * (1 if other > 0 else -1)
    positive = sum(v for v in difference.values() if v > 0)
    negative = sum(-v for v in difference.values() if v < 0)
    return max(positive, negative)


def histogram_distance_quick(
    first: TrajectoryHistogram, second: TrajectoryHistogram
) -> int:
    """A cheaper, weaker lower bound of EDR than :func:`histogram_distance`.

    Bounds the matchable mass M from above per side —
    ``M <= sum_u min(H_R(u), neighbourhood mass of H_S around u)`` and
    symmetrically — without solving the flow, giving
    ``max(m, n) - min(upper_R, upper_S) <= HD <= EDR`` in one dictionary
    sweep.  The search engines consult this first and only pay for the
    exact flow when the quick bound fails to prune.
    """
    total_first = sum(first.values())
    total_second = sum(second.values())
    if not first or not second:
        return max(total_first, total_second)

    def matchable_upper(source: TrajectoryHistogram, target: TrajectoryHistogram) -> int:
        upper = 0
        for bin_index, amount in source.items():
            neighborhood = 0
            for neighbor in _approximate_neighbors(bin_index):
                neighborhood += target.get(neighbor, 0)
                if neighborhood >= amount:
                    neighborhood = amount
                    break
            upper += neighborhood
        return upper

    upper = min(matchable_upper(first, second), matchable_upper(second, first))
    return max(total_first, total_second) - upper


def histogram_window_bound(
    query_histogram: TrajectoryHistogram,
    candidate_histogram: TrajectoryHistogram,
) -> int:
    """A lower bound of EDR valid for *every* window of the candidate.

    Only the query-side matchable-mass cap of
    :func:`histogram_distance_quick` survives restriction to windows: a
    window's histogram is elementwise dominated by its trajectory's, so
    the candidate mass reachable from each query bin can only shrink,
    giving for every window ``w``

        ``EDR(Q, w) >= HD(Q, w) >= |Q| - matchable_upper(Q -> T)``.

    The ``max(m, n)`` term and the candidate-side cap both depend on the
    window's own size and content, so they are dropped.  Equals the
    corresponding entry of
    :meth:`HistogramArrayStore.bulk_window_bounds` bit for bit.
    """
    total_query = sum(query_histogram.values())
    if not query_histogram:
        return 0
    upper = 0
    for bin_index, amount in query_histogram.items():
        neighborhood = 0
        for neighbor in _approximate_neighbors(bin_index):
            neighborhood += candidate_histogram.get(neighbor, 0)
            if neighborhood >= amount:
                neighborhood = amount
                break
        upper += neighborhood
    return max(0, total_query - upper)


# ----------------------------------------------------------------------
# Array-backed histogram store (bulk filter kernels)
# ----------------------------------------------------------------------
# Above this many grid cells the dense (N, bins) count matrix switches to
# a CSR representation (when scipy is present) to keep memory bounded.
_DENSE_CELL_LIMIT = 8_000_000
# Working-set cap of one flow-ceiling chunk: (neighbourhood columns x
# rows) cells, about 1 MB per int32 working array.
_CEILING_CELLS = 1 << 18


class HistogramArrayStore:
    """All histograms of one database variant as a single count matrix.

    The per-trajectory ``dict`` histograms are the build- and exact-bound
    representation; this store re-packs them into one ``(N, bins)`` count
    matrix over the database's occupied bin range (padded by one bin per
    axis so adjacency never falls off the grid), which makes the *quick*
    HD bound of :func:`histogram_distance_quick` computable for every
    database trajectory in a handful of vectorized operations instead of
    N dictionary sweeps.  The matrix is dense numpy for small grids and
    scipy CSR for large ones (dense is kept when scipy is unavailable).

    The bulk bound is integer-exact: for every candidate ``i`` the value
    equals ``histogram_distance_quick(query_histogram, histograms[i])``
    bit for bit, which the property-based test suite asserts.
    """

    def __init__(
        self, histograms: Sequence[TrajectoryHistogram], ndim: int
    ) -> None:
        self.ndim = int(ndim)
        self.count = len(histograms)
        occupied = [key for histogram in histograms for key in histogram]
        if not occupied:
            # Degenerate (all-empty) histograms: keep a 1-cell grid.
            self._lo = np.zeros(self.ndim, dtype=np.int64)
            self._shape = np.ones(self.ndim, dtype=np.int64)
        else:
            keys = np.asarray(occupied, dtype=np.int64).reshape(len(occupied), -1)
            self._lo = keys.min(axis=0) - 1
            self._shape = keys.max(axis=0) + 1 - self._lo + 1
        self.cells = int(np.prod(self._shape))
        self.totals = np.array(
            [sum(histogram.values()) for histogram in histograms], dtype=np.int64
        )

        row_ids: List[np.ndarray] = []
        columns: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for row, histogram in enumerate(histograms):
            if not histogram:
                continue
            keys = np.asarray(list(histogram), dtype=np.int64).reshape(
                len(histogram), -1
            )
            columns.append(self._ravel(keys))
            values.append(np.fromiter(histogram.values(), dtype=np.int64))
            row_ids.append(np.full(len(histogram), row, dtype=np.int64))
        rows = np.concatenate(row_ids) if row_ids else np.empty(0, dtype=np.int64)
        cols = np.concatenate(columns) if columns else np.empty(0, dtype=np.int64)
        vals = np.concatenate(values) if values else np.empty(0, dtype=np.int64)

        use_sparse = (
            _scipy_sparse is not None
            and self.count * self.cells > _DENSE_CELL_LIMIT
        )
        if use_sparse:
            self._counts = _scipy_sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.count, self.cells), dtype=np.int64
            )
            self._sparse = True
        else:
            counts = np.zeros((self.count, self.cells), dtype=np.int64)
            np.add.at(counts, (rows, cols), vals)
            self._counts = counts
            self._sparse = False

    @classmethod
    def from_state(
        cls,
        ndim: int,
        lo: np.ndarray,
        shape: np.ndarray,
        totals: np.ndarray,
        counts,
        sparse: bool = False,
    ) -> "HistogramArrayStore":
        """Rebuild a store from its raw arrays, skipping the binning pass.

        The sharded engine packs a store's row slice (``totals`` and
        ``counts``) into shared memory together with the *parent grid*
        (``lo``/``shape``): shard stores must keep the global grid, not
        re-derive one from their own rows, or the neighborhood columns —
        and therefore the quick bounds — would shift at shard borders.
        ``counts`` is the dense ``(count, cells)`` matrix, or the CSR
        triple ``(data, indices, indptr)`` when ``sparse`` is true.
        """
        store = cls.__new__(cls)
        store.ndim = int(ndim)
        store._lo = np.asarray(lo, dtype=np.int64)
        store._shape = np.asarray(shape, dtype=np.int64)
        store.cells = int(np.prod(store._shape))
        store.totals = np.asarray(totals, dtype=np.int64)
        store.count = len(store.totals)
        if sparse:
            if _scipy_sparse is None:  # pragma: no cover - needs scipy absent
                raise RuntimeError("CSR histogram state needs scipy")
            data, indices, indptr = counts
            store._counts = _scipy_sparse.csr_matrix(
                (data, indices, indptr), shape=(store.count, store.cells)
            )
            store._sparse = True
        else:
            store._counts = counts
            store._sparse = False
        return store

    def _ravel(self, keys: np.ndarray) -> np.ndarray:
        """Flat grid column of every (in-grid) d-dimensional bin index."""
        return np.ravel_multi_index(tuple((keys - self._lo).T), tuple(self._shape))

    def _in_grid(self, keys: np.ndarray) -> np.ndarray:
        relative = keys - self._lo
        return np.all((relative >= 0) & (relative < self._shape), axis=1)

    def bulk_quick_bounds(self, query_histogram: TrajectoryHistogram) -> np.ndarray:
        """``histogram_distance_quick(query, ·)`` against every database row.

        Vectorized transcription of the per-side matchable-mass caps: with
        ``A`` the query amounts and ``NS[i, u]`` candidate ``i``'s mass in
        the 3^d-neighborhood of query bin ``u``,

            ``upper_query[i]     = sum_u min(A[u], NS[i, u])``
            ``upper_candidate[i] = sum_v min(counts[i, v], QN[v])``

        where ``QN`` is the query's neighborhood mass on the grid; the
        bound is ``max(m_query, m_i) - min(upper_query, upper_candidate)``.
        """
        query_total = int(sum(query_histogram.values()))
        if not query_histogram:
            return np.maximum(query_total, self.totals).astype(np.int64)
        query_keys = np.asarray(list(query_histogram), dtype=np.int64).reshape(
            len(query_histogram), -1
        )
        amounts = np.fromiter(query_histogram.values(), dtype=np.int64)
        offsets = np.array(
            list(product((-1, 0, 1), repeat=self.ndim)), dtype=np.int64
        )

        # Neighborhoods of the query bins, as (query bin, grid column) pairs.
        neighbor_bins = (query_keys[:, None, :] + offsets[None, :, :]).reshape(
            -1, self.ndim
        )
        bin_of_pair = np.repeat(np.arange(len(query_keys)), len(offsets))
        in_grid = self._in_grid(neighbor_bins)
        pair_bins = bin_of_pair[in_grid]
        pair_columns = self._ravel(neighbor_bins[in_grid])

        # upper_query: candidate mass around each query bin, capped by A.
        unique_columns, column_slot = np.unique(pair_columns, return_inverse=True)
        indicator = np.zeros((len(unique_columns), len(query_keys)), dtype=np.int64)
        indicator[column_slot, pair_bins] = 1
        candidate_neighborhood = self._counts[:, unique_columns] @ indicator
        candidate_neighborhood = np.asarray(candidate_neighborhood)
        upper_query = np.minimum(amounts[None, :], candidate_neighborhood).sum(
            axis=1
        )

        # upper_candidate: query neighborhood mass at every grid cell the
        # candidates occupy, capped by the candidate counts.
        query_neighborhood = np.zeros(self.cells, dtype=np.int64)
        np.add.at(query_neighborhood, pair_columns, amounts[pair_bins])
        if self._sparse:
            counts = self._counts
            capped = np.minimum(counts.data, query_neighborhood[counts.indices])
            upper_candidate = np.add.reduceat(
                np.append(capped, 0), counts.indptr[:-1]
            )
            upper_candidate[np.diff(counts.indptr) == 0] = 0
        else:
            upper_candidate = np.minimum(
                self._counts, query_neighborhood[None, :]
            ).sum(axis=1)

        upper = np.minimum(upper_query, upper_candidate)
        return np.maximum(query_total, self.totals) - upper

    def bulk_window_bounds(
        self, query_histogram: TrajectoryHistogram
    ) -> np.ndarray:
        """:func:`histogram_window_bound` against every database row.

        Only the query-side cap of :meth:`bulk_quick_bounds` is
        window-sound (see :func:`histogram_window_bound`), so this is
        the same neighborhood gather with the candidate-side cap and the
        ``max(m, n)`` term dropped:
        ``max(0, m_query - upper_query[i])`` per candidate.  Query bins
        outside the padded grid contribute zero matchable mass on both
        paths, so the bulk values equal the scalar ones bit for bit.
        """
        query_total = int(sum(query_histogram.values()))
        if not query_histogram:
            return np.zeros(self.count, dtype=np.int64)
        query_keys = np.asarray(list(query_histogram), dtype=np.int64).reshape(
            len(query_histogram), -1
        )
        amounts = np.fromiter(query_histogram.values(), dtype=np.int64)
        offsets = np.array(
            list(product((-1, 0, 1), repeat=self.ndim)), dtype=np.int64
        )
        neighbor_bins = (query_keys[:, None, :] + offsets[None, :, :]).reshape(
            -1, self.ndim
        )
        bin_of_pair = np.repeat(np.arange(len(query_keys)), len(offsets))
        in_grid = self._in_grid(neighbor_bins)
        pair_bins = bin_of_pair[in_grid]
        pair_columns = self._ravel(neighbor_bins[in_grid])
        if pair_columns.size == 0:
            # Every query bin sits outside the database grid: nothing in
            # any trajectory (or window) can match.
            return np.full(self.count, query_total, dtype=np.int64)
        unique_columns, column_slot = np.unique(pair_columns, return_inverse=True)
        indicator = np.zeros((len(unique_columns), len(query_keys)), dtype=np.int64)
        indicator[column_slot, pair_bins] = 1
        candidate_neighborhood = self._counts[:, unique_columns] @ indicator
        candidate_neighborhood = np.asarray(candidate_neighborhood)
        upper_query = np.minimum(amounts[None, :], candidate_neighborhood).sum(
            axis=1
        )
        return np.maximum(0, query_total - upper_query)

    def bulk_flow_ceilings(
        self,
        query_histogram: TrajectoryHistogram,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """An upper bound of the exact HD against each row in ``rows``.

        Prices every row with one feasible flow ``F_i`` instead of the
        maximum ``M_i`` of :class:`HistogramMatcher`: all query bins
        first send to the candidate's same bin, then to each of the
        3^d - 1 neighbour offsets in a fixed order, as much as both
        sides still hold.  Under one offset ``b -> b + o`` is injective,
        so each stage is a single vectorized ``minimum`` and subtract
        over a ``(query bins, rows)`` array, with no conflicts to solve.
        A feasible flow never exceeds the maximum one, so

            ``max(m, n_i) - F_i >= max(m, n_i) - M_i = HD_i``:

        a ceiling at or below a pruning threshold proves the exact bound
        cannot prune, without running the matcher.  Identical histograms
        get 0 (the same-bin stage already matches everything).

        ``rows`` defaults to every row; they are priced in chunks so the
        working set stays near ``_CEILING_CELLS`` cells.
        """
        if rows is None:
            rows = np.arange(self.count)
        rows = np.asarray(rows, dtype=np.int64)
        query_total = int(sum(query_histogram.values()))
        ceilings = np.maximum(query_total, self.totals[rows])
        if not query_histogram or rows.size == 0:
            return ceilings
        query_keys = np.asarray(list(query_histogram), dtype=np.int64).reshape(
            len(query_histogram), -1
        )
        amounts = np.fromiter(query_histogram.values(), dtype=np.int64)
        offsets = np.array(
            sorted(product((-1, 0, 1), repeat=self.ndim), key=any), dtype=np.int64
        )  # the zero offset (same bin) first
        neighbor_bins = (query_keys[:, None, :] + offsets[None, :, :]).reshape(
            -1, self.ndim
        )
        in_grid = self._in_grid(neighbor_bins)
        if not in_grid.any():
            return ceilings
        columns, slots = np.unique(
            self._ravel(neighbor_bins[in_grid]), return_inverse=True
        )
        slot_of = np.full(len(neighbor_bins), -1, dtype=np.int64)
        slot_of[in_grid] = slots
        slot_of = slot_of.reshape(len(query_keys), len(offsets))
        stages = []
        for stage in slot_of.T:
            bins = np.nonzero(stage >= 0)[0]
            if bins.size == len(query_keys):
                stages.append((None, stage))  # every query bin takes part
            elif bins.size:
                stages.append((bins, stage[bins]))

        chunk = max(1, _CEILING_CELLS // len(columns))
        for start in range(0, rows.size, chunk):
            part = rows[start : start + chunk]
            # The transposed column slice: one row per neighbourhood
            # column, one column per priced row.  Counts fit int32.
            if self._sparse:
                part = self._counts[part][:, columns].toarray()
            else:
                part = self._counts[np.ix_(part, columns)]
            mass = np.ascontiguousarray(part.T, dtype=np.int32)
            left = np.repeat(amounts.astype(np.int32)[:, None], mass.shape[1], axis=1)
            for bins, slot in stages:
                held = mass[slot]
                if bins is None:
                    sent = np.minimum(left, held)
                    left -= sent
                else:
                    offered = left[bins]
                    sent = np.minimum(offered, held)
                    left[bins] = offered - sent
                held -= sent
                mass[slot] = held
            ceilings[start : start + chunk] -= query_total - left.sum(
                axis=0, dtype=np.int64
            )
        return ceilings
