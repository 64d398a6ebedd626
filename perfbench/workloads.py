"""Seeded inputs for the stack benchmark, and the direct-engine oracle.

Everything here is a pure function of the workload seed (and of one
fixed corpus seed): the request sequence the load generator sends, the
hot request pool and the trajectories the live-store writer inserts.
The server only ever
receives the generated inputs (a corpus file or ingest root, and
request bodies); it never sees the seed.

The oracle half builds the same database in the benchmark process and
answers a request through the public engine functions
(``knn_search``, ``subknn_search``, ``range_search``) so served answers
can be compared id for id, distance for distance, in tie order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import (
    Trajectory,
    TrajectoryDatabase,
    knn_search,
    range_search,
    subknn_search,
)
from repro.service.pruning import build_pruners

EPSILON = 0.5
K = 5
PRUNERS = "histogram,qgram"
ALPHA = 0.25
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Sizes:
    """The input sizes of one benchmark mode (full or smoke)."""

    corpus: int  # mixed-distinct / hot-fleet corpus size
    min_length: int
    max_length: int
    sub_length: int  # /subknn query length
    pool: int  # hot-fleet warmed request pool
    rate: float  # hot-fleet open-loop arrival rate, requests/s
    store: int  # live-store corpus size
    routes: int  # live-store route count
    insert_at: Tuple[float, ...]  # live-store inserts, as shares of the run
    compact_every: int  # compact after this many inserts
    probes: int  # live-store correctness probes per gate
    warm_reads: int  # live-store untimed reads before timing


FULL = Sizes(
    corpus=600, min_length=30, max_length=120, sub_length=24, pool=48,
    rate=100.0, store=4000, routes=200, insert_at=(0.1, 0.4),
    compact_every=2, probes=2, warm_reads=20,
)
SMOKE = Sizes(
    corpus=60, min_length=20, max_length=40, sub_length=10, pool=8,
    rate=20.0, store=300, routes=20, insert_at=(0.1, 0.4),
    compact_every=2, probes=2, warm_reads=2,
)


@dataclass(frozen=True)
class Request:
    """One generated request: its route, JSON body and parsed query."""

    op: str  # "knn" | "subknn" | "range"
    body: Dict[str, object]
    query: Trajectory

    @property
    def path(self) -> str:
        return "/" + self.op

    @cached_property
    def data(self) -> bytes:
        """The encoded body, built once so sending costs no encoding."""
        return json.dumps(self.body).encode("utf-8")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _walk(rng: np.random.Generator, length: int) -> np.ndarray:
    return np.cumsum(rng.normal(size=(length, 2)), axis=0)


# The corpora are fixed: the workload seed picks the requests, the hot
# pool and the inserted trajectories, never the data they run against,
# so runs on different seeds compare like with like.
CORPUS_SEED = 0


def random_walk_corpus(sizes: Sizes) -> List[Trajectory]:
    """Random walks with lengths in [min_length, max_length)."""
    rng = _rng(CORPUS_SEED, 1)
    return [
        Trajectory(
            _walk(rng, int(rng.integers(sizes.min_length, sizes.max_length)))
        )
        for _ in range(sizes.corpus)
    ]


_PATTERN = ("knn", "subknn", "knn", "range", "knn",
            "knn", "subknn", "knn", "range", "knn")
# A run cycles through a fixed set of base queries (two passes of the
# op pattern).  Every send re-jitters its base by a tenth of epsilon, so
# no two requests share a cache key or a batcher digest, yet every run
# does the same mix of work whatever its seed: the spread between runs
# is the program's and the machine's, not the draw's.
QUERY_SET = 2 * len(_PATTERN)
JITTER = 0.05


def _base_queries(sizes: Sizes, stream: int) -> List[tuple]:
    """``(op, points, length)`` for the fixed query set of ``stream``."""
    rng = _rng(CORPUS_SEED, 100 + stream)
    span = sizes.max_length - sizes.min_length
    counters = {"knn": 0, "subknn": 0, "range": 0}
    base = []
    for position in range(QUERY_SET):
        op = _PATTERN[position % len(_PATTERN)]
        counters[op] += 1
        if op == "subknn":
            length = sizes.sub_length
        else:
            # Successive golden-ratio multiples spread the lengths evenly
            # over [min_length, max_length); query cost grows with length.
            length = sizes.min_length + int((counters[op] * _GOLDEN) % 1.0 * span)
        base.append((op, _walk(rng, length), length))
    return base


def mixed_requests(
    seed: int, sizes: Sizes, count: int, stream: int = 2
) -> List[Request]:
    """Distinct requests: 60% /knn, 20% /subknn, 20% /range.

    The range radius is 0.88 of the query length: k-NN distances on this
    corpus sit at 0.87-0.95 of it, so a range query returns a handful of
    answers.  ``stream`` selects an independent query set (gate probes,
    the hot pool) from the same seed.
    """
    base = _base_queries(sizes, stream)
    rng = _rng(seed, stream)
    requests: List[Request] = []
    for position in range(count):
        op, points, length = base[position % len(base)]
        points = points + rng.normal(scale=JITTER, size=points.shape)
        if op == "subknn":
            body = {"query": points.tolist(), "k": K, "alpha": ALPHA}
        elif op == "knn":
            body = {"query": points.tolist(), "k": K}
        else:
            body = {"query": points.tolist(),
                    "radius": float(math.floor(0.88 * length))}
        requests.append(Request(op, body, Trajectory(np.asarray(body["query"]))))
    return requests


def route_bases(sizes: Sizes) -> List[np.ndarray]:
    """The shared route shapes of the live-store corpus (seed-free).

    Moving objects follow a small set of roads, so the store corpus is
    a few base walks plus per-object jitter, grouped by route in ingest
    order (the shape of ``benchmarks/bench_tiered.corpus_stream``).
    """
    rng = np.random.default_rng(4242)
    return [
        _walk(rng, int(rng.integers(30, 120))) for _ in range(sizes.routes)
    ]


def route_corpus(sizes: Sizes) -> List[Trajectory]:
    bases = route_bases(sizes)
    rng = _rng(CORPUS_SEED, 3)
    corpus = []
    for route, base in enumerate(bases):
        members = sizes.store // sizes.routes + (
            1 if route < sizes.store % sizes.routes else 0
        )
        for _ in range(members):
            corpus.append(
                Trajectory(base + rng.normal(scale=0.1, size=base.shape))
            )
    return corpus


def route_queries(seed: int, sizes: Sizes, stream: int) -> Iterator[Trajectory]:
    """An endless stream of jittered route walks, routes visited evenly."""
    bases = route_bases(sizes)
    rng = _rng(seed, stream)
    order = rng.permutation(len(bases))
    position = 0
    while True:
        base = bases[int(order[position % len(order)])]
        position += 1
        yield Trajectory(base + rng.normal(scale=0.1, size=base.shape))


def route_requests(seed: int, sizes: Sizes, count: int) -> List[Request]:
    queries = route_queries(seed, sizes, 4)
    requests = []
    for _ in range(count):
        query = next(queries)
        body = {"query": query.points.tolist(), "k": K}
        requests.append(Request("knn", body, Trajectory(np.asarray(body["query"]))))
    return requests


# ----------------------------------------------------------------------
# Oracle: the same answers straight from the engine functions
# ----------------------------------------------------------------------
class Oracle:
    """Direct engine answers over one in-process database."""

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        self.database = TrajectoryDatabase(list(trajectories), EPSILON)
        self.pruners = build_pruners(self.database, PRUNERS)

    def answer(self, request: Request) -> list:
        query = request.query
        if request.op == "knn":
            found, _ = knn_search(
                self.database, query, int(request.body["k"]), self.pruners,
                edr_kernel="auto",
            )
            return [(n.index, n.distance) for n in found]
        if request.op == "subknn":
            found, _ = subknn_search(
                self.database, query, int(request.body["k"]), self.pruners,
                alpha=float(request.body["alpha"]), edr_kernel="auto",
            )
            return [(m.index, m.start, m.end, m.distance) for m in found]
        found, _ = range_search(
            self.database, query, float(request.body["radius"]), self.pruners,
            edr_kernel="auto",
        )
        return [(n.index, n.distance) for n in found]


def served_answer(op: str, payload: dict) -> list:
    """The served payload in the oracle's tuple form."""
    if op == "knn":
        return [(n["index"], n["distance"]) for n in payload["neighbors"]]
    if op == "subknn":
        return [
            (m["index"], m["start"], m["end"], m["distance"])
            for m in payload["matches"]
        ]
    return [(n["index"], n["distance"]) for n in payload["results"]]


def plausible(request: Request, payload: dict, corpus_size: int) -> bool:
    """Cheap shape check applied to every timed response."""
    try:
        answer = served_answer(request.op, payload)
    except (KeyError, TypeError):
        return False
    if request.op != "range" and len(answer) != min(
        int(request.body["k"]), corpus_size
    ):
        return False
    distances = [row[-1] for row in answer]
    if any(not 0 <= row[0] < corpus_size for row in answer):
        return False
    if request.op == "range":
        return all(d <= float(request.body["radius"]) for d in distances)
    return distances == sorted(distances)
