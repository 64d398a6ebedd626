"""Stack benchmark: the served query path, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed-distinct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload hot-fleet --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload live-store --seed 1 --repeat 5
    python3 perfbench/run.py --workload mixed-distinct --smoke

Each run starts its own ``repro serve`` process(es) from ``src/``,
drives them over HTTP from this one process with at most two
connections, checks served answers against the engine functions called
directly, and prints a metric table followed by one JSON line.  With
``--trace 0`` the JSON carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, measured by a second
server launched through ``perfbench/launch.py`` with span wrappers
installed (the first half of that run is untraced, for the overhead).
``--repeat N`` runs the workload N times on consecutive seeds and
reports each metric's median and quartile spread; ``--smoke`` runs
tiny inputs for the benchmark's own tests.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``mixed-distinct`` -- default server over an in-memory random-walk
  corpus; two closed-loop clients send never-repeating /knn, /subknn and
  /range requests, so nearly all time is engine time.
* ``hot-fleet`` -- the same corpus behind ``--replicas 2``; a warmed pool
  of requests is replayed open loop at a fixed rate with Zipf picks, so
  the time is HTTP, router, pipe RPC and replica cache.
* ``live-store`` -- a tiered-store ingest root served with ``--follow
  --shards 2``; one closed-loop /knn reader beside a writer that inserts
  on a fixed schedule and compacts every few inserts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mixed-distinct", "hot-fleet", "live-store")
SETUP_REPEATS = 3
CLIENTS = 2
ZIPF_EXPONENT = 1.1


# ----------------------------------------------------------------------
# Metric helpers
# ----------------------------------------------------------------------
def quantile(values, fraction: float) -> float:
    """Linear-interpolation quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values) -> float:
    return quantile(values, 0.5)


def cpu_times() -> List[int]:
    """``/proc/stat`` aggregate CPU ticks (steal is field 7)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


class Run:
    """Everything one invocation shares: inputs, sizes, tallies, output."""

    def __init__(self, args: argparse.Namespace) -> None:
        import workloads

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.sizes = workloads.SMOKE if args.smoke else workloads.FULL
        self.workdir = ROOT / ".perfbench_work" / f"{self.workload}-{os.getpid()}"
        self.outdir = ROOT / ".perfbench_out"
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)
        self.counts: Dict[str, int] = {}  # name -> samples behind it
        self.notes: List[str] = []
        self.cpu_start = cpu_times()

    # -- tallies -------------------------------------------------------
    def tally(self, samples) -> None:
        self.attempted += len(samples)
        self.failed += sum(1 for sample in samples if not sample.ok)

    def gate(self, label: str, pairs) -> None:
        """Count each (request, served ok, equal) probe; record mismatches."""
        for request, served_ok, equal in pairs:
            self.attempted += 1
            if not (served_ok and equal):
                self.failed += 1
                self.mismatches.append(f"{label}: {request.op} answer differs")

    def put(self, name: str, value: float, unit: str,
            count: Optional[int] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if count is not None:
            self.counts[name] = count

    # -- servers -------------------------------------------------------
    def server(self, args, *, traced: bool = False, tag: str = "server",
               cpus=None):
        from serverproc import ServerProcess

        return ServerProcess(
            args,
            workdir=self.workdir,
            src=SRC,
            launcher=HERE / "launch.py" if traced else None,
            trace_out=self.workdir / f"{tag}-trace.json" if traced else None,
            cpus=cpus,
        )


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def measure_setups(run: Run, start: Callable[[int], object]):
    """Start ``SETUP_REPEATS`` servers one after another; keep the last.

    ``start(i)`` returns ``(server, seconds)``; every server but the last
    is drained (and checked for debris) straight away.  Reports the
    median set-up time.
    """
    times = []
    server = None
    for attempt in range(SETUP_REPEATS if not run.trace else 1):
        if server is not None:
            server.stop()
        server, seconds = start(attempt)
        times.append(seconds)
    if not run.trace:
        run.put("setup_s", median(times), "s", len(times))
    return server


def json_check(request_ok: Callable) -> Callable:
    def check(request, data: bytes) -> bool:
        try:
            payload = json.loads(data)
        except ValueError:
            return False
        return request_ok(request, payload)

    return check


def latency_metrics(run: Run, samples, seconds_span: float) -> None:
    ok = [s for s in samples if s.ok]
    latencies = [s.latency_ms for s in ok]
    run.put("throughput_rps", ratio(len(ok), seconds_span), "1/s",
            len(ok))
    run.put("latency_p50_ms", median(latencies), "ms", len(latencies))
    knn = [s.latency_ms for s in ok if s.op == "knn"]
    run.put("knn_p50_ms", median(knn), "ms", len(knn))


def extra_latencies(samples) -> Dict[str, tuple]:
    """The workload-specific end-to-end figures: (value, unit, samples)."""
    ok = [s for s in samples if s.ok]
    out = {}
    for op in ("subknn", "range"):
        values = [s.latency_ms for s in ok if s.op == op]
        out[f"{op}_p50_ms"] = (median(values), "ms", len(values))
    values = [s.latency_ms for s in ok]
    out["latency_p90_ms"] = (quantile(values, 0.9), "ms", len(values))
    out["latency_p99_ms"] = (quantile(values, 0.99), "ms", len(values))
    out["error_rate"] = (
        ratio(sum(1 for s in samples if not s.ok), len(samples)), "ratio",
        len(samples),
    )
    return out


def span_of(samples) -> float:
    if not samples:
        return 0.0
    return max(s.done for s in samples) - min(s.due for s in samples)


# ----------------------------------------------------------------------
# mixed-distinct
# ----------------------------------------------------------------------
def mixed_distinct(run: Run) -> None:
    import loadgen
    import workloads
    from repro.data.io import save_npz

    sizes = run.sizes
    corpus = workloads.random_walk_corpus(sizes)
    corpus_file = run.workdir / "corpus.npz"
    save_npz(corpus_file, corpus)
    oracle = workloads.Oracle(corpus)
    probes = workloads.mixed_requests(run.seed, sizes, 10, stream=5)
    before = [probes[0], probes[1], probes[3]]  # knn, subknn, range
    after = [probes[4], probes[6], probes[8]]
    requests = workloads.mixed_requests(run.seed, sizes, 2000)
    args = [str(corpus_file), "--epsilon", str(workloads.EPSILON),
            "--k", str(workloads.K)]
    check = json_check(
        lambda request, payload: workloads.plausible(request, payload,
                                                     len(corpus))
    )

    def start(_attempt):
        server = run.server(args).start()
        return server, server.setup_s

    def phase(server, seconds, label):
        run.gate(f"{label} gate before", probe_pairs(server, before, oracle))
        samples = loadgen.closed_loop(
            server.port, requests, seconds, clients=CLIENTS, check=check,
            keep_payloads=True,
        )
        run.tally(samples)
        verify_sample(run, samples, requests, oracle, label)
        run.gate(f"{label} gate after", probe_pairs(server, after, oracle))
        return samples

    server = measure_setups(run, start)
    try:
        seconds = run.seconds / 2 if run.trace else run.seconds
        samples = phase(server, seconds, "untraced")
        rss = server.peak_rss
    finally:
        server.stop()
    latency_metrics(run, samples, span_of(samples))
    run.put("server_rss_mb", rss / 2**20, "MB")
    extras = extra_latencies(samples)
    if not run.trace:
        report_extras(run, extras)
        return
    traced = run.server(args, traced=True, tag="mixed").start()
    try:
        traced_samples = phase(traced, run.seconds / 2, "traced")
        traced_stats = traced.stats()
    finally:
        traced.stop()
    layers(run, "mixed", traced_samples, traced_stats, extras, samples)


def probe_pairs(server, requests, oracle):
    """Send each probe once and compare with the direct engine answer."""
    import loadgen
    import workloads

    client = loadgen.Client(server.port)
    pairs = []
    try:
        for request in requests:
            status, data = client.post(request.path, request.data)
            ok = status == 200
            equal = ok and workloads.served_answer(
                request.op, json.loads(data)
            ) == oracle.answer(request)
            pairs.append((request, ok, equal))
    finally:
        client.close()
    return pairs


def verify_sample(run: Run, samples, requests, oracle, label: str) -> None:
    """Check two timed responses against the engine, chosen by seed."""
    import numpy as np
    import workloads

    import loadgen

    by_digest = {
        loadgen.body_digest(request.data): request
        for request in requests[: len(samples) + CLIENTS]
    }
    ok = [s for s in samples if s.ok and s.payload is not None]
    if not ok:
        return
    rng = np.random.default_rng([run.seed, 7])
    for position in rng.choice(len(ok), size=min(2, len(ok)), replace=False):
        sample = ok[int(position)]
        request = by_digest[sample.body_digest]
        equal = workloads.served_answer(
            request.op, json.loads(sample.payload)
        ) == oracle.answer(request)
        if not equal:
            sample.ok = False
            run.failed += 1
            run.mismatches.append(f"{label} timed: {request.op} answer differs")


def report_extras(run: Run, extras: Dict[str, tuple]) -> None:
    for name, (value, unit, count) in extras.items():
        run.notes.append(f"{name:<26} {value:12.4f} {unit:<6} n={count}")


# ----------------------------------------------------------------------
# hot-fleet
# ----------------------------------------------------------------------
def hot_fleet(run: Run) -> None:
    import numpy as np

    import loadgen
    import workloads
    from repro.data.io import save_npz

    sizes = run.sizes
    corpus = workloads.random_walk_corpus(sizes)
    corpus_file = run.workdir / "corpus.npz"
    save_npz(corpus_file, corpus)
    oracle = workloads.Oracle(corpus)
    # The pool's engine cost is paid once, untimed; short queries keep
    # that warm-up cheap without changing what the timed phase serves.
    pool = workloads.mixed_requests(
        run.seed, replace(sizes, max_length=sizes.min_length * 2),
        sizes.pool, stream=6,
    )
    probes = [pool[0], pool[1], pool[3]]  # knn, subknn, range
    rng = np.random.default_rng([run.seed, 8])
    weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
    picks = rng.choice(len(pool), size=int(run.seconds * sizes.rate) + 1,
                       p=weights / weights.sum())
    args = [str(corpus_file), "--epsilon", str(workloads.EPSILON),
            "--k", str(workloads.K), "--replicas", "2"]

    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = set(cpus[:-1]) if len(cpus) > 1 else None

    def start(_attempt, traced=False):
        server = run.server(args, traced=traced, tag="fleet",
                            cpus=server_cpus).start()
        return server, server.setup_s

    def phase(server, seconds, label):
        # Untimed warm-up: every pool entry computed once, so the timed
        # phase is served from the fleet cache.
        warm = {}
        client = loadgen.Client(server.port)
        try:
            for request in pool:
                status, data = client.post(request.path, request.data)
                ok = status == 200
                run.attempted += 1
                if not ok:
                    run.failed += 1
                    continue
                warm[loadgen.body_digest(request.data)] = (
                    workloads.served_answer(request.op, json.loads(data))
                )
        finally:
            client.close()
        run.gate(f"{label} gate before", [
            (request, True,
             warm.get(loadgen.body_digest(request.data))
             == oracle.answer(request))
            for request in probes
        ])

        def check(request, data):
            try:
                answer = workloads.served_answer(request.op, json.loads(data))
            except (ValueError, KeyError, TypeError):
                return False
            return answer == warm.get(loadgen.body_digest(request.data))

        if server_cpus is not None:
            os.sched_setaffinity(0, {cpus[-1]})
        try:
            samples = loadgen.open_loop(
                server.port, lambda i: pool[int(picks[i])], seconds,
                rate=sizes.rate, connections=CLIENTS, check=check,
            )
        finally:
            os.sched_setaffinity(0, cpus)
        run.tally(samples)
        run.gate(f"{label} gate after", probe_pairs(server, probes, oracle))
        return samples

    server = measure_setups(run, start)
    try:
        seconds = run.seconds / 2 if run.trace else run.seconds
        samples = phase(server, seconds, "untraced")
        rss = server.peak_rss
    finally:
        server.stop()
    latency_metrics(run, samples, span_of(samples))
    run.put("server_rss_mb", rss / 2**20, "MB")
    extras = extra_latencies(samples)
    extras["late_p99_ms"] = (
        quantile([s.late_ms for s in samples], 0.99), "ms", len(samples)
    )
    if not run.trace:
        report_extras(run, extras)
        return
    traced, _ = start(0, traced=True)
    try:
        traced_samples = phase(traced, run.seconds / 2, "traced")
        traced_stats = traced.stats()
    finally:
        traced.stop()
    layers(run, "fleet", traced_samples, traced_stats, extras, samples)


# ----------------------------------------------------------------------
# live-store
# ----------------------------------------------------------------------
class Writer(threading.Thread):
    """Inserts on a fixed schedule and compacts every few inserts.

    Insert ``i`` is due at ``insert_at[i]`` times the phase length.  The
    schedule is early in the phase, so every hot swap it causes (each
    insert and each compaction makes the server reopen the root) ends
    inside the timed window in every run rather than straddling its end.
    Each insert goes through ``MutableDatabase.insert`` (WAL append);
    its visibility is the time until the server's ``/stats`` reports an
    ``ingest.applied_seq`` at least the insert's sequence number.
    """

    def __init__(self, root, port: int, trajectories, seconds: float,
                 insert_at, compact_every: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.port = port
        self.trajectories = trajectories
        self.dues = [share * seconds for share in insert_at]
        self.compact_every = compact_every
        self.append_ms: List[float] = []
        self.visible_ms: List[float] = []
        self.compact_s: List[float] = []
        self.last_seq = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._run()
        except BaseException as error:  # reported by the main thread
            self.error = error

    def _applied_seq(self, client) -> int:
        status, data = client.get("/stats")
        if status != 200:
            return -1
        return int(json.loads(data)["ingest"]["applied_seq"])

    def _run(self) -> None:
        import loadgen
        from repro import compact_ingest_root

        client = loadgen.Client(self.port)
        mutable = self.root.open_mutable()
        start = time.monotonic()
        inserted = 0
        try:
            for offset in self.dues:
                time.sleep(max(0.0, start + offset - time.monotonic()))
                tick = time.monotonic()
                mutable.insert(next(self.trajectories))
                returned = time.monotonic()
                self.append_ms.append((returned - tick) * 1000.0)
                self.last_seq = mutable.applied_seq
                deadline = returned + 60.0
                while self._applied_seq(client) < self.last_seq:
                    if time.monotonic() > deadline:
                        raise RuntimeError("insert never became visible")
                    time.sleep(0.05)
                self.visible_ms.append((time.monotonic() - returned) * 1000.0)
                inserted += 1
                if inserted % self.compact_every == 0:
                    mutable.close()
                    tick = time.monotonic()
                    compact_ingest_root(self.root)
                    self.compact_s.append(time.monotonic() - tick)
                    mutable = self.root.open_mutable()
        finally:
            mutable.close()
            client.close()


def live_store(run: Run) -> None:
    import loadgen
    import workloads
    from repro import IngestRoot

    sizes = run.sizes
    corpus = workloads.route_corpus(sizes)
    requests = workloads.route_requests(run.seed, sizes, 2000)
    probes = workloads.route_requests(run.seed + 10**6, sizes, sizes.probes)
    warm = workloads.route_requests(run.seed + 2 * 10**6, sizes,
                                    sizes.warm_reads)
    initial_oracle = workloads.Oracle(corpus)

    def args_for(root):
        return ["--ingest-root", str(root), "--follow", "--shards", "2",
                "--k", str(workloads.K)]

    roots = []  # one fresh ingest root per server; the last is live

    def start(attempt, traced=False, tag="server"):
        root_dir = run.workdir / f"root-{tag}-{attempt}"
        tick = time.perf_counter()
        roots.append(IngestRoot.init(root_dir, corpus, workloads.EPSILON,
                                     kind="store"))
        init_s = time.perf_counter() - tick
        server = run.server(args_for(root_dir), traced=traced, tag=tag).start()
        return server, init_s + server.setup_s

    check = json_check(
        lambda request, payload: workloads.plausible(
            request, payload, 10**9
        )
    )

    def phase(server, seconds, label):
        root = roots[-1]
        run.gate(f"{label} gate before",
                 probe_pairs(server, probes, initial_oracle))
        # Untimed reads first, so the timed window starts on a shard pool
        # that has already forked and served.
        client = loadgen.Client(server.port)
        try:
            run.tally([loadgen.send(client, request, time.monotonic(), False,
                                    check) for request in warm])
        finally:
            client.close()
        writer = Writer(root, server.port,
                        workloads.route_queries(run.seed, sizes, 5), seconds,
                        sizes.insert_at, sizes.compact_every)
        writer.start()
        samples = loadgen.closed_loop(server.port, requests, seconds,
                                      clients=1, check=check)
        writer.join(120.0)
        if writer.is_alive() or writer.error is not None:
            raise RuntimeError(f"writer failed: {writer.error}")
        run.attempted += len(writer.append_ms)
        run.tally(samples)
        settle(server, root)
        final = root.open_mutable(repair=False)
        try:
            trajectories, _ = final.snapshot()
        finally:
            final.close()
        run.gate(f"{label} gate after", probe_pairs(
            server, probes, workloads.Oracle(trajectories)
        ))
        return samples, writer

    server = measure_setups(run, start)
    try:
        seconds = run.seconds / 2 if run.trace else run.seconds
        samples, writer = phase(server, seconds, "untraced")
        swaps = server.stats()["ingest"]["swaps"]
        rss = server.peak_rss
    finally:
        server.stop()
    latency_metrics(run, samples, span_of(samples))
    run.put("server_rss_mb", rss / 2**20, "MB")
    extras = extra_latencies(samples)
    extras["write_visible_p50_ms"] = (
        median(writer.visible_ms), "ms", len(writer.visible_ms)
    )
    run.notes.append(f"hot swaps during the run: {swaps}")
    if not run.trace:
        report_extras(run, extras)
        return
    traced, _ = start(0, traced=True, tag="live")
    try:
        traced_samples, traced_writer = phase(traced, run.seconds / 2,
                                              "traced")
        traced_stats = traced.stats()
    finally:
        traced.stop()
    layers(run, "live", traced_samples, traced_stats, extras, samples)
    store_layers(run, roots[-1], probes, traced_writer, traced_stats)


def settle(server, root, timeout: float = 60.0) -> None:
    """Wait until the server serves the root's current published state."""
    deadline = time.monotonic() + timeout
    mutable = root.open_mutable(repair=False)
    try:
        want_seq, want_gen = mutable.applied_seq, mutable.generation
    finally:
        mutable.close()
    while time.monotonic() < deadline:
        ingest = server.stats()["ingest"]
        if ingest["applied_seq"] >= want_seq and ingest["generation"] == want_gen:
            return
        time.sleep(0.05)
    raise RuntimeError("server never caught up with the ingest root")


def store_layers(run: Run, root, probes, writer, stats) -> None:
    """Storage and ingest layers, timed by calling their public API."""
    from repro.core.batch import warm_pruners
    from repro.service.pruning import build_pruners
    from repro.storage.tiered import TieredDatabase

    import workloads

    generation = root.current()["generation"]
    tiered = TieredDatabase.open(root.root / generation / "store",
                                 pool_pages=256)
    try:
        pruners = build_pruners(tiered.database, workloads.PRUNERS)
        touched = pages = hits = misses = opened = 0
        for request in probes:
            _, stats_ = tiered.knn_search(request.query, workloads.K, pruners)
            touched += stats_.bytes_touched
            pages += stats_.pages_read
            hits += stats_.pool_hits
            misses += stats_.pool_misses
            opened += stats_.blocks_opened
    finally:
        tiered.close()
    count = len(probes)
    run.put("store.bytes_touched", ratio(touched, count), "B")
    run.put("store.pages_read", ratio(pages, count), "count")
    run.put("store.pool_hit_rate", ratio(hits, hits + misses), "ratio")
    run.put("store.blocks_opened", ratio(opened, count), "count")

    tick = time.perf_counter()
    mutable = root.open_mutable(repair=False)
    view = mutable.view()
    chain = build_pruners(view, workloads.PRUNERS)
    warm_pruners(chain, view.trajectories[0])
    run.put("swap.s", time.perf_counter() - tick, "s")
    mutable.close()
    run.put("wal.append_ms", median(writer.append_ms), "ms",
            len(writer.append_ms))
    run.put("compact.s", median(writer.compact_s), "s", len(writer.compact_s))
    run.put("ingest.swaps", stats["ingest"]["swaps"], "count")


# ----------------------------------------------------------------------
# Per-layer metrics from the traced server
# ----------------------------------------------------------------------
END_TO_END = ("setup_s", "throughput_rps", "latency_p50_ms", "knn_p50_ms",
              "server_rss_mb")
# Every per-layer metric with its unit.  A traced run reports all of
# them; a layer the workload never reaches reads 0.
PER_LAYER = {
    "http.server_ms": "ms", "http.overhead_ms": "ms",
    "http.response_bytes": "B",
    "batcher.wait_ms": "ms", "batcher.mean_batch_size": "count",
    "batcher.coalesced": "count",
    "cache.hit_rate": "ratio", "cache.evictions": "count",
    "router.coalesced": "count", "router.spillovers": "count",
    "router.shed": "count", "rpc.hop_ms": "ms", "replica.imbalance": "ratio",
    "engine.knn_ms": "ms", "engine.refine_ratio": "ratio",
    "engine.pruning_power": "ratio",
    "filter.setup_ms": "ms", "filter.quick_ms": "ms",
    "filter.pruned.histogram": "count", "filter.pruned.qgram": "count",
    "exact.ms": "ms", "exact.calls": "count", "exact.prune_rate": "ratio",
    "kernel.cells": "count", "kernel.cells_per_s.scalar": "1/s",
    "kernel.cells_per_s.batched": "1/s",
    "kernel.cells_per_s.bitparallel": "1/s",
    "window.ms": "ms", "window.evaluated_ratio": "ratio",
    "window.pruned_ratio": "ratio", "window.cells_per_s": "1/s",
    "range.ms": "ms", "range.refine_ratio": "ratio",
    "shard.knn_ms": "ms", "shard.rounds": "count",
    "shard.imbalance": "ratio", "shard.build_s": "s",
    "store.bytes_touched": "B", "store.pages_read": "count",
    "store.pool_hit_rate": "ratio", "store.blocks_opened": "count",
    "wal.append_ms": "ms", "swap.s": "s", "ingest.swaps": "count",
    "compact.s": "s",
    "warm.histograms_s": "s", "warm.qgram_s": "s", "warm.kernels_s": "s",
    "loadgen.late_p99_ms": "ms", "trace.overhead_pct": "%",
    "e2e.subknn_p50_ms": "ms", "e2e.range_p50_ms": "ms",
    "e2e.latency_p90_ms": "ms", "e2e.latency_p99_ms": "ms",
    "e2e.write_visible_p50_ms": "ms", "e2e.error_rate": "ratio",
}


def durations_ms(spans, name: str, keep=None) -> List[float]:
    return [
        (span[4] - span[3]) * 1000.0
        for span in spans
        if span[2] == name and (keep is None or keep(span))
    ]


def self_times(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total ms and self ms (minus child cover)."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        start, end = span[3], span[4]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[3]):
            low, high = max(child[3], cursor), min(child[4], end)
            if high > low:
                covered += high - low
                cursor = high
        row = table.setdefault(span[2], {"calls": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1000.0
        row["self_ms"] += (end - start - covered) * 1000.0
    return table


def layers(run: Run, tag: str, samples, stats: dict, extras: Dict[str, tuple],
           untraced_samples) -> None:
    """Fold the traced server's spans, counters and /stats into metrics."""
    for name, unit in PER_LAYER.items():
        run.put(name, 0.0, unit)
    trace = json.loads((run.workdir / f"{tag}-trace.json").read_text())
    spans, counters = trace["spans"], trace["counters"]
    compute = ("/knn", "/subknn", "/range")
    handle = [s for s in spans if s[2] == "http.handle"
              and s[6]["route"] in compute]
    run.put("http.server_ms", median([(s[4] - s[3]) * 1000 for s in handle]),
            "ms", len(handle))
    by_digest: Dict[str, List[list]] = {}
    for span in handle:
        by_digest.setdefault(span[6]["digest"], []).append(span)
    overheads = []
    for sample in samples:
        for span in by_digest.get(sample.body_digest, ()):
            if sample.sent <= span[3] and span[4] <= sample.done:
                overheads.append(
                    (sample.done - sample.sent - (span[4] - span[3])) * 1000
                )
                break
    run.put("http.overhead_ms", median(overheads), "ms", len(overheads))
    run.put("http.response_bytes",
            statistics.fmean([s.response_bytes for s in samples] or [0]), "B",
            len(samples))

    runs = [s for s in spans if s[2] == "batcher.run"]
    waits = []
    for span in spans:
        if span[2] != "batcher.submit":
            continue
        for batch in runs:
            if (span[6]["payload"] in batch[6]["payloads"]
                    and span[3] <= batch[3] and batch[4] <= span[4]):
                waits.append((span[4] - span[3] - (batch[4] - batch[3])) * 1000)
                break
    run.put("batcher.wait_ms", median(waits), "ms", len(waits))
    batcher = stats.get("batcher", {})
    run.put("batcher.mean_batch_size", batcher.get("mean_batch_size", 0.0),
            "count")
    run.put("batcher.coalesced", batcher.get("coalesced", 0), "count")

    fleet = stats.get("replicas", {})
    cache = fleet.get("fleet", {}).get("cache") or stats.get("cache", {})
    run.put("cache.hit_rate",
            ratio(cache.get("hits", 0), cache.get("hits", 0)
                  + cache.get("misses", 0)), "ratio")
    run.put("cache.evictions", cache.get("evictions", 0), "count")
    if "router" in fleet:
        router = fleet["router"]
        run.put("router.coalesced", router["coalesced"], "count")
        run.put("router.spillovers", router["spillovers"], "count")
        run.put("router.shed", router["shed"], "count")
        served = [r.get("served", 0) for r in fleet.get("per_replica", [])]
        run.put("replica.imbalance", ratio(max(served or [0]),
                                           statistics.fmean(served or [0])),
                "ratio")
    hops = durations_ms(spans, "rpc.call", lambda s: s[6]["op"] != "stats")
    run.put("rpc.hop_ms", median(hops), "ms", len(hops))

    engine_calls = counters.get("engine.calls", 0)
    knn = durations_ms(spans, "engine.knn")
    run.put("engine.knn_ms", median(knn), "ms", len(knn))
    run.put("engine.refine_ratio", ratio(counters.get("engine.true_distances", 0),
                                         counters.get("engine.candidates", 0)),
            "ratio")
    search = stats.get("search", {})
    run.put("engine.pruning_power", search.get("pruning_power", 0.0), "ratio")
    setup = durations_ms(spans, "filter.setup")
    run.put("filter.setup_ms", statistics.fmean(setup or [0.0]), "ms",
            len(setup))
    run.put("filter.quick_ms", 1000 * ratio(counters.get("filter.quick_s", 0),
                                            counters.get("filter.quick_calls", 0)),
            "ms")
    for family in ("histogram", "qgram"):
        pruned = sum(count for name, count in search.get("pruned_by", {}).items()
                     if name.startswith(family))
        run.put(f"filter.pruned.{family}",
                ratio(pruned, search.get("queries", 0)), "count")
    queries = (engine_calls + counters.get("range.calls", 0)
               + counters.get("window.calls", 0))
    run.put("exact.ms", 1000 * ratio(counters.get("exact.s", 0), queries), "ms")
    run.put("exact.calls", ratio(counters.get("exact.calls", 0), queries),
            "count")
    run.put("exact.prune_rate", ratio(counters.get("exact.pruned", 0),
                                      counters.get("exact.calls", 0)), "ratio")
    cells = sum(v for k, v in counters.items() if k.startswith("kernel.cells."))
    all_queries = queries + counters.get("shard.calls", 0)
    run.put("kernel.cells", ratio(cells, all_queries), "count")
    for kernel in ("scalar", "batched", "bitparallel"):
        run.put(f"kernel.cells_per_s.{kernel}",
                ratio(counters.get(f"kernel.cells.{kernel}", 0),
                      counters.get(f"kernel.seconds.{kernel}", 0)), "1/s")

    window = durations_ms(spans, "window.subknn")
    run.put("window.ms", median(window), "ms", len(window))
    total = counters.get("window.windows_total", 0)
    run.put("window.evaluated_ratio",
            ratio(counters.get("window.windows_evaluated", 0), total), "ratio")
    run.put("window.pruned_ratio",
            ratio(counters.get("window.windows_pruned", 0), total), "ratio")
    run.put("window.cells_per_s", ratio(counters.get("window.kernel_cells", 0),
                                        counters.get("window.kernel_seconds", 0)),
            "1/s")
    ranges = durations_ms(spans, "range.search")
    run.put("range.ms", median(ranges), "ms", len(ranges))
    run.put("range.refine_ratio", ratio(counters.get("range.true_distances", 0),
                                        counters.get("range.candidates", 0)),
            "ratio")

    shard_knn = durations_ms(spans, "shard.knn")
    run.put("shard.knn_ms", median(shard_knn), "ms", len(shard_knn))
    run.put("shard.rounds", ratio(counters.get("shard.rounds", 0),
                                  counters.get("shard.calls", 0)), "count")
    refines = [v for k, v in counters.items() if k.startswith("shard.refines.")]
    run.put("shard.imbalance", ratio(max(refines or [0]),
                                     statistics.fmean(refines or [0])), "ratio")
    builds = durations_ms(spans, "shard.build")
    run.put("shard.build_s", statistics.fmean(builds or [0.0]) / 1000, "s",
            len(builds))

    if trace["warm"]:
        report = trace["warm"][0]
        for metric, prefix in (("histograms", "histograms"),
                               ("qgram", "qgram"), ("kernels", "kernel")):
            run.put(f"warm.{metric}_s", sum(
                value for name, value in report.items()
                if name.startswith(prefix)
            ), "s")

    run.put("loadgen.late_p99_ms", quantile([s.late_ms for s in samples],
                                            0.99), "ms", len(samples))
    traced_p50 = median([s.latency_ms for s in samples if s.ok])
    plain_p50 = median([s.latency_ms for s in untraced_samples if s.ok])
    run.put("trace.overhead_pct", 100 * (ratio(traced_p50, plain_p50) - 1)
            if plain_p50 else 0.0, "%")
    for name, (value, unit, count) in extras.items():
        if f"e2e.{name}" in PER_LAYER:
            run.put(f"e2e.{name}", value, unit, count)

    run.outdir.mkdir(exist_ok=True)
    spans_file = run.outdir / f"{run.workload}-seed{run.seed}-spans.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start", "end", "request", "attrs"],
        "spans": spans,
        "counters": counters,
    }))
    table = self_times(spans)
    run.notes.append(f"spans written to {spans_file.relative_to(ROOT)}")
    run.notes.append(f"{'span':<18} {'calls':>7} {'total ms':>11} {'self ms':>11}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_ms"]):
        run.notes.append(f"{name:<18} {row['calls']:>7} "
                         f"{row['total_ms']:>11.2f} {row['self_ms']:>11.2f}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def context_lines(run: Run) -> List[str]:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    # Time the hypervisor gave the host's CPUs to other guests: a
    # run with a high share measured a slower machine.
    delta = [b - a for a, b in zip(run.cpu_start, cpu_times())]
    steal = ratio(delta[7], sum(delta)) if len(delta) > 7 else 0.0
    return [
        f"workload={run.workload} seed={run.seed} seconds={run.seconds:g} "
        f"trace={int(run.trace)} smoke={run.sizes.corpus < 100}",
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} commit={commit} "
        f"cpu_steal={100 * steal:.1f}%",
    ]


def run_once(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    run = Run(args)
    run.workdir.mkdir(parents=True, exist_ok=True)
    # Scratch files stay inside the checkout, and a SIGTERM unwinds
    # through the ``finally`` blocks that drain and kill the servers.
    os.environ["TMPDIR"] = str(run.workdir)
    tempfile.tempdir = str(run.workdir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    body = {"mixed-distinct": mixed_distinct, "hot-fleet": hot_fleet,
            "live-store": live_store}[run.workload]
    try:
        body(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass
    for line in context_lines(run):
        print(line)
    for name, (value, unit) in run.metrics.items():
        count = run.counts.get(name)
        suffix = f"  n={count}" if count is not None else ""
        print(f"{name:<26} {value:14.4f} {unit:<6}{suffix}")
    for note in run.notes:
        print(note)
    for mismatch in run.mismatches:
        print(f"MISMATCH {mismatch}")
    correct = not run.mismatches
    reported = PER_LAYER if run.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name][0], "unit": run.metrics[name][1]}
            for name in reported
        },
    }))
    return 0 if correct else 1


def repeat(args: argparse.Namespace) -> int:
    """Steadiness mode: N runs on consecutive seeds, medians and spreads."""
    values: Dict[str, List[float]] = {}
    for offset in range(args.repeat):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed + offset),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n")
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
          "  runs")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name:<26} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}  "
              + " ".join(f"{value:.4g}" for value in series))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run N seeds, report spreads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
