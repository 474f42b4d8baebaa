"""Benchmark drivers and the space and latency metrics.

Byte accounting is exact: it is read back from the storage observation
trace, never sampled. Relative cost isolates padding — it is the padded
plaintext bytes over the raw record bytes; the constant per-unit IV
framing is reported separately. Absolute latency and throughput numbers
are hardware-bound and only emitted for human comparison; the properties
worth asserting are orderings (more segments per write cost more, padding
overhead grows with segment size, recovery work grows with journal size).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import WalEngine
from .errors import InvalidConfig, NoData
from .observe import StorageTrace
from .records import encoded_record_size
from .workload import WorkloadSpec, generate


def relative_cost(write_sizes, segment_size: int) -> float:
    """Padded bytes over raw bytes when each write is segmented alone."""
    sizes = list(write_sizes)
    if not sizes:
        raise NoData("no write sizes")
    padded = sum(-(-s // segment_size) * segment_size for s in sizes)
    return padded / sum(sizes)


def naive_cost(write_sizes, slot_capacity: int) -> float:
    """Cost of the naive mitigation: every write padded to the full slot."""
    sizes = list(write_sizes)
    if not sizes:
        raise NoData("no write sizes")
    return len(sizes) * slot_capacity / sum(sizes)


@dataclass
class BenchReport:
    p50_us: float
    p95_us: float
    p99_us: float
    throughput_ops: float
    ops: int
    bytes_written_actual: int     # everything the storage layer saw
    bytes_padded: int             # plaintext bytes after padding (RC numerator)
    bytes_written_baseline: int   # raw record bytes (RC denominator)
    iv_overhead_bytes: int
    bytes_fake: int
    relative_cost: float
    naive_bytes: int
    naive_cost: float
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _percentiles(latencies: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(latencies) * 1e6
    p50, p95, p99 = np.percentile(arr, [50, 95, 99])
    return float(p50), float(p95), float(p99)


def _accounting(engine: WalEngine, record_sizes: list[int], elapsed: float,
                latencies: list[float], config: dict) -> BenchReport:
    trace: StorageTrace = engine.backend.trace
    actual = sum(
        trace.total_bytes(ch)
        for ch in (StorageTrace.JOURNAL, StorageTrace.METADATA, StorageTrace.REPLICA)
    )
    padded, fake, iv_overhead = engine.backend.stats()
    baseline = sum(record_sizes)
    p50, p95, p99 = _percentiles(latencies)
    naive_bytes = len(record_sizes) * engine.slot.capacity
    return BenchReport(
        p50_us=p50, p95_us=p95, p99_us=p99,
        throughput_ops=len(record_sizes) / elapsed if elapsed > 0 else float("inf"),
        ops=len(record_sizes),
        bytes_written_actual=actual,
        bytes_padded=padded,
        bytes_written_baseline=baseline,
        iv_overhead_bytes=iv_overhead,
        bytes_fake=fake,
        relative_cost=padded / baseline if baseline else float("nan"),
        naive_bytes=naive_bytes,
        naive_cost=naive_bytes / baseline if baseline else float("nan"),
        config=config,
    )


def run_sequential(spec: WorkloadSpec, engine: WalEngine) -> BenchReport:
    """Full-sync mode: every write is flushed (and padded) on its own.

    This is the space worst case and the configuration whose write-size
    trace an adversary learns the most from on an unprotected engine.
    """
    payloads = generate(spec)
    record_sizes = [encoded_record_size(len(p)) for p in payloads]
    latencies = []
    t0 = time.perf_counter()
    for payload in payloads:
        t = time.perf_counter()
        engine.append(payload, full_sync=True)
        latencies.append(time.perf_counter() - t)
    elapsed = time.perf_counter() - t0
    config = {"mode": "sequential", "spec": spec.__dict__, "backend": type(engine.backend).__name__}
    return _accounting(engine, record_sizes, elapsed, latencies, config)


def run_concurrent(spec: WorkloadSpec, engine: WalEngine, workers: int = 4) -> BenchReport:
    """Buffered mode: appenders never request durability; the slot drains
    on overflow and on the engine's periodic flusher."""
    if workers < 1:
        raise InvalidConfig(f"{workers} workers: need at least one")
    payloads = generate(spec)
    record_sizes = [encoded_record_size(len(p)) for p in payloads]
    shards = [payloads[i::workers] for i in range(workers)]
    latencies = [[] for _ in range(workers)]

    def work(shard, sink):
        for payload in shard:
            t = time.perf_counter()
            engine.append(payload, full_sync=False)
            sink.append(time.perf_counter() - t)

    threads = [threading.Thread(target=work, args=(shards[i], latencies[i])) for i in range(workers)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    engine.flush()
    elapsed = time.perf_counter() - t0
    merged = [x for sink in latencies for x in sink]
    config = {"mode": "concurrent", "workers": workers, "spec": spec.__dict__,
              "backend": type(engine.backend).__name__}
    return _accounting(engine, record_sizes, elapsed, merged, config)
