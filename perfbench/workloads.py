"""Workloads, seeded inputs and one measured round of each.

A round builds a fresh engine in its own directory, appends a fixed
number of payloads from one writer (closed loop: the writer waits for
each append), flushes, closes, recovers and checks the result. Every
round of a run appends the same payloads in the same order from the
same empty state, so append ``i`` does the same work in every round,
per-round figures are repetitions of one measurement and counts repeat
exactly.

The flush policy is the same everywhere: segment size S = 128, slot
capacity 128 KiB, fdatasync on, no periodic flusher.
"""

from __future__ import annotations

import random
import shutil
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from evenlog import JournalBackend, StorageTrace, WalEngine, recover_journal
from evenlog.crypto import StaticKeyProvider
from evenlog.quorum import QuorumBackend, QuorumConfig, Registry, Replica, SelectionScheme

SEGMENT_SIZE = 128
SLOT_CAPACITY = 128 * 1024
SYNC = True
ATTRIBUTES = 10
MAX_ATTRIBUTE = 100
QUORUM_REPLICAS = 48
QUORUM_MAX_WRITE = 2048  # K = 2048 / 128 = 16 groups per write
CLIENT_ID = "client-0"
KEY = StaticKeyProvider(b"perfbench-master-secret").get("default")

POLICY = {
    "segment_size": SEGMENT_SIZE,
    "slot_capacity": SLOT_CAPACITY,
    "sync": SYNC,
    "periodic_flusher": False,
    "writers": 1,
    "loop": "closed",
}

# the only write sizes each storage channel may show
CHANNEL_SIZES = {
    StorageTrace.JOURNAL: {SEGMENT_SIZE + 16},
    StorageTrace.REPLICA: {197},
    StorageTrace.METADATA: {736},
}
CHANNELS = (StorageTrace.JOURNAL, StorageTrace.METADATA, StorageTrace.REPLICA)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "journal" or "quorum"
    full_sync: bool
    appends: int  # per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "journal-sync",
            "the paper's sequential full-sync loop: one writer, uniform sizes; fdatasync and per-flush costs dominate",
            "journal", True, 2000,
        ),
        Workload(
            "journal-buffered",
            "one buffered writer, then recovery of a journal far larger than the slot; per-record and decrypt/scan layers",
            "journal", False, 20000,
        ),
        Workload(
            "quorum-fnos",
            "full-sync writes to 48 replicas with fixed-count selection (K=16), recovered after one failure per group",
            "quorum", True, 1000,
        ),
    )
}


# -- inputs ----------------------------------------------------------------


def payload_sizes(count: int, rng: random.Random) -> list[int]:
    """Sum of 10 uniform attribute sizes in 1..100 B per write (the paper's tuples)."""
    attrs = rng.choices(range(1, MAX_ATTRIBUTE + 1), k=count * ATTRIBUTES)
    return [sum(attrs[i : i + ATTRIBUTES]) for i in range(0, len(attrs), ATTRIBUTES)]


def make_payloads(workload: Workload, seed: int, count: int | None = None) -> list[bytes]:
    """Seeded payloads with random content; the same seed gives the same bytes."""
    rng = random.Random(seed)
    sizes = payload_sizes(count or workload.appends, rng)
    pool = rng.randbytes(1 << 20)
    top = len(pool) - ATTRIBUTES * MAX_ATTRIBUTE
    return [pool[o : o + n] for o, n in zip((rng.randrange(top) for _ in sizes), sizes)]


def pad4(payload: bytes) -> bytes:
    """Recovery returns payloads zero-padded to a multiple of 4 bytes."""
    return payload + b"\x00" * (-len(payload) % 4)


# -- one round ------------------------------------------------------------------


def read_proc_io() -> tuple[int, int]:
    """(write syscalls, bytes written) of this process, as the kernel counts them."""
    fields = {}
    with open("/proc/self/io") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields["syscw"], fields["wchar"]


@dataclass
class RoundResult:
    setup_s: float
    latencies: np.ndarray  # seconds, one per append in append order, failed appends included
    final_flush_s: float
    recover_s: float
    attempted: int
    failed: int
    correct: bool
    exact: dict


def build_engine(workload: Workload, root: Path, seed: int, trace: StorageTrace) -> WalEngine:
    if workload.backend == "journal":
        backend = JournalBackend(root, KEY, SEGMENT_SIZE, trace=trace, sync=SYNC)
    else:
        registry = Registry()
        replicas = {rid: Replica(rid) for rid in range(QUORUM_REPLICAS)}
        for rid in replicas:
            registry.register(rid, 0)
        registry.register(CLIENT_ID, 0)
        backend = QuorumBackend(
            root, KEY, replicas, registry,
            config=QuorumConfig(segment_size=SEGMENT_SIZE, max_write_size=QUORUM_MAX_WRITE),
            scheme=SelectionScheme.FNOS, seed=seed, trace=trace, client_id=CLIENT_ID, sync=SYNC,
        )
    return WalEngine(backend, SLOT_CAPACITY)


def _check(trace: StorageTrace, committed: list[bytes], recovered: list[bytes]) -> tuple[int, list[str]]:
    """Failed records and the reasons: committed records missing or wrong
    after recovery, and writes of a size the channel must never show."""
    problems = []
    for channel in CHANNELS:
        sizes = trace.distinct_sizes(channel)
        if sizes - CHANNEL_SIZES[channel]:
            problems.append(f"{channel} channel shows write sizes {sorted(sizes)}")
    expected = [pad4(p) for p in committed]
    failed = 0
    if recovered != expected:
        have, want = Counter(recovered), Counter(expected)
        failed = sum((want - have).values()) + sum((have - want).values()) or len(expected)
        problems.append(f"recovery returned {len(recovered)} records, {failed} missing, extra or out of order")
    if problems and not failed:
        failed = len(committed)
    return failed, problems


def run_round(workload: Workload, payloads: list[bytes], root: Path, seed: int) -> RoundResult:
    """Set up, write, close, recover and check one round in ``root``."""
    trace = StorageTrace()
    t0 = perf_counter()
    engine = build_engine(workload, root, seed, trace)
    setup_s = perf_counter() - t0

    latencies = np.empty(len(payloads))
    committed: list[bytes] = []
    problems: list[str] = []
    append, full_sync = engine.append, workload.full_sync
    io0 = read_proc_io()
    for i, payload in enumerate(payloads):
        t0 = perf_counter()
        try:
            append(payload, full_sync=full_sync)
        except Exception as exc:  # a failed append; reported after the round
            problems.append(f"append raised {exc!r}")
        else:
            committed.append(payload)
        latencies[i] = perf_counter() - t0
    t0 = perf_counter()
    try:
        engine.flush()
    except Exception as exc:
        problems.append(f"final flush raised {exc!r}")
    final_flush_s = perf_counter() - t0
    io1 = read_proc_io()
    flushes = engine.slot.ssn
    engine.close()

    backend = engine.backend
    t0 = perf_counter()
    try:
        if workload.backend == "quorum":
            for group in backend.groups:
                for rid in group[: backend.config.tolerable_failures]:
                    backend.replicas[rid].kill()
            records = backend.recover()
        else:
            records = recover_journal(root, KEY, SEGMENT_SIZE)
    except Exception as exc:  # every committed record counts as lost
        problems.append(f"recovery raised {exc!r}")
        records = []
    recover_s = perf_counter() - t0

    failed, found = _check(trace, committed, [r.payload for r in records])
    failed += len(payloads) - len(committed)
    problems += found
    for problem in problems:
        print(f"perfbench: CORRECTNESS FAILURE ({workload.name}): {problem}", file=sys.stderr)

    exact = {
        "slots.flushes": flushes,
        "os.write_syscalls": io1[0] - io0[0],
        "os.write_bytes": io1[1] - io0[1],
        "user_bytes": sum(map(len, payloads)),
    }
    for channel in CHANNELS:
        exact[f"observe.{channel}.writes"] = trace.write_count(channel)
        exact[f"observe.{channel}.bytes"] = trace.total_bytes(channel)
    if workload.backend == "quorum":
        exact["quorum.real_segments"] = backend.real_segments
        exact["quorum.fake_segments"] = backend.fake_segments
    shutil.rmtree(root)
    return RoundResult(setup_s, latencies.astype(np.float32), final_flush_s, recover_s,
                       len(payloads), failed, not problems, exact)


def stored_bytes_per_user_byte(exact: dict) -> float:
    return sum(exact[f"observe.{ch}.bytes"] for ch in CHANNELS) / exact["user_bytes"]
