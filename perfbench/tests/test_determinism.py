"""Determinism of the benchmark's inputs and exact counts, and its gate.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from evenlog import StorageTrace, WalEngine, journal  # noqa: E402
from evenlog.quorum.metadata import MetadataArray  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_payloads, pad4, run_round  # noqa: E402
import workloads  # noqa: E402

APPENDS = 300  # enough for several buffered flushes of the 128 KiB slot


def traced_counts(workload, seed, root):
    payloads = make_payloads(workload, seed, APPENDS)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_round(workload, payloads, root, seed)
    finally:
        tracer.uninstall()
    assert result.correct and result.failed == 0
    calls = {k: v for k, v in tracer.take_totals().items() if k.endswith(".calls")}
    return {**result.exact, **calls}


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=lambda w: w.name)
def test_same_seed_gives_identical_exact_counts(workload, tmp_path):
    first = traced_counts(workload, 7, tmp_path / "a")
    second = traced_counts(workload, 7, tmp_path / "b")
    assert first == second
    assert first["slots.flushes"] > 1
    assert first["os.fdatasync.calls"] >= first["slots.flushes"]


def test_other_seed_gives_other_payload_sizes():
    workload = WORKLOADS["journal-sync"]
    sizes = [len(p) for p in make_payloads(workload, 7, 200)]
    assert sizes == [len(p) for p in make_payloads(workload, 7, 200)]
    assert sizes != [len(p) for p in make_payloads(workload, 8, 200)]


def test_uninstall_restores_every_layer():
    before = (os.fdatasync, WalEngine.append, MetadataArray.__dict__["from_bytes"],
              journal.pad_to_segments)
    tracer = Tracer()
    tracer.install()
    assert WalEngine.append is not before[1]
    tracer.uninstall()
    after = (os.fdatasync, WalEngine.append, MetadataArray.__dict__["from_bytes"],
             journal.pad_to_segments)
    assert after == before


def test_gate_counts_lost_records_and_odd_write_sizes():
    committed = [b"first", b"second"]
    trace = StorageTrace()
    trace.record(StorageTrace.JOURNAL, 144, 4)
    assert workloads._check(trace, committed, [pad4(b"first"), pad4(b"second")]) == (0, [])
    failed, problems = workloads._check(trace, committed, [pad4(b"first")])
    assert failed == 1 and problems
    trace.record(StorageTrace.JOURNAL, 160)
    failed, problems = workloads._check(trace, committed, [pad4(b"first"), pad4(b"second")])
    assert failed == 2 and "160" in problems[0]
