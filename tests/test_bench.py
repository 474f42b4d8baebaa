"""Benchmark metrics: byte accounting, relative cost, the append drivers."""

import json
import os

import pytest

from evenlog import bench
from evenlog.engine import WalEngine
from evenlog.errors import NoData
from evenlog.journal import JournalBackend, PlainJournalBackend
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, SelectionScheme
from evenlog.workload import WorkloadSpec

from .conftest import build_cluster


class TestCostFormulas:
    def test_single_200_byte_write_at_128(self):
        assert bench.relative_cost([200], 128) == pytest.approx(256 / 200)

    def test_exact_multiples_cost_one(self):
        assert bench.relative_cost([128, 256, 1280], 128) == 1.0

    def test_naive_cost(self):
        assert bench.naive_cost([200, 200], 131072) == pytest.approx(2 * 131072 / 400)

    def test_empty_inputs(self):
        with pytest.raises(NoData):
            bench.relative_cost([], 128)
        with pytest.raises(NoData):
            bench.naive_cost([], 131072)

    def test_nondecreasing_in_segment_size_on_power_grid(self):
        sizes = list(range(17, 4000, 131))
        costs = [bench.relative_cost(sizes, s) for s in (32, 128, 512, 4096)]
        assert costs == sorted(costs)


def journal_engine(tmp_path, key, segment_size=128, **kw):
    backend = JournalBackend(tmp_path, key, segment_size, trace=StorageTrace(), **kw)
    return WalEngine(backend)


class TestRunSequential:
    def test_constant_184_payload_exact_accounting(self, tmp_path, key):
        # record = 200 B -> 2 stored units per write
        n = 40
        engine = journal_engine(tmp_path, key)
        payloads = [os.urandom(184) for _ in range(n)]
        for p in payloads:
            engine.append(p, full_sync=True)
        trace = engine.backend.trace
        assert trace.write_count(StorageTrace.JOURNAL) == 2 * n
        assert trace.total_bytes(StorageTrace.JOURNAL) == n * 2 * (128 + 16)
        engine.close()

    def test_report_fields_consistent(self, tmp_path, key):
        spec = WorkloadSpec.parse("constant:80", 25, seed=1)
        engine = journal_engine(tmp_path, key)
        report = bench.run_sequential(spec, engine)
        engine.close()
        # record size 816 -> 7 units of 128
        assert report.ops == 25
        assert report.bytes_written_baseline == 25 * 816
        assert report.bytes_padded == 25 * 7 * 128
        assert report.bytes_written_actual == 25 * 7 * 144
        assert report.iv_overhead_bytes == 25 * 7 * 16
        assert report.relative_cost == pytest.approx((7 * 128) / 816)
        assert report.naive_bytes == 25 * 128 * 1024

    def test_record_multiples_of_s_cost_one(self, tmp_path, key):
        engine = journal_engine(tmp_path, key)
        payloads = [os.urandom(112) for _ in range(10)]  # record = 128
        for p in payloads:
            engine.append(p, full_sync=True)
        trace = engine.backend.trace
        padded = trace.write_count(StorageTrace.JOURNAL) * 128
        assert padded == 10 * 128  # zero padding overhead
        engine.close()

    def test_naive_mode_bytes_exact(self, tmp_path):
        capacity = 8192
        backend = PlainJournalBackend(tmp_path, pad_to=capacity, trace=StorageTrace())
        engine = WalEngine(backend, slot_capacity=capacity)
        spec = WorkloadSpec.parse("uniform", 15, seed=2)
        report = bench.run_sequential(spec, engine)
        assert report.bytes_written_actual == 15 * capacity
        engine.close()

    def test_plain_backend_relative_cost_is_one(self, tmp_path):
        backend = PlainJournalBackend(tmp_path, trace=StorageTrace())
        engine = WalEngine(backend)
        report = bench.run_sequential(WorkloadSpec.parse("uniform", 20, seed=3), engine)
        assert report.relative_cost == 1.0
        assert report.bytes_written_actual == report.bytes_written_baseline
        engine.close()


class TestRunConcurrent:
    def test_single_worker_deterministic_bytes(self, tmp_path, key):
        spec = WorkloadSpec.parse("uniform", 200, seed=4)
        reports = []
        for sub in ("a", "b"):
            engine = journal_engine(tmp_path / sub, key)
            reports.append(bench.run_concurrent(spec, engine, workers=1))
            engine.close()
        assert reports[0].bytes_written_actual == reports[1].bytes_written_actual
        assert reports[0].bytes_padded == reports[1].bytes_padded

    def test_multiworker_preserves_and_persists_everything(self, tmp_path, key):
        spec = WorkloadSpec.parse("uniform", 400, seed=5)
        engine = journal_engine(tmp_path, key)
        report = bench.run_concurrent(spec, engine, workers=8)
        engine.close()
        from evenlog.journal import recover_journal

        records = recover_journal(tmp_path, key, 128)
        assert len(records) == 400
        assert report.ops == 400

    def test_workers_must_be_positive(self, tmp_path, key):
        engine = journal_engine(tmp_path, key)
        with pytest.raises(ValueError):
            bench.run_concurrent(WorkloadSpec.parse("uniform", 10), engine, workers=0)
        engine.close()


class TestQuorumAccounting:
    def test_fake_bandwidth_reported(self, tmp_path, key):
        registry, replicas = build_cluster(15)
        backend = QuorumBackend(
            tmp_path, key, replicas, registry,
            config=QuorumConfig(segment_size=128, max_write_size=512),
            scheme=SelectionScheme.FNOS, seed=1, trace=StorageTrace(),
        )
        engine = WalEngine(backend)
        report = bench.run_sequential(WorkloadSpec.parse("constant:20", 10, seed=6), engine)
        # payload 200 -> record 216 -> 2 real segments, K=4 -> 2 fake
        assert report.bytes_padded == 10 * 2 * 128
        assert report.bytes_fake == 10 * 2 * 128
        engine.close()


def test_report_json_roundtrip(tmp_path, key):
    engine = journal_engine(tmp_path, key)
    report = bench.run_sequential(WorkloadSpec.parse("constant:80", 5, seed=7), engine)
    engine.close()
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["ops"] == 5
    assert [k for k, v in parsed.items() if v is None] == []  # every field is set
    assert parsed["bytes_padded"] == report.bytes_padded
