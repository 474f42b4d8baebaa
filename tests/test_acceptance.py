"""Acceptance suite: one test per criterion, in order.

Each test prints a ``[PASS] criterion N`` line on success (run with
``pytest -s tests/test_acceptance.py`` to watch them); a failure carries
the diagnostic in the assertion.

Timed criteria (1 and 5) bound the engine's compute path. Criterion 1
pushes ~0.7 GB through encryption; the sandboxed scratch disk writes at
~30 MB/s, which would dominate the budget without telling us anything
about the engine, so journals for the timed and timing-shape tests live
on a RAM-backed directory when one exists. The code path (sync
included) is identical.
"""

import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from evenlog import bench
from evenlog import leakage as lk
from evenlog.crypto import StaticKeyProvider
from evenlog.engine import WalEngine
from evenlog.errors import IntegrityFailure
from evenlog.journal import JournalBackend, PlainJournalBackend, journal_filename, recover_journal
from evenlog.observe import StorageTrace
from evenlog.quorum import (
    QuorumBackend,
    QuorumConfig,
    SegmentId,
    SelectionScheme,
    select_quorums,
)
from evenlog.quorum.metadata import MetadataArray
from evenlog.records import encode_record, encoded_record_size, iter_records
from evenlog.segmentation import padding_overhead
from evenlog.workload import LengthGroup, WorkloadSpec, generate, planted_length_trace

from .conftest import MASTER, build_cluster, pad4
from .test_leakage import exhaustive_optimum, random_instance

KEY = StaticKeyProvider(MASTER).get("default")


@pytest.fixture
def fast_dir():
    """RAM-backed scratch when available (see module docstring)."""
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    path = tempfile.mkdtemp(prefix="evenlog-accept-", dir=base)
    yield Path(path)
    shutil.rmtree(path, ignore_errors=True)


def journal_engine(root, segment_size=128, sync=True, capacity=128 * 1024):
    trace = StorageTrace()
    backend = JournalBackend(root, KEY, segment_size, trace=trace, sync=sync)
    from evenlog.slots import FlushPolicy

    return WalEngine(backend, slot_capacity=capacity, policy=FlushPolicy(interval_ms=None))


def test_criterion_1_fixed_size_guarantee(fast_dir):
    """10^4 random slot flushes produce exactly one storage write size."""
    segment_size, unit = 128, 144
    engine = journal_engine(fast_dir, segment_size)
    trace = engine.backend.trace
    rng = random.Random(0xC1)
    pool = np.random.default_rng(1).bytes(131056)

    expected_units = 0
    started = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(4, 131056)
        engine.append(pool[:n], full_sync=True)
        record = encoded_record_size(n)
        expected_units += -(-record // segment_size)
    elapsed = time.perf_counter() - started
    engine.close()

    sizes = trace.distinct_sizes(StorageTrace.JOURNAL)
    assert sizes == {unit}, f"observed write sizes {sizes}"
    assert trace.write_count(StorageTrace.JOURNAL) == expected_units
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: 10^4 flushes -> {expected_units} writes, "
          f"all {unit} B, {elapsed:.1f}s")


def test_criterion_2_recovery_equivalence(tmp_path):
    """recover(segmented journal) == parse(unsegmented stream), byte-exact."""
    rng = random.Random(0xC2)
    checked = 0
    for workload_no in range(500):
        payloads = [rng.randbytes(rng.randint(1, 600)) for _ in range(rng.randint(1, 8))]
        oracle_stream = b"".join(encode_record(p) for p in payloads)
        oracle = list(iter_records(oracle_stream))
        for segment_size in (32, 128, 512, 4096):
            root = tmp_path / f"w{workload_no}-s{segment_size}"
            backend = JournalBackend(root, KEY, segment_size, sync=False)
            engine = WalEngine(backend)
            for p in payloads:
                engine.append(p, full_sync=rng.random() < 0.3)
            engine.close()
            recovered = recover_journal(root, KEY, segment_size)
            assert recovered == oracle, f"workload {workload_no}, S={segment_size}"
            checked += 1
    assert checked == 2000
    print(f"\n[PASS] criterion 2: {checked} journal/oracle comparisons byte-exact")


def test_criterion_3_crash_matrix(tmp_path):
    """Truncation at every unit boundary recovers exactly the committed prefix."""
    segment_size, unit = 128, 144
    rng = random.Random(0xC3)
    payloads = [rng.randbytes(rng.randint(20, 400)) for _ in range(100)]

    backend = JournalBackend(tmp_path, KEY, segment_size, sync=False)
    engine = WalEngine(backend)
    # mixed flush boundaries; track each record's end offset in the padded
    # stream (its flush group starts at pos, records inside are contiguous)
    ends, pos, group_bytes = [], 0, 0
    for i, p in enumerate(payloads):
        engine.append(p, full_sync=False)
        group_bytes += encoded_record_size(len(p))
        ends.append(pos + group_bytes)
        if i % 3 == 2 or i == len(payloads) - 1 or rng.random() < 0.2:
            engine.flush()
            pos = -(-ends[-1] // segment_size) * segment_size
            group_bytes = 0
    engine.close()

    path = tmp_path / journal_filename(backend.current_file_id)
    data = path.read_bytes()
    n_units = len(data) // unit
    assert len(data) % unit == 0

    cases = 0
    for cut in range(n_units + 1):
        path.write_bytes(data[: cut * unit])
        expected = [pad4(p) for p, end in zip(payloads, ends) if end <= cut * segment_size]
        got = [r.payload for r in recover_journal(tmp_path, KEY, segment_size)]
        assert got == expected, f"cut at unit {cut}"
        cases += 1
    # torn partial final unit: drops cleanly to the previous boundary
    for cut in (1, n_units // 2, n_units - 1):
        for extra in (1, unit // 2, unit - 1):
            path.write_bytes(data[: cut * unit + extra])
            expected = [pad4(p) for p, end in zip(payloads, ends) if end <= cut * segment_size]
            got = [r.payload for r in recover_journal(tmp_path, KEY, segment_size)]
            assert got == expected, f"torn cut at {cut} units + {extra} B"
            cases += 1
    path.write_bytes(data)
    print(f"\n[PASS] criterion 3: {cases} crash points, committed prefix exact")


def test_criterion_4_space_accounting(tmp_path):
    """Measured bytes match the padding formula exactly; cost orderings hold."""
    segment_size = 128
    dists = ("uniform", "zipf:1.3", "zipf:2", "constant:20", "constant:80")
    cost_at_128 = {}
    for dist in dists:
        spec = WorkloadSpec.parse(dist, 200, seed=0xC4)
        engine = journal_engine(tmp_path / dist.replace(":", "-"), segment_size, sync=False)
        report = bench.run_sequential(spec, engine)
        engine.close()
        record_sizes = [encoded_record_size(len(p)) for p in generate(spec)]
        formula = sum(-(-s // segment_size) * segment_size for s in record_sizes)
        assert report.bytes_padded == formula, dist
        assert report.bytes_written_actual == formula + (formula // segment_size) * 16
        cost_at_128[dist] = report.relative_cost

    # naive baseline: exactly ops x slot capacity
    capacity = 8192
    backend = PlainJournalBackend(tmp_path / "naive", pad_to=capacity, trace=StorageTrace())
    from evenlog.slots import FlushPolicy

    engine = WalEngine(backend, slot_capacity=capacity, policy=FlushPolicy(interval_ms=None))
    naive_report = bench.run_sequential(WorkloadSpec.parse("uniform", 50, seed=0xC4), engine)
    engine.close()
    assert naive_report.bytes_written_actual == 50 * capacity

    # relative cost is nondecreasing in S (measured at four sizes)
    spec = WorkloadSpec.parse("uniform", 200, seed=0xC4)
    costs = []
    for s in (32, 128, 512, 4096):
        engine = journal_engine(tmp_path / f"rc{s}", s, sync=False)
        costs.append(bench.run_sequential(spec, engine).relative_cost)
        engine.close()
    assert costs == sorted(costs), f"RC not monotone in S: {costs}"

    assert cost_at_128["zipf:1.3"] > cost_at_128["uniform"], cost_at_128
    print(f"\n[PASS] criterion 4: formula-exact bytes; RC(S)={['%.3f' % c for c in costs]}, "
          f"RC(zipf1.3)={cost_at_128['zipf:1.3']:.3f} > RC(uniform)={cost_at_128['uniform']:.3f}")


def test_criterion_5_vnos_posterior():
    """Closed form matches Monte-Carlo within 0.01; independent of N."""
    started = time.perf_counter()
    n_candidates, trials = 10, 100_000
    for prior in ([0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]):
        closed = lk.posterior_vnos(prior, n_candidates)
        result = lk.simulate_posterior(prior, SelectionScheme.VNOS, n_candidates,
                                       trials=trials, seed=0xC5)
        worst = float(np.max(np.abs(result.posterior - closed)))
        assert worst < 0.01, f"prior {prior}: max deviation {worst:.4f}"
    reference = lk.posterior_vnos([0.25] * 4)
    for n in (4, 8, 40):
        assert np.allclose(lk.posterior_vnos([0.25] * 4, n), reference, atol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 5: closed form == Monte-Carlo (2 priors, {trials} trials) "
          f"and N-invariant, {elapsed:.1f}s")


def test_criterion_6_fnos_no_leakage(tmp_path):
    """Observation teaches a replica nothing under fixed-count selection."""
    # empirical posterior equals the prior for three priors
    for prior in ([0.5, 0.5], [0.7, 0.1, 0.1, 0.1], [0.05, 0.15, 0.3, 0.25, 0.25]):
        result = lk.simulate_posterior(prior, SelectionScheme.FNOS, 10,
                                       trials=100_000, seed=0xC6)
        worst = float(np.max(np.abs(result.posterior - np.asarray(prior))))
        assert worst < 0.01, f"prior {prior}: max deviation {worst:.4f}"

    # every quorum sees at most one segment per write, 10^5 writes, both schemes
    rng = random.Random(0xC6)
    quorums = [(i,) * 3 for i in range(10)]
    k_max = 4
    for _ in range(50_000):
        placements = select_quorums(SelectionScheme.FNOS, rng.randint(1, k_max), quorums, k_max, rng)
        assert len({p.index for p in placements}) == len(placements)
    for _ in range(50_000):
        n_real = rng.randint(1, 10)
        placements = select_quorums(SelectionScheme.VNOS, n_real, quorums, k_max, rng)
        assert len({p.index for p in placements}) == n_real

    # a commit completes while every fake-segment ack is withheld
    def fnos_backend(root, seed):
        registry, replicas = build_cluster(12)
        return QuorumBackend(
            root, KEY, replicas, registry,
            config=QuorumConfig(segment_size=128, max_write_size=512),
            scheme=SelectionScheme.FNOS, seed=seed,
        )

    probe = fnos_backend(tmp_path / "probe", seed=0xC6)
    probe.persist_slot(encode_record(b"\xaa" * 100))  # one real segment, K=4
    real_sid = SegmentId(probe.current_file_id, 0, 0)
    real_group = next(g for g in probe.groups if probe.replicas[g[0]].has(real_sid))

    live = fnos_backend(tmp_path / "live", seed=0xC6)  # same seed: same placement
    for rid, rep in live.replicas.items():
        if rid not in real_group:
            rep.kill()  # every fake destination is dead and will never ack
    receipt = live.persist_slot(encode_record(b"\xaa" * 100))
    assert receipt.real_segments == 1 and receipt.fake_segments == 3
    print("\n[PASS] criterion 6: FNOS posterior == prior (3 priors); "
          "10^5 writes with <=1 segment per quorum; commit with fake acks withheld")


def test_criterion_7_quorum_durability(tmp_path):
    """200 committed slots survive one failure per group, byte-exactly."""
    registry, replicas = build_cluster(30)
    backend = QuorumBackend(
        tmp_path, KEY, replicas, registry,
        config=QuorumConfig(segment_size=128, max_write_size=2048),
        scheme=SelectionScheme.VNOS, seed=0xC7, trace=StorageTrace(),
    )
    engine = WalEngine(backend)
    rng = random.Random(0xC7)
    expected_stream = bytearray()
    payloads = []
    for _ in range(200):
        p = rng.randbytes(rng.randint(20, 900))
        payloads.append(p)
        engine.append(p, full_sync=True)
        flush = encode_record(p)
        expected_stream += flush + b"\x00" * padding_overhead(len(flush), 128)

    for group in backend.groups:  # tolerated failures: one per group
        backend.replicas[group[0]].kill()
    assert backend.recover_assemble() == bytes(expected_stream)
    assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    # one corrupted unit on the only surviving recorded copy is detected
    registry2, replicas2 = build_cluster(9)
    backend2 = QuorumBackend(
        tmp_path / "corrupt", KEY, replicas2, registry2,
        config=QuorumConfig(segment_size=128, max_write_size=512),
        scheme=SelectionScheme.VNOS, seed=0xC7,
    )
    backend2.persist_slot(encode_record(b"\xbb" * 100))
    sid = SegmentId(backend2.current_file_id, 0, 0)
    holders = [rid for rid, rep in backend2.replicas.items() if rep.has(sid)]
    for rid in holders[1:]:
        backend2.replicas[rid].kill()
    backend2.replicas[holders[0]].corrupt(sid)
    with pytest.raises(IntegrityFailure):
        backend2.recover()
    print("\n[PASS] criterion 7: 200 slots byte-exact after V_f kills; "
          "corrupted survivor raises IntegrityFailure")


def test_criterion_8_attack_optimality():
    """The trainer is exactly optimal; clean data separates perfectly."""
    rng = random.Random(0xC8)
    for instance_no in range(100):
        pairs = random_instance(rng)
        mapping = lk.train_mapping(pairs)
        oracle_score, oracle_bounds = exhaustive_optimum(pairs)
        assert lk.mapping_objective(pairs, mapping) == oracle_score, f"instance {instance_no}"
        assert mapping.bounds == oracle_bounds, f"instance {instance_no}"

    groups = [LengthGroup(1, 15, 128), LengthGroup(16, 18, 384), LengthGroup(19, 21, 512)]
    train = planted_length_trace(groups, per_group=120, seed=0xC8)
    test = planted_length_trace(groups, per_group=60, seed=0xC8 + 1)
    scores = lk.evaluate_mapping(test, lk.train_mapping(train))
    assert all(s.precision == 1.0 and s.recall == 1.0 for s in scores.values())

    mapping = lk.IntervalMapping(sizes=(128, 256), bounds=(0, 10, 20))
    fixture = [(5, 128), (8, 128), (12, 128), (15, 256), (3, 256),
               (20, 256), (10, 128), (11, 256), (25, 256), (9, 256)]
    scores = lk.evaluate_mapping(fixture, mapping)
    assert (scores[128].precision, scores[256].precision) == (3 / 4, 3 / 6)
    assert (scores[128].recall, scores[256].recall) == (3 / 5, 3 / 4)
    print("\n[PASS] criterion 8: 100 instances == exhaustive optimum; "
          "planted data scores 1.0; fixture matches hand counts")


def test_criterion_9_metadata_discipline():
    """Lock-free single-writer updates equal the sequential oracle."""
    n_arrays, k_max = 520, 8
    rng = random.Random(0xC9)
    quorums = {i: (1000 + i % 11, 2000 + i % 11, 3000 + i % 11) for i in range(n_arrays)}

    arrays = [MetadataArray(ssn=i, k_max=k_max) for i in range(n_arrays)]
    oracle = [MetadataArray(ssn=i, k_max=k_max) for i in range(n_arrays)]
    ops = []
    for a in range(n_arrays):
        for s in range(k_max):
            digest = rng.randbytes(32)
            arrays[a].assign(s, quorums[a], digest)
            oracle[a].assign(s, quorums[a], digest)
            for element in range(3):
                if rng.random() < 0.85:
                    ops.append((a, s, quorums[a][element]))
    assert len(ops) >= 10_000

    for a, s, rid in ops:
        oracle[a].update(s, rid)

    by_owner = {}
    for op in ops:  # the 1-1 sender-to-element mapping: partition by replica
        by_owner.setdefault(op[2], []).append(op)
    barrier = threading.Barrier(len(by_owner))

    def worker(my_ops):
        barrier.wait()
        for a, s, rid in my_ops:
            arrays[a].update(s, rid)

    threads = [threading.Thread(target=worker, args=(chunk,)) for chunk in by_owner.values()]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    blobs = [a.to_bytes() for a in arrays]
    assert blobs == [o.to_bytes() for o in oracle]
    assert len({len(b) for b in blobs}) == 1
    print(f"\n[PASS] criterion 9: {len(ops)} concurrent updates across "
          f"{len(by_owner)} owners == sequential oracle; constant array size")


class TestCriterion10Shapes:
    """Ordering properties of the measured performance numbers. Absolute
    values are hardware-bound and only reported, never asserted."""

    def test_single_write_latency_nondecreasing_in_segment_count(self, fast_dir):
        engine = journal_engine(fast_dir, 128)
        medians = []
        for payload_len in (112, 8176, 65520, 131056):  # 1, 64, 512, 1024 units
            payload = b"\x55" * payload_len
            reps = []
            for _ in range(21):
                t0 = time.perf_counter()
                engine.append(payload, full_sync=True)
                reps.append(time.perf_counter() - t0)
            medians.append(statistics.median(reps))
        engine.close()
        assert medians == sorted(medians), f"latency medians not monotone: {medians}"
        print(f"\n[PASS] criterion 10a: single-write latency medians (us) "
              f"{['%.0f' % (m * 1e6) for m in medians]} nondecreasing in segment count")

    def test_smaller_segments_saturate_no_later(self, fast_dir):
        from evenlog.slots import FlushPolicy

        worker_grid = (1, 4, 16)

        def sweep(segment_size, rep):
            curve = []
            for workers in worker_grid:
                root = fast_dir / f"s{segment_size}w{workers}r{rep}"
                backend = JournalBackend(root, KEY, segment_size, sync=False)
                engine = WalEngine(backend, policy=FlushPolicy(interval_ms=5), start_flusher=True)
                report = bench.run_concurrent(WorkloadSpec.parse("uniform", 3000, seed=1),
                                              engine, workers=workers)
                engine.close()
                curve.append(report.throughput_ops)
            return curve

        def median_curve(segment_size):
            runs = [sweep(segment_size, rep) for rep in range(3)]
            return [statistics.median(col) for col in zip(*runs)]

        small, large = median_curve(32), median_curve(4096)

        def knee(curve, band=0.30):
            # smallest concurrency already within the noise band of the best
            best = max(curve)
            return next(i for i, t in enumerate(curve) if t >= (1 - band) * best)

        # the smaller-segment engine reaches its (lower) ceiling no later:
        # its knee is never to the right of the large-segment knee, and its
        # saturated throughput sits below at every concurrency level
        assert knee(small) <= knee(large), (small, large)
        assert max(small) <= max(large), (small, large)
        assert all(s <= l for s, l in zip(small, large)), (small, large)
        print(f"\n[PASS] criterion 10b: median throughput small-S {['%.0f' % t for t in small]} "
              f"vs large-S {['%.0f' % t for t in large]} over workers {worker_grid}; "
              f"smaller S saturates no later, at a lower ceiling")

    def test_recovery_time_orderings(self, fast_dir):
        payload = b"\x99" * 996  # 1012 B records
        times = {}
        for total_mb in (1, 2, 4):
            root = fast_dir / f"wal{total_mb}"
            engine = journal_engine(root, 128, sync=False)
            n = (total_mb * 1024 * 1024) // 1024
            for _ in range(n):
                engine.append(payload, full_sync=False)
            engine.close()
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                records = recover_journal(root, KEY, 128)
                reps.append(time.perf_counter() - t0)
            assert len(records) == n
            times[total_mb] = statistics.median(reps)
        assert times[1] <= times[2] <= times[4], times

        # same records, unsegmented baseline: recovery does strictly less work
        root = fast_dir / "plain4"
        backend = PlainJournalBackend(root, sync=False)
        engine = WalEngine(backend)
        for _ in range((4 * 1024 * 1024) // 1024):
            engine.append(payload, full_sync=False)
        engine.close()
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            backend.recover()
            reps.append(time.perf_counter() - t0)
        plain = statistics.median(reps)
        assert times[4] >= plain, (times[4], plain)
        print(f"\n[PASS] criterion 10c: recovery medians (ms) "
              f"{ {mb: round(t * 1e3, 1) for mb, t in times.items()} } nondecreasing; "
              f"segmented {times[4] * 1e3:.1f} >= unsegmented {plain * 1e3:.1f}")
