"""Triplet metadata arrays: sentinel discipline, codec, lock-free updates."""

import os
import random
import threading

import numpy as np
import pytest

from evenlog.quorum.metadata import SENTINEL, MetadataArray, array_dtype, serialized_size


def make_array(k_max=4, quorum=(10, 11, 12)):
    array = MetadataArray(ssn=3, k_max=k_max)
    array.assign(0, quorum, os.urandom(32))
    return array


class TestEntrySemantics:
    def test_two_acks_commit(self):
        array = make_array()
        array.update(0, 10)
        assert not array.entries[0].committed()
        array.update(0, 12)
        assert array.entries[0].committed()
        assert array.entries[0].replica_ids == [10, SENTINEL, 12]

    def test_one_ack_is_not_committed(self):
        array = make_array()
        entry = array.update(0, 11)
        assert entry.ack_count == 1 and not entry.committed()

    def test_double_update_of_owned_element_asserts(self):
        array = make_array()
        array.update(0, 10)
        with pytest.raises(AssertionError):
            array.update(0, 10)

    def test_update_requires_assignment(self):
        array = MetadataArray(ssn=0, k_max=2)
        with pytest.raises(ValueError):
            array.update(0, 10)

    def test_update_rejects_foreign_replica(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.update(0, 999)  # not a member of the quorum

    def test_index_bounds(self):
        array = make_array(k_max=2)
        with pytest.raises(IndexError):
            array.update(2, 10)

    def test_never_more_than_three_ids(self):
        array = make_array()
        for rid in (10, 11, 12):
            array.update(0, rid)
        assert array.entries[0].ack_count == 3
        assert set(array.entries[0].acked_replicas()) == {10, 11, 12}


class TestSerialization:
    def test_every_array_has_the_same_byte_length(self):
        sizes = set()
        for n_assigned in range(5):
            array = MetadataArray(ssn=n_assigned, k_max=4)
            for i in range(n_assigned):
                array.assign(i, (1, 2, 3), os.urandom(32))
                array.update(i, 1)
                array.update(i, 3)
            sizes.add(len(array.to_bytes()))
        assert sizes == {serialized_size(4)}

    def test_serialized_size_is_block_aligned(self):
        for k in (1, 4, 8, 16):
            assert serialized_size(k) % 16 == 0
            assert serialized_size(k) >= 4 + 44 * k

    def test_roundtrip(self):
        array = MetadataArray(ssn=41, k_max=3)
        digest = os.urandom(32)
        array.assign(0, (7, 8, 9), digest)
        array.update(0, 8)
        array.update(0, 9)
        back = MetadataArray.from_bytes(array.to_bytes(), 3)
        assert back.ssn == 41
        assert back.entries[0].replica_ids == [SENTINEL, 8, 9]
        assert back.entries[0].digest == digest
        assert back.entries[1].ack_count == 0 and back.entries[2].ack_count == 0

    def test_blank_entries_stay_sentinel_only(self):
        back = MetadataArray.from_bytes(MetadataArray(ssn=0, k_max=2).to_bytes(), 2)
        assert all(e.replica_ids == [SENTINEL] * 3 for e in back.entries)

    @pytest.mark.parametrize("k_max", [1, 3, 16])
    def test_numpy_view_matches_from_bytes(self, k_max):
        # digests ending in NUL bytes must come back whole
        rng = random.Random(k_max)
        blobs = []
        for ssn in range(4):
            array = MetadataArray(ssn=ssn * 7, k_max=k_max)
            for i in range(rng.randint(0, k_max)):
                array.assign(i, (i, i + 1, i + 2), rng.randbytes(30 - i % 3 * 15) + b"\x00" * (2 + i % 3 * 15))
                for rid in rng.sample((i, i + 1, i + 2), rng.randint(0, 3)):
                    array.update(i, rid)
            blobs.append(array.to_bytes())
        view = np.frombuffer(b"".join(blobs), array_dtype(k_max))
        assert array_dtype(k_max).itemsize == serialized_size(k_max)
        for blob, row in zip(blobs, view):
            back = MetadataArray.from_bytes(blob, k_max)
            assert row["ssn"] == back.ssn
            assert row["entries"]["ids"].tolist() == [e.replica_ids for e in back.entries]
            assert [d.tobytes() for d in row["entries"]["digest"]] == [e.digest for e in back.entries]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            MetadataArray.from_bytes(b"\x00" * 10, 2)


class TestLockFreeOwnership:
    def test_concurrent_updates_match_sequential_oracle(self):
        """Element ownership makes a lock unnecessary: each worker writes
        only the triplet elements of its own replica."""
        n_arrays, k_max = 50, 4
        quorum_of = lambda i: (100 + i % 7, 200 + i % 7, 300 + i % 7)
        rng = random.Random(6)

        ops = []  # (array_idx, segment_idx, replica_id)
        arrays = [MetadataArray(ssn=i, k_max=k_max) for i in range(n_arrays)]
        oracle = [MetadataArray(ssn=i, k_max=k_max) for i in range(n_arrays)]
        for a in range(n_arrays):
            quorum = quorum_of(a)
            for s in range(k_max):
                digest = os.urandom(32)
                arrays[a].assign(s, quorum, digest)
                oracle[a].assign(s, quorum, digest)
                for element in range(3):
                    if rng.random() < 0.8:
                        ops.append((a, s, quorum[element]))

        for a, s, rid in ops:  # sequential oracle
            oracle[a].update(s, rid)

        by_replica = {}
        for op in ops:
            by_replica.setdefault(op[2] % 100, []).append(op)
        barrier = threading.Barrier(len(by_replica))

        def worker(my_ops):
            barrier.wait()
            for a, s, rid in my_ops:
                arrays[a].update(s, rid)

        threads = [threading.Thread(target=worker, args=(ops_,)) for ops_ in by_replica.values()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert [a.to_bytes() for a in arrays] == [o.to_bytes() for o in oracle]
