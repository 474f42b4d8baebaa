"""Triplet metadata arrays: sentinel discipline, codec, lock-free updates."""

import os
import random
import struct
import threading

import pytest

from evenlog.quorum.metadata import SENTINEL, MetadataArray, array_dtype, serialized_size


def make_array(k_max=4, quorum=(10, 11, 12)):
    array = MetadataArray(ssn=3, k_max=k_max)
    array.assign(0, quorum, os.urandom(32))
    return array


def acks(array, index):
    return int((array.ids[index] != SENTINEL).sum())


def committed(array, index):
    return acks(array, index) >= 2


class TestEntrySemantics:
    def test_two_acks_commit(self):
        array = make_array()
        array.update(0, 10)
        assert not committed(array, 0)
        array.update(0, 12)
        assert committed(array, 0)
        assert array.ids[0].tolist() == [10, SENTINEL, 12]

    def test_one_ack_is_not_committed(self):
        array = make_array()
        array.update(0, 11)
        assert acks(array, 0) == 1 and not committed(array, 0)

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
        assert acks(array, 0) == 3
        assert set(array.ids[0].tolist()) == {10, 11, 12}


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
        assert back.record["ssn"] == 41
        assert back.ids[0].tolist() == [SENTINEL, 8, 9]
        assert back.digests[0].tobytes() == digest
        assert acks(back, 1) == 0 and acks(back, 2) == 0

    def test_blank_entries_stay_sentinel_only(self):
        back = MetadataArray.from_bytes(MetadataArray(ssn=0, k_max=2).to_bytes(), 2)
        assert back.ids.tolist() == [[SENTINEL] * 3] * 2

    @pytest.mark.parametrize("k_max", [1, 3, 16])
    def test_golden_vector(self, k_max):
        """The blob FORMAT.md specifies, built here with ``struct``:
        [ssn u32][K x (3 x i32 triplet, 32-byte digest)], zero-padded to
        16 bytes. Digests ending in NUL bytes must come back whole."""
        rng = random.Random(k_max)
        for ssn in range(0, 28, 7):
            array = MetadataArray(ssn=ssn, k_max=k_max)
            entries = [([SENTINEL] * 3, bytes(32)) for _ in range(k_max)]
            for i in range(rng.randint(0, k_max)):
                quorum = (i, i + 1, i + 2)
                digest = rng.randbytes(30 - i % 3 * 15) + b"\x00" * (2 + i % 3 * 15)
                array.assign(i, quorum, digest)
                for rid in rng.sample(quorum, rng.randint(0, 3)):
                    array.update(i, rid)
                    entries[i][0][quorum.index(rid)] = rid
                entries[i] = (entries[i][0], digest)
            raw = struct.pack("<I", ssn) + b"".join(struct.pack("<3i32s", *ids, d) for ids, d in entries)
            expected = raw + bytes(-len(raw) % 16)
            assert len(expected) == serialized_size(k_max) == array_dtype(k_max).itemsize
            assert array.to_bytes() == expected
            back = MetadataArray.from_bytes(expected, k_max)
            assert back.record["ssn"] == ssn
            assert back.ids.tolist() == [ids for ids, _ in entries]
            assert [d.tobytes() for d in back.digests] == [d for _, d in entries]
            assert back.to_bytes() == expected

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
