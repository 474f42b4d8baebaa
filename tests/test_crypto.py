"""Segment encryption, digests, and key supply."""

import os
import sys
import threading
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from evenlog import crypto
from evenlog.errors import KeyNotFound

from .conftest import MASTER


class TestSegmentRoundtrip:
    def test_decrypt_recovers_plaintext(self, key):
        seg = os.urandom(128)
        assert crypto.decrypt_segment(key, crypto.encrypt_segment(key, seg)) == seg

    def test_fresh_iv_per_encryption(self, key):
        seg = os.urandom(128)
        a = crypto.encrypt_segment(key, seg)
        b = crypto.encrypt_segment(key, seg)
        assert a[:16] != b[:16] and a[16:] != b[16:]

    def test_stored_unit_size_is_s_plus_16(self, key):
        for _ in range(1000):
            seg = os.urandom(128)
            assert len(crypto.encrypt_segment(key, seg)) == 144

    def test_no_expansion_for_other_sizes(self, key):
        for size in (32, 64, 512, 4096):
            unit = crypto.encrypt_segment(key, os.urandom(size))
            assert len(unit) == 16 + size

    def test_unaligned_plaintext_rejected(self, key):
        with pytest.raises(ValueError):
            crypto.encrypt_segment(key, b"x" * 100)

    def test_wrong_key_yields_garbage_not_error(self, key):
        other = crypto.StaticKeyProvider(b"another-master-secret-32-bytes!!").get("default")
        seg = os.urandom(128)
        garbled = crypto.decrypt_segment(other, crypto.encrypt_segment(key, seg))
        assert garbled != seg
        assert crypto.digest_segment(garbled) != crypto.digest_segment(seg)


class TestStreamBatch:
    # alternating run sizes: the encryptor's buffer grows, then serves a
    # smaller run from its prefix
    RUN_SEGMENTS = (9, 1, 1024, (2 << 20) // 128, 3)

    def test_stream_roundtrip(self, key):
        for count in self.RUN_SEGMENTS:
            padded = os.urandom(128 * count)
            units = crypto.encrypt_stream(key, padded, 128)
            assert type(units) is bytes and len(units) == count * 144
            assert crypto.decrypt_stream(key, units, 128) == padded

    def test_earlier_result_survives_later_calls(self, key):
        runs = []
        for count in self.RUN_SEGMENTS:
            padded = os.urandom(128 * count)
            units = crypto.encrypt_stream(key, padded, 128)
            runs.append((padded, units, bytes(units)))  # a copy, had it been a view
        crypto.encrypt_stream(key, os.urandom(128 * 1024), 64)
        plains = []
        for padded, units, copy in runs:
            assert units == copy
            plain = crypto.decrypt_stream(key, units, 128)
            assert type(plain) is bytes and plain == padded
            plains.append((plain, bytes(plain)))
        # a later, larger run resizes the decryptor's buffer
        crypto.decrypt_stream(key, crypto.encrypt_stream(key, os.urandom(128 * 20000), 128), 128)
        for plain, copy in plains:
            assert plain == copy

    def test_decrypt_allocates_only_its_result(self, key):
        count = (1 << 20) // 144  # one 1 MiB recovery read: 7281 units
        units = crypto.encrypt_stream(key, os.urandom(128 * count), 128)
        crypto.decrypt_stream(key, units, 128)  # the decryptor's buffer grows once
        tracemalloc.start()
        try:
            plain = crypto.decrypt_stream(key, units, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plain) == 128 * count
        assert peak <= len(plain) + 64 * 1024

    def test_batch_units_decrypt_individually(self, key):
        padded = os.urandom(64 * 5)
        units = crypto.split_units(crypto.encrypt_stream(key, padded, 64), 64)
        assert len(units) == 5
        for i, unit in enumerate(units):
            assert type(unit) is bytes and len(unit) == 64 + 16
            assert crypto.decrypt_segment(key, unit) == padded[i * 64 : (i + 1) * 64]

    def test_individual_units_decrypt_as_stream(self, key):
        segs = [os.urandom(128) for _ in range(4)]
        blob = b"".join(crypto.encrypt_segment(key, s) for s in segs)
        assert crypto.decrypt_stream(key, blob, 128) == b"".join(segs)

    def test_batch_ivs_are_distinct(self, key):
        units = crypto.split_units(crypto.encrypt_stream(key, os.urandom(128 * 50), 128), 128)
        assert len({u[:16] for u in units}) == 50

    def test_empty_stream(self, key):
        assert crypto.encrypt_stream(key, b"", 128) == b""
        assert crypto.decrypt_stream(key, b"", 128) == b""

    def test_partial_input_rejected(self, key):
        with pytest.raises(ValueError):
            crypto.encrypt_stream(key, os.urandom(100), 128)
        with pytest.raises(ValueError):
            crypto.decrypt_stream(key, os.urandom(145), 128)


class TestSharedContexts:
    """Each key keeps one encryptor and one decryptor for its whole life."""

    def test_misaligned_unit_rejected_and_context_intact(self, key):
        seg = os.urandom(128)
        unit = crypto.encrypt_segment(key, seg)
        with pytest.raises(ValueError):
            crypto.decrypt_segment(key, unit + b"x")
        with pytest.raises(ValueError):
            crypto.decrypt_segment(key, unit[:16])
        assert crypto.decrypt_segment(key, unit) == seg

    def test_misaligned_segment_size_rejected(self, key):
        seg = os.urandom(128)
        unit = crypto.encrypt_segment(key, seg)
        with pytest.raises(ValueError):
            crypto.decrypt_stream(key, os.urandom(116 * 3), 100)
        with pytest.raises(ValueError):
            crypto.decrypt_stream(key, os.urandom(200), 100)
        assert crypto.decrypt_segment(key, unit) == seg

    def test_iv_is_not_previous_ciphertext_block(self, key):
        for _ in range(100):
            a = crypto.encrypt_segment(key, os.urandom(128))
            b = crypto.encrypt_segment(key, os.urandom(128))
            assert b[:16] != a[-16:]

    def test_unit_decrypts_with_one_shot_cipher(self, key):
        seg = os.urandom(128)
        unit = crypto.encrypt_segment(key, seg)
        dec = Cipher(algorithms.AES(key.secret), modes.CBC(unit[:16])).decryptor()
        assert dec.update(unit[16:]) + dec.finalize() == seg

    def test_one_shot_unit_decrypts(self, key):
        seg, iv = os.urandom(128), os.urandom(16)
        enc = Cipher(algorithms.AES(key.secret), modes.CBC(iv)).encryptor()
        unit = iv + enc.update(seg) + enc.finalize()
        assert crypto.decrypt_segment(key, unit) == seg
        assert crypto.decrypt_stream(key, unit + unit, 128) == seg + seg

    def test_concurrent_roundtrips_on_one_key(self, key):
        failures = []

        def roundtrips():
            for i in range(500):
                padded = os.urandom(64 * 3)
                units = crypto.split_units(crypto.encrypt_stream(key, padded, 64), 64)
                if b"".join(crypto.decrypt_segment(key, u) for u in units) != padded:
                    failures.append(padded)
                if i % 100 == 0:  # runs that resize the shared buffer
                    for count in TestStreamBatch.RUN_SEGMENTS:
                        run = os.urandom(128 * count)
                        if crypto.decrypt_stream(key, crypto.encrypt_stream(key, run, 128), 128) != run:
                            failures.append(run)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=roundtrips) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestDigest:
    def test_sha256_empty_standard_vector(self):
        assert crypto.digest_segment(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_deterministic(self):
        seg = os.urandom(128)
        assert crypto.digest_segment(seg) == crypto.digest_segment(seg)

    def test_single_bit_flip_changes_digest(self):
        seg = bytearray(os.urandom(128))
        before = crypto.digest_segment(bytes(seg))
        for bit in (0, 511, 1023):
            flipped = bytearray(seg)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert crypto.digest_segment(bytes(flipped)) != before


class TestKeyProvider:
    def test_same_id_same_key(self, key):
        provider = crypto.StaticKeyProvider(MASTER)
        assert provider.get("default").secret == provider.get("default").secret == key.secret

    def test_restart_recovers_the_key(self):
        before = crypto.StaticKeyProvider(MASTER).get("default")
        after = crypto.StaticKeyProvider(MASTER).get("default")  # simulated restart
        assert before.secret == after.secret

    def test_unknown_id(self):
        with pytest.raises(KeyNotFound):
            crypto.StaticKeyProvider(MASTER).get("nope")

    def test_distinct_ids_distinct_keys(self):
        provider = crypto.StaticKeyProvider(MASTER, key_ids=("a", "b"))
        assert provider.get("a").secret != provider.get("b").secret

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
        assert crypto.StaticKeyProvider.from_env().get("default").secret == (
            crypto.StaticKeyProvider(MASTER).get("default").secret
        )
        monkeypatch.delenv("EVENLOG_KEY")
        with pytest.raises(KeyNotFound):
            crypto.StaticKeyProvider.from_env()

    def test_key_repr_hides_secret(self, key):
        assert key.secret.hex() not in repr(key)

    def test_from_fd(self):
        import os as _os

        r, w = _os.pipe()
        _os.write(w, MASTER)
        _os.close(w)
        provider = crypto.StaticKeyProvider.from_fd(r)
        assert provider.get("default").secret == crypto.StaticKeyProvider(MASTER).get("default").secret
