"""Encryption at rest for segments and metadata, digests, and key supply.

Segments are encrypted with AES-256-CBC. A stored unit is

    [iv: 16 bytes][ciphertext: S bytes]

so every unit has the constant size S + 16 for a fixed segment size S.
Segment sizes are multiples of the cipher block, so there is no inner
padding and no ciphertext expansion.

Integrity is not provided by the cipher, and only quorum recovery checks
it: each replica's copy of a segment must match the SHA-256 digest of
its plaintext (``digest_segment``) that the metadata blob holds, or
another copy is taken. A journal unit is checked only by the CRC32 of
the record it carries. That catches a torn or zeroed write, not
tampering: whoever can write the storage can alter units undetected.

Each ``ReplicaKey`` owns one AES-256-CBC encryptor and one decryptor,
built with the key and used for the key's whole life, each behind its
own lock. Building a cipher context costs two orders of magnitude more
than encrypting a 128-byte segment, so no helper builds one per call.
For the same reason ``encrypt_stream`` assembles its IV blocks and
segments in one buffer the encryptor keeps, filled under the
encryptor's lock and grown to the largest run seen (about 147 KB for a
128 KiB slot), instead of fresh buffers per call; only the ciphertext
is a new ``bytes``, so no caller ever holds a view of that buffer.

A unit is encrypted by feeding one fresh random block followed by the
segment through the long-lived encryptor; the ciphertext of that block
is the unit's IV. The encryptor chains off the last ciphertext block it
produced, which is on disk, but the IV is E(r xor c_prev) for a random r
the adversary never sees, so it is uniform and unpredictable exactly as
a freshly drawn IV would be. Each unit stays independently decryptable
with plain CBC under its own IV.

Decryption feeds block-aligned runs of whole units through the
long-lived decryptor and drops each unit's first 16 output bytes: a
unit's first ciphertext block is decrypted with its own IV as the
chaining block, whatever came before it. The decryptor writes into a
buffer it keeps (``update_into``), filled under its lock and grown to
the largest run seen (about 1 MiB for a recovery read), and the
segments are taken out of it with one strided copy into a fresh
``bytes``. So a run costs its result and nothing more: no full-size
intermediate with the IV blocks still in it, and no caller ever holds a
view of the buffer.

There is one unit codec: ``encrypt_stream`` and ``decrypt_stream``.
``encrypt_segment`` and ``decrypt_segment`` are their one-unit case,
with the same input checks.

Invariant: a context never holds a partial block, because every later
call would then be shifted. Every input is checked to be whole segments
(whole units) of a size ``segmentation.check_segment_size`` accepts
before it reaches a context; a rejected input raises ``ValueError`` and
leaves the context untouched. Contexts are never finalized.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import InvalidConfig, KeyNotFound
from .segmentation import check_segment_size

IV_SIZE = 16
KEY_SIZE = 32
DIGEST_SIZE = 32


class _Context:
    """One long-lived CBC context. cryptography does not document its
    contexts as thread-safe, so every update holds the lock. ``_buf`` is
    the context's work buffer: the encryptor's units before the cipher
    (see ``update_units``), the decryptor's output (see ``update_strip``)."""

    __slots__ = ("_ctx", "_lock", "_buf")

    def __init__(self, ctx):
        self._ctx = ctx
        self._lock = threading.Lock()
        self._buf = np.empty(0, dtype=np.uint8)

    def update_units(self, ivs: bytes, segments: bytes, segment_size: int) -> bytes:
        """Interleave one 16-byte block of ``ivs`` before each segment of
        ``segments`` in ``_buf``, grown to the largest run seen, and run
        that prefix of it through the context. The result is a fresh
        ``bytes``; no view of the buffer leaves the lock."""
        count = len(segments) // segment_size
        size = count * (IV_SIZE + segment_size)
        with self._lock:
            if len(self._buf) < size:
                self._buf = np.empty(size, dtype=np.uint8)
            units = self._buf[:size].reshape(count, IV_SIZE + segment_size)
            units[:, :IV_SIZE] = np.frombuffer(ivs, dtype=np.uint8).reshape(count, IV_SIZE)
            units[:, IV_SIZE:] = np.frombuffer(segments, dtype=np.uint8).reshape(count, segment_size)
            return self._ctx.update(units)

    def update_strip(self, units: bytes, unit_size: int) -> bytes:
        """Run ``units`` through the context into ``_buf``, grown to the
        largest run seen, and return the output without each unit's first
        16 bytes: one strided copy into a fresh ``bytes``, so no view of
        the buffer leaves the lock."""
        size = len(units)
        with self._lock:
            # update_into wants room for one block more than it writes
            if len(self._buf) < size + IV_SIZE - 1:
                self._buf = np.empty(size + IV_SIZE - 1, dtype=np.uint8)
            self._ctx.update_into(units, self._buf)
            return self._buf[:size].reshape(-1, unit_size)[:, IV_SIZE:].tobytes()


@dataclass(frozen=True)
class ReplicaKey:
    """256-bit symmetric key and its CBC contexts. Never persisted by
    anything in this package."""

    key_id: str
    secret: bytes = field(repr=False)
    _enc: _Context = field(init=False, repr=False, compare=False)
    _dec: _Context = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.secret) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(self.secret)}")
        aes = algorithms.AES(self.secret)
        # the starting chaining blocks are never seen: every unit's IV is
        # the ciphertext of a fresh random block, and decryption drops
        # each unit's first output block
        object.__setattr__(self, "_enc", _Context(Cipher(aes, modes.CBC(os.urandom(IV_SIZE))).encryptor()))
        object.__setattr__(self, "_dec", _Context(Cipher(aes, modes.CBC(bytes(IV_SIZE))).decryptor()))


def encrypt_segment(key: ReplicaKey, plaintext: bytes) -> bytes:
    """Encrypt one segment into one stored unit: ``encrypt_stream`` of a
    run of one segment."""
    return encrypt_stream(key, plaintext, len(plaintext))


def decrypt_segment(key: ReplicaKey, unit: bytes) -> bytes:
    """Decrypt one stored unit: ``decrypt_stream`` of a run of one unit.
    Wrong keys yield garbage, not an error; integrity comes from the
    digest check."""
    return decrypt_stream(key, unit, len(unit) - IV_SIZE)


def encrypt_stream(key: ReplicaKey, padded: bytes, segment_size: int) -> bytes:
    """Encrypt a run of segments into concatenated stored-unit bytes.

    ``padded`` must be a whole number of segments (see
    ``segmentation.pad_to_segments``). Output length is
    (len(padded)/S) * (S + 16).
    """
    check_segment_size(segment_size)
    if len(padded) % segment_size != 0:
        raise ValueError("input is not a whole number of segments")
    count = len(padded) // segment_size
    if count == 0:
        return b""
    # one random block before each segment; its ciphertext becomes the
    # unit IV (see module docstring)
    return key._enc.update_units(os.urandom(IV_SIZE * count), padded, segment_size)


def decrypt_stream(key: ReplicaKey, units: bytes, segment_size: int) -> bytes:
    """Decrypt concatenated stored units back to the padded segment run."""
    check_segment_size(segment_size)
    unit = IV_SIZE + segment_size
    if len(units) % unit != 0:
        raise ValueError("input is not a whole number of stored units")
    if not units:
        return b""
    return key._dec.update_strip(units, unit)


def split_units(units: bytes, segment_size: int) -> list[bytes]:
    """Slice concatenated stored-unit bytes into one bytes value per unit."""
    unit = IV_SIZE + segment_size
    if len(units) % unit != 0:
        raise ValueError("input is not a whole number of stored units")
    return [units[i : i + unit] for i in range(0, len(units), unit)]


def digest_segment(plaintext: bytes) -> bytes:
    """SHA-256 of the plaintext segment."""
    return hashlib.sha256(plaintext).digest()


class StaticKeyProvider:
    """Hands out the one replica key, ``default``: HMAC-SHA256(master,
    b"default") of a master secret (a stand-in for an external KMS).

    The same master secret yields the same key, which is how a restart
    recovers it: keep the secret outside the storage this engine manages
    (``EVENLOG_KEY``) and rebuild the provider from it.
    """

    def __init__(self, master: bytes):
        if not master:
            raise InvalidConfig("empty master secret")
        self._key = ReplicaKey("default", hmac.new(master, b"default", hashlib.sha256).digest())

    def get(self, key_id: str) -> ReplicaKey:
        if key_id != self._key.key_id:
            raise KeyNotFound(key_id)
        return self._key

    @classmethod
    def from_env(cls) -> "StaticKeyProvider":
        value = os.environ.get("EVENLOG_KEY")
        if not value:
            raise KeyNotFound("environment variable EVENLOG_KEY is not set")
        try:
            master = bytes.fromhex(value)
        except ValueError:
            raise InvalidConfig("environment variable EVENLOG_KEY is not hex") from None
        return cls(master)

    @classmethod
    def ephemeral(cls) -> "StaticKeyProvider":
        return cls(os.urandom(KEY_SIZE))
