"""Encryption at rest for segments and metadata, digests, and key supply.

Segments are encrypted with AES-256-CBC. A stored unit is

    [iv: 16 bytes][ciphertext: S bytes]

so every unit has the constant size S + 16 for a fixed segment size S.
Segment sizes are multiples of the cipher block, so there is no inner
padding and no ciphertext expansion.

Integrity is not provided by the cipher: callers compare SHA-256 digests
of the plaintext (see ``digest_segment``), which keeps verification
independent of whoever stored the ciphertext.

The batch helpers encrypt a whole run of segments with a single cipher
call by prepending one fresh random block per segment; the ciphertext of
that block is the unit's IV. Each unit remains independently decryptable
with plain CBC, and the IV is uniformly random (it is AES output of a
block the adversary never sees), so batch output is indistinguishable
from per-unit encryption. It exists because per-call cipher overhead is
two orders of magnitude above the cost of the 128-byte segments we feed
it.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import KeyNotFound

IV_SIZE = 16
KEY_SIZE = 32
DIGEST_SIZE = 32


@dataclass(frozen=True)
class ReplicaKey:
    """256-bit symmetric key. Never persisted by anything in this package."""

    key_id: str
    secret: bytes = field(repr=False)

    def __post_init__(self):
        if len(self.secret) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(self.secret)}")


def _check_block_aligned(data: bytes) -> None:
    if not data or len(data) % 16 != 0:
        raise ValueError(f"plaintext length {len(data)} is not a positive multiple of 16")


def encrypt_segment(key: ReplicaKey, plaintext: bytes) -> bytes:
    """Encrypt one segment under a fresh random IV into one stored unit."""
    _check_block_aligned(plaintext)
    iv = os.urandom(IV_SIZE)
    enc = Cipher(algorithms.AES(key.secret), modes.CBC(iv)).encryptor()
    return iv + enc.update(plaintext) + enc.finalize()


def decrypt_segment(key: ReplicaKey, unit: bytes) -> bytes:
    """Decrypt one stored unit. Wrong keys yield garbage, not an error;
    integrity comes from the digest check."""
    dec = Cipher(algorithms.AES(key.secret), modes.CBC(unit[:IV_SIZE])).decryptor()
    return dec.update(unit[IV_SIZE:]) + dec.finalize()


def encrypt_stream(key: ReplicaKey, padded: bytes, segment_size: int) -> bytes:
    """Encrypt a run of segments into concatenated stored-unit bytes.

    ``padded`` must be a whole number of segments (see
    ``segmentation.pad_to_segments``). Output length is
    (len(padded)/S) * (S + 16).
    """
    if segment_size % 16 != 0:
        raise ValueError("segment size must be a multiple of 16")
    if len(padded) % segment_size != 0:
        raise ValueError("input is not a whole number of segments")
    count = len(padded) // segment_size
    if count == 0:
        return b""
    # interleave one random block before each segment; its ciphertext
    # becomes the unit IV (see module docstring)
    unit = IV_SIZE + segment_size
    buf = np.empty((count, unit), dtype=np.uint8)
    buf[:, :IV_SIZE] = np.frombuffer(os.urandom(IV_SIZE * count), dtype=np.uint8).reshape(count, IV_SIZE)
    buf[:, IV_SIZE:] = np.frombuffer(padded, dtype=np.uint8).reshape(count, segment_size)
    enc = Cipher(algorithms.AES(key.secret), modes.CBC(os.urandom(IV_SIZE))).encryptor()
    return enc.update(buf.tobytes()) + enc.finalize()


def decrypt_stream(key: ReplicaKey, units: bytes, segment_size: int) -> bytes:
    """Decrypt concatenated stored units back to the padded segment run."""
    unit = IV_SIZE + segment_size
    if len(units) % unit != 0:
        raise ValueError("input is not a whole number of stored units")
    if not units:
        return b""
    # one CBC pass over the whole run: each unit's ciphertext is chained
    # off its own IV, which immediately precedes it in the stream, so
    # every block except the per-unit IV slot decrypts correctly
    dec = Cipher(algorithms.AES(key.secret), modes.CBC(bytes(IV_SIZE))).decryptor()
    plain = dec.update(units) + dec.finalize()
    count = len(units) // unit
    return np.frombuffer(plain, dtype=np.uint8).reshape(count, unit)[:, IV_SIZE:].tobytes()


def split_units(units: bytes, segment_size: int) -> list[bytes]:
    """Slice concatenated stored-unit bytes into one bytes value per unit."""
    unit = IV_SIZE + segment_size
    if len(units) % unit != 0:
        raise ValueError("input is not a whole number of stored units")
    return [units[i : i + unit] for i in range(0, len(units), unit)]


def digest_segment(plaintext: bytes) -> bytes:
    """SHA-256 of the plaintext segment."""
    return hashlib.sha256(plaintext).digest()


class KeyProvider:
    """Hands out replica keys by id (stand-in for an external KMS)."""

    def get(self, key_id: str) -> ReplicaKey:
        raise NotImplementedError


class StaticKeyProvider(KeyProvider):
    """Derives per-id keys from one master secret.

    The same master secret yields the same keys, which is how a restart
    recovers its key: keep the secret outside the storage this engine
    manages (environment variable, fd) and rebuild the provider from it.
    """

    def __init__(self, master: bytes, key_ids: tuple[str, ...] = ("default",)):
        if not master:
            raise ValueError("empty master secret")
        self._keys = {
            kid: ReplicaKey(kid, hmac.new(master, kid.encode(), hashlib.sha256).digest())
            for kid in key_ids
        }

    def get(self, key_id: str) -> ReplicaKey:
        try:
            return self._keys[key_id]
        except KeyError:
            raise KeyNotFound(key_id) from None

    @classmethod
    def from_env(cls, var: str = "EVENLOG_KEY", key_ids: tuple[str, ...] = ("default",)) -> "StaticKeyProvider":
        value = os.environ.get(var)
        if not value:
            raise KeyNotFound(f"environment variable {var} is not set")
        return cls(bytes.fromhex(value), key_ids)

    @classmethod
    def from_fd(cls, fd: int, key_ids: tuple[str, ...] = ("default",)) -> "StaticKeyProvider":
        """Read the master secret from an inherited file descriptor (the
        usual way a supervisor hands a secret over without an env var)."""
        with os.fdopen(fd, "rb", closefd=True) as f:
            master = f.read().strip()
        if not master:
            raise KeyNotFound(f"file descriptor {fd} supplied no key material")
        return cls(master, key_ids)

    @classmethod
    def ephemeral(cls, key_ids: tuple[str, ...] = ("default",)) -> "StaticKeyProvider":
        return cls(os.urandom(KEY_SIZE), key_ids)
