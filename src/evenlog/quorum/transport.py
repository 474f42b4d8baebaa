"""Optional socket transport for replicas.

Frames are length-prefixed, little-endian:

    [len u32][type u8][body]

where ``len`` counts the type byte plus the body. Frame types:

    0x01 STORE        body = sid(16) digest(32) unit(16 + S)
    0x02 STORE_ACK    body = sid(16)
    0x03 READ         body = sid(16)
    0x04 READ_DATA    body = sid(16) unit(16 + S)
    0x05 READ_MISSING body = sid(16)

A sender keeps one connection per replica, established once and reused
for every message, so connection setup never sits on the write path.
The in-process simulation charges the same frame sizes to the
observation trace, so both transports present identical observables.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

from ..crypto import DIGEST_SIZE, IV_SIZE
from ..errors import SegmentNotFound
from .replica import Replica, SegmentId, SID_SIZE

_LEN = struct.Struct("<I")

MSG_STORE = 0x01
MSG_STORE_ACK = 0x02
MSG_READ = 0x03
MSG_READ_DATA = 0x04
MSG_READ_MISSING = 0x05


def store_frame_size(segment_size: int) -> int:
    return _LEN.size + 1 + SID_SIZE + DIGEST_SIZE + IV_SIZE + segment_size


def _check_unit(unit: bytes, segment_size: int) -> bytes:
    if len(unit) != IV_SIZE + segment_size:
        raise ConnectionError(f"stored unit of {len(unit)} bytes, expected {IV_SIZE + segment_size}")
    return unit


def encode_frame(msg_type: int, body: bytes) -> bytes:
    return _LEN.pack(1 + len(body)) + bytes([msg_type]) + body


def read_frame(sock_file) -> tuple[int, bytes]:
    header = sock_file.read(_LEN.size)
    if len(header) < _LEN.size:
        raise ConnectionError("connection closed mid-frame")
    (length,) = _LEN.unpack(header)
    if length < 1:
        raise ConnectionError(f"invalid frame length {length}")
    frame = sock_file.read(length)
    if len(frame) < length:
        raise ConnectionError("connection closed mid-frame")
    return frame[0], frame[1:]


class _ReplicaRequestHandler(socketserver.BaseRequestHandler):
    def handle(self):
        replica: Replica = self.server.replica
        segment_size: int = self.server.segment_size
        rfile = self.request.makefile("rb")
        try:
            while True:
                try:
                    msg_type, body = read_frame(rfile)
                except ConnectionError:
                    return
                if msg_type == MSG_STORE:
                    sid = SegmentId.unpack(body[:SID_SIZE])
                    digest = body[SID_SIZE : SID_SIZE + DIGEST_SIZE]
                    unit = _check_unit(body[SID_SIZE + DIGEST_SIZE :], segment_size)
                    if replica.store(sid, unit, digest):
                        self.request.sendall(encode_frame(MSG_STORE_ACK, sid.pack()))
                    # dead replica: no response, the sender times out
                elif msg_type == MSG_READ:
                    sid = SegmentId.unpack(body[:SID_SIZE])
                    try:
                        unit = replica.read(sid)
                    except SegmentNotFound:
                        self.request.sendall(encode_frame(MSG_READ_MISSING, sid.pack()))
                    else:
                        self.request.sendall(encode_frame(MSG_READ_DATA, sid.pack() + unit))
                else:
                    raise ConnectionError(f"unknown frame type {msg_type:#x}")
        finally:
            rfile.close()


class ReplicaServer:
    """Hosts one replica on a TCP port (threaded, loopback-oriented)."""

    def __init__(self, replica: Replica, segment_size: int, host: str = "127.0.0.1", port: int = 0):
        self._server = socketserver.ThreadingTCPServer((host, port), _ReplicaRequestHandler)
        self._server.daemon_threads = True
        self._server.replica = replica
        self._server.segment_size = segment_size
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    def start(self) -> "ReplicaServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()


class SocketChannel:
    """Client side of one replica connection, established once."""

    def __init__(self, address: tuple[str, int], segment_size: int, timeout: float = 2.0):
        self.segment_size = segment_size
        self.timeout = timeout
        self._sock = socket.create_connection(address, timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self.alive = True

    def store(self, sid: SegmentId, unit: bytes, digest: bytes) -> bool:
        body = sid.pack() + digest + unit
        with self._lock:
            try:
                self._sock.sendall(encode_frame(MSG_STORE, body))
                msg_type, reply = read_frame(self._rfile)
            except (ConnectionError, socket.timeout, OSError):
                return False
        return msg_type == MSG_STORE_ACK and reply == sid.pack()

    def read(self, sid: SegmentId) -> bytes:
        with self._lock:
            self._sock.sendall(encode_frame(MSG_READ, sid.pack()))
            msg_type, reply = read_frame(self._rfile)
        if msg_type == MSG_READ_DATA and reply[:SID_SIZE] == sid.pack():
            return _check_unit(reply[SID_SIZE:], self.segment_size)
        raise SegmentNotFound(f"segment {sid} not available over socket")

    def close(self) -> None:
        self.alive = False
        self._rfile.close()
        self._sock.close()
