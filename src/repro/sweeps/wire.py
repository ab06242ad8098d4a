"""Length-prefixed JSON framing for the distributed sweep protocol.

One frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  The same framing is used in both directions, and both ends --
the coordinator's connection threads and the runner client -- read and write
it through the same two blocking-socket calls here, so a protocol change
cannot desynchronize the two sides.

A *clean* close (EOF exactly on a frame boundary) reads as ``None``; EOF in
the middle of a frame raises :class:`FrameError` -- the coordinator treats it
as a dropped connection and reclaims the peer's leases immediately instead of
waiting for their deadlines.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

#: Frame header: unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame (a full ``ScenarioResult`` is ~100 KiB; 64 MiB is
#: far above any legitimate payload and cheap insurance against a corrupt or
#: hostile length header allocating unbounded memory).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """A frame could not be read or decoded (truncated, oversized, not JSON)."""


def encode_frame(message: dict) -> bytes:
    """``message`` as one wire frame (header + compact JSON body)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Decode a frame body; raises :class:`FrameError` on malformed JSON."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(f"frame must decode to an object, got {type(message).__name__}")
    return message


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on immediate EOF, raises mid-read."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameError(f"connection closed {remaining} bytes into a read")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> Optional[dict]:
    """Read one frame from a blocking socket (``None`` on clean EOF)."""
    header = _recv_exactly(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame header announces {length} bytes (> MAX_FRAME_BYTES)")
    body = _recv_exactly(sock, length)
    if body is None:
        raise FrameError("connection closed between frame header and body")
    return decode_body(body)


def send_frame_sync(sock: socket.socket, message: dict) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))
