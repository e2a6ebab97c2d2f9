"""Wire format of the shard-serving layer.

Every message between the :class:`~repro.dist.router.ShardRouter` and a
shard worker — whatever the transport — is one *frame*: a small JSON
header describing the message kind plus named raw numpy arrays, laid out
back to back.  The format deliberately mirrors the v3 on-disk container
(JSON header + little-endian raw arrays) so the whole stack speaks one
idiom, and it is pickle-free by construction: a hostile or corrupt frame
can fail decoding, but it can never execute code.

Frame layout::

    magic   4 bytes  b"RPD1"
    header  u32 little-endian length, then that many JSON bytes
    arrays  raw little-endian bytes at the offsets the header declares

The header is ``{"meta": {...}, "arrays": {name: {dtype, shape, offset}},
"data_len": N, "crc32": C}`` with offsets relative to the end of the
header.  ``data_len``/``crc32`` protect the array bytes against a faulty
network: a flipped payload byte (or a declared array that runs past the
received bytes) raises an actionable :class:`ProtocolError` instead of
decoding garbage.  :func:`decode_message` returns zero-copy
``np.frombuffer`` views into the received buffer, so a worker's probe
response is never copied again on the router side.

Socket transports add one more u32 length prefix around the frame
(:func:`send_frame` / :func:`recv_frame`); the multiprocessing pipe
transport relies on ``send_bytes`` framing instead and ships the frame
as-is.

Message kinds (the ``meta["kind"]`` field):

=========== ==========================================================
``probe``    resolve a CSR batch of probes, each against the repetition
             its row of the ``repetitions`` column names
``contains`` exact is-this-path-stored check for one key
``describe`` worker topology/health (owned shards, repetitions, pid,
             probe schema version)
``shutdown`` finish the current request loop and exit cleanly
=========== ==========================================================

The probe schema is versioned (:data:`PROTOCOL_VERSION`): version 1 named
one repetition per frame in ``meta["repetition"]``; version 2 ships a
per-probe ``repetitions`` column, so one frame carries a whole wave of
repetitions.  Workers report their version in ``describe`` and the loader
refuses an older one (:class:`ProtocolVersionError`); the other three
message kinds are the same in both versions.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Mapping

import numpy as np

from repro.core.dtypes import REPETITION_DTYPE

#: Version of the probe request schema this build speaks (see module doc).
PROTOCOL_VERSION = 2

MESSAGE_PROBE = "probe"
MESSAGE_CONTAINS = "contains"
MESSAGE_DESCRIBE = "describe"
MESSAGE_SHUTDOWN = "shutdown"

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: ``meta["code"]`` of an error response meaning "the request's deadline
#: expired before the worker finished" — an outcome of the request's own
#: budget, not a worker fault, so transports surface it as
#: :class:`~repro.core.engine.DeadlineExceededError` and the router does
#: not count it against the worker's circuit breaker.
ERROR_CODE_DEADLINE = "deadline"

#: ``meta["code"]`` of an error response meaning "this probe frame is not
#: in the schema version the worker speaks" (a version 1 router, or any
#: frame without the repetition column).
ERROR_CODE_PROTOCOL_VERSION = "protocol-version"

_MAGIC = b"RPD1"
_PREFIX = struct.Struct("<4sI")  # magic, header length
_FRAME_PREFIX = struct.Struct("<I")  # socket-level frame length

#: Upper bound on a single frame over a socket (guards a garbage length
#: prefix from a mis-speaking peer; probe batches are far smaller).
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(ValueError):
    """A frame that does not decode as a shard-protocol message."""


class ProtocolVersionError(ProtocolError):
    """The peer speaks another version of the probe schema."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection mid-frame (or before one)."""


def encode_message(
    meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray] | None = None
) -> bytes:
    """Serialise one message (header metadata + named arrays) to a frame."""
    entries: dict[str, dict[str, Any]] = {}
    contiguous: list[np.ndarray] = []
    cursor = 0
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
            array = array.astype(array.dtype.newbyteorder("<"))
        entries[name] = {
            "dtype": np.dtype(array.dtype).str,
            "shape": list(array.shape),
            "offset": cursor,
        }
        contiguous.append(array)
        cursor += array.nbytes
    checksum = 0
    for array in contiguous:
        checksum = zlib.crc32(memoryview(array).cast("B"), checksum)
    header = json.dumps(
        {
            "meta": dict(meta),
            "arrays": entries,
            "data_len": cursor,
            "crc32": checksum,
        }
    ).encode("utf-8")
    parts = [_PREFIX.pack(_MAGIC, len(header)), header]
    parts.extend(memoryview(array).cast("B") for array in contiguous)
    return b"".join(parts)


def decode_message(payload: bytes) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Inverse of :func:`encode_message`; arrays are zero-copy views.

    The returned arrays alias ``payload`` (and are therefore read-only
    when it is a ``bytes`` object); callers that need to mutate must copy.
    Every malformed input raises :class:`ProtocolError`.
    """
    if len(payload) < _PREFIX.size:
        raise ProtocolError("frame too short to hold a message prefix")
    magic, header_len = _PREFIX.unpack_from(payload)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if header_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared header length {header_len} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap (corrupt length prefix?)"
        )
    data_start = _PREFIX.size + header_len
    if len(payload) < data_start:
        raise ProtocolError(
            f"frame truncated inside its header: the prefix declares "
            f"{header_len} header bytes but only "
            f"{len(payload) - _PREFIX.size} follow"
        )
    try:
        header = json.loads(payload[_PREFIX.size : data_start].decode("utf-8"))
        meta = header["meta"]
        entries = header["arrays"]
        assert isinstance(meta, dict) and isinstance(entries, dict)
    except (ValueError, KeyError, AssertionError) as error:
        raise ProtocolError(f"corrupt message header: {error}") from error
    declared_len: int | None = None
    if "data_len" in header:
        try:
            declared_len = int(header["data_len"])
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"corrupt data_len in header: {error}") from error
        if declared_len < 0 or declared_len > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"declared payload length {declared_len} is outside "
                f"[0, {MAX_FRAME_BYTES}]"
            )
        if data_start + declared_len > len(payload):
            raise ProtocolError(
                f"frame truncated: the header declares {declared_len} array "
                f"bytes but only {len(payload) - data_start} arrived"
            )
    if "crc32" in header:
        if declared_len is None:
            raise ProtocolError("header carries crc32 but no data_len to check it over")
        received = zlib.crc32(memoryview(payload)[data_start : data_start + declared_len])
        expected = int(header["crc32"]) & 0xFFFFFFFF
        if received != expected:
            raise ProtocolError(
                f"payload checksum mismatch: header declares crc32 "
                f"{expected:#010x} but the received bytes hash to "
                f"{received:#010x} (corrupt frame)"
            )
    arrays: dict[str, np.ndarray] = {}
    for name, entry in entries.items():
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(axis) for axis in entry["shape"])
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"corrupt entry for array {name!r}: {error}") from error
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = dtype.itemsize * count
        if nbytes > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"array {name!r} declares {nbytes} bytes, above the "
                f"{MAX_FRAME_BYTES}-byte frame cap (corrupt shape?)"
            )
        end = data_start + offset + nbytes
        if offset < 0 or end > len(payload):
            raise ProtocolError(
                f"frame truncated: array {name!r} needs bytes up to {end} "
                f"but the frame holds {len(payload)}"
            )
        if declared_len is not None and offset + nbytes > declared_len:
            raise ProtocolError(
                f"array {name!r} runs past the declared payload "
                f"({offset + nbytes} > data_len {declared_len})"
            )
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=data_start + offset
        ).reshape(shape)
    return meta, arrays


def encode_error(kind: str, message: str, code: str | None = None) -> bytes:
    """An error response frame carrying a human-readable reason.

    ``code`` is an optional machine-readable discriminator (e.g.
    :data:`ERROR_CODE_DEADLINE`) the transport can dispatch on without
    parsing the message text.
    """
    meta: dict[str, Any] = {"kind": kind, "status": STATUS_ERROR, "error": message}
    if code is not None:
        meta["code"] = code
    return encode_message(meta)


def repetition_column(repetitions: int | np.ndarray, num_probes: int) -> np.ndarray:
    """The per-probe repetition column of a probe request.

    An int — every probe against the same repetition — is broadcast; a
    column is passed through in the declared dtype.  Every entry point that
    accepts either form normalises here, so only columns reach the wire
    and the worker.
    """
    if isinstance(repetitions, (int, np.integer)):
        return np.full(num_probes, repetitions, dtype=REPETITION_DTYPE)
    return np.ascontiguousarray(repetitions, dtype=REPETITION_DTYPE)


def encode_probe_request(
    repetitions: int | np.ndarray,
    keys: np.ndarray,
    probe_items: np.ndarray,
    probe_offsets: np.ndarray,
    deadline: float | None = None,
) -> bytes:
    """A probe request: per probe its repetition, folded key and CSR path.

    ``deadline`` is an absolute wall-clock epoch (``time.time()`` scale —
    the only clock that crosses process and host boundaries); a worker
    that sees it in the past answers a deadline-coded error instead of
    doing the work.
    """
    meta: dict[str, Any] = {"kind": MESSAGE_PROBE}
    if deadline is not None:
        meta["deadline"] = float(deadline)
    return encode_message(
        meta,
        {
            "repetitions": repetition_column(repetitions, len(keys)),
            "keys": np.ascontiguousarray(keys, dtype=np.uint64),
            "probe_items": np.ascontiguousarray(probe_items, dtype=np.int64),
            "probe_offsets": np.ascontiguousarray(probe_offsets, dtype=np.int64),
        },
    )


def encode_probe_response(lengths: np.ndarray, ids: np.ndarray) -> bytes:
    """A probe response: per-probe posting counts + concatenated ids."""
    return encode_message(
        {"kind": MESSAGE_PROBE, "status": STATUS_OK},
        {
            "lengths": np.ascontiguousarray(lengths, dtype=np.int64),
            "ids": np.ascontiguousarray(ids, dtype=np.int64),
        },
    )


# --------------------------------------------------------------------- #
# Socket framing
# --------------------------------------------------------------------- #


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame to a connected socket."""
    sock.sendall(_FRAME_PREFIX.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame; raises :class:`ConnectionClosed` on EOF."""
    prefix = _recv_exactly(sock, _FRAME_PREFIX.size)
    (length,) = _FRAME_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _recv_exactly(sock, length)
