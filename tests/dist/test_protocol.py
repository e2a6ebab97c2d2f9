"""Wire-protocol unit tests: round trips, framing, corruption rejection."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.core.dtypes import REPETITION_DTYPE
from repro.dist import protocol


def test_message_round_trip_preserves_meta_and_arrays():
    meta = {"kind": protocol.MESSAGE_PROBE, "repetition": 2, "status": protocol.STATUS_OK}
    arrays = {
        "keys": np.array([1, 2, 2**63], dtype=np.uint64),
        "items": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "empty": np.empty(0, dtype=np.int64),
    }
    decoded_meta, decoded = protocol.decode_message(protocol.encode_message(meta, arrays))
    assert decoded_meta == meta
    assert set(decoded) == set(arrays)
    for name, array in arrays.items():
        assert decoded[name].dtype == array.dtype
        assert decoded[name].shape == array.shape
        assert np.array_equal(decoded[name], array)


def test_decoded_arrays_are_zero_copy_views():
    payload = protocol.encode_message({"a": 1}, {"xs": np.arange(8, dtype=np.int64)})
    _meta, arrays = protocol.decode_message(payload)
    assert arrays["xs"].base is not None  # a view over the payload, not a copy


def test_probe_request_and_response_round_trip():
    keys = np.array([7, 9], dtype=np.uint64)
    items = np.array([1, 2, 3], dtype=np.int64)
    offsets = np.array([0, 2, 3], dtype=np.int64)
    meta, arrays = protocol.decode_message(
        protocol.encode_probe_request(1, keys, items, offsets)
    )
    assert meta["kind"] == protocol.MESSAGE_PROBE
    # One schema: an int repetition is broadcast to the per-probe column,
    # and no scalar survives in the header.
    assert "repetition" not in meta
    assert arrays["repetitions"].dtype == REPETITION_DTYPE
    assert arrays["repetitions"].tolist() == [1, 1]
    assert np.array_equal(arrays["keys"], keys)

    column = np.array([2, 0], dtype=REPETITION_DTYPE)
    _meta, arrays = protocol.decode_message(
        protocol.encode_probe_request(column, keys, items, offsets)
    )
    assert np.array_equal(arrays["repetitions"], column)

    lengths = np.array([2, 0], dtype=np.int64)
    ids = np.array([4, 5], dtype=np.int64)
    meta, arrays = protocol.decode_message(protocol.encode_probe_response(lengths, ids))
    assert meta["status"] == protocol.STATUS_OK
    assert np.array_equal(arrays["lengths"], lengths)
    assert np.array_equal(arrays["ids"], ids)


def test_error_payload_round_trips_kind_and_message():
    meta, arrays = protocol.decode_message(
        protocol.encode_error(protocol.MESSAGE_PROBE, "boom")
    )
    assert meta["status"] == protocol.STATUS_ERROR
    assert meta["kind"] == protocol.MESSAGE_PROBE
    assert meta["error"] == "boom"
    assert arrays == {}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda payload: b"XXXX" + payload[4:],  # wrong magic
        lambda payload: payload[:10],  # truncated header
        lambda payload: payload[:-3],  # truncated array bytes
        lambda payload: payload[:4] + struct.pack("<I", 2**30) + payload[8:],
    ],
    ids=["bad-magic", "short-header", "short-arrays", "huge-header-len"],
)
def test_corrupt_payloads_raise_protocol_error(mutate):
    payload = protocol.encode_message(
        {"type": protocol.MESSAGE_PROBE}, {"keys": np.arange(4, dtype=np.uint64)}
    )
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(mutate(payload))


def test_error_code_round_trips():
    meta, _ = protocol.decode_message(
        protocol.encode_error(protocol.MESSAGE_PROBE, "too slow", code=protocol.ERROR_CODE_DEADLINE)
    )
    assert meta["code"] == protocol.ERROR_CODE_DEADLINE
    meta, _ = protocol.decode_message(protocol.encode_error(protocol.MESSAGE_PROBE, "boom"))
    assert "code" not in meta


def test_probe_request_carries_optional_deadline():
    keys = np.array([7], dtype=np.uint64)
    items = np.array([1], dtype=np.int64)
    offsets = np.array([0, 1], dtype=np.int64)
    meta, _ = protocol.decode_message(
        protocol.encode_probe_request(0, keys, items, offsets, deadline=123.5)
    )
    assert meta["deadline"] == 123.5
    meta, _ = protocol.decode_message(protocol.encode_probe_request(0, keys, items, offsets))
    assert "deadline" not in meta


def _flip_last_payload_byte(payload: bytes) -> bytes:
    frame = bytearray(payload)
    frame[-1] ^= 0xFF
    return bytes(frame)


def test_flipped_payload_byte_fails_the_checksum():
    payload = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE}, {"ids": np.arange(16, dtype=np.int64)}
    )
    with pytest.raises(protocol.ProtocolError, match="checksum mismatch"):
        protocol.decode_message(_flip_last_payload_byte(payload))


def _rewrite_header(payload: bytes, **overrides):
    """Re-encode the frame with header fields patched (or deleted via None)."""
    import json

    _magic, header_len = protocol._PREFIX.unpack_from(payload)
    data_start = protocol._PREFIX.size + header_len
    header = json.loads(payload[protocol._PREFIX.size : data_start])
    for key, value in overrides.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    raw = json.dumps(header).encode("utf-8")
    return protocol._PREFIX.pack(protocol._MAGIC, len(raw)) + raw + payload[data_start:]


def test_frame_without_checksum_fields_still_decodes():
    """Backward compatibility: a peer speaking the pre-checksum dialect."""
    payload = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE}, {"ids": np.arange(4, dtype=np.int64)}
    )
    legacy = _rewrite_header(payload, data_len=None, crc32=None)
    meta, arrays = protocol.decode_message(legacy)
    assert meta["kind"] == protocol.MESSAGE_PROBE
    assert np.array_equal(arrays["ids"], np.arange(4, dtype=np.int64))


def test_crc_without_data_len_is_rejected():
    payload = protocol.encode_message({"kind": protocol.MESSAGE_PROBE}, {})
    with pytest.raises(protocol.ProtocolError, match="crc32 but no data_len"):
        protocol.decode_message(_rewrite_header(payload, data_len=None))


def test_data_len_past_received_bytes_is_truncation():
    payload = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE}, {"ids": np.arange(4, dtype=np.int64)}
    )
    with pytest.raises(protocol.ProtocolError, match="truncated"):
        protocol.decode_message(_rewrite_header(payload, data_len=4 * 8 + 1))


def test_array_past_declared_data_len_is_rejected():
    payload = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE}, {"ids": np.arange(4, dtype=np.int64)}
    )
    _magic, header_len = protocol._PREFIX.unpack_from(payload)
    import json

    header = json.loads(payload[protocol._PREFIX.size : protocol._PREFIX.size + header_len])
    header["arrays"]["ids"]["shape"] = [5]  # runs one element past data_len
    bad = _rewrite_header(payload, arrays=header["arrays"]) + b"\x00" * 8
    with pytest.raises(protocol.ProtocolError, match="runs past the declared payload"):
        protocol.decode_message(bad)


def test_oversized_declared_array_is_rejected():
    payload = protocol.encode_message(
        {"kind": protocol.MESSAGE_PROBE}, {"ids": np.arange(4, dtype=np.int64)}
    )
    _magic, header_len = protocol._PREFIX.unpack_from(payload)
    import json

    header = json.loads(payload[protocol._PREFIX.size : protocol._PREFIX.size + header_len])
    header["arrays"]["ids"]["shape"] = [1 << 40]
    with pytest.raises(protocol.ProtocolError, match="frame cap"):
        protocol.decode_message(_rewrite_header(payload, arrays=header["arrays"]))


def test_socket_framing_round_trip():
    left, right = socket.socketpair()
    try:
        payload = protocol.encode_message({"n": 3}, {"xs": np.arange(3, dtype=np.int64)})
        protocol.send_frame(left, payload)
        assert protocol.recv_frame(right) == payload
    finally:
        left.close()
        right.close()


def test_recv_frame_raises_connection_closed_on_eof():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_frame(right)
    finally:
        right.close()
