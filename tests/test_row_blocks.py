"""Row blocks on the wire: round-trip properties and a frame fuzzer.

A :class:`~repro.serve.transport.RowBlock` ships rows column-major in a
frame's binary tail.  Whatever the columns hold, the receiver must get
exactly what the plain JSON path would have given it — same values,
same types — and a damaged frame must fail loudly, never decode to a
wrong row.
"""

import json
import socket
import struct
import zlib

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import ConnectionClosedError, TransportError
from repro.serve.transport import Connection, RowBlock, as_rows, get_codec

CODEC = get_codec("json")
INT64 = 2**63 - 1

scalars = st.one_of(
    st.integers(min_value=-INT64 - 1, max_value=INT64),
    st.sampled_from([INT64, -INT64 - 1, INT64 + 1, -INT64 - 2, 2**70, 0]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(),
    # repeated constants: the dictionary-coded string column
    st.sampled_from(["", "a", "insert", "Δϕ ∪ ψ", "x" * 40]),
)


@st.composite
def row_lists(draw, values=scalars):
    """Rows of one arity, or ragged rows of several."""
    if draw(st.booleans()):
        arity = draw(st.integers(min_value=0, max_value=4))
        row = st.tuples(*[values] * arity)
    else:
        row = st.lists(values, max_size=4).map(tuple)
    # Up to 80 rows: blocks under 32 rows ride inline as JSON, larger
    # ones as columns; both must round-trip.
    return draw(st.lists(row, max_size=80))


def via_json(rows):
    """What the plain JSON path delivers for ``rows``."""
    return as_rows(CODEC.decode(CODEC.encode({"rows": rows}))["rows"])


def via_block(rows):
    return tuple(CODEC.decode(CODEC.encode({"rows": RowBlock(rows)}))["rows"])


def typed(rows):
    # repr tells True from 1, -0.0 from 0.0 and 1.0 from 1
    return repr(rows)


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_block_round_trip_equals_the_json_path(rows):
    assert typed(via_block(rows)) == typed(via_json(rows))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["insert", "delete", "E", "Δ"]), min_size=2, max_size=60))
def test_repeated_constants_round_trip(column):
    rows = [(value, index) for index, value in enumerate(column)]
    assert typed(via_block(rows)) == typed(via_json(rows))


def test_int64_edges_stay_ints_and_beyond_falls_back_exactly():
    rows = [(INT64,), (-INT64 - 1,), (0,)]
    assert via_block(rows) == tuple(rows)
    beyond = [(INT64 + 1,), (-INT64 - 2,), (2**100,)]
    decoded = via_block(beyond)
    assert decoded == tuple(beyond)
    assert all(type(value) is int for (value,) in decoded)


def test_bools_stay_bools():
    decoded = via_block([(True, 1), (False, 0)])
    assert [tuple(map(type, row)) for row in decoded] == [(bool, int)] * 2


def test_nested_tuples_travel_as_blocks():
    commands = [
        ("insert", "E", (1, "a")),
        ("delete", "T", (2,)),
        ("insert", "U", ()),
        ("insert", "E", (3, "b")),
    ]
    assert via_block(commands) == tuple(commands)
    deltas = [
        (1, "v", 5, "insert", "E", (1, 2), ((1, 2), (1, 3)), (), None),
        (2, "w", 6, "delete", "T", (3,), (), ((3,),), {"x": 1}),
    ]
    assert via_block(deltas) == tuple(deltas)


def test_small_blocks_ride_inline_and_large_ones_as_columns():
    small = CODEC.encode({"rows": RowBlock([(1, (2,))] * 31)})
    large = CODEC.encode({"rows": RowBlock([(1, (2,))] * 32)})
    assert b'"#tuples"' in small and b'"#rows"' not in small
    assert b'"#rows"' in large and b'"#tuples"' not in large
    assert CODEC.decode(small)["rows"] == [(1, (2,))] * 31
    assert CODEC.decode(large)["rows"] == [(1, (2,))] * 32


reserved_keys = st.sampled_from(["#rows", "#tuples", "#tail", "##rows", "#", "", "rows", "#x"])


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        scalars | reserved_keys,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(reserved_keys, inner, max_size=3),
        max_leaves=8,
    ),
    st.integers(min_value=0, max_value=40),
)
def test_keys_that_look_like_block_markers_round_trip(value, rows):
    # A view (or any dict key) named like a reserved key is data, in the
    # header and inside inline rows alike.
    block = [(i, {"#rows": [0, 1], "#tail": i}) for i in range(rows)]
    message = {"views": {"#rows": value, "#tuples": {"#rows": value}}, "rows": RowBlock(block)}
    decoded = CODEC.decode(CODEC.encode(message))
    plain = json.loads(json.dumps({"views": message["views"], "rows": block}))
    assert decoded["views"] == plain["views"]
    assert tuple(decoded["rows"]) == tuple(as_rows(plain["rows"]))


def test_plain_messages_stay_plain_json():
    payload = CODEC.encode({"op": "count", "view": "V"})
    assert payload == b'{"op":"count","view":"V"}'


# ---------------------------------------------------------------------------
# the fuzzer: damaged block frames must fail, never yield a wrong row
# ---------------------------------------------------------------------------

FUZZ_MESSAGE = {
    "ok": True,
    # 40 rows travel as columns, the 6 commands inline.
    "rows": RowBlock([(i, f"s{i % 3}", i * 1.5, None if i % 2 else True) for i in range(40)]),
    "more": RowBlock([("insert", "E", (i, i + 1)) for i in range(5)] + [("delete", "T", (9,))]),
}
FUZZ_PAYLOAD = CODEC.encode(FUZZ_MESSAGE)


def receive(wire: bytes):
    """Feed raw bytes to a receiving Connection, then close the sender
    (a short frame must end in EOF, not a hang)."""
    left, right = socket.socketpair()
    receiver = Connection(right)
    try:
        left.sendall(wire)
        left.close()
        return receiver.recv(timeout=5.0)
    finally:
        receiver.close()


def test_fuzz_payload_is_a_block_frame_and_decodes():
    assert FUZZ_PAYLOAD[:1] == b"\x00"
    message = receive(struct.pack(">I", len(FUZZ_PAYLOAD)) + FUZZ_PAYLOAD)
    assert message["rows"][1] == (1, "s1", 1.5, None)
    assert message["more"][-1] == ("delete", "T", (9,))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(FUZZ_PAYLOAD) - 1))
def test_truncated_frames_fail(cut):
    # A well-framed but short payload, and a frame whose prefix
    # promises more than ever arrives.
    short = FUZZ_PAYLOAD[:cut]
    with pytest.raises(TransportError):
        receive(struct.pack(">I", len(short)) + short)
    with pytest.raises((TransportError, ConnectionClosedError)):
        receive(struct.pack(">I", len(FUZZ_PAYLOAD)) + short)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=8 * (len(FUZZ_PAYLOAD) + 4) - 1))
def test_bit_flipped_frames_fail(bit):
    wire = bytearray(struct.pack(">I", len(FUZZ_PAYLOAD)) + FUZZ_PAYLOAD)
    wire[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises((TransportError, ConnectionClosedError)):
        receive(bytes(wire))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-64, max_value=64).filter(bool))
def test_length_lying_frames_fail(lie):
    # The outer prefix lies...
    with pytest.raises((TransportError, ConnectionClosedError)):
        receive(struct.pack(">I", max(0, len(FUZZ_PAYLOAD) + lie)) + FUZZ_PAYLOAD)
    # ...or the header's tail length and a block's length do; the
    # checksum is recomputed so only the lengths are wrong.
    for old in (b'"#tail":', b'"#rows":[0,'):
        head, _, rest = FUZZ_PAYLOAD[:-4].partition(old)
        digits = len(rest) - len(rest.lstrip(b"0123456789"))
        value = int(rest[:digits]) + lie
        if value < 0:
            continue
        body = head + old + str(value).encode() + rest[digits:]
        payload = body + struct.pack(">I", zlib.crc32(body))
        with pytest.raises(TransportError):
            receive(struct.pack(">I", len(payload)) + payload)


def test_undecodable_block_frame_names_the_codec():
    with pytest.raises(TransportError, match="undecodable json frame"):
        CODEC.decode(FUZZ_PAYLOAD[:-1] + bytes([FUZZ_PAYLOAD[-1] ^ 1]))


def test_json_header_round_trip_matches_plain_json():
    message = {"ok": True, "nested": {"a": [1, 2]}, "rows": RowBlock([(1,)])}
    decoded = CODEC.decode(CODEC.encode(message))
    assert decoded == {"ok": True, "nested": {"a": [1, 2]}, "rows": [(1,)]}
    assert json.loads(CODEC.encode({"ok": True})) == {"ok": True}


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=200), st.integers(min_value=0, max_value=199))
def test_checksummed_garbage_fails_as_a_transport_error(tail, flip):
    # Past the checksum, the block parser itself must reject garbage
    # with a TransportError — no IndexError, no hang, no other class.
    body = b'\x00{"#tail":%d,"rows":{"#rows":[0,%d]}}\x00' % (len(tail), len(tail)) + tail
    if tail and flip < len(tail):
        body = body[: -len(tail)] + _flipped(tail, flip)
    payload = body + struct.pack(">I", zlib.crc32(body))
    try:
        CODEC.decode(payload)
    except TransportError:
        pass


def _flipped(data, index):
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


@settings(max_examples=200, deadline=None)
@given(row_lists(), st.data())
def test_checksummed_mutations_of_real_blocks_fail_as_transport_errors(rows, data):
    payload = CODEC.encode({"rows": RowBlock(rows)})
    split = payload.index(b"\x00", 1) + 1
    tail = payload[split:-4]
    index = data.draw(st.integers(min_value=0, max_value=max(0, len(tail) - 1)))
    body = payload[:split] + (_flipped(tail, index) if tail else tail)
    try:
        CODEC.decode(body + struct.pack(">I", zlib.crc32(body)))
    except TransportError:
        pass
