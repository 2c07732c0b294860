"""Wire transport for the multiprocess shard cluster.

The cluster (:mod:`repro.serve.cluster`) runs one worker process per
shard and speaks a deliberately tiny protocol over stream sockets —
``AF_UNIX`` where available (Linux, the deployment target), loopback
TCP otherwise.  The unit is a **frame**:

    ``[4-byte big-endian unsigned length][payload]``

and the payload is one request/reply/push *message*: a plain dict with
string keys — exactly the shape :meth:`repro.serve.server.Server.handle`
already consumes, which is what lets the worker wrap the existing
request loop unchanged.  There is one codec, ``"json"`` (UTF-8, compact
separators), with two payload layouts:

* a plain message is its JSON text and nothing else;
* a message carrying :class:`RowBlock` values is

      ``0x00 | JSON header | 0x00 | binary tail | CRC-32``

  The header is the message with every block replaced by
  ``{"#rows": [offset, length]}`` (its slice of the tail) — or, for a
  block of fewer than 32 rows, by ``{"#tuples": [rows as arrays]}``
  inline — plus a leading ``"#tail": <tail length>`` key; the CRC-32
  (4 bytes, big-endian) covers everything before it.  Those three keys
  are reserved: when the message has dict keys of its own that start
  with ``#``, each gets one more ``#`` in the header, and the decoder
  strips it.  JSON text never contains
  a raw NUL byte, so the leading ``0x00`` tells the layouts apart and
  the second one ends the header.

**Row blocks** are column-major.  A block is ``[u32 rows]`` followed
by one column holding the rows.  A column of ``n`` values is
``[u8 tag][u32 bytes][payload]``, the payload by tag:

* ints — ``n`` little-endian int64s;
* strings — UTF-8 of the values joined by NUL (a column whose values
  hold a NUL goes JSON);
* repeated strings — a per-block dictionary: ``n`` codes (u8, u16 or
  u32, named by one typecode byte) and the distinct values as a nested
  column;
* tuples of one width ``w`` — ``[u16 w]`` and ``w`` nested columns,
  decoded with ``zip(*columns)``;
* tuples of several widths (ragged records, a delta's ``added``
  rows) — ``n`` ``u32`` lengths and one nested column of all
  their elements, cut back into tuples;
* anything else (``bool``, ``None``, floats, ints beyond int64, mixed
  columns) — a JSON array.

Rows come back as tuples, values with the types the JSON path gives
them.  A truncated, corrupted or length-lying block frame raises
:class:`~repro.errors.TransportError`, never a wrong row.

A frame longer than the connection's frame cap (:data:`MAX_FRAME` =
64 MiB by default; override per connection with ``max_frame=`` or
process-wide with the ``REPRO_MAX_FRAME`` environment variable) is
rejected before allocation — the :class:`~repro.errors.TransportError`
reports the observed frame size and the active cap in both directions,
so a corrupt length prefix (or a legitimately huge batch) fails fast
with a diagnosable message instead of OOMing the worker.

A :class:`Connection` reads ahead: it keeps what one ``recv`` brought
past the frame it needed for the next call, so a reply usually costs
one read (and, under a deadline, one poll) instead of two of each.

Two connection disciplines share the framing:

* :class:`Connection` — one framed socket.  ``request()`` (send one
  message, read one reply) holds the connection lock for the whole
  round trip; the cluster uses it for the ``_hello`` handshakes and as
  the push channel, which is written by one worker thread and read by
  one client thread, no multiplexing needed.
* :class:`MuxConnection` — the cluster's request channel.  Every
  request is tagged with a connection-unique id (the ``"mux_id"``
  field) and any number of requests ride the socket concurrently — a
  slow ``fetch`` does not head-of-line-block a supervisor health probe
  sharing the connection.  There is no reader thread: callers take
  turns as the reader (**leader/follower**).  A caller that finds
  nobody reading reads frames itself, hands other callers' replies to
  them, and stops at its own, passing the reader role to a parked
  caller; otherwise it parks until its reply arrives or it is promoted.
  A lone caller therefore pays one socket round trip and no thread
  hand-off, three turns of the connection lock and no copy of its
  message (the ``mux_id`` is set on it in place).  Frames without a
  ``mux_id`` go to the optional ``on_push`` callback.

The worker reads its end the same way: a few receiver threads per
connection take turns holding the receive role (``_WorkerHost._receive``
in :mod:`repro.serve.cluster`).  The holder answers what cannot wait on
a lock itself — ``ping``, ``push_sync``, and the O(1) reads ``count``,
``answer`` and ``contains`` when the view's engine answers them in time
independent of the data and their shard's read lock can be taken
without waiting — and reads on, so such a request costs no thread
hand-off on either side of the socket.  Writes and the two-phase-batch
ops queue on the connection's serial lane; anything else, a point read
behind a held lock included, passes the role to a parked receiver
first and runs on the thread that read it.

Plain messages (every request and most replies) are encoded and decoded
by one JSON encoder and one scanner built at import.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import threading
import time
import zlib
from itertools import accumulate, chain, count as _counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    FrameTooLargeError,
    TransportError,
)
from repro.storage.updates import UpdateCommand

__all__ = [
    "MAX_FRAME",
    "default_max_frame",
    "Codec",
    "get_codec",
    "RowBlock",
    "send_frame",
    "recv_frame",
    "Connection",
    "MuxConnection",
    "bind_listener",
    "connect",
    "as_row",
    "as_rows",
    "command_wire",
    "commands_from_wire",
    "error_reply",
]

#: Built-in ceiling on one frame's payload — fail fast on corrupt
#: prefixes.  The effective cap is :func:`default_max_frame` (env
#: override) unless a connection passes its own ``max_frame``.
MAX_FRAME = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def default_max_frame() -> int:
    """The process-wide frame cap: ``REPRO_MAX_FRAME`` or 64 MiB.

    Read per call (not cached at import) so tests and operators can
    retune a running deployment's spawned workers via the environment.
    """
    raw = os.environ.get("REPRO_MAX_FRAME")
    if not raw:
        return MAX_FRAME
    try:
        value = int(raw)
    except ValueError as error:
        raise TransportError(
            f"REPRO_MAX_FRAME must be an integer byte count, got {raw!r}"
        ) from error
    if value < 1:
        raise TransportError(
            f"REPRO_MAX_FRAME must be >= 1 byte, got {value}"
        )
    return value


# ---------------------------------------------------------------------------
# row blocks: column-major rows in the binary tail
# ---------------------------------------------------------------------------


class RowBlock:
    """A sequence of rows (tuples) to ship as one column block.

    Put it anywhere in a message; the codec moves it into the frame's
    binary tail and the receiving side gets a ``list`` of row tuples in
    its place.  Values that are themselves tuples become nested
    columns, so a command's ``row`` or a delta's ``added`` rows travel
    as columns too.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[object]]):
        self.rows = rows

    def __repr__(self) -> str:
        return f"RowBlock({len(self.rows)} rows)"


_ROWS = struct.Struct(">I")  # rows in a block
_COLUMN = struct.Struct(">BI")  # tag, payload bytes
_WIDTH = struct.Struct(">H")  # width of a tuple column
_DICT = struct.Struct(">cI")  # code typecode, dictionary size
_CRC = struct.Struct(">I")
_INT, _STR, _DICT_STR, _TUPLE, _LIST, _JSON = 1, 2, 3, 4, 5, 6
#: deepest nesting of columns (a delta's ``added`` rows sit four
#: levels down: rows, list, its elements, their values).
_MAX_DEPTH = 8
_MARK = b"\x00"


class _Corrupt(ValueError):
    """A block frame that does not parse; the codec reports it as a
    :class:`~repro.errors.TransportError`."""


def _pack(code: str, values: Sequence[int]) -> bytes:
    """Fixed-width little-endian integers (``struct`` codes)."""
    return struct.pack(f"<{len(values)}{code}", *values)


def _unpack(code: str, buf: memoryview, pos: int, n: int) -> Tuple[int, ...]:
    return struct.unpack_from(f"<{n}{code}", buf, pos)


def _encode_block(rows: Sequence[Sequence[object]], out: bytearray) -> None:
    out += _ROWS.pack(len(rows))
    _encode_column(rows, out, 0)


def _encode_column(values: Sequence[object], out: bytearray, depth: int) -> None:
    head = len(out)
    out += _COLUMN.pack(_JSON, 0)
    start = len(out)
    tag = _encode_payload(values, out, depth)
    if tag == _JSON:
        del out[start:]
        out += json.dumps(list(values), separators=(",", ":")).encode("ascii")
    _COLUMN.pack_into(out, head, tag, len(out) - start)


def _encode_payload(values: Sequence[object], out: bytearray, depth: int) -> int:
    """Append the typed payload of ``values`` and return its tag — or
    ``_JSON`` when no typed layout fits (the caller then discards what
    was appended)."""
    # A block's own rows (depth 0) are records, given as tuples or
    # lists: they skip the type pass.
    kinds = set(map(type, values)) if depth or not values else {tuple}
    if kinds == {int}:
        try:
            out += _pack("q", values)
        except struct.error:
            return _JSON  # beyond int64: JSON keeps the exact value
        return _INT
    if kinds == {str}:
        distinct = dict.fromkeys(values)
        if len(distinct) * 2 <= len(values):
            code = "B" if len(distinct) <= 0x100 else "H" if len(distinct) <= 0x10000 else "I"
            index = dict(zip(distinct, range(len(distinct))))
            out += _DICT.pack(code.encode(), len(distinct))
            out += _pack(code, tuple(map(index.__getitem__, values)))
            _encode_column(tuple(distinct), out, depth + 1)
            return _DICT_STR
        text = "\x00".join(values)
        if text.count("\x00") != len(values) - 1:
            return _JSON  # a value holds the separator
        try:
            out += text.encode("utf-8")
        except UnicodeEncodeError:
            return _JSON  # lone surrogates: the JSON column escapes them
        return _STR
    if kinds == {tuple} and depth < _MAX_DEPTH:
        # Records (rows, commands, deltas) go column by column; a
        # tuple of tuples is a collection of rows and is flattened, and
        # so are records of several widths (strict zip refuses them).
        first = values[0]
        collection = depth and first and type(first[0]) is tuple
        if len(first) <= 0xFFFF and not collection:
            try:
                columns = list(zip(*values, strict=True))
            except ValueError:
                pass
            else:
                out += _WIDTH.pack(len(first))
                for column in columns:
                    _encode_column(column, out, depth + 1)
                return _TUPLE
        out += _pack("I", tuple(map(len, values)))
        _encode_column(tuple(chain.from_iterable(values)), out, depth + 1)
        return _LIST
    return _JSON


def _decode_block(buf: memoryview, pos: int, end: int) -> List[Tuple[object, ...]]:
    """The rows of the block at ``buf[pos:end]``."""
    if pos + _ROWS.size + 1 > end:
        raise _Corrupt("truncated block header")
    (n,) = _ROWS.unpack_from(buf, pos)
    pos += _ROWS.size
    if n and buf[pos] not in (_TUPLE, _LIST):
        raise _Corrupt("a block's column does not hold rows")
    rows, after = _decode_column(buf, pos, end, n, 0)
    if after != end:
        raise _Corrupt("block length mismatch")
    return rows  # type: ignore[return-value]


def _decode_column(
    buf: memoryview, pos: int, end: int, n: int, depth: int
) -> Tuple[Sequence[object], int]:
    """One column of ``n`` values at ``buf[pos:end]`` → (values,
    position after)."""
    if depth > _MAX_DEPTH + 1:
        raise _Corrupt("columns nested too deep")
    if n > len(buf):
        # Every real column spends at least a byte per value somewhere
        # in its frame; a larger count is damage, not data to allocate.
        raise _Corrupt(f"column claims {n} values in a {len(buf)}-byte frame")
    if pos + _COLUMN.size > end:
        raise _Corrupt("truncated column header")
    tag, size = _COLUMN.unpack_from(buf, pos)
    pos += _COLUMN.size
    stop = pos + size
    if stop > end:
        raise _Corrupt("column runs past its parent")
    if tag == _INT:
        if size != 8 * n:
            raise _Corrupt("int column length mismatch")
        return _unpack("q", buf, pos, n), stop
    if tag == _STR:
        values = str(buf[pos:stop], "utf-8").split("\x00")
        if len(values) != n:
            raise _Corrupt("string column length mismatch")
        return values, stop
    if tag == _DICT_STR:
        if pos + _DICT.size > stop:
            raise _Corrupt("truncated dictionary header")
        code, size = _DICT.unpack_from(buf, pos)
        code = code.decode("ascii")
        if code not in ("B", "H", "I"):
            raise _Corrupt(f"unknown dictionary code type {code!r}")
        codes_start = pos + _DICT.size
        codes_end = codes_start + struct.calcsize("<" + code) * n
        if codes_end > stop:
            raise _Corrupt("dictionary codes run past their column")
        codes = _unpack(code, buf, codes_start, n)
        values, after = _decode_column(buf, codes_end, stop, size, depth + 1)
        if after != stop or (n and max(codes) >= size):
            raise _Corrupt("dictionary column is inconsistent")
        return list(map(values.__getitem__, codes)), stop
    if tag == _TUPLE:
        if pos + _WIDTH.size > stop:
            raise _Corrupt("truncated tuple column header")
        (width,) = _WIDTH.unpack_from(buf, pos)
        at = pos + _WIDTH.size
        columns = []
        for _ in range(width):
            column, at = _decode_column(buf, at, stop, n, depth + 1)
            columns.append(column)
        if at != stop:
            raise _Corrupt("tuple column length mismatch")
        return (list(zip(*columns)) if width else [()] * n), stop
    if tag == _LIST:
        lengths_end = pos + 4 * n
        if lengths_end > stop:
            raise _Corrupt("list column length mismatch")
        offsets = list(accumulate(_unpack("I", buf, pos, n), initial=0))
        flat, after = _decode_column(buf, lengths_end, stop, offsets[-1], depth + 1)
        if after != stop:
            raise _Corrupt("list column length mismatch")
        return list(map(tuple, map(flat.__getitem__, map(slice, offsets, offsets[1:])))), stop
    if tag == _JSON:
        values = json.loads(bytes(buf[pos:stop]))
        if type(values) is not list or len(values) != n:
            raise _Corrupt("JSON column length mismatch")
        return values, stop
    raise _Corrupt(f"unknown column tag {tag}")


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


#: blocks of fewer rows ride inline in the JSON header: below this a
#: block's fixed per-column cost outweighs what the columns save (a
#: one-delta push frame: ~70 µs as columns, ~12 µs as JSON).
_SMALL_BLOCK = 32


def _tuples(value: object) -> object:
    """JSON arrays back to tuples, all the way down.  A row is a record
    (any field may be an array); below it an array whose first element
    is not an array holds constants."""
    return tuple(map(_nested, value))  # type: ignore[call-overload]


def _nested(value: object) -> object:
    if type(value) is not list:
        return value
    if value and type(value[0]) is list:  # type: ignore[index]
        return tuple(map(_nested, value))  # type: ignore[call-overload]
    return tuple(value)  # type: ignore[call-overload]


def _escape_keys(value: object) -> object:
    """``value`` with one more '#' on every dict key that starts with
    one, so no key of the message reads as a reserved block-frame key;
    the decoder strips it again."""
    if type(value) is dict:
        return {
            "#" + key if type(key) is str and key[:1] == "#" else key: _escape_keys(item)
            for key, item in value.items()  # type: ignore[attr-defined]
        }
    if type(value) in (list, tuple):
        return list(map(_escape_keys, value))  # type: ignore[call-overload]
    return value


def _unserialisable(value: object) -> object:
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


class _HoldsBlocks(Exception):
    """Internal: the plain encoder met a :class:`RowBlock`."""


def _plain_default(value: object) -> object:
    if isinstance(value, RowBlock):
        raise _HoldsBlocks
    return _unserialisable(value)


#: Plain messages — every request and most replies — go through one
#: encoder and one scanner built at import, not one per frame: the C
#: encoder ``json.dumps`` would build per call (compact separators, no
#: ASCII escaping), or the pure-Python one's ``iterencode`` where the
#: interpreter has no C accelerator.  Both take ``(message, 0)`` and
#: yield the text in chunks.
_ENCODE: Callable[..., Any] = (
    json.encoder.c_make_encoder(  # type: ignore[attr-defined]
        None, _plain_default, json.encoder.encode_basestring,
        None, ":", ",", False, False, True,
    )
    if json.encoder.c_make_encoder is not None  # type: ignore[attr-defined]
    else json.JSONEncoder(
        separators=(",", ":"), ensure_ascii=False, default=_plain_default
    ).iterencode
)
_SCAN = json.JSONDecoder().scan_once


class Codec:
    """The message codec: ``encode(dict) -> bytes`` and back.

    Plain messages are JSON text; a message holding :class:`RowBlock`
    values gets the header + binary tail layout of the module
    docstring.
    """

    name = "json"

    def encode(self, message: object) -> bytes:
        try:
            return "".join(_ENCODE(message, 0)).encode("utf-8")
        except _HoldsBlocks:
            pass
        tail: List[bytes] = []
        size = 0
        blocks = 0
        escape = False

        def block(value: object) -> object:
            nonlocal size, blocks
            if not isinstance(value, RowBlock):
                return _unserialisable(value)
            blocks += 1
            if len(value.rows) < _SMALL_BLOCK:
                # inline rows are header JSON: their dict keys escape too
                return {"#tuples": _escape_keys(value.rows) if escape else value.rows}
            out = bytearray()
            _encode_block(value.rows, out)
            tail.append(bytes(out))
            size += len(out)
            return {"#rows": [size - len(out), len(out)]}

        def dumps(value: object) -> bytes:
            return json.dumps(
                value, default=block, separators=(",", ":"), ensure_ascii=False
            ).encode("utf-8")

        header = dumps(message)
        # Inside a JSON string a quote is escaped, so ``"#`` opens a key
        # or string starting with '#'.  One per block is its marker; any
        # more may be a user key that reads as a marker: escape them.
        if header.count(b'"#') != blocks:
            tail.clear()
            size = blocks = 0
            escape = True
            header = dumps(_escape_keys(message))
        if not isinstance(message, dict):
            raise TransportError("row blocks ride only in dict messages")
        body = b"".join(
            (_MARK, b'{"#tail":%d,' % size, header[1:], _MARK, *tail)
        )
        return body + _CRC.pack(zlib.crc32(body))

    def decode(self, payload: bytes) -> object:
        try:
            if payload[:1] != _MARK:
                text = str(payload, "utf-8", "surrogatepass")
                message, end = _SCAN(text, 0)
                if end != len(text):
                    raise _Corrupt("bytes after the message")
                return message
            return self._decode_blocks(payload)
        except Exception as error:
            raise TransportError(
                f"undecodable {self.name} frame ({len(payload)} bytes): {error}"
            ) from error

    @staticmethod
    def _decode_blocks(payload: bytes) -> object:
        buf = memoryview(payload)
        body_end = len(payload) - _CRC.size
        if body_end < 2 or zlib.crc32(buf[:body_end]) != _CRC.unpack_from(buf, body_end)[0]:
            raise _Corrupt("block frame checksum mismatch")
        split = payload.find(_MARK, 1, body_end)
        if split < 0:
            raise _Corrupt("block frame has no header terminator")
        start = split + 1
        used = 0
        declared: object = None

        def rows(obj: Dict[str, object]) -> object:
            nonlocal used, declared
            if len(obj) == 1:
                inline = obj.get("#tuples")
                if inline is not None:
                    if type(inline) is not list or not all(
                        type(row) is list for row in inline
                    ):
                        raise _Corrupt("inline block rows are not arrays")
                    return list(map(_tuples, inline))
                ref = obj.get("#rows")
                if ref is not None:
                    offset, length = ref  # type: ignore[misc]
                    if offset != used or length < 1 or start + offset + length > body_end:
                        raise _Corrupt("block reference outside the tail")
                    used += length
                    return _decode_block(buf, start + offset, start + offset + length)
            if "#tail" in obj:  # only the message itself has one
                if declared is not None:
                    raise _Corrupt("two tail lengths")
                declared = obj.pop("#tail")
            if any(key[:1] == "#" for key in obj):
                return {
                    key[1:] if key[:1] == "#" else key: value
                    for key, value in obj.items()
                }
            return obj

        message = json.loads(bytes(buf[1:split]), object_hook=rows)
        if (
            type(message) is not dict
            or declared != body_end - start
            or used != body_end - start
        ):
            raise _Corrupt("tail length disagrees with the header")
        return message

    def __repr__(self) -> str:
        return f"Codec({self.name!r})"


_CODEC = Codec()


def get_codec(name: str = "json") -> Codec:
    """The wire codec; ``"json"`` is the only one."""
    if name != "json":
        raise TransportError(f"unknown codec {name!r}; available: json")
    return _CODEC


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class _RecvTimeout(Exception):
    """Internal: a read timed out; ``partial`` is how many bytes of the
    current read had already arrived."""

    def __init__(self, partial: int):
        super().__init__(partial)
        self.partial = partial


def _poller(sock: socket.socket) -> Optional[Any]:
    """A poll object watching ``sock`` for input, or ``None`` where the
    platform has no ``poll``."""
    if not hasattr(select, "poll"):
        return None
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return poller


def _readable(
    sock: socket.socket, timeout: float, poller: Optional[Any] = None
) -> bool:
    """Wait up to ``timeout`` seconds for ``sock`` to become readable
    (``poller``: a :func:`_poller` of ``sock`` to reuse).

    Waiting here instead of ``settimeout`` leaves the socket blocking,
    so a deadline on the reading caller never reaches a concurrent
    sender's ``sendall``."""
    if poller is None:
        poller = _poller(sock)
    if poller is not None:
        return bool(poller.poll(max(timeout, 0.0) * 1000.0))
    return bool(select.select((sock,), (), (), max(timeout, 0.0))[0])


#: how far a buffered read may run past the frame it needs: enough that
#: one ``recv`` usually brings a whole reply (header and payload).
_READ_AHEAD = 64 * 1024


def _fill(
    sock: socket.socket,
    buf: bytearray,
    need: int,
    timeout: Optional[float],
    ahead: bool,
    poller: Optional[Any] = None,
) -> None:
    """Read until ``buf`` holds ``need`` bytes (``ahead``: possibly
    more) or raise :class:`ConnectionClosedError`; ``timeout`` bounds
    each blocking read (:class:`_RecvTimeout`, ``partial`` = what
    ``buf`` held)."""
    while len(buf) < need:
        if timeout is not None and not _readable(sock, timeout, poller):
            raise _RecvTimeout(len(buf))
        want = need - len(buf)
        try:
            chunk = sock.recv(max(want, _READ_AHEAD) if ahead else want)
        except OSError as error:
            raise ConnectionClosedError(
                f"connection lost mid-frame: {error}"
            ) from error
        if not chunk:
            raise ConnectionClosedError(
                "peer closed the connection" + (" mid-frame" if buf else "")
            )
        buf += chunk


def send_frame(
    sock: socket.socket, payload: bytes, max_frame: Optional[int] = None
) -> None:
    """Write one length-prefixed frame (``max_frame`` overrides the cap)."""
    cap = default_max_frame() if max_frame is None else max_frame
    if len(payload) > cap:
        # Nothing has been written: the channel stays healthy, so the
        # caller gets the dedicated subclass instead of a dead-peer
        # diagnosis.
        raise FrameTooLargeError(
            f"outgoing frame of {len(payload)} bytes exceeds the frame "
            f"cap ({cap} bytes); raise max_frame= / REPRO_MAX_FRAME or "
            "chunk the payload"
        )
    try:
        sock.sendall(_LENGTH.pack(len(payload)) + payload)
    except OSError as error:
        raise ConnectionClosedError(f"send failed: {error}") from error


def recv_frame(
    sock: socket.socket,
    max_frame: Optional[int] = None,
    timeout: Optional[float] = None,
    inbox: Optional[bytearray] = None,
    poller: Optional[Any] = None,
) -> bytes:
    """Read one length-prefixed frame's payload (cap as in
    :func:`send_frame`; ``poller`` as in :func:`_readable`).

    ``inbox`` holds bytes read past the previous frame: given one, the
    reads may run ahead into it (the caller passes the same buffer to
    the next call), so one ``recv`` usually brings a whole frame.
    Without it every read stops exactly at the frame's end.

    ``timeout`` bounds each blocking read.  A timeout on a frame
    boundary — zero bytes of the next frame seen — is *clean*: the
    stream is still aligned, so it raises
    :class:`~repro.errors.DeadlineExceededError` and the caller may
    simply call again.  A timeout mid-frame means the stream can no
    longer be realigned and raises
    :class:`~repro.errors.ConnectionClosedError` instead.
    """
    cap = default_max_frame() if max_frame is None else max_frame
    ahead = inbox is not None
    buf = inbox if ahead else bytearray()
    try:
        if len(buf) < _LENGTH.size:
            _fill(sock, buf, _LENGTH.size, timeout, ahead, poller)
    except _RecvTimeout as stall:
        if stall.partial == 0:
            raise DeadlineExceededError(
                f"no frame arrived within {timeout}s",
                op="recv",
                elapsed=timeout or 0.0,
            ) from None
        raise ConnectionClosedError(
            f"read timed out {stall.partial} byte(s) into a frame "
            f"header after {timeout}s — stream desynced"
        ) from None
    (length,) = _LENGTH.unpack_from(buf)
    if length > cap:
        raise TransportError(
            f"incoming frame claims {length} bytes, over the frame cap "
            f"({cap} bytes) — corrupt stream, or a peer with a larger "
            "max_frame / REPRO_MAX_FRAME"
        )
    end = _LENGTH.size + length
    try:
        if len(buf) < end:
            _fill(sock, buf, end, timeout, ahead, poller)
    except _RecvTimeout as stall:
        raise ConnectionClosedError(
            f"read timed out {stall.partial - _LENGTH.size}/{length} bytes "
            f"into a frame payload after {timeout}s — stream desynced"
        ) from None
    payload = buf[_LENGTH.size:end]
    del buf[:end]
    return payload


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


class Connection:
    """A codec-framed socket, safe to share across threads.

    ``request()`` serialises the whole send+receive round trip under
    one lock — the request channel's multiplexing discipline.  ``send``
    and ``recv`` take only their own side's lock (the push channel has
    a single writer and a single reader, on different processes).
    """

    def __init__(
        self,
        sock: socket.socket,
        codec: Optional[Codec] = None,
        max_frame: Optional[int] = None,
        registry: Optional[object] = None,
    ):
        self._sock = sock
        self._codec = codec or _CODEC
        self.max_frame = (
            default_max_frame() if max_frame is None else max_frame
        )
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        #: bytes read past the last frame, and the poll object a
        #: deadline waits on (both guarded by ``_recv_lock``).
        self._inbox = bytearray()
        self._poller = _poller(sock)
        self._request_lock = threading.Lock()
        self._closed = False
        # Frame-byte accounting (payload + 4-byte header per frame).
        # Attached lazily via `instrument()` or the registry= kwarg so
        # the default construction stays dependency-free; None means
        # no accounting — the hot path pays one `is not None` check.
        self._bytes_sent = None
        self._bytes_received = None
        if registry is not None and getattr(registry, "enabled", False):
            self.instrument(registry)

    def instrument(self, registry) -> None:
        """Attach frame-byte counters (``repro_rpc_bytes_sent_total`` /
        ``repro_rpc_bytes_received_total``) from a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        if not getattr(registry, "enabled", False):
            return
        self._bytes_sent = registry.counter("repro_rpc_bytes_sent_total")
        self._bytes_received = registry.counter(
            "repro_rpc_bytes_received_total"
        )

    @property
    def codec(self) -> Codec:
        return self._codec

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: object) -> None:
        payload = self._codec.encode(message)
        with self._send_lock:
            if self._closed:
                raise ConnectionClosedError("connection already closed")
            send_frame(self._sock, payload, self.max_frame)
        if self._bytes_sent is not None:
            self._bytes_sent.value += len(payload) + _LENGTH.size

    def recv(self, timeout: Optional[float] = None) -> object:
        """Read one message.  ``timeout`` bounds the wait: a clean
        frame-boundary stall raises
        :class:`~repro.errors.DeadlineExceededError` and leaves the
        stream aligned (call again); a mid-frame stall condemns the
        stream with :class:`~repro.errors.ConnectionClosedError`."""
        with self._recv_lock:
            if self._closed:
                raise ConnectionClosedError("connection already closed")
            payload = recv_frame(
                self._sock,
                self.max_frame,
                timeout=timeout,
                inbox=self._inbox,
                poller=self._poller,
            )
        if self._bytes_received is not None:
            self._bytes_received.value += len(payload) + _LENGTH.size
        return self._codec.decode(payload)

    def request(
        self, message: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One request/reply round trip, atomic w.r.t. other callers.

        When ``timeout`` expires before the reply lands, the serial
        request/reply pairing is lost (a late reply would be matched to
        the *next* request), so the connection condemns itself — it is
        closed and every later call raises
        :class:`~repro.errors.ConnectionClosedError` — and the timeout
        surfaces as :class:`~repro.errors.DeadlineExceededError`.
        """
        with self._request_lock:
            self.send(message)
            try:
                reply = self.recv(timeout=timeout)
            except DeadlineExceededError as stall:
                self.close()
                raise DeadlineExceededError(
                    f"request {message.get('op')!r} got no reply within "
                    f"{timeout}s; serial channel condemned",
                    op=str(message.get("op", "")) or None,
                    elapsed=timeout or 0.0,
                ) from stall
        if not isinstance(reply, dict):
            raise TransportError(
                f"protocol violation: reply is {type(reply).__name__}, "
                "expected a dict"
            )
        return reply

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self._codec.name}, {state})"


class _Waiter:
    """One in-flight multiplexed request's parking slot.  ``event``
    exists once the caller has parked (a caller that reads its own
    reply never needs one) and is set when the reply (or the channel's
    failure) lands — or when the caller is nominated to take over as
    reader.  The fields start as class defaults: making one runs no
    ``__init__``."""

    event: Optional[threading.Event] = None
    reply: Optional[Dict[str, object]] = None
    error: Optional[BaseException] = None

    def wake(self) -> None:
        if self.event is not None:
            self.event.set()


class MuxConnection:
    """A multiplexed request channel over one codec-framed socket.

    Requests are tagged with a connection-unique integer (the
    ``"mux_id"`` message field); the peer echoes the tag on the reply,
    so **any number of caller threads hold requests in flight
    concurrently** and replies may return in any order.  The callers
    themselves read the socket, one at a time (the leader/follower rule
    of the module docstring): the reader matches each tagged reply to
    its parked waiter, stops at its own and nominates a parked caller
    as the next reader.  Untagged frames go to ``on_push`` (server
    pushes sharing the channel), or are dropped when no handler is set.

    Deadlines are per caller.  A reader whose deadline passes on a
    frame boundary gives the role up and the channel stays healthy; a
    mid-frame stall or a dead socket fails every parked waiter — and
    every later caller — with
    :class:`~repro.errors.ConnectionClosedError` carrying the original
    failure; nobody hangs on a dead channel.

    :attr:`max_in_flight_seen` records the high-water mark of
    concurrently outstanding requests — the observability hook the
    failover benchmark reads to prove the pipelining is real.
    """

    def __init__(
        self, conn: Connection, default_timeout: Optional[float] = None
    ):
        self._conn = conn
        #: deadline applied to every request that does not pass its own
        #: ``timeout`` — the knob :class:`repro.serve.cluster.ClusterClient`
        #: sets from ``request_timeout=`` so no RPC blocks unboundedly.
        self.default_timeout = default_timeout
        self._ids = _counter(1)
        self._lock = threading.Lock()
        self._waiters: Dict[int, _Waiter] = {}
        #: whether some caller currently holds the reader role.
        self._reading = False
        self._started = False
        self._failure: Optional[BaseException] = None
        #: untagged (push) frames land here when set.
        self.on_push: Optional[Callable[[Dict[str, object]], None]] = None
        #: high-water mark of concurrently in-flight requests.
        self.max_in_flight_seen = 0

    @property
    def codec(self) -> Codec:
        return self._conn.codec

    @property
    def closed(self) -> bool:
        return self._conn.closed

    def instrument(self, registry) -> None:
        """Attach frame-byte counters to the underlying connection."""
        self._conn.instrument(registry)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._waiters)

    # -- the serial handshake ---------------------------------------------

    def handshake(self, message: Dict[str, object]) -> Dict[str, object]:
        """One serial round trip (the ``_hello`` exchange) before the
        channel is multiplexed; refused once :meth:`start` ran, since
        its untagged reply would race the tagged ones."""
        if self._started:
            raise TransportError(
                "handshake after start(): the channel is multiplexed"
            )
        self._conn.send(message)
        reply = self._conn.recv()
        if not isinstance(reply, dict):
            raise TransportError(
                f"protocol violation: handshake reply is "
                f"{type(reply).__name__}, expected a dict"
            )
        return reply

    def start(self) -> None:
        """End the handshake phase; from now on only :meth:`request`
        (the first request starts it implicitly)."""
        self._started = True

    # -- multiplexed requests --------------------------------------------

    def request(
        self, message: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One tagged request; blocks this caller only.

        ``timeout`` (seconds) bounds the wait for the reply — the
        supervisor's heartbeat probes use it so a wedged-but-alive
        worker is detected, not just a dead socket.  Omitted, the
        connection's ``default_timeout`` applies.  A deadline here is
        *clean*: the waiter is unparked, a late reply is dropped by
        whoever reads it, and the channel stays healthy — so the caller
        may safely retry idempotent requests.

        ``message`` is the frame: its ``mux_id`` is set in place, so a
        dict must not be in flight on two requests at once (a retry
        re-tags it).  A lone caller takes three turns of the connection
        lock — register, take the reader role, hand in its own reply —
        and copies nothing.
        """
        if timeout is None:
            timeout = self.default_timeout
        self._started = True
        waiter = _Waiter()
        waiters = self._waiters
        with self._lock:
            if self._failure is not None:
                raise ConnectionClosedError(
                    f"multiplexed connection is down: {self._failure}"
                ) from self._failure
            mux_id = next(self._ids)
            waiters[mux_id] = waiter
            if len(waiters) > self.max_in_flight_seen:
                self.max_in_flight_seen = len(waiters)
        message["mux_id"] = mux_id
        try:
            self._conn.send(message)
        except BaseException:
            with self._lock:
                self._waiters.pop(mux_id, None)
                self._nominate_locked()
            raise
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if waiter.reply is not None or waiter.error is not None:
                    break
                lead = not self._reading
                if lead:
                    self._reading = True
                elif waiter.event is None:
                    waiter.event = threading.Event()
                else:
                    waiter.event.clear()
            if lead:
                if self._lead(mux_id, waiter, deadline):
                    break
            else:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is None or remaining > 0:
                    if waiter.event.wait(remaining):  # type: ignore[union-attr]
                        continue
                with self._lock:
                    if waiter.reply is not None or waiter.error is not None:
                        break
                    self._waiters.pop(mux_id, None)
                    # A nomination may have raced the deadline: pass it on.
                    self._nominate_locked()
            raise DeadlineExceededError(
                f"multiplexed request {mux_id} ({message.get('op')!r}) "
                f"timed out after {timeout}s",
                op=str(message.get("op", "")) or None,
                elapsed=timeout or 0.0,
            )
        if waiter.error is not None:
            raise ConnectionClosedError(
                f"multiplexed connection is down: {waiter.error}"
            ) from waiter.error
        reply = waiter.reply
        if not isinstance(reply, dict):
            raise TransportError(
                f"protocol violation: reply is {type(reply).__name__}, "
                "expected a dict"
            )
        return reply

    def _nominate_locked(self) -> None:
        """Wake one parked caller to take over the reader role (lock
        held; a no-op while somebody is reading)."""
        if not self._reading:
            for waiter in self._waiters.values():
                if waiter.event is not None:  # parked
                    waiter.event.set()
                    return

    def _lead(
        self, mux_id: int, waiter: _Waiter, deadline: Optional[float]
    ) -> bool:
        """Read frames as the reader until ``waiter``'s reply (or the
        channel's failure) lands — True — or its deadline passes on a
        frame boundary — False, waiter reaped.  Either way the role is
        handed on before returning; the reader's own reply unregisters
        it and hands the role on under one turn of the lock."""
        waiters = self._waiters
        recv = self._conn.recv
        try:
            while True:
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        raise DeadlineExceededError("deadline passed")
                frame = recv(timeout=timeout)
                if not isinstance(frame, dict):
                    continue
                tag = frame.pop("mux_id", None)
                if tag is None:
                    handler = self.on_push
                    if handler is not None:
                        handler(frame)
                    continue
                with self._lock:
                    other = waiters.pop(int(tag), None)  # type: ignore[arg-type]
                    if other is waiter:
                        self._reading = False
                        if waiters:
                            self._nominate_locked()
                    elif other is not None:
                        other.reply = frame
                        other.wake()
                if other is waiter:
                    waiter.reply = frame
                    return True
        except DeadlineExceededError:
            with self._lock:
                self._reading = False
                self._waiters.pop(mux_id, None)
                self._nominate_locked()
            return False
        except BaseException as error:  # socket died: fail everyone
            with self._lock:
                self._reading = False
                self._failure = error
                for other in self._waiters.values():
                    other.error = error
                    other.wake()
                self._waiters.clear()
            return True

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "MuxConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"MuxConnection({self.codec.name}, {state}, "
            f"in_flight={self.in_flight}, "
            f"high_water={self.max_in_flight_seen})"
        )


# ---------------------------------------------------------------------------
# addressing: AF_UNIX where it exists, loopback TCP otherwise
# ---------------------------------------------------------------------------

#: addresses are ("unix", path) or ("tcp", host, port) — plain tuples so
#: they travel through a multiprocessing pipe under any start method.
Address = Tuple[object, ...]


def bind_listener(
    socket_dir: Optional[str], name: str
) -> Tuple[socket.socket, Address]:
    """Bind a listening socket, returning it plus its wire address."""
    if socket_dir is not None and hasattr(socket, "AF_UNIX"):
        path = f"{socket_dir}/{name}.sock"
        if len(path.encode()) < 100:  # sun_path limit, conservatively
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(64)
            return listener, ("unix", path)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    _host, port = listener.getsockname()
    return listener, ("tcp", "127.0.0.1", port)


def connect(
    address: Sequence[object],
    codec: Optional[Codec] = None,
    timeout: float = 10.0,
    max_frame: Optional[int] = None,
) -> Connection:
    """Connect to a worker's listener and wrap the socket."""
    kind = address[0]
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(str(address[1]))
    elif kind == "tcp":
        sock = socket.create_connection(
            (str(address[1]), int(address[2])), timeout=timeout  # type: ignore[arg-type]
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    else:
        raise TransportError(f"unknown address kind {kind!r}")
    sock.settimeout(None)
    return Connection(sock, codec, max_frame=max_frame)


# ---------------------------------------------------------------------------
# message shapes: rows, commands, errors
# ---------------------------------------------------------------------------


def as_row(value: object) -> Tuple[object, ...]:
    """One wire row back to the canonical tuple form."""
    return tuple(value)  # type: ignore[arg-type]


def as_rows(values: object) -> Tuple[Tuple[object, ...], ...]:
    """A wire row list back to a tuple of canonical row tuples."""
    return tuple(tuple(value) for value in values)  # type: ignore[union-attr]


def command_wire(command: UpdateCommand) -> Tuple[str, str, Tuple[object, ...]]:
    """One update command's wire form ``(op, relation, row)`` — a
    :class:`RowBlock` of these ships the rows as a nested block."""
    return (command.op, command.relation, command.row)


def commands_from_wire(items: object) -> List[UpdateCommand]:
    """A wire command list back to commands.  An op other than
    ``insert``/``delete`` is an :class:`~repro.errors.UpdateError`
    (:class:`UpdateCommand` validates it), never silently the other
    op; the command canonicalises its own row."""
    return [
        UpdateCommand(str(op), str(relation), row)
        for op, relation, row in items  # type: ignore[attr-defined]
    ]


def error_reply(
    error: BaseException, message: Optional[str] = None
) -> Dict[str, object]:
    """The ``ok: False`` reply naming ``error``'s class (what the
    client rebuilds the exception from) and its message."""
    return {
        "ok": False,
        "error": type(error).__name__,
        "message": str(error) if message is None else message,
    }
