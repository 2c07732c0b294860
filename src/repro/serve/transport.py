"""Wire transport for the multiprocess shard cluster.

The cluster (:mod:`repro.serve.cluster`) runs one worker process per
shard and speaks a deliberately tiny protocol over stream sockets —
``AF_UNIX`` where available (Linux, the deployment target), loopback
TCP otherwise.  The unit is a **frame**:

    ``[4-byte big-endian unsigned length][payload]``

where the payload is one request/reply/push *message* encoded by the
connection's codec.  Two codecs exist:

* ``"json"`` — always available, UTF-8, compact separators.  Tuples
  flatten to arrays on the wire; the receiving side re-canonicalises
  rows with :func:`as_row`/:func:`as_rows` so result tuples, delta
  payloads and replayed subscription logs compare **byte-identical**
  to their in-process counterparts.
* ``"msgpack"`` — used when the optional ``msgpack`` package is
  importable (smaller frames, faster encode); selecting it without the
  package raises :class:`~repro.errors.TransportError` instead of
  importing anything at module load.

Messages are plain dicts with string keys — exactly the shape
:meth:`repro.serve.server.Server.handle` already consumes, which is
what lets the worker wrap the existing request loop unchanged.  A
frame longer than the connection's frame cap (:data:`MAX_FRAME` =
64 MiB by default; override per connection with ``max_frame=`` or
process-wide with the ``REPRO_MAX_FRAME`` environment variable) is
rejected before allocation — the :class:`~repro.errors.TransportError`
reports the observed frame size and the active cap in both directions,
so a corrupt length prefix (or a legitimately huge batch) fails fast
with a diagnosable message instead of OOMing the worker.

Two connection disciplines share the framing:

* :class:`Connection` — one framed socket.  ``request()`` (send one
  message, read one reply) holds the connection lock for the whole
  round trip; the cluster uses it for the ``_hello`` handshakes and as
  the push channel, which is written by one worker thread and read by
  one client thread, no multiplexing needed.
* :class:`MuxConnection` — the cluster's request channel.  Every
  request is tagged with a connection-unique id (the ``"mux_id"``
  field), a background reader thread matches out-of-order replies back
  to their waiting callers, and any number of requests ride the socket
  concurrently — a slow ``fetch`` no longer head-of-line-blocks a
  supervisor health probe sharing the connection.  Frames without a
  ``mux_id`` are handed to the optional ``on_push`` callback.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
from itertools import count as _counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    "available_codecs",
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


class Codec:
    """A named message codec: ``encode(dict) -> bytes`` and back."""

    def __init__(
        self,
        name: str,
        encode: Callable[[object], bytes],
        decode: Callable[[bytes], object],
    ):
        self.name = name
        self._encode = encode
        self._decode = decode

    def encode(self, message: object) -> bytes:
        return self._encode(message)

    def decode(self, payload: bytes) -> object:
        try:
            return self._decode(payload)
        except Exception as error:
            raise TransportError(
                f"undecodable {self.name} frame ({len(payload)} bytes): {error}"
            ) from error

    def __repr__(self) -> str:
        return f"Codec({self.name!r})"


def _json_codec() -> Codec:
    def encode(message: object) -> bytes:
        return json.dumps(
            message, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")

    return Codec("json", encode, lambda payload: json.loads(payload))


def _msgpack_codec() -> Codec:
    try:
        import msgpack  # type: ignore[import-not-found]
    except ImportError as error:
        raise TransportError(
            "codec 'msgpack' requested but the msgpack package is not "
            "installed; use codec='json' (the default)"
        ) from error
    return Codec(
        "msgpack",
        lambda message: msgpack.packb(message, use_bin_type=True),
        lambda payload: msgpack.unpackb(payload, raw=False),
    )


def available_codecs() -> Tuple[str, ...]:
    """The codec names this interpreter can actually construct."""
    names = ["json"]
    try:
        import msgpack  # type: ignore[import-not-found]  # noqa: F401
    except ImportError:
        pass
    else:
        names.append("msgpack")
    return tuple(names)


def get_codec(name: str) -> Codec:
    """Look up a codec by name (``"json"`` or ``"msgpack"``)."""
    if name == "json":
        return _json_codec()
    if name == "msgpack":
        return _msgpack_codec()
    raise TransportError(
        f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
    )


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class _RecvTimeout(Exception):
    """Internal: a socket timeout fired while reading; ``partial`` is
    how many bytes of the current read had already arrived."""

    def __init__(self, partial: int):
        super().__init__(partial)
        self.partial = partial


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosedError`."""
    chunks = bytearray()
    while len(chunks) < n:
        try:
            chunk = sock.recv(n - len(chunks))
        except socket.timeout:
            # socket.timeout IS an OSError: distinguish it before the
            # generic clause or deadlines would read as dead peers.
            raise _RecvTimeout(len(chunks)) from None
        except OSError as error:
            raise ConnectionClosedError(
                f"connection lost mid-frame: {error}"
            ) from error
        if not chunk:
            raise ConnectionClosedError(
                "peer closed the connection"
                + (" mid-frame" if chunks else "")
            )
        chunks.extend(chunk)
    return bytes(chunks)


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
) -> bytes:
    """Read one length-prefixed frame's payload (cap as in
    :func:`send_frame`).

    ``timeout`` bounds each blocking read.  A timeout on a frame
    boundary — zero bytes of the next frame seen — is *clean*: the
    stream is still aligned, so it raises
    :class:`~repro.errors.DeadlineExceededError` and the caller may
    simply call again.  A timeout mid-frame means the stream can no
    longer be realigned and raises
    :class:`~repro.errors.ConnectionClosedError` instead.
    """
    cap = default_max_frame() if max_frame is None else max_frame
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        try:
            header = _recv_exactly(sock, _LENGTH.size)
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
        (length,) = _LENGTH.unpack(header)
        if length > cap:
            raise TransportError(
                f"incoming frame claims {length} bytes, over the frame cap "
                f"({cap} bytes) — corrupt stream, or a peer with a larger "
                "max_frame / REPRO_MAX_FRAME"
            )
        if not length:
            return b""
        try:
            return _recv_exactly(sock, length)
        except _RecvTimeout as stall:
            raise ConnectionClosedError(
                f"read timed out {stall.partial}/{length} bytes into a "
                f"frame payload after {timeout}s — stream desynced"
            ) from None
    finally:
        if timeout is not None:
            try:
                sock.settimeout(None)
            except OSError:
                pass


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
        codec: Codec,
        max_frame: Optional[int] = None,
        registry: Optional[object] = None,
    ):
        self._sock = sock
        self._codec = codec
        self.max_frame = (
            default_max_frame() if max_frame is None else max_frame
        )
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
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
            self._bytes_sent.inc(len(payload) + _LENGTH.size)

    def recv(self, timeout: Optional[float] = None) -> object:
        """Read one message.  ``timeout`` bounds the wait: a clean
        frame-boundary stall raises
        :class:`~repro.errors.DeadlineExceededError` and leaves the
        stream aligned (call again); a mid-frame stall condemns the
        stream with :class:`~repro.errors.ConnectionClosedError`."""
        with self._recv_lock:
            if self._closed:
                raise ConnectionClosedError("connection already closed")
            payload = recv_frame(self._sock, self.max_frame, timeout=timeout)
        if self._bytes_received is not None:
            self._bytes_received.inc(len(payload) + _LENGTH.size)
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
    """One in-flight multiplexed request's parking slot."""

    __slots__ = ("event", "reply", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Optional[Dict[str, object]] = None
        self.error: Optional[BaseException] = None


class MuxConnection:
    """A multiplexed request channel over one codec-framed socket.

    Requests are tagged with a connection-unique integer (the
    ``"mux_id"`` message field); the peer echoes the tag on the reply.
    A background reader thread (started by :meth:`start`, usually right
    after the hello handshake) is the sole ``recv`` caller: it matches
    each tagged reply to its parked waiter, so **any number of caller
    threads hold requests in flight concurrently** and replies may
    return in any order.  Untagged frames go to ``on_push`` (server
    pushes sharing the channel), or are dropped when no handler is set.

    When the socket dies, every parked waiter — and every later caller
    — fails with :class:`~repro.errors.ConnectionClosedError` carrying
    the reader's original failure; nobody hangs on a dead channel.

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
        self._reader: Optional[threading.Thread] = None
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

    # -- the serial-compat handshake surface ------------------------------

    def send(self, message: object) -> None:
        """Raw one-way send (the hello handshake, before :meth:`start`)."""
        self._conn.send(message)

    def recv(self) -> object:
        """Raw receive — only valid before :meth:`start` takes over."""
        if self._reader is not None:
            raise TransportError(
                "recv() after start(): the reader thread owns this socket"
            )
        return self._conn.recv()

    def handshake(self, message: Dict[str, object]) -> Dict[str, object]:
        """One serial round trip (the ``_hello`` exchange), then the
        caller should :meth:`start` the reader."""
        self._conn.send(message)
        reply = self._conn.recv()
        if not isinstance(reply, dict):
            raise TransportError(
                f"protocol violation: handshake reply is "
                f"{type(reply).__name__}, expected a dict"
            )
        return reply

    def start(self) -> None:
        """Start the reader thread; from now on only :meth:`request`."""
        if self._reader is not None:
            return
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name="repro-mux-reader"
        )
        self._reader.start()

    # -- multiplexed requests --------------------------------------------

    def request(
        self, message: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """One tagged request; blocks this caller only.

        ``timeout`` (seconds) bounds the wait for the reply — the
        supervisor's heartbeat probes use it so a wedged-but-alive
        worker is detected, not just a dead socket.  Omitted, the
        connection's ``default_timeout`` applies.  A deadline here is
        *clean*: the waiter is unparked, a late reply is dropped by the
        reader, and the channel stays healthy — so the caller may
        safely retry idempotent requests.
        """
        if timeout is None:
            timeout = self.default_timeout
        if self._reader is None:
            self.start()
        waiter = _Waiter()
        with self._lock:
            if self._failure is not None:
                raise ConnectionClosedError(
                    f"multiplexed connection is down: {self._failure}"
                ) from self._failure
            mux_id = next(self._ids)
            self._waiters[mux_id] = waiter
            if len(self._waiters) > self.max_in_flight_seen:
                self.max_in_flight_seen = len(self._waiters)
        try:
            self._conn.send(dict(message, mux_id=mux_id))
        except BaseException:
            with self._lock:
                self._waiters.pop(mux_id, None)
            raise
        if not waiter.event.wait(timeout):
            with self._lock:
                self._waiters.pop(mux_id, None)
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

    def _read_loop(self) -> None:
        try:
            while True:
                frame = self._conn.recv()
                if not isinstance(frame, dict):
                    continue
                mux_id = frame.pop("mux_id", None)
                if mux_id is None:
                    handler = self.on_push
                    if handler is not None:
                        handler(frame)
                    continue
                with self._lock:
                    waiter = self._waiters.pop(int(mux_id), None)  # type: ignore[arg-type]
                if waiter is not None:
                    waiter.reply = frame
                    waiter.event.set()
        except BaseException as error:  # socket died: fail everyone
            with self._lock:
                self._failure = error
                parked = list(self._waiters.values())
                self._waiters.clear()
            for waiter in parked:
                waiter.error = error
                waiter.event.set()

    def close(self) -> None:
        self._conn.close()
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=2.0)

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
    codec: Codec,
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
# message shapes: rows (JSON flattens tuples to arrays), commands, errors
# ---------------------------------------------------------------------------


def as_row(value: object) -> Tuple[object, ...]:
    """One wire row back to the canonical tuple form."""
    return tuple(value)  # type: ignore[arg-type]


def as_rows(values: object) -> Tuple[Tuple[object, ...], ...]:
    """A wire row list back to a tuple of canonical row tuples."""
    return tuple(tuple(value) for value in values)  # type: ignore[union-attr]


def command_wire(command: UpdateCommand) -> Tuple[str, str, Tuple[object, ...]]:
    """One update command's wire form ``(op, relation, row)`` — tuples
    encode as arrays in both codecs, no copies needed."""
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
