"""Wire-transport unit tests: framing, codecs, canonicalisation."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    TransportError,
    UpdateError,
)
from repro.serve.transport import (
    MAX_FRAME,
    Connection,
    MuxConnection,
    as_row,
    as_rows,
    bind_listener,
    command_wire,
    commands_from_wire,
    connect,
    default_max_frame,
    error_reply,
    get_codec,
    recv_frame,
    send_frame,
)
from repro.storage.updates import delete, insert


def test_json_codec_roundtrip():
    codec = get_codec("json")
    message = {
        "op": "insert",
        "relation": "E",
        "row": [1, "a", 3],
        "nested": {"added": [[1, 2], [3, 4]]},
    }
    assert codec.decode(codec.encode(message)) == message


def test_json_codec_unicode():
    codec = get_codec("json")
    assert codec.decode(codec.encode({"q": "Δϕ ∪ ψ"})) == {"q": "Δϕ ∪ ψ"}


def test_unknown_codec_rejected():
    with pytest.raises(TransportError, match="unknown codec"):
        get_codec("pickle")


def test_undecodable_frame_reports_codec():
    codec = get_codec("json")
    with pytest.raises(TransportError, match="undecodable json frame"):
        codec.decode(b"\xff\x00not json")


def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        for payload in (b"", b"x", b"y" * 70_000):
            send_frame(left, payload)
            assert recv_frame(right) == payload
    finally:
        left.close()
        right.close()


def test_oversized_send_rejected():
    left, right = socket.socketpair()
    try:
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME + 1

        with pytest.raises(
            TransportError, match=r"67108865 bytes exceeds the frame cap"
        ):
            send_frame(left, Huge())
    finally:
        left.close()
        right.close()


def test_corrupt_length_prefix_fails_fast():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME + 7))
        with pytest.raises(TransportError, match="corrupt stream"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_eof_mid_frame_is_connection_closed():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 100) + b"only-a-prefix")
        left.close()
        with pytest.raises(ConnectionClosedError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_eof_on_boundary_is_connection_closed():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(ConnectionClosedError):
            recv_frame(right)
    finally:
        right.close()


def test_a_connection_keeps_what_it_read_past_a_frame():
    # One recv brings two frames and part of a third: each recv()
    # returns one message, and the stall inside the third is mid-frame.
    left, right = socket.socketpair()
    conn = Connection(right)
    try:
        frames = [Connection(left).codec.encode({"n": n}) for n in (1, 2, 3)]
        wire = b"".join(struct.pack(">I", len(f)) + f for f in frames)
        left.sendall(wire[:-2])
        assert conn.recv() == {"n": 1}
        assert conn.recv(timeout=1.0) == {"n": 2}
        with pytest.raises(ConnectionClosedError, match="desynced"):
            conn.recv(timeout=0.05)
    finally:
        left.close()
        conn.close()


def test_connection_request_roundtrip():
    left, right = socket.socketpair()
    codec = get_codec("json")
    client = Connection(left, codec)
    server = Connection(right, codec)

    def serve_one():
        request = server.recv()
        server.send({"ok": True, "echo": request})

    thread = threading.Thread(target=serve_one)
    thread.start()
    reply = client.request({"op": "ping"})
    thread.join()
    assert reply == {"ok": True, "echo": {"op": "ping"}}
    client.close()
    server.close()
    with pytest.raises(ConnectionClosedError):
        client.send({"op": "ping"})


def test_connection_rejects_non_dict_reply():
    left, right = socket.socketpair()
    codec = get_codec("json")
    client = Connection(left, codec)
    server = Connection(right, codec)

    def serve_one():
        server.recv()
        server.send([1, 2, 3])

    thread = threading.Thread(target=serve_one)
    thread.start()
    with pytest.raises(TransportError, match="protocol violation"):
        client.request({"op": "ping"})
    thread.join()
    client.close()
    server.close()


def test_bind_listener_and_connect(tmp_path):
    listener, address = bind_listener(str(tmp_path), "t")
    accepted = []

    def accept_one():
        sock, _peer = listener.accept()
        accepted.append(Connection(sock, get_codec("json")))
        accepted[0].send({"ok": True})

    thread = threading.Thread(target=accept_one)
    thread.start()
    conn = connect(address, get_codec("json"))
    assert conn.recv() == {"ok": True}
    thread.join()
    conn.close()
    accepted[0].close()
    listener.close()


def test_tcp_fallback_when_no_socket_dir():
    listener, address = bind_listener(None, "t")
    try:
        assert address[0] == "tcp"
    finally:
        listener.close()


def test_row_canonicalisation():
    assert as_row([1, "a", 2]) == (1, "a", 2)
    assert as_rows([[1, 2], ["x", "y"]]) == ((1, 2), ("x", "y"))
    assert as_rows([]) == ()


def test_command_wire_roundtrip_and_unknown_kind():
    commands = [insert("E", (1, "a")), delete("E", (2, "b"))]
    wire = [command_wire(command) for command in commands]
    assert wire == [("insert", "E", (1, "a")), ("delete", "E", (2, "b"))]
    # JSON flattens the tuples to arrays; decoding re-canonicalises.
    flattened = [["insert", "E", [1, "a"]], ["delete", "E", [2, "b"]]]
    assert commands_from_wire(wire) == commands_from_wire(flattened) == commands
    with pytest.raises(UpdateError, match="upsert"):
        commands_from_wire([["insert", "E", [1]], ["upsert", "E", [1]]])
    with pytest.raises(ValueError):
        commands_from_wire([["insert", "E"]])  # malformed, not a command


def test_error_reply_names_the_class():
    assert error_reply(UpdateError("bad op")) == {
        "ok": False,
        "error": "UpdateError",
        "message": "bad op",
    }
    reply = error_reply(KeyError("row"), "malformed request: KeyError('row')")
    assert reply["error"] == "KeyError" and reply["message"].startswith("malformed")


# ---------------------------------------------------------------------------
# configurable frame cap: max_frame= and REPRO_MAX_FRAME
# ---------------------------------------------------------------------------


def test_send_frame_respects_explicit_cap():
    left, right = socket.socketpair()
    try:
        send_frame(left, b"x" * 64, max_frame=64)  # at the cap: fine
        assert recv_frame(right, max_frame=64) == b"x" * 64
        with pytest.raises(
            TransportError, match=r"65 bytes exceeds the frame cap \(64"
        ):
            send_frame(left, b"x" * 65, max_frame=64)
    finally:
        left.close()
        right.close()


def test_recv_frame_reports_observed_size_over_cap():
    left, right = socket.socketpair()
    try:
        send_frame(left, b"y" * 100)  # sender has the default cap
        with pytest.raises(
            TransportError, match=r"claims 100 bytes, over the frame cap \(32"
        ):
            recv_frame(right, max_frame=32)
    finally:
        left.close()
        right.close()


def test_env_cap_applies_both_directions(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_FRAME", "48")
    assert default_max_frame() == 48
    left, right = socket.socketpair()
    try:
        with pytest.raises(TransportError, match="REPRO_MAX_FRAME"):
            send_frame(left, b"z" * 49)
        monkeypatch.setenv("REPRO_MAX_FRAME", str(MAX_FRAME))
        send_frame(left, b"z" * 49)
        monkeypatch.setenv("REPRO_MAX_FRAME", "48")
        with pytest.raises(TransportError, match="over the frame cap"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_env_cap_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_FRAME", "lots")
    with pytest.raises(TransportError, match="integer byte count"):
        default_max_frame()
    monkeypatch.setenv("REPRO_MAX_FRAME", "0")
    with pytest.raises(TransportError, match=">= 1"):
        default_max_frame()
    monkeypatch.setenv("REPRO_MAX_FRAME", "")
    assert default_max_frame() == MAX_FRAME


def test_connection_pins_cap_at_construction(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_FRAME", "32")
    left, right = socket.socketpair()
    sender = Connection(left, get_codec("json"))
    receiver = Connection(right, get_codec("json"), max_frame=MAX_FRAME)
    try:
        assert sender.max_frame == 32
        monkeypatch.delenv("REPRO_MAX_FRAME")
        with pytest.raises(TransportError, match="exceeds the frame cap"):
            sender.send({"pad": "x" * 64})
    finally:
        sender.close()
        receiver.close()


# ---------------------------------------------------------------------------
# MuxConnection: out-of-order replies, concurrency, failure fan-out
# ---------------------------------------------------------------------------


class _MuxEcho:
    """A scriptable mux peer over a socketpair, for unit tests."""

    def __init__(self):
        left, right = socket.socketpair()
        codec = get_codec("json")
        self.mux = MuxConnection(Connection(left, codec))
        self.peer = Connection(right, codec)
        self.threads = []

    def serve(self, count, reorder=False, delay_key="delay"):
        def run():
            pending = []
            for _ in range(count):
                request = self.peer.recv()
                pending.append(request)
                if not reorder:
                    self._reply(request, delay_key)
                    pending.clear()
            if reorder:
                for request in reversed(pending):
                    self._reply(request, delay_key)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        self.threads.append(thread)

    def _reply(self, request, delay_key):
        delay = request.get(delay_key, 0)
        if delay:
            time.sleep(delay)
        self.peer.send(
            {"ok": True, "echo": request.get("n"), "mux_id": request["mux_id"]}
        )

    def close(self):
        for thread in self.threads:
            thread.join(timeout=5.0)
        self.mux.close()
        self.peer.close()


def test_mux_out_of_order_replies_reach_their_callers():
    harness = _MuxEcho()
    try:
        harness.serve(count=3, reorder=True)
        results = {}

        def ask(n):
            results[n] = harness.mux.request({"op": "echo", "n": n})["echo"]

        threads = [threading.Thread(target=ask, args=(n,)) for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Replies came back in reverse send order, yet each caller got
        # its own: the mux_id matching is what the protocol rides on.
        assert results == {0: 0, 1: 1, 2: 2}
        assert harness.mux.max_in_flight_seen == 3
        assert harness.mux.in_flight == 0
    finally:
        harness.close()


def test_mux_sustains_many_concurrent_in_flight():
    harness = _MuxEcho()
    try:
        harness.serve(count=12, reorder=True)
        threads = [
            threading.Thread(
                target=lambda n=n: harness.mux.request({"op": "echo", "n": n})
            )
            for n in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert harness.mux.max_in_flight_seen >= 8
    finally:
        harness.close()


def test_mux_routes_untagged_frames_to_on_push():
    harness = _MuxEcho()
    try:
        pushes = []
        harness.mux.on_push = pushes.append
        harness.serve(count=1)
        harness.peer.send({"kind": "delta", "epoch": 7})  # untagged
        assert harness.mux.request({"op": "echo", "n": 9})["echo"] == 9
        deadline = time.monotonic() + 5.0
        while not pushes and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pushes == [{"kind": "delta", "epoch": 7}]
    finally:
        harness.close()


def test_mux_request_timeout_is_precise():
    harness = _MuxEcho()
    try:
        harness.mux.start()
        with pytest.raises(DeadlineExceededError, match=r"'echo'.*timed out") as info:
            harness.mux.request({"op": "echo", "n": 1}, timeout=0.05)
        assert info.value.details["op"] == "echo"
        assert info.value.details["elapsed"] == pytest.approx(0.05)
        assert harness.mux.in_flight == 0  # the waiter was reaped
        # A clean mux deadline does NOT condemn the connection.
        assert not harness.mux.closed
    finally:
        harness.peer.close()
        harness.mux.close()


def test_mux_failure_fans_out_to_parked_waiters():
    harness = _MuxEcho()
    errors = []

    def ask():
        try:
            harness.mux.request({"op": "echo", "n": 1})
        except ConnectionClosedError as error:
            errors.append(error)

    try:
        harness.mux.start()
        threads = [threading.Thread(target=ask) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5.0
        while harness.mux.in_flight < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        harness.peer.close()  # kill the channel under the parked waiters
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(errors) == 3
        with pytest.raises(ConnectionClosedError, match="down"):
            harness.mux.request({"op": "echo", "n": 2})
    finally:
        harness.mux.close()


def _ask_in_thread(mux, n, results, timeout=None):
    def ask():
        try:
            results[n] = mux.request({"op": "echo", "n": n}, timeout=timeout)["echo"]
        except Exception as error:  # noqa: BLE001 — the test inspects it
            results[n] = error

    thread = threading.Thread(target=ask, daemon=True)
    thread.start()
    return thread


def _await(condition, what):
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def test_mux_has_no_reader_thread():
    harness = _MuxEcho()
    try:
        harness.serve(count=1)
        assert harness.mux.request({"op": "echo", "n": 1})["echo"] == 1
        names = [thread.name for thread in threading.enumerate()]
        assert not any("mux-reader" in name for name in names)
        # The handshake is serial-only: once multiplexed, it is refused.
        with pytest.raises(TransportError, match="handshake after start"):
            harness.mux.handshake({"op": "_hello"})
    finally:
        harness.close()


def test_mux_reader_deadline_hands_the_in_flight_reply_on():
    harness = _MuxEcho()
    requests = []

    def serve():
        requests.append(harness.peer.recv())
        requests.append(harness.peer.recv())
        time.sleep(0.3)  # past the reader's deadline
        late = next(r for r in requests if r["n"] == 2)
        harness.peer.send({"ok": True, "echo": 2, "mux_id": late["mux_id"]})

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    results = {}
    try:
        reader = _ask_in_thread(harness.mux, 1, results, timeout=0.1)
        _await(lambda: harness.mux._reading, "the first caller to read")
        other = _ask_in_thread(harness.mux, 2, results)
        _await(lambda: harness.mux.in_flight == 2, "both requests in flight")
        reader.join(timeout=5.0)
        other.join(timeout=5.0)
        assert isinstance(results[1], DeadlineExceededError)
        # The parked caller was promoted when the reader gave up, and
        # read its own reply.
        assert results[2] == 2
        assert harness.mux.in_flight == 0
        assert not harness.mux.closed
    finally:
        server.join(timeout=5.0)
        harness.close()


def test_mux_reader_own_reply_first_while_two_callers_park():
    harness = _MuxEcho()

    def serve():
        received = {}
        for _ in range(3):
            request = harness.peer.recv()
            received[request["n"]] = request
        for n in (1, 2, 3):  # the reader's own reply first
            harness.peer.send({"ok": True, "echo": n, "mux_id": received[n]["mux_id"]})
            time.sleep(0.02)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    results = {}
    try:
        first = _ask_in_thread(harness.mux, 1, results)
        _await(lambda: harness.mux._reading, "the first caller to read")
        parked = [_ask_in_thread(harness.mux, n, results) for n in (2, 3)]
        for thread in [first, *parked]:
            thread.join(timeout=5.0)
        assert results == {1: 1, 2: 2, 3: 3}
        assert harness.mux.in_flight == 0
        assert harness.mux.max_in_flight_seen == 3
    finally:
        server.join(timeout=5.0)
        harness.close()
