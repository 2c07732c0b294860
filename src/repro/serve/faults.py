"""Deterministic fault injection for the cluster transport.

Chaos testing the cluster used to mean racing ``kill -9`` against a
write stream and hoping the interleaving reproduced.  This module
replaces the timing race with a **script**: a :class:`FaultPlan` is a
list of :class:`Fault` records — *drop the 7th reply frame from worker
1*, *delay the 12th by 40 ms*, *freeze worker 0 for 300 ms when its
9th reply arrives* — installed client-side by wrapping each worker
connection in a :class:`FaultyConnection` before the multiplexer sees
it.  Given the same plan (or the same seed for
:meth:`FaultPlan.randomized`) and the same request sequence, the same
faults hit the same frames every run.

Faults are expressed from the client's point of view:

* ``direction="recv"`` — frames arriving from the worker (replies and,
  on the push channel, deltas).  ``drop`` discards the frame (a mux
  request then times out and exercises the deadline/retry path),
  ``delay`` stalls delivery, ``duplicate`` re-delivers the frame once
  more on the next read (the mux reader drops the unknown ``mux_id``).
* ``direction="send"`` — frames leaving the client.  ``drop`` swallows
  the request (the worker never sees it), ``delay`` stalls the caller,
  ``duplicate`` sends it twice, and ``truncate`` writes a partial
  frame and slams the connection shut — the worker observes a
  mid-frame EOF, exactly what a crash mid-``sendall`` looks like.
* ``freeze`` (either direction) SIGSTOPs the worker process for
  ``duration`` seconds when the matching frame passes, then SIGCONTs
  it from a timer thread — a wedged-but-alive worker on cue, the case
  the supervisor's ping probe exists for.

Frame ordinals are 1-based and count **every** frame on that
connection and direction, including the ``_hello`` handshake
exchange.  Plans are installed with ``Session.serve(faults=plan)``,
``ShardCluster.client(faults=plan)`` or ``ClusterClient(faults=plan)``.
"""

from __future__ import annotations

import os
import random
import signal
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError

from .transport import Connection

__all__ = ["Fault", "FaultPlan", "FaultyConnection"]

_LENGTH = struct.Struct(">I")

#: actions a fault may take, and where each is legal.
_ACTIONS = ("drop", "delay", "duplicate", "truncate", "freeze")
_DIRECTIONS = ("send", "recv")
_CHANNELS = ("request", "push")


@dataclass(frozen=True)
class Fault:
    """One scripted fault: *do* ``action`` *to frame* ``frame``.

    ``frame`` is the 1-based ordinal of the frame on the matching
    connection's ``direction`` counter; ``worker`` of ``None`` matches
    every worker.  ``delay`` (seconds) applies to ``action="delay"``,
    ``duration`` to ``action="freeze"``.
    """

    action: str
    frame: int
    worker: Optional[int] = None
    channel: str = "request"
    direction: str = "recv"
    delay: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ClusterError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {', '.join(_ACTIONS)}"
            )
        if self.direction not in _DIRECTIONS:
            raise ClusterError(
                f"unknown fault direction {self.direction!r}; "
                f"expected 'send' or 'recv'"
            )
        if self.channel not in _CHANNELS:
            raise ClusterError(
                f"unknown fault channel {self.channel!r}; "
                f"expected 'request' or 'push'"
            )
        if self.frame < 1:
            raise ClusterError(
                f"fault frame ordinals are 1-based, got {self.frame}"
            )
        if self.action == "truncate" and self.direction != "send":
            raise ClusterError(
                "truncate faults cut outgoing frames; use direction='send'"
            )
        if self.action == "delay" and self.delay <= 0.0:
            raise ClusterError("delay faults need delay= > 0 seconds")
        if self.action == "freeze" and self.duration <= 0.0:
            raise ClusterError("freeze faults need duration= > 0 seconds")


class FaultPlan:
    """An immutable script of :class:`Fault` records plus the seed that
    generated it (``None`` for hand-written plans)."""

    def __init__(self, faults: Sequence[Fault] = (), seed: Optional[int] = None):
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.seed = seed

    @classmethod
    def randomized(
        cls,
        seed: int,
        count: int = 6,
        frames: int = 48,
        actions: Sequence[str] = ("drop", "delay", "duplicate"),
        workers: Sequence[int] = (0, 1),
        channel: str = "request",
        direction: str = "recv",
        max_delay: float = 0.05,
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``random.Random(seed)``:
        ``count`` faults over the first ``frames`` frames, each
        targeting one of ``workers``.  Identical arguments produce an
        identical plan — the contract the nightly chaos seed matrix
        relies on."""
        rng = random.Random(seed)
        faults: List[Fault] = []
        for _ in range(count):
            action = actions[rng.randrange(len(actions))]
            faults.append(
                Fault(
                    action=action,
                    frame=rng.randrange(1, frames + 1),
                    worker=(
                        workers[rng.randrange(len(workers))] if workers else None
                    ),
                    channel=channel,
                    direction=direction,
                    delay=(
                        rng.uniform(0.005, max_delay)
                        if action == "delay"
                        else 0.0
                    ),
                    duration=(
                        rng.uniform(0.05, 0.3) if action == "freeze" else 0.0
                    ),
                )
            )
        faults.sort(key=lambda f: (f.frame, f.action, f.worker or -1))
        return cls(faults, seed=seed)

    def for_channel(self, worker: int, channel: str) -> Tuple[Fault, ...]:
        """The faults that apply to one worker's channel."""
        return tuple(
            fault
            for fault in self.faults
            if fault.channel == channel
            and (fault.worker is None or fault.worker == worker)
        )

    def wrap(
        self,
        conn: Connection,
        worker: int,
        channel: str,
        pid: Callable[[], Optional[int]],
    ) -> Connection:
        """Wrap ``conn`` in a :class:`FaultyConnection` when any fault
        targets this worker's channel; return it untouched otherwise."""
        script = self.for_channel(worker, channel)
        if not script:
            return conn
        return FaultyConnection(conn, script, pid)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.faults)} faults, seed={self.seed!r})"


def _thaw(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGCONT)
    except (OSError, ProcessLookupError):
        pass


def _await_stopped(pid: int, timeout: float = 0.1) -> None:
    """Wait (bounded) until a SIGSTOPped process has actually halted.

    The signal is delivered asynchronously, so without this the worker
    can still answer the frames right behind the one that froze it.
    Polls the state field of ``/proc/<pid>/stat`` — the one after the
    parenthesised command name — for ``T``; where ``/proc`` is absent
    (or the process is gone) the signal alone has to do."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                state = stat.read().rpartition(b")")[2].split()[0]
        except (OSError, IndexError):
            return
        if state == b"T":
            return
        time.sleep(0.001)


class FaultyConnection(Connection):
    """A :class:`~repro.serve.transport.Connection` that applies a
    fault script to the frames passing through it.

    Adopts the wrapped connection's socket and codec (the wrapped
    object must not be used afterwards) and counts frames per
    direction; each counted frame is matched against the script and
    the scheduled faults fire in order.
    """

    def __init__(
        self,
        inner: Connection,
        script: Sequence[Fault],
        pid: Callable[[], Optional[int]],
    ):
        super().__init__(inner._sock, inner._codec, max_frame=inner.max_frame)
        self._inbox = inner._inbox  # bytes it already read past a frame
        self._pid = pid
        self._sent = 0
        self._received = 0
        self._fault_lock = threading.Lock()
        self._by_key: Dict[Tuple[str, int], List[Fault]] = {}
        for fault in script:
            self._by_key.setdefault((fault.direction, fault.frame), []).append(
                fault
            )
        #: re-delivery queue for duplicated inbound frames.
        self._replay: List[object] = []
        #: observability: (direction, frame, action) triples that fired.
        self.fired: List[Tuple[str, int, str]] = []

    def _take(self, direction: str, ordinal: int) -> List[Fault]:
        faults = self._by_key.pop((direction, ordinal), [])
        for fault in faults:
            self.fired.append((direction, ordinal, fault.action))
        return faults

    def _freeze(self, duration: float) -> None:
        pid = self._pid()
        if not pid:
            return
        try:
            os.kill(pid, signal.SIGSTOP)
        except (OSError, ProcessLookupError):
            return
        timer = threading.Timer(duration, _thaw, args=(pid,))
        timer.daemon = True
        timer.start()
        _await_stopped(pid)

    def send(self, message: object) -> None:
        with self._fault_lock:
            self._sent += 1
            faults = self._take("send", self._sent)
        for fault in faults:
            if fault.action == "delay":
                time.sleep(fault.delay)
            elif fault.action == "freeze":
                self._freeze(fault.duration)
        for fault in faults:
            if fault.action == "drop":
                return
            if fault.action == "truncate":
                self._truncate(message)
                return
        super().send(message)
        for fault in faults:
            if fault.action == "duplicate":
                super().send(message)

    def _truncate(self, message: object) -> None:
        payload = self._codec.encode(message)
        cut = max(1, len(payload) // 2)
        with self._send_lock:
            try:
                self._sock.sendall(_LENGTH.pack(len(payload)) + payload[:cut])
            except OSError:
                pass
        self.close()

    def recv(self, timeout: Optional[float] = None) -> object:
        while True:
            with self._fault_lock:
                if self._replay:
                    return self._replay.pop(0)
            frame = super().recv(timeout=timeout)
            with self._fault_lock:
                self._received += 1
                faults = self._take("recv", self._received)
            dropped = False
            for fault in faults:
                if fault.action == "delay":
                    time.sleep(fault.delay)
                elif fault.action == "drop":
                    dropped = True
                elif fault.action == "duplicate":
                    with self._fault_lock:
                        self._replay.append(frame)
                elif fault.action == "freeze":
                    self._freeze(fault.duration)
            if not dropped:
                return frame

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        pending = sum(len(faults) for faults in self._by_key.values())
        return (
            f"FaultyConnection({self._codec.name}, {state}, "
            f"fired={len(self.fired)}, pending={pending})"
        )
