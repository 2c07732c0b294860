"""Multiprocess shard cluster: one worker process per shard.

The sharded :class:`~repro.serve.server.Server` of the in-process
serving layer parallelises disjoint-view writes across reader–writer
locks, but every shard still shares one interpreter — the GIL caps the
aggregate curve (~2.2x at 4 shards in ``BENCH_serving.json``).  This
module lifts that ceiling the way the paper's cost model invites:
updates are O(poly(ϕ)) and reads O(1)-per-probe, so a shard's whole
request loop is cheap enough to live behind a socket, and view-affine
placement means a worker process needs nothing but its own views.

Three pieces:

* :func:`worker_main` / ``_WorkerHost`` — the per-shard process.  Each
  worker hosts a **single-shard** :class:`Server` over the views placed
  on it and serves the existing id-based ``Server.handle`` request loop
  over the frame transport (:mod:`repro.serve.transport`).  Worker-only
  ops (push subscriptions, the two-phase batch protocol, row reads,
  chunked streams) are dispatched *through* that loop, so client-error
  shaping exists once.
* :class:`ShardCluster` — the deployment handle: spawns the worker
  processes (``spawn`` start method — fork-safe regardless of client
  threads), hands out :class:`ClusterClient` connections,
  and terminates workers cleanly (SIGTERM, then SIGKILL stragglers).
  Workers are daemonic *and* watch a life pipe, so they exit even if
  the parent is killed -9 — aborted runs do not leak orphans.
* :class:`ClusterClient` — the client facade speaking the same
  ``view/insert/delete/apply/batch/open_cursor/fetch/subscribe/poll/
  count/...`` surface as :class:`Server`, so session-level code and
  ``benchmarks/bench_serving.py`` run unchanged against either backend.

**Routing.**  The client keeps one record per view — the
:class:`RemoteView` that ``view()`` returns (worker, query text, pinned
engine, relations, access patterns) — and derives the routing
table from it: new views land on the alive worker serving the fewest
views, and a relation maps to exactly the workers whose views mention
it.  Writes fan out only to those workers, in ascending worker order.
Whenever a view is put on a worker — registration, migration, crash
recovery — the same routine (``_reconcile``) makes the worker's stored
rows of the view's relations *equal* the truth (a live peer owner's
rows, the migration source's, the journal's): missing rows are
inserted and stale residue a previous tenancy left behind is deleted,
so what a view answers depends on the current database alone.

**Transactions.**  A batch that touches one worker uses that worker's
local transactional batch.  A cross-shard batch runs two-phase:
``prepare`` stages the sub-batch on every involved worker *while
holding that worker's exclusive lock* (so no reader observes the gap),
``commit`` applies everywhere, and any failure — including a worker
killed -9 mid-prepare — aborts the staged survivors, so the client
observes a rollback.  A crash *between* commits is reported as a
partial commit (the classic 2PC window; the error says exactly which
shards committed).

**Subscriptions.**  Deltas stream back on a dedicated per-client push
connection: the worker-side subscription's callback frames each
:class:`~repro.serve.subscriptions.Delta` onto the push socket inside
the write path (delivery order = update order), and the client's push
reader re-canonicalises rows and feeds the delta into a local
:class:`~repro.serve.subscriptions.Subscription` outbox — through the
client's own :class:`~repro.serve.dispatch.DispatchPool` when
``dispatch_workers`` > 0.  ``poll()`` keeps the in-process determinism
guarantee with a two-stage barrier: it asks the worker how many deltas
were delivered for the subscription (worker delivery is synchronous,
so that count covers every write that returned), then waits until the
local outbox has received that many.

**Crashes.**  A broken worker connection marks the worker dead; every
handle it served fails from then on with a precise
:class:`~repro.errors.WorkerCrashedError` naming the worker, its exit
code and the views lost, while the other shards keep serving.

**Supervision.**  Attach a :class:`~repro.serve.supervisor.Supervisor`
(or pass ``supervise=True`` to :meth:`repro.api.session.Session.serve`)
and a dead worker is no longer permanent: the client mirrors every
applied update in a :class:`~repro.serve.journal.CommandJournal`, the
supervisor respawns the worker, the client re-registers the worker's
views from its own view table (registration order) and reconciles
their rows against the journal, and the fresh connections swap in.
Requests that hit the dead worker *block* on a recovery condition (a
bounded stall of at most 30 s) and then
retry — safe because updates are idempotent under set semantics —
instead of raising :class:`~repro.errors.WorkerCrashedError`.  Handles
opened against the previous incarnation (cursors, subscriptions) raise
:class:`~repro.errors.WorkerRecoveredError` on next use: worker-side
handle state did not survive, but re-opening is O(1).

**Multiplexing.**  The request channel is a
:class:`~repro.serve.transport.MuxConnection`, the only request
protocol a worker speaks (an untagged request frame is answered with a
``TransportError``): requests carry a ``mux_id`` tag, N caller threads
keep N requests in flight on one socket, and the callers take turns
reading replies (no client reader thread).  On the worker a few
receiver threads per connection take turns reading requests; a read
runs on the thread that received it once the receive role has passed
on — except the writes and the two-phase-batch ops, which run on one
dedicated serial lane per connection because the server's write lock
is reentrant *per thread* across the prepare→commit gap and push
frames must leave in epoch order.  The supervisor's heartbeat probes
share the client's request channels without head-of-line blocking
behind slow fetches.

**Migration.**  :meth:`ClusterClient.migrate_view` moves a live view
between workers without losing a write: writers hold the shared side of
a client-wide write gate per update/chunk/batch, the migration takes
the exclusive side (a full drain), re-registers the view's record on
the target (same query text, pinned engine, access patterns),
reconciles the target's rows against the source's, re-homes the view's
subscriptions and flips the record's worker — and with it the routing
table — atomically.  Registration takes the same exclusive side for
its routing publish and reconcile.
"""

from __future__ import annotations

import collections
import functools
import os
import queue
import random
import signal
import tempfile
import threading
import time
import uuid
from contextlib import ExitStack
from itertools import count as _counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.errors import (
    ClusterError,
    ConnectionClosedError,
    CursorInvalidatedError,
    DeadlineExceededError,
    EngineStateError,
    FrameTooLargeError,
    NotQHierarchicalError,
    QuerySyntaxError,
    QueryStructureError,
    ReproError,
    SchemaError,
    SnapshotInvalidatedError,
    TransportError,
    UpdateError,
    WorkerCrashedError,
    WorkerRecoveredError,
)
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY, merge_snapshots
from repro.obs.tracing import (
    NULL_SPANLOG,
    TRACE_KEY,
    SpanLog,
    extract as extract_trace,
    inject as inject_trace,
    new_trace_id,
)
from repro.api.access import normalize_binding
from repro.serve.dispatch import DispatchPool
from repro.serve.faults import FaultPlan
from repro.serve.journal import CommandJournal
from repro.serve.snapshot import Snapshot
from repro.serve.subscriptions import Delta, Subscription
from repro.serve.transport import (
    Address,
    Connection,
    MuxConnection,
    RowBlock,
    bind_listener,
    command_wire,
    commands_from_wire,
    connect,
    error_reply,
)
from repro.storage.database import Constant, Row
from repro.storage.updates import (
    UpdateCommand,
    delete as delete_command,
    insert as insert_command,
)

__all__ = ["ShardCluster", "ClusterClient", "RemoteView", "worker_main", "query_to_text"]


def query_to_text(query: object) -> str:
    """A registered query back to parseable rule text.

    Conjunctive queries round-trip through ``str``; a
    :class:`~repro.extensions.ucq.UnionOfCQs` renders with the paper's
    ``∪`` joiner, which the parser does not accept — its disjuncts are
    re-joined with ``;`` instead.  This is what lets a view cross the
    process boundary as text.
    """
    if isinstance(query, str):
        return query
    disjuncts = getattr(query, "disjuncts", None)
    if disjuncts is not None:
        return "; ".join(str(disjunct) for disjunct in disjuncts)
    return str(query)


#: Protocol timings in seconds — each had one value in use across the
#: library, tests, benchmarks and examples, so they are constants.
_CONNECT_TIMEOUT = 10.0
#: how long a push barrier waits for delivered deltas to land locally.
_POLL_TIMEOUT = 30.0
#: how long a supervised request may stall waiting for recovery (and
#: the per-request bound on a not-yet-published recovery channel).
_RECOVERY_TIMEOUT = 30.0
#: base of the jittered exponential retry backoff.
_RETRY_BACKOFF = 0.05
#: how long a spawned worker has to report its listening address.
_STARTUP_TIMEOUT = 30.0


def _env_float(name: str, default: float) -> float:
    """A float knob from the environment (empty/missing → default)."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError as error:
        raise ClusterError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from error


def _env_int(name: str, default: int) -> int:
    """An integer knob from the environment (empty/missing → default)."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError as error:
        raise ClusterError(
            f"{name} must be an integer, got {raw!r}"
        ) from error


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------


class _SerialLane:
    """A connection's serial execution lane: one dedicated thread that
    runs two classes of op in arrival order.

    * the two-phase-batch ops: ``batch_prepare`` holds the server's
      exclusive lock across the prepare→commit gap, and the
      :class:`~repro.serve.server.RWLock` write side is reentrant per
      *thread*, so the commit must land on the thread that prepared;
    * the delta-producing writes (``insert``/``delete``/``batch``/
      ``apply_many``): the server assigns delta epochs under its write
      lock, and flushing the resulting push frames from the same serial
      lane keeps the push stream in epoch order.  This costs no
      parallelism — writes serialize on the server's write lock
      anyway — and preserves the ordering guarantee subscriptions
      document.

    Every other op runs on the connection thread that received it.
    """

    OPS = frozenset(
        (
            "batch_prepare",
            "batch_commit",
            "batch_abort",
            "insert",
            "delete",
            "batch",
            "apply_many",
        )
    )

    def __init__(self, name: str):
        self._queue: "queue.Queue[Optional[Callable[[], None]]]" = queue.Queue()
        threading.Thread(target=self._drain, daemon=True, name=name).start()

    def submit(self, task: Callable[[], None]) -> None:
        self._queue.put(task)

    @property
    def pending(self) -> int:
        """Queued-but-unstarted requests (the ``cluster_stats`` depth)."""
        return self._queue.qsize()

    def close(self) -> None:
        """Stop the lane once already-queued tasks have drained."""
        self._queue.put(None)

    def _drain(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                task()
            except BaseException:
                pass  # the task replies (or its connection died); serve on


class _Receivers:
    """Shared state of one request connection's receiver threads."""

    __slots__ = ("role", "mu", "idle", "pending", "done")

    def __init__(self) -> None:
        #: held by the one receiver reading the socket.
        self.role = threading.Lock()
        #: guards ``idle`` and ``pending``.
        self.mu = threading.Lock()
        #: receivers parked on (or about to park on) ``role``.
        self.idle = 0
        #: reads received while no receiver was free to run them.
        self.pending: Deque[Callable[[], None]] = collections.deque()
        #: set by the first receiver to see the connection end.
        self.done = False


#: a connection's 2PC stage: (txn id, commands, held exclusive lock).
#: Only the connection's serial lane thread touches it.
_Staged = List[Tuple[str, List[UpdateCommand], ExitStack]]


class _WorkerHost:
    """One shard's process body: a single-shard Server behind sockets."""

    #: threads per request connection that take turns receiving and
    #: run the reads they received (beside the serial lane's thread).
    RECEIVERS = 9

    #: ops that take no lock: the receiving thread answers them itself.
    LOCK_FREE = frozenset(("ping", "push_sync"))

    def __init__(
        self,
        worker_id: int,
        socket_dir: str,
        socket_name: Optional[str] = None,
        observe: bool = True,
    ):
        # Imported here (not module top) keeps the spawn path light: the
        # child imports this module before repro.api exists in its
        # interpreter, and Session's import graph pulls the engines in.
        from repro.api.session import Session
        from repro.serve.server import POINT_READS, Server

        self.worker_id = worker_id
        self.server = Server(Session(observe=observe), shards=1)
        #: the O(1) reads a receiving thread tries to answer itself.
        self._point_reads = frozenset(POINT_READS)
        self._pid = os.getpid()
        # Worker-side observability handles.  The registry/span log live
        # on the worker's session, so the ``metrics`` op (served by the
        # Server's own request loop) returns everything in one scrape;
        # with observe=False both are the shared no-op singletons and
        # the per-request overhead is two attribute checks.
        self._registry = self.server.session.metrics
        self._spans = self.server.session.spans
        #: op → its ``repro_worker_op_seconds`` histogram, looked up in
        #: the registry once per op rather than once per request.
        self._op_seconds: Dict[str, Any] = {}
        # A respawned incarnation binds a fresh socket name: the old
        # AF_UNIX path may linger on disk after a kill -9, and binding
        # over it would fail.
        self.listener, self.address = bind_listener(
            socket_dir, socket_name or f"worker-{worker_id}"
        )
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        #: client id → push connection (one per connected client).
        self._push: Dict[str, Connection] = {}
        #: subscription handle → owning client id (for push cleanup).
        self._sub_client: Dict[int, str] = {}
        #: per-handler-thread delta buffering: while a request is being
        #: handled, push payloads collect here and flush as ONE frame
        #: per client before the reply is sent — a chunked update can
        #: move hundreds of deltas without a per-delta syscall + client
        #: wakeup, and the reply still never overtakes its deltas.
        self._push_buffer = threading.local()
        #: live per-connection serial lanes, for queue-depth stats.
        self._lanes: Set[_SerialLane] = set()

    # -- lifecycle ------------------------------------------------------------

    def stop(self) -> None:
        """Stop accepting; the process unwinds after ``run`` returns."""
        self._stop.set()
        try:
            self.listener.close()
        except OSError:
            pass

    def run(self) -> None:
        """Accept loop: one daemon thread per client connection."""
        try:
            while not self._stop.is_set():
                try:
                    sock, _peer = self.listener.accept()
                except OSError:
                    break
                threading.Thread(
                    target=self._serve_connection,
                    args=(Connection(sock, registry=self._registry),),
                    daemon=True,
                    name=f"repro-shard-{self.worker_id}-conn",
                ).start()
        finally:
            self.stop()

    # -- connections ----------------------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        kind = "request"
        client_id = ""
        lane: Optional[_SerialLane] = None
        staged: _Staged = []
        try:
            hello = conn.recv()
            if not isinstance(hello, dict) or hello.get("op") != "_hello":
                conn.send(
                    error_reply(TransportError("expected an _hello frame first"))
                )
                return
            kind = str(hello.get("kind", "request"))
            client_id = str(hello.get("client", ""))
            conn.send(
                {"ok": True, "worker": self.worker_id, "pid": os.getpid()}
            )
            if kind == "push":
                with self._state_lock:
                    self._push[client_id] = conn
                # Push channels are worker→client only; block until the
                # client goes away, then tear its subscriptions down.
                try:
                    while True:
                        conn.recv()
                except (ConnectionClosedError, TransportError, OSError):
                    return
            lane = _SerialLane(f"repro-shard-{self.worker_id}-serial")
            with self._state_lock:
                self._lanes.add(lane)
            handle = functools.partial(
                self.server.handle,
                dispatch=functools.partial(self._worker_op, client_id, staged),
            )
            receive = functools.partial(
                self._receive, conn, handle, lane, _Receivers()
            )
            for index in range(1, self.RECEIVERS):
                threading.Thread(
                    target=receive, daemon=True,
                    name=f"repro-shard-{self.worker_id}-recv-{index}",
                ).start()
            receive()
        finally:
            if lane is not None:
                # Roll back any staged transaction on its owning thread
                # (the serial lane holds the exclusive lock), then stop
                # the lane once the queue drains.
                lane.submit(functools.partial(self._rollback_staged, staged))
                lane.close()
                with self._state_lock:
                    self._lanes.discard(lane)
            if kind == "push" and client_id:
                self._drop_push_client(client_id)
            conn.close()

    def _receive(
        self,
        conn: Connection,
        handle: Callable[[Dict[str, object]], Dict[str, object]],
        lane: _SerialLane,
        receivers: _Receivers,
    ) -> None:
        """One of a request connection's receiver threads.

        The threads take turns holding ``receivers.role`` — the right to
        read the next frame.  The holder queues serial ops on the lane
        and keeps reading, so the lane runs them in arrival order and a
        write wakes no other receiver.  ``ping`` and ``push_sync`` take
        no lock, so the holder answers them itself: the liveness sweep
        between prepare and commit (and the supervisor's heartbeat)
        never queues behind reads the prepare is holding up.  The O(1)
        reads — ``count``, ``answer``, ``contains``, where the view's
        engine answers them in time independent of the data — it
        answers itself too, but only when their shard's read lock can be
        taken without waiting (:meth:`Server._handle_now`): a free lock
        costs such a read no hand-off, and a held one never stalls the
        reader.  At any other op, or a point read that may wait or walk
        the data, it checks for a peer parked on the role: if there is
        one, it releases the role to it and runs the op right here, so
        a slow read holds up only its own thread.  If every peer is busy
        it leaves the op in ``receivers.pending`` and keeps reading — the
        last free receiver never blocks, so the ``batch_commit`` that
        releases a prepared worker's exclusive hold is read even while
        every other receiver waits on it.  A receiver drains ``pending``
        before it parks on the role again.  The first receiver to see the
        connection end sets ``done`` and the others follow it out.
        """
        while True:
            with receivers.mu:
                task = receivers.pending.popleft() if receivers.pending else None
                if task is None:
                    receivers.idle += 1
            if task is None:
                with receivers.role:
                    with receivers.mu:
                        receivers.idle -= 1
                    task = self._next_read(conn, handle, lane, receivers)
                if task is None:
                    return
            try:
                task()
            except BaseException:
                pass  # the task replies (or its connection died); serve on

    def _next_read(
        self,
        conn: Connection,
        handle: Callable[[Dict[str, object]], Dict[str, object]],
        lane: _SerialLane,
        receivers: _Receivers,
    ) -> Optional[Callable[[], None]]:
        """Read frames (receive role held) until one is an op to run on
        this thread after the role passed on — returned as a task — or
        the connection ends — ``None``."""
        while not (receivers.done or self._stop.is_set()):
            try:
                request = conn.recv()
            except (ConnectionClosedError, TransportError, OSError):
                break
            mux_id = (
                request.pop("mux_id", None) if isinstance(request, dict) else None
            )
            if type(mux_id) is not int:
                # answered untagged: there is no id to route a reply by
                try:
                    conn.send(
                        error_reply(
                            TransportError(
                                "requests must be dicts tagged with an "
                                "integer mux_id"
                            )
                        )
                    )
                except (ConnectionClosedError, TransportError, OSError):
                    pass
                continue
            op = str(request.get("op", ""))
            if op in self._point_reads and self._answer_now(conn, request, mux_id):
                continue
            task = functools.partial(self._handle_mux, conn, request, handle, mux_id)
            if op in _SerialLane.OPS:
                lane.submit(task)
                continue
            if op in self.LOCK_FREE:
                task()  # liveness is this loop answering
                continue
            with receivers.mu:
                if not receivers.idle:
                    receivers.pending.append(task)
                    continue
            return task
        receivers.done = True
        return None

    def _handle_mux(
        self,
        conn: Connection,
        request: Dict[str, object],
        handle: Callable[[Dict[str, object]], Dict[str, object]],
        mux_id: int,
    ) -> None:
        """One request: handle, flush this thread's buffered deltas,
        then send the tagged reply (its rows as column blocks)."""
        self._push_buffer.frames = {}
        try:
            # the request loop answers every request it is handed
            reply = cast(Dict[str, object], self._handle(request, handle))
        finally:
            self._flush_push_buffer()
        if reply.get("ok"):
            if "rows" in reply:
                reply["rows"] = RowBlock(reply["rows"])  # type: ignore[arg-type]
            if request.get("op") == "snapshot_read":
                for entry in reply["views"].values():  # type: ignore[union-attr]
                    entry["rows"] = RowBlock(entry["rows"])
        self._reply(conn, reply, mux_id)

    def _answer_now(
        self, conn: Connection, request: Dict[str, object], mux_id: int
    ) -> bool:
        """Answer a point read on the receiving thread if its shard's
        read lock is free (:meth:`Server._handle_now`); False — nothing
        sent, the request as it arrived — if taking it would wait.  A
        read writes nothing, so no push buffer is installed."""
        reply = self._handle(request, self.server._handle_now)
        if reply is None:
            return False
        self._reply(conn, reply, mux_id)
        return True

    @staticmethod
    def _reply(conn: Connection, reply: Dict[str, object], mux_id: int) -> None:
        """Send ``reply`` tagged with ``mux_id`` (in place: every reply
        is built for its request)."""
        reply["mux_id"] = mux_id
        try:
            try:
                conn.send(reply)
            except FrameTooLargeError as error:
                # The reply outgrew the frame cap; the channel is
                # untouched, so report it instead of dropping the
                # connection (which would read as a worker crash).
                conn.send(dict(error_reply(error), mux_id=mux_id))
        except (ConnectionClosedError, TransportError, OSError):
            pass  # the client is gone; its recv loop cleans up

    @staticmethod
    def _rollback_staged(staged: _Staged) -> None:
        while staged:  # client vanished mid-transaction: roll back
            _txn, _commands, stack = staged.pop()
            stack.close()

    def _flush_push_buffer(self) -> None:
        """Send this thread's buffered delta payloads, one combined
        frame per client, before the triggering request's reply."""
        frames = getattr(self._push_buffer, "frames", None)
        self._push_buffer.frames = None
        if not frames:
            return
        for client_id, items in frames.items():
            conn = self._push.get(client_id)
            if conn is None:
                continue
            try:
                self._send_deltas(conn, items)
            except (TransportError, OSError):
                self._drop_push_client(client_id)

    def _send_deltas(self, conn: Connection, items: List[Tuple[object, ...]]) -> None:
        """Push ``items`` as one frame, halving it while it exceeds the
        frame cap.  A single delta over the cap cannot be split: its
        subscription gets a ``delta_error`` frame naming the error, and
        the client raises it from that subscription's ``poll``."""
        try:
            conn.send({"kind": "deltas", "items": RowBlock(items)})
        except FrameTooLargeError as error:
            if len(items) == 1:
                conn.send(
                    {
                        "kind": "delta_error",
                        "subscription": items[0][0],
                        **error_reply(error),
                    }
                )
                return
            half = len(items) // 2
            self._send_deltas(conn, items[:half])
            self._send_deltas(conn, items[half:])

    def _drop_push_client(self, client_id: str) -> None:
        with self._state_lock:
            self._push.pop(client_id, None)
            orphaned = [
                handle
                for handle, owner in self._sub_client.items()
                if owner == client_id
            ]
            for handle in orphaned:
                self._sub_client.pop(handle, None)
        for handle in orphaned:
            try:
                self.server.unsubscribe(handle)
            except ReproError:
                pass

    # -- request handling ------------------------------------------------------

    def _handle(
        self,
        request: Dict[str, object],
        serve: Callable[[Dict[str, object]], Optional[Dict[str, object]]],
    ) -> Optional[Dict[str, object]]:
        """Trace + time one request around ``serve`` — the Server's
        request loop with :meth:`_worker_op` as its first-refusal op
        table, or :meth:`Server._handle_now`.

        The client's per-attempt span context travels inside the
        request dict (the ``_trace`` key, popped here); the worker opens
        a **child** span under it — same trace id, new span id, parent
        id = the client attempt's span id — so one logical RPC shows up
        as a cross-process parent/child pair.  Per-op wall time lands in
        ``repro_worker_op_seconds{op=...}``.  When ``serve`` declines
        (``None``) nothing is recorded and the context goes back on the
        request for the path that will serve it.
        """
        context = extract_trace(request)
        spans = self._spans
        registry = self._registry
        if not spans.enabled and not registry.enabled:
            return serve(request)
        op = str(request.get("op", ""))
        span = None
        if spans.enabled:
            span = spans.child(
                f"worker:{op}",
                context,
                op=op,
                worker=self.worker_id,
                pid=self._pid,
            )
        started = time.perf_counter()
        try:
            reply = serve(request)
        except BaseException as error:
            if span is not None:
                spans.finish(span, error=f"{type(error).__name__}: {error}")
            raise
        if reply is None:
            if context is not None:
                request[TRACE_KEY] = context
            return None
        if registry.enabled:
            seconds = self._op_seconds.get(op)
            if seconds is None:
                seconds = self._op_seconds[op] = registry.histogram(
                    "repro_worker_op_seconds", op=op
                )
            seconds.observe(time.perf_counter() - started)
        if span is not None:
            spans.finish(
                span,
                error=None if reply.get("ok") else str(reply.get("error")),
            )
        return reply

    def _worker_op(
        self, client_id: str, staged: _Staged, request: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """The worker-only ops; ``None`` hands the request on to the
        Server's own op table (:meth:`Server.handle` shapes the errors
        of both)."""
        op = request.get("op")
        if op == "ping":
            # Reads/writes ride the heartbeat: the client caches them
            # per worker so a later kill -9 still has a last-known
            # traffic figure to fold into merged stats.
            return {
                "ok": True,
                "worker": self.worker_id,
                "pid": self._pid,
                "reads": self.server.reads,
                "writes": self.server.writes,
            }
        if op == "cluster_stats":
            with self._state_lock:
                lanes_pending = sum(lane.pending for lane in self._lanes)
            load = self.server.load_stats()
            load["pending"] = int(load.get("pending", 0)) + lanes_pending
            return {
                "ok": True,
                "worker": self.worker_id,
                "pid": os.getpid(),
                "load": load,
            }
        if op == "rows":
            return {
                "ok": True,
                "rows": self.server.relation_rows(str(request["relation"])),
            }
        if op == "apply_many":
            # Chunked wire framing for update streams: the round trip,
            # the shard-lock acquisition AND the fan-out to views
            # nobody watches are amortised over the chunk
            # (Server.apply_all); subscribed views and open cursors
            # still get the per-update choreography (deltas, cursor
            # revalidation) command by command.  Not transactional — a
            # failing command leaves the applied prefix in place,
            # exactly like a client-side stream.
            results = self.server.apply_all(
                commands_from_wire(request["commands"])
            )
            return {"ok": True, "results": results}
        if op == "subscribe":
            return self._subscribe(request, client_id)
        if op == "push_sync":
            handle = int(request["subscription"])  # type: ignore[arg-type]
            sub = self.server.subscription_state(handle)
            return {"ok": True, "delivered": sub.delivered}
        if op == "batch_prepare":
            return self._batch_prepare(request, staged)
        if op == "batch_commit":
            return self._batch_commit(request, staged)
        if op == "batch_abort":
            return self._batch_abort(request, staged)
        return None

    def _subscribe(
        self, request: Dict[str, object], client_id: str
    ) -> Dict[str, object]:
        box: Dict[str, Optional[int]] = {"handle": None}

        def push(delta: Delta) -> None:
            handle = box["handle"]
            if handle is None:
                return
            # One row of the frame's delta block (see _decode_delta).
            command = delta.command
            payload = (
                handle,
                delta.view,
                delta.epoch,
                command.op,
                command.relation,
                command.row,
                delta.added,
                delta.removed,
                delta.binding or None,
            )
            # Every write reaches the Server inside a request task, and
            # _handle_mux installed that thread's buffer: collect here,
            # flush-before-reply sends one frame per client (and drops
            # a client whose push channel is gone).
            self._push_buffer.frames.setdefault(client_id, []).append(payload)

        # Worker-side outboxes would never be drained — the wire is the
        # outbox — so max_pending=0 keeps only the delivery counter.
        # The exclusive hold covers the gap between the subscription
        # going live and box["handle"] being set: without it a write on
        # another connection could fire the callback while the handle
        # is still None, silently dropping a delta the delivery counter
        # already recorded (which would wedge the client's poll
        # barrier).  Server.subscribe's own shard lock is reentrant
        # under the hold.
        binding = request.get("binding")
        with self.server.exclusive():
            handle = self.server.subscribe(
                str(request["view"]),
                callback=push,
                max_pending=0,
                binding=binding,  # type: ignore[arg-type]
            )
            box["handle"] = handle
        with self._state_lock:
            self._sub_client[handle] = client_id
        return {"ok": True, "subscription": handle}

    # -- two-phase batches -----------------------------------------------------

    def _batch_prepare(
        self, request: Dict[str, object], staged: _Staged
    ) -> Dict[str, object]:
        if staged:
            raise EngineStateError(
                "a transaction is already staged on this connection"
            )
        txn = str(request["txn"])
        commands = commands_from_wire(request["commands"])
        stack = ExitStack()
        stack.enter_context(self.server.exclusive())
        try:
            for command in commands:
                # Validate now so a doomed transaction votes "no" at
                # prepare time, before anything anywhere is applied.
                self.server.session._check(command.relation, command.row)
        except ReproError:
            stack.close()
            raise
        staged.append((txn, commands, stack))
        return {"ok": True, "txn": txn, "staged": len(commands)}

    def _batch_commit(
        self, request: Dict[str, object], staged: _Staged
    ) -> Dict[str, object]:
        txn = str(request["txn"])
        if not staged or staged[0][0] != txn:
            raise EngineStateError(
                f"no staged transaction {txn!r} on this connection"
            )
        _txn, commands, stack = staged.pop()
        try:
            # Reentrant: this thread already holds the exclusive lock
            # from prepare, so the batch is atomic across the gap.
            stats = self.server.batch(commands)
        finally:
            stack.close()
        return {"ok": True, "stats": stats}

    def _batch_abort(
        self, request: Dict[str, object], staged: _Staged
    ) -> Dict[str, object]:
        txn = str(request.get("txn", ""))
        if staged and (not txn or staged[0][0] == txn):
            _txn, _commands, stack = staged.pop()
            stack.close()
        return {"ok": True}


def _watch_parent(life: object, host: _WorkerHost) -> None:
    """Exit hard when the parent's life-pipe end closes (parent died)."""
    try:
        life.recv_bytes()  # type: ignore[attr-defined]
    except (EOFError, OSError):
        pass
    host.stop()
    os._exit(0)


def worker_main(
    worker_id: int,
    ready: object,
    life: object,
    socket_dir: str,
    socket_name: Optional[str] = None,
    observe: bool = True,
) -> None:
    """Entry point of a shard worker process (importable for spawn)."""
    host = _WorkerHost(worker_id, socket_dir, socket_name, observe=observe)

    def on_sigterm(_signum: int, _frame: object) -> None:
        host.stop()

    signal.signal(signal.SIGTERM, on_sigterm)
    threading.Thread(
        target=_watch_parent, args=(life, host), daemon=True
    ).start()
    try:
        ready.send(host.address)  # type: ignore[attr-defined]
    finally:
        ready.close()  # type: ignore[attr-defined]
    host.run()


# ---------------------------------------------------------------------------
# the deployment handle
# ---------------------------------------------------------------------------


class WorkerHandle:
    """One spawned shard worker: process + wire address."""

    def __init__(self, index: int, process: object, address: Address):
        self.index = index
        self.process = process
        self.address = address

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid  # type: ignore[attr-defined]

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode  # type: ignore[attr-defined]

    def alive(self) -> bool:
        return bool(self.process.is_alive())  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        state = "alive" if self.alive() else f"exit={self.exitcode}"
        return f"WorkerHandle({self.index}, pid={self.pid}, {state})"


class ShardCluster:
    """Spawn and own one worker process per shard.

    Workers start with the ``spawn`` method: they import the library
    fresh (~0.1 s each) instead of forking whatever threads the parent
    holds.  They are daemonic and watch a life pipe, so they die with
    the parent even on SIGKILL.
    """

    def __init__(
        self,
        workers: int = 2,
        socket_dir: Optional[str] = None,
        observe: bool = True,
    ):
        import multiprocessing

        if workers < 1:
            raise ClusterError(f"need >= 1 worker, got {workers}")
        #: whether worker sessions run instrumented (metrics registry,
        #: span log, guarantee probes); respawned workers inherit it.
        self.observe = bool(observe)
        self._closed = False
        self._own_dir = socket_dir is None
        self._socket_dir = socket_dir or tempfile.mkdtemp(
            prefix="repro-cluster-"
        )
        self._context = multiprocessing.get_context("spawn")
        # The read end is retained (not closed after spawning, as a
        # spawn-once cluster could): respawned workers need it too.
        # EOF fires for workers only when every *write* end closes, so
        # the parent keeping its read copy open changes nothing.
        self._life_read, self._life = self._context.Pipe(duplex=False)
        self.workers: List[WorkerHandle] = []
        #: per-worker respawn counters (the ``cluster_stats`` surface).
        self.restarts: List[int] = [0] * workers
        self._respawn_seq = _counter(1)
        pending: List[Tuple[Any, Any]] = []
        try:
            # Start them all, then wait: the imports overlap.
            for index in range(workers):
                pending.append(self._start(index))
            for index, (process, ready) in enumerate(pending):
                self.workers.append(self._await_ready(index, process, ready))
        except BaseException:
            for process, _ready in pending:
                if process.is_alive():
                    process.terminate()
            self._life_read.close()
            self._life.close()
            raise

    def _start(self, index: int, suffix: str = "") -> Tuple[Any, Any]:
        """Spawn worker ``index``; returns ``(process, ready pipe)``.
        ``suffix`` keeps a respawn's socket off the stale path a
        kill -9 may have left on disk."""
        ready_read, ready_write = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_main,
            args=(
                index,
                ready_write,
                self._life_read,
                self._socket_dir,
                f"worker-{index}{suffix}",
                self.observe,
            ),
            daemon=True,
            name=f"repro-shard-{index}{suffix}",
        )
        process.start()
        ready_write.close()
        return process, ready_read

    @staticmethod
    def _await_ready(index: int, process: Any, ready: Any) -> WorkerHandle:
        """Wait for a spawned worker to report its listening address."""
        try:
            if not ready.poll(_STARTUP_TIMEOUT):
                raise ClusterError(
                    f"shard worker {index} did not come up within "
                    f"{_STARTUP_TIMEOUT}s"
                )
            address = tuple(ready.recv())
        finally:
            ready.close()
        return WorkerHandle(index, process, address)

    def client(
        self,
        dispatch_workers: int = 0,
        dispatch_queue: int = 8192,
        journal: Optional[CommandJournal] = None,
        request_timeout: Optional[float] = None,
        retry_budget: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        observe: Optional[bool] = None,
    ) -> "ClusterClient":
        """Connect a new client facade to every worker.  ``observe``
        defaults to the cluster's own flag so client- and worker-side
        instrumentation switch together."""
        return ClusterClient(
            cluster=self,
            dispatch_workers=dispatch_workers,
            dispatch_queue=dispatch_queue,
            journal=journal,
            request_timeout=request_timeout,
            retry_budget=retry_budget,
            faults=faults,
            observe=self.observe if observe is None else bool(observe),
        )

    def respawn_worker(self, index: int) -> WorkerHandle:
        """Replace one worker with a fresh process at the same index.

        The replacement starts with an **empty** session — replaying the
        dead worker's views and rows is the supervisor's job (via the
        client's view table and the command journal).  A still-running
        old process is killed first: the caller declaring the worker
        dead (broken channel, wedged heartbeat) outranks a zombie that
        still answers ``is_alive``.
        """
        if self._closed:
            raise ClusterError("the cluster is closed")
        old = self.workers[index]
        if old.alive():
            try:
                old.process.kill()  # type: ignore[attr-defined]
            except OSError:
                pass
        old.process.join(5.0)  # type: ignore[attr-defined]
        process, ready = self._start(index, f"-r{next(self._respawn_seq)}")
        try:
            handle = self._await_ready(index, process, ready)
        except BaseException:
            if process.is_alive():
                process.terminate()
            raise
        self.workers[index] = handle
        self.restarts[index] += 1
        return handle

    def worker(self, index: int) -> WorkerHandle:
        return self.workers[index]

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Chaos/testing helper: signal one worker (default SIGKILL)."""
        pid = self.workers[index].pid
        if pid is not None:
            os.kill(pid, sig)

    def close(self, timeout: float = 5.0) -> None:
        """Terminate every worker: SIGTERM, join, SIGKILL stragglers."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            if handle.alive():
                try:
                    handle.process.terminate()  # type: ignore[attr-defined]
                except OSError:
                    pass
        for handle in self.workers:
            handle.process.join(timeout)  # type: ignore[attr-defined]
        for handle in self.workers:
            if handle.alive():
                handle.process.kill()  # type: ignore[attr-defined]
                handle.process.join(timeout)  # type: ignore[attr-defined]
        try:
            self._life.close()
        except OSError:
            pass
        try:
            self._life_read.close()
        except OSError:
            pass
        if self._own_dir:
            try:
                for name in os.listdir(self._socket_dir):
                    os.unlink(os.path.join(self._socket_dir, name))
                os.rmdir(self._socket_dir)
            except OSError:
                pass

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for handle in self.workers if handle.alive())
        return f"ShardCluster(workers={len(self.workers)}, alive={alive})"


# ---------------------------------------------------------------------------
# the client facade
# ---------------------------------------------------------------------------


class RemoteView:
    """The one registration record of a view living in a worker process.

    ``view()`` returns it, the client's view table holds it, and
    migration and crash recovery re-register the view from it — so a
    moved or recovered view keeps its query text, pinned engine and
    declared access patterns.
    """

    def __init__(
        self,
        name: str,
        engine_name: str,
        relations: Tuple[str, ...],
        worker: int,
        text: str,
        access: Optional[List[List[str]]],
    ):
        self.name = name
        #: the *resolved* engine name once registered, so a replay pins
        #: the engine the planner originally chose instead of
        #: re-running "auto".
        self.engine_name = engine_name
        self.relations = relations
        #: current placement (flipped by migration).
        self.worker = worker
        #: parseable rule text (see :func:`query_to_text`).
        self.text = text
        #: declared access patterns (wire form: variable-name lists),
        #: so a replay declares the same patterns again.
        self.access = access

    def registration(self) -> Dict[str, object]:
        """The request that registers this view on a worker."""
        request: Dict[str, object] = {
            "op": "view",
            "name": self.name,
            "query": self.text,
            "engine": self.engine_name,
        }
        if self.access is not None:
            request["access"] = self.access
        return request

    def __repr__(self) -> str:
        return (
            f"RemoteView({self.name!r}, engine={self.engine_name!r}, "
            f"worker={self.worker})"
        )


class _StubView:
    """The minimal view protocol a client-side Subscription needs."""

    def __init__(self, name: str):
        self.name = name

    def _register_subscription(self, subscription: object) -> None:
        pass

    def _drop_subscription(self, subscription: object) -> None:
        pass


class _SubEntry:
    __slots__ = (
        "worker",
        "remote",
        "view",
        "local",
        "received",
        "lazy",
        "raw",
        "poll_lock",
        "inc",
        "binding",
    )

    def __init__(
        self,
        worker: int,
        remote: int,
        view: str,
        local: Subscription,
        lazy: bool,
        inc: int = 0,
        binding: Optional[Dict[str, Constant]] = None,
    ):
        self.worker = worker
        self.remote = remote
        self.view = view
        self.local = local
        self.received = 0
        #: the parameterized subscription's binding, resent verbatim
        #: when migration re-homes this entry onto another worker.
        self.binding = binding
        #: the worker incarnation this subscription was opened against;
        #: a mismatch after supervisor recovery → WorkerRecoveredError.
        self.inc = inc
        #: pull-only subscriptions (no callback, no pool, unbounded)
        #: defer payload decoding to poll() — the consumer pays for its
        #: own decode instead of taxing the push reader's hot loop.
        self.lazy = lazy
        self.raw: List[Tuple[Any, ...]] = []
        self.poll_lock = threading.Lock()


def _access_wire(access: object) -> Optional[List[List[str]]]:
    """An access declaration's wire form: a list of variable-name
    lists.  Shape-dispatch mirrors
    :func:`repro.api.access.normalize_access_declaration`; name
    validation and canonical ordering happen on the owning worker,
    which knows the view's output variables."""
    if access is None:
        return None
    if isinstance(access, str):
        return [[access]]
    items = list(access)  # type: ignore[call-overload]
    if items and all(not isinstance(item, str) for item in items):
        return [list(item) for item in items]
    return [[str(item) for item in items]]


#: worker error name → local exception class (reconstructed client-side).
_ERROR_CLASSES = {
    "SchemaError": SchemaError,
    "UpdateError": UpdateError,
    "EngineStateError": EngineStateError,
    "CursorInvalidatedError": CursorInvalidatedError,
    "QuerySyntaxError": QuerySyntaxError,
    "QueryStructureError": QueryStructureError,
    "NotQHierarchicalError": NotQHierarchicalError,
    "TransportError": TransportError,
    "FrameTooLargeError": FrameTooLargeError,
    "ClusterError": ClusterError,
}


class ClusterClient:
    """The :class:`Server`-shaped facade over a shard cluster.

    Construct via :meth:`ShardCluster.client` (or directly from a list
    of worker ``addresses`` for a cluster deployed elsewhere).  All
    methods are thread-safe; view registration is the one operation
    that assumes a single registrar at a time (it edits the routing).
    """

    def __init__(
        self,
        cluster: Optional[ShardCluster] = None,
        addresses: Optional[Sequence[Address]] = None,
        dispatch_workers: int = 0,
        dispatch_queue: int = 8192,
        journal: Optional[CommandJournal] = None,
        request_timeout: Optional[float] = None,
        retry_budget: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        observe: bool = True,
    ):
        if cluster is not None:
            addresses = [handle.address for handle in cluster.workers]
        if not addresses:
            raise ClusterError("a ClusterClient needs a cluster or addresses")
        self._cluster = cluster
        #: per-RPC deadline in seconds (env REPRO_REQUEST_TIMEOUT,
        #: default 30); <= 0 disables deadlines entirely.
        resolved_timeout = (
            _env_float("REPRO_REQUEST_TIMEOUT", 30.0)
            if request_timeout is None
            else request_timeout
        )
        self._request_timeout: Optional[float] = (
            resolved_timeout if resolved_timeout > 0 else None
        )
        #: extra send attempts after a clean deadline on an idempotent
        #: read (env REPRO_RETRY_BUDGET, default 2).
        self._retry_budget = (
            _env_int("REPRO_RETRY_BUDGET", 2)
            if retry_budget is None
            else int(retry_budget)
        )
        self._retry_rng = random.Random()
        self._faults = faults
        #: command journal (the row mirror recovery replays from).
        self._journal = journal
        #: True once a Supervisor attached: dead-worker requests then
        #: block for recovery instead of raising WorkerCrashedError.
        self.supervised = False
        self._supervisor: Optional[object] = None
        self.client_id = uuid.uuid4().hex
        #: set by Session.serve so close() tears the workers down too.
        self.owns_cluster = False
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._conns: List[MuxConnection] = []
        self._push_conns: List[Connection] = []
        self._push_threads: List[threading.Thread] = []
        self._pids: List[Optional[int]] = []
        self._addresses: List[Address] = []
        self._dead: Dict[int, str] = {}
        #: workers the supervisor gave up on (reason text).
        self._unrecoverable: Dict[int, str] = {}
        #: per-worker incarnation counter, bumped on every recovery;
        #: handles remember the incarnation they were opened against.
        self._incarnation: List[int] = []
        #: worker → (views re-registered, journal epoch) of the most
        #: recent recovery, for precise WorkerRecoveredError reports.
        self._recovered_info: Dict[int, Tuple[Tuple[str, ...], int]] = {}
        #: the view table, in registration order: the one record of
        #: each view's placement and registration (routing derives from
        #: it; migration and recovery re-register from it).
        self._views: Dict[str, RemoteView] = {}
        self._routing: Dict[str, Tuple[int, ...]] = {}
        #: bumped on every routing flip (migration) so stream-level
        #: caches know to re-route.
        self._routing_version = 0
        self._relation_arity: Dict[str, int] = {}
        self._cursors: Dict[int, Tuple[int, int, str, int]] = {}
        #: cursor handle → the error a later fetch must raise (the
        #: cursor was invalidated by a migration).
        self._cursor_tombstones: Dict[int, ReproError] = {}
        self._subs: Dict[int, _SubEntry] = {}
        self._by_remote: Dict[Tuple[int, int], int] = {}
        #: pushed items that raced a subscribe (frames arriving before
        #: the local handle registration), in arrival order.
        self._orphan_deltas: Dict[Tuple[int, int], List[object]] = {}
        #: (worker, remote) pairs whose trailing frames must be dropped.
        self._closed_remotes: Set[Tuple[int, int]] = set()
        self._ids = _counter(1)
        self._txn_ids = _counter(1)
        self._closed = False
        #: client-side observability: per-op RPC latency + frame bytes
        #: land here; `metrics()` merges this with every worker's
        #: registry (fixed buckets make the merge elementwise).
        self._observe = bool(observe)
        self.metrics_registry = MetricsRegistry() if observe else NULL_REGISTRY
        self.spans = SpanLog() if observe else NULL_SPANLOG
        #: op → its ``repro_rpc_seconds`` histogram, looked up in the
        #: registry once per op rather than once per request.
        self._rpc_seconds: Dict[str, Any] = {}
        #: last-known per-worker traffic counters (refreshed by every
        #: heartbeat ping and stats scrape) and the retired totals of
        #: dead incarnations — what keeps merged stats/metrics monotone
        #: across a kill -9 + respawn instead of silently shrinking.
        self._last_stats: Dict[int, Dict[str, int]] = {}
        self._last_metrics: Dict[int, Dict[str, object]] = {}
        self._retired_stats: Dict[str, int] = {"reads": 0, "writes": 0}
        self._retired_metrics: List[Dict[str, object]] = []
        #: worker → monotonic time the channel was first marked dead
        #: (feeds the detection→recovered histogram on recovery).
        self._dead_since: Dict[int, float] = {}
        self._pool: Optional[DispatchPool] = (
            DispatchPool(dispatch_workers, dispatch_queue, registry=self.metrics_registry)
            if dispatch_workers > 0
            else None
        )
        # Writers hold the shared side per update/chunk/batch; a live
        # view migration takes the exclusive side — a full write drain.
        from repro.serve.server import RWLock

        self._write_gate = RWLock()
        #: test hook: called after every prepare succeeded, before the
        #: commit phase of a cross-shard batch (crash injection point).
        self._test_pause_after_prepare: Optional[Callable[["ClusterClient"], None]] = None
        try:
            for index, address in enumerate(addresses):
                self._addresses.append(tuple(address))
                self._incarnation.append(0)
                conn, push, pid = self._connect_worker(tuple(address), index)
                self._conns.append(conn)
                self._push_conns.append(push)
                self._pids.append(pid)
                thread = threading.Thread(
                    target=self._push_loop,
                    args=(index, push),
                    daemon=True,
                    name=f"repro-cluster-push-{index}",
                )
                thread.start()
                self._push_threads.append(thread)
        except BaseException:
            self.close()
            raise

    def _connect_worker(
        self, address: Address, worker: int
    ) -> Tuple[MuxConnection, Connection, Optional[int]]:
        """Dial one worker: the multiplexed request channel plus the
        push channel.  Returns ``(request_conn, push_conn, worker_pid)``.

        When a :class:`~repro.serve.faults.FaultPlan` is installed,
        each channel is wrapped in a fault-applying connection before
        the multiplexer sees it, so scripted faults hit the raw frame
        stream exactly as a flaky network would.
        """
        raw = connect(address, timeout=_CONNECT_TIMEOUT)
        raw.instrument(self.metrics_registry)
        if self._faults is not None:
            raw = self._faults.wrap(
                raw, worker, "request", lambda w=worker: self._worker_pid(w)
            )
        conn = MuxConnection(raw, default_timeout=self._request_timeout)
        reply = conn.handshake(
            {"op": "_hello", "kind": "request", "client": self.client_id}
        )
        conn.start()
        push = connect(address, timeout=_CONNECT_TIMEOUT)
        push.instrument(self.metrics_registry)
        if self._faults is not None:
            push = self._faults.wrap(
                push, worker, "push", lambda w=worker: self._worker_pid(w)
            )
        push.request(
            {"op": "_hello", "kind": "push", "client": self.client_id},
            timeout=_CONNECT_TIMEOUT,
        )
        return conn, push, reply.get("pid")  # type: ignore[return-value]

    def _worker_pid(self, worker: int) -> Optional[int]:
        with self._lock:
            if worker < len(self._pids):
                return self._pids[worker]
        return None

    # -- plumbing --------------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._conns)

    @property
    def dead_workers(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._dead))

    def _views_of(self, worker: int) -> Tuple[str, ...]:
        return tuple(
            sorted(
                name
                for name, view in self._views.items()
                if view.worker == worker
            )
        )

    def _crash_message(self, worker: int, context: str = "") -> str:
        with self._lock:
            reason = self._dead.get(worker, "connection lost")
            views = self._views_of(worker)
        pid = self._pids[worker] if worker < len(self._pids) else None
        exitcode = None
        if self._cluster is not None and worker < len(self._cluster.workers):
            exitcode = self._cluster.workers[worker].exitcode
        parts = [
            f"shard worker {worker}"
            + (f" (pid {pid})" if pid is not None else "")
            + " crashed or is unreachable"
        ]
        if exitcode is not None:
            parts.append(f"exit code {exitcode}")
        parts.append(reason)
        if views:
            parts.append(f"views lost: {', '.join(views)}")
        if context:
            parts.append(context)
        return "; ".join(parts)

    def _mark_dead(self, worker: int, error: BaseException) -> None:
        supervisor = self._supervisor
        with self._cond:
            if worker not in self._dead:
                # First detection wins: the detection→recovered
                # histogram measures from here.
                self._dead_since[worker] = time.monotonic()
            self._dead.setdefault(worker, f"{type(error).__name__}: {error}")
            # Wake poll barriers waiting on deltas that will never come.
            self._cond.notify_all()
        if supervisor is not None:
            supervisor.notify(worker)  # type: ignore[attr-defined]

    def _crashed(self, worker: int, context: str = "") -> WorkerCrashedError:
        with self._lock:
            views = self._views_of(worker)
        return WorkerCrashedError(
            self._crash_message(worker, context), worker=worker, views=views
        )

    def _await_alive(self, worker: int, context: str = "") -> None:
        """Supervised: block (bounded) until the worker is recovered.
        Unsupervised: raise the precise crash error immediately."""
        with self._cond:
            if worker not in self._dead:
                return
            if worker in self._unrecoverable:
                raise self._crashed(worker, self._unrecoverable[worker])
            if not self.supervised:
                raise self._crashed(worker, context)
            deadline = time.monotonic() + _RECOVERY_TIMEOUT
            while worker in self._dead:
                if worker in self._unrecoverable:
                    raise self._crashed(worker, self._unrecoverable[worker])
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise self._crashed(
                        worker,
                        f"recovery did not complete within "
                        f"{_RECOVERY_TIMEOUT}s"
                        + (f"; {context}" if context else ""),
                    )
                self._cond.wait(timeout=min(remaining, 0.25))

    #: ops a clean mux deadline may blindly re-send: reads with no
    #: server-side state change.  Writes are excluded (a late first
    #: attempt could still land, making ``changed`` flags lie), cursor
    #: ``fetch`` is excluded (it advances the server-side position),
    #: and the 2PC ops are excluded (retry decisions belong to
    #: ``batch()``'s prepare/commit bookkeeping, never to the wire).
    _RETRY_SAFE_OPS = frozenset(
        (
            "ping",
            "count",
            "answer",
            "contains",
            "result_set",
            "digest",
            "explain",
            "epochs",
            "snapshot_read",
            "stats",
            "rows",
            "push_sync",
            "cluster_stats",
            "metrics",
        )
    )

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff for attempt N (1-based)."""
        base = _RETRY_BACKOFF * (2 ** max(0, attempt - 1))
        return min(base, 1.0) * (0.5 + self._retry_rng.random())

    def _finish_attempt(
        self,
        span: Optional[object],
        hist: Optional[object],
        started: float,
        error: Optional[str] = None,
    ) -> None:
        """Close one RPC attempt's span and record its wall time."""
        if hist is not None:
            hist.observe(time.perf_counter() - started)  # type: ignore[attr-defined]
        if span is not None:
            self.spans.finish(span, error=error)

    def _request(
        self,
        worker: int,
        message: Dict[str, object],
        context: str = "",
        trace_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """One ok-checked RPC with retries, deadlines — and tracing.

        Every *attempt* gets its own client span (``rpc:<op>``) whose
        context rides inside the request frame, so the worker's child
        span links back to exactly the attempt that carried it.  All
        attempts of one logical request share a trace id; callers
        composing multi-leg protocols (the 2PC ops, apply fan-out) pass
        their own ``trace_id`` so the legs share a trace too.

        ``message`` becomes the frame: the trace context and the mux tag
        are set on it in place, so pass a dict built for this request.
        Apart from the retry and crash paths, a request takes the
        connection's locks and no client lock.
        """
        op = str(message.get("op", ""))
        attempts = 0
        started = time.monotonic()
        spans = self.spans
        tracing = spans.enabled
        if tracing and trace_id is None:
            trace_id = new_trace_id()
        hist = self._rpc_seconds.get(op)
        if hist is None and self.metrics_registry.enabled:
            hist = self._rpc_seconds[op] = self.metrics_registry.histogram(
                "repro_rpc_seconds", op=op
            )
        while True:
            if worker in self._dead:
                self._await_alive(worker, context)
            # One list read is atomic: recovery swaps the entry whole.
            conn = self._conns[worker]
            attempts += 1
            span = None
            if tracing:
                span = spans.start(
                    f"rpc:{op}",
                    trace_id=trace_id,
                    op=op,
                    worker=worker,
                    attempt=attempts,
                )
                inject_trace(message, span.context())
            attempt_started = time.perf_counter()
            try:
                reply = conn.request(message, timeout=self._request_timeout)
            except FrameTooLargeError as oversize:
                # The oversize check fired before any byte hit the
                # wire: the worker is fine, the *payload* is the
                # problem — report it without condemning the channel.
                self._finish_attempt(
                    span, hist, attempt_started, error=str(oversize)
                )
                raise
            except DeadlineExceededError as stall:
                self._finish_attempt(
                    span, hist, attempt_started,
                    error=f"DeadlineExceededError: {stall}",
                )
                elapsed = time.monotonic() - started
                retries_left = self._retry_budget - (attempts - 1)
                if op in self._RETRY_SAFE_OPS and retries_left > 0:
                    time.sleep(self._backoff_delay(attempts))
                    continue
                raise DeadlineExceededError(
                    f"{op!r} on shard worker {worker} exceeded its "
                    f"{self._request_timeout}s deadline after {attempts} "
                    f"attempt(s) ({elapsed:.3f}s elapsed"
                    + (
                        ""
                        if op in self._RETRY_SAFE_OPS
                        else "; not retry-safe, no blind re-send"
                    )
                    + ")",
                    op=op or None,
                    worker=worker,
                    elapsed=elapsed,
                    attempts=attempts,
                ) from stall
            except (ConnectionClosedError, TransportError, OSError) as error:
                self._finish_attempt(
                    span, hist, attempt_started,
                    error=f"{type(error).__name__}: {error}",
                )
                self._mark_dead(worker, error)
                if self.supervised:
                    # Bounded stall: wait for the supervisor's recovery,
                    # then re-send on the fresh channel.  Safe because
                    # every cluster op is idempotent under set semantics
                    # (and a lost 2PC stage surfaces precisely at
                    # commit, see batch()).
                    continue
                raise self._crashed(worker, context) from error
            if reply.get("ok"):
                if hist is not None:
                    hist.observe(time.perf_counter() - attempt_started)
                if span is not None:
                    spans.finish(span)
                return reply
            self._finish_attempt(
                span, hist, attempt_started, error=str(reply.get("error"))
            )
            raise self._reply_error(reply)

    def probe_worker(
        self, worker: int, timeout: Optional[float] = None
    ) -> bool:
        """One heartbeat ``ping``; marks the worker dead (and returns
        False) when the channel fails or the reply times out.  The
        supervisor's health sweep calls this — on a multiplexed channel
        the probe rides alongside client traffic without queueing
        behind it."""
        with self._lock:
            if worker in self._dead:
                return False
            conn = self._conns[worker]
        try:
            reply = conn.request(
                {"op": "ping"},
                timeout=timeout if timeout is not None else self._request_timeout,
            )
            if reply.get("ok") and "reads" in reply:
                # Heartbeat piggyback: remember the worker's traffic
                # counters so stats() can fold a later crash's last
                # known figures into the merged totals.
                with self._lock:
                    self._last_stats[worker] = {
                        "reads": int(reply.get("reads", 0)),  # type: ignore[arg-type]
                        "writes": int(reply.get("writes", 0)),  # type: ignore[arg-type]
                    }
            return bool(reply.get("ok"))
        except (
            DeadlineExceededError,
            ConnectionClosedError,
            TransportError,
            OSError,
        ) as error:
            # A probe deadline is the wedged-but-alive signature — for
            # heartbeat purposes that IS dead.
            self._mark_dead(worker, error)
            return False

    # -- supervision hooks -----------------------------------------------------

    def attach_supervisor(self, supervisor: object) -> None:
        """Switch dead-worker requests from fail-fast to bounded-stall
        (called by :class:`~repro.serve.supervisor.Supervisor`)."""
        with self._lock:
            self.supervised = True
            self._supervisor = supervisor

    def _mark_unrecoverable(self, worker: int, reason: str) -> None:
        with self._cond:
            self._unrecoverable[worker] = reason
            self._dead.setdefault(worker, reason)
            self._cond.notify_all()

    def _check_incarnation(self, worker: int, inc: int, what: str) -> None:
        with self._lock:
            if worker < len(self._incarnation) and self._incarnation[worker] == inc:
                return
            views, epoch = self._recovered_info.get(worker, ((), 0))
        raise WorkerRecoveredError(
            f"{what} was opened against a previous incarnation of shard "
            f"worker {worker}: the worker crashed and was recovered "
            f"(journal epoch {epoch}); its views "
            f"({', '.join(views) or 'none'}) were re-registered and "
            "backfilled, but server-side cursor/subscription state does "
            "not survive a crash — re-open the handle",
            worker=worker,
            views=views,
            journal_epoch=epoch,
        )

    def _recover_worker(
        self, index: int, handle: WorkerHandle, epoch: int
    ) -> Tuple[str, ...]:
        """Rebuild a respawned worker and swap its channels in (the
        supervisor calls this; the worker is still marked dead, so
        nothing else is sending to it).

        Re-registers the worker's views from the view table in
        registration order, then reconciles every relation those views
        read against the journal's live rows — one bulk ``batch`` per
        relation, the fastest recovery path.  Only then is the worker
        published: the dead flag clears, blocked writers retry, and the
        incarnation counter bumps so stale handles report precisely.
        """
        journal = self._journal
        address = tuple(handle.address)
        span = None
        if self.spans.enabled:
            span = self.spans.start(
                "recovery",
                worker=index,
                journal_epoch=epoch,
                pid=handle.pid,
            )
        try:
            conn, push, pid = self._connect_worker(address, index)
        except BaseException as error:
            if span is not None:
                self.spans.finish(
                    span, error=f"{type(error).__name__}: {error}"
                )
            raise
        with self._lock:
            records = [v for v in self._views.values() if v.worker == index]
        views = [record.name for record in records]
        send = functools.partial(self._raw_ok, conn)
        try:
            for record in records:
                send(record.registration())
            if journal is not None:
                self._reconcile(
                    index,
                    sorted({r for record in records for r in record.relations}),
                    journal.rows,
                    f"recovering worker {index}",
                    send=send,
                )
        except BaseException as error:
            if span is not None:
                self.spans.finish(
                    span, error=f"{type(error).__name__}: {error}"
                )
            conn.close()
            push.close()
            raise
        with self._cond:
            old_conn = self._conns[index]
            old_push = self._push_conns[index]
            self._conns[index] = conn
            self._push_conns[index] = push
            self._pids[index] = pid
            self._addresses[index] = address
            self._incarnation[index] += 1
            self._recovered_info[index] = (tuple(views), epoch)
            # Retire the dead incarnation's last-known figures: the
            # respawned worker restarts its counters at zero, so the
            # merged stats/metrics would silently shrink without this
            # fold (the journal-style survival guarantee).
            last = self._last_stats.pop(index, None)
            if last is not None:
                self._retired_stats["reads"] += int(last.get("reads", 0))
                self._retired_stats["writes"] += int(last.get("writes", 0))
            last_snap = self._last_metrics.pop(index, None)
            if last_snap is not None:
                self._retired_metrics.append(last_snap)
            detected_at = self._dead_since.pop(index, None)
            # Remote handle ids restart from 1 on the new incarnation;
            # drop the old incarnation's push routing so they cannot
            # collide with stale keys.
            for key in [k for k in self._by_remote if k[0] == index]:
                self._by_remote.pop(key, None)
            self._closed_remotes = {
                key for key in self._closed_remotes if key[0] != index
            }
            for key in [k for k in self._orphan_deltas if k[0] == index]:
                self._orphan_deltas.pop(key, None)
            self._dead.pop(index, None)
            self._cond.notify_all()
        thread = threading.Thread(
            target=self._push_loop,
            args=(index, push),
            daemon=True,
            name=f"repro-cluster-push-{index}",
        )
        thread.start()
        self._push_threads.append(thread)
        if detected_at is not None and self.metrics_registry.enabled:
            # Detection→recovered: the whole outage window as requests
            # experienced it, not just the respawn+replay cost.
            self.metrics_registry.histogram("repro_supervisor_recovery_seconds").observe(
                time.monotonic() - detected_at
            )
        if self.metrics_registry.enabled:
            self.metrics_registry.counter(
                "repro_supervisor_recoveries_total", worker=index
            ).inc()
        if span is not None:
            span.attrs["views"] = ",".join(views)
            self.spans.finish(span)
        try:
            old_conn.close()
            old_push.close()
        except OSError:
            pass
        return tuple(views)

    def _raw_ok(
        self, conn: MuxConnection, message: Dict[str, object]
    ) -> Dict[str, object]:
        """One request on a not-yet-published channel, ok-checked.
        Bounded by the recovery timeout — a wedged replacement worker
        must fail the recovery attempt, not hang the supervisor."""
        reply = conn.request(message, timeout=_RECOVERY_TIMEOUT)
        if not reply.get("ok"):
            raise ClusterError(
                f"recovery request {message.get('op')!r} failed: "
                f"{reply.get('error')}: {reply.get('message')}"
            )
        return reply

    def _reply_error(self, reply: Dict[str, object]) -> ReproError:
        name = str(reply.get("error", "ReproError"))
        message = str(reply.get("message", "remote error"))
        cls = _ERROR_CLASSES.get(name, ReproError)
        if cls is CursorInvalidatedError:
            report = None
            info = reply.get("invalidation")
            if isinstance(info, dict):
                from repro.serve.cursors import CursorInvalidation

                report = CursorInvalidation(
                    view=str(info.get("view")),
                    opened_epoch=int(info.get("opened_epoch", 0)),  # type: ignore[arg-type]
                    invalidated_epoch=int(
                        info.get("invalidated_epoch", 0)  # type: ignore[arg-type]
                    ),
                    command=info.get("command"),  # type: ignore[arg-type]
                    fetched=int(info.get("fetched", 0)),  # type: ignore[arg-type]
                )
            return CursorInvalidatedError(message, report)
        return cls(message)

    def _worker_of_view(self, view: str) -> int:
        # Lock-free: one dict read is atomic, and holding the lock for
        # it would order nothing — the view may move once it is released.
        record = self._views.get(view)
        if record is None:
            raise EngineStateError(f"no view named {view!r}")
        return record.worker

    def _push_loop(self, worker: int, conn: Connection) -> None:
        while True:
            try:
                # Bounded read: a clean frame-boundary deadline just
                # re-checks liveness — the push reader never blocks
                # unboundedly on a silent socket.
                frame = conn.recv(timeout=1.0)
            except DeadlineExceededError:
                if self._closed or conn.closed:
                    return
                continue
            except (ConnectionClosedError, TransportError, OSError):
                return
            if not isinstance(frame, dict):
                continue
            kind = frame.get("kind")
            if kind == "deltas":
                with self._cond:
                    for item in frame["items"]:  # type: ignore[union-attr]
                        self._deliver_push_locked(worker, item[0], item)
                    self._cond.notify_all()
            elif kind == "delta_error":
                with self._cond:
                    self._deliver_push_locked(
                        worker,
                        frame["subscription"],
                        self._reply_error(frame),
                    )
                    self._cond.notify_all()

    @staticmethod
    def _decode_delta(item: Tuple[Any, ...]) -> Delta:
        """One row of a pushed delta block (see ``_WorkerHost._subscribe``)."""
        _handle, view, epoch, op, relation, row, added, removed, binding = item
        return Delta(
            view=view,
            epoch=epoch,
            command=UpdateCommand(op, relation, row),
            added=tuple(added),
            removed=tuple(removed),
            binding=binding,
        )

    def _deliver_push_locked(
        self, worker: int, remote: object, item: object
    ) -> None:
        """Deliver one pushed item — a delta row, or the error that
        stands in for a delta the worker could not push; caller holds
        the lock."""
        key = (worker, int(remote))  # type: ignore[call-overload]
        handle = self._by_remote.get(key)
        entry = self._subs.get(handle) if handle is not None else None
        if entry is None:
            # A frame can outrun the subscribe() reply's local
            # registration; park it (unless the handle was already
            # closed — then the tail is dropped).
            if key not in self._closed_remotes:
                self._orphan_deltas.setdefault(key, []).append(item)
            return
        self._accept_locked(entry, item)

    def _accept_locked(self, entry: "_SubEntry", item: object) -> None:
        if isinstance(item, ReproError):
            entry.local._lose(item)
        elif entry.lazy:
            entry.raw.append(item)  # type: ignore[arg-type]
        else:
            entry.local._dispatch(self._decode_delta(item))  # type: ignore[arg-type]
        entry.received += 1

    # -- view registration -----------------------------------------------------

    def view(
        self,
        name: str,
        query: object,
        engine: str = "auto",
        access: Optional[object] = None,
    ) -> RemoteView:
        """Register a live view on the least-loaded alive worker.

        ``access`` declares access patterns up front, exactly like
        :meth:`repro.api.session.Session.view`.  They ride the
        registration op and stay on the returned record, so recovery
        and migration declare the same patterns again.

        Registration order never changes results — the guarantee the
        in-process Session gives: for every relation of the view that
        a *live peer* worker already serves, the routing entry is
        published and the new worker's stored rows are reconciled
        against that peer's (missing rows inserted, stale residue of a
        previous tenancy deleted) under the exclusive side of this
        client's write gate, exactly as :meth:`migrate_view` does — so
        none of this client's writes, inserts or deletes, can race the
        row snapshot.  A relation with **no** live owner has no truth
        to reconcile against: the rows the worker already stores for
        it stand.

        The in-process Server takes every shard lock here; a cluster
        cannot.  The write gate is per client, so registration assumes
        one registrar at a time, other clients' writes are not drained,
        and reads of the new view before ``view()`` returns may see a
        partially reconciled result.
        """
        with self._lock:
            if name in self._views:
                raise EngineStateError(f"a view named {name!r} already exists")
            worker = self._least_loaded_worker()
        record = RemoteView(
            name,
            engine,
            (),
            worker,
            query_to_text(query),
            _access_wire(access),
        )
        context = f"registering view {name!r}"
        reply = self._request(worker, record.registration(), context=context)
        # The *resolved* engine: a replay pins what the planner chose.
        record.engine_name = str(reply["engine"])
        record.relations = tuple(str(r) for r in reply["relations"])  # type: ignore[attr-defined]
        arities = {
            str(relation): int(arity)
            for relation, arity in dict(
                reply.get("arities") or {}  # type: ignore[arg-type]
            ).items()
        }
        with self._lock:
            for relation, arity in arities.items():
                declared = self._relation_arity.get(relation, arity)
                if declared != arity:
                    conflict = SchemaError(
                        f"view {name!r} uses {relation}/{arity} but the "
                        f"cluster already serves {relation}/{declared}"
                    )
                    break
            else:
                conflict = None
        if conflict is not None:
            # Workers only see their own schema; undo the registration
            # so the cluster stays consistent, then mirror the
            # session's error.
            try:
                self._request(worker, {"op": "drop_view", "name": name})
            except (WorkerCrashedError, ReproError):
                pass
            raise conflict
        with self._write_gate.write_locked():
            with self._lock:
                peers: Dict[str, int] = {}
                for relation in record.relations:
                    owners = self._routing.get(relation, ())
                    peer = next(
                        (o for o in owners if o not in self._dead), None
                    )
                    if peer is not None and worker not in owners:
                        peers[relation] = peer
                    self._routing[relation] = tuple(sorted({*owners, worker}))
                self._views[name] = record
                self._relation_arity.update(arities)
            for relation, peer in peers.items():
                self._reconcile(worker, (relation,), peer, context)
        return record

    def _reconcile(
        self,
        target: int,
        relations: Iterable[str],
        truth: Union[int, Callable[[str], Iterable[Row]]],
        context: str,
        send: Optional[
            Callable[[Dict[str, object]], Dict[str, object]]
        ] = None,
    ) -> None:
        """Make ``target``'s stored rows of each relation equal the
        truth — the one way rows are installed beside a view.

        ``truth`` is a worker index (that worker's ``rows`` are the
        truth: a live peer owner, a migration source) or a callable
        relation → rows (the journal's mirror).  Not insert-only: a
        worker that hosted the relation before (a dropped view, an
        earlier migration away) still stores rows deleted elsewhere
        since, and the registration just computed the view over them —
        so the repairs ``batch`` deletes ``have − truth`` and inserts
        ``truth − have``, in ``repr`` order.  ``send`` replaces the
        default ``_request`` to ``target`` (recovery talks over a
        not-yet-published channel).
        """
        to_target = send or functools.partial(
            self._request, target, context=context
        )

        def stored(
            ask: Callable[[Dict[str, object]], Dict[str, object]],
            relation: str,
        ) -> Set[Row]:
            return set(ask({"op": "rows", "relation": relation})["rows"])  # type: ignore[call-overload]

        for relation in relations:
            if callable(truth):
                want = set(truth(relation))
            else:
                want = stored(
                    functools.partial(self._request, truth, context=context),
                    relation,
                )
            have = stored(to_target, relation)
            repairs = [
                command_wire(delete_command(relation, row))
                for row in sorted(have - want, key=repr)
            ] + [
                command_wire(insert_command(relation, row))
                for row in sorted(want - have, key=repr)
            ]
            if repairs:
                to_target({"op": "batch", "commands": repairs})

    def _least_loaded_worker(self, exclude: Sequence[int] = ()) -> int:
        """Load-aware placement (lock held): the alive worker serving
        the fewest views, ties broken by the lowest index — an empty
        cluster fills 0, 1, 2, … round-robin, and a cluster skewed by
        drops, crashes or migrations levels out."""
        counts = {
            worker: 0
            for worker in range(len(self._conns))
            if worker not in self._dead and worker not in exclude
        }
        if not counts:
            raise ClusterError("every shard worker is dead")
        for view in self._views.values():
            if view.worker in counts:
                counts[view.worker] += 1
        return min(counts, key=lambda worker: (counts[worker], worker))

    def drop_view(self, name: str) -> None:
        worker = self._worker_of_view(name)
        self._request(worker, {"op": "drop_view", "name": name})
        with self._lock:
            self._views.pop(name, None)
            self._rebuild_routing_locked()
            for handle, (_w, _remote, view, _inc) in list(self._cursors.items()):
                if view == name:
                    self._cursors.pop(handle, None)
            for handle, entry in list(self._subs.items()):
                if entry.view == name:
                    self._subs.pop(handle, None)
                    self._by_remote.pop((entry.worker, entry.remote), None)
                    entry.local.close()

    def _rebuild_routing_locked(self) -> None:
        """Re-derive relation→workers from the view table (caller
        holds the lock)."""
        fresh: Dict[str, Set[int]] = {}
        for view in self._views.values():
            for relation in view.relations:
                fresh.setdefault(relation, set()).add(view.worker)
        self._routing = {
            relation: tuple(sorted(owners))
            for relation, owners in fresh.items()
        }

    # -- live view migration ---------------------------------------------------

    def migrate_view(self, name: str, target: Optional[int] = None) -> int:
        """Move a live view to another worker without losing a write.

        The write gate's exclusive side drains in-flight writers (each
        update/chunk/batch holds the shared side), then: the view's
        subscriptions are barrier-drained, the view's record is
        re-registered on the target (stored query text, **pinned**
        engine, access patterns), the target's relation rows
        are reconciled against the source's, the subscriptions re-home
        onto the target (their local outboxes — including undelivered
        deltas — survive; delivery counters restart with the fresh
        worker-side subscription), the record's worker flips — and the
        routing table with it, atomically (the routing version bumps so
        stream-level caches re-route) — and finally the view drops from
        the source.  Open cursors on the migrated view are invalidated
        — they page worker-side state that does not move — and report
        :class:`~repro.errors.CursorInvalidatedError` on the next
        fetch.

        ``target`` defaults to the least-loaded other alive worker.
        Returns the target worker index (== source when there is
        nowhere better to go).
        """
        with self._lock:
            record = self._views.get(name)
            if record is None:
                raise EngineStateError(f"no view named {name!r}")
            source = record.worker
            if target is None:
                target = self._least_loaded_worker(exclude=(source,))
            if target == source:
                return target
            if not 0 <= target < len(self._conns):
                raise ClusterError(
                    f"no worker {target} in a {len(self._conns)}-worker "
                    "cluster"
                )
            if target in self._dead:
                raise self._crashed(
                    target, f"cannot migrate view {name!r} to a dead worker"
                )
            # Stale-incarnation entries died with a previous worker
            # incarnation: there is nothing to drain or re-home on the
            # respawned process, and resurrecting them would hide the
            # delta gap — leave them to report WorkerRecoveredError.
            subs = [
                (handle, entry)
                for handle, entry in self._subs.items()
                if entry.view == name
                and entry.inc == self._incarnation[entry.worker]
            ]
        context = f"migrating view {name!r} to worker {target}"
        with self._write_gate.write_locked():
            # 1. Barrier-drain the view's subscriptions: every delta the
            #    source delivered must land locally before the
            #    worker-side subscription dies with the drop below.
            for handle, entry in subs:
                self._await_delivered(
                    entry, f"{context}: draining subscription {handle}"
                )
            # 2. Re-register the record on the target and reconcile the
            #    target's relation state against the source's.
            self._request(target, record.registration(), context=context)
            self._reconcile(target, record.relations, source, context)
            # 3. Re-home the subscriptions onto the target.  No write
            #    can interleave (the gate is held), so no delta is lost
            #    between the old subscription and the new one.
            for handle, entry in subs:
                resubscribe: Dict[str, object] = {
                    "op": "subscribe",
                    "view": name,
                    "client": self.client_id,
                }
                if entry.binding:
                    resubscribe["binding"] = entry.binding
                reply = self._request(target, resubscribe, context=context)
                with self._cond:
                    self._by_remote.pop((entry.worker, entry.remote), None)
                    self._closed_remotes.add((entry.worker, entry.remote))
                    entry.worker = target
                    entry.remote = int(reply["subscription"])  # type: ignore[arg-type]
                    entry.received = 0
                    entry.inc = self._incarnation[target]
                    self._by_remote[(target, entry.remote)] = handle
                    self._cond.notify_all()
            # 4. Flip the routing atomically; invalidate the view's
            #    cursors (worker-side paging state does not move).
            with self._lock:
                record.worker = target
                self._rebuild_routing_locked()
                self._routing_version += 1
                for handle, (
                    _w,
                    _remote,
                    view,
                    _inc,
                ) in list(self._cursors.items()):
                    if view == name:
                        self._cursors.pop(handle, None)
                        self._cursor_tombstones[handle] = (
                            CursorInvalidatedError(
                                f"cursor {handle} on view {name!r} was "
                                f"invalidated: the view migrated from "
                                f"worker {source} to worker {target} — "
                                "reopen it"
                            )
                        )
            # 5. Drop from the source — best-effort: if the source dies
            #    right here, the record already says the view lives on
            #    the target, so a recovery will not resurrect it.
            try:
                self._request(source, {"op": "drop_view", "name": name})
            except (WorkerCrashedError, ReproError):
                pass
        return target

    # -- updates ---------------------------------------------------------------

    def insert(self, relation: str, row: Sequence[Constant]) -> bool:
        return self.apply(insert_command(relation, row))

    def delete(self, relation: str, row: Sequence[Constant]) -> bool:
        return self.apply(delete_command(relation, row))

    def _route(self, relation: str) -> Tuple[int, ...]:
        """The workers whose views mention ``relation``, ascending
        (lock held) — or the session's error for an unserved one."""
        workers = self._routing.get(relation)
        if workers is None:
            known = ", ".join(sorted(self._routing)) or "(none)"
            raise SchemaError(
                f"no registered view uses relation {relation!r}; "
                f"known relations: {known}"
            )
        return workers

    def apply(self, command: UpdateCommand) -> bool:
        """Fan one update out to the workers whose views mention the
        relation (ascending worker order), mirroring the sharded
        Server's routing."""
        with self._write_gate.read_locked():
            with self._lock:
                workers = self._route(command.relation)
            # Journal FIRST: if a worker applies the command and dies
            # before a journal-after-success record could land, the
            # recovery replay would silently drop the row.  Journal-
            # first plus the supervised retry is at-least-once, which
            # set semantics make exactly-once.  The journal's fold
            # verdict is then the authoritative ``changed`` flag: a
            # retried command whose first attempt already landed on a
            # worker (and got backfilled into its replacement) reports
            # what the *stream* did, not what the retry saw.
            effective: Optional[bool] = None
            if self._journal is not None:
                effective = self._journal.record(command)
            message = {
                "op": command.op,
                "relation": command.relation,
                "row": command.row,
            }
            changed: Optional[bool] = None
            # One trace for the whole fan-out: each worker's RPC is a
            # sibling span under the same trace id.
            trace = new_trace_id() if self.spans.enabled else None
            for worker in workers:
                reply = self._request(worker, dict(message), trace_id=trace)
                if changed is None:
                    changed = bool(reply["changed"])
                elif changed != bool(reply["changed"]) and effective is None:
                    # Unjournaled clients have no recovery retries, so a
                    # disagreement is real replica divergence.  (Under a
                    # journal a retry after mid-fan-out recovery makes
                    # replicas *legitimately* disagree with each other.)
                    raise ClusterError(
                        f"workers disagree on the effect of {command} — "
                        "replicated relation state diverged"
                    )
            return bool(changed) if effective is None else effective

    def apply_stream(
        self, commands: Iterable[UpdateCommand], chunk: int = 256
    ) -> int:
        """Apply an update stream with chunked wire framing.

        To every subscriber, cursor and bound reader it is
        ``for c in commands: self.apply(c)`` — each effective command
        reaches the watched views of its relation in stream order, with
        its own delta and epoch, on every worker that holds one — but
        commands ride the wire in chunks of up to ``chunk``, so the
        round trip (the dominant cost of socket-remote single-tuple
        updates) is paid per chunk instead of per command, and a
        worker's views nobody watches take the chunk's net effect once
        (:meth:`repro.api.session.Session.apply_all`).  Each chunk routes and
        applies under the write gate's shared side, so a live
        :meth:`migrate_view` drains at a chunk boundary and the tail of
        the stream re-routes to the view's new worker.  Not
        transactional (use :meth:`batch` for all-or-nothing): an error
        mid-stream leaves each worker's already-applied prefix in
        place, and the chunk's other workers are still flushed
        best-effort before the error surfaces, so replicas of a shared
        relation converge instead of silently diverging.  Returns the
        number of effective commands, counted at each command's primary
        (lowest-id) worker.
        """
        if chunk < 1:
            raise EngineStateError(f"chunk must be >= 1, got {chunk}")
        pending: List[UpdateCommand] = []
        changed = 0
        for command in commands:
            pending.append(command)
            if len(pending) >= chunk:
                changed += self._flush_chunk(pending)
                pending = []
        if pending:
            changed += self._flush_chunk(pending)
        return changed

    def _flush_chunk(self, chunk_commands: List[UpdateCommand]) -> int:
        """Route and apply one stream chunk under the write gate."""
        with self._write_gate.read_locked():
            with self._lock:
                routing: Dict[str, Tuple[int, ...]] = {}
                for command in chunk_commands:
                    if command.relation not in routing:
                        routing[command.relation] = self._route(
                            command.relation
                        )
            groups: Dict[int, List[Tuple[object, ...]]] = {}
            primaries: Dict[int, List[bool]] = {}
            for command in chunk_commands:
                wire = command_wire(command)
                for index, worker in enumerate(routing[command.relation]):
                    groups.setdefault(worker, []).append(wire)
                    primaries.setdefault(worker, []).append(index == 0)
            # Journal before the wire (see apply()): a worker killed
            # between applying the chunk and the journal record would
            # otherwise lose the chunk on recovery replay.  As in
            # apply(), the journal's fold verdicts are the changed
            # count for journaled clients — immune to recovery
            # retries double-counting or zeroing a chunk.
            journaled: Optional[int] = None
            if self._journal is not None:
                journaled = sum(self._journal.record_many(chunk_commands))
            changed = 0
            failure: Optional[ReproError] = None
            for worker in sorted(groups):
                try:
                    reply = self._request(
                        worker, {"op": "apply_many", "commands": groups[worker]}
                    )
                except ReproError as error:
                    # Keep flushing the chunk's other workers so
                    # replicas of a shared relation stop at the same
                    # point (convergence), then surface the first error.
                    if failure is None:
                        failure = error
                    continue
                changed += sum(
                    1
                    for effective, primary in zip(
                        reply["results"], primaries[worker]  # type: ignore[arg-type]
                    )
                    if effective and primary
                )
            if failure is not None:
                raise failure
            return changed if journaled is None else journaled

    def batch(self, commands: Iterable[UpdateCommand]) -> Dict[str, int]:
        """A transactional batch across however many shards it touches.

        One worker: that worker's local (compressed, atomic) batch.
        Several: two-phase — every worker stages and validates its
        sub-batch under its exclusive lock, then all commit; any
        prepare failure (including a crashed worker) aborts the staged
        survivors, so the cluster observes all-or-nothing.

        The returned stats sum the per-worker sub-batches: a command on
        a relation served by W workers is buffered/applied on each, so
        it counts W times — per-worker work done, not logical commands
        (disjoint-view batches, the common case, match the in-process
        numbers exactly).
        """
        commands = list(commands)
        if not commands:
            return {"buffered": 0, "net": 0, "applied": 0}
        with self._write_gate.read_locked():
            if self._journal is not None:
                # Journal-first, like apply(): at-least-once plus set
                # semantics beats silently losing a committed batch to
                # a crash in the record window.
                self._journal.record_many(commands)
            return self._batch_routed(commands)

    def _batch_routed(self, commands: List[UpdateCommand]) -> Dict[str, int]:
        groups: Dict[int, List[Tuple[object, ...]]] = {}
        for command in commands:
            with self._lock:
                workers = self._route(command.relation)
            for worker in workers:
                groups.setdefault(worker, []).append(command_wire(command))
        order = sorted(groups)
        if len(order) == 1:
            worker = order[0]
            reply = self._request(
                worker, {"op": "batch", "commands": groups[worker]}
            )
            return dict(reply["stats"])  # type: ignore[arg-type]
        txn = f"{self.client_id}:{next(self._txn_ids)}"
        # All 2PC legs — every prepare, the liveness pings, every
        # commit, any abort — share one trace; each leg is its own span.
        trace = new_trace_id() if self.spans.enabled else None
        prepared: List[int] = []
        try:
            for worker in order:
                self._request(
                    worker,
                    {"op": "batch_prepare", "txn": txn, "commands": groups[worker]},
                    context=f"preparing batch {txn}",
                    trace_id=trace,
                )
                prepared.append(worker)
            if self._test_pause_after_prepare is not None:
                self._test_pause_after_prepare(self)
        except BaseException as error:
            self._abort_batch(txn, prepared, trace_id=trace)
            if isinstance(error, WorkerCrashedError):
                raise WorkerCrashedError(
                    f"batch {txn} rolled back: {error}",
                    worker=error.worker,
                    views=error.views,
                ) from error
            raise
        # Liveness sweep between prepare and commit: a participant that
        # died after voting yes (kill -9 mid-prepare) is caught here,
        # while a full rollback is still possible — shrinking the
        # partial-commit window to a crash inside the commit phase
        # itself (which the error below then reports precisely).
        for worker in order:
            try:
                self._request(
                    worker,
                    {"op": "ping"},
                    context=f"batch {txn}",
                    trace_id=trace,
                )
            except WorkerCrashedError as error:
                self._abort_batch(
                    txn, [w for w in order if w != worker], trace_id=trace
                )
                raise WorkerCrashedError(
                    f"batch {txn} rolled back: {error}",
                    worker=error.worker,
                    views=error.views,
                ) from error
        committed: List[int] = []
        merged = {"buffered": 0, "net": 0, "applied": 0}
        for worker in order:
            try:
                reply = self._request(
                    worker,
                    {"op": "batch_commit", "txn": txn},
                    context=f"committing batch {txn}",
                    trace_id=trace,
                )
            except EngineStateError as error:
                # Under supervision a participant can crash after
                # voting yes and be *recovered* before we commit — the
                # fresh worker has no staged transaction.  Roll back
                # the survivors; report a partial commit if some
                # already applied (the classic 2PC window, now named).
                self._abort_batch(
                    txn,
                    [w for w in order if w not in committed and w != worker],
                    trace_id=trace,
                )
                if not committed:
                    raise ClusterError(
                        f"batch {txn} rolled back: worker {worker} lost "
                        f"its staged transaction (recovered "
                        f"mid-transaction): {error}"
                    ) from error
                raise ClusterError(
                    f"batch {txn} partially committed on workers "
                    f"{committed} before worker {worker} lost its "
                    f"staged transaction (recovered mid-transaction): "
                    f"{error}"
                ) from error
            except WorkerCrashedError as error:
                remaining = [
                    w for w in order if w not in committed and w != worker
                ]
                self._abort_batch(txn, remaining, trace_id=trace)
                if not committed:
                    raise WorkerCrashedError(
                        f"batch {txn} rolled back: {error}",
                        worker=error.worker,
                        views=error.views,
                    ) from error
                raise ClusterError(
                    f"batch {txn} partially committed on workers "
                    f"{committed} before worker {worker} crashed: {error}"
                ) from error
            committed.append(worker)
            stats = reply["stats"]
            for key in merged:
                merged[key] += int(stats.get(key, 0))  # type: ignore[union-attr]
        return merged

    def _abort_batch(
        self,
        txn: str,
        workers: Sequence[int],
        trace_id: Optional[str] = None,
    ) -> None:
        for worker in workers:
            try:
                self._request(
                    worker,
                    {"op": "batch_abort", "txn": txn},
                    trace_id=trace_id,
                )
            except (WorkerCrashedError, ReproError):
                pass  # the worker died with its stage; nothing applied

    # -- cursors ---------------------------------------------------------------

    def open_cursor(
        self,
        view: str,
        binding: Optional[Dict[str, Constant]] = None,
        snapshot: bool = False,
        **variables,
    ) -> int:
        """Open a cursor on the view's worker.  Output variables bind
        as keywords (``open_cursor("V", u=3)``) or via ``binding=`` —
        the merged binding rides the op and is validated (with
        did-you-mean errors) by the owning worker."""
        worker = self._worker_of_view(view)
        merged = normalize_binding(
            binding,
            variables,
            context=f"open_cursor() on view {view!r}",
            parameters=("binding", "snapshot"),
        )
        reply = self._request(
            worker,
            {
                "op": "open_cursor",
                "view": view,
                "binding": merged,
                "snapshot": bool(snapshot),
            },
        )
        with self._lock:
            handle = next(self._ids)
            # Stamp the worker incarnation the remote handle lives on;
            # a later mismatch (supervisor recovery) turns fetches into
            # a precise WorkerRecoveredError instead of a dangling
            # unknown-handle failure on the fresh worker.
            self._cursors[handle] = (
                worker,
                int(reply["cursor"]),  # type: ignore[arg-type]
                view,
                self._incarnation[worker],
            )
        return handle

    def fetch(self, cursor: int, n: int) -> List[Row]:
        with self._lock:
            tombstone = self._cursor_tombstones.get(cursor)
            entry = self._cursors.get(cursor)
        if tombstone is not None:
            raise tombstone
        if entry is None:
            raise EngineStateError(f"unknown cursor handle {cursor}")
        worker, remote, view, inc = entry
        self._check_incarnation(
            worker, inc, f"cursor {cursor} on view {view!r}"
        )
        reply = self._request(
            worker,
            {"op": "fetch", "cursor": remote, "n": int(n)},
            context=f"cursor {cursor} on view {view!r} is lost — reopen "
            "once the shard is restarted",
        )
        return reply["rows"]  # type: ignore[return-value]

    def _stale_locked(self, worker: int, inc: int) -> bool:
        """Whether a handle opened against incarnation ``inc`` of
        ``worker`` has lost its remote half — the worker is dead or was
        recovered since (caller holds the lock)."""
        return worker in self._dead or inc != self._incarnation[worker]

    def close_cursor(self, cursor: int) -> None:
        with self._lock:
            self._cursor_tombstones.pop(cursor, None)
            entry = self._cursors.pop(cursor, None)
            if entry is not None:
                worker, remote, _view, inc = entry
                stale = self._stale_locked(worker, inc)
        if entry is None or stale:
            return  # unknown, or the remote handle died with its incarnation
        try:
            self._request(worker, {"op": "close_cursor", "cursor": remote})
        except WorkerCrashedError:
            pass  # the cursor died with its worker

    # -- subscriptions ---------------------------------------------------------

    def subscribe(
        self,
        view: str,
        callback: Optional[Callable[[Delta], None]] = None,
        max_pending: Optional[int] = None,
        binding: Optional[Dict[str, Constant]] = None,
        **variables,
    ) -> int:
        """Subscribe to a view's deltas, streamed over the push channel.

        ``callback`` runs client-side — on the push reader thread, or
        on the client's dispatch pool when ``dispatch_workers`` > 0.
        Binding output variables (``subscribe("V", u=3)`` or
        ``binding=``) makes it a parameterized subscription: the owning
        worker fans out only that binding's O(δ)-restricted deltas
        (each carrying ``delta.binding``), and migration/recovery
        re-subscribe with the same binding.

        A delta too large for one push frame cannot be delivered: the
        subscription's state (:meth:`subscription_state`) counts it in
        ``dropped`` and keeps the
        :class:`~repro.errors.FrameTooLargeError` as
        ``delivery_error``, and every later :meth:`poll` raises it —
        a callback-only consumer checks the state to see the gap.
        """
        worker = self._worker_of_view(view)
        merged = normalize_binding(
            binding,
            variables,
            context=f"subscribe() on view {view!r}",
            parameters=("callback", "max_pending", "binding"),
        )
        request: Dict[str, object] = {
            "op": "subscribe",
            "view": view,
            "client": self.client_id,
        }
        if merged:
            request["binding"] = merged
        reply = self._request(worker, request)
        remote = int(reply["subscription"])  # type: ignore[arg-type]
        lazy = (
            callback is None and self._pool is None and max_pending is None
        )
        local = Subscription(
            _StubView(view),
            callback=callback,
            max_pending=max_pending,
            dispatcher=self._pool,
            binding=merged,
        )
        with self._cond:
            handle = next(self._ids)
            entry = _SubEntry(
                worker, remote, view, local, lazy,
                inc=self._incarnation[worker],
                binding=merged,
            )
            self._subs[handle] = entry
            self._by_remote[(worker, remote)] = handle
            # Payloads that raced this registration parked in the
            # orphan buffer; drain them first so FIFO order survives.
            for item in self._orphan_deltas.pop((worker, remote), []):
                self._accept_locked(entry, item)
            self._cond.notify_all()
        return handle

    def subscription_state(self, subscription: int) -> Subscription:
        """The client-side outbox behind a handle (introspection)."""
        with self._lock:
            try:
                return self._subs[subscription].local
            except KeyError:
                raise EngineStateError(
                    f"unknown subscription handle {subscription}"
                ) from None

    def _await_delivered(self, entry: _SubEntry, context: str) -> None:
        """The push barrier: ask the worker how many deltas it
        delivered for the subscription (worker delivery is synchronous,
        so the count covers every write that returned), then wait —
        bounded — until that many landed locally or the worker died."""
        delivered = int(
            self._request(
                entry.worker,
                {"op": "push_sync", "subscription": entry.remote},
                context=context,
            )["delivered"]  # type: ignore[arg-type]
        )
        deadline = time.monotonic() + _POLL_TIMEOUT
        with self._cond:
            while (
                entry.received < delivered
                and entry.worker not in self._dead
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"push barrier timed out ({context}): received "
                        f"{entry.received} of {delivered} deltas within "
                        f"{_POLL_TIMEOUT}s"
                    )
                self._cond.wait(timeout=remaining)

    def poll(
        self, subscription: int, max_items: Optional[int] = None
    ) -> List[Delta]:
        """Drain a subscription's outbox, observing every write that
        returned before the call (the two-stage barrier: worker
        delivered-count, then local arrival)."""
        with self._lock:
            entry = self._subs.get(subscription)
        if entry is None:
            raise EngineStateError(
                f"unknown subscription handle {subscription}"
            )
        self._check_incarnation(
            entry.worker,
            entry.inc,
            f"subscription {subscription} on view {entry.view!r}",
        )
        with entry.poll_lock:
            self._await_delivered(
                entry,
                f"subscription {subscription} on view {entry.view!r}",
            )
            with self._cond:
                raw, entry.raw = entry.raw, []
            # Lazy path: decode the arrived payloads now, on the
            # consumer's clock, and hand them to the local outbox.
            for item in raw:
                entry.local._deliver_now(self._decode_delta(item))
        if entry.local.delivery_error is not None:
            raise entry.local.delivery_error
        return entry.local.poll(max_items)

    def unsubscribe(self, subscription: int) -> None:
        with self._lock:
            entry = self._subs.pop(subscription, None)
            stale = False
            if entry is not None:
                self._by_remote.pop((entry.worker, entry.remote), None)
                self._closed_remotes.add((entry.worker, entry.remote))
                self._orphan_deltas.pop((entry.worker, entry.remote), None)
                stale = self._stale_locked(entry.worker, entry.inc)
        if entry is None:
            return
        entry.local.close()
        if stale:
            return  # the remote subscription died with its incarnation
        try:
            self._request(
                entry.worker, {"op": "unsubscribe", "subscription": entry.remote}
            )
        except WorkerCrashedError:
            pass

    # -- reads -----------------------------------------------------------------

    def count(self, view: str) -> int:
        worker = self._worker_of_view(view)
        reply = self._request(worker, {"op": "count", "view": view})
        return int(reply["count"])  # type: ignore[arg-type]

    def answer(self, view: str) -> bool:
        worker = self._worker_of_view(view)
        return bool(self._request(worker, {"op": "answer", "view": view})["answer"])

    def contains(self, view: str, row: Sequence[Constant]) -> bool:
        worker = self._worker_of_view(view)
        reply = self._request(
            worker, {"op": "contains", "view": view, "row": list(row)}
        )
        return bool(reply["contains"])

    def result_set(self, view: str) -> Set[Row]:
        worker = self._worker_of_view(view)
        reply = self._request(worker, {"op": "result_set", "view": view})
        return set(reply["rows"])  # type: ignore[call-overload]

    def result_digest(self, view: str) -> str:
        """The view's order-independent result fingerprint (cheap
        cross-process equality probe — compare against an in-process
        engine's :meth:`~repro.interface.DynamicEngine.result_digest`)."""
        worker = self._worker_of_view(view)
        return str(self._request(worker, {"op": "digest", "view": view})["digest"])

    def explain(self, view: str) -> str:
        worker = self._worker_of_view(view)
        return str(self._request(worker, {"op": "explain", "view": view})["explain"])

    def _ask_all(self, op: str) -> Dict[int, Optional[Dict[str, Any]]]:
        """One argument-less ``op`` to every worker: worker → reply,
        ``None`` for a worker that is dead, dies mid-sweep or misses
        its deadline — a sweep reports the cluster as it is instead of
        failing on its weakest member."""
        replies: Dict[int, Optional[Dict[str, Any]]] = {}
        for worker in range(len(self._conns)):
            replies[worker] = None
            with self._lock:
                if worker in self._dead:
                    continue
            try:
                replies[worker] = self._request(worker, {"op": op})
            except (WorkerCrashedError, DeadlineExceededError):
                pass
        return replies

    def epochs(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for reply in self._ask_all("epochs").values():
            if reply is not None:
                merged.update(reply["epochs"])
        return merged

    # -- snapshot-consistent cross-shard reads ---------------------------------

    def _snapshot_read_worker(
        self, worker: int, names: Sequence[str]
    ) -> Tuple[Dict[str, Tuple[Tuple[Row, ...], int]], int]:
        """One worker's internally consistent read of its pinned views
        (rows + epoch per view, all under the worker's all-shard read
        lock) plus the worker incarnation captured *before* the read —
        the low-water mark the validation probe compares against."""
        with self._lock:
            inc_before = self._incarnation[worker]
        reply = self._request(
            worker,
            {"op": "snapshot_read", "views": list(names)},
            context="snapshot read",
        )
        payload = reply["views"]
        data: Dict[str, Tuple[Tuple[Row, ...], int]] = {}
        for name in names:
            entry = payload[name]  # type: ignore[index]
            data[name] = (
                tuple(entry["rows"]),
                int(entry["epoch"]),
            )
        return data, inc_before

    def _snapshot_probe(
        self,
        reads: Dict[int, Tuple[Dict[str, Tuple[Tuple[Row, ...], int]], int]],
    ) -> Tuple[List[int], Dict[str, int], Dict[str, int]]:
        """The double-collect validation round: re-probe every involved
        worker's epochs (and incarnation) *after* all reads completed.
        Returns the stale workers plus expected/observed epoch maps.

        A worker is **stale** when any pinned view's epoch moved, or
        the worker was recovered (incarnation bump) since its read —
        recovery replays the journal, so even an epoch that happens to
        match again must be re-read rather than trusted.
        """
        stale: List[int] = []
        expected: Dict[str, int] = {}
        observed: Dict[str, int] = {}
        for worker in sorted(reads):
            data, inc_before = reads[worker]
            reply = self._request(
                worker, {"op": "epochs"}, context="snapshot probe"
            )
            epochs_now: Dict[str, int] = dict(reply["epochs"])  # type: ignore[arg-type]
            with self._lock:
                inc_after = self._incarnation[worker]
            moved = inc_after != inc_before
            for name, (_rows, epoch) in data.items():
                expected[name] = epoch
                now = int(epochs_now.get(name, -1))
                observed[name] = now
                if now != epoch:
                    moved = True
            if moved:
                stale.append(worker)
        return stale, expected, observed

    def snapshot(
        self,
        views: Optional[Sequence[str]] = None,
        max_pins: int = 8,
    ) -> Snapshot:
        """Pin a mutually consistent cut across shards and return the
        materialised :class:`~repro.serve.snapshot.Snapshot`.

        The protocol is a double-collect: (1) each involved worker
        serves all its views under one read-all lock, tagging every
        view with its epoch; (2) once *all* reads completed, every
        worker's epochs are probed again.  Unchanged epochs (and
        incarnations) mean all per-worker states coexisted at one
        instant — a consistent cut.  A worker whose epoch moved is
        re-read with jittered exponential backoff up to the client's
        ``retry_budget``; if the cut still will not settle, the whole
        snapshot is re-pinned from scratch, up to ``max_pins`` times.
        Results are **never silently mixed** across epochs.

        The optimistic protocol can livelock under a writer that never
        pauses, so the *final* pin attempt escalates: it runs under the
        client's exclusive write gate, holding this client's own
        writers at the fan-out boundary for one cut.  Only writes from
        *other* clients (or a concurrent migration) can invalidate the
        escalated attempt and raise
        :class:`~repro.errors.SnapshotInvalidatedError`.

        Failover: a mid-snapshot ``kill -9`` under supervision stalls
        the read until the journal replay completes and the fresh
        incarnation is re-read — the cut then reflects the replayed
        state.  Without a supervisor (or when recovery fails), the
        snapshot raises :class:`~repro.errors.SnapshotInvalidatedError`
        naming the worker and the epochs it was pinned at.
        """
        with self._lock:
            names = sorted(self._views) if views is None else list(views)
            by_worker: Dict[int, List[str]] = {}
            for name in names:
                record = self._views.get(name)
                if record is None:
                    raise EngineStateError(f"no view named {name!r}")
                by_worker.setdefault(record.worker, []).append(name)
        if not names:
            return Snapshot({}, {}, pin_attempts=0)
        rereads = 0
        expected: Dict[str, int] = {}
        observed: Dict[str, int] = {}

        def pin_once(attempt: int) -> Optional[Snapshot]:
            nonlocal rereads, expected, observed
            reads: Dict[
                int, Tuple[Dict[str, Tuple[Tuple[Row, ...], int]], int]
            ] = {}
            for worker in sorted(by_worker):
                reads[worker] = self._snapshot_read_worker(
                    worker, by_worker[worker]
                )
            for probe_round in range(self._retry_budget + 1):
                stale, expected, observed = self._snapshot_probe(reads)
                if not stale:
                    rows: Dict[str, Tuple[Row, ...]] = {}
                    epochs: Dict[str, int] = {}
                    workers: Dict[str, int] = {}
                    for worker, (data, _inc) in reads.items():
                        for name, (view_rows, epoch) in data.items():
                            rows[name] = view_rows
                            epochs[name] = epoch
                            workers[name] = worker
                    return Snapshot(
                        rows,
                        epochs,
                        workers=workers,
                        pin_attempts=attempt,
                        rereads=rereads,
                    )
                if probe_round == self._retry_budget:
                    return None  # out of re-reads: re-pin from scratch
                time.sleep(self._backoff_delay(probe_round + 1))
                for worker in stale:
                    rereads += 1
                    reads[worker] = self._snapshot_read_worker(
                        worker, by_worker[worker]
                    )
            return None

        for attempt in range(1, max_pins + 1):
            try:
                if attempt == max_pins:
                    # Last chance: hold this client's writers at the
                    # fan-out gate so the optimistic protocol cannot be
                    # livelocked by our own write stream.
                    with self._write_gate.write_locked():
                        snap = pin_once(attempt)
                else:
                    snap = pin_once(attempt)
                if snap is not None:
                    return snap
            except WorkerCrashedError as crash:
                raise SnapshotInvalidatedError(
                    f"snapshot over {', '.join(names)} lost shard worker "
                    f"{crash.worker} mid-cut and no recovery completed: "
                    f"{crash}",
                    worker=crash.worker,
                    expected_epochs=expected,
                    observed_epochs=observed,
                    attempts=attempt,
                ) from crash
        raise SnapshotInvalidatedError(
            f"could not pin a consistent cut over {', '.join(names)} in "
            f"{max_pins} attempt(s) ({rereads} re-read(s)): concurrent "
            "writers kept moving epochs "
            f"{ {k: v for k, v in observed.items() if expected.get(k) != v} }",
            worker=-1,
            expected_epochs=expected,
            observed_epochs=observed,
            attempts=max_pins,
        )

    def stats(self) -> Dict[str, object]:
        """Cluster-wide structural + traffic summary.

        The merged ``reads``/``writes`` totals are **crash-consistent**:
        they sum the live workers' counters, the retired totals of
        recovered incarnations, and the last-known figures of workers
        that are currently dead (cached from heartbeat pings and prior
        scrapes) — so a kill -9 never makes the cluster's cumulative
        traffic appear to shrink.
        """
        per_worker: Dict[int, object] = {
            worker: None if reply is None else reply["stats"]
            for worker, reply in self._ask_all("stats").items()
        }
        live = [stats for stats in per_worker.values() if isinstance(stats, dict)]
        reads = sum(int(stats.get("reads", 0)) for stats in live)
        writes = sum(int(stats.get("writes", 0)) for stats in live)
        with self._lock:
            # Cache the live figures for a future crash...
            for worker, stats in per_worker.items():
                if isinstance(stats, dict):
                    self._last_stats[worker] = {
                        "reads": int(stats.get("reads", 0)),
                        "writes": int(stats.get("writes", 0)),
                    }
            # ...and fold the dead: retired incarnations plus the
            # last-known counters of currently-dead workers.
            reads += self._retired_stats["reads"]
            writes += self._retired_stats["writes"]
            for worker in self._dead:
                cached = self._last_stats.get(worker)
                if cached is not None:
                    reads += cached["reads"]
                    writes += cached["writes"]
            views = list(self._views.values())
        report: Dict[str, object] = {
            "workers": len(self._conns),
            "dead_workers": list(self.dead_workers),
            "views": {view.name: view.engine_name for view in views},
            "view_worker": {view.name: view.worker for view in views},
            "reads": reads,
            "writes": writes,
            "open_cursors": len(self._cursors),
            "subscriptions": len(self._subs),
            "per_worker": per_worker,
            "routing_version": self._routing_version,
            "cluster": self.cluster_stats(),
        }
        if self._pool is not None:
            report["dispatch"] = self._pool.stats()
        return report

    def metrics(self) -> Dict[str, object]:
        """The cluster-wide observability dump.

        Scrapes every live worker's ``metrics`` op and merges the
        registry snapshots with this client's own (fixed histogram
        buckets merge elementwise, counters and gauges add — see
        :func:`repro.obs.registry.merge_snapshots`).  Like the journal
        makes updates survive a respawn, the merge is **monotone across
        crashes**: a recovered worker's dead incarnation contributes
        its last scraped snapshot (retired at recovery), and a
        currently-dead worker contributes its last-known snapshot — so
        cumulative series never move backwards.

        Returns ``{"merged": <snapshot>, "client": <snapshot>,
        "per_worker": {index: {...} | None}, "spans": [...],
        "slow": [...], "drift": [...], "retired_snapshots": int}``.
        """
        per_worker: Dict[int, Optional[Dict[str, object]]] = {}
        for worker, reply in self._ask_all("metrics").items():
            if reply is None:
                per_worker[worker] = None
                continue
            snap = reply.get("metrics")
            if isinstance(snap, dict):
                with self._lock:
                    self._last_metrics[worker] = snap
            per_worker[worker] = {
                "metrics": snap,
                "spans": reply.get("spans") or [],
                "slow": reply.get("slow") or [],
                "drift": reply.get("drift") or [],
            }
        client_snap = self.metrics_registry.snapshot()
        with self._lock:
            parts: List[Dict[str, object]] = [client_snap]
            parts.extend(self._retired_metrics)
            retired = len(self._retired_metrics)
            for worker in self._dead:
                cached = self._last_metrics.get(worker)
                if cached is not None:
                    parts.append(cached)
                    retired += 1
        drift: List[Dict[str, object]] = []
        for entry in per_worker.values():
            if entry is not None:
                parts.append(entry["metrics"])  # type: ignore[arg-type]
                drift.extend(entry["drift"])  # type: ignore[arg-type]
        return {
            "merged": merge_snapshots(
                part for part in parts if isinstance(part, dict)
            ),
            "client": client_snap,
            "per_worker": per_worker,
            "spans": self.spans.snapshot(),
            "slow": self.spans.slow_snapshot(),
            "drift": drift,
            "retired_snapshots": retired,
        }

    def cluster_stats(self) -> Dict[object, Optional[Dict[str, object]]]:
        """Per-worker operational load: pid, view count, row count,
        pending queue depth, restart count — the observability surface
        the supervisor's placement decisions (and :meth:`stats`) read.
        A dead worker reports ``None``.  The extra ``"supervisor"`` key
        carries the attached supervisor's effective knobs (heartbeat,
        ping timeout, restart backoff, max restarts) or ``None`` when
        the cluster runs unsupervised.

        This is the *cheap counts-only* sweep (one ``cluster_stats``
        RPC per worker, each served by the worker's allocation-light
        ``Server.load_stats``).  For latency distributions, span logs and
        guarantee-probe drift reports use :meth:`metrics`, which
        scrapes and merges the full per-process registries instead."""
        out: Dict[object, Optional[Dict[str, object]]] = {}
        for worker, reply in self._ask_all("cluster_stats").items():
            if reply is None:
                out[worker] = None
                continue
            info = dict(reply.get("load") or {})
            info["pid"] = reply.get("pid")
            with self._lock:
                info["restarts"] = (
                    self._cluster.restarts[worker]
                    if self._cluster is not None
                    and worker < len(self._cluster.restarts)
                    else self._incarnation[worker]
                )
                info["incarnation"] = self._incarnation[worker]
            out[worker] = info
        supervisor = self._supervisor
        out["supervisor"] = (
            supervisor.config()  # type: ignore[attr-defined]
            if supervisor is not None and hasattr(supervisor, "config")
            else None
        )
        return out

    def ping(self) -> Dict[int, Optional[int]]:
        """Liveness probe: worker index → pid (None when dead)."""
        return {
            worker: None if reply is None else int(reply["pid"])
            for worker, reply in self._ask_all("ping").items()
        }

    # -- session adoption (Session.serve backend="processes") ------------------

    def adopt_session(self, session: object) -> None:
        """Mirror an in-process session into the cluster: register its
        views (same engines) and bulk-load its rows, so the cluster
        serves the same results the session did.

        Rows of relations no longer mentioned by any live view (the
        session keeps them after ``drop_view``) are skipped — no
        cluster view could observe them, and the cluster's routing has
        nowhere to put them.
        """
        for view in session.views:  # type: ignore[attr-defined]
            patterns = [
                list(pattern.variables)
                for pattern in getattr(view, "access_patterns", ())
            ]
            self.view(
                view.name,
                query_to_text(view.query),
                engine=view.engine_name,
                access=patterns or None,
            )
        commands: List[UpdateCommand] = []
        for relation in session.relations:  # type: ignore[attr-defined]
            with self._lock:
                if relation not in self._routing:
                    continue  # orphaned by a drop_view; invisible here
            for row in sorted(session.rows(relation), key=repr):  # type: ignore[attr-defined]
                commands.append(insert_command(relation, row))
        if commands:
            self.batch(commands)

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every delta of every live subscription has landed
        in its local outbox (and the dispatch pool has settled)."""
        with self._lock:
            entries = list(self._subs.items())
        for handle, entry in entries:
            with self._lock:
                if self._stale_locked(entry.worker, entry.inc):
                    continue  # no more deltas will come
            self._await_delivered(
                entry, f"subscription {handle} on view {entry.view!r}"
            )
        if self._pool is not None:
            self._pool.drain()

    def close(self) -> None:
        """Close every connection (idempotent); with ``owns_cluster``,
        terminate the worker processes too."""
        if self._closed:
            return
        self._closed = True
        supervisor = self._supervisor
        if supervisor is not None:
            self._supervisor = None
            stop = getattr(supervisor, "stop", None)
            if callable(stop):
                stop()
        if self._pool is not None:
            self._pool.close()
        for conn in self._conns + self._push_conns:
            conn.close()
        for thread in self._push_threads:
            thread.join(timeout=2.0)
        if self.owns_cluster and self._cluster is not None:
            self._cluster.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            dead = len(self._dead)
        return (
            f"ClusterClient(workers={len(self._conns)}, dead={dead}, "
            f"views={len(self._views)}, "
            f"cursors={len(self._cursors)}, "
            f"subscriptions={len(self._subs)})"
        )
