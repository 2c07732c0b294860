"""The live serving layer: cursors, delta subscriptions, dispatcher.

Built on the Theorem 3.2 guarantees the rest of the library maintains —
O(1) counting, constant-delay enumeration and constant-time updates —
this package turns a :class:`~repro.api.session.Session` into something
clients can hold open connections against:

* :mod:`repro.serve.cursors` — resumable, parameter-bindable
  enumeration handles with delta-aware revalidation, epoch-based
  invalidation reports and an optional snapshot mode;
* :mod:`repro.serve.subscriptions` — per-update O(δ) result deltas
  fanned out to callbacks and pollable outboxes;
* :mod:`repro.serve.dispatch` — the bounded worker pool that moves
  delta delivery out of the writer thread (per-subscription FIFO,
  back-pressure, drain barrier);
* :mod:`repro.serve.server` — a thread-safe sharded reader–writer
  dispatcher with an id-based request loop for multi-client traffic;
* :mod:`repro.serve.transport` — the length-prefixed frame protocol
  (JSON headers, rows as binary column blocks) the multiprocess
  deployment speaks;
* :mod:`repro.serve.cluster` — one worker **process** per shard behind
  that transport: :class:`ShardCluster` spawns and owns the workers,
  :class:`ClusterClient` speaks the same surface as :class:`Server`
  while writes burn real cores (the GIL stops at the process
  boundary), with two-phase cross-shard batches and push-streamed
  subscription deltas;
* :mod:`repro.serve.journal` — the net-effect command journal
  (:class:`CommandJournal`): the row mirror a recovery replays from
  (the views come from the client's own :class:`RemoteView` table);
* :mod:`repro.serve.supervisor` — :class:`Supervisor`: heartbeat
  health sweeps, automatic respawn-and-replay of crashed workers
  (``kill -9`` degrades to a bounded stall), load-aware placement
  with live view migration;
* :mod:`repro.serve.snapshot` — :class:`Snapshot`: the mutually
  consistent cross-shard cut ``ClusterClient.snapshot()`` pins with
  its epoch-validated double-collect protocol (and
  ``Server.snapshot()`` serves trivially under one read-all lock);
* :mod:`repro.serve.faults` — :class:`FaultPlan`: deterministic,
  seeded fault injection (drop/delay/duplicate/truncate frame N,
  freeze worker for T) wrapped around the client's worker channels.

Quickstart::

    from repro import Server

    server = Server(shards=4, dispatch_workers=2)
    server.view("feed", "Feed(u, p) :- Follows(u, f), Posted(f, p)")
    sub = server.subscribe("feed")
    cursor = server.open_cursor("feed", binding={"u": "ada"})

    server.insert("Follows", ("ada", "bob"))
    server.insert("Posted", ("bob", "p1"))

    print(server.poll(sub))          # the deltas, O(δ) each
    print(server.fetch(cursor, 10))  # the new row: both writes landed
                                     # after the cursor's frontier, so
                                     # it revalidated instead of dying
"""

from repro.serve.cluster import ClusterClient, RemoteView, ShardCluster
from repro.serve.cursors import Cursor, CursorInvalidation, bound_stream
from repro.serve.dispatch import DispatchPool
from repro.serve.faults import Fault, FaultPlan, FaultyConnection
from repro.serve.journal import CommandJournal
from repro.serve.server import RWLock, Server
from repro.serve.snapshot import Snapshot
from repro.serve.subscriptions import Delta, Subscription
from repro.serve.supervisor import Supervisor
from repro.serve.transport import (
    Connection,
    MuxConnection,
    get_codec,
)

__all__ = [
    "ClusterClient",
    "CommandJournal",
    "Connection",
    "Cursor",
    "CursorInvalidation",
    "bound_stream",
    "get_codec",
    "Delta",
    "DispatchPool",
    "Fault",
    "FaultPlan",
    "FaultyConnection",
    "MuxConnection",
    "RemoteView",
    "RWLock",
    "Server",
    "ShardCluster",
    "Snapshot",
    "Subscription",
    "Supervisor",
]
