"""Cluster supervision: detect dead shard workers and bring them back.

The multiprocess backend (:mod:`repro.serve.cluster`) is fast but
fragile: a ``kill -9`` of one worker process used to turn every handle
routed at it into a permanent
:class:`~repro.errors.WorkerCrashedError`.  The :class:`Supervisor`
closes that gap.  It owns the :class:`~repro.serve.cluster.ShardCluster`
lifecycle on behalf of one :class:`~repro.serve.cluster.ClusterClient`:

1. **Detection** — three independent signals, checked every heartbeat:
   the worker process exited (``WorkerHandle.alive()`` /
   ``exitcode``), the client marked the channel dead
   (:meth:`ClusterClient._mark_dead` calls :meth:`notify`, waking the
   sweep immediately), or a heartbeat ``ping`` timed out
   (:meth:`ClusterClient.probe_worker` — catches hung-but-alive
   workers).
2. **Respawn** — :meth:`ShardCluster.respawn_worker` starts a fresh
   process at the same index (new incarnation, new socket).
3. **Replay** — :meth:`ClusterClient._recover_worker` re-registers the
   worker's views from the client's own view table (the one
   :class:`~repro.serve.cluster.RemoteView` record per view: stored
   query text, pinned engine, access patterns — in
   registration order) and reconciles the worker's relations against
   the :class:`~repro.serve.journal.CommandJournal`'s net-effect row
   mirror, one bulk batch per relation.  Because the client journals
   **before** it dispatches and cluster updates are idempotent under
   set semantics, the at-least-once replay is exactly-once in effect:
   the recovered worker's state is byte-identical to what an
   uninterrupted run would hold.

While a recovery is in flight, supervised clients degrade to a
**bounded stall** instead of an error: writers and readers block in
:meth:`ClusterClient._await_alive` (up to 30 s) and retry on the fresh
channel.  Only per-handle state is lost — cursors
and subscriptions opened against the dead incarnation report a precise
:class:`~repro.errors.WorkerRecoveredError` (worker id, recovered
views, journal epoch) so callers re-open them, O(1) each by the
paper's guarantees.

A worker that keeps dying (``max_restarts`` recoveries) is declared
unrecoverable: blocked callers stop stalling and fail fast with the
accumulated reason.

The supervisor also does **load-aware placement**: :meth:`rebalance`
live-migrates views (:meth:`ClusterClient.migrate_view`) from the most
loaded worker to the least loaded until view counts are level — e.g.
after a string of recoveries or a burst of registrations skewed the
spread.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import ClusterError
from repro.serve.cluster import ClusterClient, ShardCluster, _env_float, _env_int
from repro.serve.journal import CommandJournal

__all__ = ["Supervisor"]


class Supervisor:
    """Watches a shard cluster's workers; respawns and replays the dead.

    Parameters
    ----------
    cluster:
        The :class:`ShardCluster` whose processes are supervised.  The
        supervisor must be the only party respawning its workers.
    client:
        The :class:`ClusterClient` to recover.  Attaching flips the
        client from fail-fast to bounded-stall on dead workers.
    journal:
        The :class:`CommandJournal` recoveries replay rows from.
        Defaults to the client's own journal; a client without one gets
        this journal attached so recording starts now (its views need
        no seeding — the client's view table already is the
        registration record).  Rows applied *before* supervision began
        are not retroactively journaled — start supervision before
        writing, as ``Session.serve(supervise=True)`` does.
    heartbeat:
        Seconds between health sweeps.  ``None`` reads the
        ``REPRO_SUP_HEARTBEAT`` environment variable (default 1.0).
    heartbeat_timeout:
        Per-probe reply timeout — a worker that is alive but silent for
        this long is treated as dead.  ``None`` reads
        ``REPRO_SUP_PING_TIMEOUT`` (default 5.0).
    max_restarts:
        Recoveries per worker before it is declared unrecoverable.
        ``None`` reads ``REPRO_SUP_MAX_RESTARTS`` (default 5).
    restart_backoff:
        Base delay before recovery attempt N of the *same* worker:
        attempt 1 is immediate, attempt N waits
        ``restart_backoff * 2**(N-2)`` seconds (capped at 30) — a
        crash-looping worker stops hot-spinning respawns.  ``None``
        reads ``REPRO_SUP_RESTART_BACKOFF`` (default 0.0, the
        pre-existing immediate-retry behaviour).
    """

    def __init__(
        self,
        cluster: ShardCluster,
        client: ClusterClient,
        journal: Optional[CommandJournal] = None,
        heartbeat: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        max_restarts: Optional[int] = None,
        restart_backoff: Optional[float] = None,
    ) -> None:
        self.cluster = cluster
        self.client = client
        if journal is None:
            journal = client._journal or CommandJournal()
        self.journal = journal
        self.heartbeat = (
            _env_float("REPRO_SUP_HEARTBEAT", 1.0)
            if heartbeat is None
            else float(heartbeat)
        )
        self.heartbeat_timeout = (
            _env_float("REPRO_SUP_PING_TIMEOUT", 5.0)
            if heartbeat_timeout is None
            else float(heartbeat_timeout)
        )
        self.max_restarts = (
            _env_int("REPRO_SUP_MAX_RESTARTS", 5)
            if max_restarts is None
            else int(max_restarts)
        )
        self.restart_backoff = (
            _env_float("REPRO_SUP_RESTART_BACKOFF", 0.0)
            if restart_backoff is None
            else float(restart_backoff)
        )
        #: completed recoveries, oldest first:
        #: ``{"worker", "pid", "views", "epoch", "seconds", "attempt"}``.
        self.recoveries: List[Dict[str, object]] = []
        self._attempts: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        with client._lock:
            if client._journal is None:
                client._journal = journal
            elif client._journal is not journal:
                raise ClusterError(
                    "client already records to a different journal; pass "
                    "that journal to the Supervisor instead"
                )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Supervisor":
        """Attach to the client and start the health-sweep thread."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        self.client.attach_supervisor(self)
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-supervisor"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sweeping (idempotent).  Does not close cluster/client."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def notify(self, worker: int) -> None:
        """Wake the sweep now — the client just marked ``worker`` dead."""
        self._wake.set()

    @property
    def running(self) -> bool:
        thread = self._thread
        return bool(
            self._started and not self._stop.is_set()
            and thread is not None and thread.is_alive()
        )

    # -- the sweep -----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.heartbeat)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.sweep()
            except Exception:
                # A failed recovery attempt leaves the worker dead;
                # the next sweep retries until max_restarts gives up.
                continue

    def sweep(self) -> List[int]:
        """One health pass: probe the living, recover the dead.

        Returns the worker indexes recovered this pass (tests call
        this directly for deterministic, thread-free recovery).
        """
        client = self.client
        suspects = set(client.dead_workers)
        for index, handle in enumerate(self.cluster.workers):
            if index in suspects or index in client._unrecoverable:
                continue
            if not handle.alive():
                client._mark_dead(
                    index,
                    ClusterError(
                        f"worker process exited with code {handle.exitcode}"
                    ),
                )
                suspects.add(index)
            elif not client.probe_worker(
                index, timeout=self.heartbeat_timeout
            ):
                suspects.add(index)
        recovered = []
        for index in sorted(suspects):
            if index in client._unrecoverable:
                continue
            if self._recover(index):
                recovered.append(index)
        return recovered

    def _recover(self, index: int) -> bool:
        """Respawn + replay one dead worker; False if it stays dead."""
        attempt = self._attempts.get(index, 0) + 1
        if attempt > self.max_restarts:
            self.client._mark_unrecoverable(
                index,
                f"gave up after {self.max_restarts} recoveries "
                "(max_restarts)",
            )
            return False
        self._attempts[index] = attempt
        if attempt > 1 and self.restart_backoff > 0:
            # A worker that just failed a recovery gets breathing room
            # before the next respawn instead of a hot respawn loop.
            time.sleep(min(self.restart_backoff * 2 ** (attempt - 2), 30.0))
        started = time.monotonic()
        try:
            handle = self.cluster.respawn_worker(index)
            epoch = self.journal.bump_epoch()
            views = self.client._recover_worker(index, handle, epoch)
        except Exception as error:
            if attempt >= self.max_restarts:
                self.client._mark_unrecoverable(
                    index,
                    f"recovery failed {attempt} times, last: "
                    f"{type(error).__name__}: {error}",
                )
            return False
        self.recoveries.append(
            {
                "worker": index,
                "pid": handle.pid,
                "views": views,
                "epoch": epoch,
                "seconds": time.monotonic() - started,
                "attempt": attempt,
            }
        )
        return True

    # -- placement -----------------------------------------------------------

    def rebalance(self, max_moves: int = 64) -> List[Dict[str, object]]:
        """Level view placement by live-migrating from hot to cold.

        Moves one view at a time from the worker with the most views to
        the worker with the fewest until the spread is at most one (the
        steady state fresh registration already produces), or
        ``max_moves`` migrations happened.  Returns the moves as
        ``{"view", "source", "target"}`` dicts.
        """
        client = self.client
        moves: List[Dict[str, object]] = []
        for _ in range(max_moves):
            with client._lock:
                dead = set(client._dead)
                counts = {
                    w: 0
                    for w in range(client.workers)
                    if w not in dead
                }
                placement = {
                    name: view.worker for name, view in client._views.items()
                }
            for owner in placement.values():
                if owner in counts:
                    counts[owner] += 1
            if len(counts) < 2:
                break
            hot = max(counts, key=lambda w: (counts[w], -w))
            cold = min(counts, key=lambda w: (counts[w], w))
            if counts[hot] - counts[cold] <= 1:
                break
            name = sorted(
                v for v, owner in placement.items() if owner == hot
            )[0]
            target = client.migrate_view(name, target=cold)
            moves.append({"view": name, "source": hot, "target": target})
        return moves

    # -- observability --------------------------------------------------------

    def config(self) -> Dict[str, object]:
        """The effective supervision knobs — what
        :meth:`ClusterClient.cluster_stats` surfaces under its
        ``"supervisor"`` key."""
        return {
            "running": self.running,
            "heartbeat": self.heartbeat,
            "heartbeat_timeout": self.heartbeat_timeout,
            "restart_backoff": self.restart_backoff,
            "max_restarts": self.max_restarts,
            "recoveries": len(self.recoveries),
        }

    def stats(self) -> Dict[str, object]:
        with self._lock:
            attempts = dict(self._attempts)
        return {
            "running": self.running,
            "heartbeat": self.heartbeat,
            "heartbeat_timeout": self.heartbeat_timeout,
            "restart_backoff": self.restart_backoff,
            "max_restarts": self.max_restarts,
            "recoveries": [dict(r) for r in self.recoveries],
            "attempts": attempts,
            "unrecoverable": dict(self.client._unrecoverable),
            "journal_epoch": self.journal.epoch,
            "journal_commands": self.journal.commands_seen,
        }

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"Supervisor(workers={self.cluster and len(self.cluster.workers)}, "
            f"running={self.running}, recoveries={len(self.recoveries)}, "
            f"epoch={self.journal.epoch})"
        )
