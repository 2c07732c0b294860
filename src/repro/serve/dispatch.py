"""Async subscription dispatch: a bounded worker pool with FIFO outboxes.

The seed serving layer delivered every :class:`~repro.serve.subscriptions.Delta`
*synchronously in the writer thread*: an update with S subscribers paid
S outbox appends and S callback invocations before its write lock was
released.  That is fine for a handful of cheap consumers, but it couples
writer latency to the slowest subscriber — the opposite of what the
paper's O(poly(ϕ) + δ) update bound promises the write path.

:class:`DispatchPool` decouples them.  The writer thread only *submits*
``(subscription, delta)`` pairs — a deque append under one condition
variable — and a small pool of daemon workers performs the actual
deliveries (outbox append + callback).  Three properties make this safe
to reason about:

* **per-subscription FIFO** — each subscription owns a pending queue
  and is processed by at most one worker at a time (a ``scheduled``
  flag hands the subscription around), so its outbox receives deltas in
  exactly submission order.  Submission order per view equals update
  order (submits happen under the view's shard write lock), so replaying
  a drained outbox stays byte-identical to the ``result_set()`` diffs.
* **back-pressure** — ``max_queue`` bounds the total undelivered
  submissions; a writer that outruns the workers blocks in
  :meth:`submit` until deliveries catch up, instead of growing an
  unbounded backlog.
* **a drain barrier** — :meth:`wait_for` blocks until every delta
  submitted to one subscription *before the call* has landed in its
  outbox, which is what keeps :meth:`Subscription.poll` deterministic:
  a poll issued after a write observes that write's delta.
  :meth:`drain` is the global barrier (used by ``Server.drain`` and at
  shutdown).

Deliveries run outside every server lock, so a callback may be slow,
may *read* the server back, and may even poll its own subscription
(:meth:`Subscription.poll` detects the delivering thread and skips the
drain barrier).  When the queue saturates, the back-pressured writer
*helps deliver* instead of blocking — so a full queue degrades to the
synchronous cost model rather than deadlocking against workers whose
callbacks are waiting on the writer's locks; while helping, the writer
runs callbacks under its shard locks, so the synchronous own-view-only
rule applies to them transiently (see the README's tuning notes).
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.obs.registry import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.subscriptions import Delta, Subscription

__all__ = ["DispatchPool"]


class DispatchPool:
    """A bounded pool of delivery workers with per-subscription FIFO."""

    def __init__(
        self,
        workers: int = 2,
        max_queue: int = 8192,
        registry: Optional[object] = None,
    ):
        if workers < 1:
            raise ValueError(f"dispatch pool needs >= 1 worker, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.workers = workers
        self.max_queue = max_queue
        self._cond = threading.Condition()
        #: subscriptions with pending deltas, each appearing at most once.
        self._runnable: Deque["Subscription"] = deque()
        self._pending_total = 0  # submitted, not yet delivered
        self._stopped = False
        # Submitted/delivered live on the metrics registry when one is
        # attached (one scrape sees the queue next to everything else);
        # without one they fall back to standalone counters so the
        # public accessors below keep working unchanged.
        observed = registry is not None and getattr(registry, "enabled", False)
        if observed:
            self._submitted = registry.counter("repro_dispatch_submitted_total")
            self._delivered = registry.counter("repro_dispatch_delivered_total")
            self._depth = registry.gauge("repro_dispatch_queue_depth")
            self._lag_hist = registry.histogram("repro_dispatch_lag_seconds")
        else:
            self._submitted = Counter()
            self._delivered = Counter()
            self._depth = None
            self._lag_hist = None
        self._threads = [
            threading.Thread(
                target=self._run, name=f"repro-dispatch-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------

    def submit(self, subscription: "Subscription", delta: "Delta") -> None:
        """Enqueue one delivery; blocks when ``max_queue`` is reached.

        Called from the writer thread (under the view's shard write
        lock), so it must stay O(1) apart from back-pressure waits.
        After the pool stops, deliveries degrade to synchronous inline
        dispatch so late writers never lose deltas.
        """
        with self._cond:
            while self._pending_total >= self.max_queue and not self._stopped:
                # Help instead of blocking: the submitting writer holds
                # its shard write locks here, and a worker whose
                # callback reads the server could be waiting on exactly
                # those locks — plain blocking would deadlock.  Draining
                # one delivery ourselves keeps the per-subscription FIFO
                # (same pop protocol as the workers) and guarantees
                # progress; only if everything runnable is already
                # in-flight do we actually wait.
                if not self._process_one_locked():
                    self._cond.wait()
            if not self._stopped:
                self._pending_total += 1
                self._submitted.inc()
                if self._depth is not None:
                    self._depth.set(self._pending_total)
                    subscription._async_pending.append((delta, perf_counter()))
                else:
                    subscription._async_pending.append((delta, 0.0))
                if not subscription._async_scheduled:
                    subscription._async_scheduled = True
                    self._runnable.append(subscription)
                self._cond.notify_all()
                return
        subscription._deliver_now(delta)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        with self._cond:
            while True:
                while not self._runnable and not self._stopped:
                    self._cond.wait()
                if not self._runnable and self._stopped:
                    return
                self._process_one_locked()

    def _process_one_locked(self) -> bool:
        """Pop one runnable delivery and perform it; caller holds
        ``_cond``, which is released around the delivery itself.

        Shared by the workers and by a back-pressured :meth:`submit`
        (the writer helps).  Returns False when nothing is runnable —
        every pending delta is already in some deliverer's hands.
        """
        if not self._runnable:
            return False
        subscription = self._runnable.popleft()
        delta, submitted_at = subscription._async_pending.popleft()
        self._cond.release()
        # Deliver outside the pool lock: callbacks may be slow or
        # re-enter the server's read side.  The marker lets a callback
        # poll its *own* subscription without deadlocking on the drain
        # barrier (Subscription.poll checks it).
        subscription._delivering_thread = threading.get_ident()
        try:
            subscription._deliver_now(delta)
        finally:
            subscription._delivering_thread = None
            self._cond.acquire()
            self._pending_total -= 1
            self._delivered.inc()
            if self._lag_hist is not None:
                # Submit→landed lag: queue wait plus the delivery
                # itself — what a subscriber actually experiences
                # behind the async pool.
                self._lag_hist.observe(perf_counter() - submitted_at)
                self._depth.set(self._pending_total)
            subscription._async_done += 1
            if subscription._async_pending:
                self._runnable.append(subscription)
            else:
                subscription._async_scheduled = False
            self._cond.notify_all()
        return True

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------

    def wait_for(self, subscription: "Subscription", target: int) -> None:
        """Block until ``subscription`` has delivered ``target`` deltas.

        The drain barrier behind :meth:`Subscription.poll`: the caller
        reads ``subscription._async_submitted`` first, so only deltas
        submitted *before* the poll are waited on — concurrent writers
        cannot postpone the poll indefinitely.
        """
        with self._cond:
            while subscription._async_done < target and not self._stopped:
                self._cond.wait()

    def drain(self) -> None:
        """Block until every submitted delivery has completed."""
        with self._cond:
            while self._pending_total and not self._stopped:
                self._cond.wait()

    @property
    def submitted(self) -> int:
        """Total deliveries ever enqueued (thin view over the registry
        counter ``repro_dispatch_submitted_total``)."""
        return self._submitted.value

    @property
    def delivered(self) -> int:
        """Total deliveries completed (thin view over the registry
        counter ``repro_dispatch_delivered_total``)."""
        return self._delivered.value

    @property
    def high_water(self) -> int:
        """Deepest undelivered backlog observed (0 without a registry)."""
        return self._depth.high_water if self._depth is not None else 0

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending_total

    def stats(self) -> Dict[str, int]:
        """The ``dispatch`` block of ``Server.stats()`` and
        ``ClusterClient.stats()``."""
        return {
            "workers": self.workers,
            "submitted": self.submitted,
            "delivered": self.delivered,
            "pending": self.pending,
            "high_water": self.high_water,
        }

    def close(self) -> None:
        """Drain, then stop the workers (idempotent)."""
        with self._cond:
            if self._stopped:
                return
            while self._pending_total:
                self._cond.wait()
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else "running"
        return (
            f"DispatchPool(workers={self.workers}, {state}, "
            f"pending={self.pending}, delivered={self.delivered})"
        )
