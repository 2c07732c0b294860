"""Delta subscriptions: push the O(δ) result changes of every update.

When a view has subscribers, the owning session routes each effective
update through the engine's
:meth:`~repro.interface.DynamicEngine.apply_with_delta`, which derives
the set of result tuples that *entered* and *left* the view.  For the
Theorem 3.2 engine that costs O(poly(ϕ) + δ) and no extra update pass:
the update runners report which free item on the touched root path
entered or left its fit list, and the delta is that root path's free
prefix, pinned, times the fit lists of the free nodes hanging off it,
read in the post-update state for inserts and deletes alike (see
:meth:`repro.core.structure.ComponentStructure.apply_with_delta` for
the invariants this rests on).  Unions combine per-disjunct deltas, and
the delta-IVM fallback reads the sign flips of its maintained valuation
counts.  Views without subscribers never pay for the capture.

Each change is wrapped in a :class:`Delta` and fanned out to every
:class:`Subscription` of the view.  Delivery — the outbox append plus
the optional callback — happens either *synchronously in the writer
thread* (the default, and the only mode when the subscription has no
dispatcher) or *asynchronously* on a
:class:`~repro.serve.dispatch.DispatchPool`: the writer merely submits,
and a worker performs the delivery in per-subscription FIFO order.
Either way, replaying a view's deltas in order onto a set reproduces
``result_set()`` exactly — the invariant the serving test-suite checks
on randomized streams; :meth:`Subscription.poll` waits for the
already-submitted deliveries of *this* subscription before draining, so
async dispatch never makes a poll observe fewer deltas than a
synchronous one would have.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.serve.dispatch import DispatchPool
from repro.storage.database import Row
from repro.storage.updates import UpdateCommand

__all__ = ["Delta", "Subscription"]


@dataclass(frozen=True)
class Delta:
    """One update's effect on one view's result.

    ``added`` and ``removed`` are disjoint, duplicate-free tuples of
    output rows; exactly one of them is non-empty (a single-tuple
    command moves the result monotonically).  ``epoch`` is the view's
    engine epoch *after* the update, so consecutive deltas of one view
    carry strictly increasing epochs.

    ``binding`` is set on deltas delivered to *parameterized*
    subscriptions (``view.subscribe(u=3)``): the bound variables and
    values this delta was restricted to.  ``added``/``removed`` then
    contain only the rows matching the binding — the O(δ) per-binding
    slice of the update's full delta.  None on unbound subscriptions.
    """

    view: str
    epoch: int
    command: UpdateCommand
    added: Tuple[Row, ...]
    removed: Tuple[Row, ...] = field(default=())
    binding: Optional[dict] = field(default=None)

    @property
    def size(self) -> int:
        """``δ`` — how many result tuples this update moved."""
        return len(self.added) + len(self.removed)

    def __str__(self) -> str:
        bound = ""
        if self.binding:
            pairs = ", ".join(
                f"{name}={value!r}" for name, value in self.binding.items()
            )
            bound = f" [{pairs}]"
        return (
            f"Δ[{self.view}@{self.epoch}]{bound} {self.command}: "
            f"+{len(self.added)} -{len(self.removed)}"
        )


class Subscription:
    """A registered consumer of one view's deltas.

    Obtained via :meth:`repro.api.session.View.subscribe`.  Deltas
    accumulate in the outbox until :meth:`poll` drains them; an
    optional ``callback`` is additionally invoked per delta.  Without a
    ``dispatcher`` the delivery runs synchronously in the updating
    thread (keep callbacks cheap — they hold up the write path); with
    one, the writer only submits and a pool worker delivers, so slow
    consumers stop taxing writers.  A raising callback never disturbs
    the update or the other subscribers: the error lands in
    :attr:`callback_errors` / :attr:`last_callback_error` instead.

    ``max_pending`` bounds the outbox: when full, the *oldest* deltas
    are dropped and :attr:`dropped` counts them, so a slow consumer
    can detect the gap and rematerialise instead of replaying.

    ``binding`` makes the subscription *parameterized*: the view
    routes it into its bound-subscriber index and delivers only the
    per-binding restricted deltas (see
    :meth:`repro.api.session.View._fan_out_bound`).
    """

    def __init__(
        self,
        view,
        callback: Optional[Callable[[Delta], None]] = None,
        max_pending: Optional[int] = None,
        dispatcher: Optional[DispatchPool] = None,
        binding: Optional[dict] = None,
    ):
        self._view = view
        self._callback = callback
        #: the bound variables, or None — read by the view when routing
        #: this subscription (must be set before registration below).
        self.binding = dict(binding) if binding else None
        self._outbox: Deque[Delta] = deque(maxlen=max_pending)
        self._max_pending = max_pending
        self._dispatcher = dispatcher
        # Serialises delivery (writer thread or pool worker) against
        # poll (any consumer thread): the full-outbox drop accounting
        # needs the length check and the evicting append to be atomic.
        self._lock = threading.Lock()
        self.dropped = 0
        self.delivered = 0
        #: callback failures are isolated (a raising callback must not
        #: starve other subscribers of the delta, nor abort a batch
        #: half-applied) — counted here, last exception kept for
        #: inspection.  The outbox received the delta regardless.
        self.callback_errors = 0
        self.last_callback_error: Optional[BaseException] = None
        #: set when a transport lost one of this subscription's deltas
        #: (a cluster push frame over the frame cap); ``dropped`` counts
        #: the lost delta, and the replay has a gap from then on.
        self.delivery_error: Optional[BaseException] = None
        self._closed = False
        # Async-dispatch state, owned by the DispatchPool's lock: the
        # per-subscription FIFO queue of (delta, submit-time) pairs —
        # the timestamp feeds the pool's delivery-lag histogram — the
        # "some worker holds me" flag, and the submitted/done counters
        # behind poll's barrier.
        self._async_pending: Deque[tuple] = deque()
        self._async_scheduled = False
        self._async_submitted = 0
        self._async_done = 0
        #: ident of the thread currently delivering to this
        #: subscription (set by the pool around ``_deliver_now``) —
        #: lets a callback poll its own subscription without waiting
        #: on the delivery it is itself inside of.
        self._delivering_thread: Optional[int] = None
        view._register_subscription(self)

    @property
    def view(self):
        return self._view

    @property
    def pending(self) -> int:
        return len(self._outbox)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dispatcher(self) -> Optional[DispatchPool]:
        return self._dispatcher

    def poll(self, max_items: Optional[int] = None) -> List[Delta]:
        """Drain up to ``max_items`` queued deltas (all by default).

        Under async dispatch this first waits for every delta submitted
        *before the call* to land in the outbox (the pool's drain
        barrier), so a poll issued after a write deterministically
        observes that write — exactly like synchronous dispatch.  A
        poll issued from *inside this subscription's own callback*
        skips the barrier (it would wait on the delivery it is part
        of); the triggering delta is already in the outbox, appended
        before the callback ran.
        """
        if (
            self._dispatcher is not None
            and self._delivering_thread != threading.get_ident()
        ):
            self._dispatcher.wait_for(self, self._async_submitted)
        out: List[Delta] = []
        with self._lock:
            while self._outbox and (
                max_items is None or len(out) < max_items
            ):
                out.append(self._outbox.popleft())
        return out

    def close(self) -> None:
        """Stop receiving deltas (idempotent); pending ones remain
        pollable."""
        if not self._closed:
            self._closed = True
            self._view._drop_subscription(self)

    # -- dispatch (called by the owning view) ---------------------------------

    def _dispatch(self, delta: Delta) -> None:
        """Route one delta: submit to the pool, or deliver inline."""
        if self._closed:
            return
        if self._dispatcher is not None:
            self._async_submitted += 1
            self._dispatcher.submit(self, delta)
        else:
            self._deliver_now(delta)

    def _lose(self, error: BaseException) -> None:
        """Record a delta the transport could not deliver."""
        with self._lock:
            self.dropped += 1
            self.delivery_error = error

    def _deliver_now(self, delta: Delta) -> None:
        """The actual delivery: outbox append + callback invocation."""
        with self._lock:
            if (
                self._max_pending is not None
                and len(self._outbox) == self._max_pending
            ):
                self.dropped += 1  # deque(maxlen) evicts the oldest
            self._outbox.append(delta)
            self.delivered += 1
        if self._callback is not None:
            try:
                self._callback(delta)
            except Exception as error:
                self.callback_errors += 1
                self.last_callback_error = error

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        mode = "async" if self._dispatcher is not None else "sync"
        return (
            f"Subscription({self._view.name!r}, {state}, {mode}, "
            f"pending={len(self._outbox)}, delivered={self.delivered}, "
            f"dropped={self.dropped})"
        )
