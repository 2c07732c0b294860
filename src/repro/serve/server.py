"""A thread-safe, shardable multi-client dispatcher over a :class:`Session`.

:class:`Server` is the serving front door for concurrent readers and
writers.  The session's views are partitioned into **view-affine
shards** — every view lives wholly on one shard, each shard owns a
reader–writer lock — and requests route by what they touch:

* reads of one view (``count``/``answer``/``contains``/``fetch``) take
  only that view's shard read lock;
* an update takes the write locks of exactly the shards holding views
  that mention the updated relation, so updates to disjoint relations
  proceed in parallel instead of serialising behind one writer —
  ``shards=1`` is the seed's single-writer behaviour;
* view registration, drops and transactional batches take every shard
  (they change the routing itself, or must look atomic across views).

The routing is **published, not recomputed**: registration (already
under every write lock) stores one immutable :class:`Route` per
relation — ascending shard ids plus their lock objects — and a write
reads it without a lock, acquires its locks in order, and *revalidates
by identity*: if the relation's published route is no longer the object
it read, a ``view()``/``drop_view()`` raced it and it retries with the
fresh one.  Ascending acquisition order means concurrent multi-shard
writers cannot deadlock.  Within one shard the lock keeps the
writer-preference and writer-reentrancy of the seed ``RWLock``.

Every per-command operation is written flat — ``acquire`` / ``try`` /
``finally`` / ``release`` on the lock's plain methods, no
context-manager generators — so a served write or read costs its engine
call plus a small, fixed number of Python frames
(``tests/test_hot_path_budget.py`` counts them).

Subscription deltas are delivered synchronously in the writer thread by
default; ``dispatch_workers=N`` moves the fan-out onto a bounded
:class:`~repro.serve.dispatch.DispatchPool` (per-subscription FIFO,
back-pressure, drain barrier) so writers stop paying for slow
consumers — see :mod:`repro.serve.dispatch`.  :meth:`Server.drain`
waits for the pool to settle; :meth:`Server.close` drains and stops it
(the server is also a context manager).

Why this shape matches the paper: updates are O(poly(ϕ)) and queries
O(1)-per-probe/O(1)-delay, so each shard's write lock is held for
constant time per command and readers page results between writes
without ever rematerialising.  Per-view epoch bookkeeping (the engines'
generation stamps surfaced by :meth:`Server.epochs`) is what lets a
cursor fetched across that interleaving resume safely, revalidate
against the update's O(δ) delta, or report precisely why it cannot
(:mod:`repro.serve.cursors`).

The request loop speaks plain dicts so a transport (socket, HTTP,
queue) can be bolted on without touching the core::

    reply = server.handle({"op": "open_cursor", "view": "feed"})
    rows  = server.handle({"op": "fetch", "cursor": reply["cursor"], "n": 64})
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from threading import get_ident
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.api.session import Session, View
from repro.errors import (
    CursorInvalidatedError,
    EngineStateError,
    ReproError,
)
from repro.serve.cursors import Cursor
from repro.serve.dispatch import DispatchPool
from repro.serve.snapshot import Snapshot
from repro.serve.subscriptions import Delta, Subscription
from repro.serve.transport import commands_from_wire, error_reply
from repro.storage.database import Constant, Row
from repro.storage.updates import (
    UpdateCommand,
    delete as delete_command,
    insert as insert_command,
)

__all__ = ["Server", "RWLock"]

T = TypeVar("T")


class RWLock:
    """A reader–writer lock with writer preference, writer-reentrant.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Waiting writers block *new* readers, so a steady read load
    cannot starve updates — the property the serving benchmark's
    mixed-client workload leans on.

    The thread holding the write side may re-acquire both sides freely:
    synchronous subscription callbacks run inside the write path
    (:meth:`Server.apply` → delta dispatch), and a callback that reads
    the server back (``server.count(...)``) must not deadlock on the
    lock its own writer is holding.  Reentrancy is recorded *per
    acquisition*: :meth:`acquire_read` returns whether it was such a
    re-entry and :meth:`release_read` takes that flag back, so a read
    hold that outlives its thread's write hold still releases as the
    no-op it was acquired as.

    The protocol is four plain methods over one mutex and one condition
    — the per-command paths of :class:`Server` call them directly
    around a ``try``/``finally``; :meth:`read_locked` /
    :meth:`write_locked` wrap the same methods as context managers for
    everything else.  An uncontended acquire/release pair never enters
    the condition: waiters are counted, and only a release that can
    admit one notifies.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers = 0
        self._readers_waiting = 0
        self._writer_thread: Optional[int] = None
        self._writer_depth = 0
        self._writers_waiting = 0

    # Only a thread itself ever stores its own ident in _writer_thread
    # (and only it clears it again), so the lock-free "am I the writer"
    # checks below can be true for the holder alone; _writer_depth is
    # touched by the holder only.

    def acquire_read(self) -> bool:
        """Take the read side; returns True iff this was a re-entry by
        the writing thread (hand the flag to :meth:`release_read`)."""
        if self._writer_thread == get_ident():
            return True  # the writer reads its own state freely
        with self._lock:
            if self._writer_thread is not None or self._writers_waiting:
                self._readers_waiting += 1
                try:
                    while (
                        self._writer_thread is not None
                        or self._writers_waiting
                    ):
                        self._cond.wait()
                finally:
                    self._readers_waiting -= 1
            self._readers += 1
        return False

    def release_read(self, reentrant: bool) -> None:
        if reentrant:
            return
        with self._lock:
            self._readers -= 1
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = get_ident()
        if self._writer_thread == me:
            self._writer_depth += 1
            return
        with self._lock:
            if self._writer_thread is not None or self._readers:
                self._writers_waiting += 1
                try:
                    while self._writer_thread is not None or self._readers:
                        self._cond.wait()
                finally:
                    self._writers_waiting -= 1
            self._writer_thread = me
            self._writer_depth = 1

    def release_write(self) -> None:
        self._writer_depth -= 1
        if self._writer_depth:
            return
        with self._lock:
            self._writer_thread = None
            if self._writers_waiting or self._readers_waiting:
                self._cond.notify_all()

    def read_locked(self) -> "_ReadHold":
        return _ReadHold(self)

    def write_locked(self) -> "_WriteHold":
        return _WriteHold(self)


class _ReadHold:
    """``with lock.read_locked():`` — one read acquisition."""

    __slots__ = ("_lock", "_reentrant")

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock
        self._reentrant = False

    def __enter__(self) -> None:
        self._reentrant = self._lock.acquire_read()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_read(self._reentrant)


class _WriteHold:
    """``with lock.write_locked():`` — one write acquisition."""

    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_write()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_write()


@contextmanager
def _write_held(locks: Sequence[RWLock]) -> Iterator[None]:
    """Exclusive holds on ``locks``, taken in the order given (callers
    pass ascending shard order — the global deadlock-avoidance protocol
    for multi-shard writes) and released in reverse.  For the
    per-chunk and whole-server paths; :meth:`Server.apply` inlines the
    same loop."""
    held = 0
    try:
        for lock in locks:
            lock.acquire_write()
            held += 1
        yield
    finally:
        while held:
            held -= 1
            locks[held].release_write()


class _Route(NamedTuple):
    """Where one relation's writes go: the shards holding views that
    mention it, ascending, and those shards' locks.  Immutable and
    published whole — a writer that read a route revalidates it by
    identity after locking (see :meth:`Server.apply`)."""

    shards: Tuple[int, ...]
    locks: Tuple[RWLock, ...]


class Server:
    """Multi-client serving dispatcher (thread-safe Session wrapper).

    ``shards`` partitions the views across that many RW locks (see the
    module docstring; 1 reproduces the seed's single-writer protocol).
    A write locks exactly the shards of its relation's published route
    — one lock when every view mentioning the relation shares a shard —
    and revalidates the route by identity once it holds them; a read
    takes its view's shard read lock and revalidates the placement the
    same way.  The reentrancy rule is the lock's: the writing thread
    may re-enter both sides of the shards it holds.
    ``dispatch_workers`` > 0 enables the async subscription dispatch
    pool (``dispatch_queue`` bounds its backlog — the back-pressure
    knob).  With multiple shards, use async dispatch when callbacks
    read the server back: a *synchronous* callback runs while its
    writer holds shard write locks, so reading its own view is safe
    (reentrant), but reading a view on **another** shard can form a
    lock cycle with a concurrent writer — a hard deadlock, not a wait.
    Synchronous callbacks must touch only their own view; route
    anything cross-view through the pool, whose workers hold no locks
    (the same own-view rule applies transiently while the pool's queue
    is saturated, because the back-pressured writer helps deliver).
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        shards: int = 1,
        dispatch_workers: int = 0,
        dispatch_queue: int = 8192,
    ):
        if shards < 1:
            raise EngineStateError(f"need >= 1 shard, got {shards}")
        self._session = session or Session()
        self._shards: List[RWLock] = [RWLock() for _ in range(shards)]
        self._shard_of_view: Dict[str, int] = {}
        self._shard_of_cursor: Dict[int, int] = {}
        self._shard_of_subscription: Dict[int, int] = {}
        # relation → its published write route; replaced (never
        # mutated) under every write lock, read lock-free by writers.
        self._routes: Dict[str, _Route] = {}
        # Unknown relation: the session will raise SchemaError; route to
        # shard 0 so the error path still runs under a lock.
        self._default_route = self._route_over((0,))
        self._placed = 0  # round-robin view placement counter
        # Observability: the server's read/write totals live on the
        # session's metrics registry (one scrape sees them next to the
        # engine and cursor distributions); with observe=False they
        # fall back to standalone counters so the accessors below — and
        # stats() — keep reporting.  Either way the update is the same
        # unlocked += the ad-hoc integers used to be.
        registry = self._session.metrics
        if registry.enabled:
            self.metrics_registry = registry
            self._reads = registry.counter("repro_server_reads_total")
            self._shard_writes = [
                registry.counter("repro_server_writes_total", shard=i)
                for i in range(shards)
            ]
        else:
            from repro.obs.registry import Counter, NULL_REGISTRY

            self.metrics_registry = NULL_REGISTRY
            self._reads = Counter()
            self._shard_writes = [Counter() for _ in range(shards)]
        self._pool: Optional[DispatchPool] = (
            DispatchPool(dispatch_workers, dispatch_queue, registry=registry)
            if dispatch_workers > 0
            else None
        )
        self._cursors: Dict[int, Cursor] = {}
        self._cursor_locks: Dict[int, threading.Lock] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_id = 1
        self._id_lock = threading.Lock()
        for view in self._session.views:
            self._place_view(view)

    @property
    def session(self) -> Session:
        """The wrapped session — only touch it single-threaded."""
        return self._session

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def reads(self) -> int:
        """Total reads served — thin view over the registry counter
        ``repro_server_reads_total``; approximate under concurrency
        (readers deliberately do not serialise on a shared counter)."""
        return self._reads.value

    @property
    def writes(self) -> int:
        """Total writes applied — sum of the per-shard registry
        counters ``repro_server_writes_total{shard=...}``, each bumped
        under its shard's write lock (exact)."""
        return sum(c.value for c in self._shard_writes)

    @property
    def dispatcher(self) -> Optional[DispatchPool]:
        return self._pool

    def _new_id(self) -> int:
        with self._id_lock:
            handle = self._next_id
            self._next_id += 1
            return handle

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------

    def _route_over(self, shards: Iterable[int]) -> _Route:
        ids = tuple(sorted(shards))
        return _Route(ids, tuple(self._shards[i] for i in ids))

    def _place_view(self, view: View) -> int:
        """Assign a view to a shard (round-robin) and publish the
        widened routes of its relations; caller holds all write locks."""
        shard = self._placed % len(self._shards)
        self._placed += 1
        self._shard_of_view[view.name] = shard
        for relation in view.query.relations:
            route = self._routes.get(relation)
            shards = route.shards if route is not None else ()
            if shard not in shards:
                self._routes[relation] = self._route_over(shards + (shard,))
        return shard

    def _reindex_relations(self) -> None:
        """Republish every relation's route (after a view drop);
        caller holds all write locks."""
        fresh: Dict[str, set] = {}
        for view in self._session.views:
            shard = self._shard_of_view[view.name]
            for relation in view.query.relations:
                fresh.setdefault(relation, set()).add(shard)
        self._routes = {
            relation: self._route_over(ids) for relation, ids in fresh.items()
        }

    def shard_of(self, view: str) -> int:
        """Which shard serves a view (introspection/tests)."""
        try:
            return self._shard_of_view[view]
        except KeyError:
            raise EngineStateError(f"no view named {view!r}") from None

    def _read_view(self, view: str, read: Callable[..., T], *args: object) -> T:
        """``read(view, *args)`` under the view's shard read lock,
        revalidated after acquisition — the one path every single-view
        read takes.

        The placement map is read without a lock, so a concurrent
        ``view()`` / ``drop_view()`` (which hold *all* shards) can move
        the name between our read and our acquisition — re-check under
        the lock and retry with the fresh placement.  Unknown views
        fall back to shard 0 and let the session raise its precise
        error under the lock.
        """
        while True:
            shard = self._shard_of_view.get(view, 0)
            lock = self._shards[shard]
            reentrant = lock.acquire_read()
            try:
                if self._shard_of_view.get(view, 0) == shard:
                    return read(self._session[view], *args)
            finally:
                lock.release_read(reentrant)

    def _write_view(self, view: str) -> RWLock:
        """One view's shard write lock, revalidated like
        :meth:`_read_view`; the caller releases it with ``finally:
        lock.release_write()``."""
        while True:
            shard = self._shard_of_view.get(view, 0)
            lock = self._shards[shard]
            lock.acquire_write()
            if self._shard_of_view.get(view, 0) == shard:
                return lock
            lock.release_write()

    def exclusive(self) -> ContextManager[None]:
        """Every shard's write lock, publicly.

        The cluster's two-phase batch protocol holds this across its
        prepare→commit gap (write-reentrant for the holding thread, so
        the commit's own :meth:`batch` still works); any caller needing
        a multi-operation critical section over the whole server can
        use it the same way.
        """
        return _write_held(self._shards)

    @contextmanager
    def _read_all(self) -> Iterator[None]:
        held: List[Tuple[RWLock, bool]] = []
        try:
            for lock in self._shards:
                held.append((lock, lock.acquire_read()))
            yield
        finally:
            for lock, reentrant in reversed(held):
                lock.release_read(reentrant)

    # ------------------------------------------------------------------
    # view registration (exclusive everywhere: changes the routing)
    # ------------------------------------------------------------------

    def view(
        self,
        name: str,
        query: object,
        engine: str = "auto",
        access: Optional[object] = None,
    ) -> View:
        with self.exclusive():
            registered = self._session.view(
                name, query, engine=engine, access=access
            )
            self._place_view(registered)
            return registered

    def drop_view(self, name: str) -> None:
        with self.exclusive():
            dropped = self._session[name]
            self._session.drop_view(name)
            for handle, cursor in list(self._cursors.items()):
                if cursor.view is dropped:
                    self._release_cursor(handle)
            for handle, sub in list(self._subscriptions.items()):
                if sub.view is dropped:
                    del self._subscriptions[handle]
                    self._shard_of_subscription.pop(handle, None)
            self._shard_of_view.pop(name, None)
            self._reindex_relations()

    # ------------------------------------------------------------------
    # cursors
    # ------------------------------------------------------------------

    def open_cursor(
        self,
        view: str,
        binding: Optional[Dict[str, Constant]] = None,
        snapshot: bool = False,
        **variables,
    ) -> int:
        """Open a cursor; returns its handle for :meth:`fetch`.

        Output variables bind as keywords (``open_cursor("V", u=3)``)
        or through ``binding=``, exactly like
        :meth:`repro.api.session.View.cursor`.  Takes the view's shard
        write lock: registering the cursor must not race an in-flight
        update's cursor notifications.
        """
        lock = self._write_view(view)
        try:
            cursor = self._session[view].cursor(
                binding=binding, snapshot=snapshot, **variables
            )
            handle = self._new_id()
            self._cursors[handle] = cursor
            self._cursor_locks[handle] = threading.Lock()
            # the placement is stable under the held lock
            self._shard_of_cursor[handle] = self._shard_of_view[view]
            return handle
        finally:
            lock.release_write()

    def fetch(self, cursor: int, n: int) -> List[Row]:
        """The cursor's next ``n`` tuples (see :meth:`Cursor.fetch`)."""
        lock = self._shards[self._shard_of_cursor.get(cursor, 0)]
        reentrant = lock.acquire_read()
        try:
            self._reads.value += 1
            handle_lock = self._cursor_locks.get(cursor)
            if handle_lock is None:
                raise EngineStateError(f"unknown cursor handle {cursor}")
            with handle_lock:
                return self._cursors[cursor].fetch(n)
        finally:
            lock.release_read(reentrant)

    def cursor_state(self, cursor: int) -> Cursor:
        """The cursor object behind a handle (introspection)."""
        lock = self._shards[self._shard_of_cursor.get(cursor, 0)]
        with lock.read_locked():
            try:
                return self._cursors[cursor]
            except KeyError:
                raise EngineStateError(
                    f"unknown cursor handle {cursor}"
                ) from None

    def close_cursor(self, cursor: int) -> None:
        lock = self._shards[self._shard_of_cursor.get(cursor, 0)]
        lock.acquire_write()
        try:
            handle = self._cursors.pop(cursor, None)
            self._cursor_locks.pop(cursor, None)
            self._shard_of_cursor.pop(cursor, None)
            if handle is not None:
                handle.close()
        finally:
            lock.release_write()

    def _release_cursor(self, handle: int) -> None:
        self._cursors.pop(handle, None)
        self._cursor_locks.pop(handle, None)
        self._shard_of_cursor.pop(handle, None)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self,
        view: str,
        callback: Optional[Callable[[Delta], None]] = None,
        max_pending: Optional[int] = None,
        binding: Optional[Dict[str, Constant]] = None,
        **variables,
    ) -> int:
        """Register a delta subscriber; returns its handle for
        :meth:`poll`.

        With ``dispatch_workers`` > 0 the subscription is wired to the
        server's pool: deliveries (outbox append + callback) run on
        workers in per-subscription FIFO order instead of in the
        writer thread.  Binding output variables (``subscribe("V",
        u=3)`` or ``binding=``) makes it a *parameterized* subscription
        receiving only that binding's O(δ)-restricted deltas.
        """
        lock = self._write_view(view)
        try:
            subscription = self._session[view].subscribe(
                callback=callback,
                max_pending=max_pending,
                dispatcher=self._pool,
                binding=binding,
                **variables,
            )
            handle = self._new_id()
            self._subscriptions[handle] = subscription
            self._shard_of_subscription[handle] = self._shard_of_view[view]
            return handle
        finally:
            lock.release_write()

    def poll(self, subscription: int, max_items: Optional[int] = None) -> List[Delta]:
        """Drain a subscription's outbox.

        Runs outside the RW locks: the subscription serialises its own
        outbox against the delivering thread, so polling never blocks
        (or is blocked by) other clients.  Under async dispatch the
        poll first waits for this subscription's already-submitted
        deliveries (the pool's drain barrier), so it observes every
        write that returned before the poll started."""
        try:
            target = self._subscriptions[subscription]
        except KeyError:
            raise EngineStateError(
                f"unknown subscription handle {subscription}"
            ) from None
        return target.poll(max_items)

    def subscription_state(self, subscription: int) -> Subscription:
        """The subscription object behind a handle (introspection; the
        cluster's push-sync barrier reads its delivery counter)."""
        try:
            return self._subscriptions[subscription]
        except KeyError:
            raise EngineStateError(
                f"unknown subscription handle {subscription}"
            ) from None

    def unsubscribe(self, subscription: int) -> None:
        lock = self._shards[self._shard_of_subscription.get(subscription, 0)]
        lock.acquire_write()
        try:
            target = self._subscriptions.pop(subscription, None)
            self._shard_of_subscription.pop(subscription, None)
            if target is not None:
                target.close()
        finally:
            lock.release_write()

    # ------------------------------------------------------------------
    # updates (exclusive on the touched shards only)
    # ------------------------------------------------------------------

    def insert(self, relation: str, row: Sequence[Constant]) -> bool:
        return self.apply(insert_command(relation, row))

    def delete(self, relation: str, row: Sequence[Constant]) -> bool:
        return self.apply(delete_command(relation, row))

    def apply(self, command: UpdateCommand) -> bool:
        # Read the relation's published route, take its locks in
        # ascending shard order, then revalidate by identity: a view
        # registered between the read and the acquisition republishes
        # the route (it could widen the shard set, and mutating its
        # engine without holding its shard would race that shard's
        # readers), so a stale route means retry with the fresh one.
        relation = command.relation
        default = self._default_route
        while True:
            route = self._routes.get(relation, default)
            locks = route.locks
            held = 0
            try:
                for lock in locks:
                    lock.acquire_write()
                    held += 1
                if self._routes.get(relation, default) is route:
                    self._shard_writes[route.shards[0]].value += 1
                    return self._session.apply(command)
            finally:
                while held:
                    held -= 1
                    locks[held].release_write()

    def apply_all(self, commands: Sequence[UpdateCommand]) -> List[bool]:
        """Apply an update stream under one lock acquisition.

        Routes each *distinct* relation of the chunk once, takes the
        union of their shards (in ascending order — the usual deadlock
        protocol), then hands the whole chunk to
        :meth:`Session.apply_all <repro.api.session.Session.apply_all>`:
        views with a subscriber, an open cursor or a binding index see
        every effective command in order — delta capture, cursor
        choreography, epochs, exactly as under :meth:`apply` — and the
        views nobody watches take the chunk's net effect once, before
        the locks are released.  Each command counts as a write on its
        own relation's primary shard.  This is the serving-layer
        analogue of wire-level chunking: a remote stream that already
        arrived as a block should pay neither the reader–writer lock
        dance nor the unwatched views' fan-out per tuple.  Readers of
        the touched shards wait for the whole chunk, so size chunks
        for milliseconds, not seconds.  Not transactional: a failing
        command (unknown relation, bad arity) aborts the rest but
        leaves the applied prefix in place — :meth:`batch` is the
        all-or-nothing path.

        Returns one effectiveness flag per command.
        """
        commands = list(commands)
        if not commands:
            return []
        relations = {command.relation for command in commands}
        default = self._default_route
        while True:
            routes = {
                relation: self._routes.get(relation, default)
                for relation in relations
            }
            shard_ids = sorted(
                {shard for route in routes.values() for shard in route.shards}
            )
            with _write_held([self._shards[shard] for shard in shard_ids]):
                if any(
                    self._routes.get(relation, default) is not route
                    for relation, route in routes.items()
                ):
                    continue  # a view() raced our routing read; retry
                writes = {
                    relation: self._shard_writes[route.shards[0]]
                    for relation, route in routes.items()
                }
                flags: List[bool] = []
                try:
                    self._session.apply_all(commands, flags)
                finally:
                    # Every command reached is a write, the one that
                    # raised included.
                    for command in commands[: len(flags) + 1]:
                        writes[command.relation].value += 1
                return flags

    def batch(self, commands: Iterable[UpdateCommand]) -> Dict[str, int]:
        """Apply a transactional, net-effect-compressed batch.

        Takes every shard: the batch must look atomic to all views."""
        with self.exclusive():
            self._shard_writes[0].inc()
            with self._session.batch() as batch:
                batch.apply_all(commands)
            return dict(batch.stats or {})

    # ------------------------------------------------------------------
    # reads (shared, single shard)
    # ------------------------------------------------------------------

    def count(self, view: str) -> int:
        self._reads.value += 1
        return self._read_view(view, View.count)

    def answer(self, view: str) -> bool:
        self._reads.value += 1
        return self._read_view(view, View.answer)

    def contains(self, view: str, row: Sequence[Constant]) -> bool:
        self._reads.value += 1
        return self._read_view(view, View.contains, row)

    def explain(self, view: str) -> str:
        return self._read_view(view, lambda live: live.explain().render())

    def result_rows(self, view: str) -> List[Row]:
        """The view's full result, deterministically ordered (by repr —
        stable across processes, which is what the cluster's replay
        checks compare).  O(|result|); a verification surface, not a
        paging one — use cursors for that."""
        return sorted(self.result_set(view), key=repr)

    def result_set(self, view: str) -> set:
        """The view's materialised result (same surface as
        :meth:`repro.serve.cluster.ClusterClient.result_set`, so
        backend-agnostic code can verify against either)."""
        self._reads.value += 1
        return self._read_view(view, View.result_set)

    def digest(self, view: str) -> str:
        """Order-independent result fingerprint (see
        :meth:`repro.interface.DynamicEngine.result_digest`)."""
        self._reads.value += 1
        return self._read_view(view, View.result_digest)

    def result_digest(self, view: str) -> str:
        """Alias of :meth:`digest` matching the cluster client's name."""
        return self.digest(view)

    def relation_rows(self, relation: str) -> List[Row]:
        """One relation's stored rows, deterministically ordered (the
        cluster's registration backfill reads this)."""
        with self._read_all():
            return sorted(self._session.rows(relation), key=repr)

    def epochs(self) -> Dict[str, int]:
        """Per-view epoch bookkeeping: view name → generation stamp."""
        with self._read_all():
            return {v.name: v.epoch for v in self._session.views}

    def snapshot_read(
        self, views: Optional[Sequence[str]] = None
    ) -> Dict[str, Tuple[List[Row], int]]:
        """One *internally consistent* read of several views (default:
        every view, by name): rows (in the deterministic
        ``result_rows`` order) plus the epoch each view was read at,
        all under a single all-shard read lock so no write interleaves
        between the views.  The worker op behind the cluster's snapshot
        protocol."""
        with self._read_all():
            if views is None:
                views = sorted(v.name for v in self._session.views)
            out: Dict[str, Tuple[List[Row], int]] = {}
            for name in views:
                view = self._session[name]
                self._reads.inc()
                out[name] = (
                    sorted(view.result_set(), key=repr),
                    view.epoch,
                )
            return out

    def snapshot(self, views: Optional[Sequence[str]] = None) -> Snapshot:
        """Pin a consistent cut over ``views`` (default: every view).

        On the in-process backend a single all-shard read lock *is* a
        consistent cut, so this always pins on the first attempt; the
        cluster client's ``snapshot()`` offers the same surface over
        the epoch-validated double-collect protocol.
        """
        pinned = self.snapshot_read(views)
        return Snapshot(
            {name: rows for name, (rows, _epoch) in pinned.items()},
            {name: epoch for name, (_rows, epoch) in pinned.items()},
            workers={name: -1 for name in pinned},
            pin_attempts=1,
        )

    def stats(self) -> Dict[str, object]:
        """A structural + traffic summary of this server.

        The read/write totals are thin views over the metrics registry
        (``repro_server_reads_total`` / ``repro_server_writes_total``);
        :meth:`metrics` exposes the full registry snapshot with latency
        distributions next to these counts.
        """
        with self._read_all():
            report: Dict[str, object] = {
                "views": {v.name: v.engine_name for v in self._session.views},
                "epochs": {v.name: v.epoch for v in self._session.views},
                "cardinality": self._session.cardinality,
                "open_cursors": len(self._cursors),
                "subscriptions": len(self._subscriptions),
                "reads": self.reads,
                "writes": self.writes,
                "shards": len(self._shards),
                "shard_of_view": dict(self._shard_of_view),
                "shard_writes": [c.value for c in self._shard_writes],
            }
            if self._pool is not None:
                report["dispatch"] = self._pool.stats()
            return report

    def load_stats(self) -> Dict[str, object]:
        """The placement-relevant load summary of this server — what the
        cluster's ``cluster_stats`` op reports per worker and the
        supervisor's placement decisions read.  Cheaper than
        :meth:`stats`: counts only, no per-view maps and no lock-order
        surprises (a single all-shards read acquisition, like every
        other read).  ``reads``/``writes`` are the same registry-backed
        totals :meth:`stats` reports; ``pending`` is the async dispatch
        backlog (0 under synchronous dispatch).  For distributions
        (latency percentiles, queue lag) use :meth:`metrics` — this
        method intentionally stays allocation-light so supervisors can
        poll it every heartbeat."""
        with self._read_all():
            return {
                "views": len(self._session.views),
                "rows": sum(
                    len(self._session.rows(relation))
                    for relation in self._session.relations
                ),
                "open_cursors": len(self._cursors),
                "subscriptions": len(self._subscriptions),
                "pending": self._pool.pending if self._pool is not None else 0,
                "reads": self.reads,
                "writes": self.writes,
            }

    def metrics(self) -> Dict[str, object]:
        """The full observability dump of this server's process.

        Returns ``{"metrics": <registry snapshot>, "spans": [...],
        "slow": [...], "drift": [...]}``.  The registry snapshot is the
        mergeable form (fixed-bucket histograms merge elementwise — see
        :func:`repro.obs.registry.merge_snapshots`), ``spans`` is the
        recent span ring, ``slow`` the over-threshold ring, and
        ``drift`` the guarantee-probe report: views whose observed
        enumeration delay scales with result size despite a
        constant-delay promise.  With ``observe=False`` everything is
        empty but the shape is stable.
        """
        session = self._session
        return {
            "metrics": session.metrics.snapshot(),
            "spans": session.spans.snapshot(),
            "slow": session.spans.slow_snapshot(),
            "drift": session.drift_report(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every submitted async delivery has completed
        (no-op under synchronous dispatch)."""
        if self._pool is not None:
            self._pool.drain()

    def close(self) -> None:
        """Drain and stop the dispatch pool (idempotent); the server
        keeps serving, falling back to synchronous delivery."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the request loop
    # ------------------------------------------------------------------

    def handle(
        self,
        request: Dict[str, object],
        dispatch: Optional[
            Callable[[Dict[str, object]], Optional[Dict[str, object]]]
        ] = None,
    ) -> Dict[str, object]:
        """Serve one plain-dict request; never raises for client errors.

        Successful replies carry ``ok: True`` plus op-specific fields;
        failures carry ``ok: False``, the error class name and message
        — and for invalidated cursors the precise invalidation report.

        ``dispatch`` is a host's own op table (the cluster worker's
        push/2PC/backfill ops): it sees the request first and returns
        ``None`` for ops it does not own, so its errors are shaped by
        the same clauses as the server's.
        """
        try:
            request = dict(request)
            reply = dispatch(request) if dispatch is not None else None
            return self._dispatch(request) if reply is None else reply
        except CursorInvalidatedError as error:
            report = error.invalidation
            reply = error_reply(error)
            if report is not None:
                reply["invalidation"] = {
                    "view": report.view,
                    "opened_epoch": report.opened_epoch,
                    "invalidated_epoch": report.invalidated_epoch,
                    "command": str(report.command),
                    "fetched": report.fetched,
                }
            return reply
        except ReproError as error:
            return error_reply(error)
        except (KeyError, TypeError, ValueError) as error:
            # Malformed requests (missing fields, wrong shapes) are
            # client errors too — a transport loop must not die on them.
            return error_reply(error, f"malformed request: {error!r}")

    def serve(
        self, requests: Iterable[Dict[str, object]]
    ) -> Iterator[Dict[str, object]]:
        """The request loop: one reply per request, in order."""
        for request in requests:
            yield self.handle(request)

    def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if op == "view":
            registered = self.view(
                request["name"],
                request["query"],
                engine=request.get("engine", "auto"),
                access=request.get("access"),
            )
            # Relations + arities are what a cluster client routes by.
            relations = sorted(registered.query.relations)
            return {
                "ok": True,
                "view": registered.name,
                "engine": registered.engine_name,
                "relations": relations,
                "arities": {
                    relation: registered.query.arity_of(relation)
                    for relation in relations
                },
            }
        if op == "open_cursor":
            handle = self.open_cursor(
                request["view"],
                binding=request.get("binding"),
                snapshot=bool(request.get("snapshot", False)),
            )
            return {
                "ok": True,
                "cursor": handle,
                "epoch": self._cursors[handle].opened_epoch,
            }
        if op == "fetch":
            rows = self.fetch(request["cursor"], int(request.get("n", 100)))
            state = self._cursors.get(request["cursor"])
            return {
                "ok": True,
                "rows": rows,
                "exhausted": state.exhausted if state is not None else True,
            }
        if op == "close_cursor":
            self.close_cursor(request["cursor"])
            return {"ok": True}
        if op == "subscribe":
            handle = self.subscribe(
                request["view"],
                max_pending=request.get("max_pending"),
                binding=request.get("binding"),
            )
            return {"ok": True, "subscription": handle}
        if op == "poll":
            deltas = self.poll(
                request["subscription"], request.get("max_items")
            )
            return {
                "ok": True,
                "deltas": [
                    {
                        "view": d.view,
                        "epoch": d.epoch,
                        "command": str(d.command),
                        "added": list(d.added),
                        "removed": list(d.removed),
                        **({"binding": d.binding} if d.binding else {}),
                    }
                    for d in deltas
                ],
            }
        if op == "unsubscribe":
            self.unsubscribe(request["subscription"])
            return {"ok": True}
        if op in ("insert", "delete"):
            changed = self.apply(
                UpdateCommand(op, request["relation"], request["row"])
            )
            return {"ok": True, "changed": changed}
        if op == "batch":
            commands = commands_from_wire(request["commands"])
            return {"ok": True, "stats": self.batch(commands)}
        if op == "count":
            return {"ok": True, "count": self.count(request["view"])}
        if op == "answer":
            return {"ok": True, "answer": self.answer(request["view"])}
        if op == "contains":
            return {
                "ok": True,
                "contains": self.contains(
                    request["view"], tuple(request["row"])
                ),
            }
        if op == "result_set":
            return {"ok": True, "rows": self.result_rows(request["view"])}
        if op == "digest":
            return {"ok": True, "digest": self.digest(request["view"])}
        if op == "drop_view":
            self.drop_view(request["name"])
            return {"ok": True}
        if op == "explain":
            return {"ok": True, "explain": self.explain(request["view"])}
        if op == "epochs":
            return {"ok": True, "epochs": self.epochs()}
        if op == "snapshot_read":
            pinned = self.snapshot_read(list(request["views"]))  # type: ignore[arg-type]
            return {
                "ok": True,
                "views": {
                    name: {"rows": rows, "epoch": epoch}
                    for name, (rows, epoch) in pinned.items()
                },
            }
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, **self.metrics()}
        raise EngineStateError(f"unknown request op {op!r}")

    def __repr__(self) -> str:
        mode = (
            f"dispatch={self._pool.workers}w"
            if self._pool is not None
            else "dispatch=sync"
        )
        return (
            f"Server({self._session!r}, shards={len(self._shards)}, {mode}, "
            f"cursors={len(self._cursors)}, "
            f"subscriptions={len(self._subscriptions)})"
        )
