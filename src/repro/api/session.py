"""Sessions: one shared database, many live views, transactional batches.

A :class:`Session` is the serving-system front door the ROADMAP asks
for: callers register named views from query text (CQ or UCQ) and the
:class:`~repro.api.planner.Planner` picks the engine by the paper's
dichotomy.  The session owns the authoritative set-semantics store;
every effective update is fanned out exactly once to each view whose
query mentions the updated relation, so unrelated views never pay for
each other's traffic.

A single :meth:`Session.apply` runs that fan-out per command.  A stream
(:meth:`Session.apply_all`, and everything built on it:
:meth:`Session.ingest`, a committing :class:`Batch`, the server's and
the cluster workers' chunked writes) stays a batch: effectiveness is
decided once against the session store, views somebody is *watching* —
a subscriber or an open cursor — still see every
effective command in order, and every other view takes the stream's net
effect per relation in one
:meth:`~repro.interface.DynamicEngine.apply_net` when the call ends.
The paper's structure only has to represent ``D`` when somebody looks.

:meth:`Session.batch` opens a transaction: commands are buffered, and on
a clean exit only their *net effect* is applied — per (relation, tuple)
the last operation wins, and operations that agree with the pre-batch
state (inserting a present tuple, deleting an absent one) are dropped —
so, unlike a stream, cancelled pairs move no epoch either.  If the
``with`` body raises, the buffer is discarded and no view observes any
of it.

Views are also the anchor of the serving layer (:mod:`repro.serve`):
:meth:`View.cursor` opens resumable enumeration handles and
:meth:`View.subscribe` registers delta consumers.  Every effective
update delivered to a view runs the serving choreography
(:meth:`View._deliver`): snapshot cursors pin their remainder before
the engine mutates, the O(δ) result delta is captured when someone
subscribed, plain cursors are invalidated with the precise command,
and subscribers are notified last.
"""

from __future__ import annotations

from dataclasses import replace
from threading import get_ident
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.api.access import (
    AccessPattern,
    classify_access_pattern,
    normalize_access_declaration,
    normalize_binding,
)
from repro.api.planner import Plan, Planner, QueryLike
from repro.errors import EngineStateError, SchemaError, UpdateError
from repro.interface import DynamicEngine, _collector_paused
from repro.storage.database import Constant, Database, Row, Schema
from repro.storage.updates import (
    UpdateCommand,
    compress_commands,
    delete as delete_command,
    insert as insert_command,
)

__all__ = ["Session", "View", "Batch"]

#: :class:`repro.serve.subscriptions.Delta`, bound on first use:
#: ``repro.serve`` imports this module, so the import cannot run at
#: module load, and the per-write path must not pay for it per call.
_Delta: Optional[type] = None

_STREAMING = (
    "apply_all is running; a callback cannot write to the session that "
    "is notifying it, or register or drop a view on it"
)


def _delta_type() -> type:
    global _Delta
    if _Delta is None:
        from repro.serve.subscriptions import Delta

        _Delta = Delta
    return _Delta


class View:
    """A named live query registered with a :class:`Session`.

    Thin façade over the planned engine: the query surface
    (``count``/``answer``/``enumerate``/``result_set``/``contains``)
    delegates, while updates arrive only through the owning session.
    """

    def __init__(self, name: str, session: "Session", plan: Plan, engine: DynamicEngine):
        self.name = name
        self._session = session
        self._plan = plan
        self._engine = engine
        # Serving-layer state: live cursors to notify around updates and
        # delta subscribers to fan changes out to (repro.serve).
        self._cursors: List[object] = []
        # Copy-on-write: (un)registration replaces the tuple, so a
        # delivery iterating it is undisturbed by a callback that
        # subscribes or unsubscribes mid-flight — without a per-write
        # copy.
        self._subscriptions: Tuple[Any, ...] = ()
        # Access-pattern state: classified (query, pattern) pairs —
        # declared via Session.view(access=...) or inferred from the
        # first bound use — plus the bound-subscriber index
        # pattern key → bound-value tuple → subscriptions, served by
        # one O(δ) grouping pass per update (View._fan_out_bound).
        self._access_patterns: Dict[Tuple[str, ...], AccessPattern] = {}
        self._bound_positions: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self._bound_subs: Dict[
            Tuple[str, ...], Dict[Tuple, List[object]]
        ] = {}
        # Guarantee probe (repro.obs): observed update-cost and
        # enumeration-delay distributions next to the plan's promises.
        # None when the session runs with observe=False — the hot paths
        # below guard on it, which is the whole no-op fast path.
        self._probe = None
        if session._observe:
            from repro.obs.probes import ViewProbe

            self._probe = ViewProbe(name, plan.engine, session.metrics)
            # The result-size gauge reads count() on the write path, so
            # only where it is O(1): not recompute, not a union whose
            # inclusion–exclusion left the q-hierarchical class.
            self._sized = self._probe.constant_delay and getattr(
                engine, "counting_supported", True
            )
            # Engine-level series: effective updates per relation/op
            # plus the static plan-shape gauges (repro.core.plans).
            engine.instrument(session.metrics, view=name)

    # -- plan introspection ---------------------------------------------------

    @property
    def query(self) -> QueryLike:
        return self._plan.query

    @property
    def engine_name(self) -> str:
        return self._plan.engine

    @property
    def engine(self) -> DynamicEngine:
        """The underlying engine (query methods only — update via the
        session, or the shared store and this view disagree)."""
        return self._engine

    def explain(self) -> Plan:
        """The planner's report: chosen engine, reason, guarantees —
        plus the built engine's execution-plan statistics (compiled
        atom plans, dispatch width, delta arms) and, when the session
        observes, the measured update/delay percentiles next to the
        promised classes (see :mod:`repro.obs.probes`)."""
        plan = self._plan.with_stats(self._engine.plan_stats())
        plan = plan.with_access_patterns(tuple(self._access_patterns.values()))
        if self._probe is not None:
            plan = plan.with_observed(self._probe.observed())
        return plan

    @property
    def access_patterns(self) -> Tuple[AccessPattern, ...]:
        """The view's classified access patterns (declared + inferred)."""
        return tuple(self._access_patterns.values())

    def _ensure_access_pattern(
        self, variables: Sequence[str], declared: bool = False
    ) -> AccessPattern:
        """Classify (once) the access pattern binding ``variables``.

        ``pinned`` and ``probed`` patterns are served from the
        structure and need no state; ``indexed`` (delta-IVM only)
        registers a binding index with the engine, built O(|result|)
        once and patched inside the O(|δ|) update that engine already
        pays; ``filter`` records the honest degradation.  The pattern
        lands on :meth:`explain`'s report either way.
        """
        free = tuple(self.query.free)
        chosen = set(variables)
        key = tuple(v for v in free if v in chosen)
        existing = self._access_patterns.get(key)
        if existing is not None:
            if declared and not existing.declared:
                existing = replace(existing, declared=True)
                self._access_patterns[key] = existing
            return existing
        pattern = classify_access_pattern(
            self.query, self.engine_name, variables, declared=declared
        )
        if pattern.mode == "indexed":
            self._engine.register_access_pattern(pattern.variables)
        self._access_patterns[pattern.variables] = pattern
        self._bound_positions[pattern.variables] = tuple(
            free.index(v) for v in pattern.variables
        )
        return pattern

    # -- query surface --------------------------------------------------------

    def count(self) -> int:
        return self._engine.count()

    def answer(self) -> bool:
        return self._engine.answer()

    def enumerate(self) -> Iterator[Row]:
        return self._engine.enumerate()

    def result_set(self) -> Set[Row]:
        return self._engine.result_set()

    def contains(self, row: Sequence[Constant]) -> bool:
        """Output-tuple membership; O(1) when the engine supports it."""
        row = tuple(row)
        probe = getattr(self._engine, "contains", None)
        if probe is not None:
            return probe(row)
        return row in self._engine.result_set()

    def result_digest(self) -> str:
        """Order-independent fingerprint of the result (see
        :meth:`repro.interface.DynamicEngine.result_digest`)."""
        return self._engine.result_digest()

    # -- serving surface (repro.serve) ----------------------------------------

    @property
    def epoch(self) -> int:
        """The engine's generation stamp; bumped per effective update
        touching this view.  Cursors compare epochs to resume safely."""
        return self._engine.epoch

    def cursor(
        self,
        binding: Optional[Dict[str, Constant]] = None,
        snapshot: bool = False,
        **variables,
    ) -> "object":
        """Open a resumable enumeration cursor over this view.

        Output variables bind to constants either as keyword sugar
        (``view.cursor(x=3)``) or through the explicit ``binding`` dict
        — use the dict for variables whose names collide with the
        ``binding``/``snapshot`` parameters.  The bound set is
        classified as an access pattern on first use
        (:func:`repro.api.access.classify_access_pattern`):
        ancestor-closed patterns pin in O(1), other q-hierarchical
        patterns probe under each item of their unbound levels,
        delta-IVM answers from a binding index, and the remaining
        baselines filter.  None of these keeps state that a later
        update has to pay for, except delta-IVM's index, whose upkeep
        stays inside that engine's O(|δ|) update.  ``snapshot=True``
        pins the pre-update result if a write interleaves.
        """
        from repro.serve.cursors import Cursor  # avoid an import cycle

        merged = normalize_binding(
            binding,
            variables,
            free=tuple(self.query.free),
            context=f"cursor() on view {self.name!r}",
            parameters=("binding", "snapshot"),
            flags={"snapshot": snapshot},
        )
        pattern = None
        if merged:
            pattern = self._ensure_access_pattern(tuple(merged))
        return Cursor(self, binding=merged, snapshot=snapshot, pattern=pattern)

    def enumerate_bound(
        self,
        binding: Optional[Dict[str, Constant]] = None,
        **variables,
    ) -> Iterator[Row]:
        """Stream the result restricted to an output-variable binding,
        through the engine's structural bound path (see
        :meth:`repro.interface.DynamicEngine.enumerate_bound`)."""
        merged = normalize_binding(
            binding,
            variables,
            free=tuple(self.query.free),
            context=f"enumerate_bound() on view {self.name!r}",
            parameters=("binding",),
        )
        if not merged:
            return self._engine.enumerate()
        self._ensure_access_pattern(tuple(merged))
        return self._engine.enumerate_bound(merged)

    def subscribe(
        self,
        callback=None,
        max_pending: Optional[int] = None,
        dispatcher: Optional[object] = None,
        binding: Optional[Dict[str, Constant]] = None,
        **variables,
    ) -> "object":
        """Register a delta subscriber on this view.

        Every effective update touching the view then runs through the
        engine's ``apply_with_delta`` and the resulting
        :class:`repro.serve.subscriptions.Delta` is queued on the
        subscription's outbox (and pushed to ``callback``, if given).
        ``dispatcher`` — a :class:`repro.serve.dispatch.DispatchPool` —
        moves the delivery out of the writer thread: the update only
        submits, a pool worker appends/invokes (per-subscription FIFO,
        see :meth:`repro.serve.server.Server.subscribe`).

        A *parameterized* subscription binds output variables —
        ``view.subscribe(u=3)`` or ``binding={"u": 3}`` — and then
        receives only the O(δ)-restricted per-binding delta, fanned out
        server-side from the single ``apply_with_delta`` pass, grouped
        by bound values (never per-subscriber re-evaluation); the
        delivered deltas carry ``delta.binding``.
        """
        from repro.serve.subscriptions import Subscription

        flags = {
            name: value
            for name, value in (
                ("callback", callback),
                ("max_pending", max_pending),
                ("dispatcher", dispatcher),
            )
            if value is not None
        }
        merged = normalize_binding(
            binding,
            variables,
            free=tuple(self.query.free),
            context=f"subscribe() on view {self.name!r}",
            parameters=("callback", "max_pending", "dispatcher", "binding"),
            flags=flags,
        )
        if merged:
            self._ensure_access_pattern(tuple(merged))
        return Subscription(
            self,
            callback=callback,
            max_pending=max_pending,
            dispatcher=dispatcher,
            binding=merged,
        )

    @property
    def subscriptions(self) -> Tuple[object, ...]:
        bound = [
            subscription
            for by_values in self._bound_subs.values()
            for subscribers in by_values.values()
            for subscription in subscribers
        ]
        return self._subscriptions + tuple(bound)

    @property
    def open_cursors(self) -> Tuple[object, ...]:
        return tuple(self._cursors)

    # -- serving internals ----------------------------------------------------

    def _register_cursor(self, cursor) -> None:
        self._cursors.append(cursor)

    def _drop_cursor(self, cursor) -> None:
        try:
            self._cursors.remove(cursor)
        except ValueError:
            pass  # already deregistered (exhausted, closed, invalidated)

    def _bound_key(self, binding: Dict[str, Constant]) -> Tuple[Tuple[str, ...], Tuple]:
        """(pattern key, bound-value tuple) in output-variable order."""
        free = tuple(self.query.free)
        key = tuple(v for v in free if v in binding)
        return key, tuple(binding[v] for v in key)

    def _register_subscription(self, subscription) -> None:
        binding = getattr(subscription, "binding", None)
        if binding:
            key, values = self._bound_key(binding)
            self._bound_subs.setdefault(key, {}).setdefault(
                values, []
            ).append(subscription)
        else:
            self._subscriptions += (subscription,)

    def _drop_subscription(self, subscription) -> None:
        binding = getattr(subscription, "binding", None)
        if binding:
            key, values = self._bound_key(binding)
            by_values = self._bound_subs.get(key)
            if by_values is None:
                return
            subscribers = by_values.get(values)
            if subscribers is None:
                return
            try:
                subscribers.remove(subscription)
            except ValueError:
                return
            if not subscribers:
                del by_values[values]
            if not by_values:
                del self._bound_subs[key]
            return
        self._subscriptions = tuple(
            kept for kept in self._subscriptions if kept is not subscription
        )

    def _watched(self) -> bool:
        """Whether someone consumes this view's per-command deltas —
        a subscriber, a bound subscriber or an open cursor.
        :meth:`Session.apply_all` delivers to such a view command by
        command and nets the stream for every other (a delta-IVM
        binding index stays exact through ``apply_net`` too)."""
        return bool(self._subscriptions or self._bound_subs or self._cursors)

    def _publish(self, seconds: float) -> None:
        """Record one observed per-update cost and refresh the result
        size gauge (only where ``count()`` is O(1))."""
        probe = self._probe
        probe.record_update(seconds)
        if self._sized:
            probe.result_size.set(self._engine.count())

    def _deliver_net(
        self, net: Dict[str, Tuple[List[Row], List[Row], int, int]],
        command: UpdateCommand,
    ) -> float:
        """Catch up with a stream this view sat out (nobody watched it):
        one :meth:`~repro.interface.DynamicEngine.apply_net`; returns
        the seconds it took.

        A cursor opened on the view from a callback *during* the stream
        holds a walker over the pre-stream state and no delta exists to
        revalidate it against, so it is settled here like a cursor
        across a delta-less write: a snapshot cursor pins its remainder
        first, a plain one is invalidated with ``command`` — the last
        of the stream — as the report.
        """
        cursors = list(self._cursors)
        for cursor in cursors:
            cursor._before_view_update(command)
        started = perf_counter()
        self._engine.apply_net(net)
        seconds = perf_counter() - started
        for cursor in cursors:
            cursor._after_view_update(command, None)
        return seconds

    def _deliver(self, command: UpdateCommand) -> None:
        """Apply one effective update with full serving choreography.

        Order matters: snapshot cursors drain *before* the engine
        mutates (they pin the pre-update result); the delta is captured
        during the update when someone subscribed — or when live plain
        cursors could be revalidated by it and the engine derives
        deltas structurally in O(poly(ϕ) + δ) (``supports_cheap_delta``;
        speculative O(|result|) diffs just to maybe save a cursor would
        invert the paper's update bound); cursors are revalidated or
        invalidated against the delta *after* the mutation, and
        subscribers are notified last, so a callback observing the view
        sees the post-update state.
        """
        if self._cursors:
            for cursor in list(self._cursors):
                cursor._before_view_update(command)
        subscriptions = self._subscriptions
        engine = self._engine
        want_delta = bool(subscriptions) or bool(self._bound_subs)
        if not want_delta and self._cursors:
            want_delta = getattr(
                engine, "supports_cheap_delta", False
            ) and any(not cursor.snapshot for cursor in self._cursors)
        # Sampled update timing: every update decrements the countdown,
        # only the one driving it below zero pays the two clock reads
        # and the histogram observe (see ViewProbe.update_stride) — the
        # <= 1.05x overhead budget does not fit exhaustive timing.
        probe = self._probe
        timed = False
        if probe is not None:
            probe.update_countdown -= 1
            if probe.update_countdown < 0:
                probe.update_countdown = probe.update_stride - 1
                timed = True
        pair = None
        if want_delta:
            if timed:
                started = perf_counter()
                added, removed = engine.apply_with_delta(command)
                self._publish(perf_counter() - started)
            else:
                added, removed = engine.apply_with_delta(command)
            pair = (tuple(added), tuple(removed))
        elif timed:
            started = perf_counter()
            engine.apply(command)
            self._publish(perf_counter() - started)
        else:
            engine.apply(command)
        if self._cursors:
            for cursor in list(self._cursors):
                cursor._after_view_update(command, pair)
        if pair is None or not (subscriptions or self._bound_subs):
            return
        added, removed = pair
        if added or removed:
            delta = (_Delta or _delta_type())(
                self.name, engine.epoch, command, added, removed
            )
            for subscription in subscriptions:
                subscription._dispatch(delta)
            if self._bound_subs:
                self._fan_out_bound(delta)

    def _fan_out_bound(self, delta) -> None:
        """Fan one view delta out to the parameterized subscribers.

        One O(δ) grouping pass per registered pattern: each delta row
        is projected onto the pattern's bound positions and appended to
        its bound-value group — but only for values someone actually
        subscribed to, so untouched bindings cost nothing.  Each
        touched group then dispatches a single restricted
        :class:`~repro.serve.subscriptions.Delta` (carrying
        ``binding``) to exactly its subscribers.  Total cost is
        O(patterns · δ), independent of the number of bound
        subscribers — the one-pass fan-out the paper's O(δ) delta
        enables.
        """
        Delta = _Delta or _delta_type()
        for key, by_values in list(self._bound_subs.items()):
            positions = self._bound_positions[key]
            touched: Dict[Tuple, Tuple[List[Row], List[Row]]] = {}
            for row in delta.added:
                values = tuple(row[p] for p in positions)
                if values in by_values:
                    touched.setdefault(values, ([], []))[0].append(row)
            for row in delta.removed:
                values = tuple(row[p] for p in positions)
                if values in by_values:
                    touched.setdefault(values, ([], []))[1].append(row)
            for values, (added, removed) in touched.items():
                restricted = Delta(
                    view=self.name,
                    epoch=delta.epoch,
                    command=delta.command,
                    added=tuple(added),
                    removed=tuple(removed),
                    binding=dict(zip(key, values)),
                )
                for subscription in list(by_values.get(values, ())):
                    subscription._dispatch(restricted)

    def _close_serving(self) -> None:
        """Release cursors and subscriptions (on ``drop_view``)."""
        for cursor in list(self._cursors):
            cursor.close()
        for subscription in self.subscriptions:
            subscription.close()

    def __repr__(self) -> str:
        return f"View({self.name!r}, engine={self.engine_name!r})"


class Batch:
    """A buffered, net-effect-compressed transaction on a session.

    Use via ``with session.batch() as batch:`` — commands buffer until
    the block exits cleanly, then the compressed net effect is applied
    once per affected view.  An exception inside the block discards the
    buffer entirely.  After commit, :attr:`stats` records the
    compression: ``{"buffered": ..., "net": ..., "applied": ...}``.
    """

    def __init__(self, session: "Session"):
        self._session = session
        self._commands: List[UpdateCommand] = []
        self._open = False
        self._finished = False
        self.stats: Optional[Dict[str, int]] = None

    # -- buffering ------------------------------------------------------------

    def insert(self, relation: str, row: Sequence[Constant]) -> "Batch":
        return self.apply(insert_command(relation, row))

    def delete(self, relation: str, row: Sequence[Constant]) -> "Batch":
        return self.apply(delete_command(relation, row))

    def apply(self, command: UpdateCommand) -> "Batch":
        if not self._open:
            raise EngineStateError("batch is not open; use 'with session.batch()'")
        # Validate eagerly so a bad command aborts the whole transaction
        # before anything is applied.
        self._session._check(command.relation, command.row)
        self._commands.append(command)
        return self

    def apply_all(self, commands: Iterable[UpdateCommand]) -> "Batch":
        for command in commands:
            self.apply(command)
        return self

    def __len__(self) -> int:
        return len(self._commands)

    # -- transaction protocol -------------------------------------------------

    def __enter__(self) -> "Batch":
        if self._finished:
            # One-shot: a committed (or rolled-back) batch holds stale
            # commands whose net effect was computed against old state.
            raise EngineStateError(
                "this batch already finished; open a new one with session.batch()"
            )
        self._session._open_batch(self)
        self._open = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._session._close_batch(self)
        self._open = False
        self._finished = True
        if exc_type is not None:
            self._commands.clear()  # rollback: nothing was applied
            return False
        self._commit()
        return False

    def _commit(self) -> None:
        net = compress_commands(self._commands, self._session._present)
        applied = self._session.apply_all(net)
        self.stats = {
            "buffered": len(self._commands),
            "net": len(net),
            "applied": applied,
        }


class Session:
    """A shared database serving many named live views.

    Construction is free; cost is paid per registered view
    (preprocessing) and per effective update (fan-out to the views that
    mention the relation).  Views registered late are preloaded with the
    session's current contents, so registration order never changes
    results.
    """

    def __init__(
        self, planner: Optional[Planner] = None, observe: bool = True
    ):
        self._planner = planner or Planner()
        self._arities: Dict[str, int] = {}
        self._rows: Dict[str, Set[Row]] = {}
        self._views: Dict[str, View] = {}
        self._views_by_relation: Dict[str, List[View]] = {}
        self._active_batch: Optional[Batch] = None
        # The threads inside apply_all: views that sat a stream out lag
        # the store until its fan-out, so a callback writing (or
        # registering / dropping a view) mid-call would fork them from
        # it.  Per thread, not per session: a sharded Server runs
        # streams over disjoint relations — disjoint view sets — in
        # parallel on one session, and those must not see each other.
        self._streaming: Set[int] = set()
        # Observability (repro.obs): one registry + span log per
        # session.  observe=False swaps in the shared no-op registry —
        # hot paths additionally guard on self._observe so disabling
        # observability costs a single flag check per update.
        self._observe = bool(observe)
        if observe:
            from repro.obs import MetricsRegistry, SpanLog, watch_collector

            self.metrics = MetricsRegistry()
            self.spans = SpanLog()
            watch_collector(self)
        else:
            from repro.obs import NULL_REGISTRY, NULL_SPANLOG

            self.metrics = NULL_REGISTRY
            self.spans = NULL_SPANLOG

    @property
    def observe(self) -> bool:
        """Whether this session records metrics/spans (``repro.obs``)."""
        return self._observe

    def drift_report(self) -> List[Dict[str, object]]:
        """Guarantee-probe drift verdicts across all observed views.

        One entry per view whose *measured* per-tuple enumeration delay
        scales with the result size although its plan promised constant
        delay (see :meth:`repro.obs.probes.ViewProbe.drift`).  Empty
        while every promise holds — or when the session does not
        observe.
        """
        out: List[Dict[str, object]] = []
        for view in self._views.values():
            probe = view._probe
            if probe is None:
                continue
            drift = probe.drift()
            if drift is not None:
                out.append(drift)
        return out

    # ------------------------------------------------------------------
    # view registration
    # ------------------------------------------------------------------

    def view(
        self,
        name: str,
        query: object,
        engine: str = "auto",
        access: Optional[object] = None,
    ) -> View:
        """Register a live view from query text (CQ or UCQ) or a query
        object; ``engine="auto"`` lets the dichotomy choose.

        ``access`` declares the expected access patterns up front — one
        pattern (``access={"u"}``) or several (``access=[{"u"},
        {"u", "x"}]``).  Each is classified immediately
        (:func:`repro.api.access.classify_access_pattern`) and shows on
        :meth:`View.explain`.  Only a delta-IVM view keeps state for a
        pattern — its binding index, built here during registration
        instead of on the first bound read; every other engine serves
        bound reads from its own structure.  Patterns not declared here
        are still inferred from the first bound cursor / subscription.
        """
        if name in self._views:
            raise EngineStateError(f"a view named {name!r} already exists")
        if self._active_batch is not None:
            raise EngineStateError("cannot register a view inside an open batch")
        if self._streaming and get_ident() in self._streaming:
            raise EngineStateError(_STREAMING)
        plan = self._planner.plan(query, engine=engine)
        parsed = plan.query
        declared_patterns: Tuple[Tuple[str, ...], ...] = ()
        if access is not None:
            declared_patterns = normalize_access_declaration(
                access, tuple(parsed.free), context=f"view {name!r}"
            )

        # Check schema compatibility before any state changes.
        arities = {r: parsed.arity_of(r) for r in parsed.relations}
        for relation, arity in arities.items():
            declared = self._arities.get(relation, arity)
            if declared != arity:
                raise SchemaError(
                    f"view {name!r} uses {relation}/{arity} but the session "
                    f"already serves {relation}/{declared}"
                )

        # Preprocessing: build the engine over the session's current
        # contents restricted to the view's relations.  Session rows
        # were arity-checked on entry, so they bulk-copy without
        # per-row validation, and the engine's own bulk path takes it
        # from there.  One collector pause spans the engine build and
        # any declared binding index, so the registration pays at
        # most one closing generation-0 pass.
        with _collector_paused():
            preload = Database(Schema(arities))
            for relation in arities:
                rows = self._rows.get(relation)
                if rows:
                    preload.bulk_insert(relation, rows, checked=True)
            built = plan.build(preload)

            self._arities.update(arities)
            view = View(name, self, plan, built)
            self._views[name] = view
            for relation in arities:
                self._rows.setdefault(relation, set())
                self._views_by_relation.setdefault(relation, []).append(view)
            for pattern in declared_patterns:
                view._ensure_access_pattern(pattern, declared=True)
        return view

    def drop_view(self, name: str) -> None:
        """Unregister a view (its relations stay in the shared store)."""
        if self._streaming and get_ident() in self._streaming:
            raise EngineStateError(_STREAMING)
        try:
            view = self._views.pop(name)
        except KeyError:
            raise EngineStateError(f"no view named {name!r}") from None
        view._close_serving()
        for views in self._views_by_relation.values():
            if view in views:
                views.remove(view)

    def __getitem__(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise EngineStateError(f"no view named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._views

    @property
    def views(self) -> Tuple[View, ...]:
        return tuple(self._views.values())

    def explain(self, name: str) -> Plan:
        return self[name].explain()

    # ------------------------------------------------------------------
    # updates — fan out once per affected view
    # ------------------------------------------------------------------

    def insert(self, relation: str, row: Sequence[Constant]) -> bool:
        """``insert R(ā)``; True iff the shared store changed."""
        return self.apply(insert_command(relation, row))

    def delete(self, relation: str, row: Sequence[Constant]) -> bool:
        """``delete R(ā)``; True iff the shared store changed."""
        return self.apply(delete_command(relation, row))

    def apply(self, command: UpdateCommand) -> bool:
        if self._active_batch is not None:
            raise EngineStateError(
                "a batch is open; route updates through it (or close it first)"
            )
        if self._streaming and get_ident() in self._streaming:
            raise EngineStateError(_STREAMING)
        self._check(command.relation, command.row)
        return self._apply_effective(command)

    def apply_all(
        self,
        commands: Iterable[UpdateCommand],
        flags: Optional[List[bool]] = None,
    ) -> int:
        """Apply a stream as one batch; returns the effective changes.

        One sequential pass validates each command and decides its
        effectiveness against the session store — once; no engine
        filters it again.  What happens next depends on who is looking
        (classed per view when one of its relations first shows up in
        the call):

        * a *watched* view (:meth:`View._watched`) gets every effective
          command at once, in stream order, through the same
          :meth:`View._deliver` a single :meth:`apply` runs — deltas,
          epochs, callback order and cursor verdicts are per command;
        * for every other view the pass only nets the stream per
          relation (``row → ±1/0``) and, when it ends, each such view
          moves once through
          :meth:`~repro.interface.DynamicEngine.apply_net` — a row
          inserted and deleted again costs it nothing, while its
          ``epoch`` and update counters still advance by the effective
          counts.  It is current when the call returns, not before: a
          callback reading it mid-call sees the pre-call state, and its
          enumeration *order* may differ from per-command application
          (``result_set``, ``count`` and ``result_digest`` do not).

        Not transactional (:meth:`batch` is): a command naming an
        unknown relation or carrying the wrong arity raises where the
        stream stands, and the fan-out still runs, so every view holds
        exactly the applied prefix.  ``flags``, when given, receives
        one effectiveness verdict per command reached.  A callback must
        not write to the session — or register or drop a view on it —
        from inside the call (:class:`EngineStateError`); streams of
        *other* threads over disjoint relations, as a sharded
        :class:`~repro.serve.server.Server` runs them, are unaffected.
        """
        if self._active_batch is not None:
            raise EngineStateError(
                "a batch is open; route updates through it (or close it first)"
            )
        me = get_ident()
        if me in self._streaming:
            raise EngineStateError(_STREAMING)
        groups: Dict[str, Tuple[Any, ...]] = {}
        watching: Dict[View, bool] = {}
        changed = 0
        last = None  # the last command applied, for _fan_out's reports
        self._streaming.add(me)
        try:
            for command in commands:
                relation = command.relation
                group = groups.get(relation)
                if group is None:
                    self._check(relation, command.row)
                    group = groups[relation] = self._stream_group(
                        relation, watching
                    )
                rows, arity, watched, net, counts, _lagging = group
                row = command.row
                if len(row) != arity:
                    self._check(relation, row)
                if command.op == "insert":
                    if row in rows:
                        if flags is not None:
                            flags.append(False)
                        continue
                    rows.add(row)
                    sign = 1
                else:
                    if row not in rows:
                        if flags is not None:
                            flags.append(False)
                        continue
                    rows.remove(row)
                    sign = -1
                changed += 1
                last = command
                if flags is not None:
                    flags.append(True)
                for view in watched:
                    view._deliver(command)
                if net is not None:
                    net[row] = net.get(row, 0) + sign
                    counts[sign] += 1
        finally:
            self._streaming.discard(me)
            if last is not None:
                self._fan_out(groups, last)
        return changed

    def _stream_group(
        self, relation: str, watching: Dict[View, bool]
    ) -> Tuple[Any, ...]:
        """One relation's state for the length of an :meth:`apply_all`:
        ``(store rows, arity, watched views, net map, [_, inserts,
        deletes], lagging views)`` — the net map is ``None`` when every
        view of the relation is watched and nothing has to catch up
        afterwards."""
        watched: List[View] = []
        lagging: List[View] = []
        for view in self._views_by_relation.get(relation, ()):
            live = watching.get(view)
            if live is None:
                live = watching[view] = view._watched()
            (watched if live else lagging).append(view)
        return (
            self._rows[relation],
            self._arities[relation],
            watched,
            {} if lagging else None,
            [0, 0, 0],  # indexed by sign: [1] inserts, [-1] deletes
            lagging,
        )

    def _fan_out(
        self, groups: Dict[str, Tuple[Any, ...]], last: UpdateCommand
    ) -> None:
        """The closing half of :meth:`apply_all`: every view that sat
        the stream out takes the net of its relations in one
        ``apply_net``; then — after *all* of them have moved, so the
        sweep also leaves each engine's counters warm for the reads
        that follow a batch — observing sessions record one
        per-command-mean sample and the result size per moved view."""
        pending: Dict[View, Dict[str, Tuple[List[Row], List[Row], int, int]]] = {}
        for relation, (_, _, _, net, counts, lagging) in groups.items():
            if not net:
                continue
            entry = (
                [row for row, sign in net.items() if sign > 0],
                [row for row, sign in net.items() if sign < 0],
                counts[1],
                counts[-1],
            )
            for view in lagging:
                pending.setdefault(view, {})[relation] = entry
        moved = [
            (view, net, view._deliver_net(net, last))
            for view, net in pending.items()
        ]
        if self._observe:
            for view, net, seconds in moved:
                effective = sum(
                    n_inserts + n_deletes
                    for _, _, n_inserts, n_deletes in net.values()
                )
                view._publish(seconds / effective)

    def ingest(self, database: Database) -> int:
        """Bulk-insert every tuple of a database; returns insertions."""
        return self.apply_all(
            insert_command(relation.name, row)
            for relation in database.relations()
            for row in relation.rows
        )

    def batch(self) -> Batch:
        """Open a transactional, net-effect-compressed update batch."""
        return Batch(self)

    # ------------------------------------------------------------------
    # serving backends
    # ------------------------------------------------------------------

    def serve(
        self,
        backend: str = "threads",
        shards: int = 1,
        dispatch_workers: int = 0,
        dispatch_queue: int = 8192,
        supervise: bool = False,
        request_timeout: Optional[float] = None,
        retry_budget: Optional[int] = None,
        heartbeat: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        restart_backoff: Optional[float] = None,
        max_restarts: Optional[int] = None,
        faults: Optional[object] = None,
        observe: Optional[bool] = None,
    ):
        """Put a serving front door on this session.

        ``backend="threads"`` returns the in-process
        :class:`~repro.serve.server.Server` wrapping *this* session:
        ``shards`` reader–writer shards, optional async dispatch.  The
        GIL bounds its CPU-parallel write scaling.

        ``backend="processes"`` spawns a
        :class:`~repro.serve.cluster.ShardCluster` with one worker
        process per shard, mirrors this session into it (same views,
        same engines, same rows — registered and bulk-loaded over the
        wire) and returns a connected
        :class:`~repro.serve.cluster.ClusterClient` that owns the
        cluster (closing the client terminates the workers).  Updates
        applied to this session afterwards do **not** propagate — the
        cluster is the authoritative store from then on, exactly like
        handing the session to a Server.

        With ``supervise=True`` (processes backend) the cluster runs
        under a :class:`~repro.serve.supervisor.Supervisor`: a
        :class:`~repro.serve.journal.CommandJournal` mirrors every
        update, heartbeat sweeps detect dead workers, and a ``kill -9``
        degrades to a bounded stall — the worker is respawned, its
        views re-registered from the client's view table and its rows
        replayed from the journal, and blocked callers retry on the
        fresh channel.  Closing the
        client stops the supervisor too.  The threads backend ignores
        the flag (an in-process server has no processes to lose).

        Robustness knobs (processes backend; each falls back to an
        environment variable, then a default, when ``None``):
        ``request_timeout`` bounds every cluster RPC
        (``REPRO_REQUEST_TIMEOUT``, 30s; ``<= 0`` disables) and
        ``retry_budget`` sets the re-sends a clean deadline on an
        idempotent read may spend (``REPRO_RETRY_BUDGET``, 2) — see
        :class:`~repro.errors.DeadlineExceededError`.  ``heartbeat`` /
        ``heartbeat_timeout`` / ``restart_backoff`` / ``max_restarts``
        tune the supervisor (``REPRO_SUP_HEARTBEAT`` /
        ``REPRO_SUP_PING_TIMEOUT`` / ``REPRO_SUP_RESTART_BACKOFF`` /
        ``REPRO_SUP_MAX_RESTARTS``); ``cluster_stats()`` reports the
        effective values.  ``faults`` installs a deterministic
        :class:`~repro.serve.faults.FaultPlan` on the client's worker
        channels for chaos testing.

        ``observe`` keeps or drops the observability layer
        (:mod:`repro.obs`) on the serving side: ``None`` inherits this
        session's setting, ``False`` serves with the no-op registry
        (the write path then pays only a flag check — what the
        ``observability_overhead`` benchmark gates).  On the processes
        backend the flag rides into every worker, whose registries
        ``ClusterClient.metrics()`` merges back.

        Both return values speak the same
        ``view/insert/apply/batch/open_cursor/fetch/subscribe/poll``
        surface, so callers pick a backend without changing code.
        """
        if observe is None:
            observe = self._observe
        if backend == "threads":
            from repro.serve.server import Server

            return Server(
                self,
                shards=shards,
                dispatch_workers=dispatch_workers,
                dispatch_queue=dispatch_queue,
            )
        if backend == "processes":
            from repro.serve.cluster import ShardCluster

            journal = None
            if supervise:
                from repro.serve.journal import CommandJournal

                journal = CommandJournal()
            cluster = ShardCluster(workers=shards, observe=observe)
            try:
                client = cluster.client(
                    dispatch_workers=dispatch_workers,
                    dispatch_queue=dispatch_queue,
                    journal=journal,
                    request_timeout=request_timeout,
                    retry_budget=retry_budget,
                    faults=faults,  # type: ignore[arg-type]
                    observe=observe,
                )
            except BaseException:
                cluster.close()
                raise
            try:
                # The journal is attached *before* the mirror below, so
                # every adopted view and row is replayable from day one.
                client.adopt_session(self)
                if supervise:
                    from repro.serve.supervisor import Supervisor

                    Supervisor(
                        cluster,
                        client,
                        journal=journal,
                        heartbeat=heartbeat,
                        heartbeat_timeout=heartbeat_timeout,
                        restart_backoff=restart_backoff,
                        max_restarts=max_restarts,
                    ).start()
            except BaseException:
                client.close()
                cluster.close()
                raise
            client.owns_cluster = True
            return client
        raise EngineStateError(
            f"unknown serving backend {backend!r}; use 'threads' "
            "(in-process Server) or 'processes' (shard cluster)"
        )

    # -- internals ------------------------------------------------------------

    def _check(self, relation: str, row: Row) -> None:
        try:
            arity = self._arities[relation]
        except KeyError:
            known = ", ".join(sorted(self._arities)) or "(none)"
            raise SchemaError(
                f"no registered view uses relation {relation!r}; "
                f"known relations: {known}"
            ) from None
        if len(row) != arity:
            raise UpdateError(
                f"tuple {tuple(row)!r} has arity {len(row)}, relation "
                f"{relation!r} expects {arity}"
            )

    def _present(self, relation: str, row: Row) -> bool:
        return row in self._rows.get(relation, ())

    def _apply_effective(self, command: UpdateCommand) -> bool:
        rows = self._rows[command.relation]
        if command.is_insert:
            if command.row in rows:
                return False
            rows.add(command.row)
        else:
            if command.row not in rows:
                return False
            rows.remove(command.row)
        for view in self._views_by_relation.get(command.relation, ()):
            view._deliver(command)
        return True

    def _open_batch(self, batch: Batch) -> None:
        if self._active_batch is not None:
            raise EngineStateError("a batch is already open on this session")
        self._active_batch = batch

    def _close_batch(self, batch: Batch) -> None:
        if self._active_batch is batch:
            self._active_batch = None

    # ------------------------------------------------------------------
    # shared-store introspection
    # ------------------------------------------------------------------

    @property
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._arities))

    @property
    def cardinality(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(rows) for rows in self._rows.values())

    def rows(self, relation: str) -> Set[Row]:
        """Snapshot of one relation's tuples."""
        self._check_known(relation)
        return set(self._rows[relation])

    def _check_known(self, relation: str) -> None:
        if relation not in self._arities:
            raise SchemaError(f"unknown relation {relation!r}")

    @property
    def database(self) -> Database:
        """A :class:`Database` snapshot of the shared store (O(||D||)).

        Rows were arity-checked on entry, so they bulk-copy without
        per-row validation.
        """
        snapshot = Database(Schema(self._arities))
        for relation, rows in self._rows.items():
            if rows:
                snapshot.bulk_insert(relation, rows, checked=True)
        return snapshot

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{view.name}:{view.engine_name}" for view in self._views.values()
        )
        return f"Session([{inner}], |D|={self.cardinality})"
