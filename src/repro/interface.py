"""The common interface of all dynamic query-evaluation engines.

The paper's computational model (Section 2) fixes the shape of a
dynamic algorithm: a ``preprocess`` phase building a data structure for
the initial database, an ``update`` routine per single-tuple command,
and — depending on the problem — ``enumerate``, ``count`` and ``answer``
routines.  :class:`DynamicEngine` captures exactly that contract, so
the paper's algorithm (:class:`repro.core.engine.QHierarchicalEngine`)
and the baselines (:mod:`repro.ivm`) are interchangeable in tests,
benchmarks and the lower-bound reductions.

An engine reads the :class:`~repro.storage.database.Database` it is
built over (a session's store, shared by every view) or a fresh empty
one; construction *is* the preprocessing phase.  A standalone caller
updates through the gate (:meth:`insert`, :meth:`delete`, :meth:`apply`,
:meth:`apply_with_delta`, :meth:`apply_all`): it writes the store, which
drops set-semantics no-ops, then runs the effective body.  A session
writes its store itself and calls the effective bodies directly, so
no command is filtered twice and subclasses see only effective changes.

The registry holds the served engines — the ones the dichotomy names:
Theorem 3.2's ``"qhierarchical"``, the UCQ union engine
(``"ucq_union"``), the ``"delta_ivm"`` fallback and Lemma A.2's
``"phi2_appendix"``; an engine that can maintain a
:class:`~repro.extensions.ucq.UnionOfCQs` sets ``accepts_unions``.
The recompute baseline (:class:`repro.ivm.RecomputeEngine`) is not
registered: benchmarks and reductions construct it directly.
:func:`make_engine` additionally accepts raw rule text and the engine
name ``"auto"``, which delegates selection to the dichotomy-driven
:class:`repro.api.Planner` — the recommended way to pick an engine.
"""

from __future__ import annotations

import gc
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError, QueryStructureError
from repro.storage.database import Constant, Database, Row
from repro.storage.updates import UpdateCommand

__all__ = ["DynamicEngine", "ENGINE_REGISTRY", "register_engine", "make_engine"]


# When the cyclic collector may run.  A build allocates its whole
# structure as long-lived, GC-tracked objects (items, fit lists, index
# sets), and with the collector on every 25% of growth of that heap
# triggers a full pass over all of it — a geometric series of
# whole-heap scans inside one linear-time preprocessing phase.  What a
# build allocates it keeps, and steady-state updates create no cyclic
# garbage on any engine (tests/test_gc_policy.py holds this), so
# pausing the collector for the build loses nothing.
_pause_lock = threading.Lock()
_pause_depth = 0
_paused_by_us = False


@contextmanager
def _collector_paused():
    """Hold the cyclic collector off for the duration of a build.

    Scopes nest and overlap across threads: the first one in disables
    the collector (when it was enabled), the last one out re-enables it
    only if that first one disabled it — an application that turned the
    collector off itself keeps it off.  On re-enabling, one generation-0
    pass runs here when the build left enough young objects to trigger
    it anyway, so the build pays for scanning what it made inside its
    own call instead of the next constant-time update or read.
    """
    global _pause_depth, _paused_by_us
    with _pause_lock:
        if _pause_depth == 0:
            _paused_by_us = gc.isenabled()
            if _paused_by_us:
                gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            resume = _pause_depth == 0 and _paused_by_us
            if resume:
                _paused_by_us = False
                gc.enable()
        if resume and gc.get_count()[0] > gc.get_threshold()[0]:
            gc.collect(0)


class DynamicEngine(ABC):
    """Abstract dynamic evaluation engine (preprocess/update/query)."""

    #: Short identifier used in benchmark tables and the registry.
    name: str = "abstract"

    #: Whether the engine can maintain a :class:`UnionOfCQs` (the
    #: query object then only needs ``relations``/``arity_of``/``free``).
    accepts_unions: bool = False

    #: Whether :meth:`apply_with_delta` derives the result delta
    #: structurally — O(poly(ϕ) + δ) per update — rather than through
    #: the default rematerialise-and-diff (O(|result|)).  The serving
    #: layer consults this before computing deltas *speculatively*:
    #: delta-aware cursor revalidation is free to run per touching
    #: write on a cheap-delta engine, but on a diff-based engine (the
    #: Appendix ϕ2 engine, the recompute baseline) it is only worth it
    #: when a subscriber needs the delta anyway.
    supports_cheap_delta: bool = False

    #: The point reads — ``"count"``, ``"answer"``, ``"contains"`` —
    #: this engine answers in time independent of the data.  A cluster
    #: worker answers these on the thread that received them, keeping
    #: its receive role; a read that may walk the data (ϕ2's count over
    #: the edges, a union count by enumeration) runs after the role
    #: passed on.
    constant_reads: FrozenSet[str] = frozenset()

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Optional[Database] = None,
    ):
        self._query = query
        if database is None:
            self._db = Database.empty_like(query)
        else:
            for relation in query.relations:
                database.add_relation(relation, query.arity_of(relation))
            self._db = database
        self._epoch = 0
        # Observability (repro.obs): attached post-construction via
        # :meth:`instrument`; None keeps the update hot path at a
        # single falsy check.  The per-relation counters are
        # pre-registered there, so counting an update is one string-key
        # dict probe plus an unlocked ``+=``.
        self._obs_registry = None
        self._obs_labels: Dict[str, str] = {}
        self._obs_insert: Optional[Dict[str, object]] = None
        self._obs_delete: Optional[Dict[str, object]] = None
        self._setup()
        if database is not None:
            with _collector_paused():
                self._preload()

    # -- hooks for subclasses -------------------------------------------------

    def _setup(self) -> None:
        """Initialise per-engine structures for the empty database."""

    def _preload(self) -> None:
        """Preprocessing: build the structure for the stored rows.

        The default feeds each row of the query's relations to the
        effective body — O(poly(ϕ)) each for the paper's engine, so
        O(poly(ϕ) · ||D0||) overall.  Engines with a faster batch path
        (e.g. :class:`repro.core.engine.QHierarchicalEngine`'s bulk
        loader) override this hook.
        """
        for relation in self._query.relations:
            for row in self._db.relation(relation):
                self._effective(True, relation, row)

    @abstractmethod
    def _on_insert(self, relation: str, row: Row) -> None:
        """React to an effective insertion (tuple was absent)."""

    @abstractmethod
    def _on_delete(self, relation: str, row: Row) -> None:
        """React to an effective deletion (tuple was present)."""

    # -- update API -----------------------------------------------------------

    def instrument(self, registry, **labels) -> None:
        """Attach a :class:`repro.obs.registry.MetricsRegistry`.

        Effective updates are then counted per relation and operation
        as ``repro_engine_updates_total{engine=..., relation=...,
        op=...}`` (plus any extra ``labels``, e.g. the owning view),
        and the engine's static plan shape is published once as gauges
        (see :func:`repro.core.plans.publish_plan_gauges`).  Without a
        registry — or with a disabled one — the update hot path pays a
        single ``None`` check and nothing else.
        """
        if registry is None or not getattr(registry, "enabled", False):
            return
        self._obs_registry = registry
        self._obs_labels = {key: str(value) for key, value in labels.items()}
        self._obs_insert = {
            relation: registry.counter(
                "repro_engine_updates_total",
                engine=self.name,
                relation=relation,
                op="insert",
                **self._obs_labels,
            )
            for relation in self._query.relations
        }
        self._obs_delete = {
            relation: registry.counter(
                "repro_engine_updates_total",
                engine=self.name,
                relation=relation,
                op="delete",
                **self._obs_labels,
            )
            for relation in self._query.relations
        }
        stats = self.plan_stats()
        if stats:
            from repro.core.plans import publish_plan_gauges

            publish_plan_gauges(
                registry, stats, engine=self.name, **self._obs_labels
            )

    def _effective(self, is_insert: bool, relation: str, row: Row) -> None:
        """The effective body of one update: the store already holds
        the change and it was effective.  Bumps the epoch, runs
        :meth:`_on_insert` / :meth:`_on_delete` and counts the update.
        """
        self._epoch += 1
        if is_insert:
            self._on_insert(relation, row)
            counters = self._obs_insert
        else:
            self._on_delete(relation, row)
            counters = self._obs_delete
        if counters is not None:
            counters[relation].value += 1

    def insert(self, relation: str, row: Sequence[Constant]) -> bool:
        """``insert R(ā)``; returns True iff the database changed."""
        row = tuple(row)
        if not self._db.insert(relation, row):
            return False
        self._effective(True, relation, row)
        return True

    def delete(self, relation: str, row: Sequence[Constant]) -> bool:
        """``delete R(ā)``; returns True iff the database changed."""
        row = tuple(row)
        if not self._db.delete(relation, row):
            return False
        self._effective(False, relation, row)
        return True

    def apply(self, command: UpdateCommand) -> bool:
        """Apply a prepared :class:`UpdateCommand`.

        Dispatches through :meth:`insert`/:meth:`delete` so subclass
        overrides keep working; the branch reads ``command.op``
        directly (commands carry normalised tuples already).
        """
        if command.op == "insert":
            return self.insert(command.relation, command.row)
        return self.delete(command.relation, command.row)

    def apply_all(self, commands: Iterable[UpdateCommand]) -> int:
        """Apply a stream of commands; returns the number of changes."""
        changed = 0
        apply = self.apply
        for command in commands:
            if apply(command):
                changed += 1
        return changed

    def apply_net(
        self, net: Mapping[str, Tuple[Sequence[Row], Sequence[Row], int, int]]
    ) -> None:
        """Move to the state a command stream leaves, given its net effect.

        ``net`` maps each touched relation to ``(inserted, deleted,
        n_inserts, n_deletes)``: the rows the stream left present that
        were absent before it, the rows it left absent that were
        present, and how many *effective* inserts / deletes it ran on
        that relation — cancelled pairs included, so ``epoch`` and the
        ``repro_engine_updates_total`` counters advance exactly as if
        every command had been applied on its own.  The caller
        (:meth:`repro.api.session.Session.apply_all`) already moved the
        store the engine reads, so no row here is a set-semantics no-op
        and nothing is written to the store.

        The default runs the effective body over the net rows and tops
        the epoch and counters up by the cancelled remainder.
        """
        epoch = self._epoch
        effective = self._effective
        for relation, (inserted, deleted, n_inserts, n_deletes) in net.items():
            for row in deleted:
                effective(False, relation, row)
            for row in inserted:
                effective(True, relation, row)
            epoch += n_inserts + n_deletes
            if self._obs_insert is not None:
                self._obs_insert[relation].value += n_inserts - len(inserted)
                self._obs_delete[relation].value += n_deletes - len(deleted)
        self._epoch = epoch

    def apply_with_delta(
        self, command: UpdateCommand
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """Apply one command and report the result-tuple delta.

        Returns ``(added, removed)``: the output tuples that entered and
        left ``ϕ(D)`` because of this command (both empty when the
        command was a set-semantics no-op).  This is the primitive the
        serving layer's delta subscriptions are built on
        (:mod:`repro.serve.subscriptions`).

        The gate writes the store, then runs
        :meth:`_effective_with_delta`.
        """
        is_insert = command.op == "insert"
        db = self._db
        write = db.insert if is_insert else db.delete
        if not write(command.relation, command.row):
            return (), ()
        return self._effective_with_delta(is_insert, command.relation, command.row)

    def _effective_with_delta(
        self, is_insert: bool, relation: str, row: Row
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """:meth:`_effective` plus the result-tuple delta it caused.

        The default diffs :meth:`result_set` before and after —
        O(|result|) per update; the store already holds the change.
        Engines with structural update knowledge override it:
        :class:`~repro.core.engine.QHierarchicalEngine` derives the
        delta in O(poly(ϕ) + δ) from the touched root paths, the union
        engine combines per-disjunct deltas, and the delta-IVM baseline
        reads it off the sign flips of its maintained counts.
        """
        before = self.result_set()
        self._effective(is_insert, relation, row)
        after = self.result_set()
        return tuple(after - before), tuple(before - after)

    def delta_for_binding(
        self,
        binding: Mapping[str, Constant],
        delta: Tuple[Sequence[Row], Sequence[Row]],
    ) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
        """Restrict an :meth:`apply_with_delta` result to one binding.

        O(|δ|): each delta row is kept iff it carries the bound values
        at the bound positions.  This is the primitive behind
        per-binding subscriptions — one delta pass serves every bound
        subscriber, no per-subscriber re-evaluation.
        """
        added, removed = delta
        binding = dict(binding)
        if not binding:
            return tuple(added), tuple(removed)
        self._check_binding(binding)
        free = tuple(self._query.free)
        checks = tuple(
            (free.index(v), value) for v, value in binding.items()
        )

        def keep(row: Row) -> bool:
            return all(row[i] == value for i, value in checks)

        return (
            tuple(row for row in added if keep(row)),
            tuple(row for row in removed if keep(row)),
        )

    def _check_binding(self, binding: Mapping[str, object]) -> None:
        """Reject bindings naming non-output variables (shared check)."""
        free = tuple(self._query.free)
        unknown = [v for v in binding if v not in free]
        if unknown:
            raise QueryStructureError(
                f"cannot bind {sorted(unknown)}: not output variables of "
                f"{self._query.name!r} (free: {free})"
            )

    def enumerate_bound(
        self, binding: Mapping[str, Constant]
    ) -> Iterator[Row]:
        """Stream the result restricted to an output-variable binding.

        Validates the names, then runs the engine's own bound path
        (:meth:`_enumerate_bound_fallback`): walker probes under the
        q-tree for the paper's engine, per-disjunct folds for unions,
        the binding index (when one is declared) or a filtered scan for
        the baselines.  No engine but delta-IVM keeps state for a
        binding, so a bound read never adds to the cost of an update.
        """
        binding = dict(binding)
        if not binding:
            return self.enumerate()
        self._check_binding(binding)
        return self._enumerate_bound_fallback(binding)

    def _enumerate_bound_fallback(
        self, binding: Dict[str, Constant]
    ) -> Iterator[Row]:
        """Engine-structural bound path; the base filters the plain
        enumeration (correct everywhere, delay O(tuples skipped))."""
        free = tuple(self._query.free)
        checks = tuple(
            (free.index(v), value) for v, value in binding.items()
        )
        return (
            row
            for row in self.enumerate()
            if all(row[i] == value for i, value in checks)
        )

    # -- query API ------------------------------------------------------------

    @abstractmethod
    def count(self) -> int:
        """``|ϕ(D)|`` for the current database."""

    @abstractmethod
    def answer(self) -> bool:
        """Boolean answer: ``ϕ(D) ≠ ∅``."""

    @abstractmethod
    def contains(self, row: Row) -> bool:
        """Membership test ``ā ∈ ϕ(D)`` for an output tuple."""

    @abstractmethod
    def enumerate(self) -> Iterator[Row]:
        """Stream ``ϕ(D)`` without repetitions.

        The engine must not be updated while a live generator exists;
        restart the enumeration after each update (the paper's model
        restarts the enumeration phase anyway).
        """

    def result_set(self) -> Set[Row]:
        """Materialise ``ϕ(D)`` (testing convenience, not O(1))."""
        return set(self.enumerate())

    def result_digest(self) -> str:
        """Order-independent SHA-256 fingerprint of :meth:`result_set`.

        Two engines agree on this hex digest iff they hold the same
        result (up to ``repr`` collisions, which the constant types
        used here — ints and strings — do not produce).  The
        multiprocess serving layer uses it as a cheap cross-process
        equality probe: comparing a worker's view against an in-process
        oracle costs one 64-char string on the wire instead of
        shipping the materialised result.  O(|result| log |result|).
        """
        import hashlib

        digest = hashlib.sha256()
        for row in sorted(self.result_set(), key=repr):
            digest.update(repr(row).encode("utf-8"))
            digest.update(b"\x1e")
        return digest.hexdigest()

    # -- introspection ----------------------------------------------------

    def plan_stats(self) -> Dict[str, object]:
        """Engine-specific execution-plan statistics for ``explain()``.

        Engines that compile per-update plans (the q-hierarchical
        engine's atom plans, the delta engine's telescoping arms)
        report their shape here; the default is empty.
        """
        return {}

    # -- shared accessors -------------------------------------------------

    @property
    def epoch(self) -> int:
        """Generation stamp: bumped once per *effective* update.

        Readers (cursors, the serving dispatcher) compare epochs to
        decide whether enumeration state opened earlier is still valid;
        two equal epochs guarantee the engine's result is unchanged and
        its internal enumeration structures untouched.
        """
        return self._epoch

    @property
    def query(self) -> ConjunctiveQuery:
        return self._query

    @property
    def database(self) -> Database:
        """The database the engine reads — for a session's view, the
        session's one store (do not mutate)."""
        return self._db

    @property
    def active_domain_size(self) -> int:
        """``n = |adom(D)|`` — the parameter of all paper bounds
        (O(||D||))."""
        return self._db.active_domain_size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._query.name}, |D|={self._db.cardinality})"


#: name → engine class, filled by :func:`register_engine` decorators.
ENGINE_REGISTRY: Dict[str, Type[DynamicEngine]] = {}


def register_engine(cls: Type[DynamicEngine]) -> Type[DynamicEngine]:
    """Class decorator adding an engine to :data:`ENGINE_REGISTRY`."""
    if cls.name in ENGINE_REGISTRY:
        raise EngineStateError(f"duplicate engine name {cls.name!r}")
    ENGINE_REGISTRY[cls.name] = cls
    return cls


def make_engine(
    name: str,
    query,
    database: Optional[Database] = None,
) -> DynamicEngine:
    """Instantiate a registered engine by name — or let the planner pick.

    ``query`` may be a :class:`~repro.cq.query.ConjunctiveQuery`, a
    :class:`~repro.extensions.ucq.UnionOfCQs`, or raw rule text (one
    rule per line; several rules make a UCQ).  ``name="auto"`` delegates
    engine selection to :class:`repro.api.Planner`, which applies the
    paper's dichotomy: q-hierarchical → ``"qhierarchical"``, a union of
    q-hierarchical disjuncts → ``"ucq_union"``, anything else → the
    delta-IVM baseline.
    """
    # Imported lazily: repro.api builds on this module.
    from repro.api.planner import Planner, parse_view

    if isinstance(query, str):
        query = parse_view(query)
    if name == "auto":
        return Planner().plan(query).build(database)
    try:
        cls = ENGINE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_REGISTRY)) + ", auto"
        raise EngineStateError(f"unknown engine {name!r}; known: {known}") from None
    if not isinstance(query, ConjunctiveQuery) and not _accepts_unions(cls):
        raise EngineStateError(
            f"engine {name!r} maintains a single conjunctive query; "
            f"use 'ucq_union' or 'auto' for a union"
        )
    return cls(query, database)


def _accepts_unions(cls: Type[DynamicEngine]) -> bool:
    """Whether an engine class can maintain a :class:`UnionOfCQs`."""
    return bool(getattr(cls, "accepts_unions", False))
