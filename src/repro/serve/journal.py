"""The cluster command journal: the rows a recovered worker replays.

A shard worker process holds three kinds of state a ``kill -9`` wipes
out: the **views** registered on it, the **rows** of the relations
those views read, and per-client handle state (cursor positions,
subscription outboxes).  The views are re-registered from the client's
own view table — the one :class:`~repro.serve.cluster.RemoteView`
record per view that ``view()`` returns, migration flips and recovery
replays in registration order.  The rows are exactly re-derivable from
the command stream the client already routed: the
:class:`CommandJournal` mirrors them as the stream flows, and the
:class:`~repro.serve.supervisor.Supervisor` has the client reconcile a
freshly spawned worker against that mirror.  Handle state is
deliberately *not* journaled: cursors and subscriptions are cheap to
re-open (O(1) by the paper's guarantees), so recovery reports them
precisely (:class:`~repro.errors.WorkerRecoveredError`) instead of
pretending the crash never happened.

The journal is **net-effect compacted**, the same idea as
:func:`repro.storage.updates.compress_commands`: instead of an
append-only command log (O(commands) memory — unbounded for a
long-lived cluster), it folds every insert/delete into a per-relation
live-row set (O(data) memory — a bounded mirror of the cluster's
relation state).  Replaying a relation is then one bulk insert of its
live rows, which is also the fastest possible recovery path: the
worker's engines bulk-load once instead of re-running history.

The ``epoch`` counter stamps recoveries: it bumps once per recovered
worker, and every :class:`~repro.errors.WorkerRecoveredError` carries
the epoch so clients can correlate dangling handles with the recovery
that orphaned them.

Thread-safety: all mutators take the journal lock — writers on many
threads (and the supervisor reading mid-recovery) see a consistent
row set.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Set, Tuple

from repro.storage.database import Row
from repro.storage.updates import UpdateCommand

__all__ = ["CommandJournal"]


class CommandJournal:
    """Net-effect journal of a cluster's updates: the row mirror.

    Attach one to a :class:`~repro.serve.cluster.ClusterClient`
    (``cluster.client(journal=...)`` or ``Session.serve(...,
    supervise=True)``) and it records every update, stream chunk and
    batch *before* the client dispatches it.  Recovery reconciles a
    respawned worker against :meth:`rows`, which is also handy
    introspection for tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: Dict[str, Set[Row]] = {}
        #: recovery epoch — bumped once per recovered worker.
        self.epoch = 0
        #: total update commands folded in (observability).
        self.commands_seen = 0

    # -- updates ------------------------------------------------------------

    def record(self, command: UpdateCommand) -> bool:
        """Fold one command into the net row state.

        Returns whether the command was *effective* (inserted a row not
        present / deleted one that was).  Because the journal mirrors
        the cluster's set semantics exactly, this verdict is the
        authoritative ``changed`` flag for a supervised client: a
        retried command whose first attempt (or recovery backfill)
        already landed folds to no-op here, exactly as the cluster's
        net state says it should.
        """
        with self._lock:
            return self._fold(command)

    def record_many(self, commands: Iterable[UpdateCommand]) -> List[bool]:
        """Fold a chunk/batch (one lock acquisition); per-command
        effectiveness, as in :meth:`record`."""
        with self._lock:
            return [self._fold(command) for command in commands]

    def _fold(self, command: UpdateCommand) -> bool:
        rows = self._rows.setdefault(command.relation, set())
        if command.op == "insert":
            effective = command.row not in rows
            rows.add(command.row)
        else:
            effective = command.row in rows
            rows.discard(command.row)
        self.commands_seen += 1
        return effective

    def forget_relation(self, relation: str) -> None:
        """Drop a relation's mirror (it left every view's scope)."""
        with self._lock:
            self._rows.pop(relation, None)

    # -- recovery reads ------------------------------------------------------

    def rows(self, relation: str) -> List[Row]:
        """A relation's live rows, deterministically ordered (matches
        ``Server.relation_rows`` so replays are comparable)."""
        with self._lock:
            return sorted(self._rows.get(relation, ()), key=repr)

    def relations(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._rows))

    def bump_epoch(self) -> int:
        with self._lock:
            self.epoch += 1
            return self.epoch

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CommandJournal(relations={len(self._rows)}, "
                f"rows={sum(len(r) for r in self._rows.values())}, "
                f"epoch={self.epoch}, seen={self.commands_seen})"
            )
