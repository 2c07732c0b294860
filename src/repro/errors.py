"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing genuine programming errors.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

__all__ = [
    "ReproError",
    "QuerySyntaxError",
    "QueryStructureError",
    "SchemaError",
    "NotQHierarchicalError",
    "UpdateError",
    "EngineStateError",
    "CursorInvalidatedError",
    "ReductionError",
    "TransportError",
    "ConnectionClosedError",
    "FrameTooLargeError",
    "ClusterError",
    "WorkerCrashedError",
    "WorkerRecoveredError",
    "DeadlineExceededError",
    "SnapshotInvalidatedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every subclass exposes :attr:`details` — a plain dict of the
    error's structured context (worker index, epochs, elapsed time,
    …) — so supervised-retry logs and test assertions can inspect
    fields instead of string-parsing messages.  ``repr()`` renders the
    message plus the same fields.
    """

    @property
    def details(self) -> Dict[str, object]:
        """Structured context for this error as a plain dict."""
        return dict(self._details())

    def _details(self) -> Dict[str, object]:
        return {}

    def __repr__(self) -> str:
        extras = "".join(
            f", {key}={value!r}" for key, value in self._details().items()
        )
        return f"{type(self).__name__}({str(self)!r}{extras})"


class QuerySyntaxError(ReproError):
    """Raised when a textual conjunctive query cannot be parsed."""


class QueryStructureError(ReproError):
    """Raised when a query object violates a structural requirement.

    Examples: a free variable that does not occur in any atom, duplicate
    free variables, or an atom over a relation used with two different
    arities.
    """


class SchemaError(ReproError):
    """Raised on schema violations (unknown relation, arity mismatch)."""


class NotQHierarchicalError(ReproError):
    """Raised when the dynamic engine of Section 6 is given a query that
    is not q-hierarchical.

    The exception carries the violation witness (see
    :class:`repro.cq.analysis.QHierarchicalViolation`) when available so
    that callers can explain *why* the query is outside the tractable
    class of Theorem 3.2.
    """

    def __init__(self, message: str, violation: object = None):
        super().__init__(message)
        self.violation = violation

    def _details(self) -> Dict[str, object]:
        return {"violation": self.violation}


class UpdateError(ReproError):
    """Raised when an update command is malformed (bad arity, unknown
    relation for the engine's schema)."""


class EngineStateError(ReproError):
    """Raised when an engine routine is called in an invalid state, e.g.
    ``enumerate`` before ``preprocess``."""


class CursorInvalidatedError(EngineStateError):
    """Raised when a serving-layer cursor is fetched after an update
    invalidated it.

    Carries the precise invalidation report (a
    :class:`repro.serve.cursors.CursorInvalidation`: the epochs, the
    first invalidating command and how many tuples had been fetched) so
    clients can decide whether to reopen, re-bind, or fall back to a
    snapshot cursor.
    """

    def __init__(self, message: str, invalidation: object = None):
        super().__init__(message)
        self.invalidation = invalidation

    def _details(self) -> Dict[str, object]:
        report = self.invalidation
        if report is None:
            return {}
        out: Dict[str, object] = {}
        fields = ("view", "opened_epoch", "invalidated_epoch", "fetched", "command")
        if isinstance(report, Mapping):
            for field in fields:
                if field in report:
                    out[field] = report[field]
        else:
            for field in fields:
                if hasattr(report, field):
                    out[field] = getattr(report, field)
        return out


class TransportError(ReproError):
    """Raised on wire-protocol violations in the cluster transport
    (oversized or truncated frames, undecodable or corrupted payloads,
    an unknown codec name)."""


class ConnectionClosedError(TransportError):
    """Raised when the peer of a cluster connection went away — EOF on
    a frame boundary or mid-frame.  The usual symptom of a crashed
    shard worker; :class:`repro.serve.cluster.ClusterClient` converts
    it into a :class:`WorkerCrashedError` naming the shard."""


class FrameTooLargeError(TransportError):
    """Raised when an *outgoing* payload exceeds the frame cap.  The
    check runs before any byte hits the wire, so the connection — and
    the worker behind it — is still healthy: the client reports this
    to the caller instead of condemning the channel."""


class ClusterError(ReproError):
    """Raised when a multiprocess shard cluster operation fails as a
    whole (a two-phase batch that had to roll back, a worker that never
    came up, a barrier timeout)."""


class WorkerCrashedError(ClusterError):
    """Raised when a shard worker process died (or its connection
    broke) while the client needed it.

    Carries ``worker`` (the shard index) and ``views`` (the view names
    that shard was serving) so callers know exactly which handles are
    lost; cursors and subscriptions on other shards stay valid.
    """

    def __init__(self, message: str, worker: int = -1, views: object = None):
        super().__init__(message)
        self.worker = worker
        self.views = tuple(views or ())

    def _details(self) -> Dict[str, object]:
        return {"worker": self.worker, "views": self.views}


class WorkerRecoveredError(ClusterError):
    """Raised when a handle (cursor, subscription) is used after its
    shard worker died and was **recovered** by the supervisor.

    The worker is alive again and its views were re-registered and
    backfilled from the command journal, but server-side handle state
    (cursor positions, subscription outboxes) did not survive the
    crash.  Carries ``worker`` (the shard index), ``views`` (the view
    names re-registered on the recovered worker) and ``journal_epoch``
    (the journal's recovery epoch) so clients can re-open through the
    existing revalidation path: reopen the cursor / resubscribe, then
    rematerialise anything the lost deltas covered.
    """

    def __init__(
        self,
        message: str,
        worker: int = -1,
        views: object = None,
        journal_epoch: int = 0,
    ):
        super().__init__(message)
        self.worker = worker
        self.views = tuple(views or ())
        self.journal_epoch = journal_epoch

    def _details(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "views": self.views,
            "journal_epoch": self.journal_epoch,
        }


class DeadlineExceededError(ClusterError):
    """Raised when a cluster RPC did not complete within its deadline.

    A *clean* deadline on the multiplexed channel (the waiter is
    unparked and any late reply is dropped) is retry-safe for
    idempotent reads — :class:`repro.serve.cluster.ClusterClient`
    retries those with jittered backoff up to its ``retry_budget``
    before surfacing this error.

    Carries ``op`` (the request op that missed its deadline),
    ``worker`` (the shard index, ``-1`` below the cluster layer),
    ``elapsed`` (seconds spent, including any retries) and
    ``attempts`` (send attempts made).
    """

    def __init__(
        self,
        message: str,
        op: Optional[str] = None,
        worker: int = -1,
        elapsed: float = 0.0,
        attempts: int = 1,
    ):
        super().__init__(message)
        self.op = op
        self.worker = worker
        self.elapsed = elapsed
        self.attempts = attempts

    def _details(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "worker": self.worker,
            "elapsed": self.elapsed,
            "attempts": self.attempts,
        }


class SnapshotInvalidatedError(ClusterError):
    """Raised when a cross-shard snapshot could not be pinned, or a
    worker involved in one died without a supervisor to recover it.

    Carries ``worker`` (the shard whose state broke the cut, ``-1``
    when no single shard is to blame), ``expected_epochs`` (the
    per-view epochs the cut was pinned at) and ``observed_epochs``
    (the epochs seen on the validation probe) so callers can tell a
    lost worker from a write-rate the pin budget could not outrun.
    """

    def __init__(
        self,
        message: str,
        worker: int = -1,
        expected_epochs: Optional[Mapping[str, int]] = None,
        observed_epochs: Optional[Mapping[str, int]] = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.worker = worker
        self.expected_epochs = dict(expected_epochs or {})
        self.observed_epochs = dict(observed_epochs or {})
        self.attempts = attempts

    def _details(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "expected_epochs": self.expected_epochs,
            "observed_epochs": self.observed_epochs,
            "attempts": self.attempts,
        }


class ReductionError(ReproError):
    """Raised when a lower-bound reduction cannot be applied, e.g. the
    query supplied to the OuMv reduction is q-hierarchical and therefore
    has no violation witness to encode."""
