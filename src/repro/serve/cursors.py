"""Resumable cursors: stateful constant-delay enumeration handles.

A :class:`Cursor` pages through a live view's result with
:meth:`~Cursor.fetch`, holding its position between calls — resuming a
page costs O(1) per tuple (the underlying Algorithm 1 walk is simply
suspended, never restarted), which is what makes the paper's
constant-delay guarantee usable by clients that consume results
incrementally instead of rematerialising.

Interleaved updates are handled with the engine's epoch stamp
(:attr:`repro.interface.DynamicEngine.epoch`, bumped once per effective
update) plus the O(δ) result delta the session already derives per
update:

* updates to relations the view does not mention leave the epoch — and
  the suspended walk — untouched, so the cursor **resumes safely**;
* an update that touches the view but whose result delta stays *at or
  after the cursor's frontier* — an **empty delta** (the result did not
  move), or added/removed tuples none of which the cursor has emitted
  yet — **revalidates** the cursor instead of killing it: the consumed
  prefix is still a subset of the post-update result, so the cursor
  re-anchors its walk on the updated structure and keeps enumerating
  (the rebuilt walk skips the already-emitted prefix in O(1) per
  skipped tuple, paid once per surviving write, then resumes constant
  delay).  :attr:`Cursor.revalidations` counts these survivals;
* an update that **removes an already-emitted tuple** is genuinely
  invalidating — the client has observed a row that left the result —
  and the next fetch raises
  :class:`~repro.errors.CursorInvalidatedError` carrying a
  :class:`CursorInvalidation` report (opened/invalidated epochs, the
  first invalidating command, tuples fetched so far).  The same happens
  when no delta is available (engines whose delta derivation would cost
  O(|result|) per write and that nobody subscribed to);
* a **snapshot** cursor (``snapshot=True``) instead pins the pre-update
  result: the first touching update drains the cursor's remaining
  tuples into a buffer *before* the engine mutates — O(remaining) paid
  once, only when writer traffic actually interleaves.

A revalidated cursor enumerates exactly the *post-update* result: the
already-emitted prefix (all still present, or the cursor would have
been invalidated) plus the not-yet-emitted remainder in the engine's
fresh enumeration order.  Tuples added by surviving writes therefore
appear in the remainder even when the engine's global order would have
placed them before the frontier — the cursor linearises them after what
its client has already consumed.

Parameter binding (``view.cursor(X=c)``) restricts enumeration to the
given output values.  The bound set is classified as an access pattern
(:mod:`repro.api.access`): ancestor-closed sets are pinned with O(1)
item probes through the q-tree, other tractable patterns are served
from a maintained binding index (O(1) hash probe, O(δ) upkeep per
update), and only the recompute baseline falls back to a filtered scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse, islice
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import CursorInvalidatedError, EngineStateError
from repro.storage.database import Constant, Row
from repro.storage.updates import UpdateCommand

__all__ = ["Cursor", "CursorInvalidation", "bound_stream"]


def bound_stream(engine, binding: Optional[Dict[str, Constant]]) -> Iterator[Row]:
    """The engine's result stream under an output-variable binding
    (every :class:`~repro.interface.DynamicEngine` has
    ``enumerate_bound``: q-tree pinning, a binding index, or a filtered
    scan — its choice, not this layer's)."""
    if not binding:
        return engine.enumerate()
    return engine.enumerate_bound(binding)


@dataclass(frozen=True)
class CursorInvalidation:
    """Why a cursor stopped being resumable — the precise report.

    ``command`` is the first update that genuinely invalidated the view
    for this cursor after it opened (None only when the engine was
    mutated directly, bypassing the session)."""

    view: str
    opened_epoch: int
    invalidated_epoch: int
    command: Optional[UpdateCommand]
    fetched: int

    def describe(self) -> str:
        cause = (
            f"'{self.command}'"
            if self.command is not None
            else "an unmanaged engine mutation"
        )
        return (
            f"cursor on view {self.view!r} opened at epoch "
            f"{self.opened_epoch} was invalidated at epoch "
            f"{self.invalidated_epoch} by {cause} after "
            f"{self.fetched} fetched tuple(s); reopen to observe the "
            "new result, or use snapshot=True to pin pre-update results"
        )


class Cursor:
    """A resumable enumeration handle over a registered view.

    Obtained via :meth:`repro.api.session.View.cursor`; not constructed
    directly by clients.  ``fetch(n)`` returns the next ``n`` tuples
    (fewer at the end of the result; ``[]`` once exhausted), in the
    engine's enumeration order, without ever restarting the walk.
    """

    def __init__(
        self,
        view,
        binding: Optional[Dict[str, Constant]] = None,
        snapshot: bool = False,
        pattern=None,
    ):
        self._view = view
        self.binding: Dict[str, Constant] = dict(binding or {})
        #: the classified :class:`repro.api.access.AccessPattern` this
        #: cursor's binding was served under (None when unbound) — its
        #: key labels the per-pattern delay percentiles in explain().
        self.pattern = pattern
        self.snapshot = snapshot
        self.opened_epoch: int = view.epoch
        # bound_stream (and every engine's enumerate_bound behind it)
        # validates the binding names eagerly, so a bad cursor open
        # raises QueryStructureError here, before registration.
        self._stream: Optional[Iterator[Row]] = bound_stream(
            view.engine, self.binding
        )
        self._buffer: Optional[List[Row]] = None  # snapshot drain target
        self._buffer_pos = 0
        self._fetched = 0
        #: every row handed out so far — the cursor's frontier.  Used by
        #: delta-aware revalidation (was an emitted row removed?) and by
        #: the rebuilt walk to skip the consumed prefix in O(1) probes.
        self._emitted: Set[Row] = set()
        self._needs_rebuild = False
        #: survivals of beyond-frontier writes — kept as a plain per-
        #: cursor attribute (the public accessor) and mirrored into the
        #: session registry's per-view revalidation counter.
        self.revalidations = 0
        self._exhausted = False
        self._closed = False
        self._invalidation: Optional[CursorInvalidation] = None
        # Observability (repro.obs): the view's guarantee probe carries
        # the per-view cursor instruments (pages, revalidations,
        # invalidations, opens) and is fed per-tuple delay from served
        # pages.  None when the owning session runs observe=False.
        self._probe = getattr(view, "_probe", None)
        if self._probe is not None:
            self._probe.cursors_opened.inc()
        view._register_cursor(self)

    # -- state ----------------------------------------------------------------

    @property
    def view(self):
        return self._view

    @property
    def fetched(self) -> int:
        """Number of tuples handed out so far."""
        return self._fetched

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def valid(self) -> bool:
        return self._invalidation is None and not self._closed

    @property
    def invalidation(self) -> Optional[CursorInvalidation]:
        """The precise invalidation report, or None while resumable."""
        return self._invalidation

    # -- fetching -------------------------------------------------------------

    def fetch(self, n: int) -> List[Row]:
        """The next ``n`` result tuples; ``[]`` when exhausted.

        Raises :class:`CursorInvalidatedError` (with the precise
        report) if an update genuinely invalidated this cursor —
        removed an already-emitted tuple, or touched the view without
        delta information — and the cursor is not in snapshot mode.
        """
        if n < 0:
            raise EngineStateError(f"fetch size must be >= 0, got {n}")
        self._check_valid()
        if self._exhausted or n == 0:
            return []
        probe = self._probe
        started = perf_counter() if probe is not None else 0.0
        if self._buffer is not None:
            page = self._buffer[self._buffer_pos : self._buffer_pos + n]
            self._buffer_pos += len(page)
            if self._buffer_pos >= len(self._buffer):
                self._finish()
        else:
            if self._needs_rebuild:
                self._rebuild_stream()
            try:
                page = list(islice(self._stream, n))
            except EngineStateError as error:
                # Defensive: direct engine mutation bypassing the
                # session cannot be epoch-tracked, but the structure's
                # own version guard still fails loudly.
                self._invalidate_unmanaged()
                raise CursorInvalidatedError(
                    self._invalidation.describe()
                    if self._invalidation
                    else str(error),
                    self._invalidation,
                ) from error
            if len(page) < n:
                self._finish()
        self._fetched += len(page)
        self._emitted.update(page)
        if probe is not None and page:
            elapsed = perf_counter() - started
            probe.page_hist.observe(elapsed)
            # Result size feeds the drift check; count() is O(1)
            # precisely for the engines that promise constant delay
            # (the only ones drift judges), so the probe never pays a
            # recompute-style full evaluation here.
            size = self._view.count() if probe.constant_delay else 0
            probe.record_page(elapsed, len(page), size)
            if self.pattern is not None:
                probe.record_bound_page(self.pattern.key, elapsed, len(page))
        return page

    def fetch_all(self) -> List[Row]:
        """Drain the remaining tuples in one call."""
        out: List[Row] = []
        while True:
            page = self.fetch(1024)
            if not page:
                return out
            out.extend(page)

    def __iter__(self) -> Iterator[Row]:
        while True:
            page = self.fetch(256)
            if not page:
                return
            yield from page

    def close(self) -> None:
        """Release the cursor (idempotent)."""
        if not self._closed:
            self._closed = True
            self._stream = None
            self._buffer = None
            self._view._drop_cursor(self)

    def _finish(self) -> None:
        self._exhausted = True
        self._stream = None
        self._buffer = None
        self._view._drop_cursor(self)

    def _check_valid(self) -> None:
        if self._closed:
            raise EngineStateError("cursor is closed")
        if self._invalidation is not None:
            raise CursorInvalidatedError(
                self._invalidation.describe(), self._invalidation
            )

    def _rebuild_stream(self) -> None:
        """Re-anchor the walk on the updated engine structure.

        The suspended generator walked enumeration structures that a
        surviving write has since mutated — resuming it is undefined.
        A fresh walk filtered by the emitted set yields exactly the
        not-yet-consumed tuples of the *current* result: O(1) per
        skipped tuple for the consumed prefix (at C speed — no Python
        frame per skipped row), constant delay after.
        """
        fresh = bound_stream(self._view.engine, self.binding)
        self._stream = filterfalse(self._emitted.__contains__, fresh)
        self._needs_rebuild = False

    # -- update notifications (called by the owning view) ---------------------

    def _before_view_update(self, command: UpdateCommand) -> None:
        """Pre-mutation hook: snapshot cursors pin their remainder now."""
        if self._exhausted or self._closed or self._invalidation is not None:
            return
        if self.snapshot and self._buffer is None:
            self._buffer = list(self._stream)
            self._buffer_pos = 0
            self._stream = None

    def _after_view_update(
        self,
        command: UpdateCommand,
        delta: Optional[Tuple[Tuple[Row, ...], Tuple[Row, ...]]] = None,
    ) -> None:
        """Post-mutation hook: revalidate against the delta, or record
        the invalidation.

        ``delta`` is the update's ``(added, removed)`` result change
        when the session derived one (a subscriber asked for it, or the
        engine derives it in O(poly(ϕ) + δ) anyway); None means no
        delta information exists and the cursor must assume the worst.
        """
        if self._exhausted or self._closed or self._invalidation is not None:
            return
        if self.snapshot:
            return  # pinned: keeps serving the pre-update result
        if delta is not None:
            removed = delta[1]
            emitted = self._emitted
            if not any(row in emitted for row in removed):
                # The consumed prefix is intact and every delta tuple
                # sits at/after the frontier: survive in place.
                self.revalidations += 1
                if self._probe is not None:
                    self._probe.revalidations.inc()
                self._needs_rebuild = True
                self._stream = None
                return
        if self._probe is not None:
            self._probe.invalidations.inc()
        self._invalidation = CursorInvalidation(
            view=self._view.name,
            opened_epoch=self.opened_epoch,
            invalidated_epoch=self._view.epoch,
            command=command,
            fetched=self._fetched,
        )
        self._stream = None
        self._view._drop_cursor(self)

    def _invalidate_unmanaged(self) -> None:
        if self._invalidation is None:
            self._invalidation = CursorInvalidation(
                view=self._view.name,
                opened_epoch=self.opened_epoch,
                invalidated_epoch=self._view.epoch,
                command=None,
                fetched=self._fetched,
            )
            self._stream = None
            self._view._drop_cursor(self)

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else "invalid"
            if self._invalidation is not None
            else "exhausted"
            if self._exhausted
            else "open"
        )
        bind = f", bind={self.binding}" if self.binding else ""
        snap = ", snapshot" if self.snapshot else ""
        reval = (
            f", revalidations={self.revalidations}"
            if self.revalidations
            else ""
        )
        return (
            f"Cursor({self._view.name!r}, {state}, epoch="
            f"{self.opened_epoch}, fetched={self._fetched}{bind}{snap}"
            f"{reval})"
        )
