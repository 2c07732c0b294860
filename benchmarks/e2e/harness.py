"""The untraced run: set up, drive the units, check outputs, aggregate.

Load shape: closed loop from this one process, one writer thread and at
most one reader thread (the box has two cores; two writer threads in one
interpreter measure the GIL scheduler).  ``cluster_reads`` alone has an
open-loop writer, paced at :data:`workloads.TRICKLE_RATE`.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.session import Session
from repro.errors import CursorInvalidatedError, ReproError
from repro.serve.cluster import ShardCluster
from repro.serve.server import Server
from repro.storage.updates import UpdateCommand

from . import measure
from .workloads import CHUNK, READ_EVERY, TRICKLE_RATE, Inputs, Row, Spec

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: writes of the paced writer that form one unit of its samples
WRITER_UNIT = 50
#: read-mix units the reader of ``cluster_reads`` starts per second
READER_UNITS_PER_S = 4
#: a run that is slower than this multiple of ``--seconds`` stops early
OVERRUN = 1.3


class SessionDoor:
    """The embedded :class:`Session` behind the method names the two
    served front doors share, so one driver loop serves all three."""

    def __init__(self) -> None:
        self.session = Session()
        self._handles: Dict[int, object] = {}
        self._next = 1

    def _keep(self, handle: object) -> int:
        self._handles[self._next] = handle
        self._next += 1
        return self._next - 1

    def view(self, name: str, query: object) -> None:
        self.session.view(name, query)

    def preload(self, spec: Spec, commands: Sequence[UpdateCommand]) -> None:
        """The bulk path: rows enter a session that has the schema but
        no views, then each view registers over the loaded store."""
        for name, _query in spec.views:
            self.session.drop_view(name)
        self.session.apply_all(commands)
        for name, query in spec.views:
            self.session.view(name, query)

    def apply(self, command: UpdateCommand) -> bool:
        return self.session.apply(command)

    def apply_all(self, commands: Sequence[UpdateCommand]) -> int:
        return self.session.apply_all(commands)

    def count(self, view: str) -> int:
        return self.session[view].count()

    def contains(self, view: str, row: Row) -> bool:
        return self.session[view].contains(row)

    def result_set(self, view: str) -> Set[Row]:
        return self.session[view].result_set()

    def epochs(self) -> Dict[str, int]:
        return {view.name: view.epoch for view in self.session.views}

    def open_cursor(self, view: str, **binding: int) -> int:
        return self._keep(self.session[view].cursor(**binding))

    def fetch(self, cursor: int, n: int) -> List[Row]:
        return self._handles[cursor].fetch(n)  # type: ignore[attr-defined]

    def close_cursor(self, cursor: int) -> None:
        self._handles.pop(cursor).close()  # type: ignore[attr-defined]

    def subscribe(self, view: str, callback: Callable[[object], None]) -> int:
        return self._keep(self.session[view].subscribe(callback=callback))

    def poll(self, subscription: int) -> List[object]:
        return self._handles[subscription].poll()  # type: ignore[attr-defined]

    def unsubscribe(self, subscription: int) -> None:
        self._handles.pop(subscription).close()  # type: ignore[attr-defined]

    def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


def open_door(kind: str) -> object:
    """An empty front door of the workload's kind."""
    if kind == "session":
        return SessionDoor()
    if kind == "server":
        return Server(shards=2)
    cluster = ShardCluster(workers=2)
    try:
        client = cluster.client()
    except BaseException:
        cluster.close()
        raise
    client.owns_cluster = True  # close() then stops the workers too
    return client


def worker_pids(door: object) -> List[int]:
    stats = getattr(door, "cluster_stats", None)
    if stats is None:
        return []
    return [
        int(entry["pid"])
        for key, entry in stats().items()
        if isinstance(key, int) and entry is not None
    ]


class Failures:
    """Calls that raised or returned wrong output, against attempts."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str, view: str = "-") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, view)

    def fail(self, what: str, view: str = "-") -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(
                f"workload={self.spec.name} seed={self.seed} view={view}: {what}"
            )


def effective_count(changed: object) -> int:
    """How many commands a write call reported effective (the doors
    answer with a count or with one flag per command)."""
    if isinstance(changed, int):
        return changed
    return sum(1 for effective in changed if effective)  # type: ignore[union-attr]


class PacedWriter(threading.Thread):
    """The open-loop writer: sends ``commands`` one ``send`` call each,
    TRICKLE_RATE per second, whatever the system's speed.  A write is
    timed from when it was *due*, so a stall counts against every
    write it delayed; ``late`` counts sends that started when the next
    one was already due."""

    def __init__(self, commands: Sequence[UpdateCommand], send: Callable[[UpdateCommand], None]):
        super().__init__(name="e2e-writer")
        self.commands = commands
        self.send = send
        self.due_ns: List[int] = []
        self.latency_us: List[float] = []
        self.late = 0
        self.wall_ns = 1
        self.done = threading.Event()

    def run(self) -> None:
        interval_ns = int(1e9 / TRICKLE_RATE)
        origin = perf_counter_ns() + interval_ns
        try:
            for index, command in enumerate(self.commands):
                due = origin + index * interval_ns
                wait = due - perf_counter_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                elif -wait > interval_ns:
                    self.late += 1
                self.send(command)
                self.latency_us.append((perf_counter_ns() - due) / 1e3)
                self.due_ns.append(due)
            self.wall_ns = perf_counter_ns() - origin
        finally:
            self.done.set()


class Run:
    """One workload's state across set-up, units and checks."""

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.spec = inputs.spec
        self.failures = Failures(inputs.spec, seed)
        self.door: object = None
        self.commands = inputs.commands
        #: (callback time ns, Delta) appended by subscriber callbacks
        self.delta_log: List[Tuple[int, object]] = []
        self.subscriptions: Dict[str, int] = {}
        self.epoch0: Dict[str, int] = {}
        self.replica: Dict[str, Set[Row]] = {}
        #: per metric family, one list of samples per unit
        self.samples: Dict[str, List[List[float]]] = {}
        self.unit_rates: List[float] = []
        self.protocol_events = {"invalidations": 0, "reopens": 0}
        self.extras: Dict[str, float] = {}
        self.views_of = inputs.spec.views_of_relation()
        #: server_point reads between its writes; the others after a unit
        self.reads_after_unit = inputs.spec.forward[0][0] != "point"

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Empty -> front door up, views registered, subscribers on,
        preload applied, first ``count`` verified.  Returns seconds."""
        spec, inputs = self.spec, self.inputs
        started = time.perf_counter()
        door = self.door = open_door(spec.door)
        for name, query in spec.views:
            door.view(name, query)
        if spec.door == "session":
            door.preload(spec, inputs.preload)
        else:
            door.batch(inputs.preload)
        self.subscriptions = {
            name: door.subscribe(name, callback=self._on_delta)
            for name in spec.subscribed
        }
        counts = {name: door.count(name) for name, _ in spec.views}
        elapsed = time.perf_counter() - started
        for name, count in counts.items():
            self.failures.check(
                count == len(inputs.oracle[name]),
                f"count after preload is {count}, oracle {len(inputs.oracle[name])}",
                name,
            )
        self.replica = {name: set(inputs.oracle[name]) for name in spec.delta_views}
        self.delta_log = []
        return elapsed

    def _on_delta(self, delta: object) -> None:
        self.delta_log.append((perf_counter_ns(), delta))

    def close(self) -> None:
        if self.door is not None:
            self.door.close()
            self.door = None

    # -- sample bookkeeping ------------------------------------------------------

    def open_unit(self) -> None:
        for per_unit in self.samples.values():
            per_unit.append([])

    def add(self, family: str, value: float) -> None:
        per_unit = self.samples.get(family)
        if per_unit is None:
            per_unit = self.samples[family] = [[]]
        per_unit[-1].append(value)

    # -- writes ----------------------------------------------------------------

    def write_unit(self) -> None:
        """Send one unit through the front door in the workload's write
        mode; afterwards the store is back at the preloaded state."""
        issue_ns: List[int] = []
        write_ns = 0
        if self.subscriptions:
            self.epoch0 = dict(self.door.epochs())
        for mode, segment in self.inputs.unit:
            if mode == "stream":
                write_ns += self._write_stream(segment, issue_ns)
            elif mode == "point":
                write_ns += self._write_points(segment, issue_ns)
            else:
                write_ns += self._write_batch(segment, issue_ns)
        self.unit_rates.append(len(issue_ns) / (write_ns / 1e9))
        self.settle(self.commands, self.inputs.touch, issue_ns)
        if self.reads_after_unit:
            self.read_probe()

    def _write_stream(self, segment: List[UpdateCommand], issue_ns: List[int]) -> int:
        starts: List[int] = []

        def stamped():
            # The client pulls CHUNK commands, then sends them: the pull
            # of a chunk's first command is that chunk's call start.
            for index, command in enumerate(segment):
                if index % CHUNK == 0:
                    starts.append(perf_counter_ns())
                yield command

        begun = perf_counter_ns()
        try:
            changed = self.door.apply_stream(stamped(), chunk=CHUNK)
        except ReproError as error:
            self.failures.fail(f"apply_stream raised {error!r}")
            changed = -1
        ended = perf_counter_ns()
        self.failures.check(
            changed == len(segment),
            f"apply_stream acknowledged {changed} of {len(segment)} effective commands",
        )
        starts.append(ended)
        for chunk in range(len(starts) - 1):
            size = min(CHUNK, len(segment) - chunk * CHUNK)
            self.add("update_us", (starts[chunk + 1] - starts[chunk]) / size / 1e3)
            issue_ns.extend([starts[chunk]] * size)
        return ended - begun

    def _write_points(self, segment: List[UpdateCommand], issue_ns: List[int]) -> int:
        door, failures = self.door, self.failures
        total = 0
        for index, command in enumerate(segment):
            begun = perf_counter_ns()
            try:
                changed = door.apply(command)
            except ReproError as error:
                failures.fail(f"apply({command}) raised {error!r}")
                changed = True
            ended = perf_counter_ns()
            failures.attempted += 1
            if not changed:
                failures.fail(f"apply({command}) was not effective")
            issue_ns.append(begun)
            total += ended - begun
            self.add("update_us", (ended - begun) / 1e3)
            if index % READ_EVERY == READ_EVERY - 1:
                # The paper's "restart enumeration within constant time":
                # a first page on the view just written, right after the ack.
                self.read_view(self.views_of[command.relation][0], pages=2)
        return total

    def _write_batch(self, segment: List[UpdateCommand], issue_ns: List[int]) -> int:
        begun = perf_counter_ns()
        try:
            changed = self.door.apply_all(segment)
        except ReproError as error:
            self.failures.fail(f"apply_all raised {error!r}")
            changed = -1
        ended = perf_counter_ns()
        self.failures.check(
            effective_count(changed) == len(segment),
            f"apply_all acknowledged {changed} of {len(segment)} effective commands",
        )
        self.add("update_us", (ended - begun) / len(segment) / 1e3)
        issue_ns.extend([begun] * len(segment))
        return ended - begun

    # -- deltas ----------------------------------------------------------------

    def settle(
        self,
        commands: Sequence[UpdateCommand],
        touch: Dict[str, List[int]],
        issue_ns: Sequence[int],
    ) -> None:
        """After some writes: wait for every delta, match each to the
        command that caused it (by view epoch — every command is
        effective, so a view's epoch moves by one per command touching
        it — on this process's clock), replay it onto the subscriber's
        replica, empty the outboxes.  Not timed."""
        door = self.door
        door.drain()
        for handle in self.subscriptions.values():
            door.poll(handle)
        log, self.delta_log = self.delta_log, []
        failures = self.failures
        for arrived_ns, delta in log:
            view = delta.view
            position = delta.epoch - self.epoch0[view] - 1
            failures.attempted += 1
            if not 0 <= position < len(touch[view]):
                failures.fail(f"delta at epoch {delta.epoch} matches no command", view)
                continue
            index = touch[view][position]
            if delta.command != commands[index]:
                failures.fail(
                    f"delta at epoch {delta.epoch} carries {delta.command}, "
                    f"command {index} of the unit is {commands[index]}",
                    view,
                )
                continue
            lag_ms = (arrived_ns - issue_ns[index]) / 1e6
            self.add("delta_lag_ms", lag_ms)
            self.add("delta_lag_ms/" + view, lag_ms)
            replica = self.replica[view]
            added, removed = set(delta.added), set(delta.removed)
            if added & replica or removed - replica:
                failures.fail(f"delta at epoch {delta.epoch} does not apply", view)
            replica |= added
            replica -= removed

    def delta_probe(self) -> None:
        """On a workload whose writes run unsubscribed: subscribe one
        view, send a few single writes and their undo, unsubscribe —
        write call start to callback, without taxing the batch path."""
        view, door, failures = self.spec.delta_probe, self.door, self.failures
        commands = self.inputs.probe
        handle = door.subscribe(view, callback=self._on_delta)
        self.subscriptions = {view: handle}
        self.epoch0 = dict(door.epochs())
        issue_ns: List[int] = []
        for command in commands:
            issue_ns.append(perf_counter_ns())
            failures.check(door.apply(command), f"apply({command}) was not effective", view)
        self.settle(commands, {view: list(range(len(commands)))}, issue_ns)
        door.unsubscribe(handle)
        self.subscriptions = {}

    # -- reads -----------------------------------------------------------------

    def read_view(self, view: str, pages: int, check: bool = False) -> None:
        """``count``, then a first page (open + fetch) and ``pages - 1``
        further pages on one view."""
        door, failures, page = self.door, self.failures, self.spec.page
        begun = perf_counter_ns()
        try:
            count = door.count(view)
            counted = perf_counter_ns()
            cursor = door.open_cursor(view)
            opened = perf_counter_ns()
            rows = door.fetch(cursor, page)
            first = perf_counter_ns()
            if not check:
                self.add("count_us", (counted - begun) / 1e3)
            self.add("first_page_ms", (first - counted) / 1e6)
            self.add("page_ms", (first - opened) / 1e6)
            fetched, paging_ns = len(rows), first - opened
            for _ in range(pages - 1):
                if len(rows) < page:
                    break
                begun = perf_counter_ns()
                rows = door.fetch(cursor, page)
                ended = perf_counter_ns()
                self.add("page_ms", (ended - begun) / 1e6)
                fetched += len(rows)
                paging_ns += ended - begun
            door.close_cursor(cursor)
        except ReproError as error:
            failures.fail(f"read raised {error!r}", view)
            return
        failures.attempted += 2 + pages
        self.add("tuples", fetched)
        self.add("paging_ns", paging_ns)
        if check:
            expected = len(self.inputs.oracle[view])
            if count != expected:
                failures.fail(f"count is {count}, oracle {expected}", view)
            if fetched > count:
                failures.fail(f"paged {fetched} tuples of a {count}-tuple result", view)

    def read_probe(self) -> None:
        """After a unit (store at the preloaded state): every view's
        count against the oracle and a few pages of each."""
        door, names = self.door, [name for name, _query in self.spec.views]
        begun = perf_counter_ns()
        for name in names:
            door.count(name)
        # one sample over all views: a single in-process count is too
        # short to time alone
        self.add("count_us", (perf_counter_ns() - begun) / len(names) / 1e3)
        for name in names:
            self.read_view(name, pages=3, check=True)
        if self.spec.delta_probe:
            self.delta_probe()

    # -- the closed-loop driver ---------------------------------------------------

    def drive(self, units: int, deadline: float) -> int:
        """One discarded warm-up unit, then up to ``units`` measured."""
        self.write_unit()
        self.samples.clear()
        self.unit_rates.clear()
        gc.collect()
        done = 0
        while done < units and time.perf_counter() < deadline:
            if done:
                self.open_unit()
            self.write_unit()
            done += 1
        return done

    # -- the read-mostly driver (cluster_reads) -------------------------------------

    def drive_reads(self) -> int:
        """A reader looping over a fixed read mix beside an open-loop
        writer that paces the unit's commands at TRICKLE_RATE/s.  The
        writer sends the whole unit whatever the system's speed, so the
        store ends at the preloaded state."""
        commands = self.commands
        reader = _Reader(self)
        reader.unit()  # discarded warm-up
        self.samples.clear()
        gc.collect()

        def send(command: UpdateCommand) -> None:
            try:
                changed = self.door.apply(command)
            except ReproError as error:
                self.failures.fail(f"apply({command}) raised {error!r}")
                return
            self.failures.check(changed, f"apply({command}) was not effective")

        self.epoch0 = dict(self.door.epochs())
        writer = PacedWriter(commands, send)
        writer.start()
        done = writer.done
        units = 0
        period = 1.0 / READER_UNITS_PER_S
        origin = time.perf_counter()
        try:
            while not done.is_set():
                # paced, like the writer: a reader running flat out
                # saturates the workers, and latency at saturation is
                # queueing noise
                wait = origin + units * period - time.perf_counter()
                if wait > 0 and done.wait(wait):
                    break
                if units:
                    self.open_unit()
                reader.unit()
                units += 1
        finally:
            writer.join()
            reader.close()
        self.unit_rates = [len(commands) / (writer.wall_ns / 1e9)]
        self.extras["writer_late_share"] = writer.late / len(commands)
        for family in [f for f in self.samples if f.startswith("delta_lag_ms")]:
            del self.samples[family]
        self.settle(commands, self.inputs.touch, writer.due_ns)
        # the writer's samples, in units of WRITER_UNIT writes; a lag
        # family (all deltas, or one view's) is cut into as many units
        latencies = writer.latency_us
        parts = max(1, round(len(latencies) / WRITER_UNIT))
        families = {"update_us": latencies}
        for family, per_unit in self.samples.items():
            if family.startswith("delta_lag_ms"):
                families[family] = per_unit[0]
        for family, values in families.items():
            self.samples[family] = [
                values[len(values) * i // parts : len(values) * (i + 1) // parts]
                for i in range(parts)
            ]
        return units


class _Reader:
    """The read mix of ``cluster_reads``: per unit and large view,
    CURSORS_PER_VIEW fresh cursors each read PAGES_PER_CURSOR pages
    deep (reopened on invalidation); then 20 counts, 20 contains and 5
    bound cursors read to the end.

    A cursor that a write revalidates re-walks its emitted prefix on
    the next fetch, so a fetch costs O(depth).  Letting one cursor run
    to the end of a 50k-tuple view made the depth — and with it every
    latency here, the writer's included — depend on when the last
    invalidation happened to fall; a fixed depth per unit makes units
    alike.  Snapshots are measured in the ladder, beside the same paced
    writer: one per unit here spent half the reader's time in pin
    back-off."""

    CURSORS_PER_VIEW = 2
    PAGES_PER_CURSOR = 5

    def __init__(self, run: Run):
        self.run = run
        self.door = run.door
        self.spec = run.spec
        self.views = list(run.spec.paged_views)
        self.turn = 0
        self.cursor: Optional[int] = None
        self.view = self.views[0]

    def close(self) -> None:
        if self.cursor is not None:
            try:
                self.door.close_cursor(self.cursor)
            except ReproError:
                pass
            self.cursor = None

    def _page(self) -> None:
        run, door, page = self.run, self.door, self.spec.page
        run.failures.attempted += 1
        try:
            if self.cursor is None:
                begun = perf_counter_ns()
                self.cursor = door.open_cursor(self.view)
                rows = door.fetch(self.cursor, page)
                ended = perf_counter_ns()
                run.add("first_page_ms", (ended - begun) / 1e6)
                run.protocol_events["reopens"] += 1
            else:
                begun = perf_counter_ns()
                rows = door.fetch(self.cursor, page)
                ended = perf_counter_ns()
        except CursorInvalidatedError:
            # a protocol event, not a failure: the writer deleted a
            # tuple this cursor had already returned
            run.protocol_events["invalidations"] += 1
            self.cursor = None
            return
        except ReproError as error:
            run.failures.fail(f"fetch raised {error!r}", self.view)
            self.cursor = None
            return
        run.add("page_ms", (ended - begun) / 1e6)
        run.add("tuples", len(rows))
        run.add("paging_ns", ended - begun)
        if len(rows) < page:
            self.close()

    def unit(self) -> None:
        run, door, inputs = self.run, self.door, self.run.inputs
        failures = run.failures
        self.turn += 1
        for self.view in self.views * self.CURSORS_PER_VIEW:
            self.close()
            for _ in range(self.PAGES_PER_CURSOR):
                self._page()
        for index in range(20):
            view = self.views[index % len(self.views)]
            begun = perf_counter_ns()
            try:
                door.count(view)
            except ReproError as error:
                failures.fail(f"count raised {error!r}", view)
            run.add("count_us", (perf_counter_ns() - begun) / 1e3)
        for index in range(20):
            view = self.views[index % len(self.views)]
            rows = inputs.present[view]
            begun = perf_counter_ns()
            try:
                door.contains(view, rows[(self.turn + index) % len(rows)])
            except ReproError as error:
                failures.fail(f"contains raised {error!r}", view)
            run.add("contains_us", (perf_counter_ns() - begun) / 1e3)
        for index in range(5):
            view = self.views[index % len(self.views)]
            values = inputs.bind_values[view]
            variable = dict(self.spec.views)[view].free[0]
            binding = {variable: values[(self.turn + index) % len(values)]}
            begun = perf_counter_ns()
            try:
                cursor = door.open_cursor(view, **binding)
                while len(door.fetch(cursor, self.spec.page)) == self.spec.page:
                    pass
                door.close_cursor(cursor)
            except CursorInvalidatedError:
                run.protocol_events["invalidations"] += 1
            except ReproError as error:
                failures.fail(f"bound read raised {error!r}", view)
            run.add("bound_read_ms", (perf_counter_ns() - begun) / 1e6)
        failures.attempted += 45


# -- output checks -------------------------------------------------------------------


def check_outputs(run: Run) -> None:
    """With the store back at the preloaded state and no writer: every
    view's ``result_set()`` equals ``eval_static.naive`` and ``count``
    its size; every subscriber's replayed log equals that set; a cursor
    paged to the end returns the result set once; a snapshot's rows
    agree with its own counts and epochs."""
    door, inputs, failures, spec = run.door, run.inputs, run.failures, run.spec
    for name, _query in spec.views:
        oracle = inputs.oracle[name]
        result = door.result_set(name)
        failures.check(
            set(result) == oracle,
            f"result_set() has {len(result)} tuples, naive evaluation {len(oracle)}",
            name,
        )
        count = door.count(name)
        failures.check(count == len(oracle), f"count() is {count}, oracle {len(oracle)}", name)
        cursor = door.open_cursor(name)
        paged: List[Row] = []
        while True:
            rows = door.fetch(cursor, 1024)
            paged.extend(tuple(row) for row in rows)
            if len(rows) < 1024:
                break
        door.close_cursor(cursor)
        failures.check(
            len(paged) == len(oracle) and set(paged) == oracle,
            f"a cursor paged {len(paged)} tuples ({len(set(paged))} distinct) "
            f"of a {len(oracle)}-tuple result",
            name,
        )
    for name in spec.delta_views:
        failures.check(
            run.replica[name] == inputs.oracle[name],
            f"subscriber log replays to {len(run.replica[name])} tuples, "
            f"oracle {len(inputs.oracle[name])}",
            name,
        )
    for name in spec.paged_views:
        for row in inputs.present[name][:8]:
            failures.check(door.contains(name, row), f"contains({row}) is False", name)
    if hasattr(door, "snapshot"):
        snapshot = door.snapshot(views=list(spec.snapshot_views))
        epochs = door.epochs()
        for name in spec.snapshot_views:
            failures.check(
                set(snapshot.result_set(name)) == inputs.oracle[name]
                and snapshot.count(name) == len(inputs.oracle[name]),
                "quiescent snapshot differs from the oracle",
                name,
            )
            failures.check(
                snapshot.epochs[name] == epochs[name],
                f"snapshot epoch {snapshot.epochs[name]}, view epoch {epochs[name]}",
                name,
            )


# -- aggregation -----------------------------------------------------------------------


def end_to_end(run: Run, setup_s: List[float], peak_rss_mb: float) -> Dict[str, dict]:
    """The end-to-end metrics: name -> value, unit, samples, quantile.

    Every statistic is taken within a unit — a throughput, a p50, a
    tail (the percentile :func:`measure.tail_quantile` allows, stated
    next to the value) — and the fast decile across units is reported
    (see :func:`measure.fast_decile`).  A tail therefore shows the slow
    cases every unit has, not an event rarer than one per unit.
    """
    samples = run.samples
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str, count: int, q: Optional[float] = None):
        out[name] = {"value": value, "unit": unit, "samples": count}
        if q is not None:
            out[name]["quantile"] = q

    def latency(name: str, family: str, unit: str, tail: bool = False) -> None:
        units = [u for u in samples.get(family, ()) if u]
        q = measure.tail_quantile(min(map(len, units))) if tail else 0.5
        per_unit, total = measure.unit_percentiles(units, q)
        put(name, measure.fast_decile(per_unit, "lower"), unit, total, q)

    put("setup_s", statistics.median(setup_s), "s", len(setup_s))
    put(
        "updates_per_s",
        measure.fast_decile(run.unit_rates, "higher"),
        "1/s",
        len(run.unit_rates),
    )
    latency("update_p50_us", "update_us", "us")
    latency("update_tail_us", "update_us", "us", tail=True)
    # Per unit, each view's p50, then the median over the views: one
    # stream chunk is applied by the workers one after the other, so
    # the views of the second worker lag by the first's whole share and
    # a p50 pooled over all deltas sits in the gap between the two
    # populations — it flipped between 9 and 14 ms from run to run.
    by_view = [per_unit for family, per_unit in samples.items() if family.startswith("delta_lag_ms/")]
    lag_units = [
        statistics.median(measure.percentile(sorted(unit), 0.5) for unit in units if unit)
        for units in zip(*by_view)
        if any(units)
    ]
    put(
        "delta_lag_p50_ms",
        measure.fast_decile(lag_units, "lower"),
        "ms",
        sum(len(unit) for per_unit in by_view for unit in per_unit),
        0.5,
    )
    latency("delta_lag_tail_ms", "delta_lag_ms", "ms", tail=True)
    latency("first_page_p50_ms", "first_page_ms", "ms")
    latency("page_p50_ms", "page_ms", "ms")
    latency("page_tail_ms", "page_ms", "ms", tail=True)
    latency("count_p50_us", "count_us", "us")
    rates = [
        sum(tuples) / (sum(ns) / 1e9)
        for tuples, ns in zip(samples["tuples"], samples["paging_ns"])
        if ns and sum(ns)
    ]
    put("read_tuples_per_s", measure.fast_decile(rates, "higher"), "1/s", len(rates))
    put("peak_rss_mb", peak_rss_mb, "MB", 1)
    return out


def run_untraced(inputs: Inputs, seed: int, seconds: float) -> Tuple[Dict[str, dict], Failures, dict]:
    """The whole untraced run of one workload in this process."""
    spec = inputs.spec
    run = Run(inputs, seed)
    setup_s: List[float] = []
    try:
        for _ in range(SETUPS):
            run.close()
            gc.collect()
            setup_s.append(run.setup())
        deadline = time.perf_counter() + seconds * OVERRUN
        if spec.forward[0][0] == "trickle":
            units = run.drive_reads()
        else:
            units = run.drive(max(2, round(spec.units_per_10s * seconds / 10)), deadline)
        check_outputs(run)
        pids = [os.getpid()] + worker_pids(run.door)
        peak = sum(measure.proc_status_mb(pid)["VmHWM"] for pid in pids)
    finally:
        run.close()
    metrics = end_to_end(run, setup_s, peak)
    info = {
        "units": units,
        "pids": pids,
        "commands_per_unit": len(inputs.commands),
        "protocol_events": run.protocol_events,
        "extras": run.extras,
        "setup_s_all": setup_s,
        # what the across-unit estimates were taken over
        "per_unit": {
            "updates_per_s": run.unit_rates,
            **{
                family: measure.unit_percentiles(units, 0.5)[0]
                for family, units in run.samples.items()
                if family not in ("tuples", "paging_ns") and any(units)
            },
            **{
                family + ".tail": measure.unit_percentiles(
                    units, measure.tail_quantile(min(len(u) for u in units if u))
                )[0]
                for family, units in run.samples.items()
                if family in ("update_us", "delta_lag_ms", "page_ms") and any(units)
            },
        },
    }
    for family in ("snapshot_ms", "pin_attempts", "bound_read_ms", "contains_us"):
        if family in run.samples:
            pooled = sorted(x for unit in run.samples[family] for x in unit)
            if pooled:
                info["extras"][family + "_p50"] = measure.percentile(pooled, 0.5)
                info["extras"][family + "_samples"] = len(pooled)
    return metrics, run.failures, info
