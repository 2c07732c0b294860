"""The traced run: one stream pushed through every layer's public entry.

Each *rung* builds that layer's state fresh (preload through the layer's
own bulk path), replays the ladder stream — a short sample of the
workload's own stream plus its undo, so the state is back at the start
after every repeat — and reports the median of three repeats in ns per
command.  A span wraps every repeat; the front-door rung is run once
more with a span around every call, and the ratio of the two is the
tracing overhead.  Layers are named after the modules: ``storage``,
``core``, ``api``, ``serve.server``, ``serve.dispatch``,
``serve.journal``, ``serve.transport``, ``serve.cluster``,
``serve.cursors``, ``serve.snapshot``, ``cq``.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
import threading
import time
from itertools import islice
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.planner import Planner
from repro.api.session import Session
from repro.core.engine import QHierarchicalEngine
from repro.errors import CursorInvalidatedError
from repro.obs.registry import snapshot_quantile
from repro.serve.journal import CommandJournal
from repro.serve.server import Server
from repro.serve.transport import Connection, bind_listener, connect, get_codec
from repro.storage.database import Database, Schema
from repro.storage.updates import UpdateCommand

from . import measure
from .harness import (
    Failures,
    PacedWriter,
    SessionDoor,
    effective_count,
    open_door,
    worker_pids,
)
from .spans import Tracer
from .workloads import CHUNK, TRICKLE_RATE, Inputs

REPEATS = 3
#: tuples a read rung enumerates per view and repeat
READ_LIMIT = 20000
#: point reads per repeat of a count / contains rung
POINT_READS = 2000
#: seconds of paced trickle under which snapshots are taken
TRICKLE_SECONDS = 3.0
#: which rung replays the workload's own front door
FRONT_DOOR = {
    "cluster": "serve.cluster.apply_stream_ns",
    "server": "serve.server.apply_sub_ns",
    "session": "api.session_apply_all_ns",
}


class Ladder:
    def __init__(self, inputs: Inputs, seed: int, tracer: Tracer, root: int):
        self.inputs = inputs
        self.spec = inputs.spec
        self.stream = inputs.ladder
        self.tracer = tracer
        self.root = root
        self.failures = Failures(inputs.spec, seed)
        self.metrics: Dict[str, dict] = {}
        self.route = self.spec.views_of_relation()

    # -- plumbing ------------------------------------------------------------

    def put(self, name: str, value: float, unit: str, samples: int = REPEATS) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}

    def value(self, name: str) -> float:
        return self.metrics[name]["value"]

    def timed(self, name: str, body: Callable[[], object], warm: bool = True) -> List[int]:
        """Durations (ns) of REPEATS spans around ``body``."""
        if warm:
            body()
        gc.collect()
        out: List[int] = []
        for repeat in range(REPEATS):
            span = self.tracer.begin(name, self.root, repeat)
            body()
            out.append(self.tracer.end(span))
        return out

    def write_rung(
        self, name: str, body: Callable[[], object], commands: Optional[int] = None,
        unit: str = "ns",
    ) -> float:
        """A rung of the write ladder: ns (or us) per command."""
        per = statistics.median(self.timed(name, body)) / (commands or len(self.stream))
        self.put(name, per / 1e3 if unit == "us" else per, unit)
        return per

    def expect(self, changed: object, commands: int, rung: str) -> None:
        self.failures.check(
            effective_count(changed) == commands,
            f"{rung}: {changed} of {commands} commands effective",
        )

    # -- state builders ----------------------------------------------------------

    def database(self, relations: Optional[Sequence[str]] = None) -> Database:
        source = self.inputs.database
        names = list(relations) if relations is not None else sorted(source.schema.relations())
        database = Database(Schema({name: source.schema.arity(name) for name in names}))
        for name in names:
            database.bulk_insert(name, source.relation(name).rows, checked=True)
        return database

    def engines(self) -> Dict[str, QHierarchicalEngine]:
        return {
            name: QHierarchicalEngine(query, self.database(sorted(query.relations)))
            for name, query in self.spec.views
        }

    def session(self) -> Session:
        door = SessionDoor()
        for name, query in self.spec.views:
            door.view(name, query)
        door.preload(self.spec, self.inputs.preload)
        return door.session

    def subscribed_server(
        self, session: Session, dispatch_workers: int = 0
    ) -> Tuple[Server, List[int]]:
        """A Server over ``session`` with one callback subscriber per
        delta view (every rung leaves the store at the preloaded state,
        so the rungs of one run share the session)."""
        server = Server(session, shards=2, dispatch_workers=dispatch_workers)
        handles = [
            server.subscribe(name, callback=_discard) for name in self.spec.delta_views
        ]
        return server, handles

    # -- the write ladder ----------------------------------------------------------

    def storage(self) -> None:
        stream = self.stream
        database = self.database()

        def per_command() -> None:
            changed = 0
            for command in stream:
                changed += command.apply_to(database)
            self.expect(changed, len(stream), "storage.apply")

        self.write_rung("storage.apply_ns", per_command)
        self.write_rung(
            "storage.fold_stream_ns",
            lambda: self.expect(database.fold_stream(stream)[0], len(stream), "fold_stream"),
        )
        self.put("storage.rows", sum(len(r.rows) for r in database.relations()), "count", 1)

    def core(self) -> None:
        stream, route = self.stream, self.route
        span = self.tracer.begin("core.bulk_load", self.root)
        engines = self.engines()
        seconds = self.tracer.end(span) / 1e9
        loaded = sum(
            len(self.inputs.database.relation(relation).rows)
            for _name, query in self.spec.views
            for relation in query.relations
        )
        self.put("core.bulk_load_rows_per_s", loaded / seconds, "1/s", 1)
        self.put("core.items", sum(e.item_count() for e in engines.values()), "count", 1)
        targets = [[engines[name] for name in route[c.relation]] for c in stream]

        def apply() -> None:
            for command, touched in zip(stream, targets):
                for engine in touched:
                    engine.apply(command)

        def apply_with_delta() -> None:
            for command, touched in zip(stream, targets):
                for engine in touched:
                    engine.apply_with_delta(command)

        per_view = {
            name: [c for c in stream if c.relation in query.relations]
            for name, query in self.spec.views
        }

        def apply_all() -> None:
            for name, engine in engines.items():
                self.expect(
                    engine.apply_all(per_view[name]), len(per_view[name]), "core.apply_all"
                )

        self.write_rung("core.apply_ns", apply)
        self.write_rung("core.apply_all_ns", apply_all)
        self.write_rung("core.apply_with_delta_ns", apply_with_delta)
        self.core_reads(engines)

    def api(self) -> Session:
        stream = self.stream
        span = self.tracer.begin("api.view_preload", self.root)
        session = self.session()
        seconds = self.tracer.end(span) / 1e9
        self.put(
            "api.view_preload_rows_per_s", len(self.inputs.preload) / seconds, "1/s", 1
        )

        def apply() -> None:
            for command in stream:
                session.apply(command)

        def batch() -> None:
            half = len(stream) // 2
            for part in (stream[:half], stream[half:]):
                with session.batch() as batch:
                    batch.apply_all(part)

        def spanned(span: int) -> None:
            begun = perf_counter_ns()
            session.apply_all(stream)
            self.tracer.leaf("api.session.apply_all", span, begun, perf_counter_ns())

        self.write_rung("api.session_apply_ns", apply)
        self.front_door_rung(
            "api.session_apply_all_ns",
            lambda: self.expect(session.apply_all(stream), len(stream), "session.apply_all"),
            spanned,
        )
        self.write_rung("api.batch_ns", batch)
        return session

    def serve_server(self, session: Session) -> None:
        stream = self.stream
        plain = Server(session, shards=2)

        def apply_on(server: Server) -> Callable[[], None]:
            def body() -> None:
                for command in stream:
                    server.apply(command)

            return body

        self.write_rung("serve.server.apply_ns", apply_on(plain))
        self.write_rung(
            "serve.server.apply_all_ns",
            lambda: self.expect(plain.apply_all(stream), len(stream), "server.apply_all"),
        )
        self.door_reads(plain, "serve.server", "ns")
        plain.close()

        subscribed, handles = self.subscribed_server(session)

        def spanned(span: int) -> None:
            leaf = self.tracer.leaf
            for command in stream:
                begun = perf_counter_ns()
                subscribed.apply(command)
                leaf("serve.server.apply", span, begun, perf_counter_ns())

        self.front_door_rung("serve.server.apply_sub_ns", apply_on(subscribed), spanned)
        for handle in handles:
            subscribed.unsubscribe(handle)
        subscribed.close()

        pooled, _handles = self.subscribed_server(session, dispatch_workers=2)
        self.write_rung("serve.dispatch.apply_ns", apply_on(pooled))
        pooled.drain()
        histograms = pooled.metrics()["metrics"]["histograms"]
        lag = [
            snapshot_quantile(state, 0.5)
            for key, state in histograms.items()
            if key.startswith("repro_dispatch_lag_seconds") and state["count"]
        ]
        self.put("serve.dispatch.lag_p50_ms", (lag[0] or 0.0) * 1e3 if lag else 0.0, "ms", 1)
        pooled.close()

    def journal(self) -> None:
        stream = self.stream
        journal = CommandJournal()
        journal.record_many(self.inputs.preload)

        def record() -> None:
            for command in stream:
                journal.record(command)

        self.write_rung("serve.journal.record_ns", record)

    def transport(self) -> None:
        """Framing of the stream as ``apply_many`` requests of CHUNK
        commands, with the default codec (the only one installed)."""
        stream = self.stream
        codec = get_codec("json")
        frames = [
            {
                "op": "apply_many",
                "commands": [(c.op, c.relation, c.row) for c in stream[i : i + CHUNK]],
            }
            for i in range(0, len(stream), CHUNK)
        ]
        payloads = [codec.encode(frame) for frame in frames]
        self.write_rung(
            "serve.transport.encode_ns", lambda: [codec.encode(f) for f in frames]
        )
        self.write_rung(
            "serve.transport.decode_ns", lambda: [codec.decode(p) for p in payloads]
        )
        self.put(
            "serve.transport.bytes_per_update",
            sum(len(p) + 4 for p in payloads) / len(stream),
            "B",
            len(payloads),
        )
        with tempfile.TemporaryDirectory(prefix="e2e-") as directory:
            listener, address = bind_listener(directory, "echo")
            served: List[object] = []

            def echo() -> None:
                sock, _peer = listener.accept()
                server_side = Connection(sock, codec)
                served.append(server_side)
                try:
                    while True:
                        server_side.send(server_side.recv())
                except Exception:
                    pass  # the client closed: the echo ends

            thread = threading.Thread(target=echo, name="e2e-echo", daemon=True)
            thread.start()
            client = connect(address, codec)
            try:
                trips: List[float] = []

                def round_trips() -> None:
                    for frame in frames:
                        begun = perf_counter_ns()
                        client.send(frame)
                        client.recv()
                        trips.append((perf_counter_ns() - begun) / 1e3)

                self.timed("serve.transport.roundtrip", round_trips)
                self.put(
                    "serve.transport.roundtrip_us",
                    statistics.median(trips[len(frames):]),
                    "us",
                    len(trips) - len(frames),
                )
            finally:
                client.close()
                for connection in served:
                    connection.close()
                listener.close()
                thread.join(timeout=5)

    # -- cluster rungs ---------------------------------------------------------------

    def cluster(self) -> None:
        stream, spec = self.stream, self.spec
        spawn: List[float] = []
        client = None
        for _ in range(2):
            if client is not None:
                client.close()
            span = self.tracer.begin("serve.cluster.spawn", self.root)
            client = open_door("cluster")
            spawn.append(self.tracer.end(span) / 1e9)
        self.put("serve.cluster.spawn_s", statistics.median(spawn), "s", len(spawn))
        try:
            span = self.tracer.begin("serve.cluster.view_register", self.root)
            for name, query in spec.views:
                client.view(name, query)
            self.put(
                "serve.cluster.view_register_ms",
                self.tracer.end(span) / 1e6 / len(spec.views),
                "ms",
                len(spec.views),
            )
            client.batch(self.inputs.preload)
            for name in spec.delta_views:
                client.subscribe(name, callback=_discard)
            pids = worker_pids(client)

            point = stream[: len(stream) // 8]
            point = point + [c.inverse() for c in reversed(point)]

            def apply() -> None:
                for command in point:
                    client.apply(command)

            self.write_rung("serve.cluster.apply_us", apply, len(point), unit="us")

            before = _rpc_totals(client)
            cpu0 = (measure.cpu_seconds(os.getpid()), sum(map(measure.cpu_seconds, pids)))
            wall0 = time.perf_counter()

            def spanned(span: int) -> None:
                leaf = self.tracer.leaf
                starts: List[int] = []

                def stamped():
                    for index, command in enumerate(stream):
                        if index % CHUNK == 0:
                            starts.append(perf_counter_ns())
                        yield command

                client.apply_stream(stamped(), chunk=CHUNK)
                starts.append(perf_counter_ns())
                for begun, ended in zip(starts, starts[1:]):
                    leaf("serve.cluster.apply_stream.chunk", span, begun, ended)

            self.front_door_rung(
                "serve.cluster.apply_stream_ns",
                lambda: self.expect(
                    client.apply_stream(stream, chunk=CHUNK), len(stream), "apply_stream"
                ),
                spanned,
            )
            wall = time.perf_counter() - wall0
            after = _rpc_totals(client)
            cycles = REPEATS + 1 + (REPEATS if spec.door == "cluster" else 0)  # see front_door_rung
            sent = len(stream) * cycles
            self.put("serve.cluster.rpc_per_update", (after[0] - before[0]) / sent, "count", 1)
            self.put(
                "serve.cluster.rpc_bytes_per_update", (after[1] - before[1]) / sent, "B", 1
            )
            self.put(
                "client.cpu_share",
                (measure.cpu_seconds(os.getpid()) - cpu0[0]) / wall,
                "share",
                1,
            )
            self.put(
                "worker.cpu_share",
                (sum(map(measure.cpu_seconds, pids)) - cpu0[1]) / wall,
                "share",
                1,
            )

            half = len(stream) // 2
            self.write_rung(
                "serve.cluster.batch_ns",
                lambda: (client.batch(stream[:half]), client.batch(stream[half:])),
            )
            client.drain()
            self.cluster_reads(client)
            self.trickle(client)
            self.put(
                "client.rss_mb", measure.proc_status_mb(os.getpid())["VmRSS"], "MB", 1
            )
            self.put(
                "worker.rss_mb",
                sum(measure.proc_status_mb(pid)["VmRSS"] for pid in pids),
                "MB",
                len(pids),
            )
        finally:
            client.close()

    # -- front door: plain, then with a span around every call ---------------------------

    def front_door_rung(
        self, name: str, plain: Callable[[], object], spanned: Callable[[int], object]
    ) -> None:
        """The rung that replays the workload's own front door runs its
        repeats alternately plain and with a span around every call."""
        if FRONT_DOOR[self.spec.door] != name:
            self.write_rung(name, plain)
            return
        plain()
        gc.collect()
        bare: List[int] = []
        traced: List[int] = []
        for repeat in range(REPEATS):
            span = self.tracer.begin(name, self.root, repeat)
            plain()
            bare.append(self.tracer.end(span))
            span = self.tracer.begin(name + ".traced", self.root, repeat)
            spanned(span)
            traced.append(self.tracer.end(span))
        self.put(name, statistics.median(bare) / len(self.stream), "ns")
        self.put(
            "trace.overhead_ratio", statistics.median(traced) / statistics.median(bare), "ratio"
        )

    # -- the read ladder -----------------------------------------------------------------

    def per_tuple(self, name: str, body: Callable[[], int]) -> None:
        """A read rung: ns per tuple returned."""
        tuples = [0]

        def counted() -> None:
            tuples[0] = body()

        durations = self.timed(name, counted)
        self.put(name, statistics.median(durations) / max(tuples[0], 1), "ns")

    def core_reads(self, engines: Dict[str, QHierarchicalEngine]) -> None:
        spec, inputs = self.spec, self.inputs
        paged = [engines[name] for name in spec.paged_views]

        def enumerate_all() -> int:
            return sum(
                sum(1 for _row in islice(engine.enumerate(), READ_LIMIT)) for engine in paged
            )

        def enumerate_bound() -> int:
            total = 0
            for name in spec.paged_views:
                engine = engines[name]
                variable = engine.query.free[0]
                for value in inputs.bind_values[name]:
                    total += sum(1 for _row in engine.enumerate_bound({variable: value}))
            return total

        rows = [
            (engines[name], row) for name in spec.paged_views for row in inputs.present[name]
        ]

        def count() -> None:
            for index in range(POINT_READS):
                paged[index % len(paged)].count()

        def contains() -> None:
            hits = 0
            for index in range(POINT_READS):
                engine, row = rows[index % len(rows)]
                hits += engine.contains(row)
            self.failures.check(hits == POINT_READS, "core.contains missed a present row")

        self.per_tuple("core.enumerate_ns_per_tuple", enumerate_all)
        self.per_tuple("core.enumerate_bound_ns_per_tuple", enumerate_bound)
        self.write_rung("core.count_ns", count, POINT_READS)
        self.write_rung("core.contains_ns", contains, POINT_READS)

    def api_reads(self, session: Session) -> None:
        spec, page = self.spec, self.spec.page

        def enumerate_all() -> int:
            return sum(
                sum(1 for _row in islice(session[name].enumerate(), READ_LIMIT))
                for name in spec.paged_views
            )

        def fetch_all() -> int:
            total = 0
            for name in spec.paged_views:
                cursor = session[name].cursor()
                fetched = 0
                while fetched < READ_LIMIT:
                    rows = cursor.fetch(page)
                    fetched += len(rows)
                    if len(rows) < page:
                        break
                cursor.close()
                total += fetched
            return total

        self.per_tuple("api.view_enumerate_ns_per_tuple", enumerate_all)
        self.per_tuple("serve.cursors.fetch_ns_per_tuple", fetch_all)

    def door_reads(self, door: object, layer: str, count_unit: str) -> None:
        """``fetch`` per tuple, ``count`` and first page through a served
        front door (``Server`` and ``ClusterClient`` share the calls)."""
        spec, page = self.spec, self.spec.page
        views = spec.paged_views
        first_pages: List[float] = []

        def fetch_all() -> int:
            total = 0
            for name in views:
                begun = perf_counter_ns()
                cursor = door.open_cursor(name)
                rows = door.fetch(cursor, page)
                first_pages.append((perf_counter_ns() - begun) / 1e3)
                fetched = len(rows)
                while len(rows) == page and fetched < READ_LIMIT:
                    rows = door.fetch(cursor, page)
                    fetched += len(rows)
                door.close_cursor(cursor)
                total += fetched
            return total

        reads = POINT_READS if layer == "serve.server" else POINT_READS // 10

        def count() -> None:
            for index in range(reads):
                door.count(views[index % len(views)])

        self.per_tuple(f"{layer}.fetch_ns_per_tuple", fetch_all)
        self.put(
            f"{layer}.first_page_us",
            statistics.median(first_pages[len(views):]),
            "us",
            len(first_pages) - len(views),
        )
        self.write_rung(f"{layer}.count_{count_unit}", count, reads, unit=count_unit)

    def cluster_reads(self, client: object) -> None:
        self.door_reads(client, "serve.cluster", "us")
        views = list(self.spec.snapshot_views)
        durations = self.timed(
            "serve.snapshot.quiescent", lambda: client.snapshot(views=views)
        )
        self.put("serve.snapshot.quiescent_ms", statistics.median(durations) / 1e6, "ms")

    # -- snapshots and cursors beside a paced writer ---------------------------------------

    def trickle(self, client: object) -> None:
        """TRICKLE_SECONDS of the open-loop writer while this thread
        alternates snapshots of the small views with pages of a cursor
        over a large one: pin attempts, re-reads, snapshot latency,
        cursor revalidations/invalidations, generator lateness."""
        spec, page = self.spec, self.spec.page
        count = int(TRICKLE_RATE * TRICKLE_SECONDS) // 2
        forward = self.stream[: len(self.stream) // 2][:count]
        commands = forward + [c.inverse() for c in reversed(forward)]

        def send(command: UpdateCommand) -> None:
            if not client.apply(command):
                self.failures.fail(f"trickle apply({command}) was not effective")

        writer = PacedWriter(commands, send)
        done = writer.done
        before = _counter_totals(client, "repro_cursor_revalidations_total", "repro_cursor_invalidations_total")
        span = self.tracer.begin("serve.snapshot.trickle", self.root)
        writer.start()
        snapshots: List[Tuple[float, int, int]] = []
        cursor = None
        view = spec.paged_views[0]
        try:
            while not done.is_set():
                begun = perf_counter_ns()
                snapshot = client.snapshot(views=list(spec.snapshot_views))
                self.tracer.leaf("serve.snapshot.pin", span, begun, perf_counter_ns())
                snapshots.append(
                    ((perf_counter_ns() - begun) / 1e6, snapshot.pin_attempts, snapshot.rereads)
                )
                for _ in range(4):
                    try:
                        if cursor is None:
                            cursor = client.open_cursor(view)
                        if len(client.fetch(cursor, page)) < page:
                            client.close_cursor(cursor)
                            cursor = None
                    except CursorInvalidatedError:
                        cursor = None
        finally:
            writer.join()
            self.tracer.end(span)
            if cursor is not None:
                client.close_cursor(cursor)
        client.drain()
        after = _counter_totals(client, "repro_cursor_revalidations_total", "repro_cursor_invalidations_total")
        n = len(snapshots)
        self.put("snapshot_p50_ms", statistics.median(s[0] for s in snapshots), "ms", n)
        self.put("serve.snapshot.pin_attempts_mean", statistics.fmean(s[1] for s in snapshots), "count", n)
        self.put("serve.snapshot.rereads_mean", statistics.fmean(s[2] for s in snapshots), "count", n)
        self.put("serve.cursors.revalidations", after[0] - before[0], "count", 1)
        self.put("serve.cursors.invalidations", after[1] - before[1], "count", 1)
        self.put("writer_late_share", writer.late / len(commands), "share", len(commands))

    # -- set-up ladder and increments ------------------------------------------------------

    def planning(self) -> None:
        planner = Planner()
        durations = self.timed(
            "cq.plan", lambda: [planner.plan(query) for _name, query in self.spec.views]
        )
        self.put("cq.plan_ms", statistics.median(durations) / 1e6, "ms")

    def increments(self) -> None:
        """What each layer adds to the one below it.  Negative values
        are reported as measured."""
        v = self.value
        us = 1e3
        for name, upper, lower in (
            ("ledger.core_added_ns", v("core.apply_ns"), v("storage.apply_ns")),
            ("ledger.api_added_ns", v("api.session_apply_ns"), v("core.apply_ns")),
            ("ledger.server_added_ns", v("serve.server.apply_ns"), v("api.session_apply_ns")),
            ("ledger.subscriber_added_ns", v("serve.server.apply_sub_ns"), v("serve.server.apply_ns")),
            ("ledger.cluster_added_ns", v("serve.cluster.apply_us") * us, v("serve.server.apply_sub_ns")),
            ("ledger.batched.core_added_ns", v("core.apply_all_ns"), v("storage.fold_stream_ns")),
            ("ledger.batched.api_added_ns", v("api.session_apply_all_ns"), v("core.apply_all_ns")),
            ("ledger.batched.server_added_ns", v("serve.server.apply_all_ns"), v("api.session_apply_all_ns")),
            ("ledger.batched.cluster_added_ns", v("serve.cluster.apply_stream_ns"), v("serve.server.apply_all_ns")),
        ):
            self.put(name, upper - lower, "ns", 1)


def _discard(_delta: object) -> None:
    pass


def _rpc_totals(client: object) -> Tuple[float, float]:
    """(requests, frame bytes both ways) this client has made so far."""
    snapshot = client.metrics_registry.snapshot()
    requests = sum(
        state["count"]
        for key, state in snapshot["histograms"].items()
        if key.startswith("repro_rpc_seconds")
    )
    volume = sum(
        value
        for key, value in snapshot["counters"].items()
        if key.startswith(("repro_rpc_bytes_sent_total", "repro_rpc_bytes_received_total"))
    )
    return requests, volume


def _counter_totals(client: object, *names: str) -> List[float]:
    counters = client.metrics()["merged"]["counters"]
    return [
        sum(value for key, value in counters.items() if key.startswith(name))
        for name in names
    ]


def run_traced(
    inputs: Inputs, seed: int, seconds: float, trace_path: str
) -> Tuple[Dict[str, dict], Failures, dict]:
    tracer = Tracer()
    root = tracer.begin("run", None)
    ladder = Ladder(inputs, seed, tracer, root)
    ladder.planning()
    ladder.storage()
    ladder.core()
    session = ladder.api()
    ladder.api_reads(session)
    ladder.serve_server(session)
    ladder.journal()
    ladder.transport()
    ladder.cluster()
    ladder.increments()
    tracer.end(root)
    tracer.dump(trace_path)
    info = {"ladder_commands": len(inputs.ladder), "spans": len(tracer.spans)}
    return ladder.metrics, ladder.failures, info
