"""Serving-layer benchmark: cursors, subscriptions, sharding, dispatch.

The experiments over the ``repro.serve`` subsystem:

* ``cursor_resume`` — a cursor pages through a large view result;
  per-page cost must be flat from the first page to the last (resume
  is O(1) per tuple: the Algorithm 1 walk is suspended, never
  restarted).  The contrast client re-enumerates from scratch and
  skips to the offset per page — its per-page cost grows linearly,
  which is exactly what resumable cursors remove.

* ``subscription_delta`` — update throughput with a live subscriber:
  the engines' O(δ) ``apply_with_delta`` (touched-path derivation)
  versus the naive rematerialise-and-diff baseline (the
  ``DynamicEngine`` default), on a workload whose per-update δ is tiny
  while the materialised result is large.

* ``multi_client`` — reader and writer threads hammer one
  :class:`repro.serve.Server`: readers page cursors (revalidating or
  reopening on invalidation) and poll counts, writers stream effective
  updates through the reader–writer locks.  Reported as sustained
  reads/sec and writes/sec; at the end the subscription log must
  replay to exactly the final ``result_set()``.

* ``sharded_writes`` — N writer threads hammer N views over pairwise
  disjoint relations while the server runs with 1, 2, … shards.  Each
  view carries one synchronous subscriber whose callback sleeps ~50µs
  — the stand-in for pushing the delta to a downstream socket (blocks
  the writer, releases the GIL, like real network I/O).  With one
  shard that push serialises inside the single writer-preference lock,
  stalling every other writer (the seed's protocol); with view-affine
  shards the disjoint views' write paths overlap and aggregate
  throughput climbs.  Replaying every view's subscription log must
  still match its ``result_set()``.

* ``async_dispatch`` — one writer streams updates to a view with S
  slow subscribers (each callback blocks ~0.1 ms, standing in for a
  network push — it releases the GIL, like real socket I/O).
  Synchronous dispatch pays all S callbacks inside the write path;
  the worker pool lets the writer proceed and absorbs the callbacks
  concurrently.  Reported as writer-side updates/sec for both modes
  plus the drain time, with the byte-identical replay check on the
  outboxes.

* ``multiprocess_shards`` — the same disjoint-view streams as
  ``sharded_writes``, but against a :class:`repro.serve.ShardCluster`
  with 1, 2, … worker **processes** (one single-shard server each,
  behind the socket transport).  Every view again carries one
  subscriber — here the push is a *real* per-client socket write, not
  the 50µs sleep stand-in — and every ``apply`` is a full
  request/reply round trip.  The in-process curve tops out where the
  GIL serialises the engines' update work; worker processes burn real
  cores, so aggregate throughput keeps climbing.  Reported as the
  cluster curve plus the speedup of its best point over the best
  in-process ``sharded_writes`` point, with the same byte-identical
  replay check (now across the process boundary).

* ``failover`` — a supervised 2-worker cluster loses a worker to
  SIGKILL a third of the way through a write stream.  The supervisor
  respawns it and replays its views and rows from the command journal
  while the writer stalls (bounded) and retries; reported as writes/s
  before/during/after the kill, the recovery time, and the
  byte-identical replay check against a threads-backend oracle fed
  the identical commands.  A second half drives the multiplexed
  request channel with point counts racing a bulk snapshot reader on
  the shared connection and reports the in-flight high-water mark.

* ``snapshot_reads`` — the price of consistency: pinning a
  cross-shard ``snapshot()`` (per-worker read-all cut + the
  double-collect epoch probe) versus the same plain per-view
  ``result_set`` round trips, on a quiescent 2-worker cluster; then
  pin-retry convergence while a writer streams updates into one of the
  pinned views — every snapshot must settle (re-reads, re-pins, or
  the final write-gated attempt) rather than raise.

* ``parameterized_views`` — one view serving thousands of distinct
  bound readers (``cursor(x=c)``, probed from the view's own q-tree
  structure with no binding index; per-binding subscriptions) versus
  the pre-parameterized-API reality of registering a view copy per
  reader: memory ratio (guarded at 5%), extrapolated per-update cost,
  fan-out flatness with thousands of bound subscribers, and
  point-lookup latency percentiles under a concurrent writer.

Aborting a run with Ctrl-C is safe: the cluster context managers
SIGTERM their worker processes on unwind (workers also watch a life
pipe and die with the parent), so interrupted local runs leave no
orphan processes behind.

Output: a table on stdout plus machine-readable JSON (default
``BENCH_serving.json`` at the repository root).  ``--quick`` shrinks
sizes for the CI smoke run; ``--readers/--writers/--shards`` pin the
client counts so different runs compare like with like (the CI
regression gate passes them explicitly).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import random
import sys
import threading
import time
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import QHierarchicalEngine
from repro.cq import zoo
from repro.errors import CursorInvalidatedError
from repro.interface import DynamicEngine
from repro.serve import Server
from repro.storage.database import Database
from repro.storage.updates import UpdateCommand, delete, insert

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serving.json"


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# workload: E_T_QF (V(x, y) :- E(x, y) ∧ T(y)) with a large materialisation
# ---------------------------------------------------------------------------


def feed_database(rows: int, domain: int, rng: random.Random) -> Database:
    query = zoo.E_T_QF
    database = Database.empty_like(query)
    for value in range(domain):
        database.insert("T", (value,))
    added = 0
    while added < rows:
        if database.insert(
            "E", (rng.randrange(domain * 4), rng.randrange(domain))
        ):
            added += 1
    return database


# ---------------------------------------------------------------------------
# experiment 1: cursor paging is O(1) per tuple, independent of position
# ---------------------------------------------------------------------------


def bench_cursor_resume(
    rows: int, page: int, rng: random.Random
) -> Dict[str, object]:
    server = Server()
    view = server.view("feed", zoo.E_T_QF)
    database = feed_database(rows, max(64, rows // 16), rng)
    for relation in database.relations():
        for row in relation.rows:
            server.insert(relation.name, row)
    total = server.count("feed")
    pages = total // page

    cursor = view.cursor()
    page_times: List[float] = []
    for _ in range(pages):
        page_times.append(_timed(lambda: cursor.fetch(page)))
    cursor.close()

    head = page_times[: max(1, pages // 10)]
    tail = page_times[-max(1, pages // 10):]
    first_ms = 1000 * sum(head) / len(head)
    last_ms = 1000 * sum(tail) / len(tail)

    # Contrast: a client without cursors re-enumerates and skips to the
    # offset for every page (sampled — the full quadratic sweep is the
    # point, not something to wait for).
    sample_offsets = [0, (pages // 2) * page, (pages - 1) * page]
    naive_ms = []
    engine = view.engine
    for offset in sample_offsets:
        naive_ms.append(
            1000
            * _timed(
                lambda off=offset: list(
                    islice(engine.enumerate(), off, off + page)
                )
            )
        )

    return {
        "result_size": total,
        "page_size": page,
        "pages": pages,
        "cursor_page_ms_first": round(first_ms, 4),
        "cursor_page_ms_last": round(last_ms, 4),
        "cursor_last_over_first": round(last_ms / first_ms, 3),
        "naive_page_ms_at_start": round(naive_ms[0], 4),
        "naive_page_ms_at_middle": round(naive_ms[1], 4),
        "naive_page_ms_at_end": round(naive_ms[2], 4),
        "naive_end_over_start": round(naive_ms[2] / max(naive_ms[0], 1e-9), 1),
    }


# ---------------------------------------------------------------------------
# experiment 2: O(δ) subscription deltas vs rematerialise-and-diff
# ---------------------------------------------------------------------------


def delta_update_stream(
    count: int, domain: int, rng: random.Random
) -> List[UpdateCommand]:
    """Effective inserts/deletes with per-update δ of 0 or 1."""
    commands: List[UpdateCommand] = []
    live: List[tuple] = []
    for step in range(count):
        if live and rng.random() < 0.4:
            row = live.pop(rng.randrange(len(live)))
            commands.append(delete("E", row))
        else:
            row = (10_000_000 + step, rng.randrange(domain))
            live.append(row)
            commands.append(insert("E", row))
    return commands


def bench_subscription_delta(
    rows: int, updates: int, rng: random.Random
) -> Dict[str, object]:
    query = zoo.E_T_QF
    domain = max(64, rows // 16)
    database = feed_database(rows, domain, rng)

    fast = QHierarchicalEngine(query, database)
    slow = QHierarchicalEngine(query, database)
    stream = delta_update_stream(updates, domain, rng)
    # The naive side pays O(|result|) per update; sample it.
    slow_sample = stream[: max(10, updates // 100)]

    def run_fast() -> None:
        for command in stream:
            fast.apply_with_delta(command)

    def run_slow() -> None:
        for command in slow_sample:
            DynamicEngine.apply_with_delta(slow, command)

    fast_s = _timed(run_fast)
    slow_s = _timed(run_slow)
    fast_ups = len(stream) / fast_s
    slow_ups = len(slow_sample) / slow_s
    return {
        "result_size": slow.count(),
        "updates": len(stream),
        "delta_updates_per_s": round(fast_ups),
        "rematerialize_updates_per_s": round(slow_ups),
        "speedup": round(fast_ups / slow_ups, 2),
    }


# ---------------------------------------------------------------------------
# experiment 3: multi-client dispatcher throughput
# ---------------------------------------------------------------------------


def bench_multi_client(
    rows: int,
    writer_ops: int,
    readers: int,
    writers: int,
    page: int,
    rng: random.Random,
    shards: int = 1,
    dispatch_workers: int = 0,
) -> Dict[str, object]:
    server = Server(shards=shards, dispatch_workers=dispatch_workers)
    server.view("feed", zoo.E_T_QF)
    domain = max(64, rows // 16)
    database = feed_database(rows, domain, rng)
    commands = [
        insert(relation.name, row)
        for relation in database.relations()
        for row in relation.rows
    ]
    server.batch(commands)
    subscription = server.subscribe("feed")
    baseline = set(server.session["feed"].result_set())

    streams = [
        delta_update_stream(writer_ops // writers, domain, random.Random(i))
        for i in range(writers)
    ]
    # Writers share one relation namespace; offset the fresh keys so the
    # streams stay effective against each other.
    streams = [
        [
            UpdateCommand(
                c.op, c.relation, (c.row[0] + 1_000_000 * i, *c.row[1:])
            )
            for c in stream
        ]
        for i, stream in enumerate(streams)
    ]

    stop = threading.Event()
    fetches = [0] * readers
    counts = [0] * readers
    invalidated = [0] * readers
    failures: List[BaseException] = []

    def writer(stream: Sequence[UpdateCommand]) -> None:
        try:
            for command in stream:
                server.apply(command)
        except BaseException as error:  # pragma: no cover
            failures.append(error)
            raise

    def reader(index: int) -> None:
        rng_local = random.Random(1000 + index)
        try:
            while not stop.is_set():
                cursor = server.open_cursor("feed")
                for _ in range(rng_local.randint(1, 30)):
                    try:
                        if not server.fetch(cursor, page):
                            break
                    except CursorInvalidatedError:
                        invalidated[index] += 1
                        break
                    fetches[index] += 1
                server.close_cursor(cursor)
                server.count("feed")
                counts[index] += 1
        except BaseException as error:  # pragma: no cover
            failures.append(error)
            raise

    reader_threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(readers)
    ]
    writer_threads = [
        threading.Thread(target=writer, args=(stream,)) for stream in streams
    ]
    start = time.perf_counter()
    for thread in reader_threads + writer_threads:
        thread.start()
    for thread in writer_threads:
        thread.join()
    write_elapsed = time.perf_counter() - start
    stop.set()
    for thread in reader_threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]
    server.drain()

    mirror = set(baseline)
    for delta_item in server.poll(subscription):
        mirror |= set(delta_item.added)
        mirror -= set(delta_item.removed)
    expected = server.session["feed"].result_set()
    assert mirror == expected, "subscription replay diverged from the view"

    total_writes = sum(len(stream) for stream in streams)
    total_fetches = sum(fetches)
    return {
        "readers": readers,
        "writers": writers,
        "shards": shards,
        "dispatch_workers": dispatch_workers,
        "result_size": len(expected),
        "writes": total_writes,
        "writes_per_s": round(total_writes / write_elapsed),
        "fetch_pages": total_fetches,
        "tuples_read_per_s": round(total_fetches * page / elapsed),
        "count_queries": sum(counts),
        "cursor_invalidations": sum(invalidated),
        "subscription_replay_ok": True,
        "elapsed_s": round(elapsed, 2),
    }


# ---------------------------------------------------------------------------
# experiment 4: sharded write path — writer scaling over disjoint views
# ---------------------------------------------------------------------------


def disjoint_write_stream(
    index: int, count: int, domain: int, seed: int
) -> List[UpdateCommand]:
    """Effective inserts/deletes against relation ``E<index>``."""
    rng = random.Random(seed)
    commands: List[UpdateCommand] = []
    live: List[tuple] = []
    for step in range(count):
        if live and rng.random() < 0.35:
            row = live.pop(rng.randrange(len(live)))
            commands.append(delete(f"E{index}", row))
        else:
            row = (step, rng.randrange(domain))
            live.append(row)
            commands.append(insert(f"E{index}", row))
    return commands


def _run_sharded(
    shards: int,
    writers: int,
    streams: List[List[UpdateCommand]],
    domain: int,
    push_ms: float,
) -> Tuple[float, bool]:
    """One configuration: aggregate write time + replay exactness.

    Every view carries one *synchronous* subscriber whose callback
    sleeps ``push_ms`` — the stand-in for pushing the delta to a
    downstream socket (it blocks the writer but releases the GIL, like
    real network I/O).  That makes the experiment measure exactly what
    sharding changes: with one shard the push serialises inside the
    global write lock, stalling every other writer; with view-affine
    shards the pushes of disjoint views overlap.
    """
    server = Server(shards=shards)
    subscriptions = []
    push_s = push_ms / 1000.0
    for i in range(writers):
        server.view(f"v{i}", f"V(x, y) :- E{i}(x, y), T{i}(y)")
        for value in range(domain):
            server.insert(f"T{i}", (value,))
        subscriptions.append(
            server.subscribe(f"v{i}", callback=lambda d: time.sleep(push_s))
        )
    failures: List[BaseException] = []

    def writer(stream: Sequence[UpdateCommand]) -> None:
        try:
            for command in stream:
                server.apply(command)
        except BaseException as error:  # pragma: no cover
            failures.append(error)
            raise

    threads = [
        threading.Thread(target=writer, args=(stream,)) for stream in streams
    ]
    gc.collect()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]

    replay_ok = True
    for i, handle in enumerate(subscriptions):
        mirror: set = set()
        for delta_item in server.poll(handle):
            mirror |= set(delta_item.added)
            mirror -= set(delta_item.removed)
        if mirror != server.session[f"v{i}"].result_set():
            replay_ok = False
    return elapsed, replay_ok


def bench_sharded_writes(
    writer_ops: int,
    writers: int,
    shard_counts: Sequence[int],
    push_ms: float = 0.05,
) -> Dict[str, object]:
    domain = 64
    streams = [
        disjoint_write_stream(i, writer_ops // writers, domain, 500 + i)
        for i in range(writers)
    ]
    total_ops = sum(len(stream) for stream in streams)
    curve: List[Dict[str, object]] = []
    replay_ok = True
    for shards in shard_counts:
        elapsed, ok = _run_sharded(shards, writers, streams, domain, push_ms)
        replay_ok = replay_ok and ok
        curve.append(
            {
                "shards": shards,
                "writes_per_s": round(total_ops / elapsed),
                "elapsed_s": round(elapsed, 4),
            }
        )
    base_ups = curve[0]["writes_per_s"]
    for point in curve:
        point["speedup_vs_1shard"] = round(point["writes_per_s"] / base_ups, 3)
    best = curve[-1]
    return {
        "writers": writers,
        "writes": total_ops,
        "push_ms": push_ms,
        "curve": curve,
        "speedup_at_max_shards": best["speedup_vs_1shard"],
        "max_shards": best["shards"],
        "subscription_replay_ok": replay_ok,
    }


# ---------------------------------------------------------------------------
# experiment 5: multiprocess shard cluster — writer scaling past the GIL
# ---------------------------------------------------------------------------


def _run_cluster(
    workers_n: int,
    writers: int,
    streams: List[List[UpdateCommand]],
    domain: int,
    chunk: int,
) -> Tuple[float, bool]:
    """One cluster configuration: aggregate write time + replay check.

    Mirrors ``_run_sharded`` — same views, same streams, one subscriber
    per view — except the shards are worker processes, the subscriber's
    "push to a downstream socket" is the cluster's real per-client push
    channel instead of a sleep stand-in, and the writers stream through
    ``apply_stream`` (chunked wire framing, the production write path
    for socket-remote updates; each command still runs the full
    per-update choreography on its worker).
    """
    from repro.serve.cluster import ShardCluster

    with ShardCluster(workers=workers_n) as cluster:
        with cluster.client() as client:
            subscriptions = []
            for i in range(writers):
                client.view(f"v{i}", f"V(x, y) :- E{i}(x, y), T{i}(y)")
                client.batch(
                    [insert(f"T{i}", (value,)) for value in range(domain)]
                )
                subscriptions.append(client.subscribe(f"v{i}"))
            failures: List[BaseException] = []

            def writer(stream: Sequence[UpdateCommand]) -> None:
                try:
                    client.apply_stream(stream, chunk=chunk)
                except BaseException as error:  # pragma: no cover
                    failures.append(error)
                    raise

            threads = [
                threading.Thread(target=writer, args=(stream,))
                for stream in streams
            ]
            gc.collect()
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if failures:
                raise failures[0]

            replay_ok = True
            for i, handle in enumerate(subscriptions):
                mirror: set = set()
                for delta_item in client.poll(handle):
                    mirror |= set(delta_item.added)
                    mirror -= set(delta_item.removed)
                if mirror != client.result_set(f"v{i}"):
                    replay_ok = False
    return elapsed, replay_ok


def bench_multiprocess_shards(
    writer_ops: int,
    writers: int,
    worker_counts: Sequence[int],
    inprocess_best_ups: float,
    chunk: int = 256,
    repeats: int = 2,
) -> Dict[str, object]:
    domain = 64
    streams = [
        disjoint_write_stream(i, writer_ops // writers, domain, 500 + i)
        for i in range(writers)
    ]
    total_ops = sum(len(stream) for stream in streams)
    curve: List[Dict[str, object]] = []
    replay_ok = True
    for workers_n in worker_counts:
        # Best-of-N: a cluster's worker processes are separate
        # scheduling victims, so a single shot on a shared (or
        # single-core) host confounds interference with capability —
        # the fastest repeat is the sustainable rate.
        elapsed = None
        for _repeat in range(max(1, repeats)):
            once, ok = _run_cluster(workers_n, writers, streams, domain, chunk)
            replay_ok = replay_ok and ok
            elapsed = once if elapsed is None else min(elapsed, once)
        curve.append(
            {
                "workers": workers_n,
                "writes_per_s": round(total_ops / elapsed),
                "elapsed_s": round(elapsed, 4),
            }
        )
    base_ups = curve[0]["writes_per_s"]
    for point in curve:
        point["speedup_vs_1worker"] = round(
            point["writes_per_s"] / base_ups, 3
        )
    best = max(curve, key=lambda point: point["writes_per_s"])
    at_max = curve[-1]
    return {
        "writers": writers,
        "writes": total_ops,
        "wire_chunk": chunk,
        "repeats": max(1, repeats),
        "note": "same disjoint-view stream generator as sharded_writes "
        "(longer streams + best-of-N repeats for a stable window); "
        "subscriber pushes are real per-client socket writes, writers "
        "use apply_stream (chunked wire framing; full per-update "
        "choreography per command worker-side)",
        "curve": curve,
        "best_workers": best["workers"],
        "best_writes_per_s": best["writes_per_s"],
        "max_workers": at_max["workers"],
        "max_workers_writes_per_s": at_max["writes_per_s"],
        "inprocess_best_writes_per_s": inprocess_best_ups,
        "speedup_vs_inprocess_best": round(
            best["writes_per_s"] / inprocess_best_ups, 3
        ),
        "speedup_vs_inprocess_at_max_workers": round(
            at_max["writes_per_s"] / inprocess_best_ups, 3
        ),
        "subscription_replay_ok": replay_ok,
    }


# ---------------------------------------------------------------------------
# experiment 6: supervised failover — kill -9 becomes a bounded stall
# ---------------------------------------------------------------------------


def bench_failover(
    writer_ops: int,
    mux_threads: int,
    mux_requests: int,
) -> Dict[str, object]:
    """Kill a shard worker mid-write-stream under supervision.

    One writer streams effective updates through a supervised
    2-worker cluster; a third of the way in, the view's worker gets
    SIGKILL.  The stream must complete without a client-visible error
    (the supervised retry stalls through the recovery), replay
    byte-identical to a threads-backend oracle fed the same commands,
    and the recovery itself must be bounded (seconds, not a hung
    deployment).  Reported: writes/s before/during/after the kill, the
    supervisor-measured recovery time, and the longest single apply
    (the client-observed stall ceiling).

    The second half drives the multiplexed transport: ``count`` round
    trips from ``mux_threads`` concurrent threads beside a bulk reader
    on one connection, plus the channel's in-flight high-water mark —
    proof the pipelining is real, not just configured.
    """
    from repro.serve.cluster import ShardCluster
    from repro.serve.journal import CommandJournal
    from repro.serve.supervisor import Supervisor

    domain = 64
    stream = disjoint_write_stream(0, writer_ops, domain, 700)
    third = len(stream) // 3

    oracle = Server()
    oracle.view("v0", "V(x, y) :- E0(x, y), T0(y)")
    with ShardCluster(workers=2) as cluster:
        journal = CommandJournal()
        with cluster.client(journal=journal) as client:
            supervisor = Supervisor(
                cluster, client, journal=journal, heartbeat=0.1
            ).start()
            client.view("v0", "V(x, y) :- E0(x, y), T0(y)")
            for value in range(domain):
                client.insert("T0", (value,))
                oracle.insert("T0", (value,))
            victim = client._worker_of_view("v0")

            def run_phase(commands: Sequence[UpdateCommand]) -> Tuple[float, float]:
                slowest = 0.0
                start = time.perf_counter()
                for command in commands:
                    t0 = time.perf_counter()
                    client.apply(command)
                    oracle.apply(command)
                    slowest = max(slowest, time.perf_counter() - t0)
                return time.perf_counter() - start, slowest

            before_s, _ = run_phase(stream[:third])
            cluster.kill_worker(victim)  # SIGKILL, stream keeps flowing
            during_s, stall_s = run_phase(stream[third : 2 * third])
            after_s, _ = run_phase(stream[2 * third :])

            recovery = supervisor.recoveries[0] if supervisor.recoveries else {}
            replay_ok = client.result_digest("v0") == oracle.session[
                "v0"
            ].engine.result_digest()
            restarts = cluster.restarts[victim]
            supervisor.stop()

    # -- multiplexed transport: no head-of-line blocking --
    # One bulk reader drags full 4096-row snapshots over the shared
    # connection while eight interactive readers issue point counts.
    # The channel tags frames, so counts overtake the multi-ms scan on
    # the worker's read lanes instead of queueing behind it.
    with ShardCluster(workers=1) as cluster:
        with cluster.client() as client:
            client.view("m_mux", "V(x, y) :- ME(x, y)")
            client.batch([insert("ME", (i, i % domain)) for i in range(4096)])
            done = threading.Event()
            scans = [0]

            def bulk() -> None:
                while not done.is_set():
                    client.result_set("m_mux")
                    scans[0] += 1

            def reader() -> None:
                for _ in range(mux_requests):
                    client.count("m_mux")

            bulk_thread = threading.Thread(target=bulk)
            threads = [
                threading.Thread(target=reader) for _ in range(mux_threads)
            ]
            gc.collect()
            start = time.perf_counter()
            bulk_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            done.set()
            bulk_thread.join()
            total = mux_requests * mux_threads
            mux_stats = {
                "interactive_requests": total,
                "requests_per_s": round(total / elapsed),
                "bulk_scans": scans[0],
                "elapsed_s": round(elapsed, 4),
                "max_in_flight_seen": client._conns[0].max_in_flight_seen,
            }

    return {
        "writes": len(stream),
        "workers": 2,
        "recovery_seconds": round(float(recovery.get("seconds", -1.0)), 4),
        "recovered_views": list(recovery.get("views", ())),
        "worker_restarts": restarts,
        "writes_per_s_before_kill": round(third / before_s),
        "writes_per_s_during_recovery": round(third / during_s),
        "writes_per_s_after_recovery": round(
            (len(stream) - 2 * third) / after_s
        ),
        "longest_apply_s": round(stall_s, 4),
        "replay_byte_identical": replay_ok,
        "mux_threads": mux_threads,
        "mux": mux_stats,
    }


# ---------------------------------------------------------------------------
# experiment 8: snapshot-consistent cross-shard reads — the price of a cut
# ---------------------------------------------------------------------------


def bench_snapshot_reads(
    rows_per_view: int, reads: int, writer_snapshots: int
) -> Dict[str, object]:
    """Pin cost vs plain reads, and pin-retry convergence under writes.

    Quiescent phase: ``reads`` repetitions of (a) one ``snapshot()``
    spanning both workers' views and (b) the same data over plain
    ``result_set`` round trips.  Both transfer identical row volume;
    the snapshot adds the read-all locks and one epoch probe per
    worker, so the overhead ratio is the protocol's price tag.

    Writer phase: a thread streams inserts into one pinned view while
    ``writer_snapshots`` cuts are taken.  Reported: pin attempts and
    re-reads per cut (the double-collect's optimism meter) and whether
    every cut settled — the escalated final attempt behind the write
    gate means convergence, not an invalidation error, is the contract.
    """
    from repro.serve.cluster import ShardCluster

    with ShardCluster(workers=2) as cluster:
        with cluster.client() as client:
            client.view("snap_a", "V(x, y) :- SNA(x, y)")
            client.view("snap_b", "W(x, y) :- SNB(x, y)")
            client.batch(
                [insert("SNA", (i, i % 97)) for i in range(rows_per_view)]
            )
            client.batch(
                [insert("SNB", (i, i % 89)) for i in range(rows_per_view)]
            )
            views = ["snap_a", "snap_b"]

            gc.collect()
            start = time.perf_counter()
            for _ in range(reads):
                for view in views:
                    client.result_set(view)
            plain_s = time.perf_counter() - start

            start = time.perf_counter()
            for _ in range(reads):
                client.snapshot(views=views)
            snapshot_s = time.perf_counter() - start

            # -- convergence under a live writer --
            stop = threading.Event()
            written = [0]

            def writer() -> None:
                n = rows_per_view
                while not stop.is_set():
                    client.insert("SNA", (n, n % 97))
                    written[0] = n = n + 1

            pin_attempts: List[int] = []
            rereads: List[int] = []
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                for _ in range(writer_snapshots):
                    snap = client.snapshot(views=views)
                    pin_attempts.append(snap.pin_attempts)
                    rereads.append(snap.rereads)
            finally:
                stop.set()
                thread.join()

    plain_ms = plain_s * 1000.0 / reads
    snapshot_ms = snapshot_s * 1000.0 / reads
    return {
        "views": len(views),
        "workers": 2,
        "rows_per_view": rows_per_view,
        "reads": reads,
        "plain_read_ms": round(plain_ms, 4),
        "snapshot_ms": round(snapshot_ms, 4),
        "overhead_vs_plain": round(snapshot_ms / plain_ms, 4),
        "writer_snapshots": len(pin_attempts),
        "writer_inserts": written[0] - rows_per_view,
        "mean_pin_attempts": round(
            sum(pin_attempts) / max(1, len(pin_attempts)), 3
        ),
        "max_pin_attempts": max(pin_attempts, default=0),
        "total_rereads": sum(rereads),
        "all_converged": len(pin_attempts) == writer_snapshots,
    }


# ---------------------------------------------------------------------------
# experiment 7: async subscription dispatch — offloading slow consumers
# ---------------------------------------------------------------------------


def bench_async_dispatch(
    updates: int, subscribers: int, callback_ms: float, workers: int
) -> Dict[str, object]:
    domain = 64
    stream = disjoint_write_stream(0, updates, domain, 900)
    results: Dict[str, Dict[str, float]] = {}
    replay_ok = True
    sleep_s = callback_ms / 1000.0

    for mode, dispatch_workers in (("sync", 0), ("async", workers)):
        server = Server(dispatch_workers=dispatch_workers)
        server.view("v0", "V(x, y) :- E0(x, y), T0(y)")
        for value in range(domain):
            server.insert("T0", (value,))
        handles = [
            # the sleep stands in for a network push: it blocks the
            # delivering thread but releases the GIL, like socket I/O
            server.subscribe("v0", callback=lambda d: time.sleep(sleep_s))
            for _ in range(subscribers)
        ]
        gc.collect()
        start = time.perf_counter()
        for command in stream:
            server.apply(command)
        writer_elapsed = time.perf_counter() - start
        server.drain()
        drained_elapsed = time.perf_counter() - start
        server.close()
        for handle in handles:
            mirror: set = set()
            for delta_item in server.poll(handle):
                mirror |= set(delta_item.added)
                mirror -= set(delta_item.removed)
            if mirror != server.session["v0"].result_set():
                replay_ok = False
        results[mode] = {
            "writer_updates_per_s": round(len(stream) / writer_elapsed),
            "writer_elapsed_s": round(writer_elapsed, 4),
            "drained_elapsed_s": round(drained_elapsed, 4),
        }

    speedup = (
        results["async"]["writer_updates_per_s"]
        / results["sync"]["writer_updates_per_s"]
    )
    return {
        "updates": len(stream),
        "subscribers": subscribers,
        "callback_ms": callback_ms,
        "dispatch_workers": workers,
        "sync": results["sync"],
        "async": results["async"],
        "writer_speedup": round(speedup, 2),
        "subscription_replay_ok": replay_ok,
    }


# ---------------------------------------------------------------------------
# experiment: the observability layer's write-path overhead (repro.obs)
# ---------------------------------------------------------------------------


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def bench_observability_overhead(
    rows: int, updates: int, chunk: int, rounds: int, rng: random.Random
) -> Dict[str, object]:
    """Instrumented vs ``observe=False`` on the single-writer path.

    The same effective update stream runs through two servers that
    differ only in ``observe=``: one records per-view update-cost
    histograms (sampled, see ``REPRO_PROBE_STRIDE``), engine counters
    and guarantee probes, the other takes the no-op fast path.  The
    denominator is the serving layer's real write path —
    ``Server.apply`` with its shard lock and cursor choreography — the
    path the registry actually instruments in production.

    The true overhead is sub-1%, below two distinct noise sources, so
    the estimator defends against both:

    * Scheduler/frequency drift over a multi-second run skews whole
      sides, so within a round the two servers are interleaved at
      *chunk* granularity — each chunk timed back-to-back on both,
      order alternating — and the round's figure is the **median** of
      the paired per-chunk ratios, which drift and outlier chunks
      cannot move.
    * Per-instance layout bias (one server's dicts/allocations landing
      a few percent slow for its whole lifetime) survives any amount
      of interleaving, so the experiment runs ``rounds`` independent
      fresh server pairs and the headline ``overhead_ratio`` is the
      **min** of the round medians: a bad draw inflates one round, not
      all of them, while a real regression inflates every round.

    Guarded at <= 1.05x by ``check_regression.py``.
    """
    from repro.api.session import Session

    query = zoo.E_T_QF
    domain = max(64, rows // 16)
    database = feed_database(rows, domain, rng)

    per_round = max(chunk, updates // max(1, rounds))
    totals = {True: 0.0, False: 0.0}
    round_medians: List[float] = []
    pairs = 0
    for _ in range(rounds):
        stream = delta_update_stream(per_round, domain, rng)
        servers: Dict[bool, Server] = {}
        for mode in (True, False):
            server = Server(Session(observe=mode))
            server.view("feed", query)
            server.session.ingest(database)  # preload, not timed
            servers[mode] = server
        # Warmup: first-touch allocator/cache effects hit neither side.
        for command in stream[: min(2000, len(stream))]:
            servers[True].apply(command)
            servers[False].apply(command)
        ratios: List[float] = []
        blocks = [stream[i : i + chunk] for i in range(0, len(stream), chunk)]
        try:
            for index, block in enumerate(blocks):
                order = (True, False) if index % 2 == 0 else (False, True)
                timed: Dict[bool, float] = {}
                for mode in order:
                    apply = servers[mode].apply

                    def work() -> None:
                        for command in block:
                            apply(command)

                    timed[mode] = _timed(work)
                totals[True] += timed[True]
                totals[False] += timed[False]
                ratios.append(timed[True] / timed[False])
        finally:
            for server in servers.values():
                server.close()
        pairs += len(ratios)
        round_medians.append(_median(ratios))
    return {
        "updates": per_round * rounds,
        "chunk": chunk,
        "rounds": rounds,
        "pairs": pairs,
        "round_medians": [round(value, 4) for value in round_medians],
        "observed_updates_per_s": round(per_round * rounds / totals[True]),
        "noop_updates_per_s": round(per_round * rounds / totals[False]),
        "observed_total_s": round(totals[True], 4),
        "noop_total_s": round(totals[False], 4),
        "overhead_ratio": round(min(round_medians), 4),
    }


# ---------------------------------------------------------------------------
# experiment 10: one parameterized view vs a registered view per binding
# ---------------------------------------------------------------------------


def _binding_update_stream(
    count: int, domain: int, rng: random.Random
) -> List[UpdateCommand]:
    """Inserts/deletes whose x values land inside the binding space."""
    commands: List[UpdateCommand] = []
    live: List[tuple] = []
    for step in range(count):
        if live and rng.random() < 0.4:
            commands.append(delete("E", live.pop(rng.randrange(len(live)))))
        else:
            row = (rng.randrange(domain * 4), rng.randrange(domain))
            live.append(row)
            commands.append(insert("E", row))
    return commands


def _quantile_ms(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return round(1000 * ordered[index], 4)


def bench_parameterized_views(
    rows: int,
    bindings: int,
    updates: int,
    lookups: int,
    sample_views: int,
    rng: random.Random,
) -> Dict[str, object]:
    """One view serving many bound readers vs a view per reader.

    Before parameterized views, a reader who wanted "my rows of the
    feed" registered their own copy of the view and filtered client
    side — every copy re-materialises the full result and pays the
    full update cost.  The new API keeps **one** view — ``x`` sits
    below the unbound root ``y`` of ``E_T_QF``'s q-tree, so a bound
    read probes the structure under each ``y`` item and no binding
    index is kept — and fans each update's delta out to the touched
    bindings in a single O(δ) pass.

    Memory and per-update cost of the per-binding baseline are
    measured on ``sample_views`` real engine copies and extrapolated
    linearly to ``bindings`` copies — building ten thousand engines
    just to weigh them would dominate the bench for no extra signal
    (the per-copy cost is flat by construction).

    The lookup half answers the serving question: ``cursor(x=c)``
    point-lookup latency percentiles on the threads backend while a
    writer streams updates through the same shard locks.
    """
    import tracemalloc

    from repro.api.session import Session
    from repro.interface import make_engine

    query = zoo.E_T_QF
    domain = max(64, rows // 16)
    database = feed_database(rows, domain, rng)
    binding_values = [rng.randrange(domain * 4) for _ in range(bindings)]

    # -- side A: one view (bound reads probed) + bound subscriptions --
    sink: List[object] = []

    def build_one_view():
        session = Session(observe=False)
        view = session.view("feed", query, access={"x"})
        session.ingest(database)
        subs = [
            view.subscribe(callback=sink.append, x=value)
            for value in binding_values
        ]
        return session, view, subs

    gc.collect()
    tracemalloc.start()
    session, view, subs = build_one_view()
    gc.collect()
    one_view_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    stream = _binding_update_stream(updates, domain, rng)

    def run_one_view() -> None:
        for command in stream:
            session.apply(command)

    one_view_s = _timed(run_one_view)
    deltas_delivered = len(sink)

    # fan-out flatness: the same stream with only 4 bound subscribers —
    # per-update cost must not scale with the subscriber count
    few_session = Session(observe=False)
    few_view = few_session.view("feed", query, access={"x"})
    few_session.ingest(database)
    few_sink: List[object] = []
    for value in binding_values[:4]:
        few_view.subscribe(callback=few_sink.append, x=value)
    few_stream = _binding_update_stream(updates, domain, random.Random(23))

    def run_few() -> None:
        for command in few_stream:
            few_session.apply(command)

    few_s = _timed(run_few)
    fanout_flatness = round(one_view_s / max(few_s, 1e-9), 3)

    # -- side B: a registered view per binding (sampled + extrapolated)
    def build_copies():
        copies = []
        for _ in range(sample_views):
            engine = make_engine("qhierarchical", query)
            for relation in database.relations():
                for row in relation.rows:
                    engine.insert(relation.name, row)
            copies.append(engine)
        return copies

    gc.collect()
    tracemalloc.start()
    copies = build_copies()
    gc.collect()
    copies_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    bytes_per_view = copies_bytes / sample_views
    per_binding_bytes = bytes_per_view * bindings
    memory_ratio = round(one_view_bytes / per_binding_bytes, 6)

    # per-update: every registered copy applies every update
    copy_sample = stream[: max(50, updates // 20)]

    def run_copies() -> None:
        for command in copy_sample:
            for engine in copies:
                engine.apply_with_delta(command)

    copies_s = _timed(run_copies)
    per_binding_update_s = (
        copies_s / (len(copy_sample) * sample_views) * bindings
    )
    one_view_update_s = one_view_s / len(stream)
    update_speedup = round(per_binding_update_s / one_view_update_s, 1)

    # -- point lookups under a concurrent writer ------------------------
    server = session.serve(backend="threads", shards=2)
    stop = threading.Event()
    lookup_stream = _binding_update_stream(
        updates, domain, random.Random(41)
    )

    def writer() -> None:
        while not stop.is_set():
            for command in lookup_stream:
                if stop.is_set():
                    return
                server.apply(command)

    thread = threading.Thread(target=writer)
    thread.start()
    latencies: List[float] = []
    try:
        for index in range(lookups):
            value = binding_values[index % len(binding_values)]
            start = time.perf_counter()
            handle = server.open_cursor("feed", x=value)
            server.fetch(handle, 1_000_000)
            server.close_cursor(handle)
            latencies.append(time.perf_counter() - start)
    finally:
        stop.set()
        thread.join()

    # quiesced correctness: the bound read equals the client-side filter
    value = binding_values[0]
    handle = server.open_cursor("feed", x=value)
    bound_rows = set(server.fetch(handle, 1_000_000))
    expected = {
        row for row in server.result_set("feed") if row[0] == value
    }
    bound_matches = bound_rows == expected

    return {
        "bindings": bindings,
        "result_size": view.count(),
        "updates": len(stream),
        "deltas_delivered": deltas_delivered,
        "sampled_views": sample_views,
        "one_view_bytes": int(one_view_bytes),
        "per_binding_bytes_per_view": int(bytes_per_view),
        "per_binding_bytes_extrapolated": int(per_binding_bytes),
        "memory_ratio": memory_ratio,
        "one_view_updates_per_s": round(1 / one_view_update_s),
        "per_binding_updates_per_s_extrapolated": round(
            1 / per_binding_update_s
        ),
        "update_speedup": update_speedup,
        "fanout_flatness": fanout_flatness,
        "lookups": len(latencies),
        "lookup_p50_ms": _quantile_ms(latencies, 0.50),
        "lookup_p95_ms": _quantile_ms(latencies, 0.95),
        "lookup_p99_ms": _quantile_ms(latencies, 0.99),
        "bound_reads_match_filter": bound_matches,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def render(report: Dict[str, object]) -> str:
    lines = ["serving layer (cursors / subscriptions / dispatcher)", ""]
    cursor = report["cursor_resume"]
    lines.append(
        f"cursor paging over {cursor['result_size']} tuples "
        f"(pages of {cursor['page_size']}):"
    )
    lines.append(
        f"  cursor   first {cursor['cursor_page_ms_first']:.3f}ms/page, "
        f"last {cursor['cursor_page_ms_last']:.3f}ms/page "
        f"(ratio {cursor['cursor_last_over_first']:.2f} — flat = O(1) resume)"
    )
    lines.append(
        f"  naive    start {cursor['naive_page_ms_at_start']:.3f}ms, "
        f"end {cursor['naive_page_ms_at_end']:.3f}ms "
        f"(ratio {cursor['naive_end_over_start']:.0f} — re-enumeration)"
    )
    sub = report["subscription_delta"]
    lines.append("")
    lines.append(
        f"subscription deltas over a {sub['result_size']}-tuple view:"
    )
    lines.append(
        f"  O(δ) capture     {sub['delta_updates_per_s']:>10} updates/s"
    )
    lines.append(
        f"  rematerialize    {sub['rematerialize_updates_per_s']:>10} updates/s"
    )
    lines.append(f"  speedup          {sub['speedup']:>10.2f}x")
    multi = report["multi_client"]
    lines.append("")
    lines.append(
        f"dispatcher with {multi['readers']} readers + "
        f"{multi['writers']} writers:"
    )
    lines.append(f"  writes/s         {multi['writes_per_s']:>10}")
    lines.append(f"  tuples read/s    {multi['tuples_read_per_s']:>10}")
    lines.append(
        f"  invalidations    {multi['cursor_invalidations']:>10} "
        "(each reported precisely, reader reopened)"
    )
    lines.append(
        f"  subscription replay == result_set: "
        f"{multi['subscription_replay_ok']}"
    )
    sharded = report["sharded_writes"]
    lines.append("")
    lines.append(
        f"sharded write path ({sharded['writers']} writers over disjoint "
        "views):"
    )
    for point in sharded["curve"]:
        lines.append(
            f"  {point['shards']} shard(s)   {point['writes_per_s']:>10} "
            f"writes/s  ({point['speedup_vs_1shard']:.2f}x vs 1 shard)"
        )
    lines.append(
        f"  replay byte-identical: {sharded['subscription_replay_ok']}"
    )
    multiproc = report["multiprocess_shards"]
    lines.append("")
    lines.append(
        f"multiprocess shard cluster ({multiproc['writers']} writers over "
        "disjoint views, 1 process per shard):"
    )
    for point in multiproc["curve"]:
        lines.append(
            f"  {point['workers']} worker(s)  {point['writes_per_s']:>10} "
            f"writes/s  ({point['speedup_vs_1worker']:.2f}x vs 1 worker)"
        )
    lines.append(
        f"  at {multiproc['max_workers']} workers: "
        f"{multiproc['max_workers_writes_per_s']} writes/s = "
        f"{multiproc['speedup_vs_inprocess_at_max_workers']:.2f}x the "
        f"best in-process sharded point "
        f"({multiproc['inprocess_best_writes_per_s']} writes/s); "
        f"best point {multiproc['best_writes_per_s']} writes/s at "
        f"{multiproc['best_workers']} workers "
        f"({multiproc['speedup_vs_inprocess_best']:.2f}x)"
    )
    lines.append(
        f"  replay byte-identical across processes: "
        f"{multiproc['subscription_replay_ok']}"
    )
    asyncd = report["async_dispatch"]
    lines.append("")
    lines.append(
        f"async dispatch ({asyncd['subscribers']} slow subscribers, "
        f"{asyncd['callback_ms']}ms callback, "
        f"{asyncd['dispatch_workers']} workers):"
    )
    lines.append(
        f"  sync writer      {asyncd['sync']['writer_updates_per_s']:>10} "
        "updates/s (callbacks inline)"
    )
    lines.append(
        f"  async writer     {asyncd['async']['writer_updates_per_s']:>10} "
        f"updates/s ({asyncd['writer_speedup']:.2f}x — pool absorbs the "
        "fan-out)"
    )
    lines.append(
        f"  replay byte-identical: {asyncd['subscription_replay_ok']}"
    )
    failover = report["failover"]
    lines.append("")
    lines.append(
        f"supervised failover (SIGKILL one of {failover['workers']} workers "
        f"mid-stream, {failover['writes']} writes):"
    )
    lines.append(
        f"  writes/s before  {failover['writes_per_s_before_kill']:>10}"
    )
    lines.append(
        f"  writes/s during  {failover['writes_per_s_during_recovery']:>10} "
        "(includes the bounded stall)"
    )
    lines.append(
        f"  writes/s after   {failover['writes_per_s_after_recovery']:>10}"
    )
    lines.append(
        f"  recovery         {failover['recovery_seconds']:>10.3f}s "
        f"(longest single apply {failover['longest_apply_s']:.3f}s; "
        f"views replayed: {', '.join(failover['recovered_views'])})"
    )
    lines.append(
        f"  replay byte-identical vs threads oracle: "
        f"{failover['replay_byte_identical']}"
    )
    lines.append(
        f"  transport ({failover['mux_threads']} point readers behind a "
        f"bulk scan): mux {failover['mux']['requests_per_s']} req/s "
        f"(high-water {failover['mux']['max_in_flight_seen']} in flight)"
    )
    snap = report["snapshot_reads"]
    lines.append("")
    lines.append(
        f"snapshot-consistent cross-shard reads ({snap['views']} views x "
        f"{snap['rows_per_view']} rows over {snap['workers']} workers):"
    )
    lines.append(
        f"  plain reads      {snap['plain_read_ms']:>10.3f}ms per sweep"
    )
    lines.append(
        f"  snapshot()       {snap['snapshot_ms']:>10.3f}ms per cut "
        f"({snap['overhead_vs_plain']:.2f}x — the double-collect's price)"
    )
    lines.append(
        f"  under writer     {snap['writer_snapshots']} cuts vs "
        f"{snap['writer_inserts']} concurrent inserts: "
        f"mean {snap['mean_pin_attempts']:.2f} pins "
        f"(max {snap['max_pin_attempts']}, "
        f"{snap['total_rereads']} re-reads), "
        f"all converged: {snap['all_converged']}"
    )
    obs = report["observability_overhead"]
    lines.append("")
    lines.append(
        f"observability overhead ({obs['updates']} updates, "
        f"{obs['rounds']} fresh server pairs, median over "
        f"{obs['pairs']} interleaved chunks, min across pairs):"
    )
    lines.append(
        f"  observe=True     {obs['observed_updates_per_s']:>10} updates/s"
    )
    lines.append(
        f"  observe=False    {obs['noop_updates_per_s']:>10} updates/s "
        f"({obs['overhead_ratio']:.3f}x — guarded at 1.05x)"
    )
    param = report["parameterized_views"]
    lines.append("")
    lines.append(
        f"parameterized views ({param['bindings']} distinct bindings over "
        f"a {param['result_size']}-tuple view; per-binding side sampled "
        f"on {param['sampled_views']} real copies, extrapolated):"
    )
    lines.append(
        f"  one view         {param['one_view_bytes']:>12} bytes "
        f"({param['memory_ratio']*100:.3f}% of a view per binding — "
        "guarded at 5%)"
    )
    lines.append(
        f"  view per binding {param['per_binding_bytes_extrapolated']:>12} "
        f"bytes ({param['per_binding_bytes_per_view']} each)"
    )
    lines.append(
        f"  updates/s        {param['one_view_updates_per_s']:>12} one "
        f"view vs {param['per_binding_updates_per_s_extrapolated']} "
        f"per-binding ({param['update_speedup']:.0f}x)"
    )
    lines.append(
        f"  fan-out flatness {param['fanout_flatness']:>12.3f}x "
        f"({param['bindings']} bound subscribers vs 4 — one O(δ) pass)"
    )
    lines.append(
        f"  bound lookups    p50 {param['lookup_p50_ms']:.3f}ms  "
        f"p95 {param['lookup_p95_ms']:.3f}ms  "
        f"p99 {param['lookup_p99_ms']:.3f}ms "
        f"({param['lookups']} cursor(x=c) reads under a writer)"
    )
    lines.append(
        f"  bound == filtered unbound: {param['bound_reads_match_filter']}"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes: smaller view, fewer updates and clients",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"JSON output path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--readers",
        type=int,
        default=None,
        help="multi_client reader threads (default: 2 quick, 4 full)",
    )
    parser.add_argument(
        "--writers",
        type=int,
        default=None,
        help="writer threads for multi_client AND sharded_writes "
        "(default: 2 quick, 4 full)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="max shard count for the sharded_writes curve, also used "
        "by multi_client (default: 4; the curve runs 1..max in "
        "doublings)",
    )
    parser.add_argument(
        "--dispatch-workers",
        type=int,
        default=4,
        help="worker-pool size for the async_dispatch experiment "
        "(default 4)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        rows, page, updates, writer_ops = 20_000, 200, 2_000, 1_200
        readers = 2 if args.readers is None else args.readers
        writers = 2 if args.writers is None else args.writers
        async_updates, subscribers, callback_ms = 150, 4, 0.1
    else:
        rows, page, updates, writer_ops = 120_000, 500, 10_000, 8_000
        readers = 4 if args.readers is None else args.readers
        writers = 4 if args.writers is None else args.writers
        async_updates, subscribers, callback_ms = 1_500, 8, 0.1
    max_shards = 4 if args.shards is None else args.shards
    shard_counts = [1]
    while shard_counts[-1] * 2 <= max_shards:
        shard_counts.append(shard_counts[-1] * 2)

    rng = random.Random(17)
    try:
        cursor_resume = bench_cursor_resume(rows, page, rng)
        subscription_delta = bench_subscription_delta(rows, updates, rng)
        multi_client = bench_multi_client(
            rows // 2,
            writer_ops // 2,
            readers,
            max(1, writers // 2),
            page,
            rng,
            shards=max_shards,
        )
        sharded_writes = bench_sharded_writes(writer_ops, writers, shard_counts)
        # The cluster sustains several times the in-process write rate,
        # so the same op count gives it a sub-second window — too noisy
        # on a busy host.  2x longer streams (same generator, same
        # shape) plus best-of-2 repeats keep the measurement honest.
        multiprocess_shards = bench_multiprocess_shards(
            writer_ops * 2,
            writers,
            shard_counts,
            max(
                point["writes_per_s"] for point in sharded_writes["curve"]
            ),
        )
        async_dispatch = bench_async_dispatch(
            async_updates, subscribers, callback_ms, args.dispatch_workers
        )
        failover = bench_failover(
            writer_ops if args.quick else writer_ops * 2,
            mux_threads=8,
            mux_requests=40 if args.quick else 250,
        )
        snapshot_reads = bench_snapshot_reads(
            rows_per_view=2_000 if args.quick else 8_000,
            reads=15 if args.quick else 40,
            writer_snapshots=10 if args.quick else 25,
        )
        # Short streams drown the ~1% signal in scheduler noise: pin a
        # floor on the stream length so each round's median has enough
        # chunks and the min-of-rounds has enough fresh instances.
        observability_overhead = bench_observability_overhead(
            rows=rows // 4,
            updates=max(updates, 36_000 if args.quick else 60_000),
            chunk=2000,
            rounds=3,
            rng=rng,
        )
        parameterized_views = bench_parameterized_views(
            rows=rows // 2,
            bindings=2_000 if args.quick else 10_000,
            updates=updates,
            lookups=300 if args.quick else 1_500,
            sample_views=4 if args.quick else 8,
            rng=rng,
        )
    except KeyboardInterrupt:
        # The cluster context managers already unwound: every shard
        # worker got SIGTERM (and watches the life pipe besides), so an
        # aborted run leaves no orphan processes.
        print(
            "\ninterrupted — shard worker processes terminated cleanly",
            file=sys.stderr,
        )
        return 130

    quick_note = (
        " (quick smoke sizes; authoritative numbers come from a full run)"
        if args.quick
        else ""
    )
    targets = {
        "cursor_resume_o1": {
            "metric": "cursor_last_over_first",
            "value": cursor_resume["cursor_last_over_first"],
            "met": cursor_resume["cursor_last_over_first"] <= 3.0,
            "note": "per-page cost of the last pages over the first — "
            "flat means fetches resume instead of re-enumerating"
            + quick_note,
        },
        "delta_beats_rematerialize_10x": {
            "metric": "subscription_delta.speedup",
            "value": subscription_delta["speedup"],
            "met": subscription_delta["speedup"] >= 10.0,
            "note": "O(δ) touched-path capture vs full result diff per "
            "update" + quick_note,
        },
        "subscription_replay_exact": {
            "metric": "multi_client.subscription_replay_ok",
            "value": multi_client["subscription_replay_ok"],
            "met": bool(multi_client["subscription_replay_ok"]),
            "note": "replaying the delta log reproduces result_set() "
            "after the full multi-client run",
        },
        "sharded_writes_scale_1_5x": {
            "metric": "sharded_writes.speedup_at_max_shards",
            "value": sharded_writes["speedup_at_max_shards"],
            "met": sharded_writes["speedup_at_max_shards"] >= 1.5
            and bool(sharded_writes["subscription_replay_ok"]),
            "note": "aggregate write throughput of concurrent writers "
            "over disjoint views at the max shard count vs the "
            "single-writer lock, replay still byte-identical"
            + quick_note,
        },
        "multiprocess_beats_threads_1_5x": {
            "metric": "multiprocess_shards.speedup_vs_inprocess_at_max_workers",
            "value": multiprocess_shards[
                "speedup_vs_inprocess_at_max_workers"
            ],
            "met": multiprocess_shards["speedup_vs_inprocess_at_max_workers"]
            >= 1.5
            and bool(multiprocess_shards["subscription_replay_ok"]),
            "note": "aggregate write throughput of the process-per-shard "
            "cluster at its best worker count vs the best in-process "
            "sharded point — the GIL-free scaling the ROADMAP headroom "
            "names, replay still byte-identical across the process "
            "boundary" + quick_note,
        },
        "async_dispatch_offload_1_5x": {
            "metric": "async_dispatch.writer_speedup",
            "value": async_dispatch["writer_speedup"],
            "met": async_dispatch["writer_speedup"] >= 1.5
            and bool(async_dispatch["subscription_replay_ok"]),
            "note": "writer-side update throughput with slow consumers "
            "on the worker pool vs inline synchronous fan-out, replay "
            "still byte-identical" + quick_note,
        },
        "failover_recovery_bounded_5s": {
            "metric": "failover.recovery_seconds",
            "value": failover["recovery_seconds"],
            "met": 0 <= failover["recovery_seconds"] <= 5.0
            and bool(failover["replay_byte_identical"]),
            "note": "kill -9 of a shard worker mid-write-stream under "
            "supervision: respawn + journal replay completes in bounded "
            "time, the stream finishes without a client-visible error, "
            "and the result digest matches the threads-backend oracle",
        },
        "mux_pipelines_8_in_flight": {
            "metric": "failover.mux.max_in_flight_seen",
            "value": failover["mux"]["max_in_flight_seen"],
            "met": failover["mux"]["max_in_flight_seen"] >= 8,
            "note": "the multiplexed channel sustains >= 8 concurrent "
            "in-flight requests (measured high-water mark)" + quick_note,
        },
        "snapshot_overhead_1_5x": {
            "metric": "snapshot_reads.overhead_vs_plain",
            "value": snapshot_reads["overhead_vs_plain"],
            "met": snapshot_reads["overhead_vs_plain"] <= 1.5,
            "note": "a quiescent cross-shard snapshot() costs at most "
            "1.5x the same data over plain result_set round trips — "
            "the read-all locks and epoch probes stay cheap relative "
            "to moving the rows" + quick_note,
        },
        "observability_overhead_1_05x": {
            "metric": "observability_overhead.overhead_ratio",
            "value": observability_overhead["overhead_ratio"],
            "met": observability_overhead["overhead_ratio"] <= 1.05,
            "note": "the metrics registry, engine counters and "
            "guarantee probes cost at most 5% on the single-writer "
            "update path vs the observe=False no-op fast path"
            + quick_note,
        },
        "parameterized_memory_5pct": {
            "metric": "parameterized_views.memory_ratio",
            "value": parameterized_views["memory_ratio"],
            "met": parameterized_views["memory_ratio"] <= 0.05
            and bool(parameterized_views["bound_reads_match_filter"]),
            "note": "one parameterized view and its bound subscriptions "
            "hold at most 5% of the memory of registering a view copy per "
            "binding, and the bound read stays byte-identical to the "
            "filtered unbound read" + quick_note,
        },
        "parameterized_fanout_flat": {
            "metric": "parameterized_views.fanout_flatness",
            "value": parameterized_views["fanout_flatness"],
            "met": parameterized_views["fanout_flatness"] <= 5.0,
            "note": "per-update cost with thousands of bound subscribers "
            "over one with 4 — the single O(δ) fan-out pass must not "
            "scale with the subscriber count" + quick_note,
        },
        "snapshot_pins_converge": {
            "metric": "snapshot_reads.max_pin_attempts",
            "value": snapshot_reads["max_pin_attempts"],
            "met": bool(snapshot_reads["all_converged"])
            and snapshot_reads["max_pin_attempts"] <= 8,
            "note": "every snapshot pinned under the concurrent writer "
            "stream converged within the pin budget (the escalated "
            "final attempt holds the client write gate) instead of "
            "raising SnapshotInvalidatedError",
        },
    }

    report = {
        "meta": {
            "experiment": "serving",
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "unix_time": int(time.time()),
            "readers": readers,
            "writers": writers,
            "max_shards": max_shards,
            "dispatch_workers": args.dispatch_workers,
        },
        "cursor_resume": cursor_resume,
        "subscription_delta": subscription_delta,
        "multi_client": multi_client,
        "sharded_writes": sharded_writes,
        "multiprocess_shards": multiprocess_shards,
        "async_dispatch": async_dispatch,
        "failover": failover,
        "snapshot_reads": snapshot_reads,
        "observability_overhead": observability_overhead,
        "parameterized_views": parameterized_views,
        "targets": targets,
    }

    print(render(report))
    print()
    for name, target in targets.items():
        state = "MET" if target["met"] else "not met"
        print(f"target {name}: {target['value']} ({target['metric']}) — {state}")

    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
