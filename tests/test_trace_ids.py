"""Tracing at the price of a hot path: unique ids, a lock-free ring.

Ids come from a per-process generator rather than an ``os.urandom``
call each, so two processes must never walk the same sequence: a
spawned worker seeds its own from the OS, and a forked child reseeds
before it draws.  Over a few hundred requests on a two-worker cluster
no worker span reuses a client span's id — a repeat would make a
worker span its own parent's sibling in the trace.

A finished span is one ``deque.append`` with no lock, and a snapshot
walks a copy of the ring, so spans finished while another thread
snapshots are neither lost nor a ``deque mutated during iteration``.
"""

import json
import os
import sys
import threading
import warnings

import pytest

from repro.obs.tracing import SpanLog, new_span_id, new_trace_id
from repro.serve.cluster import ShardCluster
from repro.storage.updates import insert


def _draw():
    return [new_span_id() for _ in range(200)] + [new_trace_id() for _ in range(50)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_other_ids_than_its_parent():
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # a multi-threaded parent warns; the child only draws and writes
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, json.dumps(_draw()).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    parent = _draw()
    with os.fdopen(read_end, "rb") as pipe:
        child = json.loads(pipe.read())
    os.waitpid(pid, 0)
    assert len(child) == len(parent) == 250
    assert not set(child) & set(parent)
    assert len(set(parent)) == len(parent)


@pytest.mark.cluster
def test_worker_span_ids_never_repeat_client_span_ids():
    with ShardCluster(workers=2) as deployment:
        with deployment.client() as facade:
            facade.view("ia", "V(x) :- IA(x)")
            facade.view("ib", "W(x) :- IB(x)")
            assert facade._worker_of_view("ia") != facade._worker_of_view("ib")
            for i in range(100):
                facade.insert("IA", (i,))
                facade.insert("IB", (i,))
                facade.count("ia")
                facade.count("ib")
            dump = facade.metrics()
    client = [span for span in dump["spans"] if span["name"].startswith("rpc:")]
    workers = [
        span
        for entry in dump["per_worker"].values()
        if entry is not None
        for span in entry["spans"]
        if span["name"].startswith("worker:")
    ]
    assert len(client) >= 400 and len(workers) >= 400
    client_ids = {span["span_id"] for span in client}
    worker_ids = [span["span_id"] for span in workers]
    assert len(client_ids) == len(client)
    assert len(set(worker_ids)) == len(worker_ids)
    assert not client_ids & set(worker_ids)
    # ... and every worker span still names its client span as parent
    assert {span["parent_id"] for span in workers} <= client_ids


def test_spans_finished_while_another_thread_snapshots_all_land():
    spans = SpanLog(capacity=4096, slow_ms=0.0)
    writers, each = 6, 500
    failures = []
    done = threading.Event()

    def finish_spans(writer):
        for step in range(each):
            spans.finish(spans.start("w", writer=writer, step=step))

    def snapshot_until_done():
        while not done.is_set():
            try:
                assert all(span["duration_ms"] is not None for span in spans.snapshot())
                spans.slow_snapshot()
            except Exception as error:
                failures.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=snapshot_until_done)
        reader.start()
        threads = [
            threading.Thread(target=finish_spans, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        done.set()
        reader.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads + [reader])
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(spans) == writers * each == 3000
    recorded = {(span["attrs"]["writer"], span["attrs"]["step"]) for span in spans.snapshot()}
    assert recorded == {(w, step) for w in range(writers) for step in range(each)}
    assert len(spans.slow_snapshot()) == 512  # the slow ring's own bound
