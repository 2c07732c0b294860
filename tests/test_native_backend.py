"""The vectorized native backend and the EngineOptions surface.

Differential guarantee: with ``backend="vectorized"`` every engine is
*observationally identical* to the per-tuple python runners — same
counts, same enumerations, same digests, and byte-identical
per-component snapshots — across bulk loads, batched ``apply_all`` streams,
``apply_with_delta``, binding-index fallback, the serving backends,
and a kill -9 journal replay (which rebuilds the interning tables from
scratch on the respawned worker).
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import time

import pytest

from repro import Session
from repro.cq.analysis import find_violation
from repro.cq.zoo import PAPER_QUERIES, star_query
from repro.core.engine import QHierarchicalEngine
from repro.core.vectorized import numpy_or_none, resolve_backend
from repro.errors import EngineStateError
from repro.interface import make_engine
from repro.options import EngineOptions
from repro.storage.database import Database, Schema
from repro.storage.updates import insert

from conftest import random_stream

HAS_NUMPY = numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy not importable (fallback leg)"
)

#: Every paper query Theorem 3.2's engine maintains (the vectorized
#: kernel covers exactly these; the fallback engines keep python).
Q_HIERARCHICAL = {
    name: query
    for name, query in PAPER_QUERIES.items()
    if find_violation(query) is None
}


def _pair(query, rounds=400, seed=3, domain=6, preload_rounds=150):
    """(vectorized engine, python engine, stream) over the same data."""
    rng = random.Random(seed)
    preload = random_stream(query, rng, rounds=preload_rounds, domain=domain)
    arities = {}
    for atom in query.atoms:
        arities.setdefault(atom.relation, atom.arity)
    db = Database(Schema(arities))
    for command in preload:
        if command.is_insert:
            db.insert(command.relation, command.row)
        else:
            db.delete(command.relation, command.row)
    vec = QHierarchicalEngine(query, db, options={"backend": "vectorized"})
    py = QHierarchicalEngine(query, db, options={"backend": "python"})
    stream = random_stream(query, rng, rounds=rounds, domain=domain)
    return vec, py, stream


def _assert_identical(vec, py):
    assert vec.count() == py.count()
    assert sorted(vec.enumerate(), key=repr) == sorted(
        py.enumerate(), key=repr
    )
    assert vec.result_digest() == py.result_digest()
    snaps_vec = [structure.snapshot() for structure in vec._structures]
    snaps_py = [structure.snapshot() for structure in py._structures]
    assert snaps_vec == snaps_py


# ---------------------------------------------------------------------------
# EngineOptions: the one surface
# ---------------------------------------------------------------------------


def test_options_defaults_and_wire_roundtrip():
    options = EngineOptions()
    assert options.backend == "auto"
    assert options.is_default
    custom = EngineOptions(backend="python")
    assert not custom.is_default
    assert custom.to_wire() == {"backend": "python"}
    assert EngineOptions.from_wire(custom.to_wire()) == custom
    assert EngineOptions.from_wire(None) == EngineOptions()


def test_options_of_coerces_and_overrides():
    assert EngineOptions.of(None) == EngineOptions()
    assert EngineOptions.of({"backend": "python"}).backend == "python"
    base = EngineOptions(backend="python")
    assert EngineOptions.of(base) is base
    assert EngineOptions.of(base, backend="auto").backend == "auto"
    # None overrides mean "unspecified", not "set to None".
    assert EngineOptions.of(base, backend=None).backend == "python"


def test_options_unknown_name_gets_did_you_mean():
    with pytest.raises(EngineStateError, match="did you mean 'backend'"):
        EngineOptions.of({"backened": "python"})
    with pytest.raises(EngineStateError, match="unknown engine option"):
        EngineOptions.of({"frobnicate": 1})


def test_options_unknown_backend_gets_did_you_mean():
    with pytest.raises(EngineStateError, match="did you mean 'vectorized'"):
        EngineOptions(backend="vectorised")
    with pytest.raises(EngineStateError, match="unknown backend"):
        EngineOptions(backend="cuda")


def test_backend_is_the_only_option():
    assert [f.name for f in dataclasses.fields(EngineOptions)] == ["backend"]
    # The retired knobs are unknown names on every entry point.
    with pytest.raises(EngineStateError, match="unknown engine option 'compiled'"):
        EngineOptions.of({"compiled": False})
    with pytest.raises(
        EngineStateError, match="unknown engine option 'merged_loaders'"
    ):
        EngineOptions.from_wire({"merged_loaders": True, "backend": "auto"})
    with pytest.raises(TypeError, match="compiled"):
        Session().view("v", "V(x) :- R(x)", compiled=False)
    with pytest.raises(TypeError, match="positional"):
        QHierarchicalEngine(PAPER_QUERIES["E_T_QF"], None, (), False)


def test_reference_oracle_is_quarantined_in_tests():
    source = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    mentions = [
        str(path)
        for path in source.rglob("*.py")
        if "reference_engine" in path.read_text(encoding="utf-8")
    ]
    assert mentions == []


def test_resolve_backend_reasons():
    backend, reason = resolve_backend(EngineOptions(backend="python"))
    assert backend == "python" and "requested" in reason
    backend, reason = resolve_backend(EngineOptions(), supported=False)
    assert backend == "python" and "no vectorized kernel" in reason
    with pytest.raises(EngineStateError):
        resolve_backend(
            EngineOptions(backend="vectorized"), supported=False
        )


def test_no_numpy_auto_falls_back_and_explicit_raises(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert numpy_or_none() is None
    query = PAPER_QUERIES["E_T_QF"]
    engine = QHierarchicalEngine(query, options={"backend": "auto"})
    info = engine.backend_info()
    assert info["backend"] == "python"
    assert "numpy" in info["reason"]
    engine.insert("E", (1, 2))
    engine.insert("T", (2,))
    assert engine.count() == 1
    with pytest.raises(EngineStateError, match="numpy"):
        QHierarchicalEngine(query, options={"backend": "vectorized"})


def test_fallback_engines_report_python_backend():
    engine = make_engine(
        "recompute", PAPER_QUERIES["LOOP_TRIANGLE"], backend="auto"
    )
    info = engine.backend_info()
    assert info["backend"] == "python"
    assert "no vectorized kernel" in info["reason"]


@needs_numpy
def test_auto_declines_all_eq_plans_but_explicit_wins():
    # LOOP_CORE's only plan is E(x, x): every row passes through a
    # repeated-variable filter, and the per-tuple runner's O(1)
    # early-exit beats batch interning — auto keeps python and says so.
    query = PAPER_QUERIES["LOOP_CORE"]
    engine = QHierarchicalEngine(query, options={"backend": "auto"})
    info = engine.backend_info()
    assert info["backend"] == "python"
    assert info["requested"] == "auto"
    assert "eq-filtered" in info["reason"]
    # An explicit request is still honored (and stays correct).
    forced = QHierarchicalEngine(query, options={"backend": "vectorized"})
    assert forced.backend_info()["backend"] == "vectorized"
    stream = random_stream(query, random.Random(7), rounds=400, domain=6)
    assert forced.apply_all(stream) == engine.apply_all(stream)
    assert forced.count() == engine.count()
    assert forced.answer() == engine.answer()


# ---------------------------------------------------------------------------
# the differential suite: vectorized vs the python oracle
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("name", sorted(Q_HIERARCHICAL))
def test_bulk_load_is_byte_identical(name):
    vec, py, _ = _pair(Q_HIERARCHICAL[name])
    _assert_identical(vec, py)


@needs_numpy
@pytest.mark.parametrize("name", sorted(Q_HIERARCHICAL))
def test_batched_apply_all_is_byte_identical(name):
    vec, py, stream = _pair(Q_HIERARCHICAL[name])
    assert vec.apply_all(stream) == py.apply_all(stream)
    _assert_identical(vec, py)


@needs_numpy
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_churny_streams_stay_identical(seed):
    # Small domain → heavy insert/delete churn over the same keys, the
    # regime where the per-prefix nets cancel and zero-net groups must
    # leave the items untouched.
    query = Q_HIERARCHICAL["E_T_QF"]
    vec, py, stream = _pair(
        query, rounds=1500, seed=seed, domain=3, preload_rounds=40
    )
    assert vec.apply_all(stream) == py.apply_all(stream)
    _assert_identical(vec, py)


@needs_numpy
def test_small_batches_and_singletons_still_identical():
    # Below the batching threshold apply_all takes the per-tuple path;
    # mixing the two paths over one engine must stay consistent.
    query = Q_HIERARCHICAL["E_T_QF"]
    vec, py, stream = _pair(query, rounds=500)
    for start in range(0, len(stream), 7):
        chunk = stream[start:start + 7]
        assert vec.apply_all(chunk) == py.apply_all(chunk)
    _assert_identical(vec, py)


@needs_numpy
def test_apply_with_delta_interleaves_with_batches():
    query = Q_HIERARCHICAL["EXAMPLE_6_1"]
    vec, py, stream = _pair(query, rounds=600)
    third = len(stream) // 3
    assert vec.apply_all(stream[:third]) == py.apply_all(stream[:third])
    for command in stream[third:2 * third]:
        delta_vec = vec.apply_with_delta(command)
        delta_py = py.apply_with_delta(command)
        assert sorted(delta_vec[0]) == sorted(delta_py[0])
        assert sorted(delta_vec[1]) == sorted(delta_py[1])
    rest = stream[2 * third:]
    assert vec.apply_all(rest) == py.apply_all(rest)
    _assert_identical(vec, py)


@needs_numpy
def test_binding_indexes_force_the_per_tuple_path():
    query = Q_HIERARCHICAL["E_T_QF"]
    vec, py, stream = _pair(query, rounds=400)
    vec.register_access_pattern(("x",))
    py.register_access_pattern(("x",))
    assert vec.apply_all(stream) == py.apply_all(stream)
    _assert_identical(vec, py)
    assert sorted(vec.enumerate_bound({"x": 1})) == sorted(
        py.enumerate_bound({"x": 1})
    )


@needs_numpy
def test_wide_star_and_string_constants():
    # Strings exercise the interner's dict path (no int fast path), and
    # a wide star exercises deep per-level grouping.
    query = star_query(4, free_leaves=2)
    rng = random.Random(9)
    vec = QHierarchicalEngine(query, options={"backend": "vectorized"})
    py = QHierarchicalEngine(query, options={"backend": "python"})
    commands = []
    for step in range(800):
        relation = rng.choice(sorted({a.relation for a in query.atoms}))
        arity = query.arity_of(relation)
        row = tuple(f"v{rng.randint(1, 5)}" for _ in range(arity))
        commands.append(insert(relation, row))
    assert vec.apply_all(commands) == py.apply_all(commands)
    _assert_identical(vec, py)


@needs_numpy
def test_mixed_type_constants_never_collide():
    # 1 and "1" are distinct constants; the interner must not let a
    # numpy dtype coercion merge them.
    query = Q_HIERARCHICAL["E_T_QF"]
    vec = QHierarchicalEngine(query, options={"backend": "vectorized"})
    py = QHierarchicalEngine(query, options={"backend": "python"})
    commands = []
    for value in (1, "1", 2, "2", 1.5, True):
        commands.append(insert("E", (value, value)))
        commands.append(insert("T", (value,)))
    commands *= 20  # clear the batching threshold
    vec.apply_all(commands)
    py.apply_all(commands)
    _assert_identical(vec, py)


# ---------------------------------------------------------------------------
# the options surface end to end: session, server, cluster
# ---------------------------------------------------------------------------


@needs_numpy
def test_session_view_kwargs_and_explain_name_the_backend():
    session = Session()
    view = session.view("v", "V(x, y) :- R(x, y), S(y)", backend="vectorized")
    assert view.engine.backend_info()["backend"] == "vectorized"
    rendered = session.explain("v").render()
    assert "backend: vectorized" in rendered
    forced = session.view(
        "w", "W(x, y) :- R(x, y), S(y)", options={"backend": "python"}
    )
    assert forced.engine.backend_info()["backend"] == "python"
    assert "backend: python" in session.explain("w").render()


def test_session_view_rejects_unknown_option():
    session = Session()
    with pytest.raises(EngineStateError, match="did you mean"):
        session.view("v", "V(x) :- R(x)", options={"backed": "python"})


@needs_numpy
def test_metrics_gauge_labels_the_backend():
    session = Session()
    session.view("v", "V(x) :- R(x), S(x)", backend="vectorized")
    snapshot = session.metrics.snapshot()
    backend_series = [
        key
        for key in snapshot["gauges"]
        if key.startswith("repro_engine_backend_info")
    ]
    assert backend_series
    assert any('backend="vectorized"' in key for key in backend_series)


@needs_numpy
def test_threads_server_serves_default_options():
    session = Session()
    server = session.serve(
        backend="threads", shards=2, options={"backend": "vectorized"}
    )
    reply = server.handle(
        {"op": "view", "name": "v", "query": "V(x) :- R(x), S(x)"}
    )
    assert reply["ok"] and reply["backend"] == "vectorized"
    for i in range(100):
        server.handle({"op": "insert", "relation": "R", "row": (i,)})
        if i % 2 == 0:
            server.handle({"op": "insert", "relation": "S", "row": (i,)})
    assert server.handle({"op": "count", "view": "v"})["count"] == 50
    assert server.load_stats()["backends"] == {"v": "vectorized"}


@needs_numpy
@pytest.mark.cluster
def test_cluster_view_options_ride_the_wire_and_replay_on_kill9():
    from repro.serve.cluster import ShardCluster
    from repro.serve.journal import CommandJournal
    from repro.serve.supervisor import Supervisor

    oracle = Session()
    oracle.view("nb", "V(x, y) :- R(x, y), S(y)", backend="python")
    with ShardCluster(workers=2) as cluster:
        journal = CommandJournal()
        with cluster.client(journal=journal) as facade:
            supervisor = Supervisor(
                cluster, facade, journal=journal, heartbeat=0.1
            ).start()
            try:
                record = facade.view(
                    "nb",
                    "V(x, y) :- R(x, y), S(y)",
                    options={"backend": "vectorized"},
                )
                victim = record.worker
                # The one registration record carries the options a
                # recovery re-registers with.
                assert record.options == {"backend": "vectorized"}
                assert record.registration()["options"] == record.options
                rng = random.Random(17)
                for step in range(120):
                    if step == 60:
                        cluster.kill_worker(victim)  # SIGKILL mid-stream
                    command = insert(
                        *(
                            ("R", (rng.randint(1, 9), rng.randint(1, 9)))
                            if step % 2
                            else ("S", (rng.randint(1, 9),))
                        )
                    )
                    assert facade.apply(command) == oracle.apply(command)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if not facade.dead_workers and supervisor.recoveries:
                        break
                    time.sleep(0.02)
                assert supervisor.recoveries, "worker never recovered"
                # The replayed view rebuilt its interning tables from
                # the journal and still matches the python oracle.
                assert facade.count("nb") == oracle["nb"].count()
                assert facade.result_set("nb") == oracle["nb"].result_set()
                stats = facade.cluster_stats()
                backends = stats[victim]["backends"]
                assert backends.get("nb") == "vectorized"
            finally:
                supervisor.stop()


@needs_numpy
@pytest.mark.cluster
def test_serve_processes_mirrors_per_view_options():
    session = Session()
    session.view("vv", "V(x) :- R(x), S(x)", backend="vectorized")
    session.view("vp", "W(x) :- R(x), T(x)", backend="python")
    for i in range(80):
        session.insert("R", (i,))
        if i % 2 == 0:
            session.insert("S", (i,))
        if i % 3 == 0:
            session.insert("T", (i,))
    facade = session.serve(backend="processes", shards=2)
    try:
        assert facade.count("vv") == session["vv"].count()
        assert facade.count("vp") == session["vp"].count()
        stats = facade.cluster_stats()
        backends = {}
        for worker, info in stats.items():
            if isinstance(info, dict):
                backends.update(info.get("backends") or {})
        assert backends["vv"] == "vectorized"
        assert backends["vp"] == "python"
    finally:
        facade.close()
