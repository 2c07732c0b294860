"""The one update path: batched ``apply_all`` against per-command ``apply``.

Every update of the q-hierarchical engine runs the generated per-atom
runners.  ``QHierarchicalEngine.apply_all`` folds a stream into the
store in one pass and walks the runners over each relation's effective
rows; the differential guarantee checked here is that this is
*observationally identical* to applying the same commands one by one —
same counts, same enumerations, same digests, and byte-identical
per-component snapshots — across bulk loads, churny and small batches,
interleaved ``apply_with_delta``, a mid-stream error, and a kill -9
journal replay.  The serving path does all of it
without importing numpy.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time

import pytest

from repro import Session
from repro.core.engine import QHierarchicalEngine
from repro.cq.analysis import find_violation
from repro.cq.zoo import PAPER_QUERIES, star_query
from repro.errors import SchemaError, UpdateError
from repro.storage.database import Database, Schema
from repro.storage.updates import UpdateCommand, insert

from conftest import random_stream

#: Every paper query Theorem 3.2's engine maintains, plus star shapes.
Q_HIERARCHICAL = {
    name: query
    for name, query in PAPER_QUERIES.items()
    if find_violation(query) is None
}
Q_HIERARCHICAL["STAR_3"] = star_query(3, free_leaves=3)
Q_HIERARCHICAL["STAR_5"] = star_query(5, free_leaves=2)


def _pair(query, rounds=400, seed=3, domain=6, preload_rounds=150):
    """(batched engine, per-command engine, stream) over the same data."""
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
    batched = QHierarchicalEngine(query, db)
    single = QHierarchicalEngine(query, db)
    stream = random_stream(query, rng, rounds=rounds, domain=domain)
    return batched, single, stream


def _one_by_one(engine, commands):
    return sum(engine.apply(command) for command in commands)


def _assert_identical(batched, single):
    assert batched.count() == single.count()
    assert sorted(batched.enumerate(), key=repr) == sorted(
        single.enumerate(), key=repr
    )
    assert batched.result_digest() == single.result_digest()
    assert batched.epoch == single.epoch
    assert [s.snapshot() for s in batched.structures] == [
        s.snapshot() for s in single.structures
    ]


def test_reference_oracle_is_quarantined_in_tests():
    source = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    mentions = [
        str(path)
        for path in source.rglob("*.py")
        if "reference_engine" in path.read_text(encoding="utf-8")
    ]
    assert mentions == []


# ---------------------------------------------------------------------------
# the differential suite: one apply_all vs per-command apply
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(Q_HIERARCHICAL))
def test_bulk_load_is_byte_identical(name):
    batched, single, _ = _pair(Q_HIERARCHICAL[name])
    _assert_identical(batched, single)


@pytest.mark.parametrize("name", sorted(Q_HIERARCHICAL))
def test_batched_apply_all_is_byte_identical(name):
    batched, single, stream = _pair(Q_HIERARCHICAL[name])
    assert batched.apply_all(stream) == _one_by_one(single, stream)
    _assert_identical(batched, single)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_churny_streams_stay_identical(seed):
    # Small domain → heavy insert/delete churn over the same keys: a
    # relation's rows must reach the runners in stream order.
    query = Q_HIERARCHICAL["E_T_QF"]
    batched, single, stream = _pair(
        query, rounds=1500, seed=seed, domain=3, preload_rounds=40
    )
    assert batched.apply_all(stream) == _one_by_one(single, stream)
    _assert_identical(batched, single)


def test_small_batches_and_singletons_still_identical():
    query = Q_HIERARCHICAL["E_T_QF"]
    batched, single, stream = _pair(query, rounds=500)
    for start in range(0, len(stream), 7):
        chunk = stream[start:start + 7]
        assert batched.apply_all(chunk) == _one_by_one(single, chunk)
    for command in stream[:20]:
        assert batched.apply_all([command.inverse()]) == single.apply(
            command.inverse()
        )
    assert batched.apply_all([]) == 0
    _assert_identical(batched, single)


def test_apply_with_delta_interleaves_with_batches():
    query = Q_HIERARCHICAL["EXAMPLE_6_1"]
    batched, single, stream = _pair(query, rounds=600)
    third = len(stream) // 3
    assert batched.apply_all(stream[:third]) == _one_by_one(
        single, stream[:third]
    )
    for command in stream[third:2 * third]:
        delta_batched = batched.apply_with_delta(command)
        delta_single = single.apply_with_delta(command)
        assert sorted(delta_batched[0]) == sorted(delta_single[0])
        assert sorted(delta_batched[1]) == sorted(delta_single[1])
    rest = stream[2 * third:]
    assert batched.apply_all(rest) == _one_by_one(single, rest)
    _assert_identical(batched, single)


def test_wide_star_and_string_constants():
    query = star_query(4, free_leaves=2)
    rng = random.Random(9)
    batched = QHierarchicalEngine(query)
    single = QHierarchicalEngine(query)
    commands = []
    for step in range(800):
        relation = rng.choice(sorted({a.relation for a in query.atoms}))
        arity = query.arity_of(relation)
        row = tuple(f"v{rng.randint(1, 5)}" for _ in range(arity))
        commands.append(insert(relation, row))
    assert batched.apply_all(commands) == _one_by_one(single, commands)
    _assert_identical(batched, single)


def test_mixed_type_constants_never_collide():
    # 1 and "1" are distinct constants (1 and True, 1.0 are one key, as
    # in any Python set).
    query = Q_HIERARCHICAL["E_T_QF"]
    batched = QHierarchicalEngine(query)
    single = QHierarchicalEngine(query)
    commands = []
    for value in (1, "1", 2, "2", 1.5, True):
        commands.append(insert("E", (value, value)))
        commands.append(insert("T", (value,)))
    commands *= 20
    assert batched.apply_all(commands) == _one_by_one(single, commands)
    _assert_identical(batched, single)
    assert batched.count() == 5


@pytest.mark.parametrize(
    "bad, error",
    [
        (UpdateCommand("insert", "Nope", (1,)), SchemaError),
        (UpdateCommand("insert", "E", (1,)), UpdateError),
    ],
    ids=["unknown-relation", "bad-arity"],
)
def test_a_bad_command_leaves_exactly_the_applied_prefix(bad, error):
    query = Q_HIERARCHICAL["E_T_QF"]
    batched, single, stream = _pair(query, rounds=300)
    half = len(stream) // 2
    _one_by_one(single, stream[:half])
    with pytest.raises(error):
        batched.apply_all(stream[:half] + [bad] + stream[half:])
    _assert_identical(batched, single)


# ---------------------------------------------------------------------------
# serving: a kill -9 replay, and no numpy anywhere on the path
# ---------------------------------------------------------------------------


@pytest.mark.cluster
def test_cluster_view_replays_on_kill9():
    from repro.serve.cluster import ShardCluster
    from repro.serve.journal import CommandJournal
    from repro.serve.supervisor import Supervisor

    oracle = Session()
    oracle.view("nb", "V(x, y) :- R(x, y), S(y)")
    with ShardCluster(workers=2) as cluster:
        journal = CommandJournal()
        with cluster.client(journal=journal) as facade:
            supervisor = Supervisor(
                cluster, facade, journal=journal, heartbeat=0.1
            ).start()
            try:
                record = facade.view("nb", "V(x, y) :- R(x, y), S(y)")
                victim = record.worker
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
                # The view re-registered from its record and replayed
                # from the journal still matches the in-process oracle.
                assert facade.count("nb") == oracle["nb"].count()
                assert facade.result_set("nb") == oracle["nb"].result_set()
            finally:
                supervisor.stop()


_NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro import Server, Session
    from repro.cq.analysis import find_violation
    from repro.cq.zoo import PAPER_QUERIES
    from repro.storage.updates import delete, insert

    # Zoo queries reuse relation names at different arities, so the
    # views spread over as few sessions as keep each schema consistent.
    sessions = []
    for name, query in PAPER_QUERIES.items():
        if find_violation(query) is not None:
            continue
        arities = {atom.relation: atom.arity for atom in query.atoms}
        for session, schema in sessions:
            if all(schema.get(r, a) == a for r, a in arities.items()):
                break
        else:
            session, schema = Session(), {}
            sessions.append((session, schema))
        session.view(name, query)
        schema.update(arities)
    for session, schema in sessions:
        commands = [
            insert(relation, (1,) * arity)  # every atom joins
            for relation, arity in sorted(schema.items())
        ]
        for command in commands:
            session.apply(command)
        session.apply_all([c.inverse() for c in commands] + commands)
        with session.batch() as batch:
            for command in commands:
                batch.delete(command.relation, command.row)
        server = Server(session, shards=2)
        seen = []
        first = session.views[0].name
        server.subscribe(first, callback=seen.append)
        cursor = server.open_cursor(first)
        server.apply_all(commands)
        server.fetch(cursor, 10)
        server.apply(delete(commands[0].relation, commands[0].row))
        assert seen, "the subscriber saw no delta"
    assert "numpy" not in sys.modules, "the serving path imported numpy"
    print("ok", sum(len(session.views) for session, _ in sessions))
    """
)


def test_serving_path_never_imports_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok ")
