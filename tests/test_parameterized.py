"""Parameterized views: bindings, access patterns, per-binding deltas.

The invariant throughout: a bound read (``cursor(u=c)``,
``enumerate_bound``, a bound subscription) must be **byte-identical**
to filtering the unbound result/delta stream client-side — across the
threads, sharded and processes backends, under concurrent writes, and
across a ``kill -9`` recovery.  The bound path is an optimisation
(pinned / probed walks, delta-IVM's binding index, one O(δ) fan-out
pass), never a
semantics change.
"""

import threading
import time

import pytest

from repro import Server, Session
from repro.api.access import (
    classify_access_pattern,
    normalize_access_declaration,
    normalize_binding,
)
from repro.api.planner import parse_view
from repro.errors import QueryStructureError
from repro.interface import make_engine
from repro.storage.updates import delete, insert

QH_TEXT = "Feed(me, a, p) :- Follows(me, a), Posted(a, p)"
HARD_TEXT = "Q(x, y) :- S(x), E(x, y), T(y)"  # the paper's ϕ_S-E-T
UCQ_TEXT = """
    Alert(d, e) :- Event(d, e), Flagged(d)
    Alert(d, e) :- Critical(d, e)
"""


def feed_commands(users=4, authors=3, posts=3):
    commands = []
    for u in range(users):
        for a in range(authors):
            if (u + a) % 2 == 0:
                commands.append(insert("Follows", (f"u{u}", f"a{a}")))
    for a in range(authors):
        for p in range(posts):
            commands.append(insert("Posted", (f"a{a}", f"p{a}_{p}")))
    return commands


def bound_filter(rows, free, binding):
    checks = [(free.index(v), value) for v, value in binding.items()]
    return {
        row
        for row in rows
        if all(row[i] == value for i, value in checks)
    }


# ---------------------------------------------------------------------------
# normalize_binding: the one helper behind every surface
# ---------------------------------------------------------------------------


class TestNormalizeBinding:
    def test_merges_dict_and_kwargs(self):
        merged = normalize_binding(
            {"a": 1}, {"b": 2}, free=("a", "b", "c"), context="cursor()"
        )
        assert merged == {"a": 1, "b": 2}

    def test_empty_is_none(self):
        assert normalize_binding(None, {}, free=("a",), context="c()") is None
        assert normalize_binding({}, {}, free=("a",), context="c()") is None

    def test_non_mapping_binding_names_the_parameter(self):
        with pytest.raises(QueryStructureError, match="'binding'"):
            normalize_binding(5, {}, free=("a",), context="cursor()")

    def test_twice_bound_conflicting_values_rejected(self):
        with pytest.raises(QueryStructureError, match="binds 'a' twice"):
            normalize_binding(
                {"a": 1}, {"a": 2}, free=("a",), context="cursor()"
            )

    def test_twice_bound_same_value_is_fine(self):
        merged = normalize_binding(
            {"a": 1}, {"a": 1}, free=("a",), context="cursor()"
        )
        assert merged == {"a": 1}

    def test_unknown_variable_suggests_free_variable(self):
        with pytest.raises(
            QueryStructureError,
            match="did you mean the output variable 'author'",
        ):
            normalize_binding(
                None, {"autor": 3}, free=("me", "author"), context="cursor()"
            )

    def test_unknown_kwarg_suggests_parameter(self):
        with pytest.raises(
            QueryStructureError,
            match="did you mean the parameter 'dispatcher'",
        ):
            normalize_binding(
                None,
                {"dispacher": object()},
                free=("me", "author"),
                context="subscribe()",
                parameters=("callback", "max_pending", "dispatcher"),
            )

    def test_reserved_keyword_collision_explained(self):
        # A view whose output variable is literally named ``snapshot``:
        # the kwarg is claimed by the parameter, so binding it by
        # keyword must point at the dict spelling instead.
        with pytest.raises(
            QueryStructureError, match="bind it through the dict"
        ):
            normalize_binding(
                None,
                {"snapshot": 7},
                free=("snapshot", "x"),
                context="cursor()",
                flags={"snapshot": 7},
            )
        # via the dict it works
        merged = normalize_binding(
            {"snapshot": 7}, {}, free=("snapshot", "x"), context="cursor()"
        )
        assert merged == {"snapshot": 7}


# ---------------------------------------------------------------------------
# classification: (query, access pattern) → pinned / probed / indexed / filter
# ---------------------------------------------------------------------------


class TestClassification:
    def test_qtree_prefix_is_pinned(self):
        # the q-tree of Feed roots at the shared join variable a, so
        # any ancestor-closed set containing a pins for free
        query = parse_view(QH_TEXT)
        for variables in (("a",), ("me", "a"), ("a", "p")):
            pattern = classify_access_pattern(
                query, "qhierarchical", variables
            )
            assert pattern.mode == "pinned", variables
            assert pattern.lookup.startswith("O(1)")

    def test_non_prefix_on_qh_engine_is_probed(self):
        query = parse_view(QH_TEXT)
        # binding only a leaf variable skips its q-tree ancestor a
        for variables in (("me",), ("p",)):
            pattern = classify_access_pattern(
                query, "qhierarchical", variables
            )
            assert pattern.mode == "probed", variables
            assert pattern.update.startswith("no extra cost")
            assert "not constant" in pattern.delay

    def test_delta_ivm_gets_indexed(self):
        query = parse_view(HARD_TEXT)
        pattern = classify_access_pattern(query, "delta_ivm", ("x",))
        assert pattern.mode == "indexed"
        # the only engine that keeps state for a binding
        for engine in ("qhierarchical", "ucq_union", "recompute", "phi2_appendix"):
            query = parse_view(QH_TEXT)
            for variables in (("me",), ("a",), ("p",), ("me", "p")):
                mode = classify_access_pattern(query, engine, variables).mode
                assert mode != "indexed", (engine, variables)

    def test_recompute_gets_filter(self):
        query = parse_view(QH_TEXT)
        pattern = classify_access_pattern(query, "recompute", ("me",))
        assert pattern.mode == "filter"
        appendix = classify_access_pattern(query, "phi2_appendix", ("me",))
        assert appendix.mode == "filter"

    def test_ucq_pinned_needs_every_disjunct_closed(self):
        union = parse_view(UCQ_TEXT)
        pattern = classify_access_pattern(union, "ucq_union", ("d",))
        assert pattern.mode == "pinned"
        # binding the inner variable e alone cannot be prefix-closed
        # in the first disjunct (d is its root) — it is probed there
        inner = classify_access_pattern(union, "ucq_union", ("e",))
        assert inner.mode == "probed"

    def test_declaration_normalizes_and_validates(self):
        patterns = normalize_access_declaration(
            "me", ("me", "a", "p"), context="view 'feed'"
        )
        assert patterns == (("me",),)
        patterns = normalize_access_declaration(
            [("p", "a")], ("me", "a", "p"), context="view 'feed'"
        )
        assert patterns == (("a", "p"),)  # canonical free order
        with pytest.raises(QueryStructureError):
            normalize_access_declaration(
                {"nope"}, ("me", "a", "p"), context="view 'feed'"
            )


# ---------------------------------------------------------------------------
# engine layer: delta-IVM's binding indexes and per-binding deltas
# ---------------------------------------------------------------------------


class TestEngineBindingIndex:
    def test_enumerate_bound_matches_filter_under_updates(self):
        engine = make_engine("delta_ivm", parse_view(QH_TEXT))
        key = engine.register_access_pattern(("a",))
        assert key == ("a",)
        assert engine.access_patterns == (("a",),)
        for command in feed_commands():
            engine.apply(command)
        free = list(engine._query.free)
        for a in ("a0", "a1", "a2", "missing"):
            binding = {"a": a}
            assert set(engine.enumerate_bound(binding)) == bound_filter(
                engine.result_set(), free, binding
            )
        # deletions shrink the index too
        engine.apply(delete("Posted", ("a0", "p0_0")))
        assert set(engine.enumerate_bound({"a": "a0"})) == bound_filter(
            engine.result_set(), free, {"a": "a0"}
        )

    def test_plain_updates_and_net_batches_keep_the_index_exact(self):
        engine = make_engine("delta_ivm", parse_view(QH_TEXT))
        engine.register_access_pattern(("me",))
        # insert/delete after registration must keep the index fresh
        engine.insert("Follows", ("u0", "a0"))
        engine.insert("Posted", ("a0", "p1"))
        assert set(engine.enumerate_bound({"me": "u0"})) == {
            ("u0", "a0", "p1")
        }
        engine.delete("Follows", ("u0", "a0"))
        assert set(engine.enumerate_bound({"me": "u0"})) == set()
        assert engine.binding_index_size() == 0
        # so does a netted batch: the index rides the counts, not deltas
        engine.apply_net({"Follows": ([("u1", "a0")], [], 3, 2)})
        assert list(engine.enumerate_bound({"me": "u1"})) == [
            ("u1", "a0", "p1")
        ]
        assert engine.epoch == 8

    def test_delta_for_binding_restricts_in_place(self):
        engine = make_engine("qhierarchical", parse_view(QH_TEXT))
        engine.insert("Follows", ("u0", "a0"))
        engine.insert("Follows", ("u1", "a0"))
        added, removed = engine.apply_with_delta(insert("Posted", ("a0", "p")))
        assert len(added) == 2 and not removed
        a, r = engine.delta_for_binding({"me": "u0"}, (added, removed))
        assert a == (("u0", "a0", "p"),) and r == ()
        a, r = engine.delta_for_binding({"me": "zz"}, (added, removed))
        assert a == () and r == ()
        # empty binding is the identity
        a, r = engine.delta_for_binding({}, (added, removed))
        assert set(a) == set(added) and r == ()
        with pytest.raises(QueryStructureError):
            engine.delta_for_binding({"nope": 1}, (added, removed))

    def test_bound_reads_on_every_engine(self):
        for engine_name in ("qhierarchical", "delta_ivm", "recompute"):
            engine = make_engine(engine_name, parse_view(QH_TEXT))
            for command in feed_commands():
                engine.apply(command)
            free = list(engine._query.free)
            binding = {"me": "u1"}
            assert set(engine.enumerate_bound(binding)) == bound_filter(
                engine.result_set(), free, binding
            ), engine_name

    def test_bound_reads_on_union_engine(self):
        engine = make_engine("ucq_union", parse_view(UCQ_TEXT))
        for i in range(6):
            engine.apply(insert("Event", (i % 3, i)))
            if i % 2 == 0:
                engine.apply(insert("Flagged", (i % 3,)))
            engine.apply(insert("Critical", (i % 3, 100 + i)))
        free = list(engine._query.free)
        for binding in [{"d": d} for d in (0, 1, 2, 9)] + [
            {"e": e} for e in (0, 3, 101, 9)
        ]:
            assert set(engine.enumerate_bound(binding)) == bound_filter(
                engine.result_set(), free, binding
            )


# ---------------------------------------------------------------------------
# Session/View surface: declared patterns, explain, bound serving
# ---------------------------------------------------------------------------


class TestViewSurface:
    def test_declared_access_shows_in_explain(self):
        session = Session()
        feed = session.view("feed", QH_TEXT, access={"a"})
        patterns = feed.access_patterns
        assert len(patterns) == 1
        assert patterns[0].variables == ("a",)
        assert patterns[0].declared
        rendered = feed.explain().render()
        assert "access patterns:" in rendered
        assert "(a)" in rendered and "pinned" in rendered

    def test_first_bound_use_infers_a_pattern(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        assert feed.access_patterns == ()
        for command in feed_commands():
            session.apply(command)
        cursor = feed.cursor(p="p0_0")
        assert cursor.fetch_all()
        patterns = feed.access_patterns
        assert [p.variables for p in patterns] == [("p",)]
        assert not patterns[0].declared
        assert patterns[0].mode == "probed"
        # the probed pattern is served from the structure: the engine
        # holds no state for it beyond the walker compiled for ("p",)
        assert not hasattr(feed.engine, "_binding_indexes")
        assert feed.engine.plan_stats()["bound_walkers"] == ["p"]

    def test_invalid_declared_access_rejected_before_registration(self):
        session = Session()
        with pytest.raises(QueryStructureError, match="did you mean"):
            session.view("feed", QH_TEXT, access={"mee"})
        assert "feed" not in session

    def test_bound_cursor_differential(self):
        session = Session()
        feed = session.view("feed", QH_TEXT, access={"me"})
        for command in feed_commands():
            session.apply(command)
        free = list(feed.query.free)
        for me in ("u0", "u1", "u2", "u3", "ghost"):
            rows = feed.cursor(me=me).fetch_all()
            assert set(rows) == bound_filter(
                feed.result_set(), free, {"me": me}
            )
            assert sorted(rows) == sorted(
                feed.enumerate_bound(me=me)
            )

    def test_bound_subscription_matches_client_side_filter(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        plain = feed.subscribe()
        bound = feed.subscribe(me="u1")
        for command in feed_commands():
            session.apply(command)
        session.delete("Follows", ("u1", "a1"))
        bound_deltas = bound.poll()
        plain_deltas = plain.poll()
        # replay the plain stream through delta_for_binding: the bound
        # stream must be exactly the non-empty restrictions, in order
        expected = []
        for d in plain_deltas:
            a, r = feed.engine.delta_for_binding(
                {"me": "u1"}, (d.added, d.removed)
            )
            if a or r:
                expected.append((d.epoch, a, r))
        got = [(d.epoch, d.added, d.removed) for d in bound_deltas]
        assert got == expected
        assert all(d.binding == {"me": "u1"} for d in bound_deltas)
        assert all(
            row[0] == "u1" for d in bound_deltas for row in d.added + d.removed
        )

    def test_fan_out_serves_many_bindings_from_one_pass(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        subs = {u: feed.subscribe(me=u) for u in ("u0", "u1", "u2", "u3")}
        for command in feed_commands():
            session.apply(command)
        free = list(feed.query.free)
        for u, sub in subs.items():
            rows = set()
            for d in sub.poll():
                rows |= set(d.added)
                rows -= set(d.removed)
            assert rows == bound_filter(feed.result_set(), free, {"me": u})

    def test_dropping_bound_subscriber_stops_delta_work(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        sub = feed.subscribe(me="u0")
        sub.close()
        assert feed.subscriptions == ()
        assert not feed._bound_subs

    def test_subscribe_typo_names_the_parameter(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        with pytest.raises(
            QueryStructureError,
            match="did you mean the parameter 'dispatcher'",
        ):
            feed.subscribe(dispacher=None or object())

    def test_cursor_binding_parameter_collision(self):
        session = Session()
        feed = session.view("feed", QH_TEXT)
        with pytest.raises(QueryStructureError, match="'binding'"):
            feed.cursor(binding=5)

    def test_observed_bound_delay_reaches_explain(self):
        session = Session()
        feed = session.view("feed", QH_TEXT, access={"me"})
        for command in feed_commands():
            session.apply(command)
        for _ in range(4):
            feed.cursor(me="u0").fetch_all()
        observed = feed.explain().observed
        assert "me" in observed.get("access_patterns", {})
        rendered = feed.explain().render()
        assert "observed delay" in rendered


# ---------------------------------------------------------------------------
# threads backend (Server): same keyword surface over the dict protocol
# ---------------------------------------------------------------------------


class TestServerBackend:
    def test_bound_cursor_over_server(self):
        session = Session()
        server = session.serve(backend="threads", shards=2)
        server.view("feed", QH_TEXT, access={"me"})
        for command in feed_commands():
            server.apply(command)
        view = session["feed"]
        free = list(view.query.free)
        for me in ("u0", "u3", "ghost"):
            cursor = server.open_cursor("feed", me=me)
            assert set(server.fetch(cursor, 10_000)) == bound_filter(
                view.result_set(), free, {"me": me}
            )

    def test_bound_subscription_over_dict_protocol(self):
        server = Server(Session())
        server.handle({"op": "view", "name": "v", "query": QH_TEXT})
        reply = server.handle(
            {"op": "subscribe", "view": "v", "binding": {"me": "u0"}}
        )
        assert reply["ok"]
        handle = reply["subscription"]
        server.handle(
            {"op": "insert", "relation": "Follows", "row": ("u0", "a")}
        )
        server.handle(
            {"op": "insert", "relation": "Follows", "row": ("u1", "a")}
        )
        server.handle({"op": "insert", "relation": "Posted", "row": ("a", "p")})
        polled = server.handle({"op": "poll", "subscription": handle})
        deltas = [d for d in polled["deltas"] if d["added"] or d["removed"]]
        assert len(deltas) == 1
        assert deltas[0]["added"] == [("u0", "a", "p")]
        assert deltas[0]["binding"] == {"me": "u0"}

    def test_bound_cursor_under_concurrent_writes(self):
        session = Session()
        server = session.serve(backend="threads", shards=2)
        server.view("feed", QH_TEXT, access={"me"})
        for command in feed_commands():
            server.apply(command)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                server.insert("Posted", ("a0", f"w{i}"))
                server.delete("Posted", ("a0", f"w{i}"))
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            # u2 follows a0, so churn rows land inside the binding:
            # every page must still honour it, with no duplicates, and
            # always contain the stable (never-churned) rows
            stable = {("u2", "a0", f"p0_{p}") for p in range(3)}
            for _ in range(30):
                cursor = server.open_cursor("feed", me="u2", snapshot=True)
                rows = server.fetch(cursor, 10_000)
                assert all(row[0] == "u2" for row in rows)
                assert len(rows) == len(set(rows))
                assert stable <= set(rows)
        finally:
            stop.set()
            thread.join()
        # quiesced: the bound cursor agrees exactly with the filter
        free = list(session["feed"].query.free)
        cursor = server.open_cursor("feed", me="u2")
        assert set(server.fetch(cursor, 10_000)) == bound_filter(
            server.result_set("feed"), free, {"me": "u2"}
        )


# ---------------------------------------------------------------------------
# processes backend: bound reads over the wire, kill -9, migration
# ---------------------------------------------------------------------------

@pytest.mark.cluster
class TestClusterBackend:
    def test_bound_cursor_and_subscription_differential(self):
        session = Session()
        client = session.serve(backend="processes", shards=2)
        try:
            client.view("feed", QH_TEXT, access={"me"})
            handle = client.subscribe("feed", me="u1")
            for command in feed_commands():
                client.apply(command)
            oracle = Session()
            oracle.view("feed", QH_TEXT)
            for command in feed_commands():
                oracle.apply(command)
            expected = oracle["feed"].result_set()
            free = list(oracle["feed"].query.free)
            for me in ("u0", "u1", "ghost"):
                cursor = client.open_cursor("feed", me=me)
                rows = client.fetch(cursor, 10_000)
                assert set(rows) == bound_filter(expected, free, {"me": me})
            deltas = client.poll(handle)
            rows = set()
            for d in deltas:
                assert d.binding == {"me": "u1"}
                rows |= set(d.added)
                rows -= set(d.removed)
            assert rows == bound_filter(expected, free, {"me": "u1"})
        finally:
            client.close()

    def test_bound_reads_survive_kill_minus_nine(self):
        session = Session()
        client = session.serve(
            backend="processes", shards=2, supervise=True
        )
        try:
            record = client.view("feed", QH_TEXT, access={"me"})
            for command in feed_commands():
                client.apply(command)
            assert record.access == [["me"]]
            assert record.registration()["access"] == [["me"]]
            victim = record.worker
            cluster = client._cluster
            cluster.kill_worker(victim)
            deadline = time.monotonic() + 5.0
            while (
                cluster.workers[victim].alive()
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            # recovery replays the view WITH its access declaration;
            # the bound read must agree with the client-side filter
            oracle = Session()
            oracle.view("feed", QH_TEXT)
            for command in feed_commands():
                oracle.apply(command)
            free = list(oracle["feed"].query.free)
            expected = bound_filter(
                oracle["feed"].result_set(), free, {"me": "u2"}
            )
            deadline = time.monotonic() + 10.0
            rows = None
            while time.monotonic() < deadline:
                try:
                    cursor = client.open_cursor("feed", me="u2")
                    rows = set(client.fetch(cursor, 10_000))
                    break
                except Exception:
                    time.sleep(0.05)
            assert rows == expected
        finally:
            client.close()

    def test_migration_preserves_bound_subscription(self):
        session = Session()
        client = session.serve(backend="processes", shards=2)
        try:
            client.view("feed", QH_TEXT, access={"me"})
            client.insert("Follows", ("u0", "a"))
            client.insert("Follows", ("u1", "a"))
            handle = client.subscribe("feed", me="u0")
            client.insert("Posted", ("a", "p0"))
            source = client._worker_of_view("feed")
            target = (source + 1) % 2
            client.migrate_view("feed", target)
            client.insert("Posted", ("a", "p1"))
            rows = set()
            for d in client.poll(handle):
                assert d.binding == {"me": "u0"}
                rows |= set(d.added)
            assert rows == {("u0", "a", "p0"), ("u0", "a", "p1")}
        finally:
            client.close()
