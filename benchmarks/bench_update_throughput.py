"""Update-throughput and preprocessing benchmark for the dynamic engine.

Measures the compiled update-plan layer (generated runners, zero-aware
incremental counters, bulk preprocessing) against the seed reference
implementation (``tests/reference_engine.py``, the test suite's oracle,
loaded by file path), across the query zoo's q-hierarchical queries and
three update-stream shapes:

* ``insert`` — insert-only churn (fresh random tuples),
* ``delete`` — delete-heavy: preload, then remove every tuple,
* ``mixed``  — interleaved inserts and effective deletes,
* ``toggle`` — hub toggles on a preloaded star database (the Theorem
  3.2 contrast workload of ``benchmarks/_common.py``).

Two measurement tiers per stream:

* ``engine``    — ``DynamicEngine.apply`` end to end, including the
  shared set-semantics store (identical in both modes);
* ``procedure`` — the paper's *update procedure* alone (Section 6.4),
  entered through the engine's ``_on_insert``/``_on_delete`` hooks.
  Streams are pre-filtered to effective commands, so this isolates
  exactly the code the compiled plans replace.

Preprocessing compares bulk construction (an engine built over an
initial database → ``bulk_load``) against the seed's insert-by-insert
replay on the same databases.

GC is disabled inside the timed sections (collected right before), so
collector pauses land on neither side of a ratio.  Every comparison
asserts observational equivalence (count + result set) between the two
modes before its timings are recorded.

Output: a human-readable table on stdout and machine-readable JSON
(default ``BENCH_update_throughput.json`` at the repository root) with
per-case rows, aggregates and the PR's target checks.  ``--quick``
shrinks sizes for the CI smoke run.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import math
import pathlib
import platform
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import QHierarchicalEngine
from repro.cq import zoo
from repro.cq.analysis import find_violation
from repro.cq.query import ConjunctiveQuery
from repro.storage.database import Database
from repro.storage.updates import UpdateCommand, delete, insert
from repro.workloads.distributions import UniformDomain
from repro.workloads.streams import (
    insert_only_stream,
    mixed_stream,
    star_database,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_update_throughput.json"

# The vs-seed baseline lives with the tests (it is their oracle), not in
# the package: load it by path.
_spec = importlib.util.spec_from_file_location(
    "reference_engine", REPO_ROOT / "tests" / "reference_engine.py"
)
_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reference)
ReferenceEngine = _reference.ReferenceEngine


def zoo_queries() -> List[Tuple[str, ConjunctiveQuery]]:
    """The q-hierarchical members of the query zoo, plus star shapes."""
    picked: List[Tuple[str, ConjunctiveQuery]] = []
    for name, query in zoo.PAPER_QUERIES.items():
        if find_violation(query) is None:
            picked.append((name, query))
    picked.append(("STAR_3", zoo.star_query(3, free_leaves=3)))
    picked.append(("STAR_5", zoo.star_query(5, free_leaves=5)))
    return picked


# ---------------------------------------------------------------------------
# stream construction (all streams are effective-by-construction)
# ---------------------------------------------------------------------------


def build_streams(
    query: ConjunctiveQuery, count: int, seed: int
) -> Dict[str, List[UpdateCommand]]:
    rng = random.Random(seed)
    dense = UniformDomain(max(8, count // 50))
    inserts = []
    seen = set()
    for command in insert_only_stream(rng, query, count, domain=dense):
        key = (command.relation, command.row)
        if key not in seen:  # keep the stream effective for both tiers
            seen.add(key)
            inserts.append(command)
    deletes = [command.inverse() for command in inserts]
    rng.shuffle(deletes)
    mixed = mixed_stream(rng, query, count, domain=dense)
    return {"insert": inserts, "delete": deletes, "mixed": mixed}


def toggle_workload(
    fanout: int, n: int, rounds: int
) -> Tuple[ConjunctiveQuery, Database, List[UpdateCommand]]:
    """Hub toggles on a preloaded star database (all effective)."""
    query = zoo.star_query(fanout, free_leaves=fanout)
    database = star_database(random.Random(3), n, fanout)
    commands: List[UpdateCommand] = []
    for step in range(rounds):
        row = (5, 10_000 + step)
        commands.append(insert("E1", row))
        commands.append(delete("E1", row))
    return query, database, commands


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def time_stream(
    query: ConjunctiveQuery,
    commands: Sequence[UpdateCommand],
    compiled: bool,
    tier: str,
    database: Optional[Database],
    preload: Sequence[UpdateCommand],
    reps: int,
) -> Tuple[float, QHierarchicalEngine]:
    """Best-of-``reps`` seconds to run ``commands`` on a fresh engine."""
    best = math.inf
    engine = None
    for _ in range(reps):
        engine = (QHierarchicalEngine if compiled else ReferenceEngine)(
            query, database
        )
        for command in preload:
            engine.apply(command)
        if tier == "engine":
            apply = engine.apply
            best = min(best, _timed(lambda: [apply(c) for c in commands]))
        else:
            # The paper's update procedure alone: streams are effective
            # by construction, so the set-semantics store may be kept
            # out of the measurement (it is identical in both modes).
            on_insert = engine._on_insert
            on_delete = engine._on_delete
            ops = [
                (on_insert if c.op == "insert" else on_delete, c.relation, c.row)
                for c in commands
            ]

            def run() -> None:
                for op, rel, row in ops:
                    op(rel, row)

            best = min(best, _timed(run))
    return best, engine


def check_equivalence(
    query: ConjunctiveQuery,
    commands: Sequence[UpdateCommand],
    database: Optional[Database] = None,
) -> None:
    """Both modes must agree observationally after the stream.

    The result set is only materialised when small — on dense star
    databases the count is combinatorial (which is exactly why O(1)
    counting matters); there the O(1)/O(k)-per-probe surfaces are
    compared instead: count, answer, a prefix of the enumeration and
    cross-checked ``contains`` probes.
    """
    fast = QHierarchicalEngine(query, database)
    slow = ReferenceEngine(query, None if database is None else database.copy())
    for command in commands:
        fast.apply(command)
        slow.apply(command)
    assert fast.count() == slow.count(), query.name
    assert fast.answer() == slow.answer(), query.name
    if 0 <= fast.count() <= 50_000:
        assert fast.result_set() == slow.result_set(), query.name
    else:
        sample = list(itertools.islice(fast.enumerate(), 500))
        for row in sample:
            assert slow.contains(row), (query.name, row)
        for row in itertools.islice(slow.enumerate(), 500):
            assert fast.contains(row), (query.name, row)


# ---------------------------------------------------------------------------
# benchmark phases
# ---------------------------------------------------------------------------


def bench_updates(count: int, reps: int, quick: bool) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    queries = zoo_queries()
    if quick:
        queries = queries[:3] + [queries[-1]]
    for name, query in queries:
        streams = build_streams(query, count, seed=7)
        check_equivalence(query, streams["mixed"])
        for stream_name, commands in streams.items():
            preload = streams["insert"] if stream_name == "delete" else ()
            for tier in ("engine", "procedure"):
                compiled_s, _ = time_stream(
                    query, commands, True, tier, None, preload, reps
                )
                reference_s, _ = time_stream(
                    query, commands, False, tier, None, preload, reps
                )
                rows.append(
                    {
                        "query": name,
                        "stream": stream_name,
                        "tier": tier,
                        "updates": len(commands),
                        "compiled_ups": len(commands) / compiled_s,
                        "reference_ups": len(commands) / reference_s,
                        "speedup": reference_s / compiled_s,
                    }
                )
    return rows


def bench_toggle(rounds: int, reps: int, quick: bool) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    fanouts = (3,) if quick else (3, 5, 8)
    for fanout in fanouts:
        query, database, commands = toggle_workload(
            fanout, n=200 if quick else 500, rounds=rounds
        )
        check_equivalence(query, commands[:200], database)
        for tier in ("engine", "procedure"):
            compiled_s, _ = time_stream(
                query, commands, True, tier, database, (), reps
            )
            reference_s, _ = time_stream(
                query, commands, False, tier, database, (), reps
            )
            rows.append(
                {
                    "query": f"STAR_{fanout}_HUB",
                    "stream": "toggle",
                    "tier": tier,
                    "updates": len(commands),
                    "compiled_ups": len(commands) / compiled_s,
                    "reference_ups": len(commands) / reference_s,
                    "speedup": reference_s / compiled_s,
                }
            )
    return rows


def bench_preprocessing(
    count: int, reps: int, quick: bool
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    queries = zoo_queries()
    if quick:
        queries = queries[:2]
    rng = random.Random(9)
    for name, query in queries:
        database = Database.empty_like(query)
        domain = UniformDomain(max(8, count // 300))
        for command in insert_only_stream(rng, query, count, domain=domain):
            database.insert(command.relation, command.row)

        bulk = QHierarchicalEngine(query, database)
        replay = ReferenceEngine(query, database.copy())
        assert bulk.count() == replay.count(), name
        if 0 <= bulk.count() <= 50_000:
            assert bulk.result_set() == replay.result_set(), name

        bulk_s = min(
            _timed(lambda: QHierarchicalEngine(query, database))
            for _ in range(reps)
        )
        replay_s = min(
            _timed(lambda: ReferenceEngine(query, database))
            for _ in range(reps)
        )
        rows.append(
            {
                "query": name,
                "rows": database.cardinality,
                "size": database.size,
                "bulk_s": bulk_s,
                "replay_s": replay_s,
                "rows_per_s_bulk": database.cardinality / bulk_s,
                "rows_per_s_replay": database.cardinality / replay_s,
                "speedup": replay_s / bulk_s,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# aggregation / reporting
# ---------------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def aggregate(
    update_rows: List[Dict[str, object]],
    pre_rows: List[Dict[str, object]],
) -> Dict[str, float]:
    engine = [r["speedup"] for r in update_rows if r["tier"] == "engine"]
    procedure = [r["speedup"] for r in update_rows if r["tier"] == "procedure"]
    procedure_ups = [
        r["compiled_ups"] for r in update_rows if r["tier"] == "procedure"
    ]
    pre = [r["speedup"] for r in pre_rows]
    return {
        "update_engine_geomean": round(geomean(engine), 3),
        "update_engine_best": round(max(engine), 3) if engine else 0.0,
        "update_procedure_geomean": round(geomean(procedure), 3),
        "update_procedure_best": round(max(procedure), 3) if procedure else 0.0,
        # The slowest compiled update-procedure rate of the run — the
        # absolute tuples/s guardrail of check_regression.py (a ratio
        # gate alone cannot catch a regressed committed baseline).
        "update_procedure_floor_ups": (
            round(min(procedure_ups), 1) if procedure_ups else 0.0
        ),
        "preprocessing_geomean": round(geomean(pre), 3),
        "preprocessing_best": round(max(pre), 3) if pre else 0.0,
    }


def render_table(update_rows, pre_rows, aggregates) -> str:
    lines = ["update throughput (updates/sec, compiled vs seed reference)", ""]
    lines.append(
        f"{'query':<18} {'stream':<7} {'tier':<10} "
        f"{'compiled':>12} {'reference':>12} {'speedup':>8}"
    )
    for r in update_rows:
        lines.append(
            f"{r['query']:<18} {r['stream']:<7} {r['tier']:<10} "
            f"{r['compiled_ups']:>12.0f} {r['reference_ups']:>12.0f} "
            f"{r['speedup']:>7.2f}x"
        )
    lines.append("")
    lines.append("preprocessing (bulk load vs insert-by-insert replay)")
    lines.append("")
    lines.append(
        f"{'query':<18} {'rows':>8} {'bulk':>10} {'replay':>10} {'speedup':>8}"
    )
    for r in pre_rows:
        lines.append(
            f"{r['query']:<18} {r['rows']:>8} {r['bulk_s']*1000:>8.1f}ms "
            f"{r['replay_s']*1000:>8.1f}ms {r['speedup']:>7.2f}x"
        )
    lines.append("")
    for key, value in aggregates.items():
        suffix = "" if key.endswith("_ups") else "x"
        lines.append(f"{key:<32} {value:,.2f}{suffix}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes: fewer queries, smaller streams, 1 rep",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply stream/database sizes (default 1.0)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"JSON output path (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Preprocessing still needs a non-toy database: below ~10k rows
        # the one-off plan-compilation cost dominates the bulk side.
        update_count, toggle_rounds, pre_count, reps = 2000, 1000, 30000, 1
    else:
        update_count, toggle_rounds, pre_count, reps = 10000, 6000, 60000, 2
    update_count = max(200, int(update_count * args.scale))
    toggle_rounds = max(100, int(toggle_rounds * args.scale))
    pre_count = max(500, int(pre_count * args.scale))

    update_rows = bench_updates(update_count, reps, args.quick)
    update_rows += bench_toggle(toggle_rounds, reps, args.quick)
    pre_rows = bench_preprocessing(pre_count, reps, args.quick)
    aggregates = aggregate(update_rows, pre_rows)

    quick_note = (
        " (quick smoke sizes understate both sides; authoritative "
        "numbers come from a full run)"
        if args.quick
        else ""
    )
    targets = {
        "update_throughput_3x": {
            "metric": "update_procedure_geomean",
            "value": aggregates["update_procedure_geomean"],
            "met": aggregates["update_procedure_geomean"] >= 3.0,
            "note": "the Section 6.4 update procedure the compiled plans "
            "replace; 'engine' rows additionally include the shared "
            "set-semantics store, identical in both modes" + quick_note,
        },
        "preprocessing_5x": {
            "metric": "preprocessing_best",
            "value": aggregates["preprocessing_best"],
            "met": aggregates["preprocessing_best"] >= 5.0,
            "note": "bulk_load vs insert-by-insert replay on the same "
            "initial database (geomean also reported)" + quick_note,
        },
    }

    report = {
        "meta": {
            "experiment": "update_throughput",
            "quick": args.quick,
            "scale": args.scale,
            "reps": reps,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "unix_time": int(time.time()),
        },
        "update_throughput": update_rows,
        "preprocessing": pre_rows,
        "aggregates": aggregates,
        "targets": targets,
    }

    text = render_table(update_rows, pre_rows, aggregates)
    print(text)
    print()
    for name, target in targets.items():
        state = "MET" if target["met"] else "not met"
        print(f"target {name}: {target['value']:.2f}x ({target['metric']}) — {state}")

    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
