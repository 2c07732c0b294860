"""CI perf-regression gate: fresh bench JSON vs the committed baselines.

The repository root carries the authoritative benchmark trajectories
(``BENCH_update_throughput.json``, ``BENCH_serving.json``, both from
full runs).  CI re-runs the benches in ``--quick`` mode and this script
compares the *tracked metrics* of the fresh JSON against the committed
baseline, failing the job when any of them regresses beyond a
tolerance.

Tracked metrics are deliberately **ratios** (speedup geomeans, the
cursor flatness ratio), not absolute updates/sec: ratios compare the
same code against its own in-process baseline, so they are largely
independent of runner hardware and of the ``--quick`` sizing, which is
what makes a quick CI run comparable against a committed full-run
baseline at all.  Absolute throughputs are still recorded in the JSON
artifacts (and the nightly full run) — they are just not gated.

Tolerance: default 30% (``--tolerance 0.30``), generous on purpose —
shared CI runners are noisy and the quick sizes amplify variance.  The
override knob for a PR that intentionally trades one metric away::

    python benchmarks/check_regression.py ... --tolerance 0.5

or ``BENCH_REGRESSION_TOLERANCE=0.5`` in the workflow environment
(the CLI flag wins).  A tracked metric missing from the *baseline* is
skipped with a note (older baselines predate newer benches); missing
from the *fresh* run it fails — the bench stopped emitting something
it should.

Machine-readable output: ``--json-out gate.json`` writes one verdict
record per tracked metric (experiment, metric, fresh/baseline values,
bound, status) plus the overall outcome — what dashboards and the
nightly workflow consume.  When ``GITHUB_STEP_SUMMARY`` is set (any
GitHub Actions job), the same verdicts are appended to the job summary
as a markdown table, so the gate is readable without log digging.

Exit status: 0 all tracked metrics within tolerance, 1 regression(s),
2 usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (baseline file, fresh-run CLI flag) per experiment.
EXPERIMENTS = {
    "update_throughput": REPO_ROOT / "BENCH_update_throughput.json",
    "serving": REPO_ROOT / "BENCH_serving.json",
}

#: experiment → list of (json dotted path, direction, mode).
#:
#: ``direction`` — ``higher`` means a drop is a regression; ``lower``
#: the reverse (cursor flatness: 1.0 is perfect, growth means paging
#: degrades).
#:
#: ``mode`` — ``"relative"`` gates against the committed baseline value
#: with the tolerance; a float gates against that **absolute** bound
#: instead.  Relative gating needs the metric to be scale-robust (the
#: compiled-vs-reference speedup geomeans barely move between --quick
#: and full sizes).  Metrics that *grow with the data size* — the O(δ)
#: capture speedup is ~O(|result|), bulk preprocessing gains with
#: volume — would always look "regressed" when a quick run meets a
#: full-run baseline, so they get absolute guardrails: generous enough
#: for quick sizes on a noisy runner, tight enough to turn red when the
#: optimisation is actually broken (speedup collapsing towards 1).
TRACKED: Dict[str, List[Tuple[str, str, object]]] = {
    "update_throughput": [
        ("aggregates.update_engine_geomean", "higher", "relative"),
        ("aggregates.update_procedure_geomean", "higher", "relative"),
        # Absolute updates/sec floor for the compiled per-tuple
        # procedures (slowest query in the suite).  Scale-dependent by
        # nature, so the bound sits far below any healthy runner —
        # local quick runs clear 300k — and only trips when the
        # compiled path degenerates to interpreter-speed dispatch.
        ("aggregates.update_procedure_floor_ups", "higher", 25000.0),
        ("aggregates.preprocessing_geomean", "higher", 1.5),
    ],
    "serving": [
        ("cursor_resume.cursor_last_over_first", "lower", 3.0),
        ("subscription_delta.speedup", "higher", 10.0),
        ("sharded_writes.speedup_at_max_shards", "higher", 1.25),
        # The cluster-vs-threads ratio holds its own in --quick runs
        # (both sides measured in the same process on the same sizes),
        # but shared CI runners with 2 vCPUs squeeze a 4-process
        # cluster much harder than 4 threads — the guardrail is set
        # where only a genuinely broken transport (ratio collapsing
        # towards or below 1) trips it.
        ("multiprocess_shards.speedup_vs_inprocess_best", "higher", 1.1),
        ("async_dispatch.writer_speedup", "higher", 1.5),
        # Supervised failover: recovery of a SIGKILLed worker (respawn
        # + journal replay) must stay a bounded stall.  Absolute bound:
        # recovery time is dominated by process spawn + replay, not by
        # the --quick workload sizing, and 5s is an order of magnitude
        # above a healthy runner while a hung/broken recovery path
        # (blocked replay, lost notify) blows straight past it.
        ("failover.recovery_seconds", "lower", 5.0),
        # Snapshot-consistent cross-shard reads: the double-collect pin
        # must stay cheap next to moving the same rows (absolute ratio,
        # scale-robust: both sides transfer identical volume), and the
        # pin-retry loop must converge under a concurrent writer within
        # its budget (8 = the escalated write-gated final attempt) —
        # max_pin_attempts blowing past it means the escape hatch broke.
        ("snapshot_reads.overhead_vs_plain", "lower", 1.5),
        ("snapshot_reads.max_pin_attempts", "lower", 8.0),
        # Observability must stay near-free on the write path: the
        # instrumented server (registry counters, sampled guarantee
        # probes, engine series) may cost at most 5% over the
        # observe=False no-op fast path.  Absolute ratio, scale-robust:
        # both sides run the identical stream in the same process.
        ("observability_overhead.overhead_ratio", "lower", 1.05),
        # Parameterized views: one view + binding index vs a registered
        # view copy per binding.  Both guardrails are absolute ratios
        # and scale-robust: memory_ratio divides two measurements of
        # the same workload (one-view bytes over extrapolated
        # per-binding bytes — 5% is the headline guarantee, real runs
        # sit orders of magnitude below), and fanout_flatness divides
        # the per-update cost with thousands of bound subscribers by
        # the cost with four — the single O(δ) fan-out pass keeps it
        # near 1, so 5.0 only trips when fan-out degenerates to
        # per-subscriber re-evaluation.
        ("parameterized_views.memory_ratio", "lower", 0.05),
        ("parameterized_views.fanout_flatness", "lower", 5.0),
    ],
}


def dig(blob: Dict[str, object], path: str) -> Optional[float]:
    node: object = blob
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def evaluate_experiment(
    name: str,
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float,
    baseline_name: str = "baseline",
    fresh_name: str = "fresh",
) -> List[Dict[str, object]]:
    """One machine-readable verdict record per tracked metric.

    ``status`` is ``"ok"``, ``"regressed"``, ``"skipped"`` (relative
    metric absent from the baseline) or ``"missing"`` (absent from the
    fresh run — counted as a regression).
    """
    records: List[Dict[str, object]] = []
    for path, direction, mode in TRACKED[name]:
        record: Dict[str, object] = {
            "experiment": name,
            "metric": path,
            "direction": direction,
            "mode": "relative" if mode == "relative" else "absolute",
            "tolerance": tolerance if mode == "relative" else None,
        }
        base_value = dig(baseline, path)
        record["baseline"] = base_value
        if mode == "relative" and base_value is None:
            record.update(
                status="skipped",
                fresh=None,
                bound=None,
                note=f"not in {baseline_name} (predates this metric?)",
            )
            records.append(record)
            continue
        fresh_value = dig(fresh, path)
        record["fresh"] = fresh_value
        if fresh_value is None:
            record.update(
                status="missing",
                bound=None,
                note=f"missing from {fresh_name}; the bench stopped "
                "emitting it",
            )
            records.append(record)
            continue
        if mode == "relative":
            limit = (
                base_value * (1.0 - tolerance)
                if direction == "higher"
                else base_value * (1.0 + tolerance)
            )
        else:
            limit = float(mode)  # scale-dependent: absolute guardrail
        ok = (
            fresh_value >= limit
            if direction == "higher"
            else fresh_value <= limit
        )
        record.update(status="ok" if ok else "regressed", bound=limit)
        records.append(record)
    return records


def _record_line(record: Dict[str, object]) -> str:
    name = record["experiment"]
    path = record["metric"]
    if record["status"] == "skipped":
        return f"  skip {name}:{path} — {record['note']}"
    if record["status"] == "missing":
        return f"  {name}:{path} — {record['note']}"
    against = (
        f"baseline {record['baseline']:.3f}"
        if record["mode"] == "relative"
        else "absolute guardrail"
    )
    op = ">=" if record["direction"] == "higher" else "<="
    verdict = "ok" if record["status"] == "ok" else "REGRESSED"
    return (
        f"  {name}:{path} — fresh {record['fresh']:.3f} vs {against} "
        f"(need {op} {record['bound']:.3f}): {verdict}"
    )


def _load_and_evaluate(
    name: str,
    baseline_path: pathlib.Path,
    fresh_path: pathlib.Path,
    tolerance: float,
) -> List[Dict[str, object]]:
    """Read both JSON files and evaluate one experiment's tracked set."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    return evaluate_experiment(
        name,
        baseline,
        fresh,
        tolerance,
        baseline_name=baseline_path.name,
        fresh_name=fresh_path.name,
    )


def _regression_lines(records: List[Dict[str, object]]) -> List[str]:
    return [
        _record_line(record)
        for record in records
        if record["status"] in ("regressed", "missing")
    ]


def check_experiment(
    name: str,
    baseline_path: pathlib.Path,
    fresh_path: pathlib.Path,
    tolerance: float,
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, notes) for one experiment's tracked set."""
    records = _load_and_evaluate(name, baseline_path, fresh_path, tolerance)
    notes = [_record_line(record) for record in records]
    return _regression_lines(records), notes


def render_step_summary(
    records: List[Dict[str, object]], tolerance: float
) -> str:
    """A GitHub job-summary markdown table of the gate's verdicts."""
    regressed = sum(
        1 for r in records if r["status"] in ("regressed", "missing")
    )
    headline = (
        "all tracked metrics within tolerance"
        if not regressed
        else f"{regressed} tracked metric(s) regressed"
    )
    lines = [
        "## Perf-regression gate",
        "",
        f"**{headline}** (tolerance {tolerance:.0%})",
        "",
        "| metric | fresh | bound | mode | verdict |",
        "|---|---|---|---|---|",
    ]
    icons = {
        "ok": "✅ ok",
        "regressed": "❌ regressed",
        "missing": "❌ missing",
        "skipped": "⏭ skipped",
    }
    for record in records:
        fresh = (
            f"{record['fresh']:.3f}" if record.get("fresh") is not None else "—"
        )
        bound = (
            f"{'≥' if record['direction'] == 'higher' else '≤'} "
            f"{record['bound']:.3f}"
            if record.get("bound") is not None
            else "—"
        )
        lines.append(
            f"| `{record['experiment']}:{record['metric']}` | {fresh} "
            f"| {bound} | {record['mode']} | {icons[str(record['status'])]} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-update-throughput",
        type=pathlib.Path,
        help="fresh bench_update_throughput.py JSON to compare",
    )
    parser.add_argument(
        "--fresh-serving",
        type=pathlib.Path,
        help="fresh bench_serving.py JSON to compare",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed relative regression (default 0.30; env override "
        "BENCH_REGRESSION_TOLERANCE, this flag wins)",
    )
    parser.add_argument(
        "--json-out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable verdicts (one record per "
        "tracked metric plus the overall outcome) to this path",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get("BENCH_REGRESSION_TOLERANCE", "0.30"))
    if not 0 <= tolerance < 1:
        print(f"tolerance must be in [0, 1), got {tolerance}")
        return 2

    jobs: List[Tuple[str, pathlib.Path]] = []
    if args.fresh_update_throughput is not None:
        jobs.append(("update_throughput", args.fresh_update_throughput))
    if args.fresh_serving is not None:
        jobs.append(("serving", args.fresh_serving))
    if not jobs:
        print(
            "nothing to check: pass --fresh-update-throughput and/or "
            "--fresh-serving"
        )
        return 2

    all_regressions: List[str] = []
    all_records: List[Dict[str, object]] = []
    print(f"perf-regression gate (tolerance {tolerance:.0%})")
    for name, fresh_path in jobs:
        baseline_path = EXPERIMENTS[name]
        for path, label in ((baseline_path, "baseline"), (fresh_path, "fresh")):
            if not path.is_file():
                print(f"  {name}: {label} JSON missing: {path}")
                return 2
        records = _load_and_evaluate(name, baseline_path, fresh_path, tolerance)
        all_records.extend(records)
        print("\n".join(_record_line(record) for record in records))
        all_regressions.extend(_regression_lines(records))

    if args.json_out is not None:
        verdict_blob = {
            "tolerance": tolerance,
            "ok": not all_regressions,
            "metrics": all_records,
            "regressions": all_regressions,
        }
        args.json_out.write_text(
            json.dumps(verdict_blob, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote machine-readable verdicts to {args.json_out}")

    # Inside GitHub Actions, post the verdict table into the job
    # summary so the nightly/CI gate is readable without log digging.
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(render_step_summary(all_records, tolerance))

    if all_regressions:
        print()
        print(f"{len(all_regressions)} tracked metric(s) regressed:")
        print("\n".join(all_regressions))
        print(
            "\nIf this trade-off is intentional, raise the tolerance "
            "(--tolerance / BENCH_REGRESSION_TOLERANCE) for this run and "
            "refresh the committed baseline with a full bench run in the "
            "same PR."
        )
        return 1
    print("\nall tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
