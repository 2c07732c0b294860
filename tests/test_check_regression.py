"""The CI perf-regression gate: tracked-metric comparison logic."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_regression.py"
)
spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)


def write(path, blob):
    path.write_text(json.dumps(blob), encoding="utf-8")
    return path


def serving_blob(
    sharded=2.2,
    async_speedup=10.0,
    flatness=1.1,
    delta=20000.0,
    multiproc=2.0,
    recovery=0.3,
    snapshot_overhead=1.1,
    snapshot_pins=2,
    obs_overhead=1.01,
    param_memory=0.002,
    param_fanout=1.3,
):
    return {
        "cursor_resume": {"cursor_last_over_first": flatness},
        "subscription_delta": {"speedup": delta},
        "sharded_writes": {"speedup_at_max_shards": sharded},
        "multiprocess_shards": {"speedup_vs_inprocess_best": multiproc},
        "async_dispatch": {"writer_speedup": async_speedup},
        "failover": {"recovery_seconds": recovery},
        "snapshot_reads": {
            "overhead_vs_plain": snapshot_overhead,
            "max_pin_attempts": snapshot_pins,
        },
        "observability_overhead": {"overhead_ratio": obs_overhead},
        "parameterized_views": {
            "memory_ratio": param_memory,
            "fanout_flatness": param_fanout,
        },
    }


def test_dig_walks_dotted_paths():
    blob = {"a": {"b": {"c": 1.5}}, "flag": True}
    assert check_regression.dig(blob, "a.b.c") == 1.5
    assert check_regression.dig(blob, "a.missing") is None
    assert check_regression.dig(blob, "flag") is None  # bools not metrics


def test_within_tolerance_passes(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    fresh = write(tmp_path / "fresh.json", serving_blob(sharded=1.9))
    regressions, notes = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert regressions == []
    assert any("ok" in line for line in notes)


def test_absolute_guardrail_turns_red(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    fresh = write(
        tmp_path / "fresh.json", serving_blob(async_speedup=0.9)
    )  # a 2x-slowdown-style collapse: below the 1.5 guardrail
    regressions, _ = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert len(regressions) == 1
    assert "async_dispatch.writer_speedup" in regressions[0]


def test_lower_is_better_direction(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    fresh = write(tmp_path / "fresh.json", serving_blob(flatness=9.0))
    regressions, _ = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert any("cursor_last_over_first" in line for line in regressions)


def update_blob(
    engine=3.0,
    procedure=3.0,
    floor=300000.0,
    preprocessing=4.0,
):
    return {
        "aggregates": {
            "update_engine_geomean": engine,
            "update_procedure_geomean": procedure,
            "update_procedure_floor_ups": floor,
            "preprocessing_geomean": preprocessing,
        },
    }


def test_relative_mode_uses_the_committed_baseline(tmp_path):
    base_blob = update_blob()
    fresh_blob = json.loads(json.dumps(base_blob))
    fresh_blob["aggregates"]["update_engine_geomean"] = 1.9  # > 30% drop
    baseline = write(tmp_path / "base.json", base_blob)
    fresh = write(tmp_path / "fresh.json", fresh_blob)
    regressions, _ = check_regression.check_experiment(
        "update_throughput", baseline, fresh, 0.30
    )
    assert len(regressions) == 1
    assert "update_engine_geomean" in regressions[0]
    # looser tolerance absorbs the same drop — the override knob
    regressions, _ = check_regression.check_experiment(
        "update_throughput", baseline, fresh, 0.50
    )
    assert regressions == []


def test_metric_missing_from_fresh_run_is_a_failure(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    blob = serving_blob()
    del blob["sharded_writes"]
    fresh = write(tmp_path / "fresh.json", blob)
    regressions, _ = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert any("stopped emitting" in line for line in regressions)


def test_relative_metric_missing_from_baseline_is_skipped(tmp_path):
    baseline = write(tmp_path / "base.json", {"aggregates": {}})
    fresh = write(tmp_path / "fresh.json", update_blob())
    regressions, notes = check_regression.check_experiment(
        "update_throughput", baseline, fresh, 0.30
    )
    # relative metrics skip with a note; the absolute guardrails
    # (preprocessing, the procedure floor) still run
    assert regressions == []
    assert sum("skip" in line for line in notes) == 2
    assert any("preprocessing_geomean" in line and "ok" in line for line in notes)
    assert any(
        "update_procedure_floor_ups" in line and "ok" in line for line in notes
    )


def test_procedure_floor_guardrail_turns_red(tmp_path):
    baseline = write(tmp_path / "base.json", update_blob())
    fresh = write(tmp_path / "fresh.json", update_blob(floor=9000.0))
    regressions, _ = check_regression.check_experiment(
        "update_throughput", baseline, fresh, 0.30
    )
    assert len(regressions) == 1
    assert "update_procedure_floor_ups" in regressions[0]


def test_multiprocess_guardrail_turns_red(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    fresh = write(tmp_path / "fresh.json", serving_blob(multiproc=0.8))
    regressions, _ = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert len(regressions) == 1
    assert "multiprocess_shards.speedup_vs_inprocess_best" in regressions[0]


def test_failover_recovery_guardrail_turns_red(tmp_path):
    baseline = write(tmp_path / "base.json", serving_blob())
    fresh = write(tmp_path / "fresh.json", serving_blob(recovery=7.5))
    regressions, _ = check_regression.check_experiment(
        "serving", baseline, fresh, 0.30
    )
    assert len(regressions) == 1
    assert "failover.recovery_seconds" in regressions[0]


def test_evaluate_experiment_records_are_machine_readable():
    records = check_regression.evaluate_experiment(
        "serving", serving_blob(), serving_blob(async_speedup=0.9), 0.30
    )
    by_metric = {record["metric"]: record for record in records}
    assert by_metric["async_dispatch.writer_speedup"]["status"] == "regressed"
    assert by_metric["async_dispatch.writer_speedup"]["bound"] == 1.5
    assert by_metric["sharded_writes.speedup_at_max_shards"]["status"] == "ok"
    assert all(record["mode"] == "absolute" for record in records)
    # records survive a JSON round trip (what --json-out relies on)
    assert json.loads(json.dumps(records)) == records


def test_json_out_writes_verdicts(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    fresh = write(tmp_path / "fresh.json", serving_blob())
    out = tmp_path / "gate.json"
    assert (
        check_regression.main(
            ["--fresh-serving", str(fresh), "--json-out", str(out)]
        )
        == 0
    )
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["ok"] is True
    assert blob["regressions"] == []
    assert {record["metric"] for record in blob["metrics"]} == {
        path for path, _d, _m in check_regression.TRACKED["serving"]
    }
    # a failing run records its regressions too
    bad = write(tmp_path / "bad.json", serving_blob(sharded=0.5))
    assert (
        check_regression.main(
            ["--fresh-serving", str(bad), "--json-out", str(out)]
        )
        == 1
    )
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["ok"] is False
    assert len(blob["regressions"]) == 1


def test_github_step_summary_is_appended(tmp_path, monkeypatch):
    fresh = write(tmp_path / "fresh.json", serving_blob(async_speedup=0.9))
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert check_regression.main(["--fresh-serving", str(fresh)]) == 1
    text = summary.read_text(encoding="utf-8")
    assert "Perf-regression gate" in text
    assert "1 tracked metric(s) regressed" in text
    assert "async_dispatch.writer_speedup" in text
    assert "❌" in text
    # appends (job summaries accumulate across steps)
    assert check_regression.main(["--fresh-serving", str(fresh)]) == 1
    assert text in summary.read_text(encoding="utf-8")


def test_main_cli_exit_codes(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    baseline_dir = check_regression.EXPERIMENTS
    fresh = write(tmp_path / "fresh.json", serving_blob())
    # the real committed baseline is used; all guardrail metrics pass
    assert (
        check_regression.main(["--fresh-serving", str(fresh)]) == 0
    )
    bad = write(tmp_path / "bad.json", serving_blob(sharded=0.5))
    assert check_regression.main(["--fresh-serving", str(bad)]) == 1
    assert check_regression.main([]) == 2
    assert (
        check_regression.main(
            ["--fresh-serving", str(tmp_path / "missing.json")]
        )
        == 2
    )
    assert baseline_dir["serving"].is_file()  # sanity: repo baseline exists
