"""Self-test of the benchmark (tiny sizes, under a minute).

    python -m benchmarks.e2e --self-test        # or: pytest benchmarks/e2e

Not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def tiny_run(workload: str, trace: int, tmp_path: Path, seconds: float = 1) -> dict:
    out = tmp_path / f"{workload}.{trace}.json"
    # its own session, so that whatever it leaves behind can be found
    process = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", str(seconds), "--trace", str(trace), "--tiny", "--out", str(out),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
    left = in_session(process.pid)
    assert process.returncode == 0, stdout + stderr
    assert not left, f"processes outlived the run: {left}"
    document = json.loads(out.read_text())
    document["last_line"] = json.loads(stdout.strip().splitlines()[-1])
    return document


def proc_stat() -> dict:
    """pid -> (parent pid, session id) of every process."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def children_of(pid: int) -> list:
    return [child for child, (parent, _session) in proc_stat().items() if parent == pid]


def in_session(session: int) -> list:
    """Every process of a session: a run started with
    ``start_new_session=True`` leads the session named by its pid, and
    whatever it starts inherits that session."""
    return [pid for pid, (_parent, sid) in proc_stat().items() if sid == session]


def test_benchmark_json_keeps_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert set(WORKLOADS) == set(workloads.SPECS)
    names = []
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(BENCHMARK["per_layer"]) <= 128 and len(BENCHMARK["end_to_end"]) <= 16
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_moves_name_declared_metrics_and_workloads():
    moves = json.loads((HERE / "moves.json").read_text())["moves"]
    layer = {entry["name"] for entry in BENCHMARK["per_layer"]}
    end_to_end = {entry["name"] for entry in BENCHMARK["end_to_end"]}
    for move in moves:
        assert set(move["layer_metrics"]) <= layer, move
        for target in move["moves"]:
            assert set(target["metrics"]) <= end_to_end, target
            assert set(target["workloads"]) <= set(WORKLOADS), target
        assert set(move.get("flat_on", [])) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_effective_streams(workload):
    spec = workloads.SPECS[workload]
    first = workloads.generate(spec, 11, 1, scale=0.05)
    again = workloads.generate(spec, 11, 1, scale=0.05)
    other = workloads.generate(spec, 12, 1, scale=0.05)

    def as_bytes(inputs):
        streams = (inputs.preload, inputs.commands, inputs.ladder, inputs.probe)
        return repr([[(c.op, c.relation, c.row) for c in s] for s in streams]).encode()

    assert as_bytes(first) == as_bytes(again)
    assert as_bytes(first) != as_bytes(other)
    live = {name: set() for name in spec.relations()}
    for command in first.preload:
        assert command.row not in live[command.relation]
        live[command.relation].add(command.row)
    base = {name: set(rows) for name, rows in live.items()}
    for stream in (first.ladder, first.probe, first.commands):
        for command in stream:
            rows = live[command.relation]
            assert (command.row in rows) != command.is_insert, command
            (rows.add if command.is_insert else rows.discard)(command.row)
        assert live == base  # every stream undoes itself


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    document = tiny_run(workload, 0, tmp_path)
    line = document["last_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared[name] and entry["value"] > 0, name


def test_tiny_traced_run_emits_every_layer_metric_and_a_sound_trace(tmp_path):
    document = tiny_run("server_point", 1, tmp_path)
    line = document["last_line"]
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert set(line["metrics"]) == set(declared) and line["failed"] == 0
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared[name], name
    spans = json.loads((HERE / "results" / "server_point.trace.json").read_text())
    by_id = {span["id"]: span for span in spans}
    assert [span["id"] for span in spans if span["parent"] is None] == [0]
    children_ns = {}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            children_ns[parent["id"]] = (
                children_ns.get(parent["id"], 0) + span["end_ns"] - span["start_ns"]
            )
    for parent, total in children_ns.items():
        assert total <= by_id[parent]["end_ns"] - by_id[parent]["start_ns"]
    assert any(span["repeat"] >= 0 for span in spans)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_no_process_is_left_after_an_interrupt(signum):
    process = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "cluster_stream",
            "--seed", "7", "--seconds", "30", "--trace", "0",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.time() + 30
        started = []
        while time.time() < deadline and len(started) < 3:
            started = children_of(process.pid)  # the resource tracker + 2 workers
            time.sleep(0.05)
        assert len(started) >= 3, "the cluster never came up"
        process.send_signal(signum)
        output, _errors = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    left = in_session(process.pid)
    assert process.returncode != 0
    assert not output.strip().endswith("}"), "an interrupted run printed a result"
    assert not left, f"processes outlived the signal: {left}"


def test_without_the_program_sources_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _result_file(path: Path, values: dict) -> str:
    runs = [
        {
            "workload": "cluster_stream", "trace": 0,
            "result": {"metrics": {n: {"value": v, "unit": "x"} for n, v in sample.items()}},
        }
        for sample in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_says_ok_worse_and_unresolved(tmp_path):
    def runs(rate, lag):
        return [{"updates_per_s": r, "delta_lag_p50_ms": g} for r, g in zip(rate, lag)]

    base = _result_file(tmp_path / "a.json", runs([100, 101, 99, 100], [10, 10.1, 9.9, 10]))
    same = _result_file(tmp_path / "b.json", runs([99, 100, 101, 100], [10, 9.9, 10.2, 10]))
    slow = _result_file(tmp_path / "c.json", runs([60, 61, 59, 60], [10, 10, 10, 10]))
    wild = _result_file(tmp_path / "d.json", runs([100, 100, 100, 100], [5, 10, 15, 10]))
    table, worse = compare.compare(base, same, BENCHMARK)
    assert worse == 0 and " ok" in table and "unresolved" not in table
    table, worse = compare.compare(base, slow, BENCHMARK)
    assert worse == 1 and "worse" in table
    table, worse = compare.compare(base, wild, BENCHMARK)
    assert worse == 0 and "unresolved" in table
