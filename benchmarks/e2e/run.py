"""One run of one workload in this (fresh) interpreter.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with unit, sample count and bound, then —
as the last line of standard output — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero when an output check failed or the program's sources
are not beside the benchmark.  On every path out it stops each process
the run started — the cluster's workers and ``multiprocessing``'s
resource tracker, which otherwise outlives its parent by a moment — and
waits until each has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def render(metrics: dict, declared: list) -> str:
    bounds = {entry["name"]: entry.get("bound") for entry in declared}
    lines = [f"{'metric':34} {'value':>14} {'unit':6} {'samples':>8}  {'pct':>5}  bound"]
    for name, entry in metrics.items():
        quantile = entry.get("quantile")
        bound = bounds.get(name)
        lines.append(
            f"{name:34} {entry['value']:14.4f} {entry['unit']:6} "
            f"{entry.get('samples', 1):8d}  "
            f"{'p%g' % (quantile * 100) if quantile is not None else '-':>5}  "
            f"{'%g%%' % (bound * 100) if bound is not None else '-'}"
        )
    return "\n".join(lines)


def pin_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` (workers inherit it): string
    hashing then lays out every set and dict the same way on every run,
    which removes one source of run-to-run spread."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def pin_to_one_core() -> None:
    """Keep this process, its threads and every process it starts on one
    core (the lowest it may use).  A cluster workload is three processes
    taking turns — client, worker 0, worker 1, closed loop — on a box
    with two cores of a shared host: left to the scheduler they migrate,
    and every cross-core wake-up costs what the host makes it cost that
    minute.  Sized on ``cluster_stream``: free placement 16.8k updates/s
    with a run-to-run spread of 5-25%, client on one core and workers on
    the other 16.4k with 12%, everything on one core 19.2k with 2-5%."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def keep_temporaries_here() -> None:
    """Point ``tempfile`` (the cluster's socket directory) into this
    directory, so a run writes nothing outside its checkout — unless the
    path is too long for a unix socket address, which would silently
    turn the transport into loopback TCP."""
    scratch = HERE / "results" / "tmp"
    if len(str(scratch)) < 56:
        scratch.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(scratch)


def descendants(pid: int) -> list:
    """Every live process below ``pid``, children before grandchildren."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        frontier = [child for child, parent in parents.items() if parent in frontier]
        found.extend(frontier)
    return found


def stop_children(patience: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended.  The front doors have closed by now, so the workers are
    normally gone and only the resource tracker is left: it is asked to
    finish first (it exits when its pipe closes); whatever then remains
    is killed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the pipe, then waits for the tracker
        except Exception:
            pass
    me = os.getpid()
    deadline = time.monotonic() + patience
    while True:
        left = descendants(me)
        if not left or time.monotonic() > deadline:
            break
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid in left:
            try:
                os.waitpid(pid, 0)  # reaps a child of this process
            except OSError:
                pass  # a grandchild: the loop watches /proc until it is gone
        time.sleep(0.01)
    if left:
        print(f"error: processes {left} did not end", file=sys.stderr)


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (not a benchmark run)"
    )
    parser.add_argument("--out", help="also write the full result to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    keep_temporaries_here()

    from benchmarks.e2e import harness, ladder, workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.SPECS)}",
            file=sys.stderr,
        )
        return 2
    scale = 0.1 if args.tiny else 1.0
    inputs = workloads.generate(spec, args.seed, args.seconds, scale)
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        metrics, failures, info = ladder.run_traced(
            inputs, args.seed, args.seconds, str(results / f"{spec.name}.trace.json")
        )
        declared = benchmark["per_layer"]
    else:
        metrics, failures, info = harness.run_untraced(inputs, args.seed, args.seconds)
        declared = benchmark["end_to_end"]

    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(render(metrics, declared))
    for message in failures.messages:
        print("FAILED " + message)
    missing = [entry["name"] for entry in declared if entry["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in declared
        },
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "workload": spec.name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "result": result,
                    "detail": metrics,
                    "info": info,
                    "failures": failures.messages,
                },
                handle,
                indent=1,
            )
    print(json.dumps(result))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    pin_hash_seed()
    pin_to_one_core()
    signal.signal(signal.SIGTERM, _terminated)  # so the clean-up below runs
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
