"""``python -m benchmarks.e2e`` — run, compare, self-test.

    python -m benchmarks.e2e run --seed N [--workload NAME] [--runs K] [--traced] --out FILE
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e spread FILE
    python -m benchmarks.e2e --self-test

``run`` starts every run in its own fresh interpreter (``run.py``): heap
state left by a previous run moved ``Server.apply`` throughput by a
tenth when this benchmark was sized.  Run it from the repo root.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One fresh-process run; returns its full result document."""
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=HERE / "results") as directory:
        out = str(Path(directory) / "result.json")
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", out,
        ]
        if tiny:
            command.append("--tiny")
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit(
                f"run failed: workload {workload} seed {seed} trace {trace} "
                f"(exit {completed.returncode})"
            )
        with open(out) as handle:
            return json.load(handle)


def command_run(args: argparse.Namespace) -> int:
    declared = benchmark()
    workloads = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    runs: List[dict] = []
    started = time.time()
    for workload in workloads:
        for index in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + index
            runs.append(one_run(workload, seed, seconds, 0))
        if args.traced:
            runs.append(one_run(workload, args.seed, seconds, 1))
    document = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "wall_s": round(time.time() - started, 1),
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {args.out}: {len(runs)} runs in {document['wall_s']} s")
    return 0


def command_compare(args: argparse.Namespace) -> int:
    from benchmarks.e2e.compare import compare

    table, worse = compare(args.a, args.b, benchmark())
    print(table)
    return 1 if worse else 0


def command_spread(args: argparse.Namespace) -> int:
    from benchmarks.e2e.compare import spreads

    table, wide = spreads(args.file, benchmark())
    print(table)
    return 1 if wide else 0


def command_self_test() -> int:
    import pytest

    return int(pytest.main(["-x", "-q", "-p", "no:cacheprovider", str(HERE / "test_e2e.py")]))


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["--self-test"], ["self-test"]):
        return command_self_test()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, each run in a fresh interpreter")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload")
    run.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    run.add_argument(
        "--same-seed", action="store_true", help="repeat --seed instead of counting up from it"
    )
    run.add_argument("--traced", action="store_true", help="add one traced run per workload")
    run.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--out", required=True)
    cmp_ = commands.add_parser("compare", help="B against A, per metric and workload")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    spread = commands.add_parser("spread", help="run-to-run spread of one result file")
    spread.add_argument("file")
    args = parser.parse_args(argv)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if args.command == "run":
        return command_run(args)
    if args.command == "compare":
        return command_compare(args)
    return command_spread(args)


if __name__ == "__main__":
    sys.exit(main())
