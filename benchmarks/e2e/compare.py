"""Summarise result files and compare two of them metric by metric.

A result file (written by ``python -m benchmarks.e2e run --out FILE``)
holds one entry per fresh-process run.  ``compare`` prints one row per
(metric, workload) with both medians, their quartiles, the ratio with
its base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of a side (distance between its
                quartiles as a share of its median) is wider than the
                bound, so the comparison cannot say
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

Key = Tuple[str, str]  # (metric, workload)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; the extremes when there are too few values for that."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load(path: str, trace: int = 0) -> Dict[Key, List[float]]:
    with open(path) as handle:
        document = json.load(handle)
    values: Dict[Key, List[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for name, entry in run["result"]["metrics"].items():
            values.setdefault((name, run["workload"]), []).append(entry["value"])
    return values


def summarise(values: Dict[Key, List[float]]) -> Dict[Key, dict]:
    out: Dict[Key, dict] = {}
    for key, samples in values.items():
        median = statistics.median(samples)
        q1, q3 = quartiles(samples)
        out[key] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(samples),
        }
    return out


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """(B's median over A's, verdict)."""
    ratio = b["median"] / a["median"] if a["median"] else float("inf")
    loss = (1 - ratio) if better == "higher" else (ratio - 1)
    if loss > bound:
        return ratio, "worse"
    if max(a["spread"], b["spread"]) > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def compare(path_a: str, path_b: str, benchmark: dict) -> Tuple[str, int]:
    """The comparison table and the number of ``worse`` rows."""
    a, b = summarise(load(path_a)), summarise(load(path_b))
    lines = [
        f"{'metric':20} {'workload':15} {'A median':>12} {'A q1..q3':>24} "
        f"{'B median':>12} {'B q1..q3':>24} {'B/A':>7} {'bound':>6}  verdict"
    ]
    worse = 0
    for entry in benchmark["end_to_end"]:
        for workload in (w["name"] for w in benchmark["workloads"]):
            key = (entry["name"], workload)
            if key not in a or key not in b:
                continue
            ratio, word = verdict(a[key], b[key], entry["better"], entry["bound"])
            worse += word == "worse"
            lines.append(
                f"{key[0]:20} {key[1]:15} {a[key]['median']:12.4f} "
                f"{a[key]['q1']:11.4f}..{a[key]['q3']:<11.4f} {b[key]['median']:12.4f} "
                f"{b[key]['q1']:11.4f}..{b[key]['q3']:<11.4f} {ratio:7.3f} "
                f"{entry['bound']:6.0%}  {word}"
            )
    lines.append(f"base of every ratio: A = {path_a}; {worse} worse")
    return "\n".join(lines), worse


def spreads(path: str, benchmark: dict) -> Tuple[str, int]:
    """Each (metric, workload)'s spread against a third of its bound —
    the steadiness target of the benchmark itself."""
    summary = summarise(load(path))
    lines = [f"{'metric':20} {'workload':15} {'median':>12} {'spread':>8} {'bound':>6}  runs"]
    wide = 0
    for entry in benchmark["end_to_end"]:
        for workload in (w["name"] for w in benchmark["workloads"]):
            row = summary.get((entry["name"], workload))
            if row is None:
                continue
            flag = ""
            if entry["name"] != "setup_s" and row["spread"] > entry["bound"]:
                flag, wide = "  WIDER THAN BOUND", wide + 1
            elif row["spread"] > entry["bound"] / 3:
                flag = "  above a third of the bound"
            lines.append(
                f"{entry['name']:20} {workload:15} {row['median']:12.4f} "
                f"{row['spread']:8.2%} {entry['bound']:6.0%}  {row['runs']}{flag}"
            )
    return "\n".join(lines), wide
