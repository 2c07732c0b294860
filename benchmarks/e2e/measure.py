"""Sample statistics and per-process readings shared by both run modes."""

from __future__ import annotations

import os
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an ascending sequence (nearest rank)."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_quantile(per_unit: int) -> float:
    """The tail percentile taken within a unit: p99 where a unit has
    2000 samples (twenty beyond it), else p90."""
    return 0.99 if per_unit >= 2000 else 0.9


def fast_decile(values: Sequence[float], better: str) -> float:
    """The decile on the fast side of per-unit values (the seventh
    fastest of sixty units): the lowest for a latency, the highest
    for a throughput.

    Units are identical work, and interference on a shared box only
    ever slows a unit down, so the fast end estimates the undisturbed
    cost.  On the 2-core box this was sized on, the median across units
    moved 5-25% between runs, the fast decile 2-7%."""
    ordered = sorted(values, reverse=better == "higher")
    return ordered[len(ordered) // 10]


def unit_percentiles(units: Iterable[Sequence[float]], q: float) -> Tuple[List[float], int]:
    """The ``q``-quantile of each unit's pooled samples, and the total
    sample count."""
    per_unit: List[float] = []
    total = 0
    for samples in units:
        if samples:
            per_unit.append(percentile(sorted(samples), q))
            total += len(samples)
    if not per_unit:
        raise ValueError("no samples")
    return per_unit, total


def proc_status_mb(pid: int) -> Dict[str, float]:
    """``VmHWM`` (peak) and ``VmRSS`` (current) of a process, in MB."""
    out: Dict[str, float] = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(("VmHWM:", "VmRSS:")):
                key, value = line.split(":", 1)
                out[key] = int(value.split()[0]) / 1024.0
    return out


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS
