"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Both files come from ``series.py``.  Runs are paired in the order they were
made (pair i is the i-th run of a workload on each side); at least ten
pairs per workload are required.  For every workload and end-to-end metric
the verdict is one of:

- ``gain``: the change wins at least 90% of pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
- ``unresolved``: the parent's spread (IQR / median) exceeds the bound and
  not every change run beats every parent run;
- ``within bound`` otherwise.

A further row per workload, ``failures``, compares failed calls / attempted
calls: it reads ``regression`` when a change run reports a wrong answer
(``correct`` false) or fails a larger share of calls than every parent run,
and a gain does not count while it does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_metrics(path: Path = BENCHMARK) -> dict[str, dict]:
    """End-to-end metric specs by name: unit, better, bound."""
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def by_workload(result_set: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in result_set["runs"]:
        if run["trace"] == 0:
            out.setdefault(run["workload"], []).append(run)
    return out


def spread_rows(result_set: dict, metrics: dict[str, dict]) -> list[tuple]:
    """(workload, metric, median, q1, q3, IQR / median, bound) per pairing."""
    rows = []
    for workload, runs in by_workload(result_set).items():
        for name, spec in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = quartiles(values)
            rows.append((workload, name, median, q1, q3, (q3 - q1) / median, spec["bound"]))
    return rows


def verdict(parent: list[float], change: list[float], spec: dict,
            more_failures: bool) -> tuple[str, int]:
    higher = spec["better"] == "higher"

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = (p_med - c_med if higher else c_med - p_med) / p_med
    if worse_by > spec["bound"]:
        return "regression", wins
    all_better = all(better(c, p) for c in change for p in parent)
    if (q3 - q1) / p_med > spec["bound"] and not all_better:
        return "unresolved", wins
    if (wins >= 0.9 * len(parent) and better(c_med, p_med)
            and abs(c_med - p_med) > q3 - q1 and not more_failures):
        return "gain", wins
    return "within bound", wins


def failed_ratio(run: dict) -> float:
    return run["result"]["failed"] / run["result"]["attempted"]


def failures_verdict(p_runs: list[dict], c_runs: list[dict]) -> str:
    worse = (any(not r["result"]["correct"] for r in c_runs)
             or max(map(failed_ratio, c_runs)) > max(map(failed_ratio, p_runs)))
    return "regression" if worse else "within bound"


def compare(parent_set: dict, change_set: dict, metrics: dict[str, dict]) -> list[str]:
    lines = [f"{'workload':15s} {'metric':15s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict"]
    parents, changes = by_workload(parent_set), by_workload(change_set)
    for workload in parents:
        p_runs, c_runs = parents[workload], changes.get(workload, [])
        pairs = min(len(p_runs), len(c_runs))
        if pairs < MIN_PAIRS:
            lines.append(f"{workload:15s} only {pairs} pairs; at least {MIN_PAIRS} are needed")
            continue
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        failures = failures_verdict(p_runs, c_runs)
        more_failures = failures == "regression"
        for name, spec in metrics.items():
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            outcome, wins = verdict(p, c, spec, more_failures)
            pq1, pm, pq3 = quartiles(p)
            cq1, cm, cq3 = quartiles(c)
            lines.append(
                f"{workload:15s} {name:15s} {pm:12.5g} [{pq1:9.5g}, {pq3:9.5g}] "
                f"{cm:12.5g} [{cq1:9.5g}, {cq3:9.5g}] {wins:3d}/{pairs:<2d}  {outcome}"
            )
        p_fail, c_fail = (f"largest {max(map(failed_ratio, runs)):.5g}" for runs in (p_runs, c_runs))
        lines.append(f"{workload:15s} {'failures':15s} {p_fail:>34s} {c_fail:>34s} {'':6s}  {failures}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent_set = json.loads(args.parent.read_text())
    change_set = json.loads(args.change.read_text())
    print("\n".join(compare(parent_set, change_set, load_metrics())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
