"""Run the benchmark over many seeds and store the results for compare.py.

    python3 perfbench/series.py --seeds 1-10 --out runs.json
    python3 perfbench/series.py --seeds 1-10 \\
        --checkout PARENT_DIR --out parent.json --checkout CHANGE_DIR --out change.json

Each run is one ``run.py`` process of the checkout it measures, for
``run_seconds`` from BENCHMARK.json.  With two
checkouts the runs alternate in pairs, and which side goes first alternates
from pair to pair.  After the runs it prints each end-to-end metric's
median, quartiles and spread (IQR / median) beside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import compare
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "report": lines[:-1], "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path)
    parser.add_argument("--out", action="append", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = args.checkout or [HERE.parent]
    if len(checkouts) != len(args.out) or len(checkouts) > 2:
        parser.error("give one --out per --checkout, for one or two checkouts")
    seconds = json.loads(compare.BENCHMARK.read_text())["run_seconds"]
    metrics = compare.load_metrics()
    sets = [{
        "checkout": str(c.resolve()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": seconds,
        "runs": [],
    } for c in checkouts]
    for workload in args.workload or WORKLOADS:
        for pair, seed in enumerate(args.seeds):
            order = list(range(len(checkouts)))
            if pair % 2:
                order.reverse()
            for side in order:
                run = run_once(checkouts[side], workload, seed, seconds, args.trace)
                run["pair"] = pair
                sets[side]["runs"].append(run)
                print(f"{workload} seed {seed} side {side}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in run["result"]["metrics"].items()
                                 if k in metrics or args.trace),
                      flush=True)
    for result_set, out in zip(sets, args.out):
        out.write_text(json.dumps(result_set, indent=1) + "\n")
        if args.trace == 0:
            print(f"\n{out}: spread = IQR / median of each end-to-end metric")
            for workload, name, med, q1, q3, spread, bound in compare.spread_rows(
                    result_set, metrics):
                flag = "" if spread < bound / 3 else "  (above a third of the bound)"
                print(f"  {workload:15s} {name:15s} median {med:12.5g} "
                      f"[{q1:.5g}, {q3:.5g}] spread {spread:.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
