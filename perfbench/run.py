"""Benchmark of the tameorders CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run from the root of a checkout.  One process runs one workload: a single
caller in a closed loop issues ops (in-process calls of
``tameorders.cli.main([verb, "--json", ...])`` with stdout captured) in
cycles that run every op once.  An untimed warm-up cycle comes first, then
timed cycles until ``--seconds`` have passed (and, untraced, at least three
timed cycles ran), so every run samples whole cycles of the same op mix.
The library's caches are cleared before every op, so each op pays what a
fresh ``tameorders`` process pays.
Inputs are generated from ``--seed`` and written as text files during
set-up; the library receives only those files.  Every output is checked by
an oracle that shares no code with the library, and every repeat of an op
must print the same bytes.  Times are normalised by ``reference()``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the timed cycles alternate traced and untraced, and the
run reports per-layer metrics (per traced cycle) and the tracing overhead.
``--workload all`` runs every workload in its own process and prints them
one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tame_pipeline", "random_orders", "verify_sweep")
SETUP_REPEATS = 5
UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Timings are normalised by a reference computation run after every op: the
# machine's speed drifts by up to 2x over tens of seconds when it is shared,
# and the op/reference ratio stays steady while the raw time does not.  A
# time is reported as measured * REF_NOMINAL_S / (reference time nearby),
# i.e. in seconds of a machine on which the reference takes REF_NOMINAL_S.
REF_LOOPS = 6000
REF_NOMINAL_S = 0.002
REF_WINDOW = 5  # the reference time nearby is the median of 2 * 5 + 1 runs
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tameorders.cli; print(time.perf_counter() - t)"
)


def _percentile(sorted_ms: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(1, math.ceil(q * len(sorted_ms)))
    return sorted_ms[k - 1], len(sorted_ms) - k


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation (big-int shifts, dict stores)."""
    start = time.perf_counter()
    mask, table = 0, {}
    for i in range(REF_LOOPS):
        mask ^= (mask << 1) | i
        table[i & 1023] = mask & 0xFFFF
    return time.perf_counter() - start


def local_scale(refs: list[float]) -> list[float]:
    """Per position, REF_NOMINAL_S over the median reference time around it."""
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i in range(len(refs))
    ]


def _setup(workload: str, seed: int, workdir: Path):
    """One full set-up: import (fresh process), inputs, files, oracle answers.

    Returns its normalised seconds: the raw time scaled by the median
    reference time of the runs just before and just after it.
    """
    import inputs
    import oracles
    import workloads

    before = [reference() for _ in range(REF_WINDOW)]
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    start = time.perf_counter()
    generated, ops = workloads.build(workload, seed)
    for inp in generated:
        (workdir / f"{inp.name}.txt").write_text(inputs.poset_text(inp))
    truths = {inp.name: oracles.truth_of(inp) for inp in generated}
    seconds = float(probe.stdout) + time.perf_counter() - start
    after = [reference() for _ in range(REF_WINDOW)]
    return seconds * REF_NOMINAL_S / statistics.median(before + after), ops, truths


def cache_clearers(package) -> list:
    """``cache_clear`` of every cached function in the package's modules."""
    prefix = package.__name__
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


class Loop:
    """The closed loop: runs cycles of ops and keeps every repeat's outcome.

    Every function in ``clearers`` runs before every call, untimed (they
    clear the library's caches).  The first cycle is not timed; its outputs
    go to the oracles, and every later repeat of an op must print the same
    bytes with the same exit code.  Each call is followed by one run of
    ``reference()``; an op's time is its normalised median over the timed
    repeats.
    """

    def __init__(self, cli, ops, workdir: Path, clearers=()):
        self.cli = cli
        self.ops = ops
        self.clearers = list(clearers)
        self.argvs = [op.argv(workdir) for op in ops]
        self.first_dir = workdir / "first_outputs"
        self.first_dir.mkdir()
        self.first: list[tuple] = []  # (exit code, digest, last stderr line) per op
        self.seconds: list[list[float]] = [[] for _ in ops]  # per op, per cycle
        self.outcome: list[list[str | None]] = [[] for _ in ops]  # None is a success
        self.refusals: dict[int, str] = {}  # op -> verdict of its known, accepted refusal
        self.traced: list[bool] = []  # per cycle
        self.refs: list[float] = []  # reference time after each call, in call order
        self.timed_wall = 0.0  # wall time of the timed cycles, without bookkeeping

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op failed; the loop keeps running
            code = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def cycle(self, tracer=None) -> None:
        """Run every op once, under ``tracer`` when one is given."""
        start = time.perf_counter()
        bookkeeping = 0.0
        for k, argv in enumerate(self.argvs):
            mark = time.perf_counter()
            for clear in self.clearers:
                clear()
            if tracer is not None:
                tracer.begin_op()
            bookkeeping += time.perf_counter() - mark
            seconds, code, stdout, stderr = self._call(argv)
            mark = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if len(self.first) <= k:
                (self.first_dir / f"{k}.out").write_text(stdout)
                lines = stderr.strip().splitlines()
                self.first.append((code, digest, lines[-1] if lines else ""))
                outcome = None
            elif self.first[k][:2] == (code, digest):
                outcome = None
            else:
                outcome = f"exit {code}: output differs from the first run of this op"
            self.seconds[k].append(seconds)
            self.outcome[k].append(outcome)
            self.refs.append(reference())
            bookkeeping += time.perf_counter() - mark
        if self.traced:
            self.timed_wall += time.perf_counter() - start - bookkeeping
        self.traced.append(tracer is not None)

    def judge(self, truths) -> None:
        """Oracle verdicts on the reference outputs, carried to identical repeats.

        A refusal (exit 1 or 2) or an internal error (exit 4) on valid input
        is a wrong answer, unless the oracle names it as the known width-cap
        refusal; such an op fails but is not wrong.
        """
        import oracles

        for k, op in enumerate(self.ops):
            code, _, message = self.first[k]
            truth = truths.get(op.input)
            if oracles.known_refusal(op, truth, code, message):
                verdict = f"exit {code}: {message} (known refusal)"
                self.refusals[k] = verdict
            elif not isinstance(code, int) or code in (1, 2, 4):
                verdict = f"exit {code}: {message}"
            else:
                stdout = (self.first_dir / f"{k}.out").read_text()
                reason = oracles.validate(op, code, stdout, truth)
                verdict = None if reason is None else f"oracle: {reason}"
            self.outcome[k] = [verdict if o is None else o for o in self.outcome[k]]

    def ok(self, k: int) -> bool:
        return all(o is None for o in self.outcome[k])

    def wrong(self) -> int:
        """Calls that failed other than by the op's known refusal."""
        return sum(o is not None and o != self.refusals.get(k)
                   for k, outcomes in enumerate(self.outcome) for o in outcomes)

    def scales(self) -> list[list[float]]:
        """Normalisation factor of every call, per op and cycle."""
        flat = local_scale(self.refs)
        n = len(self.ops)
        return [flat[k::n] for k in range(n)]

    def op_seconds(self, traced: bool = False) -> list[float]:
        """Per op, the median normalised time over the timed untraced (or traced) cycles."""
        return [
            statistics.median(
                s * f for s, f, t in list(zip(secs, fs, self.traced))[1:] if t == traced
            )
            for secs, fs in zip(self.seconds, self.scales())
        ]


def _run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import tameorders
    import tameorders.cli as cli

    if not Path(tameorders.__file__).resolve().is_relative_to(SRC):
        print(f"imported tameorders from {tameorders.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return _measure(args, cli, tameorders, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cli, package, workdir: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, ops, truths = _setup(args.workload, args.seed, workdir)
        setups.append(seconds)
    loop = Loop(cli, ops, workdir, cache_clearers(package))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(package)
    deadline = time.perf_counter() + args.seconds
    # a warm-up cycle, then at least three timed cycles; a traced run
    # alternates traced and untraced cycles and ends untraced
    min_cycles = 4 if tracer is None else 3
    while (time.perf_counter() < deadline or len(loop.traced) < min_cycles
           or (tracer is not None and loop.traced[-1])):
        if tracer is not None and loop.traced and not loop.traced[-1]:
            tracer.install()
            try:
                loop.cycle(tracer)
            finally:
                tracer.uninstall()
        else:
            loop.cycle()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.judge(truths)

    n = len(ops)
    calls = [o for k in range(n) for o in loop.outcome[k]]
    attempted = len(calls)
    failed = sum(o is not None for o in calls)
    wrong = loop.wrong()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} ops x "
          f"{len(loop.traced)} cycles (1 warm-up) = {attempted} calls, "
          f"{loop.timed_wall:.2f} s timed wall")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} calls failed; "
          f"{wrong} wrong, the rest known refusals)")
    for k, op in enumerate(ops):
        for reason in sorted(set(loop.outcome[k]) - {None}):
            print(f"  failed: {op.key}: {reason}")

    op_s = loop.op_seconds()
    cycle_s = sum(op_s)
    if tracer is None:
        timed = len(loop.traced) - 1
        ms = sorted(b * 1000 if loop.ok(k) else math.inf for k, b in enumerate(op_s))
        p50, beyond50 = _percentile(ms, 0.50)
        p90, beyond90 = _percentile(ms, 0.90)
        elements = sum(op.elements for k, op in enumerate(ops) if loop.ok(k))
        # a failed op misses every limit; a percentile that lands on one reads
        # as the time of a whole cycle
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ms_p50": min(p50, cycle_s * 1000),
            "op_ms_p90": min(p90, cycle_s * 1000),
            "elements_per_s": elements / cycle_s,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "op_ms_p50": f"{n} ops, median of {timed} repeats each; {beyond50} beyond",
            "op_ms_p90": f"{n} ops, median of {timed} repeats each; {beyond90} beyond",
            "elements_per_s": f"{elements} elements per cycle in ops that succeeded / "
                              f"{cycle_s:.3f} s; raw {elements * timed / loop.timed_wall:.6g} "
                              "over the wall time",
            "peak_rss_mb": "peak resident memory of this process",
        }
        units = UNITS
    else:
        traced_s = sum(loop.op_seconds(traced=True))
        scales = loop.scales()
        op_scale = [scales[k][c] for c, t in enumerate(loop.traced) if t for k in range(n)]
        metrics = tracer.metrics(loop.traced.count(True), traced_s / cycle_s, op_scale)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}.tsv"
        tracer.write_spans(spans_file)
        units = {name: tracing.unit(name) for name in metrics}
        notes = {"trace.overhead_ratio": f"cycle traced {traced_s:.3f} s "
                                         f"vs untraced {cycle_s:.3f} s"}
        for name in tracer.absent:
            print(f"  absent: {name} (not in the library; reported as 0)")
        print(f"  spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {value:14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tameorders" / "__init__.py").is_file():
        print(f"no library sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
