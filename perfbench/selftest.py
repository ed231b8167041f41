"""Tests of the benchmark itself: generator, oracles, tracing, comparison.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    generated, _ = workloads.build(workload, seed)
    out = {}
    for inp in generated:
        path = directory / f"{inp.name}.txt"
        path.write_text(inputs.poset_text(inp))
        out[inp.name] = path.read_bytes()
    return out


@pytest.mark.parametrize("workload", ["tame_pipeline", "random_orders"])
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = write_inputs(workload, 7, tmp_path / "a")
    again = write_inputs(workload, 7, tmp_path / "b")
    other = write_inputs(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_same_seed_gives_same_ops():
    for workload in workloads.BUILDERS:
        assert workloads.build(workload, 3)[1] == workloads.build(workload, 3)[1]
        assert workloads.build(workload, 3)[1] != workloads.build(workload, 4)[1]


def test_generator_and_oracles_do_not_import_the_library():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs, oracles, workloads; "
            "sys.exit(any(m.startswith('tameorders') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code, str(HERE)]).returncode == 0


def test_random_intervals_have_the_requested_rank():
    rng = random.Random(1)
    for n, lam in [(10, 10), (30, 12), (100, 72)]:
        truth = oracles.Truth(oracles.interval_up_masks(inputs.random_intervals(rng, n, lam, 3)))
        assert truth.tame and truth.rank == lam


def test_covers_generate_the_interval_order():
    rng = random.Random(2)
    intervals = inputs.random_intervals(rng, 40, 12, 4)
    edges = inputs.interval_covers(intervals)
    assert oracles.closure_up_masks(len(intervals), edges) == oracles.interval_up_masks(intervals)


# ------------------------------------------------------------------ oracles


def cli_output(path: Path, *argv: str) -> tuple[int, dict]:
    import tameorders.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json", *([str(path)] if path else [])])
    return code, json.loads(buf.getvalue())


@pytest.fixture
def cases(tmp_path):
    rng = random.Random(5)
    made = {
        "reduced": inputs.IntervalInput("reduced", inputs.shuffled(rng, inputs.template(5))),
        "inflated": inputs.IntervalInput(
            "inflated",
            inputs.shuffled(rng, inputs.inflate(rng, inputs.random_intervals(rng, 12, 6, 2), 3))),
        "random": inputs.RandomInput("random", 30, inputs.random_order(rng, 30, 0.2)),
    }
    out = {}
    for name, inp in made.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(inputs.poset_text(inp))
        out[name] = (path, oracles.truth_of(inp))
    assert out["reduced"][1].reduced and not out["inflated"][1].reduced
    assert not out["random"][1].tame
    return out


def corrupt_check(out):
    if "embedding" in out:
        x = sorted(out["embedding"])[0]
        out["embedding"][x][1] += 1
    elif "witness" in out:
        out["witness"] = out["witness"][::-1]
    else:
        out["tame_rank"] += 1


def corrupt_rank(out):
    if "witness" in out:
        w = out["witness"]
        out["witness"] = [w[0], w[1], w[3], w[2]]
    else:
        out["tame_rank"] -= 1


def corrupt_reduce(out):
    out["quotient"]["relations"].pop()


def corrupt_realize(out):
    mapping = out["iso"]["map"]
    a, b = sorted(mapping)[0], sorted(mapping)[-1]
    mapping[a], mapping[b] = mapping[b], mapping[a]


CORRUPTIONS = {"check": corrupt_check, "rank": corrupt_rank,
               "reduce": corrupt_reduce, "realize": corrupt_realize}


@pytest.mark.parametrize("case, verb", [
    (case, verb)
    for case in ("reduced", "inflated", "random")
    for verb in ("check", "rank", "reduce", "realize")
    if (case, verb) != ("random", "realize")  # realize runs on tame inputs only
])
def test_oracle_accepts_real_output_and_rejects_corrupted(cases, case, verb):
    path, truth = cases[case]
    code, out = cli_output(path, verb)
    check = oracles.VALIDATORS[verb]
    assert check(truth, code, out) is None
    bad = copy.deepcopy(out)
    CORRUPTIONS[verb](bad)
    assert check(truth, code, bad) is not None


def test_check_oracle_rejects_a_wrong_rank_on_unreduced_input(cases):
    path, truth = cases["inflated"]
    code, out = cli_output(path, "check")
    out["tame_rank"] += 1
    assert oracles.check_check(truth, code, out) is not None


def test_reduce_oracle_rejects_a_wrong_class_map(cases):
    path, truth = cases["inflated"]
    code, out = cli_output(path, "reduce")
    x = next(iter(out["class_of"]))
    out["class_of"][x] += 1
    assert oracles.check_reduce(truth, code, out) is not None


def test_realize_oracle_rejects_a_moved_template_point(cases):
    path, truth = cases["reduced"]
    code, out = cli_output(path, "realize")
    old = out["w"][0]
    point, _, copy_no = old.rpartition("#")
    a, b = point.split(",")
    new = f"{a},{int(b) + 1}#{copy_no}" if int(b) + 1 < truth.rank else f"{int(a) - 1},{b}#{copy_no}"
    out["w"][0] = new
    out["iso"]["source"][0] = new
    out["iso"]["map"][new] = out["iso"]["map"].pop(old)
    assert oracles.check_realize(truth, code, out) is not None


def test_verify_oracle_pins_the_n5_counts():
    good = {"n": 5, "total": 4231, "tame_count": 3451, "counterexamples": []}
    assert oracles.check_verify(5, None, 0, good) is None
    for key, value in [("total", 4230), ("tame_count", 3450), ("counterexamples", [{}])]:
        assert oracles.check_verify(5, None, 0, {**good, key: value}) is not None
    sampled = {"n": 7, "total": 8, "tame_count": 5, "counterexamples": []}
    assert oracles.check_verify(7, 8, 0, sampled) is None
    assert oracles.check_verify(7, 8, 0, {**sampled, "total": 7}) is not None


def test_repeated_op_with_different_bytes_fails(tmp_path):
    calls = []

    def main(argv):
        calls.append(argv)
        print(json.dumps({"n": 5, "total": 4231, "tame_count": 3451, "counterexamples": []},
                         indent=len(calls)))
        return 0

    ops = [workloads.Op("verify", None, 5 * 4231, n=5)]
    loop = run.Loop(types.SimpleNamespace(main=main), ops, tmp_path)
    loop.cycle()
    loop.cycle()
    loop.judge({})
    assert loop.outcome == [[None, "exit 0: output differs from the first run of this op"]]
    assert not loop.ok(0)


def refusing_cli(refused_path: str, message: str):
    """A fake ``cli.main`` that refuses one file and answers ``rank`` correctly otherwise."""
    def main(argv):
        if argv[-1] == refused_path:
            print(message, file=sys.stderr)
            return 1
        print(json.dumps({"tame_rank": int(Path(argv[-1]).stem.rpartition("_r")[2])}))
        return 0
    return types.SimpleNamespace(main=main)


def loop_over(tmp_path, cli, named):
    """A judged two-cycle loop of ``verb`` ops on the named interval inputs."""
    truths, ops = {}, []
    for name, intervals, verb in named:
        inp = inputs.IntervalInput(name, tuple(intervals))
        truths[name] = oracles.truth_of(inp)
        ops.append(workloads.Op(verb, name, len(inp)))
    loop = run.Loop(cli, ops, tmp_path)
    loop.cycle()
    loop.cycle()
    loop.judge(truths)
    return loop


def test_refusing_valid_input_is_wrong(tmp_path):
    cli = refusing_cli(str(tmp_path / "chain_r30.txt"), "template width capped at 64")
    loop = loop_over(tmp_path, cli, [("chain_r30", inputs.chain(30), "rank"),
                                     ("chain_r20", inputs.chain(20), "rank")])
    assert not loop.ok(0) and loop.ok(1)
    assert loop.wrong() == 2


@pytest.mark.parametrize("message, verb, intervals, wrong", [
    ("template width capped at 64", "realize", inputs.chain(70), 0),
    ("template width capped at 64", "check", inputs.chain(70), 0),
    ("template width capped at 64", "rank", inputs.chain(70), 2),  # rank builds no template
    ("template width capped at 64", "realize", inputs.chain(64), 2),  # within the cap
    ("template width capped at 64", "check", inputs.chain(35) * 2, 2),  # unreduced: no embedding
    ("out of memory", "realize", inputs.chain(70), 2),
])
def test_only_the_width_cap_refusal_above_64_is_known(tmp_path, message, verb, intervals, wrong):
    rank = len(set(intervals))
    name = f"input_r{rank}"
    loop = loop_over(tmp_path, refusing_cli(str(tmp_path / f"{name}.txt"), message),
                     [(name, intervals, verb)])
    assert not loop.ok(0)
    assert loop.wrong() == wrong


def test_loop_clears_caches_before_every_op(tmp_path):
    events = []

    def main(argv):
        events.append("call")
        print(json.dumps({"n": 5, "total": 4231, "tame_count": 3451, "counterexamples": []}))
        return 0

    ops = [workloads.Op("verify", None, 5 * 4231, n=5)] * 3
    loop = run.Loop(types.SimpleNamespace(main=main), ops, tmp_path,
                    [lambda: events.append("clear")])
    loop.cycle()
    assert events == ["clear", "call"] * 3


# ------------------------------------------------------------------ tracing


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
        ["other_op", 20.0, 21.5, None, 1],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == pytest.approx([6.0, 1])
    assert times["child"] == pytest.approx([3.0, 2])
    assert times["grandchild"] == pytest.approx([1.0, 1])
    assert times["other_op"] == pytest.approx([1.5, 1])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None, 0], ["c", 1.0, 5.0, 0, 0], ["c", 4.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)["p"][0] == pytest.approx(1.0)


def test_tracer_catches_calls_inside_the_library_and_restores_it(cases):
    import tameorders

    path, _ = cases["reduced"]
    originals = (tameorders.tame.embeds_r22, tameorders.templates.r_lambda,
                 tameorders.poset.Poset.__init__)
    clearers = run.cache_clearers(tameorders)
    tracer = tracing.Tracer(tameorders)
    tracer.install()
    try:
        for _ in range(2):
            for clear in clearers:
                clear()
            tracer.begin_op()
            cli_output(path, "realize")
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert (tameorders.tame.embeds_r22, tameorders.templates.r_lambda,
            tameorders.poset.Poset.__init__) == originals
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "templates.realize", "tame.reduce", "embedding.embeds_r22",
            "tame.canonical_embedding", "embedding.verify_embedding", "templates.inflate",
            "poset.restrict", "poset.Poset_init"} <= names
    metrics = tracer.metrics(2, 1.0)
    assert set(metrics) == set(tracing.per_layer_names())
    assert metrics["templates.realize.calls"] == 1
    # realize builds its template once per op and reuses it from the cache
    hits = tameorders.templates.r_lambda.cache_info().hits
    assert metrics["templates.r_lambda.cache_hits"] == hits
    assert 0 < metrics["templates.inflate.kept_ratio"] <= 1
    assert all(span[2] is not None for span in tracer.spans)


def test_missing_function_is_reported_absent():
    import tameorders

    fake = types.SimpleNamespace(__name__="nothing_here", cli=tameorders.cli)
    tracer = tracing.Tracer(fake)
    assert "tame.reduce" in tracer.absent and "embedding.find_embedding.nodes" in tracer.absent
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics(1, 1.0)["tame.reduce.self_s"] == 0


# ---------------------------------------------------------------- comparison


SPEC = {"better": "lower", "bound": 0.1}


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [80.0] * 10, SPEC, False)[0] == "gain"
    assert compare.verdict(parent, [80.0] * 10, SPEC, True)[0] == "within bound"
    assert compare.verdict(parent, [120.0] * 10, SPEC, False)[0] == "regression"
    assert compare.verdict(parent, [101.0] * 10, SPEC, False)[0] == "within bound"
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(noisy, [95.0] * 10, SPEC, False)[0] == "unresolved"


def result_set(n, failed=0, correct=True):
    return {"runs": [{"workload": "w", "trace": 0, "result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"op_ms_p50": {"value": 1.0}}}}] * n}


def test_compare_needs_ten_pairs():
    metrics = {"op_ms_p50": SPEC}
    assert "at least 10" in compare.compare(result_set(9), result_set(9), metrics)[1]
    rows = compare.compare(result_set(10), result_set(10), metrics)
    assert rows[1].endswith("within bound") and rows[2].endswith("within bound")


def test_compare_reports_more_failures_or_a_wrong_answer_as_a_regression():
    metrics = {"op_ms_p50": SPEC}
    parent = result_set(10, failed=6)
    for change in (result_set(10, failed=7), result_set(10, failed=6, correct=False)):
        rows = compare.compare(parent, change, metrics)
        assert rows[2].split()[:2] == ["w", "failures"] and rows[2].endswith("regression")
    assert compare.compare(parent, result_set(10, failed=0), metrics)[2].endswith("within bound")


# ------------------------------------------------------------- entry point


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
