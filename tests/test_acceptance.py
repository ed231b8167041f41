"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every test also enforces its time budget.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tameorders
from tameorders import (
    GeneratorConfig,
    all_labeled_posets,
    check_claim_inequalities,
    cummings_blocks,
    d_comparable,
    embeds_r22,
    find_embedding,
    is_isomorphic,
    is_tame,
    pattern_r22,
    r_lambda,
    random_poset,
    realize,
    reduce,
    restrict,
    tame_rank,
    u_comparable,
    verify_embedding,
    verify_proposition,
    well_founded_rank,
)


def report(criterion: str) -> None:
    print(f"acceptance {criterion}: PASS")


@pytest.fixture(scope="module")
def sweep():
    """Shared exhaustive run over n = 0..5 (criteria 3, 4, 5)."""
    start = time.perf_counter()
    reports = {n: verify_proposition(n) for n in range(6)}
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_01_template_ranks():
    start = time.perf_counter()
    for lam in range(9):
        p = r_lambda(lam)
        assert len(p) == lam * (lam + 1) // 2
        assert tame_rank(p) == lam
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("1 (template ranks, widths 0..8)")


def test_criterion_02_forbidden_pattern_absent():
    start = time.perf_counter()
    pattern = pattern_r22()
    for lam in range(9):
        assert find_embedding(pattern, r_lambda(lam)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("2 (forbidden pattern never embeds, widths 0..8)")


def test_criterion_03_comparability_characterization(sweep):
    reports, elapsed = sweep
    for n in range(6):
        for p in all_labeled_posets(n):
            free = embeds_r22(p) is None
            assert free == u_comparable(p) == d_comparable(p)
        assert not any(
            ce["check"] == "comparability"
            for ce in reports[n].counterexamples
        )
    assert elapsed <= 60.0
    report("3 (comparability characterization, all posets n <= 5)")


def test_criterion_04_exhaustive_sweep(sweep):
    reports, elapsed = sweep
    totals = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
    for n in range(6):
        assert reports[n].total == totals[n]
        assert reports[n].ok, reports[n].counterexamples[:3]
    assert elapsed <= 60.0
    report("4 (tame iff reduction embeds; non-tame never embeds; n <= 5)")


def test_criterion_05_minimality(sweep):
    reports, _ = sweep
    for n in range(6):
        assert not any(
            ce["check"] == "minimality" for ce in reports[n].counterexamples
        )
    report("5 (brute-force minimal width equals tame rank, n <= 5)")


def test_criterion_06_claim_inequalities():
    for n in range(6):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is None:
                assert check_claim_inequalities(p)
    for lam in range(7):
        assert check_claim_inequalities(r_lambda(lam))
    report("6 (coordinate inequalities, tame posets n <= 5 and widths <= 6)")


def test_criterion_07_realization_round_trip():
    start = time.perf_counter()
    checked = 0
    for n in range(6):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is not None:
                continue
            result = realize(p)
            assert result.iso.verified and verify_embedding(result.iso)
            sub = restrict(result.inflated, result.w)
            assert sub == result.iso.source
            assert is_isomorphic(sub, p)
            checked += 1
    probs = [0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0]
    found = 0
    draws = 0
    while found < 200:
        assert draws < 20000, "tame sampling failed to converge"
        cfg = GeneratorConfig(1 + draws % 12, probs[draws % len(probs)], 777000 + draws)
        draws += 1
        p = random_poset(cfg)
        if embeds_r22(p) is not None:
            continue
        found += 1
        result = realize(p)
        assert result.iso.verified and verify_embedding(result.iso)
        sub = restrict(result.inflated, result.w)
        assert sub == result.iso.source
        assert is_isomorphic(sub, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"7 (realization round trip, {checked} exhaustive + 200 random)")


def test_criterion_08_rank_bounds_and_reduction_invariance():
    for n in range(6):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is not None:
                continue
            rank = tame_rank(p)
            assert well_founded_rank(p) <= rank <= len(p)
            assert rank == tame_rank(reduce(p).quotient)
    report("8 (rank bounds and reduction invariance, n <= 5)")


def test_criterion_09_cummings_blocks():
    for o in range(1, 6):
        assert is_tame(cummings_blocks(o)).tame
    two = cummings_blocks(2)
    assert two.elements == ("0,1", "0,inf", "1,inf")
    assert two.pairs() == [("0,1", "1,inf")]
    report("9 (block orders tame for o <= 5; o = 2 structure exact)")


def test_criterion_10_cli_determinism(tmp_path):
    # the child imports the same library as this process, installed or not
    src = str(Path(tameorders.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "tameorders", *argv],
            capture_output=True,
            check=False,
            env=env,
        )

    invocations = [
        ["gen", "--random", "6", "0.3", "42", "--json"],
        ["verify", "--n", "4", "--samples", "6", "--seed", "9", "--json"],
    ]
    gen = run(["gen", "--random", "7", "0.5", "1234"])
    source = tmp_path / "input.poset"
    source.write_bytes(gen.stdout)
    invocations.append(["realize", str(source), "--json"])
    invocations.append(["check", str(source), "--json"])
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        json.loads(first.stdout.decode())
    report("10 (byte-identical --json output across reruns)")
