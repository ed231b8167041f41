import hashlib
import itertools
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from tameorders import (
    BudgetExceeded,
    InternalInvariantViolation,
    InvalidParameter,
    NotTame,
    SizeLimitExceeded,
    all_labeled_posets,
    build_poset,
    embedding,
    enumeration,
    errors,
    format_poset,
    is_isomorphic,
    random_poset,
    tame,
    templates,
    verify_proposition,
    verify_sampled,
)

from tameorders.cli import main
from tameorders.embedding import _target_tables, pattern_r22
from tameorders.enumeration import check_poset

from conftest import (
    antichain,
    assert_order,
    chain,
    oracle_posets_by_filter,
    oracle_zero_one_fishburn,
)


class TestAllLabeledPosets:
    def test_counts_small(self):
        assert sum(1 for _ in all_labeled_posets(0)) == 1
        assert sum(1 for _ in all_labeled_posets(1)) == 1
        assert sum(1 for _ in all_labeled_posets(2)) == 3
        assert sum(1 for _ in all_labeled_posets(3)) == 19

    def test_count_four_and_five(self):
        # 219 cross-checked below against the relation filter; 4231 was
        # computed once with the same filter (a few seconds, so not rerun here)
        assert sum(1 for _ in all_labeled_posets(4)) == 219
        assert sum(1 for _ in all_labeled_posets(5)) == 4231

    def test_two_element_cases(self):
        relations = {tuple(sorted(p.pairs())) for p in all_labeled_posets(2)}
        assert relations == {(), (("0", "1"),), (("1", "0"),)}

    def test_matches_filter_oracle(self):
        for n in range(5):
            got = {p.up_masks for p in all_labeled_posets(n)}
            assert got == oracle_posets_by_filter(n)

    def test_no_duplicates(self):
        masks = [p.up_masks for p in all_labeled_posets(4)]
        assert len(masks) == len(set(masks))

    def test_all_validate(self):
        for p in all_labeled_posets(4):
            assert_order(p)
            assert p.elements == ("0", "1", "2", "3")

    def test_every_five_point_poset_validates(self):
        # the down masks are grown alongside the up masks, not transposed
        for p in all_labeled_posets(5):
            assert_order(p)

    @pytest.mark.slow
    def test_every_six_point_poset_validates(self):
        # all 130023 of them; run with -m slow
        for p in all_labeled_posets(6):
            assert_order(p)

    def test_closed_under_relabeling(self):
        family = {p.up_masks for p in all_labeled_posets(3)}
        for p in all_labeled_posets(3):
            for perm in itertools.permutations(range(3)):
                masks = [0, 0, 0]
                for i in range(3):
                    for j in range(3):
                        if p.up_masks[i] >> j & 1:
                            masks[perm[i]] |= 1 << perm[j]
                assert tuple(masks) in family

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            list(all_labeled_posets(8))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (4, "3ed2aee23b3d8d920700105a51dae006b34129ad10cb71c42c18c4a93c031638"),
            (5, "fa3401c38d61121360f5f21fdae93d1d14b1d235d0f3bbde2562260e8b7da9ad"),
            (6, "9bcf5dba135d784042e8e5e30c420d624da3ac53c38d82433dc5cdd0be6a0505"),
        ],
    )
    def test_order_pinned(self, n, digest):
        # every counterexample's "index" is a position in this stream
        masks = repr([p.up_masks for p in all_labeled_posets(n)])
        assert hashlib.sha256(masks.encode()).hexdigest() == digest


class TestRandomPoset:
    def test_zero_probability_is_antichain(self):
        p = random_poset(5, 0.0, 123)
        assert p.num_relations == 0
        assert is_isomorphic(p, antichain(5))

    def test_unit_probability_is_chain(self):
        p = random_poset(4, 1.0, 99)
        assert is_isomorphic(p, chain(4))

    def test_deterministic(self):
        a = random_poset(6, 0.3, 42)
        b = random_poset(6, 0.3, 42)
        assert a == b

    def test_seed_changes_output(self):
        draws = {random_poset(6, 0.5, s).up_masks for s in range(8)}
        assert len(draws) > 1

    def test_always_valid(self):
        for seed in range(10):
            assert_order(random_poset(7, 0.4, seed))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter, match="element count must be nonnegative"):
            random_poset(-1, 0.5, 0)
        with pytest.raises(InvalidParameter, match=r"edge probability must lie in \[0, 1\]"):
            random_poset(3, 1.5, 0)
        with pytest.raises(InvalidParameter, match=r"edge probability must lie in \[0, 1\]"):
            random_poset(n=3, edge_probability=-0.1, seed=0)

    def test_stream_is_pinned(self):
        """The posets drawn for each (n, p, seed), and those verify_sampled draws."""
        text = "".join(
            format_poset(random_poset(n, p, s))
            for n in range(10)
            for p in (0.0, 0.3, 0.7, 1.0)
            for s in range(5)
        )
        rng = random.Random(3)
        text += "".join(
            format_poset(random_poset(7, rng.random(), rng.getrandbits(32)))
            for _ in range(6)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest.startswith("b3c2fbc6414e3216")


class TestVerifyProposition:
    def test_tiny_sizes(self):
        report = verify_proposition(1)
        assert report.total == 1 and report.ok

    def test_three(self):
        report = verify_proposition(3)
        assert report.total == 19
        assert report.tame_count == 19  # the pattern needs four elements
        assert report.ok

    def test_four(self):
        report = verify_proposition(4)
        assert report.total == 219
        assert report.tame_count == 207
        assert report.ok

    def test_search_node_count(self, monkeypatch):
        # pinned: a change to the search order, the starting domains or the
        # searches the sweep runs moves this count, and must update it on
        # purpose
        real, spent = embedding._Budget.spend, []

        def counted(self):
            spent.append(1)
            return real(self)

        monkeypatch.setattr(embedding._Budget, "spend", counted)
        assert verify_proposition(4).ok
        assert len(spent) == 53

    def test_target_tables_built_once_per_template(self):
        # the sweep's 15 searches: the minimality refutations of the four
        # reduced 4-point classes of rank 3 return before the tables, since
        # width 2 has 3 points, and the other 11 look up widths 1 to 4,
        # each built once
        _target_tables.cache_clear()
        verify_proposition(4)
        info = _target_tables.cache_info()
        assert (info.misses, info.hits) == (4, 7)

    def test_one_minimality_refutation_per_isomorphism_class(self, monkeypatch):
        # embed-tame on each reduced class of 1 to 4 points (1 + 1 + 2 + 5),
        # every one the quotient of some 4-point poset, one refutation on
        # each reduced 4-point class, and one 2+2 refutation for all 12
        # non-tame posets
        real = enumeration._embeds
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_embeds", counted)
        assert verify_proposition(4).ok
        assert len(calls) == 9 + 5 + 1

    def test_one_2_plus_2_refutation_per_sweep(self, monkeypatch):
        # every non-tame poset's check reuses the one search of 2+2 into
        # the template of width 4 (10 points); the sweep of 219 is serial
        real, targets = enumeration._embeds, []

        def counted(pattern, target, budget, *rest):
            if pattern == pattern_r22():
                targets.append(len(target))
            return real(pattern, target, budget, *rest)

        monkeypatch.setattr(enumeration, "_embeds", counted)
        assert verify_proposition(4).ok
        assert targets == [10]

    def test_one_pattern_scan_per_poset(self, monkeypatch):
        # the verdict's scan only: every later check reuses it and scans
        # again only to name a witness after failing; the quotient's
        # coordinates are rechecked without building a labeled embedding
        calls = Counter()

        def counted(name, real):
            def wrapper(p):
                calls[name] += 1
                return real(p)

            return wrapper

        scan = counted("embeds_r22", enumeration.embeds_r22)
        monkeypatch.setattr(enumeration, "embeds_r22", scan)
        monkeypatch.setattr(tame, "embeds_r22", scan)
        monkeypatch.setattr(
            templates,
            "canonical_embedding",
            counted("canonical_embedding", templates.canonical_embedding),
        )
        assert verify_proposition(4).ok
        assert calls == {"embeds_r22": 219}

    def test_one_coordinate_recheck_per_tame_poset(self, monkeypatch):
        # claim-inequalities rechecks p itself, reduced or not, and is the
        # only place the sweep computes coordinates
        real, calls = tame._coordinates, []

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(tame, "_coordinates", counted)
        assert verify_proposition(4).ok
        assert len(calls) == 207

    def test_rank_too_large_fails_minimality(self, corrupt_rank):
        # every reduced tame 4-point poset embeds one below the raised rank
        report = verify_proposition(4)
        assert len(report.counterexamples) == 120
        assert {c["check"] for c in report.counterexamples} == {"minimality"}

    def test_size_cap_default(self, monkeypatch):
        # the generator's cap is the only one: n = 7 reaches the sweep as
        # is, n = 8 and n = -1 fail before any poset is checked
        firsts = []

        def first_only(n, posets, budget):
            firsts.append(next(iter(posets)))
            return enumeration.VerificationReport(n, 0, 0)

        monkeypatch.setattr(enumeration, "_sweep", first_only)
        verify_proposition(7)
        assert len(firsts) == 1 and len(firsts[0]) == 7
        monkeypatch.undo()
        with pytest.raises(SizeLimitExceeded, match="capped at 7"):
            verify_proposition(8)
        with pytest.raises(InvalidParameter):
            verify_proposition(-1)

    def test_size_cap_opt_in(self):
        # there is no opt-in keyword left to lift the cap
        with pytest.raises(TypeError):
            verify_proposition(7, allow_large=True)

    def test_json_shape(self):
        # the CLI writes the document from these fields (test_cli pins it)
        assert verify_proposition(2)._asdict() == {
            "n": 2, "total": 3, "tame_count": 3, "counterexamples": ()
        }

    def test_counterexamples_carry_their_poset(self, corrupt_rank):
        stream = list(all_labeled_posets(4))
        report = verify_proposition(4)
        assert len(report.counterexamples) == 120
        for c in report.counterexamples:
            assert set(c) == {"index", "check", "detail", "poset"}
            assert c["poset"] == stream[c["index"]]

    @pytest.mark.slow
    def test_six(self):
        # every labeled poset on 6 points (A001035), the interval orders
        # among them (A079144); run with -m slow
        report = verify_proposition(6)
        assert (report.total, report.tame_count) == (130023, 81663)
        assert report.ok


def fired(report) -> dict[str, int]:
    return dict(Counter(c["check"] for c in report.counterexamples))


class TestEverySweepCheckFires:
    """Each sweep check, broken on purpose, flags exactly the posets it guards.

    ``verify_proposition(4)`` sweeps 219 posets: 12 non-tame and 207 tame,
    of which 120 are reduced and 87 are not.
    """

    def test_no_embedding_fails_embed_tame(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_embeds", lambda *a, **k: False)
        assert fired(verify_proposition(4)) == {"embed-tame": 207}

    def test_any_embedding_fails_embed_nontame_and_minimality(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_embeds", lambda *a, **k: True)
        assert fired(verify_proposition(4)) == {"embed-nontame": 12, "minimality": 120}

    @pytest.mark.parametrize("order", [(2, 3, 0, 1), (0, 3, 2, 1)])
    def test_non_induced_witness_fails_embed_nontame(self, monkeypatch, order):
        # the scan's quadruple reordered: (y, y2, x, x2) has no x < y, and
        # (x, y2, y, x2) has no x2 < y2, so it is no induced 2+2 of p
        real = enumeration.embeds_r22

        def scan(p):
            witness = real(p)
            return witness and tuple(witness[i] for i in order)

        monkeypatch.setattr(enumeration, "embeds_r22", scan)
        report = verify_proposition(4)
        assert fired(report) == {"embed-nontame": 12}
        assert all("is no induced 2+2" in c["detail"] for c in report.counterexamples)

    def test_comparable_down_sets_fail_comparability(self, monkeypatch):
        monkeypatch.setattr(tame, "d_comparable", lambda p: True)
        assert fired(verify_proposition(4)) == {"comparability": 12}

    def test_comparable_up_sets_fail_comparability(self, monkeypatch):
        monkeypatch.setattr(tame, "u_comparable", lambda p: True)
        assert fired(verify_proposition(4)) == {"comparability": 12}

    def test_rank_raised_off_quotient_fails_rank_invariance(self, monkeypatch):
        real = tame._rank
        monkeypatch.setattr(tame, "_rank", lambda p: real(p) + (not tame.is_reduced(p)))
        assert fired(verify_proposition(4)) == {"rank-invariance": 87}

    def test_coordinate_raised_off_quotient_fails_claim_inequalities(
        self, monkeypatch
    ):
        real = tame._coordinates

        def shifted(p):
            ms, Ms = real(p)
            if len(p) and not tame.is_reduced(p):
                Ms[0] += 1
            return ms, Ms

        monkeypatch.setattr(tame, "_coordinates", shifted)
        assert fired(verify_proposition(4)) == {"claim-inequalities": 87}

    def test_corrupt_coordinates_fail_claim_inequalities(self, corrupt_coordinates):
        assert fired(verify_proposition(4)) == {"claim-inequalities": 207}

    def test_relationless_quotient_fails_quotient(self, monkeypatch):
        # every unreduced poset but the antichain, whose one class has no
        # relation to lose; the wrong quotient's rank and search fail too
        monkeypatch.setattr(tame, "restrict", lambda p, keep: build_poset(keep, []))
        assert fired(verify_proposition(4)) == {
            "quotient": 86,
            "rank-invariance": 86,
            "embed-tame": 36,
        }

    def test_unreduced_quotient_fails_quotient(self, monkeypatch):
        # a reduce that collapses nothing lifts exactly, so of the quotient
        # check only reducedness fails, on the 87 unreduced posets; their
        # twins find no image in the template of their rank either
        def identity(p):
            return tame.ReductionResult(p, {x: i for i, x in enumerate(p.elements)})

        monkeypatch.setattr(tame, "reduce", identity)
        assert fired(verify_proposition(4)) == {"quotient": 87, "embed-tame": 87}

    def test_verify_reports_a_failed_quotient(self, monkeypatch, capsys):
        # a failed claim is a counterexample (exit 3), never an internal error
        monkeypatch.setattr(tame, "restrict", lambda p, keep: build_poset(keep, []))
        assert main(["verify", "--json", "--n", "4"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 219 and len(report["counterexamples"]) == 208


class TestVerifySampled:
    def test_runs_clean(self):
        report = verify_sampled(6, 25, seed=11)
        assert report.total == 25 and report.ok

    def test_nontame_refutations_fit_a_small_budget(self):
        # the non-tame samples share one refutation of 2+2 into width
        # min(n, 8): 526 nodes at n = 12, where width 12 would take 2916;
        # no other search of these samples needs more than 1000 nodes
        for n, tame_count in [(9, 5), (12, 4)]:
            report = verify_sampled(n, 10, seed=1, budget=1000)
            assert (report.total, report.tame_count) == (10, tame_count)
            assert report.ok

    def test_zero_points(self):
        assert verify_sampled(0, 3, seed=1) == enumeration.VerificationReport(0, 3, 3)

    def test_deterministic(self):
        assert verify_sampled(5, 10, seed=3) == verify_sampled(5, 10, seed=3)

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameter):
            verify_sampled(-1, 5, seed=0)
        with pytest.raises(InvalidParameter):
            verify_sampled(3, -5, seed=0)


class TestSearchVerdicts:
    """``check_poset``'s ``verdicts``: each repeated search runs once per dict."""

    NONTAME = build_poset([str(i) for i in range(12)], [("0", "1"), ("2", "3")])

    def test_nontame_verdict_is_kept_by_width(self):
        verdicts = {}
        assert check_poset(self.NONTAME, budget=526, verdicts=verdicts) == (False, [])
        assert verdicts == {("2+2", 8): False}
        assert check_poset(self.NONTAME, budget=0, verdicts=verdicts) == (False, [])

    def test_search_over_budget_stores_nothing(self):
        verdicts = {}
        with pytest.raises(BudgetExceeded):
            check_poset(self.NONTAME, budget=525, verdicts=verdicts)
        assert verdicts == {}

    def test_alone_each_check_searches_afresh(self):
        check_poset(self.NONTAME)
        with pytest.raises(BudgetExceeded):
            check_poset(self.NONTAME, budget=525)

    def test_unreduced_quotients_are_kept_with_their_rank(self):
        # two labelings of one unreduced order, and the chain they reduce
        # to, share one embed-tame search, keyed by the distinct (m, M)
        # pairs and the width; the chain adds its minimality refutation
        twins = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        relabeled = build_poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
        verdicts = {}
        assert check_poset(twins, verdicts=verdicts) == (True, [])
        assert check_poset(relabeled, budget=0, verdicts=verdicts) == (True, [])
        pairs = frozenset({(0, 0), (1, 1)})
        assert verdicts == {(pairs, 2): True}
        assert check_poset(chain(2), budget=0, verdicts=verdicts) == (True, [])
        assert verdicts == {(pairs, 2): True, (pairs, 1): False}

    @pytest.mark.parametrize(
        "n", [4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_one_verdict_per_isomorphism_class(self, monkeypatch, n):
        # a serial sweep keeps one embed-tame verdict per reduced class of 1
        # to n points (A138265; each is the quotient of an n-point poset),
        # one minimality verdict per reduced n-point class and the one 2+2
        # refutation: 15, 42 and 148 entries
        real, kept = enumeration.check_poset, {}

        def check(p, budget=None, verdicts=None):
            kept[id(verdicts)] = verdicts
            return real(p, budget=budget, verdicts=verdicts)

        monkeypatch.setattr(enumeration, "check_poset", check)
        assert serially(monkeypatch, lambda: verify_proposition(n)).ok
        (verdicts,) = kept.values()
        classes = [oracle_zero_one_fishburn(k) for k in range(1, n + 1)]
        assert len(verdicts) == sum(classes) + classes[-1] + 1

    def test_every_labeling_spends_the_same_nodes(self, monkeypatch):
        # the searches take equally related points by down-set size, which
        # orders them as their (m, M) pairs do, so each of the 120 labelings
        # of the intervals [0,0] [0,1] [1,2] [2,3] [3,3] spends 13 nodes;
        # taken by index, they spent 11 to 19
        pairs = [("a", "c"), ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"), ("c", "e")]
        real, spent = embedding._Budget.spend, []

        def counted(self):
            spent.append(1)
            return real(self)

        monkeypatch.setattr(embedding._Budget, "spend", counted)
        nodes = set()
        for labels in itertools.permutations("abcde"):
            spent.clear()
            assert check_poset(build_poset(labels, pairs)) == (True, [])
            nodes.add(len(spent))
        assert nodes == {13}

    @pytest.mark.parametrize("broken", ["restrict", "reduce", "coordinates"])
    def test_failed_checks_store_nothing(self, monkeypatch, request, broken):
        # only a rechecked order whose quotient passes its check is proven
        # isomorphic to the order on its distinct (m, M) pairs; a quotient
        # that lifts inexactly, one left unreduced, or coordinates that fail
        # their recheck leave the searches to run directly and keep nothing
        p = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c")])
        if broken == "restrict":  # a reduced quotient, but the chain a < c < d
            monkeypatch.setattr(
                tame, "restrict", lambda q, keep: build_poset(keep, list(zip(keep, keep[1:])))
            )
            fired = {"quotient", "rank-invariance", "embed-tame"}
        elif broken == "reduce":
            identity = tame.ReductionResult(p, {x: i for i, x in enumerate(p.elements)})
            monkeypatch.setattr(tame, "reduce", lambda q: identity)
            fired = {"quotient", "embed-tame"}
        else:
            request.getfixturevalue("corrupt_coordinates")
            fired = {"claim-inequalities"}
        verdicts = {}
        _, failures = check_poset(p, verdicts=verdicts)
        assert {f["check"] for f in failures} == fired
        assert verdicts == {}


def test_negative_budget_is_refused_before_any_poset():
    # before any other check too: a negative count or size of the same call
    # is not the error reported
    message = "node budget must be nonnegative, got -1"
    with pytest.raises(InvalidParameter, match=message):
        verify_sampled(3, 0, 1, budget=-1)
    with pytest.raises(InvalidParameter, match=message):
        verify_sampled(-1, -1, 1, budget=-1)
    with pytest.raises(InvalidParameter, match=message):
        verify_proposition(0, budget=-1)
    with pytest.raises(InvalidParameter, match=message):
        verify_proposition(7, budget=-1)


@pytest.fixture
def forks(monkeypatch):
    """Three workers on any host; yields the pids forked, and leaves no child.

    The affinity set is faked, so a long sweep forks two children even on
    one CPU; after the test no child of this process may remain.
    """
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serially(monkeypatch, run):
    """``run()`` with every sweep checked in this process."""
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_FORK_MIN", 10**9)
        return run()


def fail_at(monkeypatch, faults, n=5):
    """Make ``check_poset`` raise ``faults[i]`` on the n-point stream's poset i."""
    stream = itertools.islice(all_labeled_posets(n), max(faults) + 1)
    at = {p.up_masks: faults[i] for i, p in enumerate(stream) if i in faults}
    real = enumeration.check_poset

    def check(p, budget=None, verdicts=None):
        if p.up_masks in at:
            raise at[p.up_masks]
        return real(p, budget=budget, verdicts=verdicts)

    monkeypatch.setattr(enumeration, "check_poset", check)


class TestForkedSweep:
    """A stream of _FORK_MIN posets or more is split by position across forks.

    Worker w checks positions congruent to w mod 3 here: the caller is
    worker 0, and each child walks its own copy of the stream.  Where any
    long stream will do, 1500 one-point samples are the cheapest to check.
    """

    def test_reports_equal_the_serial_ones(self, forks, monkeypatch):
        for run in (
            lambda: verify_proposition(5),
            lambda: verify_sampled(5, 1200, seed=3),
        ):
            assert run() == serially(monkeypatch, run)
        assert len(forks) == 4
        report = verify_proposition(5)
        assert (report.total, report.tame_count) == (4231, 3451)

    def test_planted_fault_gives_the_serial_counterexamples(
        self, forks, monkeypatch, corrupt_rank
    ):
        forked = verify_proposition(5).counterexamples
        assert forks
        assert forked == serially(monkeypatch, lambda: verify_proposition(5)).counterexamples
        indices = [c["index"] for c in forked]
        assert indices == sorted(indices) and len(forked) > 1000
        assert {i % 3 for i in indices} == {0, 1, 2}

    def test_short_streams_never_fork(self, forks):
        assert verify_proposition(4).ok
        assert all(verify_sampled(7, 6, seed=s).ok for s in range(1, 4))
        assert forks == []

    def test_child_exception_reaches_the_caller(self, forks, monkeypatch):
        fail_at(monkeypatch, {1001: BudgetExceeded("child"), 1500: ValueError("later")})
        with pytest.raises(BudgetExceeded, match="child"):
            verify_proposition(5)
        assert forks

    def test_lowest_failing_position_wins(self, forks, monkeypatch):
        # 999 is the caller's, 1000 and 1001 its children's
        fail_at(monkeypatch, {999: ValueError("first"), 1000: BudgetExceeded("second"),
                              1001: InternalInvariantViolation("third")})
        with pytest.raises(ValueError, match="first"):
            verify_proposition(5)
        assert forks

    def test_a_failure_stops_every_share(self, forks, monkeypatch):
        # the caller fails at position 0 of the 130023 six-point posets; each
        # child stops at its first position past that, not after its 43341
        fail_at(monkeypatch, {0: BudgetExceeded("first")}, n=6)
        caller, *children = enumeration._shares(all_labeled_posets(6), None, 3)
        assert caller[0] == 0 and caller[3] == 0
        assert isinstance(caller[4], BudgetExceeded)
        assert all(child[3:] == (None, None) and child[0] < 10000 for child in children)

    @pytest.mark.parametrize("budget", ["2", "4", "13"])
    def test_cli_budget_document_is_the_serial_one(self, forks, monkeypatch, capsys, budget):
        # budget 2 first fails at position 1 (a child's), budget 4 at 33 (the
        # caller's); 13, what every labeling of one reduced class spends
        # (test_every_labeling_spends_the_same_nodes), also fails at 33,
        # whose 2+2 refutation into width 5 takes 67
        argv = ["verify", "--json", "--n", "5", "--budget", budget]
        assert main(argv) == 2
        forked = capsys.readouterr()
        assert serially(monkeypatch, lambda: main(argv)) == 2
        assert forked == capsys.readouterr()
        assert '"budget-exceeded"' in forked.out and len(forks) == 2

    @pytest.mark.slow
    def test_six_point_document_is_the_serial_one(self, forks, monkeypatch, capsys):
        # each share keeps its own verdicts, so the shares search different
        # labelings of a class first; the bytes are the serial sweep's
        argv = ["verify", "--json", "--n", "6"]
        assert main(argv) == 0
        forked = capsys.readouterr()
        assert serially(monkeypatch, lambda: main(argv)) == 0
        assert forked == capsys.readouterr()
        assert len(forks) == 2

    def test_interrupt_in_the_caller_reaps_the_children(self, forks, monkeypatch):
        caller = os.getpid()
        real = enumeration.check_poset

        def check(p, budget=None, verdicts=None):
            if os.getpid() == caller and forks:
                raise KeyboardInterrupt
            return real(p, budget=budget, verdicts=verdicts)

        monkeypatch.setattr(enumeration, "check_poset", check)
        with pytest.raises(KeyboardInterrupt):
            verify_proposition(5)
        assert len(forks) == 2

    def test_child_without_a_report_is_an_internal_error(self, forks, monkeypatch):
        caller = os.getpid()
        real = enumeration.check_poset

        def check(p, budget=None, verdicts=None):
            if os.getpid() != caller:
                os._exit(0)
            return real(p, budget=budget, verdicts=verdicts)

        monkeypatch.setattr(enumeration, "check_poset", check)
        with pytest.raises(InternalInvariantViolation, match="without its report"):
            verify_sampled(1, 1500, seed=1)

    def test_no_fork_with_a_second_thread(self, forks):
        expected = verify_sampled(1, 1500, seed=1)
        assert len(forks) == 2
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verify_sampled(1, 1500, seed=1) == expected
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and len(forks) == 2

    def test_no_fork_without_os_fork(self, forks, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert verify_sampled(1, 1500, seed=1).total == 1500
        assert forks == []

    def test_worker_count(self, monkeypatch):
        # _workers forks nothing itself; the CPU count is capped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert enumeration._workers() == enumeration._MAX_WORKERS == 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert enumeration._workers() == 1


def test_every_error_survives_pickling():
    # a forked worker pickles the exception it stops at for the caller
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception)
    ]
    assert {errors.PosetError, NotTame} <= set(classes)
    for cls in classes:
        exc = cls(("a", "b", "c", "d")) if cls is NotTame else cls("message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


# Runs ``verify --n 6`` on three workers whatever the host, and prints the
# pid of each worker as it forks it.
WORKERS_RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1, 2}
real_fork = os.fork

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = fork
from tameorders.cli import main
main(["verify", "--n", "6"])
"""


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (nobody may reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in "ZX"


class TestForkedFailures:
    def test_child_not_tame_keeps_the_serial_message(self, forks, monkeypatch):
        # position 1001 is a child's, so its NotTame reaches the caller pickled
        witness = ("0", "1", "2", "3")
        fail_at(monkeypatch, {1001: NotTame(witness)})
        with pytest.raises(NotTame) as forked:
            verify_proposition(5)
        assert forks
        with pytest.raises(NotTame) as serial:
            serially(monkeypatch, lambda: verify_proposition(5))
        assert str(forked.value) == str(serial.value)
        assert forked.value.witness == witness

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states")
    def test_workers_of_a_killed_caller_stop(self):
        # SIGTERM kills the caller before it can reap anything; each worker
        # must notice at its next poset, not finish its share
        package = Path(enumeration.__file__).resolve().parents[1]
        caller = subprocess.Popen(
            [sys.executable, "-c", WORKERS_RUN, str(package)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            workers = [int(caller.stdout.readline()) for _ in range(2)]
        finally:
            caller.terminate()
            caller.wait(timeout=10)
            caller.stdout.close()
        deadline = time.monotonic() + 2
        while (alive := [pid for pid in workers if running(pid)]) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.02)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert alive == []
