import hashlib
import itertools
from collections import Counter

import pytest

from tameorders import (
    GeneratorConfig,
    InvalidParameter,
    SizeLimitExceeded,
    all_labeled_posets,
    enumeration,
    is_isomorphic,
    random_poset,
    tame,
    verify_proposition,
    verify_sampled,
)

from tameorders.embedding import _target_tables

from conftest import antichain, chain, oracle_posets_by_filter


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
            p.validate()
            assert p.elements == ("0", "1", "2", "3")

    def test_every_five_point_poset_validates(self):
        # the down masks are grown alongside the up masks, not transposed
        for p in all_labeled_posets(5):
            p.validate()

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
            list(all_labeled_posets(7))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (4, "3ed2aee23b3d8d920700105a51dae006b34129ad10cb71c42c18c4a93c031638"),
            (5, "fa3401c38d61121360f5f21fdae93d1d14b1d235d0f3bbde2562260e8b7da9ad"),
        ],
    )
    def test_order_pinned(self, n, digest):
        # every counterexample's "index" is a position in this stream
        masks = repr([p.up_masks for p in all_labeled_posets(n)])
        assert hashlib.sha256(masks.encode()).hexdigest() == digest


class TestRandomPoset:
    def test_zero_probability_is_antichain(self):
        p = random_poset(GeneratorConfig(5, 0.0, 123))
        assert p.num_relations == 0
        assert is_isomorphic(p, antichain(5))

    def test_unit_probability_is_chain(self):
        p = random_poset(GeneratorConfig(4, 1.0, 99))
        assert is_isomorphic(p, chain(4))

    def test_deterministic(self):
        a = random_poset(GeneratorConfig(6, 0.3, 42))
        b = random_poset(GeneratorConfig(6, 0.3, 42))
        assert a == b

    def test_seed_changes_output(self):
        draws = {random_poset(GeneratorConfig(6, 0.5, s)).up_masks for s in range(8)}
        assert len(draws) > 1

    def test_always_valid(self):
        for seed in range(10):
            random_poset(GeneratorConfig(7, 0.4, seed)).validate()

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            GeneratorConfig(-1, 0.5, 0)
        with pytest.raises(InvalidParameter):
            GeneratorConfig(3, 1.5, 0)


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

    def test_target_tables_built_once_per_template(self):
        # every search into one template reuses its tables: at most one miss
        # per distinct template width 0..4
        _target_tables.cache_clear()
        verify_proposition(4)
        info = _target_tables.cache_info()
        assert 0 < info.misses <= 5 and info.hits > 100

    def test_one_minimality_refutation_per_reduced_tame_poset(self, monkeypatch):
        # one search per poset (embed-tame or embed-nontame), plus one
        # refutation on each of the 120 reduced tame ones
        real = enumeration.find_embedding
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumeration, "find_embedding", counted)
        assert verify_proposition(4).ok
        assert len(calls) == 219 + 120

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
            tame,
            "canonical_embedding",
            counted("canonical_embedding", tame.canonical_embedding),
        )
        assert verify_proposition(4).ok
        assert calls == {"embeds_r22": 219}

    def test_rank_too_large_fails_minimality(self, corrupt_rank):
        # every reduced tame 4-point poset embeds one below the raised rank
        report = verify_proposition(4)
        assert len(report.counterexamples) == 120
        assert {c["check"] for c in report.counterexamples} == {"minimality"}

    def test_size_cap_default(self, monkeypatch):
        # the generator's cap is the only one: n = 6 reaches the sweep as
        # is, n = 7 and n = -1 fail before any poset is checked
        firsts = []

        def first_only(n, posets, budget):
            firsts.append(next(iter(posets)))
            return enumeration.VerificationReport(n, 0, 0)

        monkeypatch.setattr(enumeration, "_sweep", first_only)
        verify_proposition(6)
        assert len(firsts) == 1 and len(firsts[0]) == 6
        monkeypatch.undo()
        with pytest.raises(SizeLimitExceeded, match="capped at 6"):
            verify_proposition(7)
        with pytest.raises(InvalidParameter):
            verify_proposition(-1)

    def test_size_cap_opt_in(self):
        # there is no opt-in keyword left to lift the cap
        with pytest.raises(TypeError):
            verify_proposition(7, allow_large=True)

    def test_json_shape(self):
        obj = verify_proposition(2).to_json()
        assert obj == {"n": 2, "total": 3, "tame_count": 3, "counterexamples": []}

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
        monkeypatch.setattr(enumeration, "find_embedding", lambda *a, **k: None)
        assert fired(verify_proposition(4)) == {"embed-tame": 207}

    def test_any_embedding_fails_embed_nontame_and_minimality(self, monkeypatch):
        monkeypatch.setattr(enumeration, "find_embedding", lambda *a, **k: True)
        assert fired(verify_proposition(4)) == {"embed-nontame": 12, "minimality": 120}

    def test_comparable_down_sets_fail_comparability(self, monkeypatch):
        monkeypatch.setattr(tame, "d_comparable", lambda p: True)
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
        assert fired(verify_proposition(4)) == {"claim-inequalities": 43}


class TestVerifySampled:
    def test_runs_clean(self):
        report = verify_sampled(6, 25, seed=11)
        assert report.total == 25 and report.ok

    def test_nontame_refutations_fit_a_small_budget(self):
        # each embed-nontame search starts at the scan's witness, so no
        # search of these 9-point samples needs more than 1000 nodes
        report = verify_sampled(9, 10, seed=1, budget=1000)
        assert (report.total, report.tame_count) == (10, 5)
        assert report.ok

    def test_deterministic(self):
        a = verify_sampled(5, 10, seed=3).to_json()
        b = verify_sampled(5, 10, seed=3).to_json()
        assert a == b

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameter):
            verify_sampled(-1, 5, seed=0)
        with pytest.raises(InvalidParameter):
            verify_sampled(3, -5, seed=0)
