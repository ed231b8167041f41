import math

import pytest
from hypothesis import given, settings

from tameorders import (
    BudgetExceeded,
    InternalInvariantViolation,
    M_value,
    NotReduced,
    NotTame,
    all_labeled_posets,
    build_poset,
    canonical_embedding,
    check_claim_inequalities,
    cu_family,
    cu_set,
    d_comparable,
    d_family,
    embeds_r22,
    frak_d_family,
    is_isomorphic,
    is_reduced,
    is_tame,
    m_value,
    minimal_rank_bruteforce,
    parse_order_pair,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    reduce,
    tame,
    tame_rank,
    u_comparable,
    up_set,
    verify_embedding,
    well_founded_rank,
)

from conftest import (
    antichain,
    chain,
    oracle_coordinates,
    oracle_zero_one_fishburn,
    posets,
)


class TestComparability:
    def test_template(self):
        assert u_comparable(r_lambda(3)) and d_comparable(r_lambda(3))

    def test_pattern(self):
        assert not u_comparable(pattern_r22()) and not d_comparable(pattern_r22())

    def test_chain(self):
        assert u_comparable(chain(4)) and d_comparable(chain(4))

    def test_comparability_characterization_exhaustive(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                free = embeds_r22(p) is None
                assert free == u_comparable(p) == d_comparable(p)


class TestIsTame:
    def test_pattern_not_tame(self):
        report = is_tame(pattern_r22())
        assert not report.tame
        assert report.witness == ("x0", "x1", "y0", "y1")
        assert report.tame_rank is None and report.coordinates is None

    def test_template_tame(self):
        report = is_tame(r_lambda(4))
        assert report.tame and report.tame_rank == 4
        assert report.coordinates == {x: parse_order_pair(x) for x in r_lambda(4)}
        assert canonical_embedding(r_lambda(4)).verified

    def test_s22_tame(self):
        report = is_tame(pattern_s_n2(2))
        assert report.tame and report.tame_rank == 3

    def test_non_reduced_omits_canonical(self):
        report = is_tame(antichain(3))
        assert report.tame and report.tame_rank == 1
        assert report.coordinates is None

    def test_json_shapes(self):
        bad = is_tame(pattern_r22()).to_json()
        assert bad == {"tame": False, "witness": ["x0", "x1", "y0", "y1"]}
        good = is_tame(pattern_s_n2(2)).to_json()
        assert good["tame"] and good["tame_rank"] == 3
        assert good["embedding"]["x1"] == [0, 0]

    def test_coordinates_agree_with_canonical_embedding(self):
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None or not is_reduced(p):
                    continue
                mapping = canonical_embedding(p).mapping
                assert is_tame(p).to_json()["embedding"] == {
                    str(x): list(parse_order_pair(y)) for x, y in mapping.items()
                }

    def test_corrupt_coordinate_is_caught(self, corrupt_coordinates):
        with pytest.raises(InternalInvariantViolation):
            is_tame(pattern_s_n2(2))


class TestReduce:
    def test_antichain_collapses(self):
        result = reduce(antichain(3))
        assert len(result.quotient) == 1
        assert set(result.class_of.values()) == {0}

    def test_s22_already_reduced(self):
        result = reduce(pattern_s_n2(2))
        assert is_isomorphic(result.quotient, pattern_s_n2(2))

    def test_chain_already_reduced(self):
        result = reduce(chain(3))
        assert is_isomorphic(result.quotient, chain(3))

    def test_signature_equivalence(self):
        p = build_poset(list("abcd"), [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])
        result = reduce(p, check=True)
        assert len(result.quotient) == 2
        assert result.class_of["a"] == result.class_of["b"]
        assert result.class_of["c"] == result.class_of["d"]
        for x in p:
            for y in p:
                same = result.class_of[x] == result.class_of[y]
                sigs_equal = (
                    up_set(p, x) == up_set(p, y)
                    and cu_set(p, x) == cu_set(p, y)
                )
                assert same == sigs_equal

    def test_check_catches_ill_defined_quotient(self, monkeypatch):
        # a quotient that drops every relation breaks the cross-pair recheck
        monkeypatch.setattr(tame, "restrict", lambda p, keep: build_poset(keep, []))
        p = build_poset(list("abcd"), [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])
        with pytest.raises(InternalInvariantViolation):
            reduce(p, check=True)

    def test_representatives(self):
        result = reduce(antichain(3))
        assert result.representatives == ("a0",)
        assert result.members(0) == ["a0", "a1", "a2"]

    def test_reduced_input_is_its_own_quotient(self):
        for p in [chain(4), pattern_s_n2(3), pattern_r22(), antichain(1)]:
            assert is_reduced(p)
            result = reduce(p, check=True)
            assert result.quotient is p
            assert result.class_of == {x: i for i, x in enumerate(p.elements)}
            assert result.representatives == p.elements

    @given(posets())
    @settings(max_examples=60)
    def test_idempotent(self, p):
        once = reduce(p, check=True).quotient
        assert is_reduced(once)
        twice = reduce(once).quotient
        assert twice == once


class TestFamilies:
    def test_chain_families(self):
        p = chain(3)
        assert [set(s) for s in d_family(p)] == [set(), {"c0"}, {"c0", "c1"}]
        assert [set(s) for s in cu_family(p)] == [
            {"c0"},
            {"c0", "c1"},
            {"c0", "c1", "c2"},
        ]
        assert d_family(p).linear and cu_family(p).linear

    def test_s22_down_family(self):
        assert [set(s) for s in d_family(pattern_s_n2(2))] == [
            set(),
            {"x1"},
            {"x0", "x1"},
        ]

    def test_empty_poset(self):
        p = build_poset([], [])
        assert len(d_family(p)) == 0
        assert [set(s) for s in frak_d_family(p)] == [set()]
        assert len(cu_family(p)) == 0

    def test_pattern_families_not_linear(self):
        assert not d_family(pattern_r22()).linear
        assert not cu_family(pattern_r22()).linear

    def test_completion_of_pattern_is_down_sets_plus_empty(self):
        p = pattern_r22()
        completed = set(frak_d_family(p).sets)
        assert completed == set(d_family(p).sets) | {frozenset()}
        assert completed == {frozenset(), frozenset({"x0"}), frozenset({"x1"})}
        assert not frak_d_family(p).linear

    def test_completion_degenerates_when_pattern_free(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None:
                    completed = set(frak_d_family(p).sets)
                    plain = set(d_family(p).sets)
                    assert completed == plain | {frozenset()}

    @given(posets(max_size=6))
    @settings(max_examples=40)
    def test_cu_u_anti_isomorphism(self, p):
        for x in p:
            for y in p:
                assert (up_set(p, x) >= up_set(p, y)) == (
                    cu_set(p, x) <= cu_set(p, y)
                )


class TestTameRank:
    def test_templates(self):
        for lam in range(9):
            assert tame_rank(r_lambda(lam)) == lam

    def test_chain(self):
        assert tame_rank(chain(3)) == 3

    def test_antichain(self):
        for k in range(1, 5):
            assert tame_rank(antichain(k)) == 1

    def test_not_tame(self):
        with pytest.raises(NotTame) as exc:
            tame_rank(pattern_r22())
        assert exc.value.witness == ("x0", "x1", "y0", "y1")

    def test_invariant_under_reduction(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None:
                    assert tame_rank(p) == tame_rank(reduce(p).quotient)

    def test_bounds(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None:
                    assert well_founded_rank(p) <= tame_rank(p) <= len(p)


class TestCoordinateValues:
    def test_chain_middle(self):
        p = chain(3)
        assert (m_value(p, "c1"), M_value(p, "c1")) == (1, 1)

    def test_s22_y0(self):
        p = pattern_s_n2(2)
        assert (m_value(p, "y0"), M_value(p, "y0")) == (2, 2)

    def test_minimal_element(self):
        p = chain(3)
        assert (m_value(p, "c0"), M_value(p, "c0")) == (0, 0)

    def test_not_tame(self):
        with pytest.raises(NotTame):
            m_value(pattern_r22(), "x0")
        with pytest.raises(NotTame):
            M_value(pattern_r22(), "x0")

    def test_match_definition_exhaustive_small(self):
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    continue
                expected = oracle_coordinates(p)
                for x in p:
                    assert (m_value(p, x), M_value(p, x)) == expected[x]
                if is_reduced(p):
                    emb = canonical_embedding(p)
                    assert {
                        x: parse_order_pair(y) for x, y in emb.mapping.items()
                    } == expected

    def test_template_coordinates_identity(self):
        p = r_lambda(4)
        for label in p.elements:
            a, b = parse_order_pair(label)
            assert m_value(p, label) == a
            assert M_value(p, label) == b


class TestCanonicalEmbedding:
    def test_chain(self):
        emb = canonical_embedding(chain(3))
        assert emb.mapping == {"c0": "0,0", "c1": "1,1", "c2": "2,2"}
        assert emb.verified

    def test_s22(self):
        emb = canonical_embedding(pattern_s_n2(2))
        assert emb.mapping == {"x1": "0,0", "x0": "0,1", "y1": "1,2", "y0": "2,2"}

    def test_singleton(self):
        emb = canonical_embedding(build_poset(["x"], []))
        assert emb.mapping == {"x": "0,0"}
        assert len(emb.target) == 1

    def test_not_reduced(self):
        with pytest.raises(NotReduced):
            canonical_embedding(antichain(2))

    def test_not_tame(self):
        with pytest.raises(NotTame):
            canonical_embedding(pattern_r22())

    def test_not_tame_reported_before_not_reduced(self):
        twin = build_poset(
            ["x0", "t0", "x1", "y0", "y1"], [("x0", "y0"), ("t0", "y0"), ("x1", "y1")]
        )
        with pytest.raises(NotTame):
            canonical_embedding(twin)

    def test_coordinates_stay_in_domain(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None or not is_reduced(p):
                    continue
                emb = canonical_embedding(p)
                for label in emb.mapping.values():
                    a, b = parse_order_pair(label)
                    assert 0 <= a <= b < tame_rank(p)


class TestMinimalRank:
    def test_chain(self):
        assert minimal_rank_bruteforce(chain(3)) == 3

    def test_s22(self):
        assert minimal_rank_bruteforce(pattern_s_n2(2)) == 3

    def test_singleton(self):
        assert minimal_rank_bruteforce(build_poset(["x"], [])) == 1

    def test_empty(self):
        assert minimal_rank_bruteforce(build_poset([], [])) == 0

    def test_no_size_cap(self):
        # past the old limit of 8 elements; only the budget bounds a search
        assert minimal_rank_bruteforce(chain(9)) == 9
        with pytest.raises(BudgetExceeded):
            minimal_rank_bruteforce(chain(16), budget=1000)

    def test_not_reduced(self):
        with pytest.raises(NotReduced):
            minimal_rank_bruteforce(antichain(2))

    def test_matches_tame_rank_exhaustive_small(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None and is_reduced(p):
                    assert minimal_rank_bruteforce(p) == tame_rank(p)


class TestRigidityAndDuality:
    def test_reduced_tame_labeled_counts(self):
        # distinct coordinates leave a reduced tame poset no automorphism, so
        # the labeled ones number n! times the unlabeled 0/1 Fishburn count;
        # verify --n runs one minimality refutation on each
        counts = [
            sum(1 for p in all_labeled_posets(n) if embeds_r22(p) is None and is_reduced(p))
            for n in range(6)
        ]
        assert counts == [1, 1, 2, 12, 120, 1920]
        assert counts == [math.factorial(n) * oracle_zero_one_fishburn(n) for n in range(6)]

    def test_reversal_reflects_coordinates(self):
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    continue
                dual = build_poset(p.elements, [(y, x) for x, y in p.pairs()])
                k, ms, Ms = tame._canonical_coordinates(p)
                assert tame._canonical_coordinates(dual) == (
                    k,
                    [k - 1 - big for big in Ms],
                    [k - 1 - m for m in ms],
                )


class TestClaimInequalities:
    def test_template(self):
        assert check_claim_inequalities(r_lambda(5))

    def test_s22(self):
        assert check_claim_inequalities(pattern_s_n2(2))

    def test_not_tame(self):
        with pytest.raises(NotTame):
            check_claim_inequalities(pattern_r22())

    def test_corrupt_coordinate_is_caught(self, corrupt_coordinates):
        assert not check_claim_inequalities(pattern_s_n2(2))
        assert not check_claim_inequalities(r_lambda(3))

    def test_exhaustive_small(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None:
                    assert check_claim_inequalities(p)

    def test_not_tame_raises_on_every_small_poset(self):
        # passing inequalities prove tameness, so only a failure scans, and
        # every non-tame poset fails one
        five_point = 0
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    five_point += n == 5
                    with pytest.raises(NotTame):
                        check_claim_inequalities(p)
        assert five_point == 780


def test_reduced_tame_embedding_verifies_exhaustively_small():
    for n in range(5):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is None:
                emb = canonical_embedding(reduce(p).quotient)
                assert emb.verified and verify_embedding(emb)
