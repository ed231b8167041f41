import pytest
from hypothesis import given, settings, strategies as st

from tameorders import (
    InternalInvariantViolation,
    InvalidParameter,
    NotTame,
    all_labeled_posets,
    build_poset,
    cummings_blocks,
    embeds_r22,
    is_isomorphic,
    is_reduced,
    is_tame,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    realize,
    reduce,
    restrict,
    tame_rank,
    verify_embedding,
)
from tameorders.poset import _masks_above

from conftest import antichain, assert_order, chain, oracle_inflate, oracle_point, posets


small_ints = st.lists(st.integers(-3, 3), max_size=8)


@given(small_ints, small_ints)
def test_masks_above_matches_the_pairwise_definition(values, cuts):
    above = tuple(sum(1 << i for i, v in enumerate(values) if v > c) for c in cuts)
    assert _masks_above(values, cuts) == above
    # negated, as for down masks: the indices whose value lies below each cut
    below = tuple(sum(1 << i for i, v in enumerate(values) if v < c) for c in cuts)
    assert _masks_above([-v for v in values], [-c for c in cuts]) == below


class TestRLambda:
    def test_width_two(self):
        p = r_lambda(2)
        assert len(p) == 3
        assert p.pairs() == [("0,0", "1,1")]

    def test_width_zero(self):
        assert len(r_lambda(0)) == 0

    def test_sizes(self):
        for lam in range(9):
            assert len(r_lambda(lam)) == lam * (lam + 1) // 2
        assert len(r_lambda(8)) == 36

    def test_cap(self):
        assert len(r_lambda(65)) == 2145

    def test_negative(self):
        with pytest.raises(InvalidParameter):
            r_lambda(-1)

    def test_narrower_template_is_a_restriction(self):
        # R_l is R_{l+1} on the points with b < l, in the same element order;
        # so a poset that embeds below width r - 1 embeds into R_{r-1}
        for lam in range(13):
            wider = r_lambda(lam + 1)
            kept = [x for x in wider.elements if oracle_point(x)[1] < lam]
            assert restrict(wider, kept) == r_lambda(lam)  # compares element order too

    def test_down_masks_built_not_transposed(self):
        for lam in [*range(13), 66]:
            p = r_lambda(lam)
            assert_order(p)

    def test_pair_rule_all_pairs(self):
        for lam in range(7):
            p = r_lambda(lam)
            for x in p.elements:
                a, b = oracle_point(x)
                assert 0 <= a <= b < lam
                for y in p.elements:
                    a2, b2 = oracle_point(y)
                    assert p.less(x, y) == (b < a2)

    def test_reduced_and_tame(self):
        for lam in range(9):
            p = r_lambda(lam)
            assert is_reduced(p)
            report = is_tame(p)
            assert report.tame and report.tame_rank == lam

    def test_small_suborders_can_lose_reducedness(self):
        # two minimal pairs with equal (empty) signatures inside the suborder
        sub = restrict(r_lambda(2), {"0,0", "0,1"})
        assert not is_reduced(sub)

    def test_closed_relation(self):
        assert_order(r_lambda(6))

    def test_smaller_templates_are_induced_suborders(self):
        # non-embeddability into the widest template therefore covers all
        # smaller widths
        big = r_lambda(6)
        for lam in range(7):
            small = r_lambda(lam)
            assert restrict(big, small.elements) == small


class TestInflate:
    def test_singleton_to_antichain(self):
        inflated = oracle_inflate(build_poset(["x"], []), {"x": 3})
        assert is_isomorphic(inflated, antichain(3))
        assert inflated.elements == ("x#0", "x#1", "x#2")

    def test_two_chain(self):
        base = build_poset(["a", "b"], [("a", "b")])
        inflated = oracle_inflate(base, {"a": 2, "b": 1})
        assert set(inflated.pairs()) == {("a#0", "b#0"), ("a#1", "b#0")}

    def test_copies_incomparable(self):
        inflated = oracle_inflate(chain(2), {"c0": 3, "c1": 2})
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert not inflated.less(f"c0#{i}", f"c0#{j}")

    def test_missing_multiplicities_default_to_one(self):
        inflated = oracle_inflate(chain(2), {})
        assert is_isomorphic(inflated, chain(2))

    def test_point_labels_parse_back(self):
        # the labels realize writes: two copies of (0, 0), one of the others
        ab_below_c = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        inflated = realize(ab_below_c).inflated
        assert inflated.elements == ("0,0#0", "0,0#1", "0,1#0", "1,1#0")
        for label in inflated.elements:
            assert "%d,%d" % oracle_point(label) in r_lambda(2)
        # the one point of an 11-antichain gets copies #0 .. #10
        copies = realize(antichain(11)).inflated.elements
        assert copies == tuple(f"0,0#{c}" for c in range(11))
        assert {oracle_point(label) for label in copies} == {(0, 0)}

    def test_oracle_point_reads_only_what_the_writers_emit(self):
        assert oracle_point("10,20") == (10, 20) and oracle_point("0,3#12") == (0, 3)
        # int() would take the rest; a leading zero would not print back
        bad = ["nope", "1,2,3", "1,", ",2", "1_0,2", " 1,2", "1,2 ", "+1,2", "-1,2"]
        bad += ["1,²", "١,٢", "01,2", "1,02", "00,1", "1,2\n", "1,inf"]
        bad += ["1,2#", "1,2#a", "1,2#٣", "1,2#+1", "1,2# 1", "1,2#01", "1,2#0#1", 12]
        for label in bad:
            with pytest.raises(pytest.fail.Exception, match="not a template label"):
                oracle_point(label)

    def test_reduction_commutes(self):
        for base in (chain(3), r_lambda(2), antichain(2)):
            mult = {x: 1 + (i % 3) for i, x in enumerate(base.elements)}
            inflated = oracle_inflate(base, mult)
            assert is_isomorphic(
                reduce(inflated).quotient, reduce(base).quotient
            )

    def test_preserves_tameness_both_ways(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                mult = {x: 1 + (i % 2) for i, x in enumerate(p.elements)}
                inflated = oracle_inflate(p, mult)
                assert (embeds_r22(p) is None) == (embeds_r22(inflated) is None)

    def test_down_masks_built_not_transposed(self):
        # realize of an inflated template inflates that template again
        base = r_lambda(6)
        mult = {x: 1 + (i * 7) % 4 for i, x in enumerate(base.elements) if i % 3}
        for expected in (oracle_inflate(base, mult), oracle_inflate(base, {})):
            inflated = realize(expected).inflated
            assert inflated == expected
            assert_order(inflated)

    @given(posets(max_size=5))
    @settings(max_examples=40)
    def test_projection_reflects_relations(self, p):
        mult = {x: 1 + (i % 3) for i, x in enumerate(p.elements)}
        inflated = oracle_inflate(p, mult)
        proj = {u: u.rpartition("#")[0] for u in inflated}
        for u in inflated.elements:
            for v in inflated.elements:
                if proj[u] == proj[v]:
                    assert not inflated.less(u, v)
                else:
                    assert inflated.less(u, v) == p.less(proj[u], proj[v])


class TestCummingsBlocks:
    def test_two(self):
        p = cummings_blocks(2)
        assert p.elements == ("0,1", "0,inf", "1,inf")
        assert p.pairs() == [("0,1", "1,inf")]

    def test_one(self):
        p = cummings_blocks(1)
        assert p.elements == ("0,inf",)
        assert p.num_relations == 0

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            cummings_blocks(0)

    def test_tame_small(self):
        for o in range(1, 6):
            assert is_tame(cummings_blocks(o)).tame

    def test_down_masks_built_not_transposed(self):
        for o in range(1, 9):
            p = cummings_blocks(o)
            assert_order(p)

    def test_definition_by_brute_force(self):
        # (a2, b2) < (a, b) iff b2 <= a, and b2 = inf is never below anything;
        # None stands for inf, listed after every natural
        for o in range(1, 8):
            p = cummings_blocks(o)
            items = [(a, b) for a in range(o) for b in [*range(a + 1, o), None]]
            assert p.elements == tuple(
                f"{a},{'inf' if b is None else b}" for a, b in items
            )
            for i, (a, _b) in enumerate(items):
                for j, (_a2, b2) in enumerate(items):
                    below = b2 is not None and b2 <= a
                    assert bool(p.up_masks[j] >> i & 1) == below
                    assert bool(p.down_masks[i] >> j & 1) == below

    def test_rule_evaluation(self):
        p = cummings_blocks(4)
        assert_order(p)
        for x in p.elements:
            a, b = x.split(",")
            for y in p.elements:
                a2, b2 = y.split(",")
                expected = b != "inf" and int(b) <= int(a2)
                assert p.less(x, y) == expected


class TestRealize:
    def test_antichain(self):
        p = antichain(3)
        result = realize(p)
        assert result.w == ("0,0#0", "0,0#1", "0,0#2")
        assert verify_embedding(result.iso)
        assert is_isomorphic(result.iso.source, p)

    def test_s22(self):
        p = pattern_s_n2(2)
        result = realize(p)
        assert len(result.w) == 4
        assert all(label.endswith("#0") for label in result.w)
        assert is_isomorphic(restrict(result.inflated, result.w), p)

    def test_not_tame(self):
        with pytest.raises(NotTame) as exc:
            realize(pattern_r22())
        assert exc.value.witness == ("x0", "x1", "y0", "y1")

    def test_corrupt_coordinate_is_caught(self, corrupt_coordinates):
        p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        with pytest.raises(InternalInvariantViolation):
            realize(p)

    def test_empty(self):
        p = build_poset([], [])
        result = realize(p)
        assert result.w == () and result.iso.mapping == {}

    def test_exhaustive_small_round_trip(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    continue
                result = realize(p)
                assert verify_embedding(result.iso)
                sub = restrict(result.inflated, result.w)
                assert sub == result.iso.source
                assert len(sub) == len(p)
                assert is_isomorphic(sub, p)

    @given(posets(max_size=9))
    @settings(max_examples=60)
    def test_generated_round_trip(self, p):
        if embeds_r22(p) is not None:
            return
        result = realize(p)
        assert verify_embedding(result.iso)
        assert is_isomorphic(restrict(result.inflated, result.w), p)

    def test_source_masks_validate(self):
        """realize sets the source's down masks from the coordinates, checked here."""
        inputs = [p for n in range(6) for p in all_labeled_posets(n)]
        inputs += [r_lambda(66), chain(90)]
        for p in inputs:
            if embeds_r22(p) is None:
                assert_order(realize(p).iso.source)

    def test_chain_70_round_trip(self):
        p = chain(70)
        result = realize(p)
        assert len(result.inflated) == 70 * 71 // 2
        assert result.iso.mapping == {f"{i},{i}#0": f"c{i}" for i in range(70)}
        sub = restrict(result.inflated, result.w)
        assert sub == result.iso.source and verify_embedding(result.iso)
        m = result.iso.mapping
        assert {(m[a], m[b]) for a, b in sub.pairs()} == set(p.pairs())

    def test_multiplicities_match_class_sizes(self):
        p = build_poset(
            ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]
        )
        result = realize(p)
        # two classes of size two: the quotient is a 2-chain inside width 2
        assert tame_rank(p) == 2
        assert sorted(result.w) == ["0,0#0", "0,0#1", "1,1#0", "1,1#1"]
