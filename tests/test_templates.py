import pytest
from hypothesis import given, settings

from tameorders import (
    InternalInvariantViolation,
    InvalidMultiplicity,
    InvalidParameter,
    NotTame,
    UnknownElement,
    all_labeled_posets,
    build_poset,
    cummings_blocks,
    embeds_r22,
    inflate,
    is_isomorphic,
    is_reduced,
    is_tame,
    order_pair_label,
    parse_order_pair,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    realize,
    reduce,
    restrict,
    tame_rank,
    verify_embedding,
)

from conftest import antichain, chain, posets


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

    def test_pair_rule_all_pairs(self):
        for lam in range(7):
            p = r_lambda(lam)
            for x in p.elements:
                a, b = parse_order_pair(x)
                assert 0 <= a <= b < lam
                for y in p.elements:
                    a2, b2 = parse_order_pair(y)
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
        r_lambda(6).validate()

    def test_smaller_templates_are_induced_suborders(self):
        # non-embeddability into the widest template therefore covers all
        # smaller widths
        big = r_lambda(6)
        for lam in range(7):
            small = r_lambda(lam)
            assert restrict(big, small.elements) == small

    def test_label_round_trip(self):
        assert parse_order_pair(order_pair_label(3, 7)) == (3, 7)

    def test_pair_type(self):
        from tameorders import FormatError, OrderPair

        pair = OrderPair.parse("2,5")
        assert pair.alpha == 2 and pair.beta == 5 and pair.label == "2,5"
        with pytest.raises(FormatError):
            OrderPair.parse("nope")


class TestInflate:
    def test_singleton_to_antichain(self):
        inflated, proj = inflate(build_poset(["x"], []), {"x": 3})
        assert is_isomorphic(inflated, antichain(3))
        assert proj == {"x#0": "x", "x#1": "x", "x#2": "x"}

    def test_two_chain(self):
        base = build_poset(["a", "b"], [("a", "b")])
        inflated, _ = inflate(base, {"a": 2, "b": 1})
        assert set(inflated.pairs()) == {("a#0", "b#0"), ("a#1", "b#0")}

    def test_copies_incomparable(self):
        inflated, _ = inflate(chain(2), {"c0": 3, "c1": 2})
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert not inflated.less(f"c0#{i}", f"c0#{j}")

    def test_missing_multiplicities_default_to_one(self):
        inflated, _ = inflate(chain(2), {})
        assert is_isomorphic(inflated, chain(2))

    def test_zero_multiplicity(self):
        with pytest.raises(InvalidMultiplicity):
            inflate(chain(2), {"c0": 0})

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            inflate(chain(2), {"zz": 2})

    def test_point_labels_parse_back(self):
        from tameorders import InflatedPoint

        inflated, proj = inflate(r_lambda(2), {"0,1": 2})
        for label in inflated.elements:
            point = InflatedPoint.parse(label)
            assert point.base == proj[label]
            assert point.label == label

    def test_reduction_commutes(self):
        for base in (chain(3), r_lambda(2), antichain(2)):
            mult = {x: 1 + (i % 3) for i, x in enumerate(base.elements)}
            inflated, _ = inflate(base, mult)
            assert is_isomorphic(
                reduce(inflated).quotient, reduce(base).quotient
            )

    def test_preserves_tameness_both_ways(self):
        for n in range(1, 5):
            for p in all_labeled_posets(n):
                mult = {x: 1 + (i % 2) for i, x in enumerate(p.elements)}
                inflated, _ = inflate(p, mult)
                assert (embeds_r22(p) is None) == (embeds_r22(inflated) is None)

    @given(posets(max_size=5))
    @settings(max_examples=40)
    def test_projection_reflects_relations(self, p):
        mult = {x: 1 + (i % 3) for i, x in enumerate(p.elements)}
        inflated, proj = inflate(p, mult)
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

    def test_rule_evaluation(self):
        p = cummings_blocks(4)
        p.validate()
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
        assert result.iso.verified
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
                assert result.iso.verified and verify_embedding(result.iso)
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
