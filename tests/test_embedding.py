import pytest
from hypothesis import given, settings

from tameorders import (
    BudgetExceeded,
    Embedding,
    InvalidParameter,
    Poset,
    UnknownElement,
    all_labeled_posets,
    build_poset,
    down_set,
    embeds_r22,
    find_embedding,
    is_isomorphic,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    verify_embedding,
    well_founded_rank,
    witness_embedding,
)

from tameorders.embedding import _target_tables

from conftest import antichain, chain, oracle_least_embedding, oracle_quartet_r22, posets


class TestPatterns:
    def test_r22_relations(self):
        p = pattern_r22()
        assert set(p.pairs()) == {("x0", "y0"), ("x1", "y1")}

    def test_r22_down_set(self):
        assert down_set(pattern_r22(), "y0") == {"x0"}

    def test_r22_rank(self):
        assert well_founded_rank(pattern_r22()) == 2

    def test_s_n2_one_is_two_chain(self):
        p = pattern_s_n2(1)
        assert p.pairs() == [("x0", "y0")]

    def test_s_n2_two_relations(self):
        p = pattern_s_n2(2)
        assert set(p.pairs()) == {("x0", "y0"), ("x1", "y0"), ("x1", "y1")}

    def test_s_n2_three_relation_count(self):
        assert pattern_s_n2(3).num_relations == 6

    def test_s_n2_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            pattern_s_n2(0)


class TestFindEmbedding:
    def test_r22_never_into_templates(self):
        for lam in range(9):
            assert find_embedding(pattern_r22(), r_lambda(lam)) is None

    def test_two_chain_into_three_chain_least(self):
        emb = find_embedding(chain(2), chain(3))
        assert emb is not None and emb.verified
        assert emb.mapping == {"c0": "c0", "c1": "c1"}

    def test_s22_into_r3(self):
        emb = find_embedding(pattern_s_n2(2), r_lambda(3))
        assert emb is not None and emb.verified
        # least map under element index order, recomputed by the brute oracle
        assert emb.mapping == {"x0": "0,1", "x1": "0,0", "y0": "2,2", "y1": "1,2"}

    def test_truncations_do_embed(self):
        # finite truncations are not forbidden; only the infinite pattern is
        assert find_embedding(pattern_s_n2(2), r_lambda(3)) is not None
        for lam in range(4, 9):
            for n in range(1, 5):
                emb = find_embedding(pattern_s_n2(n), r_lambda(lam))
                if emb is not None:
                    assert verify_embedding(emb)

    def test_identity_always_present(self):
        for p in (chain(3), antichain(3), pattern_r22(), pattern_s_n2(2)):
            emb = find_embedding(p, p)
            assert emb is not None and emb.verified

    def test_empty_pattern(self):
        emb = find_embedding(build_poset([], []), chain(2))
        assert emb is not None and emb.mapping == {}

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            find_embedding(pattern_s_n2(2), r_lambda(3), budget=1)

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameter):
            find_embedding(chain(1), chain(1), budget=-1)
        assert find_embedding(build_poset([], []), chain(1), budget=0) is not None
        with pytest.raises(BudgetExceeded):
            find_embedding(chain(1), chain(1), budget=0)

    def test_refutation_is_pruned(self):
        # a dead end is seen when a later domain empties, not when it is
        # reached: a few hundred nodes where trying every target took ~49k
        assert find_embedding(pattern_r22(), r_lambda(8), budget=1000) is None

    def test_same_map_as_least_oracle(self):
        small = [p for n in range(4) for p in all_labeled_posets(n)]
        templates = [r_lambda(lam) for lam in range(5)]
        cases = [(p, t) for p in small for t in templates + list(all_labeled_posets(4))]
        cases += [(p, r_lambda(lam)) for p in all_labeled_posets(4) for lam in range(4)]
        for p, t in cases:
            emb = find_embedding(p, t)
            found = None if emb is None else emb.mapping
            assert found == oracle_least_embedding(p, t), (p.pairs(), t.pairs())

    def test_leading_order_changes_no_answer(self):
        # the decide pass may start from any elements (check_poset starts a
        # non-tame poset at its witness); the search stays complete, so the
        # verdict and the returned map never move
        templates = [r_lambda(lam) for lam in range(5)]
        for p in (p for n in range(5) for p in all_labeled_posets(n)):
            hints = [range(min(4, len(p)))]
            witness = embeds_r22(p)
            if witness is not None:
                first = [p.index(x) for x in witness]
                hints += [first, first[::-1]]
            for t in templates:
                plain = find_embedding(p, t)
                expected = None if plain is None else plain.mapping
                for hint in hints:
                    emb = find_embedding(p, t, _first=hint)
                    found = None if emb is None else emb.mapping
                    assert found == expected, (p.pairs(), len(t), list(hint))

    @given(posets(max_size=5))
    @settings(max_examples=50)
    def test_against_brute_oracle(self, p):
        emb = find_embedding(pattern_r22(), p)
        found = None if emb is None else emb.mapping
        assert found == oracle_least_embedding(pattern_r22(), p)

    @given(posets(max_size=4), posets(max_size=6))
    @settings(max_examples=50)
    def test_composition(self, p, q):
        inner = find_embedding(p, q)
        if inner is None:
            return
        outer = find_embedding(q, q)
        composed = {x: outer.mapping[y] for x, y in inner.mapping.items()}
        assert verify_embedding(Embedding(p, q, composed))


class TestTargetTablesCache:
    """The cached target tables change no answer, cold or warm."""

    @staticmethod
    def mappings(targets):
        out = []
        for n in range(5):
            for p in all_labeled_posets(n):
                for target in targets:
                    emb = find_embedding(p, target)
                    out.append(None if emb is None else emb.mapping)
        return out

    def test_cold_and_warm_agree(self):
        templates = [r_lambda(lam) for lam in range(5)]
        _target_tables.cache_clear()
        cold = self.mappings(templates)
        assert _target_tables.cache_info().misses <= len(templates)
        warm = self.mappings(templates)
        r_lambda.cache_clear()
        rebuilt = self.mappings([r_lambda(lam) for lam in range(5)])
        copies = [Poset(t.elements, t.up_masks) for t in templates]
        assert all(c == t and c is not t for c, t in zip(copies, templates))
        _target_tables.cache_clear()
        cold_copies = self.mappings(copies)
        assert cold == warm == rebuilt == cold_copies
        assert sum(m is not None for m in cold) > 0


class TestIsIsomorphic:
    def test_against_permutation_oracle_on_four_points(self):
        # all 219 * 219 ordered pairs; the oracle runs where the relation
        # counts agree, the only pairs that reach the search
        family = list(all_labeled_posets(4))
        consulted = 0
        for p in family:
            for q in family:
                expected = False
                if p.num_relations == q.num_relations:
                    consulted += 1
                    expected = (
                        len(p) == len(q) and oracle_least_embedding(p, q) is not None
                    )
                assert is_isomorphic(p, q) == expected, (p.pairs(), q.pairs())
        assert len(family) ** 2 == 47961
        assert consulted == 9365


class TestVerifyEmbedding:
    def test_identity(self):
        p = chain(3)
        assert verify_embedding(Embedding(p, p, {x: x for x in p}))

    def test_relation_not_preserved(self):
        emb = Embedding(chain(2), antichain(2), {"c0": "a0", "c1": "a1"})
        assert not verify_embedding(emb)

    def test_incomparability_not_preserved(self):
        emb = Embedding(antichain(2), chain(2), {"a0": "c0", "a1": "c1"})
        assert not verify_embedding(emb)

    def test_not_injective(self):
        p = antichain(2)
        assert not verify_embedding(Embedding(p, p, {"a0": "a0", "a1": "a0"}))

    def test_foreign_elements(self):
        p = chain(2)
        with pytest.raises(UnknownElement):
            verify_embedding(Embedding(p, p, {"c0": "c0", "zz": "c1"}))
        with pytest.raises(UnknownElement):
            verify_embedding(Embedding(p, p, {"c0": "c0"}))

    def test_known_good_alternate_map_for_s22(self):
        mapping = {"x1": "0,0", "x0": "0,1", "y1": "1,2", "y0": "2,2"}
        assert verify_embedding(Embedding(pattern_s_n2(2), r_lambda(3), mapping))


class TestEmbedsR22:
    def test_pattern_itself(self):
        assert embeds_r22(pattern_r22()) == ("x0", "x1", "y0", "y1")

    def test_template_is_free(self):
        assert embeds_r22(r_lambda(4)) is None

    def test_five_element_example_contains_pattern(self):
        # closure adds e < c; the two chains b < d and e < a are disjoint,
        # which the quartet oracle confirms
        p = build_poset(list("abcde"), [("a", "c"), ("b", "c"), ("b", "d"), ("e", "a")])
        assert oracle_quartet_r22(p) is not None
        witness = embeds_r22(p)
        assert witness == ("b", "e", "d", "a")
        assert verify_embedding(witness_embedding(p, witness))

    def test_witness_shape(self):
        p = build_poset(list("abcd"), [("a", "b"), ("c", "d")])
        x, x2, y, y2 = embeds_r22(p)
        assert p.less(x, y) and not p.less(x2, y)
        assert p.less(x2, y2) and not p.less(x, y2)

    def test_exhaustive_equivalence_small(self):
        pattern = pattern_r22()
        for n in range(6):
            for p in all_labeled_posets(n):
                fast = embeds_r22(p)
                search = find_embedding(pattern, p)
                assert (fast is None) == (search is None)
                if n <= 4:
                    assert (fast is None) == (oracle_quartet_r22(p) is None)
                if fast is not None:
                    assert verify_embedding(witness_embedding(p, fast))


class TestMonotoneNonEmbedding:
    def test_spot_checks(self):
        # chain(4) has no copy inside r_lambda(2); any superstructure of
        # chain(4) must keep failing
        assert find_embedding(chain(4), r_lambda(2)) is None
        bigger = build_poset(
            ["c0", "c1", "c2", "c3", "z"],
            [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("z", "c3")],
        )
        assert find_embedding(chain(4), bigger) is not None
        assert find_embedding(bigger, r_lambda(2)) is None


def test_embedding_json_shape():
    emb = find_embedding(chain(2), chain(3))
    obj = emb.to_json()
    assert obj == {
        "source": ["c0", "c1"],
        "target": ["c0", "c1", "c2"],
        "map": {"c0": "c0", "c1": "c1"},
    }
