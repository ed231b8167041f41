import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from tameorders import (
    BudgetExceeded,
    Embedding,
    InternalInvariantViolation,
    InvalidParameter,
    Poset,
    UnknownElement,
    all_labeled_posets,
    build_poset,
    embeds_r22,
    find_embedding,
    format_poset,
    is_isomorphic,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    verify_embedding,
)

from tameorders import embedding, enumeration
from tameorders.cli import main
from tameorders.embedding import _Budget, _embeds, _preserves_order, _target_tables
from tameorders.poset import at_set_bits

from conftest import (
    antichain,
    chain,
    interval_orders,
    one_relation_changes,
    oracle_least_embedding,
    oracle_least_witness,
    oracle_longest_chain,
    oracle_quartet_r22,
    oracle_sorted_coordinates,
    posets,
)


def witness_copy(p, witness):
    """The pattern copy that an embeds_r22 witness (x, x2, y, y2) names."""
    x, x2, y, y2 = witness
    return Embedding(pattern_r22(), p, {"x0": x, "x1": x2, "y0": y, "y1": y2})


class TestPatterns:
    def test_r22_relations(self):
        p = pattern_r22()
        assert set(p.pairs()) == {("x0", "y0"), ("x1", "y1")}

    def test_r22_down_set(self):
        p = pattern_r22()
        assert set(at_set_bits(p.elements, p.down_masks[p.index("y0")])) == {"x0"}

    def test_r22_rank(self):
        assert oracle_longest_chain(pattern_r22()) == 2

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
        assert emb is not None and verify_embedding(emb)
        assert emb.mapping == {"c0": "c0", "c1": "c1"}

    def test_s22_into_r3(self):
        emb = find_embedding(pattern_s_n2(2), r_lambda(3))
        assert emb is not None and verify_embedding(emb)
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
            assert emb is not None and verify_embedding(emb)

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


def pairwise_embedding(source, target, image) -> bool:
    """Injective, and x < y exactly when image[x] < image[y], pair by pair."""
    if len(set(image)) != len(image):
        return False
    return all(
        bool(source.up_masks[i] >> j & 1) == bool(target.up_masks[image[i]] >> image[j] & 1)
        for i in range(len(source))
        for j in range(len(source))
        if i != j
    )


class TestExistenceCheck:
    """``_embeds``: the decide pass alone, its image verified before True."""

    def test_agrees_with_find_embedding(self):
        # into the templates of the rank, one narrower, and of width n, from
        # any leading order: the first elements, and for a non-tame poset its
        # witness (as the sweep places it) and the witness reversed; the
        # search stays complete, so no leading order moves the answer
        for n in range(5):
            for p in all_labeled_posets(n):
                rank = len(set(p.up_masks))
                hints = [(), range(min(4, n))]
                witness = embeds_r22(p)
                if witness is not None:
                    first = [p.index(x) for x in witness]
                    hints += [first, first[::-1]]
                for lam in {rank, max(rank - 1, 0), n}:
                    t = r_lambda(lam)
                    expected = find_embedding(p, t) is not None
                    for hint in hints:
                        assert _embeds(p, t, _Budget(None), hint) == expected, (p.pairs(), lam)

    @staticmethod
    def any_relation_tables(target):
        # target tables under which any two distinct targets stand in any
        # relation: the search then takes the first injective map it tries
        n = len(target)
        full = (1 << n) - 1
        others = tuple(full & ~(1 << t) for t in range(n))
        return others, others, others, [full] * (n + 1), [full] * (n + 1)

    def test_corrupted_image_is_caught(self, monkeypatch):
        # the search maps the antichain onto the chain's first two points;
        # its image is checked before the answer counts
        monkeypatch.setattr(embedding, "_target_tables", self.any_relation_tables)
        with pytest.raises(InternalInvariantViolation):
            _embeds(antichain(2), chain(3), _Budget(None))
        with pytest.raises(InternalInvariantViolation):
            find_embedding(antichain(2), chain(3))

    def test_corrupted_witness_is_caught(self, monkeypatch):
        # the decide pass is sound; find_embedding's witness pass is not, and
        # maps the chain onto the incomparable points 0,0 and 0,1
        real, lookups = embedding._target_tables, []

        def second_corrupted(target):
            lookups.append(target)
            return (real if len(lookups) == 1 else self.any_relation_tables)(target)

        monkeypatch.setattr(embedding, "_target_tables", second_corrupted)
        with pytest.raises(InternalInvariantViolation):
            find_embedding(chain(2), r_lambda(2))
        assert len(lookups) == 2

    def test_budget_counts_one_pass(self, monkeypatch):
        # the sweep's checks fit the nodes of the decide pass alone, where
        # find_embedding adds its witness pass on top
        p = pattern_s_n2(3)
        real, spent = embedding._Budget.spend, []

        def counted(self):
            spent.append(1)
            return real(self)

        monkeypatch.setattr(embedding._Budget, "spend", counted)
        assert _embeds(p, r_lambda(4), _Budget(None))
        monkeypatch.undo()
        nodes = len(spent)
        assert enumeration.check_poset(p, budget=nodes) == (True, [])
        with pytest.raises(BudgetExceeded):
            enumeration.check_poset(p, budget=nodes - 1)
        with pytest.raises(BudgetExceeded):
            find_embedding(p, r_lambda(4), budget=nodes)
        assert find_embedding(p, r_lambda(4)) is not None

    def test_deep_search_needs_no_recursion(self):
        # one search level per element, past the interpreter's recursion limit
        assert is_isomorphic(chain(1100), chain(1100))


class TestPreservesOrder:
    """The index-level test shared by the searches and ``verify_embedding``."""

    def test_every_map_between_small_posets(self):
        sources = [p for n in range(4) for p in all_labeled_posets(n)]
        targets = list(all_labeled_posets(3)) + [r_lambda(2)]
        found = 0
        for p, t in itertools.product(sources, targets):
            for image in itertools.product(range(len(t)), repeat=len(p)):
                expected = pairwise_embedding(p, t, image)
                assert _preserves_order(p, t, image) == expected, (p.pairs(), t.pairs(), image)
                if expected:
                    found += 1
                    mapping = {p.elements[i]: t.elements[x] for i, x in enumerate(image)}
                    assert verify_embedding(Embedding(p, t, mapping))
        assert found > 0

    def test_named_failures(self):
        two_chain, t = chain(2), chain(3)
        assert _preserves_order(two_chain, t, [0, 2])
        assert not _preserves_order(two_chain, t, [1, 1])  # not injective
        assert not _preserves_order(two_chain, antichain(2), [0, 1])  # drops c0 < c1
        assert not _preserves_order(antichain(2), t, [0, 1])  # adds a0 < a1


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


def relabeled(p, rnd):
    """A copy of p under fresh labels, listed in a shuffled order."""
    name = {x: f"r{i}" for i, x in enumerate(rnd.sample(p.elements, len(p)))}
    elements = [name[x] for x in p.elements]
    rnd.shuffle(elements)
    return build_poset(elements, [(name[x], name[y]) for x, y in p.pairs()])


class TestIsomorphismByCoordinates:
    """Tame orders are isomorphic exactly when their sorted (m, M) lists agree.

    On a tame order x < y iff M(x) < m(y), so the list fixes the order up to
    isomorphism, and the coordinates are read off the order alone.
    """

    @given(interval_orders(max_size=40), interval_orders(max_size=40))
    @settings(max_examples=40)
    def test_drawn_pairs(self, drawn_p, drawn_q):
        (p, _), (q, _) = drawn_p, drawn_q
        same = oracle_sorted_coordinates(p) == oracle_sorted_coordinates(q)
        assert is_isomorphic(p, q) == same

    @given(interval_orders(max_size=40), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_relabeling_and_one_relation_changes(self, drawn, rnd):
        p, _ = drawn
        coordinates = oracle_sorted_coordinates(p)
        copy = relabeled(p, rnd)
        assert oracle_sorted_coordinates(copy) == coordinates
        assert is_isomorphic(p, copy) and is_isomorphic(copy, p)
        # the copy lists its elements shuffled, so its changes come in random order
        changes = (q for q in one_relation_changes(copy) if oracle_sorted_coordinates(q))
        for q in itertools.islice(changes, 3):
            assert oracle_sorted_coordinates(q) != coordinates
            assert not is_isomorphic(p, q)
            # with a second change back to p's relation count, the search
            # decides, and its answer is the coordinates' comparison
            for r in itertools.islice(
                (r for r in one_relation_changes(q) if r.num_relations == p.num_relations), 3
            ):
                tame_r = oracle_sorted_coordinates(r)
                if tame_r is not None:
                    assert is_isomorphic(p, r) == (tame_r == coordinates)


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
        assert verify_embedding(witness_copy(p, witness))

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
                    assert fast == oracle_quartet_r22(p)
                if fast is not None:
                    assert verify_embedding(witness_copy(p, fast))

    def test_least_witness_oracle_is_the_quartet_scan(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                assert oracle_least_witness(p) == oracle_quartet_r22(p)

    @given(interval_orders(max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_nontame_witness_is_the_oracle_quadruple(self, drawn, rnd):
        # an interval order with a disjoint 2+2 mixed into its element order,
        # and every one-relation change of it that is no longer tame: the
        # least witness is the first quadruple of the oracle's scan
        p, _ = drawn
        elements = [*p.elements, "s0", "s1", "t0", "t1"]
        rnd.shuffle(elements)
        nontame = [build_poset(elements, [*p.pairs(), ("s0", "t0"), ("s1", "t1")])]
        nontame += [q for q in one_relation_changes(p) if oracle_least_witness(q) is not None]
        for q in nontame:
            witness = oracle_least_witness(q)
            assert witness is not None and embeds_r22(q) == witness, q.pairs()


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


def test_embedding_json_shape(capsys, tmp_path):
    # the CLI writes the one embedding document, from the record's fields
    path = tmp_path / "c2.poset"
    path.write_text(format_poset(chain(2)))
    assert main(["embed", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "source": ["c0", "c1"],
        "target": ["0,0", "0,1", "1,1"],
        "map": {"c0": "0,0", "c1": "1,1"},
    }
