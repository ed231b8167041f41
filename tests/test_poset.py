import random

import pytest
from hypothesis import given

from tameorders import (
    CycleDetected,
    DuplicateElement,
    Poset,
    UnknownElement,
    build_poset,
    cu_set,
    down_set,
    format_poset,
    is_isomorphic,
    parse_poset,
    pattern_r22,
    pattern_s_n2,
    poset_json,
    r_lambda,
    reduce,
    restrict,
    up_set,
    well_founded_rank,
)
from tameorders.poset import _dense

from conftest import (
    antichain,
    chain,
    oracle_closure,
    oracle_longest_chain,
    posets,
    random_generating_set,
)


class TestBuildPoset:
    def test_closure_of_three_chain(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert set(p.pairs()) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset(list("abc"), [("a", "b"), ("b", "c"), ("c", "a")])

    def test_r22_from_pairs(self):
        p = build_poset(["x0", "x1", "y0", "y1"], [("x0", "y0"), ("x1", "y1")])
        assert p == pattern_r22()

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            build_poset(["a", "a"], [])

    def test_empty(self):
        p = build_poset([], [])
        assert len(p) == 0
        assert well_founded_rank(p) == 0

    def test_input_need_not_be_closed(self):
        p = build_poset(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        assert p.less("a", "d")
        p.validate()


class TestClosureOracle:
    """build_poset against a DFS over the raw pairs that shares none of its code."""

    def test_random_generating_sets(self):
        rng = random.Random(20141)
        for _ in range(150):
            n = rng.randint(0, 40)
            edges = rng.randint(0, 2 * n) if n > 1 else 0
            labels, pairs = random_generating_set(rng, n, edges)
            p = build_poset(labels, pairs)
            assert set(p.pairs()) == oracle_closure(labels, pairs)

    def test_random_cycles_name_least_index_element(self):
        rng = random.Random(20142)
        cyclic = 0
        for _ in range(150):
            n = rng.randint(2, 40)
            labels, pairs = random_generating_set(rng, n, 2 * n, cyclic=True)
            related = oracle_closure(labels, pairs)
            on_cycle = [x for x in labels if (x, x) in related]
            if not on_cycle:
                assert set(build_poset(labels, pairs).pairs()) == related
                continue
            cyclic += 1
            with pytest.raises(CycleDetected) as info:
                build_poset(labels, pairs)
            assert str(info.value) == f"closure relates {on_cycle[0]!r} to itself"
        assert cyclic >= 50

    def test_self_loop(self):
        with pytest.raises(CycleDetected) as info:
            parse_poset("elements: z a\nrel: z a\nrel: a a\n")
        assert str(info.value) == "closure relates 'a' to itself"

    def test_cycle_named_by_its_least_element(self):
        # d (index 0) lies below the cycle and u (index 1) above it
        labels = ["d", "u", "c1", "c2"]
        pairs = [("u", "c1"), ("c1", "c2"), ("c2", "c1"), ("c2", "d")]
        assert [x for x in labels if (x, x) in oracle_closure(labels, pairs)] == [
            "c1",
            "c2",
        ]
        with pytest.raises(CycleDetected) as info:
            build_poset(labels, pairs)
        assert str(info.value) == "closure relates 'c1' to itself"


class TestSetQueries:
    def test_down_set_chain(self):
        p = chain(3)
        assert down_set(p, "c2") == {"c0", "c1"}

    def test_down_set_r22(self):
        assert down_set(pattern_r22(), "y0") == {"x0"}

    def test_down_set_antichain(self):
        p = antichain(3)
        assert all(down_set(p, x) == frozenset() for x in p)

    def test_up_set_chain(self):
        p = chain(3)
        assert up_set(p, "c0") == {"c1", "c2"}

    def test_up_set_r22(self):
        assert up_set(pattern_r22(), "x1") == {"y1"}

    def test_up_set_s22_truncation(self):
        assert up_set(pattern_s_n2(2), "x1") == {"y0", "y1"}

    def test_cu_set_chain_top(self):
        p = chain(3)
        assert cu_set(p, "c2") == {"c0", "c1", "c2"}

    def test_cu_set_s22(self):
        assert cu_set(pattern_s_n2(2), "x1") == {"x0", "x1"}

    def test_cu_set_singleton(self):
        p = build_poset(["x"], [])
        assert cu_set(p, "x") == {"x"}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            down_set(chain(2), "zz")

    @given(posets())
    def test_duality_and_partition(self, p):
        for x in p:
            for y in p:
                assert (y in down_set(p, x)) == (x in up_set(p, y))
        full = frozenset(p.elements)
        for x in p:
            assert cu_set(p, x) | up_set(p, x) == full
            assert not cu_set(p, x) & up_set(p, x)


class TestRestrict:
    def test_r22_to_two_chain(self):
        sub = restrict(pattern_r22(), {"x0", "y0"})
        assert is_isomorphic(sub, chain(2))

    def test_empty_restriction(self):
        assert len(restrict(chain(3), set())) == 0

    def test_r3_triple(self):
        sub = restrict(r_lambda(3), {"0,0", "0,1", "1,1"})
        assert sub.pairs() == [("0,0", "1,1")]

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            restrict(chain(2), {"nope"})

    @given(posets())
    def test_full_restriction_is_identity(self, p):
        assert restrict(p, p.elements) == p

    @given(posets(max_size=6))
    def test_induced_relations_exact(self, p):
        keep = p.elements[::2]
        sub = restrict(p, keep)
        for x in keep:
            for y in keep:
                if x != y:
                    assert sub.less(x, y) == p.less(x, y)

    @given(posets(max_size=6))
    def test_rank_monotone(self, p):
        sub = restrict(p, p.elements[1:])
        assert well_founded_rank(sub) <= well_founded_rank(p)


class TestRank:
    def test_chain(self):
        assert well_founded_rank(chain(3)) == 3

    def test_antichain(self):
        assert well_founded_rank(antichain(5)) == 1

    def test_s22(self):
        assert well_founded_rank(pattern_s_n2(2)) == 2

    @given(posets())
    def test_matches_longest_chain_oracle(self, p):
        assert well_founded_rank(p) == oracle_longest_chain(p)


class TestIsomorphism:
    def test_relabeled_chains(self):
        p = build_poset(list("abc"), [("a", "b"), ("b", "c")])
        q = build_poset(list("xyz"), [("x", "y"), ("y", "z")])
        assert is_isomorphic(p, q)

    def test_chain_vs_antichain(self):
        assert not is_isomorphic(chain(2), antichain(2))

    def test_r22_vs_s22(self):
        assert not is_isomorphic(pattern_r22(), pattern_s_n2(2))

    def test_no_size_limit(self):
        # 36 elements: no element count is refused
        assert is_isomorphic(r_lambda(8), r_lambda(8))

    def test_equivalence_relation_on_enumerated_family(self):
        from tameorders import all_labeled_posets

        family = list(all_labeled_posets(3))
        iso = [
            [is_isomorphic(p, q) for q in family] for p in family
        ]
        for i, p in enumerate(family):
            assert iso[i][i]
            for j in range(len(family)):
                assert iso[i][j] == iso[j][i]
                for k in range(len(family)):
                    if iso[i][j] and iso[j][k]:
                        assert iso[i][k]

    def test_same_invariants_different_structure(self):
        # 2+2 vs 3+1 as unions of chains: equal sizes, different relations
        p = build_poset(list("abcd"), [("a", "b"), ("c", "d")])
        q = build_poset(list("wxyz"), [("w", "x"), ("x", "y")])
        assert not is_isomorphic(p, q)


class TestValidate:
    @given(posets())
    def test_generated_posets_validate(self, p):
        p.validate()

    def test_down_masks_must_be_the_transpose(self):
        p = build_poset(list("abc"), [("a", "b"), ("b", "c")])
        assert p.down_masks == (0, 0b001, 0b011)
        for down in [(0, 0b001, 0b001), (0b100, 0b001, 0b011), (0, 0b001)]:
            forged = Poset._trusted(p.elements, p.up_masks, down, dict(p._index))
            with pytest.raises(ValueError):
                forged.validate()

    def test_non_transitive_wider_than_a_word(self):
        n = 70
        labels = [f"e{i}" for i in range(n)]
        # a chain missing e0 < e69: dense rows, read through their bit strings
        chain_up = [((1 << n) - 1) & ~((2 << i) - 1) for i in range(n)]
        chain_up[0] &= ~(1 << 69)
        # e0 < e1 < e2 only: sparse rows, read bit by bit
        sparse_up = [0b10, 0b100] + [0] * (n - 2)
        for up, message in [(chain_up, "'e0' < 'e1' < 'e69'"), (sparse_up, "'e0' < 'e1' < 'e2'")]:
            p = Poset(labels, up)
            with pytest.raises(ValueError, match=f"not transitive at {message}"):
                p.validate()


def oracle_masks(labels, above, below):
    """Up and down masks, one bit per related pair, over ``labels`` in order.

    ``above[x]`` and ``below[x]`` are the label sets strictly above and below x.
    """
    index = {x: i for i, x in enumerate(labels)}

    def mask(related):
        return sum(1 << index[y] for y in related if y in index)

    return tuple(mask(above[x]) for x in labels), tuple(mask(below[x]) for x in labels)


def graph_order(rng, n, prob):
    """Random graph order: each pair of a hidden linear extension kept with ``prob``."""
    labels = [f"v{i}" for i in range(n)]
    extension = labels[:]
    rng.shuffle(extension)
    pairs = [
        (extension[i], extension[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < prob
    ]
    rng.shuffle(pairs)
    above = {x: set() for x in labels}
    below = {x: set() for x in labels}
    for x, y in oracle_closure(labels, pairs):
        above[x].add(y)
        below[y].add(x)
    return labels, pairs, above, below


def inflated_chain(levels, copies):
    """A chain of ``levels`` antichains of ``copies`` elements, from cover pairs."""
    layer = [[f"c{k}#{c}" for c in range(copies)] for k in range(levels)]
    labels = [layer[k][c] for c in range(copies) for k in range(levels)]
    pairs = [(a, b) for k in range(levels - 1) for a in layer[k] for b in layer[k + 1]]
    above, below = {}, {}
    for k in range(levels):
        higher = frozenset(y for rest in layer[k + 1 :] for y in rest)
        lower = frozenset(y for rest in layer[:k] for y in rest)
        for x in layer[k]:
            above[x], below[x] = higher, lower
    return labels, pairs, above, below


@pytest.fixture(scope="module")
def kernel_cases():
    """Orders on both sides of restrict's kernel switch (width 64, density 1/8)."""
    rng = random.Random(6)
    cases = {
        "dense100": graph_order(rng, 100, 0.5),
        "dense300": graph_order(rng, 300, 0.5),
        "sparse400": graph_order(rng, 400, 2 / 400),
        "sparse1500": graph_order(rng, 1500, 2 / 1500),
        "inflated_chain50x30": inflated_chain(50, 30),
    }
    for n in (63, 64, 65):
        cases[f"width{n}"] = graph_order(rng, n, 0.5)
    return cases


class TestMaskKernels:
    """build_poset, restrict and reduce against masks set bit by bit."""

    def assert_masks(self, q, labels, above, below):
        assert q.elements == tuple(labels)
        assert (q.up_masks, q.down_masks) == oracle_masks(labels, above, below)
        q.validate()

    def test_build_poset(self, kernel_cases):
        for labels, pairs, above, below in kernel_cases.values():
            self.assert_masks(build_poset(labels, pairs), labels, above, below)

    def test_restrict(self, kernel_cases):
        rng = random.Random(7)
        for labels, pairs, above, below in kernel_cases.values():
            p = build_poset(labels, pairs)
            subsets = [
                labels[::2],
                rng.sample(labels, len(labels) * 9 // 10),
                [],
                [labels[-1]],
                rng.sample(labels, 2),
            ]
            for subset in map(set, subsets):
                kept = [x for x in labels if x in subset]
                self.assert_masks(restrict(p, subset), kept, above, below)

    def test_reduce(self, kernel_cases):
        for labels, pairs, above, below in kernel_cases.values():
            classes: dict = {}
            for x in labels:
                signature = (frozenset(below[x]), frozenset(above[x]))
                classes.setdefault(signature, []).append(x)
            reps = [members[0] for members in classes.values()]
            result = reduce(build_poset(labels, pairs))
            assert list(result.representatives) == reps
            assert result.class_of == {
                x: c for c, members in enumerate(classes.values()) for x in members
            }
            self.assert_masks(result.quotient, reps, above, below)

    def test_kernels_both_taken(self, kernel_cases):
        """The cases reach the bit-string kernel and stay off it at width 64."""
        wide = []
        for labels, pairs, _, _ in kernel_cases.values():
            n = len(labels)
            p = build_poset(labels, pairs)
            wide.append(n > 64 and any(8 * m.bit_count() > n for m in p.up_masks))
        assert any(wide) and not all(wide)

    def test_emitters(self, kernel_cases):
        """poset_json and format_poset list the closure in index order on both kernels."""
        dense = set()
        for name, (labels, pairs, above, _) in kernel_cases.items():
            if name.startswith("inflated"):
                continue
            index = {x: i for i, x in enumerate(labels)}
            want = [(x, y) for x in labels for y in sorted(above[x], key=index.get)]
            p = build_poset(labels, pairs)
            assert [tuple(pair) for pair in poset_json(p)["relations"]] == want
            lines = format_poset(p).splitlines()
            assert lines[1:] == [f"rel: {x} {y}" for x, y in want]
            dense.update(_dense(row, len(labels)) for row in p.up_masks)
        assert dense == {False, True}

    def test_pairs_and_label_sets(self, kernel_cases):
        """pairs and label_set read each row on both kernels, as the oracle sets say."""
        dense = set()
        for labels, pairs, above, below in kernel_cases.values():
            index = {x: i for i, x in enumerate(labels)}
            p = build_poset(labels, pairs)
            want = [(x, y) for x in labels for y in sorted(above[x], key=index.get)]
            assert p.pairs() == want
            for x, up, down in zip(labels, p.up_masks, p.down_masks):
                assert p.label_set(up) == above[x]
                assert p.label_set(down) == below[x]
            dense.update(_dense(row, len(labels)) for row in p.up_masks)
        assert dense == {False, True}
