import random

import pytest
from hypothesis import given

from tameorders import (
    CycleDetected,
    DuplicateElement,
    InvalidParameter,
    Poset,
    UnknownElement,
    build_poset,
    find_embedding,
    format_poset,
    is_isomorphic,
    parse_poset,
    pattern_r22,
    pattern_s_n2,
    poset_json,
    r_lambda,
    reduce,
    restrict,
)
from tameorders.embedding import _target_tables
from tameorders.poset import _compress_steps, _dense, at_set_bits

from conftest import (
    antichain,
    assert_order,
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
        assert p != pattern_r22().pairs()  # no poset equals a non-poset

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            build_poset(["a", "a"], [])

    def test_empty(self):
        p = build_poset([], [])
        assert len(p) == 0
        assert p.pairs() == []

    def test_input_need_not_be_closed(self):
        p = build_poset(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        assert p.less("a", "d")
        assert_order(p)


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


def down_labels(p, x):
    return frozenset(at_set_bits(p.elements, p.down_masks[p.index(x)]))


def up_labels(p, x):
    return frozenset(at_set_bits(p.elements, p.up_masks[p.index(x)]))


def cu_labels(p, x):
    full = (1 << len(p)) - 1
    return frozenset(at_set_bits(p.elements, full & ~p.up_masks[p.index(x)]))


class TestSetQueries:
    def test_down_set_chain(self):
        p = chain(3)
        assert down_labels(p, "c2") == {"c0", "c1"}

    def test_down_set_r22(self):
        assert down_labels(pattern_r22(), "y0") == {"x0"}

    def test_down_set_antichain(self):
        p = antichain(3)
        assert all(down_labels(p, x) == frozenset() for x in p)

    def test_up_set_chain(self):
        p = chain(3)
        assert up_labels(p, "c0") == {"c1", "c2"}

    def test_up_set_r22(self):
        assert up_labels(pattern_r22(), "x1") == {"y1"}

    def test_up_set_s22_truncation(self):
        assert up_labels(pattern_s_n2(2), "x1") == {"y0", "y1"}

    def test_cu_set_chain_top(self):
        p = chain(3)
        assert cu_labels(p, "c2") == {"c0", "c1", "c2"}

    def test_cu_set_s22(self):
        assert cu_labels(pattern_s_n2(2), "x1") == {"x0", "x1"}

    def test_cu_set_singleton(self):
        p = build_poset(["x"], [])
        assert cu_labels(p, "x") == {"x"}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            chain(2).index("zz")

    @given(posets())
    def test_duality_and_partition(self, p):
        for i, down in enumerate(p.down_masks):
            for j, up in enumerate(p.up_masks):
                assert (down >> j & 1) == (up >> i & 1)
        for i, (down, up) in enumerate(zip(p.down_masks, p.up_masks)):
            assert not (down | up) >> i & 1
            assert not down & up


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
        assert oracle_longest_chain(sub) <= oracle_longest_chain(p)


class TestRank:
    def test_chain(self):
        assert oracle_longest_chain(chain(3)) == 3

    def test_antichain(self):
        assert oracle_longest_chain(antichain(5)) == 1

    def test_s22(self):
        assert oracle_longest_chain(pattern_s_n2(2)) == 2

    @given(posets())
    def test_matches_longest_chain_oracle(self, p):
        # a chain embeds two-way exactly where the order has one that long
        k = oracle_longest_chain(p)
        assert find_embedding(chain(k), p) is not None
        assert find_embedding(chain(k + 1), p) is None


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

    def test_equality_reads_the_relations(self):
        # same elements in the same order: equal only with the same relation
        p = build_poset(["a", "b", "c"], [("a", "b")])
        assert p == build_poset(["a", "b", "c"], [("a", "b")])
        assert p != build_poset(["a", "b", "c"], [("a", "c")])
        assert p != build_poset(["a", "b", "c"], [])

    def test_same_invariants_different_structure(self):
        # 2+2 vs 3+1 as unions of chains: equal sizes, different relations
        p = build_poset(list("abcd"), [("a", "b"), ("c", "d")])
        q = build_poset(list("wxyz"), [("w", "x"), ("x", "y")])
        assert not is_isomorphic(p, q)


class TestConstructor:
    @given(posets())
    def test_generated_posets_rebuild(self, p):
        assert_order(p)

    def test_forged_down_masks_fail_the_rebuild(self):
        p = build_poset(list("abc"), [("a", "b"), ("b", "c")])
        assert p.down_masks == (0, 0b001, 0b011)
        for down in [(0, 0b001, 0b001), (0b100, 0b001, 0b011), (0, 0b001)]:
            forged = Poset._trusted(p.elements, p.up_masks, down, dict(p._index))
            with pytest.raises(AssertionError):
                assert_order(forged)

    def test_constructor_checks_the_order(self):
        with pytest.raises(CycleDetected, match="'a' and 'b' below each other"):
            Poset(["a", "b"], [0b10, 0b01])
        with pytest.raises(CycleDetected, match="'a' below itself"):
            Poset(["a"], [0b1])
        assert Poset(["c0", "c1", "c2"], [0b110, 0b100, 0]) == chain(3)

    def test_refuses_masks_that_are_not_ints(self):
        for elements, up, named in [
            (["a"], ["x"], "'a'"), (["a"], [1.5], "'a'"), (["a", "b"], [0b10, None], "'b'"),
        ]:
            with pytest.raises(InvalidParameter, match=f"up mask of {named} is not an int"):
                Poset(elements, up)

    def test_refuses_masks_out_of_range(self):
        for up, named in [([0b10], "'a'"), ([0b10, 0b100], "'b'"), ([-1, 0], "'a'")]:
            with pytest.raises(InvalidParameter, match=f"up mask of {named} .* out of range"):
                Poset(["a", "b"][: len(up)], up)

    def test_refuses_a_wrong_mask_count(self):
        for up in ([0], [0, 0, 0]):
            with pytest.raises(InvalidParameter, match="one up mask per element"):
                Poset(["a", "b"], up)

    def test_refuses_non_transitive_relations(self):
        # a < b < c without a < c, with the names in index order and not
        with pytest.raises(InvalidParameter, match="not transitive at 'a' < 'b' < 'c'"):
            Poset(list("abc"), [0b010, 0b100, 0])
        with pytest.raises(InvalidParameter, match="not transitive at 'b' < 'c' < 'a'"):
            Poset(list("abc"), [0, 0b100, 0b001])

    def test_unhashable_label_is_unknown(self):
        with pytest.raises(UnknownElement, match="unhashable"):
            chain(2).index([1])

    def test_unhashable_label_is_refused(self):
        # no dict can index it; looking one up is an UnknownElement instead
        with pytest.raises(InvalidParameter, match=r"element \{\} is not hashable"):
            Poset(["a", {}], [0, 0])
        with pytest.raises(InvalidParameter, match=r"element \['a'\] is not hashable"):
            build_poset([["a"]], [])

    def test_non_transitive_wider_than_a_word(self):
        n = 70
        labels = [f"e{i}" for i in range(n)]
        # a chain missing e0 < e69: dense rows, read through their bit strings
        chain_up = [((1 << n) - 1) & ~((2 << i) - 1) for i in range(n)]
        chain_up[0] &= ~(1 << 69)
        # e0 < e1 < e2 only: sparse rows, read bit by bit
        sparse_up = [0b10, 0b100] + [0] * (n - 2)
        for up, message in [(chain_up, "'e0' < 'e1' < 'e69'"), (sparse_up, "'e0' < 'e1' < 'e2'")]:
            with pytest.raises(InvalidParameter, match=f"not transitive at {message}"):
                Poset(labels, up)


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
    """Orders on both sides of at_set_bits' kernel switch (width 64, density 1/8)."""
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


def oracle_compress(row, kept):
    """The bits of ``row`` at the positions ``kept``, packed in order, one at a time."""
    return sum((row >> old & 1) << new for new, old in enumerate(kept))


def keep_masks(width):
    """Keep all, none, every other position either way, or all but one run."""
    full = (1 << width) - 1
    yield full
    yield 0
    yield full // 3
    yield full ^ full // 3
    for start, length in ((0, 1), (0, width // 2), (width // 3, width // 3), (width - 1, 1)):
        run = (1 << length) - 1 << start if width else 0
        yield full ^ run


def test_compress_steps_pack_like_the_bit_by_bit_oracle():
    rng = random.Random(8)
    for width in range(301):
        for keep in keep_masks(width):
            kept = [i for i in range(width) if keep >> i & 1]
            steps = _compress_steps(keep, width)
            assert len(steps) <= (width - len(kept)).bit_length()
            assert all(move and shift & shift - 1 == 0 for move, shift in steps)
            top = 1 << kept[-1] if kept else 0
            for row in (keep, rng.getrandbits(width) & keep, top):
                packed = row
                for move, shift in steps:
                    moved = packed & move
                    packed = packed ^ moved | moved >> shift
                assert packed == oracle_compress(row, kept)


class TestMaskKernels:
    """build_poset, restrict and reduce against masks set bit by bit."""

    def assert_masks(self, q, labels, above, below):
        assert q.elements == tuple(labels)
        assert (q.up_masks, q.down_masks) == oracle_masks(labels, above, below)
        assert_order(q)

    def test_build_poset(self, kernel_cases):
        for labels, pairs, above, below in kernel_cases.values():
            self.assert_masks(build_poset(labels, pairs), labels, above, below)

    def test_constructor_transposes(self, kernel_cases):
        for labels, pairs, above, below in kernel_cases.values():
            up = build_poset(labels, pairs).up_masks
            self.assert_masks(Poset(labels, up), labels, above, below)

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

    def test_restrict_row_kernels(self, kernel_cases):
        """restrict packs every kept row by the compress steps, as the oracle says.

        Each subset drops one run of elements or keeps every third.
        """
        for labels, pairs, above, below in kernel_cases.values():
            p = build_poset(labels, pairs)
            n = len(labels)
            for kept in (labels[: n // 3] + labels[2 * n // 3 :], labels[1::3]):
                self.assert_masks(restrict(p, set(kept)), kept, above, below)

    def test_target_count_tables(self, kernel_cases):
        """Entry c of the search's count tables: the indices with at least c above (below).

        The counts come from pairwise comparisons: ``less`` on the templates,
        the oracle's label sets on the kernel cases.
        """
        cases = []
        for p in [r_lambda(lam) for lam in range(8)] + [Poset([], [])]:
            above = [sum(p.less(x, y) for y in p) for x in p]
            below = [sum(p.less(y, x) for y in p) for x in p]
            cases.append((p, above, below))
        for labels, pairs, above, below in kernel_cases.values():
            p = build_poset(labels, pairs)
            cases.append((p, [len(above[x]) for x in p], [len(below[x]) for x in p]))
        for p, *counts in cases:
            for table, count in zip(_target_tables(p)[3:], counts):
                assert len(table) == len(p) + 1
                # nested entries, with index i in entry count[i] but not the next
                assert all(not later & ~entry for entry, later in zip(table, table[1:]))
                for i, c in enumerate(count):
                    assert table[c] >> i & 1 and not table[c + 1] >> i & 1

    def test_kernels_both_taken(self, kernel_cases):
        """The cases reach at_set_bits' bit-string kernel and stay off it at width 64."""
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
        """pairs and at_set_bits read each row on both kernels, as the oracle sets say."""
        dense = set()
        for labels, pairs, above, below in kernel_cases.values():
            index = {x: i for i, x in enumerate(labels)}
            p = build_poset(labels, pairs)
            want = [(x, y) for x in labels for y in sorted(above[x], key=index.get)]
            assert p.pairs() == want
            for x, up, down in zip(labels, p.up_masks, p.down_masks):
                assert frozenset(at_set_bits(p.elements, up)) == above[x]
                assert frozenset(at_set_bits(p.elements, down)) == below[x]
            dense.update(_dense(row, len(labels)) for row in p.up_masks)
        assert dense == {False, True}
