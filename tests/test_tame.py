import itertools
import json
import math
import random
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tameorders import (
    BudgetExceeded,
    InternalInvariantViolation,
    NotReduced,
    NotTame,
    TameReport,
    all_labeled_posets,
    build_poset,
    canonical_embedding,
    d_comparable,
    embeds_r22,
    format_poset,
    is_isomorphic,
    is_reduced,
    is_tame,
    parse_poset,
    pattern_r22,
    pattern_s_n2,
    r_lambda,
    realize,
    reduce,
    restrict,
    tame,
    tame_rank,
    u_comparable,
    verify_embedding,
)
from tameorders.cli import main
from tameorders.enumeration import check_poset
from tameorders.poset import at_set_bits

from conftest import (
    antichain,
    chain,
    interval_orders,
    one_relation_changes,
    oracle_ascent_sequences,
    oracle_claim_inequalities,
    oracle_coordinates,
    oracle_fishburn_matrices,
    oracle_inflate,
    oracle_longest_chain,
    oracle_minimal_rank,
    oracle_point,
    oracle_sorted_coordinates,
    oracle_zero_one_fishburn,
    posets,
    reported_coordinates,
    zagier_exponential_series,
    zagier_series,
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
        assert report.coordinates == {x: oracle_point(x) for x in r_lambda(4)}
        assert verify_embedding(canonical_embedding(r_lambda(4)))

    def test_s22_tame(self):
        report = is_tame(pattern_s_n2(2))
        assert report.tame and report.tame_rank == 3

    def test_non_reduced_omits_canonical(self):
        report = is_tame(antichain(3))
        assert report.tame and report.tame_rank == 1
        assert report.coordinates is None

    def test_json_shapes(self, capsys, tmp_path):
        # the CLI writes the one verdict document, from the report's fields
        def check(p):
            path = tmp_path / "in.poset"
            path.write_text(format_poset(p))
            main(["check", "--json", str(path)])
            return json.loads(capsys.readouterr().out)

        assert check(pattern_r22()) == {"tame": False, "witness": ["x0", "x1", "y0", "y1"]}
        good = check(pattern_s_n2(2))
        assert good["tame"] and good["tame_rank"] == 3
        assert good["embedding"]["x1"] == [0, 0]
        assert check(antichain(2)) == {"tame": True, "tame_rank": 1}

    def test_coordinates_agree_with_canonical_embedding(self):
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None or not is_reduced(p):
                    continue
                mapping = canonical_embedding(p).mapping
                assert is_tame(p).coordinates == {
                    x: oracle_point(y) for x, y in mapping.items()
                }

    def test_report_wants_witness_or_rank(self):
        with pytest.raises(ValueError, match="exactly one of witness/tame_rank"):
            TameReport()
        with pytest.raises(ValueError, match="exactly one of witness/tame_rank"):
            TameReport(witness=("a", "b", "c", "d"), tame_rank=1)
        with pytest.raises(ValueError, match="exactly one of witness/tame_rank"):
            TameReport(None, None, {"a": (0, 0)})
        with pytest.raises(ValueError, match="coordinates need a tame_rank"):
            TameReport(("a", "b", "c", "d"), None, {"a": (0, 0)})
        assert TameReport(None, 1) == TameReport(tame_rank=1)

    def test_tame_is_read_from_the_witness(self):
        assert TameReport(tame_rank=1).tame
        assert not TameReport(witness=("a", "b", "c", "d")).tame

    def test_namedtuple_helpers_validate(self):
        report = is_tame(build_poset(["a", "b"], [("a", "b")]))
        with pytest.raises(ValueError, match="exactly one of witness/tame_rank"):
            report._replace(tame_rank=None)
        with pytest.raises(ValueError, match="exactly one of witness/tame_rank"):
            TameReport._make([None, None, None])
        with pytest.raises(ValueError, match="coordinates need a tame_rank"):
            report._replace(witness=("a", "b", "a", "b"), tame_rank=None)
        plain = report._replace(coordinates=None)
        assert type(plain) is TameReport and plain == (None, 2, None)

    def test_corrupt_coordinate_is_caught(self, corrupt_coordinates):
        with pytest.raises(InternalInvariantViolation):
            is_tame(pattern_s_n2(2))


def assert_quotient(p, result):
    """x < y in p exactly when their classes' representatives are related."""
    quotient, class_of = result
    rep = {x: quotient.elements[class_of[x]] for x in p}
    for x in p:
        for y in p:
            assert p.less(x, y) == quotient.less(rep[x], rep[y]), (x, y)


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
        result = reduce(p)
        assert_quotient(p, result)
        assert len(result.quotient) == 2
        assert result.class_of["a"] == result.class_of["b"]
        assert result.class_of["c"] == result.class_of["d"]
        def signature(x):
            below = {z for z in p if p.less(z, x)}
            return below, {z for z in p if p.less(x, z)}

        for x in p:
            for y in p:
                same = result.class_of[x] == result.class_of[y]
                assert same == (signature(x) == signature(y))

    def test_representatives(self):
        result = reduce(antichain(3))
        assert result.representatives == ("a0",)
        assert [x for x, c in result.class_of.items() if c == 0] == ["a0", "a1", "a2"]

    def test_reduced_input_is_its_own_quotient(self):
        for p in [chain(4), pattern_s_n2(3), pattern_r22(), antichain(1)]:
            assert is_reduced(p)
            result = reduce(p)
            assert_quotient(p, result)
            assert result.quotient is p
            assert result.class_of == {x: i for i, x in enumerate(p.elements)}
            assert result.representatives == p.elements

    @given(posets())
    @settings(max_examples=60)
    def test_idempotent(self, p):
        result = reduce(p)
        assert_quotient(p, result)
        once = result.quotient
        assert is_reduced(once)
        twice = reduce(once).quotient
        assert twice == once


def label_sets(p, masks):
    return {frozenset(at_set_bits(p.elements, mask)) for mask in masks}


class TestFamilies:
    def test_chain_families(self):
        p = chain(3)
        assert label_sets(p, p.down_masks) == {
            frozenset(),
            frozenset({"c0"}),
            frozenset({"c0", "c1"}),
        }
        full = (1 << len(p)) - 1
        assert label_sets(p, [full & ~m for m in p.up_masks]) == {
            frozenset({"c0"}),
            frozenset({"c0", "c1"}),
            frozenset({"c0", "c1", "c2"}),
        }
        assert d_comparable(p) and u_comparable(p)

    def test_s22_down_family(self):
        p = pattern_s_n2(2)
        assert label_sets(p, p.down_masks) == {
            frozenset(),
            frozenset({"x1"}),
            frozenset({"x0", "x1"}),
        }

    def test_empty_poset(self):
        p = build_poset([], [])
        assert p.down_masks == p.up_masks == ()
        assert d_comparable(p) and u_comparable(p)

    def test_pattern_families_not_linear(self):
        p = pattern_r22()
        assert {frozenset({"x0"}), frozenset({"x1"})} <= label_sets(p, p.down_masks)
        assert not d_comparable(p) and not u_comparable(p)

    @given(posets(max_size=6))
    @settings(max_examples=40)
    def test_cu_u_anti_isomorphism(self, p):
        full = (1 << len(p)) - 1
        for up_x in p.up_masks:
            for up_y in p.up_masks:
                cu_x, cu_y = full & ~up_x, full & ~up_y
                assert (not up_y & ~up_x) == (not cu_x & ~cu_y)


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
                    assert oracle_longest_chain(p) <= tame_rank(p) <= len(p)


def realized_coordinates(p):
    """{x: (m, M)} read off the template point each element is a copy of."""
    result = realize(p)
    return {result.iso.mapping[w]: oracle_point(w) for w in result.w}


class TestCoordinateValues:
    def test_chain_middle(self):
        assert realized_coordinates(chain(3))["c1"] == (1, 1)

    def test_s22_y0(self):
        assert realized_coordinates(pattern_s_n2(2))["y0"] == (2, 2)

    def test_minimal_element(self):
        assert realized_coordinates(chain(3))["c0"] == (0, 0)

    def test_not_tame(self):
        with pytest.raises(NotTame):
            realized_coordinates(pattern_r22())

    def test_match_definition_exhaustive_small(self):
        tame_count = non_reduced = 0
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    continue
                tame_count += 1
                expected = oracle_coordinates(p)
                assert realized_coordinates(p) == expected
                if not is_reduced(p):
                    non_reduced += 1
                    continue
                assert is_tame(p).coordinates == expected
                emb = canonical_embedding(p)
                assert {
                    x: oracle_point(y) for x, y in emb.mapping.items()
                } == expected
        assert (tame_count, non_reduced) == (3682, 1626)

    def test_template_coordinates_identity(self):
        p = r_lambda(4)
        assert realized_coordinates(p) == {x: oracle_point(x) for x in p}


class TestCanonicalEmbedding:
    def test_chain(self):
        emb = canonical_embedding(chain(3))
        assert emb.mapping == {"c0": "0,0", "c1": "1,1", "c2": "2,2"}
        assert verify_embedding(emb)

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
                    a, b = oracle_point(label)
                    assert 0 <= a <= b < tame_rank(p)


class TestMinimalRank:
    def test_chain(self):
        assert oracle_minimal_rank(chain(3)) == 3

    def test_s22(self):
        assert oracle_minimal_rank(pattern_s_n2(2)) == 3

    def test_singleton(self):
        assert oracle_minimal_rank(build_poset(["x"], [])) == 1

    def test_empty(self):
        assert oracle_minimal_rank(build_poset([], [])) == 0

    def test_no_size_cap(self):
        # past the old limit of 8 elements; only the budget bounds a search
        assert oracle_minimal_rank(chain(9)) == 9
        with pytest.raises(BudgetExceeded):
            oracle_minimal_rank(chain(16), budget=1000)

    def test_matches_tame_rank_exhaustive_small(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None and is_reduced(p):
                    assert oracle_minimal_rank(p) == tame_rank(p)


FISHBURN_NUMBERS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335]  # A022493, n = 0..8


def oracle_labeled_ranks(n: int) -> Counter:
    """Labeled interval orders on n points by tame rank, from the Fishburn matrices.

    The matrix of dimension k with entries a_ij is the unlabeled interval
    order with a_ij elements of interval [i, j]: k distinct up-sets, one per
    column.  Only twins, elements of one interval, can be swapped (its
    quotient is rigid), so it has n! / prod(a_ij!) labelings.
    """
    ranks: Counter = Counter()
    for k, entries in oracle_fishburn_matrices(n):
        ranks[k] += math.factorial(n) // math.prod(map(math.factorial, entries.values()))
    return ranks


class TestRankDistribution:
    """Tame ranks counted by sources that share no code with the library."""

    def test_matrices_by_dimension_are_ascent_sequences_by_ascents(self):
        for n, total in enumerate(FISHBURN_NUMBERS):
            dimensions = Counter(k for k, _ in oracle_fishburn_matrices(n))
            assert sum(dimensions.values()) == total
            if n:
                assert dimensions == Counter(a + 1 for a in oracle_ascent_sequences(n))

    @pytest.mark.parametrize("n", [*range(6), pytest.param(6, marks=pytest.mark.slow)])
    def test_labeled_rank_histogram(self, n):
        ranks = Counter(tame_rank(p) for p in all_labeled_posets(n) if embeds_r22(p) is None)
        assert ranks == oracle_labeled_ranks(n)


A022493 = [*FISHBURN_NUMBERS, 31240]  # n = 0..9
A079144 = [1, 1, 3, 19, 207, 3451, 81663, 2602699, 107477247, 5581680571]  # labeled
A138265 = [1, 1, 1, 2, 5, 16, 61, 271, 1372, 7795]  # 0/1 Fishburn matrices


def fishburn_order(cells: dict):
    """The interval order of a Fishburn matrix, built pair by pair.

    Entry v at cell (a, b) gives v elements (a, b, c), c < v, of interval
    [a, b]; x < y iff b(x) < a(y).
    """
    elements = [(a, b, c) for (a, b), v in cells.items() for c in range(v)]
    return build_poset(elements, [(x, y) for x in elements for y in elements if x[1] < y[0]])


class TestFishburnCensus:
    """Every Fishburn matrix of weight n, as its interval order, by its own numbers.

    The matrix names the rank, the coordinates of every element and the
    number of labelings; the counts come from Zagier's series.
    """

    def test_series(self):
        assert zagier_series(9) == A022493
        assert zagier_exponential_series(9) == A079144

    @pytest.mark.parametrize(
        "n", [*range(8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9))]
    )
    def test_every_matrix(self, n):
        matrices = zero_one = labeled = 0
        for k, cells in oracle_fishburn_matrices(n):
            p = fishburn_order(cells)
            assert is_tame(p).tame
            assert tame_rank(p) == k
            assert reported_coordinates(p) == {x: (x[0], x[1]) for x in p}
            dual = build_poset(p.elements, [(y, x) for x, y in p.pairs()])
            assert reported_coordinates(dual) == {x: (k - 1 - x[1], k - 1 - x[0]) for x in p}
            assert check_poset(p) == (True, [])
            matrices += 1
            zero_one += set(cells.values()) <= {1}
            labeled += math.factorial(n) // math.prod(map(math.factorial, cells.values()))
        assert matrices == zagier_series(n)[n] == A022493[n]
        assert zero_one == A138265[n]
        if n <= 7:
            assert zero_one == oracle_zero_one_fishburn(n)
        assert labeled == zagier_exponential_series(n)[n] == A079144[n]


def random_fishburn_matrix(rng, n: int, k: int) -> Counter:
    """A random k x k Fishburn matrix of weight n: {(a, b): entry}, a <= b.

    Each row gets one unit at a random cell, then each column still empty
    gets one, so no row or column is zero; the rest of the weight goes to
    random cells.
    """
    cells = Counter((a, rng.randrange(a, k)) for a in range(k))
    covered = {b for _, b in cells}
    cells.update((rng.randrange(b + 1), b) for b in range(k) if b not in covered)
    spare = n - sum(cells.values())
    assert spare >= 0
    cells.update(tuple(sorted((rng.randrange(k), rng.randrange(k)))) for _ in range(spare))
    return cells


class TestFishburnAtScale:
    """Random Fishburn matrices at benchmark sizes, each its own answer.

    The order of a k x k matrix with no zero row or column has tame rank
    k, its ``reduce`` classes are the nonzero cells with the entries as
    their sizes, and every element's (m, M) and ``realize`` label name its
    cell.  The order is built pair by pair from shuffled elements.
    """

    @pytest.mark.parametrize("n, k, seed", [(2000, 150, 1), (2000, 1000, 2)])
    def test_matrix_is_the_answer(self, n, k, seed):
        rng = random.Random(seed)
        cells = random_fishburn_matrix(rng, n, k)
        elements = [(a, b, c) for (a, b), v in cells.items() for c in range(v)]
        rng.shuffle(elements)
        by_start = sorted(elements)
        starts = [x[0] for x in by_start]
        pairs = [(x, y) for x in elements for y in by_start[bisect_right(starts, x[1]):]]
        p = build_poset(elements, pairs)
        assert tame_rank(p) == k
        reduction = reduce(p)
        class_of_cell = {}
        for x, c in reduction.class_of.items():
            assert class_of_cell.setdefault(x[:2], c) == c
        assert len(set(class_of_cell.values())) == len(cells) == len(reduction.quotient)
        q = reduction.quotient
        coordinates = is_tame(q).coordinates
        for x, c in reduction.class_of.items():
            assert coordinates[q.elements[c]] == x[:2]
        mapping = realize(p).iso.mapping
        assert len(mapping) == n
        assert all(oracle_point(label) == x[:2] for label, x in mapping.items())
        # a 2+2 planted on four fresh elements, incomparable to the rest:
        # the witness must be an induced 2+2
        fresh = [("x",), ("x2",), ("y",), ("y2",)]
        for w in fresh:
            elements.insert(rng.randrange(len(elements) + 1), w)
        planted = build_poset(elements, pairs + [(fresh[0], fresh[2]), (fresh[1], fresh[3])])
        witness = embeds_r22(planted)
        assert witness is not None and len(set(witness)) == 4
        x, x2, y, y2 = witness
        for u, v in itertools.permutations(witness, 2):
            assert planted.less(u, v) == ((u, v) in {(x, y), (x2, y2)}), (u, v)


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


def recheck(p):
    """``tame._recheck`` at p's own rank: the library's one test of the claim."""
    return tame._recheck(p, tame._rank(p))


def assert_claim_holds(p):
    coordinates = recheck(p)
    assert coordinates == tame._coordinates(p)
    assert oracle_claim_inequalities(p, *coordinates)


class TestClaimInequalities:
    def test_template(self):
        assert_claim_holds(r_lambda(5))

    def test_s22(self):
        assert_claim_holds(pattern_s_n2(2))

    def test_not_tame(self):
        with pytest.raises(NotTame):
            tame._canonical_coordinates(pattern_r22())

    def test_corrupt_coordinate_is_caught(self, corrupt_coordinates):
        assert recheck(pattern_s_n2(2)) is None
        assert recheck(r_lambda(3)) is None

    def test_exhaustive_small(self):
        for n in range(5):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is None:
                    assert_claim_holds(p)

    def test_not_tame_raises_on_every_small_poset(self):
        # passing inequalities prove tameness, so every non-tame poset fails
        # the recheck, and only then does the pattern scan run
        five_point = 0
        for n in range(6):
            for p in all_labeled_posets(n):
                if embeds_r22(p) is not None:
                    five_point += n == 5
                    assert recheck(p) is None
                    with pytest.raises(NotTame):
                        tame._canonical_coordinates(p)
        assert five_point == 780

    def test_agrees_with_pairwise_oracle_under_unit_shifts(self, monkeypatch):
        # the true coordinates, then each one m or M moved by -1 or +1; the
        # recheck passes exactly when the pairs do and every value lies in
        # 0..rank-1
        real = tame._coordinates
        refuted = Counter()
        for n in range(5):
            for p in all_labeled_posets(n):
                ms, Ms = real(p)
                rank = tame._rank(p)
                variants = [(ms, Ms)]
                for i in range(n):
                    for step in (-1, 1):
                        moved = [*ms[:i], ms[i] + step, *ms[i + 1:]]
                        variants.append((moved, Ms))
                        moved = [*Ms[:i], Ms[i] + step, *Ms[i + 1:]]
                        variants.append((ms, moved))
                tame_here = embeds_r22(p) is None
                for coords in variants:
                    monkeypatch.setattr(
                        tame, "_coordinates", lambda q, c=coords: (c[0][:], c[1][:])
                    )
                    in_range = all(0 <= v < rank for v in (*coords[0], *coords[1]))
                    expected = in_range and oracle_claim_inequalities(p, *coords)
                    refuted[tame_here] += not expected
                    assert tame._recheck(p, rank) == (coords if expected else None)
        # every variant of the 12 non-tame posets on 4 points is refuted; of
        # the tame variants, 806 pass the pairs with a value out of range
        assert refuted == {True: 3568, False: 204}

    @given(interval_orders(max_size=30))
    @settings(max_examples=20)
    def test_mid_size_orders_and_their_one_relation_changes(self, drawn):
        # a one-relation change of an interval order may leave it tame or
        # not; the recheck passes exactly on the tame ones, with the oracle's
        # coordinates
        p, _ = drawn
        for q in (p, *one_relation_changes(p)):
            coordinates = recheck(q)
            expected = oracle_sorted_coordinates(q)
            assert (coordinates is None) == (expected is None)
            if coordinates is not None:
                assert sorted(zip(*coordinates)) == expected
                assert oracle_claim_inequalities(q, *coordinates)


def test_reduced_tame_embedding_verifies_exhaustively_small():
    for n in range(5):
        for p in all_labeled_posets(n):
            if embeds_r22(p) is None:
                emb = canonical_embedding(reduce(p).quotient)
                assert verify_embedding(emb)


@given(interval_orders(150))
@settings(max_examples=50)
def test_interval_orders_match_their_interval_counts(case):
    # an interval order's down-sets are nested, and so are its up-sets, so
    # a count of each names it: the reduced classes are the distinct pairs
    # of counts, and m (M) counts the distinct down-set (up-set complement)
    # sizes below the element's own
    p, intervals = case
    below = {x: sum(r < intervals[x][0] for _, r in intervals.values()) for x in p}
    above = {x: sum(intervals[x][1] < l for l, _ in intervals.values()) for x in p}
    k = len(set(below.values()))
    assert is_tame(p).tame
    assert tame_rank(p) == k == len(set(above.values()))
    reduction = reduce(p)
    q = reduction.quotient
    pairs = {x: (below[x], above[x]) for x in p}
    classes = {}
    for x in p:
        classes.setdefault(reduction.class_of[x], set()).add(pairs[x])
    assert all(len(held) == 1 for held in classes.values())
    assert len(classes) == len(q) == len(set(pairs.values()))
    coordinates = is_tame(q).coordinates
    assert sorted({m for m, _ in coordinates.values()}) == list(range(k))
    assert sorted({big for _, big in coordinates.values()}) == list(range(k))
    expected = {
        x: (
            len({b for b in below.values() if b < below[x]}),
            len({a for a in above.values() if a > above[x]}),
        )
        for x in p
    }
    assert reported_coordinates(p) == expected
    result = realize(p)
    assert {result.iso.mapping[w]: oracle_point(w) for w in result.w} == expected


class TestMetamorphicAtMidSizes:
    """Relations between an interval order and one built from it.

    The exhaustive sweeps check each at n <= 5; these draw up to 150
    elements, and the coordinates are those the public API reports.
    """

    @given(interval_orders(150))
    @settings(max_examples=30)
    def test_dual_reflects_the_coordinates(self, drawn):
        p, _ = drawn
        dual = build_poset(p.elements, [(y, x) for x, y in p.pairs()])
        k = tame_rank(p)
        assert tame_rank(dual) == k
        coordinates = reported_coordinates(p)
        reflected = {x: (k - 1 - big, k - 1 - m) for x, (m, big) in coordinates.items()}
        assert reported_coordinates(dual) == reflected

    @given(interval_orders(150), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_inflated_copies_keep_the_coordinates(self, drawn, rnd):
        p, _ = drawn
        if not len(p):
            return
        inflated = oracle_inflate(p, {rnd.choice(p.elements): 3})
        assert tame_rank(inflated) == tame_rank(p)
        coordinates = reported_coordinates(p)
        assert reported_coordinates(inflated) == {
            u: coordinates[u.rpartition("#")[0]] for u in inflated
        }

    @given(interval_orders(150), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_restriction_never_raises_the_rank(self, drawn, rnd):
        p, _ = drawn
        subset = rnd.sample(p.elements, rnd.randint(0, len(p)))
        assert tame_rank(restrict(p, subset)) <= tame_rank(p)

    @given(interval_orders(150))
    @settings(max_examples=30)
    def test_realize_round_trip(self, drawn):
        # restricting the inflated template to w gives the source back, and
        # iso carries its pairs onto p's
        p, _ = drawn
        result = realize(p)
        restricted = restrict(result.inflated, result.w)
        assert restricted == result.iso.source
        mapping = result.iso.mapping
        assert {(mapping[u], mapping[v]) for u, v in restricted.pairs()} == set(p.pairs())

    @given(interval_orders(150))
    @settings(max_examples=30)
    def test_text_round_trip(self, drawn):
        p, _ = drawn
        assert parse_poset(format_poset(p)) == p
