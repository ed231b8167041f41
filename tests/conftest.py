"""Shared builders, independent oracles, and hypothesis strategies.

The oracles here recompute results by definition-level brute force
(permutation scans, relation filtering, chain enumeration) so that the
library's bitmask fast paths are checked against something that cannot
share their bugs.
"""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from tameorders import Poset, build_poset, find_embedding, r_lambda, tame

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def chain(n: int) -> Poset:
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return build_poset([f"a{i}" for i in range(n)], [])


def assert_order(p: Poset) -> None:
    """Rebuild ``p`` through the checking constructor: its down masks must agree.

    The library builds its posets past the constructor's checks, from masks
    it closed or transposed itself; this rechecks such a construction.
    """
    assert Poset(p.elements, p.up_masks).down_masks == p.down_masks


def oracle_minimal_rank(p: Poset, budget: int | None = None) -> int:
    """Least lam such that p embeds two-way into ``r_lambda(lam)``, width by width.

    The definition of the tame rank of a reduced tame poset, asked of the
    public search; ``budget`` bounds each search (BudgetExceeded past it).
    """
    for lam in range(len(p) + 1):
        if find_embedding(p, r_lambda(lam), budget=budget) is not None:
            return lam
    raise AssertionError("no template up to the poset's size hosts it")


def oracle_inflate(base: Poset, multiplicity: dict) -> Poset:
    """``base`` with each x replaced by copies "x#0" .. "x#k-1", pair by pair.

    k is ``multiplicity.get(x, 1)``; two copies relate exactly as their base
    elements do, so the copies of one element are pairwise incomparable.
    """
    copies = [(x, f"{x}#{c}") for x in base for c in range(multiplicity.get(x, 1))]
    pairs = [(u, v) for x, u in copies for y, v in copies if base.less(x, y)]
    return build_poset([u for _, u in copies], pairs)


# A label the template writers emit, "a,b" or a copy "a,b#c": each number
# as str() writes a nonnegative int, in ASCII digits with no leading zero.
_TEMPLATE_LABEL = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)(?:#(0|[1-9][0-9]*))?")


def oracle_point(label) -> tuple[int, int]:
    """The point (a, b) that a template label "a,b" or "a,b#c" names.

    Fails the test on any other label; the library reads no label back.
    """
    match = _TEMPLATE_LABEL.fullmatch(label) if isinstance(label, str) else None
    if match is None:
        pytest.fail(f"not a template label: {label!r}")
    return int(match[1]), int(match[2])


def oracle_quartet_r22(p: Poset):
    """Brute scan over ordered quadruples for an induced two-chain pair."""
    for x, x2, y, y2 in itertools.permutations(p.elements, 4):
        quad = (x, x2, y, y2)
        wanted = {(x, y), (x2, y2)}
        ok = True
        for u in quad:
            for v in quad:
                if u is not v and p.less(u, v) != ((u, v) in wanted):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return quad
    return None


def oracle_least_embedding(pattern: Poset, target: Poset) -> dict | None:
    """First two-way embedding in a brute scan over all injections, or None.

    ``itertools.permutations`` yields the images in lexicographic order of
    target positions, so the first hit is the lexicographically least
    embedding under element index order.
    """
    k = len(pattern)
    src = pattern.elements
    for image in itertools.permutations(target.elements, k):
        ok = True
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if pattern.less(src[i], src[j]) != target.less(image[i], image[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return dict(zip(src, image))
    return None


def oracle_longest_chain(p: Poset) -> int:
    """Longest chain length by exhaustive descent."""
    best = 0

    def descend(x, length):
        nonlocal best
        best = max(best, length)
        for y in p.elements:
            if p.less(x, y):
                descend(y, length + 1)

    for x in p.elements:
        descend(x, 1)
    return best


def oracle_coordinates(p: Poset) -> dict:
    """Canonical (m, M) per element, counted by subset tests on label sets.

    m(x) counts the members of the completed down-set family (unions of
    the inclusion-downward-closed subfamilies of the down-sets, the empty
    union included) strictly inside d(x); M(x) counts the distinct up-set
    complements strictly inside cu(x).
    """
    elements = p.elements
    down = {x: frozenset(z for z in elements if p.less(z, x)) for x in elements}
    cu = {x: frozenset(y for y in elements if not p.less(x, y)) for x in elements}
    downs = set(down.values())
    completed = set()
    for size in range(len(downs) + 1):
        for sub in itertools.combinations(downs, size):
            if all(a in sub for s in sub for a in downs if a < s):
                completed.add(frozenset().union(*sub))
    cus = set(cu.values())
    return {
        x: (
            sum(1 for s in completed if s < down[x]),
            sum(1 for s in cus if s < cu[x]),
        )
        for x in elements
    }


def oracle_claim_inequalities(p: Poset, ms: list[int], Ms: list[int]) -> bool:
    """The coordinate inequalities pair by pair, indexed like ``p.elements``.

    For every ordered pair (x, y), x = y included: M(x) < m(y) if x < y,
    else m(y) <= M(x); at x = y the second reads m(x) <= M(x).
    """
    elements = p.elements
    return all(
        Ms[i] < ms[j] if p.less(x, y) else ms[j] <= Ms[i]
        for i, x in enumerate(elements)
        for j, y in enumerate(elements)
    )


def oracle_sorted_coordinates(p: Poset) -> list[tuple[int, int]] | None:
    """The sorted (m, M) list of a tame ``p``, or None when p is not tame.

    p is tame exactly when its up-sets are nested.  Its down-sets then form
    a chain too, so the completed down-set family of ``oracle_coordinates``
    is the distinct down-sets and the empty set, and each count is a subset
    test on label sets, quadratic rather than exponential.
    """
    elements = p.elements
    up = {x: frozenset(y for y in elements if p.less(x, y)) for x in elements}
    if any(not (a <= b or b <= a) for a in up.values() for b in up.values()):
        return None
    down = {x: frozenset(z for z in elements if p.less(z, x)) for x in elements}
    cu = {x: frozenset(elements) - up[x] for x in elements}
    downs = {frozenset(), *down.values()}
    cus = set(cu.values())
    return sorted(
        (sum(s < down[x] for s in downs), sum(s < cu[x] for s in cus)) for x in elements
    )


def one_relation_changes(p: Poset):
    """Every order on p's elements whose relation differs from p's in one pair.

    Dropping x < y leaves an order exactly when y covers x; adding x < y for
    incomparable x, y exactly when all below x lie below y and all above y
    above x.  Each yield is rechecked to differ from p in that pair alone.
    """
    elements = p.elements
    pairs = set(p.pairs())
    for x in elements:
        for y in elements:
            if x == y or (y, x) in pairs:
                continue
            if (x, y) in pairs:
                if any((x, z) in pairs and (z, y) in pairs for z in elements):
                    continue
                changed = pairs - {(x, y)}
            elif all((z, y) in pairs for z in elements if (z, x) in pairs) and all(
                (x, w) in pairs for w in elements if (y, w) in pairs
            ):
                changed = pairs | {(x, y)}
            else:
                continue
            q = build_poset(elements, sorted(changed))
            assert set(q.pairs()) ^ pairs == {(x, y)}
            yield q


def oracle_closure(elements, pairs) -> set[tuple]:
    """Every (x, y) with a nonempty path x -> y along the raw pairs, by DFS.

    A pair (x, x) in the result means x lies on a cycle.
    """
    succ = {x: [] for x in elements}
    for a, b in pairs:
        succ[a].append(b)
    related = set()
    for x in elements:
        seen = set()
        stack = list(succ[x])
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(succ[y])
        related.update((x, y) for y in seen)
    return related


def random_generating_set(rng, n: int, edges: int, *, cyclic: bool = False):
    """Labels and generating pairs in every form the closure must accept.

    The pairs follow a hidden linear extension that disagrees with the index
    order, so many run against it; a quarter of them repeat, they come in
    shuffled order, and the last fifth of the extension is left isolated.
    ``cyclic`` adds one pair against the extension, which closes a cycle
    whenever its two ends are already related.
    """
    labels = [f"v{i}" for i in range(n)]
    extension = labels[:]
    rng.shuffle(extension)
    linked = range(n - n // 5)
    pairs = []
    for _ in range(edges):
        i, j = sorted(rng.sample(linked, 2))
        pairs.append((extension[i], extension[j]))
    pairs += rng.sample(pairs, len(pairs) // 4)
    if cyclic:
        i, j = sorted(rng.sample(linked, 2))
        pairs.append((extension[j], extension[i]))
    rng.shuffle(pairs)
    return labels, pairs


@pytest.fixture
def corrupt_coordinates(monkeypatch):
    """Raise M of element index 0 by one wherever the library computes (m, M).

    M takes every value below the tame rank and so does m, so on a nonempty
    tame input the shifted M either leaves the template or drops from the
    up-set of that element every y with m(y) equal to the new M.
    """
    real = tame._coordinates

    def shifted(p):
        ms, Ms = real(p)
        return ms, [Ms[0] + 1, *Ms[1:]]

    monkeypatch.setattr(tame, "_coordinates", shifted)


@pytest.fixture
def corrupt_rank(monkeypatch):
    """Raise the tame rank by one wherever the library computes it, on nonempty input.

    The canonical coordinates still fit the wider template and every rank
    moves together, so of the sweep's checks only the minimality refutation
    can see it: a reduced tame poset embeds into the template one narrower
    than the raised rank.
    """
    real = tame._rank
    monkeypatch.setattr(tame, "_rank", lambda p: real(p) + 1 if len(p) else 0)


def oracle_zero_one_fishburn(n: int) -> int:
    """Upper-triangular 0/1 matrices with n ones and no zero row or column.

    Summed over every matrix size; these are the unlabeled reduced interval
    orders on n points (entry (a, b) marks the element with coordinates
    (a, b)), counted without building any poset.
    """
    total = 0 if n else 1
    for k in range(1, n + 1):
        cells = [(a, b) for a in range(k) for b in range(a, k)]
        for ones in itertools.combinations(cells, n):
            if len({a for a, _ in ones}) == k == len({b for _, b in ones}):
                total += 1
    return total


def oracle_posets_by_filter(n: int) -> set[tuple[int, ...]]:
    """All transitively closed irreflexive relations on n points, as mask rows."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for selection in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if selection >> k & 1:
                adj[i] |= 1 << j
        ok = True
        for i in range(n):
            if adj[i] >> i & 1:
                ok = False
                break
            rest = adj[i]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                if adj[j] & ~adj[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(tuple(adj))
    return found


@st.composite
def posets(draw, max_size: int = 7) -> Poset:
    """Random poset via a drawn linear extension plus a compatible pair subset."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    labels = [f"e{i}" for i in range(n)]
    perm = draw(st.permutations(range(n)))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[perm[i]], labels[perm[j]]))
    return build_poset(labels, pairs)


@st.composite
def interval_orders(draw, max_size: int = 150):
    """Random interval order with its intervals: x < y iff r(x) < l(y).

    The endpoints l <= r lie in 0..K-1 for a drawn K; the order is built
    pair by pair from the intervals, never from coordinates.  Returns the
    poset and {label: (l, r)}.
    """
    k = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=0, max_value=max_size))
    end = st.integers(min_value=0, max_value=k - 1)
    ends = draw(st.lists(st.tuples(end, end), min_size=n, max_size=n))
    intervals = {f"i{j}": (min(e), max(e)) for j, e in enumerate(ends)}
    pairs = [
        (x, y) for x, (_, r) in intervals.items() for y, (l, _) in intervals.items() if r < l
    ]
    return build_poset(list(intervals), pairs), intervals
