"""Shared builders, independent oracles, and hypothesis strategies.

The oracles here recompute results by definition-level brute force
(permutation scans, relation filtering, chain enumeration) so that the
library's bitmask fast paths are checked against something that cannot
share their bugs.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from tameorders import Poset, build_poset, tame

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def chain(n: int) -> Poset:
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return build_poset([f"a{i}" for i in range(n)], [])


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


def oracle_embedding_exists(pattern: Poset, target: Poset) -> bool:
    """Brute scan over all injections for a two-way order embedding."""
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
            return True
    return False


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
