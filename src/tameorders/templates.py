"""Template orders on coordinate pairs, the canonical embedding, and realization.

The template of width ``lam`` lives on the pairs (a, b) with a <= b < lam,
ordered by (a, b) < (a2, b2) iff b < a2.  Every tame finite order arises,
up to isomorphism, as a restriction of an inflated template.  The
coordinates (m(x), M(x)) alone decide that restriction, so ``realize``
builds no template; ``RealizeResult.inflated`` builds one on each access.
Every order read off coordinates, x < y iff M(x) < m(y), the templates,
the inflated template and ``realize``'s restriction alike, is built by the
one ``_interval_order``.

``_point`` writes every template label: "a,b" for the point (a, b), and
"a,b#c" for its copy c, each number as ``str`` writes it.  The library
reads no label back.  The coordinates of the elements of a tame ``p`` are
``is_tame(q).coordinates`` for ``q = reduce(p).quotient``, read through
``reduce(p).class_of``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from . import tame
from .embedding import Embedding
from .errors import InvalidParameter
from .poset import Label, Poset, _index_of, _masks_above


def _point(a: int, b: int) -> str:
    """Label "a,b" of the template point (a, b); a copy of it is "a,b#c"."""
    return f"{a},{b}"


def _interval_order(elements: tuple[str, ...], lo: list[int], hi: list[int]) -> Poset:
    """The order on ``elements`` with x < y iff hi[x] < lo[y], by index."""
    ups = _masks_above(lo, hi)
    downs = _masks_above([-h for h in hi], [-m for m in lo])
    return Poset._trusted(elements, ups, downs, _index_of(elements))


@lru_cache(maxsize=128)
def r_lambda(lam: int) -> Poset:
    """The template order of width ``lam``: lam*(lam+1)/2 coordinate pairs.

    Elements are labeled "a,b" and listed lexicographically; the relation
    (a, b) < (a2, b2) iff b < a2 is already transitively closed.  There is
    no width limit.  ``canonical_embedding`` builds one of width r = tame
    rank <= number of elements, and ``check_poset``'s searches build those
    of widths r and r - 1, and of width min(n, 8) on non-tame input.
    """
    if lam < 0:
        raise InvalidParameter("template width must be nonnegative")
    pairs = [(a, b) for a in range(lam) for b in range(a, lam)]
    elements = tuple(_point(a, b) for a, b in pairs)
    return _interval_order(elements, [a for a, _ in pairs], [b for _, b in pairs])


def canonical_embedding(p: Poset) -> Embedding:
    """Embed a reduced tame poset into the template of its tame rank.

    Maps x to its rechecked coordinate pair (m(x), M(x)); passing that
    recheck is what makes the map an embedding.  The template has
    width r = tame rank <= len(p), with no other limit; ``embed --json`` is
    the one CLI verb that builds it.
    """
    rank, ms, Ms = tame._reduced_coordinates(p)
    mapping = {x: _point(m, big) for x, m, big in zip(p.elements, ms, Ms)}
    return Embedding(p, r_lambda(rank), mapping)


def cummings_blocks(o: int) -> Poset:
    """Block order on pairs (a, b) with a < o and b in {a+1..o-1} or inf.

    (a2, b2) < (a, b) iff b2 <= a, where the infinite marker compares above
    every natural (so b2 = inf never relates upward).  Serialized labels
    use the token "inf".  It is ``r_lambda(o)`` relabeled, in the same
    order: (a, b) relates as the template point (a, b - 1), inf as b = o.
    """
    if o < 1:
        raise InvalidParameter("cummings_blocks wants o >= 1")
    template = r_lambda(o)
    elements = tuple(
        f"{a},{'inf' if b == o else b}" for a in range(o) for b in range(a + 1, o + 1)
    )
    return Poset._trusted(
        elements, template.up_masks, template.down_masks, _index_of(elements)
    )


class RealizeResult(NamedTuple):
    """Outcome of the realization pipeline.

    ``iso`` is the isomorphism from the restriction onto the original input,
    correct by the coordinates' recheck.  ``w``, the restriction's elements,
    names the selected copies "a,b#c" of the template of width ``rank``.
    ``inflated`` gives each template point as many copies as ``w`` holds,
    and one when it holds none, listed in (a, b, c) order; both are derived
    on each access.
    """

    iso: Embedding
    rank: int

    @property
    def w(self) -> tuple[Label, ...]:
        return self.iso.source.elements

    @property
    def inflated(self) -> Poset:
        copies = Counter(zip(*tame._coordinates(self.iso.source)))
        elements, lo, hi = [], [], []
        for a in range(self.rank):
            for b in range(a, self.rank):
                for c in range(copies[a, b] or 1):
                    elements.append(f"{_point(a, b)}#{c}")
                    lo.append(a)
                    hi.append(b)
        return _interval_order(tuple(elements), lo, hi)


def realize(s: Poset) -> RealizeResult:
    """Produce a tame order as a restriction of an inflated template.

    Element x becomes a copy "m,M#c" of the point (m(x), M(x)), where c
    counts the earlier elements of its class, so every class inflates its
    point to the class size.  ``w`` lists the copies in
    (m, M, element index) order, their order in the inflated template; they
    relate as their points do, built by ``_interval_order``.  The
    coordinates' recheck, not ``verify_embedding``, makes ``iso`` an
    isomorphism.  Raises NotTame (with witness) on non-tame input.  Only
    the order-theoretic restriction step is modeled: picking the points out
    of a larger ambient structure adds nothing combinatorial.
    """
    rank, ms, Ms = tame._canonical_coordinates(s)
    copies = Counter()
    labels = []
    for point in zip(ms, Ms):
        labels.append(f"{_point(*point)}#{copies[point]}")
        copies[point] += 1
    order = sorted(range(len(s)), key=lambda i: (ms[i], Ms[i], i))
    elements = tuple(labels[i] for i in order)
    source = _interval_order(elements, [ms[i] for i in order], [Ms[i] for i in order])
    return RealizeResult(Embedding(source, s, dict(zip(labels, s.elements))), rank)
