"""Order embeddings: pattern constructors, search, and verification.

An embedding here is always two-way: an injection pi with x < y exactly when
pi(x) < pi(y), so both comparability and incomparability are preserved.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    InternalInvariantViolation,
    InvalidParameter,
    UnknownElement,
)
from .poset import Label, Poset, _masks_above, build_poset, is_chain, iter_bits


class Embedding(NamedTuple):
    """A map between posets, claimed to be an embedding.

    The record holds no verdict: ``verify_embedding`` checks the claim.
    ``find_embedding``'s image has passed that check's index-level test,
    as every image ``_search`` returns has, and ``canonical_embedding``
    and ``realize`` rest on their coordinates' recheck.
    """

    source: Poset
    target: Poset
    mapping: dict[Label, Label]


def pattern_r22() -> Poset:
    """The forbidden 4-element pattern: two disjoint 2-chains x0<y0, x1<y1."""
    return build_poset(["x0", "x1", "y0", "y1"], [("x0", "y0"), ("x1", "y1")])


def pattern_s_n2(n: int) -> Poset:
    """Finite two-level pattern on x0..x_{n-1}, y0..y_{n-1} with x_m < y_k iff m >= k.

    These are the finite truncations of the second forbidden pattern, which
    is infinite and therefore never embeds into a finite order; the
    truncations themselves are perfectly tame.
    """
    if n < 1:
        raise InvalidParameter("pattern_s_n2 wants n >= 1")
    xs = [f"x{m}" for m in range(n)]
    ys = [f"y{k}" for k in range(n)]
    pairs = [(xs[m], ys[k]) for m in range(n) for k in range(n) if m >= k]
    return build_poset(xs + ys, pairs)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int | None):
        if nodes is not None and nodes < 0:
            raise InvalidParameter(f"node budget must be nonnegative, got {nodes}")
        self.left = nodes

    def spend(self) -> None:
        if self.left is None:
            return
        if self.left <= 0:
            raise BudgetExceeded("embedding search exceeded its node budget")
        self.left -= 1


@lru_cache(maxsize=64)
def _target_tables(target: Poset) -> tuple[Sequence[int], ...]:
    """The target side of ``_search``, built once per distinct target.

    ``find_embedding`` reads them in both of its passes, and a serial
    ``verify_proposition(5)`` looks up 5 templates 38 times, so the tables
    are cached; equal posets share them, since they depend on the masks
    alone.  The incomparable masks are bare complements: every domain
    starts inside the count tables, so no bit past the targets is ever read.
    """
    n = len(target)
    up, down = target.up_masks, target.down_masks
    apart = tuple(~(up[t] | down[t] | 1 << t) for t in range(n))
    cuts = range(-1, n)  # entry c: the indices whose mask has at least c bits
    above = _masks_above([m.bit_count() for m in up], cuts)
    below = _masks_above([m.bit_count() for m in down], cuts)
    return up, down, apart, above, below


def _search(
    pattern: Poset, target: Poset, order: list[int], budget: _Budget
) -> list[int] | None:
    """Forward-checking search for a two-way embedding, assigning ``order`` in turn.

    The one search of the library.  The target side is ``_target_tables``:
    the up, down and incomparable masks per target index, then the count
    tables of the up and down masks, whose entry c holds the target indices
    with at least c elements above or below.  Every pattern element
    keeps a domain: the bitmask of target indices still consistent with
    every assignment made so far.  It starts as the targets with at least
    as many elements below and above.  Placing s at t intersects each later
    domain with t's up mask, down mask or incomparable mask, as the later
    element lies above, below or apart from s; none of them holds t, so the
    map stays injective.  A choice is dropped at the first later domain it
    empties, before the rest are cut.  Each candidate taken from a domain
    is one node of ``budget``.  The backtracking keeps an explicit stack,
    so the depth is bounded by memory, not by the interpreter's recursion
    limit.

    Returns the image index per pattern element, or None; an image that
    fails ``_preserves_order`` raises InternalInvariantViolation.  Candidates
    are tried in ascending target index, so with ``order`` equal to the
    identity the first hit is the lexicographically least embedding.
    """
    k = len(pattern)
    if k > len(target):
        return None
    up, down, apart, above, below = _target_tables(target)
    domains = [
        above[pattern.up_masks[s].bit_count()] & below[pattern.down_masks[s].bit_count()]
        for s in order
    ]
    if not all(domains):
        return None
    if not k:
        return []  # the empty map, an embedding into every target
    # narrowing[d][j]: the target masks that cut the domain at depth d+1+j
    # once the element at depth d is placed
    narrowing = [
        [
            up if pattern.up_masks[s] >> s2 & 1
            else down if pattern.down_masks[s] >> s2 & 1
            else apart
            for s2 in order[d + 1:]
        ]
        for d, s in enumerate(order)
    ]
    placed = [-1] * k
    # candidates[d]: the untried targets at depth d; pending[d]: the domains
    # of depths d+1.. as the assignments above depth d left them
    candidates = [0] * k
    pending: list[list[int]] = [[]] * k
    candidates[0], pending[0] = domains[0], domains[1:]
    depth = 0
    while depth >= 0:
        left = candidates[depth]
        if not left:
            depth -= 1
            continue
        low = left & -left
        candidates[depth] = left ^ low
        t = low.bit_length() - 1
        budget.spend()
        narrowed = []
        for domain, masks in zip(pending[depth], narrowing[depth]):
            domain &= masks[t]
            if not domain:
                break
            narrowed.append(domain)
        else:
            placed[depth] = t
            depth += 1
            if depth == k:
                image = [-1] * k
                for s, t in zip(order, placed):
                    image[s] = t
                if not _preserves_order(pattern, target, image):
                    raise InternalInvariantViolation("search produced a non-embedding")
                return image
            candidates[depth], pending[depth] = narrowed[0], narrowed[1:]
    return None


def _preserves_order(source: Poset, target: Poset, image: Sequence[int]) -> bool:
    """The embedding test at index level: ``image[i]`` is the target of source i.

    True iff the map is injective and x < y exactly when image[x] <
    image[y], checked row by row: each source up mask, pushed forward
    through the map, is the target up mask of its image point cut to the
    image.
    """
    if len(set(image)) != len(image):
        return False
    bits = [1 << t for t in image]
    covered = sum(bits)
    up = target.up_masks
    for t, row in zip(image, source.up_masks):
        pushed = 0
        while row:
            low = row & -row
            pushed |= bits[low.bit_length() - 1]
            row ^= low
        if up[t] & covered != pushed:
            return False
    return True


def _embeds(pattern: Poset, target: Poset, budget: _Budget) -> bool:
    """Whether ``pattern`` embeds two-way into ``target``: one search pass.

    The existence question of ``find_embedding`` without its witness pass.
    The search assigns the most related elements first, which fails fast on
    impossible instances, and among equally related ones the smallest
    down-set, then the least index.  In a reduced tame order the
    down-set size orders elements as their m does, so equally related ones
    are taken by their (m, M) pairs and the nodes spent depend on the
    isomorphism class alone, never on the labeling.  The search stays
    complete, so no order moves the verdict, only how soon absence is
    proven.  Its nodes are spent from ``budget``.
    """
    down = [m.bit_count() for m in pattern.down_masks]
    related = [d + m.bit_count() for d, m in zip(down, pattern.up_masks)]
    order = sorted(range(len(pattern)), key=lambda i: (-related[i], down[i]))
    return _search(pattern, target, order, budget) is not None


def find_embedding(
    pattern: Poset, target: Poset, *, budget: int | None = None
) -> Embedding | None:
    """Least two-way embedding of ``pattern`` into ``target``, or None.

    When an embedding exists, the returned one is lexicographically least
    under element index order.  Existence is decided first by ``_embeds``;
    a witness pass of ``_search`` in index order then finds the least
    image.  Like every image a search returns, it has passed the test
    behind ``verify_embedding``.  ``budget`` caps the nodes across both
    passes, a node being one assignment consistent with every earlier one
    (BudgetExceeded rather than a wrong answer); a negative budget is an
    InvalidParameter.  Questions that need no witness (the sweep's checks,
    ``is_isomorphic``) stop after the first pass.
    """
    shared = _Budget(budget)
    if not _embeds(pattern, target, shared):
        return None
    image = _search(pattern, target, list(range(len(pattern))), shared)
    if image is None:
        raise InternalInvariantViolation("embedding vanished between search passes")
    mapping = dict(zip(pattern.elements, (target.elements[t] for t in image)))
    return Embedding(pattern, target, mapping)


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """True iff an order isomorphism p -> q exists.

    Posets of equal size are isomorphic exactly when one embeds two-way into
    the other, so this is the one-pass existence check behind a
    relation-count check, with no size limit; the image it finds is
    verified before the answer is True.
    """
    if len(p) != len(q) or p.num_relations != q.num_relations:
        return False
    return _embeds(p, q, _Budget(None))


def verify_embedding(e: Embedding) -> bool:
    """Check injectivity and two-way order preservation over every pair.

    Raises UnknownElement when the map is not total on the source or touches
    elements foreign to either side.  Past those label checks, the map is
    read as target indices and judged by the same index-level test that
    every search applies to the images it finds.
    """
    src, tgt = e.source, e.target
    for x in e.mapping:
        if x not in src:
            raise UnknownElement(f"map key {x!r} not in source")
    for x in src.elements:
        if x not in e.mapping:
            raise UnknownElement(f"map not total: missing {x!r}")
    image = [tgt.index(e.mapping[x]) for x in src.elements]
    return _preserves_order(src, tgt, image)


def embeds_r22(p: Poset) -> tuple[Label, Label, Label, Label] | None:
    """Least witness (x, x2, y, y2) of the forbidden pattern, or None.

    The pattern embeds exactly when some two up-sets are incomparable under
    inclusion, so the order is free of it when its distinct up-sets form a
    chain; only otherwise does the quadratic scan read the quadruple off the
    least such pair.  Returned witnesses satisfy x < y, not x2 < y,
    x2 < y2, not x < y2, and are lexicographically least in index order.
    """
    if is_chain(p.up_masks):
        return None
    up = p.up_masks
    n = len(p)
    # the witness condition is symmetric in (ix, ix2), so the least has ix < ix2
    for ix in range(n):
        for ix2 in range(ix + 1, n):
            only_x = up[ix] & ~up[ix2]
            only_x2 = up[ix2] & ~up[ix]
            if only_x and only_x2:
                iy = next(iter_bits(only_x))
                iy2 = next(iter_bits(only_x2))
                e = p.elements
                return (e[ix], e[ix2], e[iy], e[iy2])
    return None
