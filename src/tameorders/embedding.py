"""Order embeddings: pattern constructors, search, and verification.

An embedding here is always two-way: an injection pi with x < y exactly when
pi(x) < pi(y), so both comparability and incomparability are preserved.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    InternalInvariantViolation,
    InvalidParameter,
    UnknownElement,
)
from .poset import Label, Poset, build_poset, is_chain, iter_bits


@dataclass(frozen=True)
class Embedding:
    """An injective map between posets plus its verification status.

    ``verified`` is set only after the two-way preservation check has
    passed; constructors in this module return verified embeddings.
    """

    source: Poset
    target: Poset
    mapping: dict[Label, Label]
    verified: bool = False

    def to_json(self) -> dict:
        return {
            "source": [str(x) for x in self.source.elements],
            "target": [str(x) for x in self.target.elements],
            "map": {str(k): str(v) for k, v in self.mapping.items()},
        }


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


def _at_least(masks: tuple[int, ...], n: int) -> list[int]:
    """Entry c is the bitmask of indices whose mask has at least c bits."""
    by_count = [0] * (n + 1)
    for t, mask in enumerate(masks):
        by_count[mask.bit_count()] |= 1 << t
    for c in range(n - 1, -1, -1):
        by_count[c] |= by_count[c + 1]
    return by_count


@lru_cache(maxsize=64)
def _target_tables(target: Poset) -> tuple[Sequence[int], ...]:
    """The target side of ``_search``, built once per distinct target.

    The sweeps search the same few templates thousands of times, so the
    tables are cached; equal posets share them, since they depend on the
    masks alone.
    """
    n = len(target)
    up, down = target.up_masks, target.down_masks
    full = (1 << n) - 1
    apart = tuple(full & ~(up[t] | down[t] | 1 << t) for t in range(n))
    return up, down, apart, _at_least(up, n), _at_least(down, n)


def _search(
    pattern: Poset,
    order: list[int],
    tables: tuple[Sequence[int], ...],
    budget: _Budget,
) -> list[int] | None:
    """Forward-checking search for a two-way embedding, assigning ``order`` in turn.

    ``tables`` holds the target side (see ``_target_tables``): the up, down
    and incomparable masks per target index, then the ``_at_least`` tables
    of the up and down masks.  Every pattern element keeps a domain: the
    bitmask of target indices still consistent with every assignment made
    so far.  It starts as the targets with at least as many elements below
    and above.  Placing s at t intersects each later domain with t's up
    mask, down mask or incomparable mask, as the later element lies above,
    below or apart from s; none of them holds t, so the map stays
    injective.  A choice is dropped at the first later domain it empties,
    before the rest are cut.  Each candidate taken from a domain is one node
    of ``budget``.

    Returns the image index per pattern element, or None.  Candidates are
    tried in ascending target index, so with ``order`` equal to the identity
    the first hit is the lexicographically least embedding.
    """
    k = len(pattern)
    up, down, apart, above, below = tables
    domains = [
        above[pattern.up_masks[s].bit_count()] & below[pattern.down_masks[s].bit_count()]
        for s in order
    ]
    if not all(domains):
        return None
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

    def assign(depth: int, domains: list[int]) -> bool:
        if depth == k:
            return True
        candidates, later, cuts = domains[0], domains[1:], narrowing[depth]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            t = low.bit_length() - 1
            budget.spend()
            narrowed = []
            for domain, masks in zip(later, cuts):
                domain &= masks[t]
                if not domain:
                    break
                narrowed.append(domain)
            else:
                if assign(depth + 1, narrowed):
                    placed[depth] = t
                    return True
        return False

    if not assign(0, domains):
        return None
    image = [-1] * k
    for s, t in zip(order, placed):
        image[s] = t
    return image


def find_embedding(
    pattern: Poset,
    target: Poset,
    *,
    budget: int | None = None,
    _first: Sequence[int] = (),
) -> Embedding | None:
    """Least two-way embedding of ``pattern`` into ``target``, or None.

    When an embedding exists, the returned one is lexicographically least
    under element index order, and comes back verified.  Both passes keep a
    bitmask domain of still-consistent targets per pattern element and cut
    the later domains after every assignment (see ``_search``).  Absence is
    decided first with a most-constrained-first assignment order (most
    related elements first), which fails fast on impossible instances; when
    ``check_poset`` refutes a non-tame poset, that order starts with the
    copy of the forbidden pattern its scan found, which no template can
    host.  The decide order only sets how soon absence is proven, never the
    verdict, and the witness pass reruns in index order.  ``budget`` caps
    the nodes across both passes, a node being one assignment consistent
    with every earlier one (BudgetExceeded rather than a wrong answer); a
    negative budget is an InvalidParameter.
    """
    shared = _Budget(budget)
    k, n = len(pattern), len(target)
    if k > n:
        return None
    tables = _target_tables(target)
    degree = [
        pattern.down_masks[i].bit_count() + pattern.up_masks[i].bit_count()
        for i in range(k)
    ]
    decide_order = sorted(range(k), key=lambda i: (-degree[i], i))
    if _first:
        # distinct indices placed first; the search stays complete, so any
        # leading order gives the same verdict
        decide_order = [*_first, *(i for i in decide_order if i not in _first)]
    if _search(pattern, decide_order, tables, shared) is None:
        return None
    image = _search(pattern, list(range(k)), tables, shared)
    if image is None:
        raise InternalInvariantViolation("embedding vanished between search passes")
    mapping = {
        pattern.elements[i]: target.elements[image[i]] for i in range(k)
    }
    if not verify_embedding(Embedding(pattern, target, mapping)):
        raise InternalInvariantViolation("search produced a non-embedding")
    return Embedding(pattern, target, mapping, verified=True)


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """True iff an order isomorphism p -> q exists.

    Posets of equal size are isomorphic exactly when one embeds two-way into
    the other, so this is ``find_embedding`` behind a relation-count check,
    with no size limit.
    """
    if len(p) != len(q) or p.num_relations != q.num_relations:
        return False
    return find_embedding(p, q) is not None


def verify_embedding(e: Embedding) -> bool:
    """Check injectivity and two-way order preservation over every pair.

    Raises UnknownElement when the map is not total on the source or touches
    elements foreign to either side.
    """
    src, tgt = e.source, e.target
    for x in e.mapping:
        if x not in src:
            raise UnknownElement(f"map key {x!r} not in source")
    for x in src.elements:
        if x not in e.mapping:
            raise UnknownElement(f"map not total: missing {x!r}")
    source_of: dict[int, int] = {}
    for x, y in e.mapping.items():
        t = tgt.index(y)
        if t in source_of:
            return False
        source_of[t] = src.index(x)
    image = sum(1 << t for t in source_of)
    # the source-side up mask that each distinct target up mask implies
    pulled_back: dict[int, int] = {}
    for t, i in source_of.items():
        row = tgt.up_masks[t] & image
        if row not in pulled_back:
            pulled_back[row] = sum(1 << source_of[u] for u in iter_bits(row))
        if (pulled_back[row] ^ src.up_masks[i]) & ~(1 << i):
            return False
    return True


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


def witness_embedding(p: Poset, witness: tuple[Label, Label, Label, Label]) -> Embedding:
    """Wrap an embeds_r22 witness as a verified embedding of the pattern."""
    pat = pattern_r22()
    x, x2, y, y2 = witness
    mapping = {"x0": x, "x1": x2, "y0": y, "y1": y2}
    if not verify_embedding(Embedding(pat, p, mapping)):
        raise InternalInvariantViolation("witness quadruple is not a pattern copy")
    return Embedding(pat, p, mapping, verified=True)
