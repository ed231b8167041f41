"""Finite strict partial orders backed by per-element bitmasks."""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Hashable, Iterable, Iterator, Sequence

from .errors import CycleDetected, DuplicateElement, InvalidParameter, UnknownElement

Label = Hashable


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dense(row: int, width: int) -> bool:
    """True when ``row`` is better read through its bit string than bit by bit.

    One pass over a ``width``-character string beats three big-integer
    operations per set bit once the row is wider than a machine word and
    more than one bit in eight is set.
    """
    return width > 64 and 8 * row.bit_count() > width


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def at_set_bits(items: Sequence, row: int) -> Iterator:
    """The ``items`` at the set bit positions of ``row``, in ascending order."""
    if _dense(row, len(items)):
        selectors = format(row, "b")[::-1].encode().translate(_ZERO_ONE)
        return itertools.compress(items, selectors)
    return map(items.__getitem__, iter_bits(row))


def is_chain(masks: Iterable[int]) -> bool:
    """True iff the distinct masks are pairwise nested under inclusion.

    Sorted by size, distinct masks form a chain exactly when each one lies
    inside the next.
    """
    unique = sorted(set(masks), key=int.bit_count)
    return all(not a & ~b for a, b in zip(unique, unique[1:]))


def _masks_above(values: list[int], cuts: Iterable[int]) -> tuple[int, ...]:
    """For each cut c, the bitmask of the indices i with values[i] > c.

    Each is an entry of a running OR over the distinct values, highest
    first, found by ``bisect_right``.  The order x < y iff M(x) < m(y) has up
    masks ``_masks_above(ms, Ms)``, which the canonical-coordinate recheck
    compares, and down masks ``_masks_above(-Ms, -ms)``.
    """
    by_value: dict[int, int] = {}
    for i, v in enumerate(values):
        by_value[v] = by_value.get(v, 0) | 1 << i
    distinct = sorted(by_value)
    above = [0] * (len(distinct) + 1)  # above[k]: valued distinct[k] or more
    for k in range(len(distinct) - 1, -1, -1):
        above[k] = above[k + 1] | by_value[distinct[k]]
    return tuple(above[bisect_right(distinct, c)] for c in cuts)


def _transpose(up: tuple[int, ...]) -> tuple[int, ...]:
    """Down masks of the up masks ``up``: bit i of row j set iff bit j of row i is.

    One pass per distinct up mask; a tame order has at most rank of them.
    """
    n = len(up)
    holders: dict[int, int] = {}
    for i, mask in enumerate(up):
        holders[mask] = holders.get(mask, 0) | 1 << i
    down = [0] * n
    for mask, below in holders.items():
        for j in at_set_bits(range(n), mask):
            down[j] |= below
    return tuple(down)


def _index_of(elements: tuple[Label, ...]) -> dict[Label, int]:
    """Position of each label; DuplicateElement on a repeated one.

    InvalidParameter on an unhashable label, which no dict can index.
    """
    index: dict[Label, int] = {}
    try:
        for i, label in enumerate(elements):
            if label in index:
                raise DuplicateElement(f"duplicate element {label!r}")
            index[label] = i
    except TypeError:
        raise InvalidParameter(f"element {label!r} is not hashable") from None
    return index


class Poset:
    """Immutable finite strict partial order.

    The element tuple fixes the index order used for deterministic tie
    breaking everywhere in the library.  ``up_masks[i]`` has bit ``j`` set
    exactly when ``elements[i] < elements[j]``.  The constructor takes only
    a closed strict order: one ``int`` mask per element, over element
    indices, irreflexive, antisymmetric and transitive.  It raises
    CycleDetected on a self-loop or a 2-cycle and InvalidParameter on
    anything else, naming the least failing element.  Use
    :func:`build_poset` to close an arbitrary generating set of pairs.
    """

    __slots__ = ("elements", "up_masks", "down_masks", "_index")

    def __init__(self, elements: Iterable[Label], up_masks: Iterable[int]):
        elements = tuple(elements)
        index = _index_of(elements)
        up = tuple(up_masks)
        n = len(elements)
        if len(up) != n:
            raise InvalidParameter(
                f"one up mask per element required, got {len(up)} for {n} elements"
            )
        for x, mask in zip(elements, up):
            if not isinstance(mask, int):
                raise InvalidParameter(f"up mask of {x!r} is not an int: {mask!r}")
            if mask >> n:
                raise InvalidParameter(
                    f"up mask of {x!r} refers to an element index out of range"
                )
        down = _transpose(up)
        for i, (x, mask) in enumerate(zip(elements, up)):
            if mask >> i & 1:
                raise CycleDetected(f"{x!r} below itself")
            if mask & down[i]:
                j = next(iter_bits(mask & down[i]))
                raise CycleDetected(f"{x!r} and {elements[j]!r} below each other")
        # transitive iff the up masks of u's members lie inside u, per distinct u
        checked: set[int] = set()
        for x, mask in zip(elements, up):
            if mask in checked:
                continue
            checked.add(mask)
            reach = 0
            for row in at_set_bits(up, mask):
                reach |= row
            if reach & ~mask:
                j = next(j for j in iter_bits(mask) if up[j] & ~mask)
                k = next(iter_bits(up[j] & ~mask))
                raise InvalidParameter(
                    f"relation not transitive at "
                    f"{x!r} < {elements[j]!r} < {elements[k]!r}"
                )
        self.elements = elements
        self.up_masks = up
        self.down_masks = down
        self._index = index

    @classmethod
    def _trusted(
        cls,
        elements: tuple[Label, ...],
        up: tuple[int, ...],
        down: tuple[int, ...],
        index: dict[Label, int],
    ) -> Poset:
        """Instance from distinct labels, their index dict and closed masks.

        Skips every check and the transpose: the caller guarantees that
        ``up`` is a closed strict order and ``down`` its transpose, which
        rebuilding the instance through the constructor rechecks.
        """
        self = object.__new__(cls)
        self.elements = elements
        self.up_masks = up
        self.down_masks = down
        self._index = index
        return self

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.up_masks == other.up_masks

    def __hash__(self) -> int:
        return hash((self.elements, self.up_masks))

    def __repr__(self) -> str:
        if len(self) <= 6:
            return f"Poset({list(self.elements)!r}, {self.pairs()!r})"
        return f"Poset(<{len(self)} elements, {self.num_relations} relations>)"

    def index(self, label: Label) -> int:
        """Dense index of ``label``; raises UnknownElement if absent."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown element {label!r}") from None
        except TypeError:
            raise UnknownElement(f"unhashable element {label!r}") from None

    def less(self, x: Label, y: Label) -> bool:
        """True iff x is strictly below y."""
        return bool(self.up_masks[self.index(x)] >> self.index(y) & 1)

    def pairs(self) -> list[tuple[Label, Label]]:
        """All related pairs (x, y) with x < y, sorted by element index."""
        out = []
        for x, mask in zip(self.elements, self.up_masks):
            out.extend((x, y) for y in at_set_bits(self.elements, mask))
        return out

    @property
    def num_relations(self) -> int:
        return sum(mask.bit_count() for mask in self.up_masks)


def build_poset(
    elements: Iterable[Label], pairs: Iterable[tuple[Label, Label]]
) -> Poset:
    """Build the poset generated by ``pairs``, closing transitively.

    The input pairs need not be transitively closed, distinct or in any
    order; :func:`_close` closes them.  Raises UnknownElement when a pair
    mentions a stranger, and DuplicateElement on repeated identifiers.
    """
    elements = tuple(elements)
    index = _index_of(elements)

    def lookup(label: Label) -> int:
        try:
            return index[label]
        except (KeyError, TypeError):
            raise UnknownElement(
                f"pair mentions unknown element {label!r}"
            ) from None

    src: list[int] = []
    dst: list[int] = []
    for a, b in pairs:
        try:
            i, j = index[a], index[b]
        except (KeyError, TypeError):
            i, j = lookup(a), lookup(b)
        src.append(i)
        dst.append(j)
    return _close(elements, index, src, dst)


def _close(
    elements: tuple[Label, ...],
    index: dict[Label, int],
    src: list[int],
    dst: list[int],
) -> Poset:
    """The poset on ``elements`` generated by the index pairs ``src[k] < dst[k]``.

    ``index`` maps each of the distinct ``elements`` to its position.  The
    closure takes O(n + m) big-integer ORs for n elements and m pairs:
    Kahn's algorithm orders the elements topologically.  A walk back along
    that order sets each element's up mask to the union of its direct
    successors and their up masks; a walk forward pushes each element and
    its down mask to its direct successors, so no mask is transposed.
    Elements that Kahn's pass cannot place lie on or below a cycle;
    CycleDetected then names the least-index element that reaches itself.
    """
    n = len(elements)
    direct: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, j in zip(src, dst):
        direct[i].append(j)
        indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is walked
        for j in direct[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        unplaced = (i for i in range(n) if indegree[i])
        i = _least_on_cycle(direct, unplaced)
        raise CycleDetected(f"closure relates {elements[i]!r} to itself")
    up = [0] * n
    reach = [0] * n  # up[i] with bit i itself
    for i in reversed(order):
        row = 0
        for j in direct[i]:
            row |= reach[j]
        up[i] = row
        reach[i] = row | 1 << i
    down = [0] * n
    for i in order:
        below = down[i] | 1 << i
        for j in direct[i]:
            down[j] |= below
    return Poset._trusted(elements, tuple(up), tuple(down), index)


def _least_on_cycle(direct: list[list[int]], candidates: Iterable[int]) -> int:
    """First of ``candidates`` that reaches itself along the ``direct`` lists."""
    for i in candidates:
        seen: set[int] = set()
        stack = [i]
        while stack:
            for j in direct[stack.pop()]:
                if j == i:
                    return i
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    raise ValueError("no element lies on a cycle")


def _compress_steps(keep: int, width: int) -> list[tuple[int, int]]:
    """The (move mask, shift) steps that pack the bits of ``keep`` into the low end.

    Warren's compress (Hacker's Delight, 2nd ed., section 7-4).  A bit of
    ``keep`` must fall by the number of dropped positions below it, at most
    d = ``width - keep.bit_count()``, so ceil(log2(d + 1)) steps of shift
    1, 2, 4, ... suffice: step i moves the bits whose fall has bit i set.
    That bit is the parity of the marks left in ``mk`` at or below the bit's
    position, a parallel prefix of log2(width) shifted XORs.  A row inside
    ``keep`` then packs as ``moved = row & move; row = row ^ moved | moved
    >> shift`` per step.  Steps that move no bit are left out.
    """
    mk = ~keep << 1 & (1 << width) - 1  # a mark just above each dropped position
    steps = []
    for i in range((width - keep.bit_count()).bit_length()):
        mp = mk ^ mk << 1
        span = 2
        while span < width:
            mp ^= mp << span
            span <<= 1
        move = mp & keep
        keep = keep ^ move | move >> (1 << i)
        mk &= ~mp
        if move:
            steps.append((move, 1 << i))
    return steps


def restrict(p: Poset, subset: Iterable[Label]) -> Poset:
    """Suborder induced on ``subset``, keeping p's element order.

    Every kept row, up or down, is packed by the steps of
    :func:`_compress_steps`, derived once per call: four big-integer
    operations per step, whatever the row holds.
    """
    keep = sorted({p.index(x) for x in subset})
    keep_mask = sum(1 << old for old in keep)
    steps = _compress_steps(keep_mask, len(p))

    def compress(row: int) -> int:
        row &= keep_mask
        for move, shift in steps:
            moved = row & move
            row = row ^ moved | moved >> shift
        return row

    elements = tuple(p.elements[old] for old in keep)
    return Poset._trusted(
        elements,
        tuple([compress(p.up_masks[old]) for old in keep]),
        tuple([compress(p.down_masks[old]) for old in keep]),
        {x: new for new, x in enumerate(elements)},
    )
