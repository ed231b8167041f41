"""Finite strict partial orders backed by per-element bitmasks."""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator, Sequence
from operator import itemgetter

from .errors import CycleDetected, DuplicateElement, UnknownElement

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
        if mask >> n:
            raise ValueError("up mask refers to an element index out of range")
        for j in iter_bits(mask):
            down[j] |= below
    return tuple(down)


def _index_of(elements: tuple[Label, ...]) -> dict[Label, int]:
    """Position of each label; DuplicateElement on a repeated one."""
    index: dict[Label, int] = {}
    for i, label in enumerate(elements):
        if label in index:
            raise DuplicateElement(f"duplicate element {label!r}")
        index[label] = i
    return index


class Poset:
    """Immutable finite strict partial order.

    The element tuple fixes the index order used for deterministic tie
    breaking everywhere in the library.  ``up_masks[i]`` has bit ``j`` set
    exactly when ``elements[i] < elements[j]``; the relation handed to this
    constructor must already be transitively closed and irreflexive.  Use
    :func:`build_poset` to close an arbitrary generating set of pairs, and
    :meth:`validate` to recheck the axioms of a hand-built instance.
    """

    __slots__ = ("elements", "up_masks", "down_masks", "_index")

    def __init__(self, elements: Iterable[Label], up_masks: Iterable[int]):
        elements = tuple(elements)
        index = _index_of(elements)
        up = tuple(up_masks)
        if len(up) != len(elements):
            raise ValueError("one up mask per element required")
        self.elements = elements
        self.up_masks = up
        self.down_masks = _transpose(up)
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
        ``down`` is the transpose of ``up``, which :meth:`validate` rechecks.
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
        for i, mask in enumerate(self.up_masks):
            x = self.elements[i]
            out.extend((x, self.elements[j]) for j in iter_bits(mask))
        return out

    @property
    def num_relations(self) -> int:
        return sum(mask.bit_count() for mask in self.up_masks)

    def label_set(self, mask: int) -> frozenset[Label]:
        """Labels of the elements whose index bits are set in ``mask``."""
        return frozenset(self.elements[i] for i in iter_bits(mask))

    def validate(self) -> None:
        """Recheck the masks and the order axioms; raise on failure.

        The down masks must be exactly the transpose of the up masks, and the
        relation irreflexive, antisymmetric and transitive.
        """
        n = len(self)
        if len(self.up_masks) != n or len(self.down_masks) != n:
            raise ValueError("one up mask and one down mask per element required")
        transpose = _transpose(self.up_masks)
        for x, have, want in zip(self.elements, self.down_masks, transpose):
            if have != want:
                raise ValueError(
                    f"down mask of {x!r} is not the transpose of the up masks"
                )
        for i in range(n):
            mask = self.up_masks[i]
            if mask >> i & 1:
                raise CycleDetected(f"{self.elements[i]!r} below itself")
            if mask & self.down_masks[i]:
                j = next(iter_bits(mask & self.down_masks[i]))
                raise CycleDetected(
                    f"{self.elements[i]!r} and {self.elements[j]!r} below each other"
                )
            for j in iter_bits(mask):
                if self.up_masks[j] & ~mask:
                    k = next(iter_bits(self.up_masks[j] & ~mask))
                    raise ValueError(
                        f"relation not transitive at "
                        f"{self.elements[i]!r} < {self.elements[j]!r} < {self.elements[k]!r}"
                    )


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


def down_set(p: Poset, x: Label) -> frozenset[Label]:
    """Strict down-set {z : z < x}."""
    return p.label_set(p.down_masks[p.index(x)])


def up_set(p: Poset, x: Label) -> frozenset[Label]:
    """Strict up-set {z : x < z}."""
    return p.label_set(p.up_masks[p.index(x)])


def cu_set(p: Poset, x: Label) -> frozenset[Label]:
    """Complement of the up-set: {y : not x < y}.  Contains x itself."""
    full = (1 << len(p)) - 1
    return p.label_set(full & ~p.up_masks[p.index(x)])


def restrict(p: Poset, subset: Iterable[Label]) -> Poset:
    """Suborder induced on ``subset``, keeping p's element order.

    Each distinct kept row, up or down, is compressed once.  Dense rows (see
    :func:`_dense`) go through their bit string in one linear pass; the
    others move one set bit at a time.
    """
    keep = sorted({p.index(x) for x in subset})
    width = len(p)
    pos = {old: new for new, old in enumerate(keep)}
    keep_mask = sum(1 << old for old in keep)
    pick = itemgetter(*keep) if width > 64 and keep else None
    compressed = {0: 0}

    def compress(row: int) -> int:
        row &= keep_mask
        out = compressed.get(row)
        if out is None:
            if _dense(row, width):
                out = int("".join(pick(format(row, f"0{width}b")[::-1]))[::-1], 2)
            else:
                out = sum(1 << pos[j] for j in iter_bits(row))
            compressed[row] = out
        return out

    elements = tuple(p.elements[old] for old in keep)
    return Poset._trusted(
        elements,
        tuple([compress(p.up_masks[old]) for old in keep]),
        tuple([compress(p.down_masks[old]) for old in keep]),
        {x: new for new, x in enumerate(elements)},
    )


def well_founded_rank(p: Poset) -> int:
    """Number of elements in a longest chain; 0 for the empty poset.

    Element ranks follow rank(x) = max(rank(y) + 1 for y < x), minimal
    elements at 0; the poset rank is max(rank(x)) + 1.
    """
    n = len(p)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda i: p.down_masks[i].bit_count())
    rank = [0] * n
    for i in order:
        below = p.down_masks[i]
        rank[i] = max((rank[j] + 1 for j in iter_bits(below)), default=0)
    return max(rank) + 1
