"""Template orders on coordinate pairs, inflation, and realization.

The template of width ``lam`` lives on the pairs (a, b) with a <= b < lam,
ordered by (a, b) < (a2, b2) iff b < a2.  Every tame finite order arises,
up to isomorphism, as a restriction of an inflated template.  The
coordinates (m(x), M(x)) alone decide that restriction, so ``realize``
builds no template; ``RealizeResult.inflated`` builds one on demand.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .embedding import Embedding
from .errors import FormatError, InvalidMultiplicity, InvalidParameter
from .poset import Label, Poset, iter_bits


class OrderPair(NamedTuple):
    """A template element (alpha, beta) with alpha <= beta, labeled "a,b"."""

    alpha: int
    beta: int

    @property
    def label(self) -> str:
        return f"{self.alpha},{self.beta}"

    @classmethod
    def parse(cls, label: str) -> "OrderPair":
        try:
            a, b = str(label).split(",")
            return cls(int(a), int(b))
        except ValueError:
            raise FormatError(f"not an order pair label: {label!r}") from None


class InflatedPoint(NamedTuple):
    """A copy of a base element, labeled "<base>#<copy>"."""

    base: str
    copy: int

    @property
    def label(self) -> str:
        return f"{self.base}#{self.copy}"

    @classmethod
    def parse(cls, label: str) -> "InflatedPoint":
        base, _, copy = str(label).rpartition("#")
        if not base or not copy.isdigit():
            raise FormatError(f"not an inflated point label: {label!r}")
        return cls(base, int(copy))


def order_pair_label(alpha: int, beta: int) -> str:
    """Label of the template element (alpha, beta)."""
    return OrderPair(alpha, beta).label


def parse_order_pair(label: str) -> tuple[int, int]:
    """Inverse of order_pair_label."""
    return tuple(OrderPair.parse(label))


@lru_cache(maxsize=128)
def r_lambda(lam: int) -> Poset:
    """The template order of width ``lam``: lam*(lam+1)/2 coordinate pairs.

    Elements are labeled "a,b" and listed lexicographically; the relation
    (a, b) < (a2, b2) iff b < a2 is already transitively closed.  There is
    no width limit.  Of the tame pipeline only ``canonical_embedding`` builds
    one, of width r = tame rank <= number of elements.
    """
    if lam < 0:
        raise InvalidParameter("template width must be nonnegative")
    labels = []
    betas = []
    for a in range(lam):
        for b in range(a, lam):
            labels.append(order_pair_label(a, b))
            betas.append(b)
    n = len(labels)
    # elements with alpha >= v form a contiguous index suffix
    offset = [v * lam - v * (v - 1) // 2 for v in range(lam + 1)]
    suffix = [((1 << (n - offset[v])) - 1) << offset[v] for v in range(lam + 1)]
    masks = [suffix[b + 1] for b in betas]
    return Poset(labels, masks)


def inflate(
    base: Poset, multiplicity: dict[Label, int]
) -> tuple[Poset, dict[Label, Label]]:
    """Replace each element by pairwise-incomparable copies.

    Element x with multiplicity k becomes copies "x#0" .. "x#k-1"; copies
    relate exactly as their base elements do.  Elements missing from
    ``multiplicity`` default to one copy.  Returns the inflated poset and
    the projection from copies back to base elements.
    """
    mult = {}
    for x, k in multiplicity.items():
        base.index(x)
        if not isinstance(k, int) or k < 1:
            raise InvalidMultiplicity(f"multiplicity of {x!r} must be >= 1, got {k!r}")
        mult[x] = k
    counts = [mult.get(x, 1) for x in base.elements]
    offsets = []
    total = 0
    for k in counts:
        offsets.append(total)
        total += k
    block = [((1 << k) - 1) << off for k, off in zip(counts, offsets)]
    labels: list[str] = []
    projection: dict[Label, Label] = {}
    masks: list[int] = []
    expanded_of: dict[int, int] = {}
    for i, x in enumerate(base.elements):
        row = base.up_masks[i]
        if row not in expanded_of:
            # the blocks are disjoint, so their sum is their union
            expanded_of[row] = sum(block[j] for j in iter_bits(row))
        expanded = expanded_of[row]
        for copy in range(counts[i]):
            label = InflatedPoint(str(x), copy).label
            labels.append(label)
            projection[label] = x
            masks.append(expanded)
    return Poset(labels, masks), projection


def cummings_blocks(o: int) -> Poset:
    """Block order on pairs (a, b) with a < o and b in {a+1..o-1} or inf.

    (a2, b2) < (a, b) iff b2 <= a, where the infinite marker compares above
    every natural (so b2 = inf never relates upward).  Serialized labels
    use the token "inf".
    """
    if o < 1:
        raise InvalidParameter("cummings_blocks wants o >= 1")
    items: list[tuple[int, int | None]] = []
    for a in range(o):
        items.extend((a, b) for b in range(a + 1, o))
        items.append((a, None))
    labels = [f"{a},{'inf' if b is None else b}" for a, b in items]
    masks = []
    for a, b in items:
        mask = 0
        if b is not None:
            for j, (a2, _b2) in enumerate(items):
                if b <= a2:
                    mask |= 1 << j
        masks.append(mask)
    return Poset(labels, masks)


@dataclass(frozen=True)
class RealizeResult:
    """Outcome of the realization pipeline.

    ``w`` names the selected copies of the template of width ``rank``,
    inflated as ``inflated`` (built on first access); ``iso`` is the
    verified isomorphism from the restriction onto the original input.
    """

    w: tuple[Label, ...]
    iso: Embedding
    rank: int

    @cached_property
    def inflated(self) -> Poset:
        multiplicity = Counter(InflatedPoint.parse(x).base for x in self.w)
        return inflate(r_lambda(self.rank), multiplicity)[0]

    def to_json(self) -> dict:
        return {"w": [str(x) for x in self.w], "iso": self.iso.to_json()}


def realize(s: Poset) -> RealizeResult:
    """Produce a tame order as a restriction of an inflated template.

    Element x becomes a copy of the point (m(x), M(x)), so every class
    inflates its point to the class size.  ``w`` lists the copies in
    (m, M, element index) order, their order in the inflated template; the
    copies above one form a suffix of ``w``.  The coordinates' recheck
    verifies ``iso``.  Raises NotTame (with witness) on non-tame input.
    Only the order-theoretic restriction step is modeled: picking the
    points out of a larger ambient structure adds nothing combinatorial.
    """
    from . import tame

    rank, ms, Ms = tame._canonical_coordinates(s)
    copies = Counter()
    labels = []
    for point in zip(ms, Ms):
        labels.append(InflatedPoint(order_pair_label(*point), copies[point]).label)
        copies[point] += 1
    order = sorted(range(len(s)), key=lambda i: (ms[i], Ms[i], i))
    sorted_m = [ms[i] for i in order]
    full = (1 << len(s)) - 1
    ups = [full ^ ((1 << bisect_right(sorted_m, Ms[i])) - 1) for i in order]
    source = Poset([labels[i] for i in order], ups)
    iso = Embedding(source, s, dict(zip(labels, s.elements)), verified=True)
    return RealizeResult(source.elements, iso, rank)
