"""Template orders on coordinate pairs, inflation, and realization.

The template of width ``lam`` lives on the pairs (a, b) with a <= b < lam,
ordered by (a, b) < (a2, b2) iff b < a2.  Every tame finite order arises,
up to isomorphism, as a restriction of an inflated template; ``realize``
walks that pipeline: reduce, embed canonically, inflate each point to its
class size, restrict to the image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

from .embedding import Embedding, embeds_r22, verify_embedding
from .errors import (
    FormatError,
    InternalInvariantViolation,
    InvalidMultiplicity,
    InvalidParameter,
    NotTame,
)
from .poset import Label, Poset, iter_bits, restrict


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
    no width limit.  The canonical embedding, and so ``realize`` and the
    tameness report of a reduced input, build one template, of width
    r = tame rank <= number of elements.
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

    ``w`` names the selected copies inside ``inflated``; ``iso`` is the
    verified isomorphism from the restriction onto the original input.
    """

    inflated: Poset
    w: tuple[Label, ...]
    iso: Embedding

    def to_json(self) -> dict:
        return {"w": [str(x) for x in self.w], "iso": self.iso.to_json()}


def realize(s: Poset) -> RealizeResult:
    """Produce a tame order as a restriction of an inflated template.

    Reduces the input, embeds the quotient canonically into the template of
    its tame rank, inflates every image point to its class size, and
    restricts to the image copies.  Copy indices follow ascending element
    index within each class, so the result is deterministic.  Raises
    NotTame (with witness) on non-tame input.

    Only the order-theoretic restriction step is modeled here; picking the
    points out of a larger ambient structure has no combinatorial content
    beyond it.
    """
    witness = embeds_r22(s)
    if witness is not None:
        raise NotTame(witness)
    from . import tame

    reduction = tame.reduce(s)
    emb = tame.canonical_embedding(reduction.quotient)
    image_of_class = [emb.mapping[rep] for rep in reduction.representatives]
    multiplicity: dict[Label, int] = {}
    mapping: dict[Label, Label] = {}
    for x in s.elements:
        point = image_of_class[reduction.class_of[x]]
        copy = multiplicity.get(point, 0)
        multiplicity[point] = copy + 1
        mapping[InflatedPoint(point, copy).label] = x
    inflated, _projection = inflate(emb.target, multiplicity)
    w = tuple(x for x in inflated.elements if x in mapping)
    iso = Embedding(restrict(inflated, w), s, mapping)
    if not verify_embedding(iso) or len(mapping) != len(s):
        raise InternalInvariantViolation("realization restriction failed to match")
    return RealizeResult(inflated, w, replace(iso, verified=True))
