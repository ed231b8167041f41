"""Tameness analysis: reduction, tame rank and the canonical coordinates.

A finite order is tame exactly when it avoids the two-disjoint-chains
pattern; the infinite second forbidden pattern cannot occur at finite scale,
which every report in this module takes for granted and documents.
"""

from __future__ import annotations

from typing import NamedTuple

from .embedding import embeds_r22
from .errors import InternalInvariantViolation, NotReduced, NotTame
from .poset import Label, Poset, _masks_above, is_chain, restrict


def u_comparable(p: Poset) -> bool:
    """True iff all up-sets are pairwise comparable under inclusion."""
    return is_chain(p.up_masks)


def d_comparable(p: Poset) -> bool:
    """True iff all down-sets are pairwise comparable under inclusion."""
    return is_chain(p.down_masks)


def is_reduced(p: Poset) -> bool:
    """True iff no two distinct elements share (down-set, up-set)."""
    return len(set(zip(p.down_masks, p.up_masks))) == len(p)


class ReductionResult(NamedTuple):
    """Quotient by the same-(d, u)-signature equivalence.

    The quotient's elements are the class representatives (least index per
    class), in first-occurrence order, and ``representatives`` returns them;
    ``class_of`` maps every original element to its class index.
    """

    quotient: Poset
    class_of: dict[Label, int]

    @property
    def representatives(self) -> tuple[Label, ...]:
        return self.quotient.elements


def reduce(p: Poset) -> ReductionResult:
    """Collapse elements with equal (down-set, up-set) signatures.

    The quotient is the suborder induced on the representatives, and ``p``
    itself when every class is a singleton; equal signatures make this
    independent of the choice, which ``check_poset`` rechecks.
    """
    class_of: dict[Label, int] = {}
    reps: list[Label] = []
    by_sig: dict[tuple[int, int], int] = {}
    for x, sig in zip(p.elements, zip(p.down_masks, p.up_masks)):
        if sig not in by_sig:
            by_sig[sig] = len(reps)
            reps.append(x)
        class_of[x] = by_sig[sig]
    quotient = p if len(reps) == len(p) else restrict(p, reps)
    return ReductionResult(quotient, class_of)


def _require_tame(p: Poset) -> None:
    witness = embeds_r22(p)
    if witness is not None:
        raise NotTame(witness)


def _rank(p: Poset) -> int:
    # distinct up-set complements are as many as distinct up-sets
    return len(set(p.up_masks))


def tame_rank(p: Poset) -> int:
    """Number of distinct up-set complements; the length of their chain.

    Defined for any tame poset, reduced or not; raises NotTame (with the
    witness quadruple) otherwise.
    """
    _require_tame(p)
    return _rank(p)


def _coordinates(p: Poset) -> tuple[list[int], list[int]]:
    """(m, M) per element index; the canonical coordinates when p is tame.

    m(x) counts the completed down-set family (the distinct down-sets and the
    empty set) strictly inside d(x), M(x) the distinct up-set complements
    strictly inside cu(x).  Both families are chains on a tame poset, so a
    set's size fixes its position: |d(x)| among the distinct down-set sizes
    and 0, n - |u(x)| among the distinct up-set complement sizes.
    """
    n = len(p)
    d_sizes = [m.bit_count() for m in p.down_masks]
    cu_sizes = [n - m.bit_count() for m in p.up_masks]
    d_pos = {size: k for k, size in enumerate(sorted({0, *d_sizes}))}
    cu_pos = {size: k for k, size in enumerate(sorted(set(cu_sizes)))}
    return [d_pos[size] for size in d_sizes], [cu_pos[size] for size in cu_sizes]


def _recheck(p: Poset, rank: int) -> tuple[list[int], list[int]] | None:
    """(m, M) of every element index if they pass their recheck, else None.

    The recheck is the claim behind the canonical embedding: every
    0 <= m <= M < rank, and M(x) < m(y) exactly when x < y, so the up-set of
    x is {y : m(y) > M(x)} as ``poset._masks_above`` builds it; passing
    coordinates embed p into a template and so prove it tame.
    """
    ms, Ms = _coordinates(p)
    in_range = all(0 <= m <= big < rank for m, big in zip(ms, Ms))
    if in_range and p.up_masks == _masks_above(ms, Ms):
        return ms, Ms
    return None


def _canonical_coordinates(p: Poset) -> tuple[int, list[int], list[int]]:
    """Tame rank and the (m, M) of every element index, which one class shares.

    On a failed ``_recheck`` the pattern scan raises NotTame with the
    witness, else InternalInvariantViolation.
    """
    rank = _rank(p)
    if (coordinates := _recheck(p, rank)) is None:
        _require_tame(p)
        raise InternalInvariantViolation("canonical coordinates failed their recheck")
    return rank, *coordinates


def _reduced_coordinates(p: Poset) -> tuple[int, list[int], list[int]]:
    """``_canonical_coordinates`` of a reduced poset, else NotReduced.

    NotTame (with the witness) comes first on non-tame input.
    """
    if not is_reduced(p):
        _require_tame(p)
        raise NotReduced("canonical embedding wants a reduced poset")
    return _canonical_coordinates(p)


class _TameFields(NamedTuple):
    witness: tuple[Label, Label, Label, Label] | None = None
    tame_rank: int | None = None
    coordinates: dict[Label, tuple[int, int]] | None = None


class TameReport(_TameFields):
    """Verdict of a tameness check.

    Exactly one of ``witness`` (quadruple from the forbidden pattern) and
    ``tame_rank`` is present, and ``tame`` says which; ``coordinates``
    ({x: (m, M)}) only for tame, reduced inputs.  Only the 4-element
    pattern is ever consulted: the infinite forbidden pattern cannot embed
    into a finite order.
    """

    __slots__ = ()

    def __new__(cls, witness=None, tame_rank=None, coordinates=None):
        if (witness is None) == (tame_rank is None):
            raise ValueError("exactly one of witness/tame_rank must be present")
        if coordinates is not None and tame_rank is None:
            raise ValueError("coordinates need a tame_rank")
        return super().__new__(cls, witness, tame_rank, coordinates)

    @property
    def tame(self) -> bool:
        return self.witness is None

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)


def is_tame(p: Poset) -> TameReport:
    """Tameness verdict with witness or rank, plus the canonical coordinates.

    The coordinates are included only when the input is already reduced;
    ``canonical_embedding`` gives them as an embedding into the template.
    """
    witness = embeds_r22(p)
    if witness is not None:
        return TameReport(witness=witness)
    if not is_reduced(p):
        return TameReport(tame_rank=_rank(p))
    rank, ms, Ms = _canonical_coordinates(p)
    return TameReport(tame_rank=rank, coordinates=dict(zip(p.elements, zip(ms, Ms))))
