"""Tameness analysis: reduction, set families, tame rank, canonical embedding.

A finite order is tame exactly when it avoids the two-disjoint-chains
pattern; the infinite second forbidden pattern cannot occur at finite scale,
which every report in this module takes for granted and documents.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .embedding import Embedding, embeds_r22, find_embedding
from .errors import InternalInvariantViolation, NotReduced, NotTame
from .poset import Label, Poset, is_chain, restrict
from .templates import _masks_above, order_pair_label, r_lambda


def u_comparable(p: Poset) -> bool:
    """True iff all up-sets are pairwise comparable under inclusion."""
    return is_chain(p.up_masks)


def d_comparable(p: Poset) -> bool:
    """True iff all down-sets are pairwise comparable under inclusion."""
    return is_chain(p.down_masks)


def is_reduced(p: Poset) -> bool:
    """True iff no two distinct elements share (down-set, up-set)."""
    return len(set(zip(p.down_masks, p.up_masks))) == len(p)


@dataclass(frozen=True)
class ReductionResult:
    """Quotient by the same-(d, u)-signature equivalence.

    The quotient's elements are the class representatives (least index per
    class), in first-occurrence order; ``class_of`` maps every original
    element to its class index.
    """

    quotient: Poset
    class_of: dict[Label, int]
    representatives: tuple[Label, ...]

    def members(self, class_index: int) -> list[Label]:
        return [x for x in self.class_of if self.class_of[x] == class_index]


def reduce(p: Poset, *, check: bool = False) -> ReductionResult:
    """Collapse elements with equal (down-set, up-set) signatures.

    The quotient is the suborder induced on the representatives, and ``p``
    itself when every class is a singleton; equal signatures make this
    independent of the choice, which ``check=True`` rechecks across every
    cross pair when some class has several members.
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
    result = ReductionResult(quotient, class_of, tuple(reps))
    if check and quotient is not p:
        for ix, x in enumerate(p.elements):
            cx = class_of[x]
            for iy, y in enumerate(p.elements):
                related = bool(p.up_masks[ix] >> iy & 1)
                collapsed = bool(quotient.up_masks[cx] >> class_of[y] & 1)
                if related != collapsed:
                    raise InternalInvariantViolation(
                        f"quotient relation ill-defined at {x!r}, {y!r}"
                    )
    return result


@dataclass(frozen=True)
class SetFamily(Sequence):
    """A duplicate-free family of element sets.

    ``linear`` reports whether the family is sorted strictly increasing
    under inclusion, which holds whenever the poset avoids the forbidden
    pattern; otherwise the order is merely deterministic (by cardinality,
    then index mask).
    """

    sets: tuple[frozenset, ...]
    linear: bool

    def __getitem__(self, i):
        return self.sets[i]

    def __len__(self) -> int:
        return len(self.sets)


def _family(p: Poset, masks: Sequence[int]) -> SetFamily:
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    return SetFamily(tuple(p.label_set(m) for m in unique), is_chain(unique))


def d_family(p: Poset) -> SetFamily:
    """The distinct down-sets, inclusion-sorted when that order is linear."""
    return _family(p, p.down_masks)


def cu_family(p: Poset) -> SetFamily:
    """The distinct up-set complements, inclusion-sorted when linear."""
    full = (1 << len(p)) - 1
    return _family(p, [full & ~m for m in p.up_masks])


def frak_d_family(p: Poset) -> SetFamily:
    """The completed down-set family: the distinct down-sets plus the empty set.

    The completion adds the unions of inclusion-downward-closed subfamilies.
    On a tame poset the down-sets form a chain, so every such union is a
    down-set already or empty; the family is built that way on any input,
    with no size limit.
    """
    return _family(p, [0, *p.down_masks])


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

    The completed down-set family and the up-set complements of a tame
    poset are chains, so a set's size fixes its position: m(x) is the position of |d(x)| among
    the distinct down-set sizes plus 0, M(x) that of n - |u(x)| among the
    distinct up-set complement sizes.
    """
    n = len(p)
    d_sizes = [m.bit_count() for m in p.down_masks]
    cu_sizes = [n - m.bit_count() for m in p.up_masks]
    d_pos = {size: k for k, size in enumerate(sorted({0, *d_sizes}))}
    cu_pos = {size: k for k, size in enumerate(sorted(set(cu_sizes)))}
    return [d_pos[size] for size in d_sizes], [cu_pos[size] for size in cu_sizes]


def _canonical_coordinates(p: Poset) -> tuple[int, list[int], list[int]]:
    """Tame rank and the rechecked (m, M) of every element index.

    The elements of one class share their coordinates.  The recheck: every
    0 <= m <= M < rank, and the up-set of x is {y : m(y) > M(x)}, as
    ``templates._masks_above`` builds it.  Passing coordinates embed p into
    a template and so prove it tame; on failure the pattern scan raises
    NotTame with the witness, else InternalInvariantViolation.
    """
    rank = _rank(p)
    ms, Ms = _coordinates(p)
    in_range = all(0 <= m <= big < rank for m, big in zip(ms, Ms))
    if not in_range or p.up_masks != _masks_above(ms, Ms):
        _require_tame(p)
        raise InternalInvariantViolation("canonical coordinates failed their recheck")
    return rank, ms, Ms


def m_value(p: Poset, x: Label) -> int:
    """How many members of the completed down-set family sit strictly below d(x)."""
    return _canonical_coordinates(p)[1][p.index(x)]


def M_value(p: Poset, x: Label) -> int:
    """How many distinct up-set complements sit strictly below cu(x)."""
    return _canonical_coordinates(p)[2][p.index(x)]


def canonical_embedding(p: Poset) -> Embedding:
    """Embed a reduced tame poset into the template of its tame rank.

    Maps x to its rechecked coordinate pair (m(x), M(x)).  The template has
    width r = tame rank <= len(p), with no other limit; this is the one
    place in the pipeline that builds it.
    """
    if not is_reduced(p):
        _require_tame(p)
        raise NotReduced("canonical embedding wants a reduced poset")
    rank, ms, Ms = _canonical_coordinates(p)
    mapping = {x: order_pair_label(m, big) for x, m, big in zip(p.elements, ms, Ms)}
    return Embedding(p, r_lambda(rank), mapping, verified=True)


def minimal_rank_bruteforce(p: Poset, *, budget: int | None = None) -> int:
    """Least lam such that p embeds into the lam template, by ascending search.

    The definition-level oracle for the tame rank of a reduced tame poset:
    it tries every width 0, 1, ... in turn.  There is no size limit; the
    searches grow steeply with long chains, and ``budget`` bounds each one
    (BudgetExceeded when a search overruns it).
    """
    _require_tame(p)
    if not is_reduced(p):
        raise NotReduced("minimal rank search wants a reduced poset")
    for lam in range(len(p) + 1):
        if find_embedding(p, r_lambda(lam), budget=budget) is not None:
            return lam
    raise InternalInvariantViolation("reduced tame poset embedded nowhere")


def check_claim_inequalities(p: Poset) -> bool:
    """Coordinate inequalities behind the canonical embedding.

    Checks m(x) <= M(x) for every x, M(x) < m(y) whenever x < y, and
    m(y) <= M(x) whenever x is not below y (including incomparable pairs
    and y < x, exactly as quantified).  Passing inequalities make p an
    interval order, hence tame, so the pattern scan runs only after one
    fails: NotTame (with the witness) on non-tame input, else False.
    """
    ms, Ms = _coordinates(p)
    n = len(p)
    ok = all(
        Ms[i] < ms[j] if p.up_masks[i] >> j & 1 else ms[j] <= Ms[i]
        for i in range(n)
        for j in range(n)
    )
    if not ok:
        _require_tame(p)
    return ok


@dataclass(frozen=True)
class TameReport:
    """Verdict of a tameness check.

    Exactly one of ``witness`` (quadruple from the forbidden pattern) and
    ``tame_rank`` is present; ``coordinates`` ({x: (m, M)}) only for tame,
    reduced inputs.  Only the 4-element pattern is ever consulted: the
    infinite forbidden pattern cannot embed into a finite order.
    """

    tame: bool
    witness: tuple[Label, Label, Label, Label] | None = None
    tame_rank: int | None = None
    coordinates: dict[Label, tuple[int, int]] | None = None

    def __post_init__(self):
        if (self.witness is None) == (self.tame_rank is None):
            raise ValueError("exactly one of witness/tame_rank must be present")

    def to_json(self) -> dict:
        out: dict = {"tame": self.tame}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        if self.tame_rank is not None:
            out["tame_rank"] = self.tame_rank
        if self.coordinates is not None:
            out["embedding"] = {str(x): list(c) for x, c in self.coordinates.items()}
        return out


def is_tame(p: Poset) -> TameReport:
    """Tameness verdict with witness or rank, plus the canonical coordinates.

    The coordinates are included only when the input is already reduced;
    ``canonical_embedding`` gives them as an embedding into the template.
    """
    witness = embeds_r22(p)
    if witness is not None:
        return TameReport(tame=False, witness=witness)
    if not is_reduced(p):
        return TameReport(tame=True, tame_rank=_rank(p))
    rank, ms, Ms = _canonical_coordinates(p)
    coordinates = dict(zip(p.elements, zip(ms, Ms)))
    return TameReport(tame=True, tame_rank=rank, coordinates=coordinates)
