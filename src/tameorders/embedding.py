"""Order embeddings: pattern constructors, search, and verification.

An embedding here is always two-way: an injection pi with x < y exactly when
pi(x) < pi(y), so both comparability and incomparability are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import BudgetExceeded, InternalInvariantViolation, InvalidParameter, UnknownElement
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
        self.left = nodes

    def spend(self) -> None:
        if self.left is None:
            return
        if self.left <= 0:
            raise BudgetExceeded("embedding search exceeded its node budget")
        self.left -= 1


def _search(
    pattern: Poset, target: Poset, order: list[int], budget: _Budget
) -> list[int] | None:
    """Backtracking search for a two-way embedding, assigning ``order`` in turn.

    Returns the image index per pattern element, or None.  Candidates are
    tried in ascending target index, so with ``order`` equal to the identity
    the first hit is the lexicographically least embedding.
    """
    k, n = len(pattern), len(target)
    pd = [m.bit_count() for m in pattern.down_masks]
    pu = [m.bit_count() for m in pattern.up_masks]
    td = [m.bit_count() for m in target.down_masks]
    tu = [m.bit_count() for m in target.up_masks]
    image = [-1] * k
    used = [False] * n

    def assign(depth: int) -> bool:
        if depth == k:
            return True
        s = order[depth]
        for t in range(n):
            if used[t] or td[t] < pd[s] or tu[t] < pu[s]:
                continue
            budget.spend()
            ok = True
            for d2 in range(depth):
                s2 = order[d2]
                t2 = image[s2]
                if (pattern.up_masks[s2] >> s & 1) != (target.up_masks[t2] >> t & 1):
                    ok = False
                    break
                if (pattern.up_masks[s] >> s2 & 1) != (target.up_masks[t] >> t2 & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[s] = t
            used[t] = True
            if assign(depth + 1):
                return True
            image[s] = -1
            used[t] = False
        return False

    return image if assign(0) else None


def find_embedding(
    pattern: Poset, target: Poset, *, budget: int | None = None
) -> Embedding | None:
    """Least two-way embedding of ``pattern`` into ``target``, or None.

    When an embedding exists, the returned one is lexicographically least
    under element index order, and comes back verified.  Absence is decided
    first with a most-constrained-first assignment order, which fails fast on
    impossible instances; the witness pass then reruns in index order.
    ``budget`` caps the total number of attempted assignments across both
    passes (BudgetExceeded rather than a wrong answer).
    """
    k = len(pattern)
    shared = _Budget(budget)
    degree = [
        pattern.down_masks[i].bit_count() + pattern.up_masks[i].bit_count()
        for i in range(k)
    ]
    decide_order = sorted(range(k), key=lambda i: (-degree[i], i))
    if _search(pattern, target, decide_order, shared) is None:
        return None
    image = _search(pattern, target, list(range(k)), shared)
    if image is None:
        raise InternalInvariantViolation("embedding vanished between search passes")
    mapping = {
        pattern.elements[i]: target.elements[image[i]] for i in range(k)
    }
    emb = Embedding(pattern, target, mapping)
    if not verify_embedding(emb):
        raise InternalInvariantViolation("search produced a non-embedding")
    return replace(emb, verified=True)


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
    for ix in range(n):
        for ix2 in range(n):
            if ix == ix2:
                continue
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
    emb = Embedding(pat, p, {"x0": x, "x1": x2, "y0": y, "y1": y2})
    if not verify_embedding(emb):
        raise InternalInvariantViolation("witness quadruple is not a pattern copy")
    return replace(emb, verified=True)
