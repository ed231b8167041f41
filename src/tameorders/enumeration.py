"""Exhaustive and seeded-random poset generation, and the verification sweep.

The exhaustive generator drives the oracle-grade checks: over every labeled
poset on up to six points, tameness must coincide with embeddability of
the reduction into the template of its tame rank, a reduced tame poset
must embed into no template one narrower than its tame rank, and the
coordinate inequalities must hold.  Each narrower template
is a restriction of the next wider one (the points with b below its
width), so that one refutation proves the tame rank is the minimal width.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import tame
from .embedding import _Budget, _embeds, embeds_r22
from .errors import InvalidParameter, SizeLimitExceeded
from .poset import Poset, build_poset
from .templates import r_lambda
from .textfmt import poset_json

ENUMERATION_CAP = 6


def all_labeled_posets(n: int) -> Iterator[Poset]:
    """Every labeled strict partial order on elements "0".."n-1", once each.

    Grown element by element: a poset on m+1 points is a poset on m points
    plus a choice of (down-set, up-set) for the new point, where the
    down-set is downward closed, the up-set is upward closed, and every
    chosen lower element lies below every chosen upper one.  Each labeled
    poset arises from exactly one choice sequence, so the stream is
    duplicate-free; the order is deterministic.  ENUMERATION_CAP is the one
    limit of every exhaustive sweep: reading the stream raises
    InvalidParameter for n < 0 and SizeLimitExceeded for n above the cap.
    """
    if n < 0:
        raise InvalidParameter("element count must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeLimitExceeded(f"exhaustive enumeration capped at {ENUMERATION_CAP}")
    labels = tuple(str(i) for i in range(n))
    index = {x: i for i, x in enumerate(labels)}

    def grow(
        ups: tuple[int, ...], downs: tuple[int, ...]
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        m = len(ups)
        if m == n:
            yield ups, downs
            return
        new_bit = 1 << m
        for down in range(1 << m):
            below = 0
            allowed = (1 << m) - 1  # the points above every chosen lower one
            for x in range(m):
                if down >> x & 1:
                    below |= downs[x]
                    allowed &= ups[x]
            if below & ~down:
                continue  # down-set not downward closed
            up = 0
            while True:  # the subsets of allowed, ascending
                above = 0
                for x in range(m):
                    if up >> x & 1:
                        above |= ups[x]
                if not above & ~up:  # up-set upward closed
                    grown_ups = tuple(
                        ups[x] | (new_bit if down >> x & 1 else 0) for x in range(m)
                    ) + (up,)
                    grown_downs = tuple(
                        downs[x] | (new_bit if up >> x & 1 else 0) for x in range(m)
                    ) + (down,)
                    yield from grow(grown_ups, grown_downs)
                if up == allowed:
                    break
                up = ((up | ~allowed) + 1) & allowed

    for ups, downs in grow((), ()):
        yield Poset._trusted(labels, ups, downs, index)


def random_poset(n: int, edge_probability: float, seed: int) -> Poset:
    """Seeded random poset: random linear extension, independent edges.

    On elements "0".."n-1", draws a uniform permutation, keeps each
    permutation-compatible pair independently with ``edge_probability``,
    and closes transitively.  The same arguments always yield the same
    poset.  InvalidParameter for n < 0 or a probability outside [0, 1].
    """
    if n < 0:
        raise InvalidParameter("element count must be nonnegative")
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameter("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    labels = [str(i) for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                pairs.append((labels[perm[i]], labels[perm[j]]))
    return build_poset(labels, pairs)


class VerificationReport(NamedTuple):
    """Counts and counterexamples from a verification sweep."""

    n: int
    total: int
    tame_count: int
    counterexamples: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {**self._asdict(), "counterexamples": list(self.counterexamples)}


def check_poset(p: Poset, budget: int | None = None) -> tuple[bool, list[dict]]:
    """Run the per-instance verification checks; returns (is_tame, failures).

    One pattern scan gives the verdict; later checks reuse work already
    done and scan again only to name a witness after failing.  In order:
    "comparability" (up/down comparability characterizes pattern freeness);
    on tame inputs "rank-invariance" under ``reduce(check=True)``,
    "embed-tame" into the template of the rank, "minimality" (a reduced
    input of rank r >= 1 embeds into no width r - 1, so r is minimal) and,
    if unreduced, "claim-inequalities" (a reduced p is its own quotient,
    whose recheck is the same mask test); on non-tame inputs "embed-nontame"
    (no template), a search that places the scan's witness quadruple first,
    since no template hosts that copy of the pattern.  Each of the three
    searches asks only whether an embedding exists, so it runs one pass of
    ``embedding._embeds``, whose found image is verified before it counts,
    and no witness pass; each is bounded by ``budget`` on its own.
    """
    failures: list[dict] = []

    def fail(kind: str, detail: str) -> None:
        failures.append({"check": kind, "detail": detail, **poset_json(p)})

    witness = embeds_r22(p)
    tame_here = witness is None
    u_ok, d_ok = tame.u_comparable(p), tame.d_comparable(p)
    if tame_here != u_ok or tame_here != d_ok:
        fail(
            "comparability",
            f"witness={witness!r} u_comparable={u_ok} d_comparable={d_ok}",
        )
    if tame_here:
        quotient = tame.reduce(p, check=True).quotient
        # raises unless the quotient's coordinates pass their recheck
        quotient_rank = tame._reduced_coordinates(quotient)[0]
        # a reduced p is its own quotient, whose rank was just read
        rank = quotient_rank if quotient is p else tame._rank(p)
        if quotient_rank != rank:
            fail("rank-invariance", f"quotient rank {quotient_rank} != {rank}")
        if not _embeds(quotient, r_lambda(rank), _Budget(budget)):
            fail("embed-tame", f"no brute-force embedding into width {rank}")
        # reduce returns p itself when p is reduced: the recheck tested its claim
        if len(quotient) < len(p):
            if not tame.check_claim_inequalities(p):
                fail("claim-inequalities", "coordinate inequality violated")
        elif rank and _embeds(p, r_lambda(rank - 1), _Budget(budget)):
            fail("minimality", f"embeds into width {rank - 1} < tame rank {rank}")
    else:
        first = [p.index(x) for x in witness]
        if _embeds(p, r_lambda(len(p)), _Budget(budget), first):
            fail(
                "embed-nontame",
                f"non-tame poset embedded into width {len(p)}",
            )
    return tame_here, failures


def _sweep(
    n: int, posets: Iterable[Poset], budget: int | None
) -> VerificationReport:
    """Run ``check_poset`` on each poset in turn and tally the report."""
    total = 0
    tame_count = 0
    counterexamples: list[dict] = []
    for index, p in enumerate(posets):
        total += 1
        tame_here, failures = check_poset(p, budget=budget)
        tame_count += tame_here
        for failure in failures:
            counterexamples.append({"index": index, **failure})
    return VerificationReport(n, total, tame_count, tuple(counterexamples))


def verify_proposition(n: int, *, budget: int | None = None) -> VerificationReport:
    """Exhaustively verify the tame characterization over all labeled posets.

    Sweeps every poset that ``all_labeled_posets(n)`` yields, so n runs
    from 0 to ENUMERATION_CAP and its errors propagate before any check
    runs; n = 6 (130023 posets) takes about 20 s.  Expected outcome on
    every n: zero counterexamples.  A negative ``budget`` is refused first.
    """
    _Budget(budget)
    return _sweep(n, all_labeled_posets(n), budget)


def verify_sampled(
    n: int, count: int, seed: int, *, budget: int | None = None
) -> VerificationReport:
    """Run the per-instance checks on seeded random posets of size n.

    A negative ``budget`` is refused first, then a negative n or count.
    """
    _Budget(budget)
    if n < 0:
        raise InvalidParameter("element count must be nonnegative")
    if count < 0:
        raise InvalidParameter("sample count must be nonnegative")
    rng = random.Random(seed)
    samples = (
        random_poset(n, rng.random(), rng.getrandbits(32)) for _ in range(count)
    )
    return _sweep(n, samples, budget)
