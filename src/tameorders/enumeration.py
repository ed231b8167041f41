"""Exhaustive and seeded-random poset generation, and the verification sweep.

The exhaustive generator grows each poset from its ideals, listed once, and
their complements, the filters.  It drives the oracle-grade checks: over
every labeled poset on up to seven points, tameness must coincide with
embeddability of the reduction, a well-defined reduced quotient, into the
template of its tame rank, a reduced tame poset must embed into no template
one narrower, and the coordinate inequalities must hold.  Each narrower
template is a restriction of the next wider one (the points with b below
its width), so that one refutation proves the tame rank is the minimal width.
The sweep computes each repeated answer once per share of the stream: a
non-tame poset's check refutes its witness ``2+2`` into one template of
width at most 8, and a tame poset's searches run once per isomorphism
class and width, the class read off its rechecked (m, M) coordinates.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import tame
from .embedding import _Budget, _embeds, embeds_r22, pattern_r22
from .errors import InternalInvariantViolation, InvalidParameter, SizeLimitExceeded
from .poset import Poset, at_set_bits, build_poset
from .templates import r_lambda

ENUMERATION_CAP = 7

_R22 = pattern_r22()  # the non-tame refutation's pattern, built once


def all_labeled_posets(n: int) -> Iterator[Poset]:
    """Every labeled strict partial order on elements "0".."n-1", once each.

    Grown element by element: a poset on m+1 points is a poset on m points
    plus an (ideal, filter) pair for the new point, where every point of
    the ideal lies below every point of the filter.  Each m-point poset
    lists its ideals once, as the unions of its principal ideals, and its
    filters are their complements; each ideal D, ascending, takes every
    filter inside the points above all of D, ascending.  Each labeled
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
        # each ideal, with the points above all of it: the ideals are the
        # unions of principal ones, and above(D | E) = above(D) & above(E)
        above = {0: new_bit - 1}
        for x in range(m):
            for ideal, allowed in list(above.items()):
                above[ideal | downs[x] | 1 << x] = allowed & ups[x]
        ideals = sorted(above)
        # the filters, ascending, each with its grown down rows
        filters = [
            (up, tuple(d | new_bit if up >> x & 1 else d for x, d in enumerate(downs)))
            for up in ((new_bit - 1) ^ ideal for ideal in reversed(ideals))
        ]
        for down in ideals:
            allowed = above[down]
            grown = tuple(u | new_bit if down >> x & 1 else u for x, u in enumerate(ups))
            for up, grown_downs in filters:
                if not up & ~allowed:
                    yield from grow(grown + (up,), grown_downs + (down,))

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
    """Counts and counterexamples from a verification sweep.

    A counterexample is a ``check_poset`` failure and its stream "index".
    """

    n: int
    total: int
    tame_count: int
    counterexamples: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_poset(
    p: Poset, budget: int | None = None, *, verdicts: dict | None = None
) -> tuple[bool, list[dict]]:
    """Run the per-instance verification checks; returns (is_tame, failures).

    Every failed claim is a failure {"check", "detail", "poset": p} in the
    list; only a search raises, over ``budget`` or on a found image that
    fails its own check.  One pattern scan gives the verdict, and no later
    check scans again.  In order: "comparability" (up/down comparability
    characterizes pattern freeness); on tame inputs "quotient" (``reduce``'s
    quotient is reduced, and lifted back through ``class_of`` it gives each
    element its own up-set), "rank-invariance" (the quotient's rank is
    p's), "claim-inequalities" (p's coordinates pass ``tame._recheck``),
    "embed-tame" (the quotient embeds into the template of the rank) and,
    on reduced p of rank r >= 1, "minimality" (no embedding into width
    r - 1, so r is minimal); on non-tame inputs "embed-nontame" (no
    template): the scan's witness (x, x2, y, y2) must be an induced ``2+2``
    of p, that is x < y and x2 < y2 with neither x2 < y nor x < y2; by
    transitivity these four relations leave every other pair incomparable.
    A two-way embedding restricts to that copy, so p embeds into no
    template once ``2+2`` embeds into none.  Four intervals have at most 8
    endpoints, and renumbering them in order keeps every relation, so a
    template wider than 8 holds a ``2+2`` only if the one of width 8 does;
    the refutation searches ``pattern_r22()`` into width min(n, 8).

    Each search runs one existence pass of ``embedding._embeds``, which
    verifies its image before it counts, bounded by ``budget`` on its own.
    ``verdicts`` holds the answers of the searches that repeat across
    posets, a fresh dict when omitted, each under its key and template
    width: the ``2+2`` refutation under the key "2+2", and the embed-tame
    and minimality searches of the quotient under the set of p's distinct
    (m, M) pairs.  That key is used only when the recheck and the quotient
    check passed: p is then the order M(x) < m(y) and its classes, the
    quotient's points, are its distinct pairs, so equal keys mean
    isomorphic quotients, whose verdicts agree, and whose searches spend
    the same nodes (``_embeds`` orders a reduced tame pattern by its class
    alone), whichever labeling comes first.  After a failed check the
    quotient is searched as it stands and nothing is kept.  A verdict
    found in ``verdicts`` spends no node; a search over ``budget`` raises
    and stores nothing.
    """
    if verdicts is None:
        verdicts = {}
    failures: list[dict] = []

    def fail(kind: str, detail: str) -> None:
        failures.append({"check": kind, "detail": detail, "poset": p})

    def search(pattern: Poset, width: int, key) -> bool:
        if key is None:
            return _embeds(pattern, r_lambda(width), _Budget(budget))
        if (key, width) not in verdicts:
            verdicts[key, width] = _embeds(pattern, r_lambda(width), _Budget(budget))
        return verdicts[key, width]

    witness = embeds_r22(p)
    tame_here = witness is None
    u_ok, d_ok = tame.u_comparable(p), tame.d_comparable(p)
    if tame_here != u_ok or tame_here != d_ok:
        detail = f"witness={witness!r} u_comparable={u_ok} d_comparable={d_ok}"
        fail("comparability", detail)
    if tame_here:
        quotient, class_of = tame.reduce(p)
        members = [0] * len(quotient)  # p's indices in each class
        for i, x in enumerate(p.elements):
            members[class_of[x]] |= 1 << i
        lifted = [sum(at_set_bits(members, up)) for up in quotient.up_masks]
        exact = p.up_masks == tuple(lifted[class_of[x]] for x in p.elements)
        reduced = tame.is_reduced(quotient)
        if not exact or not reduced:
            fail("quotient", "relation ill-defined" if not exact else "not reduced")
        rank = tame._rank(p)
        quotient_rank = rank if quotient is p else tame._rank(quotient)
        if quotient_rank != rank:
            fail("rank-invariance", f"quotient rank {quotient_rank} != {rank}")
        coordinates = tame._recheck(p, rank)
        if coordinates is None:
            fail("claim-inequalities", "coordinate inequality violated")
        key = None
        if coordinates is not None and exact and reduced:
            key = frozenset(zip(*coordinates))
        if not search(quotient, rank, key):
            fail("embed-tame", f"no brute-force embedding into width {rank}")
        if quotient is p and rank and search(quotient, rank - 1, key):
            fail("minimality", f"embeds into width {rank - 1} < tame rank {rank}")
    else:
        x, x2, y, y2 = witness
        width = min(len(p), 8)
        if not p.less(x, y) or not p.less(x2, y2) or p.less(x2, y) or p.less(x, y2):
            fail("embed-nontame", f"witness {witness!r} is no induced 2+2")
        elif search(_R22, width, "2+2"):
            fail("embed-nontame", f"2+2 embedded into width {width}")
    return tame_here, failures


_FORK_MIN = 1000  # a stream this long is split across processes
_MAX_WORKERS = 8


def _workers() -> int:
    """Processes to share a long sweep: the usable CPUs, at most _MAX_WORKERS.

    1 (no fork) where ``os.fork`` or ``os.sched_getaffinity`` is missing, or
    when a second thread runs, since a forked child keeps only the thread
    that forked it.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def _check_share(
    posets: Iterable[Poset],
    budget: int | None,
    worker: int,
    workers: int,
    failed_at: memoryview,
) -> tuple[int, int, list[dict], int | None, Exception | None]:
    """Check the stream positions congruent to ``worker`` mod ``workers``.

    Returns (checked, tame count, counterexamples, failing position,
    exception).  The first exception, of a check or of the stream reading
    its next poset, stops the share and is returned, not raised, with the
    stream position at which the serial loop would have raised it.
    ``failed_at`` holds each worker's failing position (the largest value
    while it has none): a share records its own there and stops before any
    position past another's, which the serial loop would not reach.  The
    share's checks keep one dict of search verdicts, so each repeated
    search of ``check_poset`` runs once per share.
    """
    checked = tame_count = position = 0
    counterexamples: list[dict] = []
    verdicts: dict = {}
    try:
        for p in posets:
            if position % workers == worker:
                if position > min(failed_at):
                    break
                tame_here, failures = check_poset(p, budget=budget, verdicts=verdicts)
                checked += 1
                tame_count += tame_here
                counterexamples += ({"index": position, **f} for f in failures)
            position += 1
    except Exception as exc:
        failed_at[worker] = position
        return checked, tame_count, counterexamples, position, exc
    return checked, tame_count, counterexamples, None, None


def _shares(posets: Iterable[Poset], budget: int | None, workers: int) -> list:
    """Every share of ``_check_share``: the caller's, then one per forked child.

    ``workers - 1`` children are forked, none when ``workers`` is 1.  Each
    child walks its own copy of the stream, pickles its share into a pipe
    and leaves through ``os._exit``, so it runs no exit handler and flushes
    none of the caller's buffers.  The failing positions live in memory
    shared across the fork.  Every child is reaped before this returns or
    raises; one cut short by an error here is killed first, and one whose
    caller died leaves at its next stream position.
    """
    if workers > 1:  # a sweep that forks nothing imports and maps none of this
        import mmap
        import pickle
        import signal

        shared = mmap.mmap(-1, 8 * workers)
    else:
        shared = bytearray(8)
    # all ones: a slot read while its one writer sets it can only read high
    shared[:] = b"\xff" * len(shared)
    failed_at = memoryview(shared).cast("Q")
    children = []  # (pid, read end of its pipe), until reaped
    caller = os.getpid()
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:
                    # an orphan (its caller killed) leaves at its next position
                    mine = (p for p in posets if os.getppid() == caller or os._exit(1))
                    share = _check_share(mine, budget, worker, workers, failed_at)
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(share))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shares = [_check_share(posets, budget, 0, workers, failed_at)]
        while children:
            pid, pipe = children[0]
            with pipe:
                report = pipe.read()
            os.waitpid(pid, 0)
            children.pop(0)
            if not report:
                raise InternalInvariantViolation(
                    f"sweep worker {len(shares)} exited without its report"
                )
            shares.append(pickle.loads(report))
        return shares
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        failed_at.release()
        if workers > 1:
            shared.close()


def _sweep(n: int, posets: Iterable[Poset], budget: int | None) -> VerificationReport:
    """Run ``check_poset`` on each poset and tally the report.

    A stream of at least _FORK_MIN posets is split by position across
    ``_workers()`` processes; a shorter one is checked here alone.  Either
    way the report, and the exception raised at the first failing position,
    are the serial loop's.
    """
    stream = iter(posets)
    head = list(itertools.islice(stream, _FORK_MIN))
    posets = itertools.chain(head, stream)
    workers = _workers() if len(head) == _FORK_MIN else 1
    shares = _shares(posets, budget, workers)
    failed = [share for share in shares if share[4] is not None]
    if failed:
        raise min(failed, key=lambda share: share[3])[4]
    counterexamples = sorted(
        (c for share in shares for c in share[2]), key=lambda c: c["index"]
    )
    return VerificationReport(
        n,
        sum(share[0] for share in shares),
        sum(share[1] for share in shares),
        tuple(counterexamples),
    )


def verify_proposition(n: int, *, budget: int | None = None) -> VerificationReport:
    """Exhaustively verify the tame characterization over all labeled posets.

    Sweeps every poset that ``all_labeled_posets(n)`` yields, so n runs
    from 0 to ENUMERATION_CAP and its errors propagate before any check
    runs.  Expected outcome on every n: zero counterexamples.  A negative
    ``budget`` is refused first; it bounds each search on its own.

    A stream of at least 1000 posets (n = 5 to 7) is shared by W processes,
    W the usable CPUs up to 8: the caller forks W - 1 children and each
    process checks every W-th position.  No fork happens when W is 1, when
    ``os.fork`` is missing or when a second thread runs.  The report, and
    the exception raised at the first failing position, are the serial
    loop's; README gives the timings.
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
