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

import itertools
import os
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import tame
from .embedding import _Budget, _embeds, embeds_r22
from .errors import InternalInvariantViolation, InvalidParameter, SizeLimitExceeded
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
    failed_at: memoryview | tuple = (),
) -> tuple[int, int, list[dict], int | None, Exception | None]:
    """Check the stream positions congruent to ``worker`` mod ``workers``.

    Returns (checked, tame count, counterexamples, failing index, exception).
    The first exception stops the share and is returned, not raised, with
    the stream position at which the serial loop would have raised it.
    ``failed_at`` holds each worker's failing position (the largest value
    while it has none): a share records its own there and stops before any
    position past another's, which the serial loop would not reach.
    """
    checked = tame_count = 0
    counterexamples: list[dict] = []
    index = -1
    try:
        for index, p in enumerate(posets):
            if index % workers != worker:
                continue
            if index > min(failed_at, default=index):
                break
            try:
                tame_here, failures = check_poset(p, budget=budget)
            except Exception as exc:
                if failed_at:
                    failed_at[worker] = index
                return checked, tame_count, counterexamples, index, exc
            checked += 1
            tame_count += tame_here
            for failure in failures:
                counterexamples.append({"index": index, **failure})
    except Exception as exc:  # the stream itself failed, reading the next position
        return checked, tame_count, counterexamples, index + 1, exc
    return checked, tame_count, counterexamples, None, None


def _forked_shares(posets: Iterable[Poset], budget: int | None, workers: int) -> list:
    """Every share of ``_check_share``: the caller's, then one per forked child.

    Each child walks its own copy of the stream, pickles its share into a
    pipe and leaves through ``os._exit``, so it runs no exit handler and
    flushes none of the caller's buffers.  The failing positions live in
    memory shared across the fork.  Every child is reaped before this
    returns or raises; one cut short by an error here is killed first.
    """
    import mmap
    import pickle
    import signal

    shared = mmap.mmap(-1, 8 * workers)
    # all ones: a slot read while its one writer sets it can only read high
    shared.write(b"\xff" * len(shared))
    failed_at = memoryview(shared).cast("Q")
    children = []  # (pid, read end of its pipe), until reaped
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
                    share = _check_share(posets, budget, worker, workers, failed_at)
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
        shared.close()


def _sweep(
    n: int, posets: Iterable[Poset], budget: int | None
) -> VerificationReport:
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
    if workers == 1:
        shares = [_check_share(posets, budget, 0, 1)]
    else:
        shares = _forked_shares(posets, budget, workers)
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

    A stream of at least 1000 posets (n = 5 and 6) is shared by W processes,
    W the usable CPUs up to 8: the caller forks W - 1 children and each
    process checks every W-th position.  No fork happens when W is 1, when
    ``os.fork`` is missing or when a second thread runs.  The report, and
    the exception raised at the first failing position, are the serial
    loop's.  n = 6 (130023 posets) took 9.6-10.9 s of wall time and
    18.1-18.9 s of CPU over its two processes, against 14.5-15.9 s in one
    (Python 3.11.7, 2 CPUs of a shared x86_64 machine).
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
