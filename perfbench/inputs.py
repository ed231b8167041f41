"""Seeded input generation for the benchmark, independent of the library.

Nothing here imports ``tameorders``: the inputs must not change when the
library's own generators (``random_poset``, ``r_lambda``, ``pattern_s_n2``)
change.  Every input is described by plain data and written in the poset
text format (``elements:`` line, ``rel:`` lines).

Tame inputs are interval orders: element x carries an interval
``(l, r)`` with ``l <= r`` and ``x < y`` iff ``r_x < l_y``.  Chains,
templates, the two-level patterns and inflated copies are all written this
way, so a single oracle covers them.  Random inputs are a random linear
extension plus independent edges, written as the drawn edges (not closed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IntervalInput:
    """A tame input: one interval per element, element i labeled ``e<i>``."""

    name: str
    intervals: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class RandomInput:
    """A random order: edges ``(i, j)`` meaning ``e<i> < e<j>`` before closure."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)

    def __len__(self) -> int:
        return self.n


def label(i: int) -> str:
    return f"e{i}"


# ---------------------------------------------------------------- tame families


def chain(n: int) -> list[tuple[int, int]]:
    return [(v, v) for v in range(n)]


def template(lam: int) -> list[tuple[int, int]]:
    """All coordinate pairs a <= b < lam: the width-lam template order."""
    return [(a, b) for a in range(lam) for b in range(a, lam)]


def two_level(n: int) -> list[tuple[int, int]]:
    """x_m < y_k iff m >= k, as intervals: x_m = (0, 2(n-m)-2), y_k = (2(n-k)-1, 2n)."""
    xs = [(0, 2 * (n - m) - 2) for m in range(n)]
    ys = [(2 * (n - k) - 1, 2 * n) for k in range(n)]
    return xs + ys


def random_intervals(rng: random.Random, n: int, lam: int, spread: int) -> list[tuple[int, int]]:
    """n intervals with endpoints in 0..lam-1 whose order has tame rank exactly lam.

    Every value is used as a left and as a right endpoint, which makes the
    up-sets {y : l_y > t} distinct for t = 0..lam-1.  Lengths are uniform in
    0..spread, so a small spread gives a dense, chain-like order.
    """
    if n < lam:
        raise ValueError("random_intervals wants n >= lam")
    out = []
    if n >= 2 * lam:
        out += [(v, min(lam - 1, v + rng.randint(0, spread))) for v in range(lam)]
        out += [(max(0, v - rng.randint(0, spread)), v) for v in range(lam)]
    else:
        out += [(v, v) for v in range(lam)]
    while len(out) < n:
        a = rng.randrange(lam)
        out.append((a, min(lam - 1, a + rng.randint(0, spread))))
    return out


def inflate(rng: random.Random, base: list[tuple[int, int]], max_copies: int) -> list[tuple[int, int]]:
    """Repeat each interval 1..max_copies times; copies are mutually incomparable.

    The copy counts are 1, 2, .., max_copies, 1, 2, .. dealt out in random
    order, so the inflated size does not depend on the seed.
    """
    counts = [1 + i % max_copies for i in range(len(base))]
    rng.shuffle(counts)
    out = []
    for iv, count in zip(base, counts):
        out += [iv] * count
    return out


def shuffled(rng: random.Random, intervals: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    items = list(intervals)
    rng.shuffle(items)
    return tuple(items)


def interval_covers(intervals) -> list[tuple[int, int]]:
    """Cover pairs (x, y) of the interval order, sorted.

    y covers x iff r_x < l_y and no z has r_x < l_z <= r_z < l_y, that is
    r_x < l_y <= min{r_z : l_z > r_x}.
    """
    n = len(intervals)
    by_left = sorted(range(n), key=lambda i: intervals[i][0])
    lefts = [intervals[i][0] for i in by_left]
    suffix_min_right = [0] * (n + 1)
    suffix_min_right[n] = float("inf")
    for k in range(n - 1, -1, -1):
        suffix_min_right[k] = min(suffix_min_right[k + 1], intervals[by_left[k]][1])
    out = []
    for x, (_, r) in enumerate(intervals):
        start = bisect_right(lefts, r)
        if start == n:
            continue
        stop = bisect_right(lefts, suffix_min_right[start])
        out.extend((x, y) for y in by_left[start:stop])
    out.sort()
    return out


# -------------------------------------------------------------- random orders


def random_order(rng: random.Random, n: int, p: float) -> tuple[tuple[int, int], ...]:
    """Random linear extension, each compatible pair kept with probability p.

    The compatible pairs (perm[i], perm[j]), i < j, are taken row by row, and
    the gaps between kept pairs are drawn as geometric skips, so the cost
    grows with the pairs kept rather than with n^2.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    log_miss = math.log1p(-p)
    total = n * (n - 1) // 2
    row, row_start = 0, 0  # pairs of row i are indices row_start .. row_start + n - 2 - i
    k = -1
    while True:
        k += 1 + int(math.log(1.0 - rng.random()) / log_miss)
        if k >= total:
            return tuple(edges)
        while k >= row_start + n - 1 - row:
            row_start += n - 1 - row
            row += 1
        edges.append((perm[row], perm[row + 1 + k - row_start]))

# --------------------------------------------------------------------- files


def poset_text(inp) -> str:
    """The input in the poset text format, generating pairs only."""
    n = len(inp)
    pairs = interval_covers(inp.intervals) if isinstance(inp, IntervalInput) else inp.edges
    lines = ["elements: " + " ".join(label(i) for i in range(n))]
    lines += [f"rel: {label(a)} {label(b)}" for a, b in pairs]
    return "\n".join(lines) + "\n"
