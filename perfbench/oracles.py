"""Output oracles that share no code with the library.

Each input's truth is computed from how the benchmark generated it: the
relation of an interval order comes straight from its intervals, the
relation of a random order from the benchmark's own closure of the drawn
edges.  Everything is kept as bitmasks over element indices (bit j of
``up[i]`` set iff ``e<i> < e<j>``).  A validator returns ``None`` for an
accepted output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right

from inputs import IntervalInput, label

# Labeled posets on 5 points (OEIS A001035) and labeled interval orders on
# 5 points (OEIS A079144).
VERIFY_N5_TOTAL = 4231
VERIFY_N5_TAME = 3451

# The library refuses to build a template wider than 64 (a known defect that
# ROADMAP item 2 removes).  That refusal is the one accepted failure.
WIDTH_CAP = 64
WIDTH_CAP_MESSAGE = "template width capped at 64"


def _threshold_masks(values: list[int]) -> tuple[list[int], list[int]]:
    """Sorted values and, per position k, the mask of indices at positions >= k."""
    order = sorted(range(len(values)), key=values.__getitem__)
    suffix = [0] * (len(values) + 1)
    for k in range(len(values) - 1, -1, -1):
        suffix[k] = suffix[k + 1] | 1 << order[k]
    return [values[i] for i in order], suffix


def interval_up_masks(intervals) -> list[int]:
    """up[x] = {y : l_y > r_x}."""
    lefts, suffix = _threshold_masks([iv[0] for iv in intervals])
    return [suffix[bisect_right(lefts, r)] for _, r in intervals]


def closure_up_masks(n: int, edges) -> list[int]:
    """Transitive closure of the drawn edges, by depth-first memoisation."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    up: list[int | None] = [None] * n
    for root in range(n):
        if up[root] is not None:
            continue
        stack = [root]
        while stack:
            x = stack[-1]
            pending = [y for y in succ[x] if up[y] is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if up[x] is None:
                mask = 0
                for y in succ[x]:
                    mask |= up[y] | 1 << y
                up[x] = mask
    return up


class Truth:
    """Everything the validators need about one input, from its up-masks."""

    def __init__(self, up: list[int]):
        n = len(up)
        self.n = n
        self.up = up
        down = [0] * n
        for i, mask in enumerate(up):
            bit = 1 << i
            j = mask
            while j:
                low = j & -j
                down[low.bit_length() - 1] |= bit
                j ^= low
        self.down = down
        distinct = sorted(set(up), key=int.bit_count)
        self.tame = all(not a & ~b for a, b in zip(distinct, distinct[1:]))
        self.rank = len(distinct)
        classes: dict[tuple[int, int], int] = {}
        self.class_of = [classes.setdefault((down[i], up[i]), len(classes)) for i in range(n)]
        self.reps = [self.class_of.index(c) for c in range(len(classes))]
        self.reduced = len(classes) == n

    def coordinates(self) -> list[tuple[int, int]]:
        """Canonical (m, M) per element of a tame order.

        m(x) counts the distinct members of {empty} + {down-sets} strictly
        inside d(x); M(x) counts the distinct up-set complements strictly
        inside cu(x).  Both families are chains, so sizes decide inclusion.
        """
        down_sizes = sorted({0} | {d.bit_count() for d in self.down})
        cu_sizes = sorted({self.n - u.bit_count() for u in self.up})
        return [
            (
                bisect_left(down_sizes, d.bit_count()),
                bisect_left(cu_sizes, self.n - u.bit_count()),
            )
            for d, u in zip(self.down, self.up)
        ]


def truth_of(inp) -> Truth:
    if isinstance(inp, IntervalInput):
        return Truth(interval_up_masks(inp.intervals))
    return Truth(closure_up_masks(inp.n, inp.edges))


def _index(labels) -> dict[str, int] | None:
    """Index of each ``e<i>`` label, or None when a label is foreign."""
    out = {}
    for lab in labels:
        if not isinstance(lab, str) or not lab.startswith("e") or not lab[1:].isdigit():
            return None
        out[lab] = int(lab[1:])
    return out


def _coordinate_up(coords: list[tuple[int, int]], owner: list[int]) -> list[int]:
    """For points with coordinates (a, b), the owners of {v : a_v > b_u}, per point u."""
    lefts, suffix = _threshold_masks([a for a, _ in coords])
    remap = {}
    out = []
    for _, b in coords:
        k = bisect_right(lefts, b)
        if k not in remap:
            owned, bits = 0, suffix[k]
            while bits:
                low = bits & -bits
                owned |= 1 << owner[low.bit_length() - 1]
                bits ^= low
            remap[k] = owned
        out.append(remap[k])
    return out


def _witness_error(t: Truth, witness) -> str | None:
    if not isinstance(witness, list) or len(witness) != 4:
        return "witness is not four labels"
    idx = _index(witness)
    if idx is None or any(i >= t.n for i in idx.values()):
        return "witness names unknown elements"
    x, x2, y, y2 = (int(w[1:]) for w in witness)

    def less(a, b):
        return bool(t.up[a] >> b & 1)

    if not (less(x, y) and less(x2, y2) and not less(x, y2) and not less(x2, y)):
        return f"witness {witness} is not two disjoint 2-chains"
    return None


def _embedding_error(t: Truth, table) -> str | None:
    if not isinstance(table, dict) or len(table) != t.n:
        return "embedding does not cover every element"
    coords = [None] * t.n
    for lab, pair in table.items():
        idx = _index([lab])
        if idx is None or idx[lab] >= t.n or not isinstance(pair, list) or len(pair) != 2:
            return f"bad embedding entry {lab!r}"
        coords[idx[lab]] = tuple(pair)
    if coords != t.coordinates():
        return "embedding differs from the canonical (m, M) coordinates"
    if any(not 0 <= m <= big < t.rank for m, big in coords):
        return "embedding leaves the template of the tame rank"
    if _coordinate_up(coords, list(range(t.n))) != t.up:
        return "embedding does not preserve the order both ways"
    return None


def check_check(t: Truth, code: int, out: dict) -> str | None:
    if not t.tame:
        if code != 3 or out.get("tame") is not False:
            return f"non-tame input: exit {code}, tame={out.get('tame')!r}"
        return _witness_error(t, out.get("witness"))
    if code != 0 or out.get("tame") is not True:
        return f"tame input: exit {code}, tame={out.get('tame')!r}"
    if out.get("tame_rank") != t.rank:
        return f"tame rank {out.get('tame_rank')!r}, expected {t.rank}"
    if "witness" in out:
        return "tame input reported with a witness"
    if t.reduced:
        return _embedding_error(t, out.get("embedding"))
    if "embedding" in out:
        return "embedding reported for an unreduced input"
    return None


def check_rank(t: Truth, code: int, out: dict) -> str | None:
    if not t.tame:
        if code != 3 or out.get("error") != "not-tame":
            return f"non-tame input: exit {code}, payload keys {sorted(out)}"
        return _witness_error(t, out.get("witness"))
    if code != 0 or out != {"tame_rank": t.rank}:
        return f"exit {code}, {out!r}, expected tame rank {t.rank}"
    return None


def check_reduce(t: Truth, code: int, out: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    reps = [label(i) for i in t.reps]
    if out.get("representatives") != reps:
        return "representatives differ from the first member of each class"
    if out.get("class_of") != {label(i): c for i, c in enumerate(t.class_of)}:
        return "class map differs from the (down-set, up-set) classes"
    quotient = out.get("quotient", {})
    if quotient.get("elements") != reps:
        return "quotient elements differ from the representatives"
    rels = quotient.get("relations")
    if not isinstance(rels, list):
        return "quotient relations missing"
    cls = {lab: c for c, lab in enumerate(reps)}
    rep_mask = sum(1 << r for r in t.reps)
    expected = sum((t.up[i] & rep_mask).bit_count() for i in t.reps)
    seen = set()
    for pair in rels:
        if not isinstance(pair, list) or len(pair) != 2 or pair[0] not in cls or pair[1] not in cls:
            return f"bad quotient relation {pair!r}"
        a, b = pair
        if not t.up[t.reps[cls[a]]] >> t.reps[cls[b]] & 1:
            return f"quotient relation {a} < {b} does not hold"
        seen.add((a, b))
    if len(seen) != len(rels) or len(seen) != expected:
        return f"quotient has {len(rels)} relations, expected {expected}"
    return None


def check_realize(t: Truth, code: int, out: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    w = out.get("w")
    iso = out.get("iso", {})
    if not isinstance(w, list) or iso.get("source") != w:
        return "iso source differs from w"
    if iso.get("target") != [label(i) for i in range(t.n)]:
        return "iso target differs from the input elements"
    mapping = iso.get("map")
    if not isinstance(mapping, dict) or sorted(mapping) != sorted(w) or len(set(w)) != len(w):
        return "iso map is not defined exactly on w"
    owner_idx = _index(mapping.values())
    if owner_idx is None or sorted(owner_idx.values()) != list(range(t.n)):
        return "iso map is not a bijection onto the input"
    coords, owner = [], []
    for copy in w:
        point, sep, num = copy.rpartition("#")
        a, comma, b = point.partition(",")
        if not (sep and comma and num.isdigit() and a.isdigit() and b.isdigit()):
            return f"w element {copy!r} is not an inflated template point"
        if not int(a) <= int(b) < t.rank:
            return f"w element {copy!r} lies outside the template of width {t.rank}"
        coords.append((int(a), int(b)))
        owner.append(int(mapping[copy][1:]))
    coord_up = _coordinate_up(coords, owner)
    if any(coord_up[k] != t.up[owner[k]] for k in range(len(w))):
        return "restriction of the inflated template is not isomorphic to the input"
    return None


def check_verify(n: int, samples: int | None, code: int, out: dict) -> str | None:
    if code != 0 or out.get("n") != n or out.get("counterexamples") != []:
        return f"exit {code}, n={out.get('n')!r}, counterexamples present or missing"
    total, tame = out.get("total"), out.get("tame_count")
    if samples is None:
        if n == 5 and (total, tame) != (VERIFY_N5_TOTAL, VERIFY_N5_TAME):
            return f"n=5 sweep counted {total} posets / {tame} tame, expected 4231 / 3451"
    elif total != samples or not isinstance(tame, int) or not 0 <= tame <= samples:
        return f"sampled sweep counted {total} posets / {tame} tame for {samples} samples"
    return None


VALIDATORS = {
    "check": check_check,
    "rank": check_rank,
    "reduce": check_reduce,
    "realize": check_realize,
}


def known_refusal(op, truth: Truth | None, code, message: str) -> bool:
    """Whether exit ``code`` with last stderr line ``message`` is the width-cap refusal.

    It is accepted only as exit 1 with exactly that message, on a tame input
    whose rank is above the cap, from a verb that builds the template:
    ``realize``, and ``check`` on a reduced input (its embedding).  Any other
    refusal of a valid input is a wrong answer.
    """
    if truth is None or code != 1 or message != WIDTH_CAP_MESSAGE:
        return False
    builds_template = op.verb == "realize" or (op.verb == "check" and truth.reduced)
    return builds_template and truth.tame and truth.rank > WIDTH_CAP


def validate(op, code: int, stdout: str, truth: Truth | None) -> str | None:
    """Oracle verdict for one op's exit code and stdout."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {code}, stdout is not one JSON document"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    if op.verb == "verify":
        return check_verify(op.n, op.samples, code, out)
    return VALIDATORS[op.verb](truth, code, out)
