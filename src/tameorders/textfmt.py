"""Plain-text poset format.

A file holds one ``elements:`` line with whitespace-separated identifiers,
then zero or more ``rel: A B`` lines meaning A < B.  Lines beginning with
``#`` and blank lines are ignored; the relation is closed transitively on
parse.  Serialization writes the full closed relation, so a round trip
reproduces the poset with its labels as strings.  The writers refuse, with
FormatError, a label whose ``str`` is not one whitespace-free token and two
labels with the same ``str``, since the reader would refuse the file.

Both writers, the text format and the JSON text of :func:`poset_json_text`,
emit the relation one up-mask row at a time: each id is encoded once and a
row's pairs come out of a single ``str.join``.  The JSON text is byte for
byte ``json.dumps(poset_json(p), sort_keys=True)``.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .errors import FormatError
from .poset import Poset, _close, at_set_bits, build_poset

# The layout format_poset writes: single spaces and "\n" line ends.  An id
# is a run of non-isspace characters, so no other str.splitlines boundary
# falls inside a line of this layout, and the line loop reads each line as
# the same tokens that one split of a whole chunk yields.
_ELEMENTS_LINE = re.compile(r"elements:((?: \S+)*)\n")
_REL_LINES = re.compile(r"(?:rel: \S+ \S+\n)*")
_CHUNK = 1 << 16


def _ids(p: Poset) -> list[str]:
    """The elements' ids, ``str`` of each label, in index order.

    FormatError names a label whose id is not one whitespace-free token, or
    an id that two labels print as (1 and "1"): the reader refuses both.
    """
    ids = [str(x) for x in p.elements]
    for x, text in zip(p.elements, ids):
        if text.split() != [text]:
            raise FormatError(f"label {x!r} is not a printable identifier")
    if len(set(ids)) < len(ids):
        repeated = next(x for x, k in Counter(ids).items() if k > 1)
        raise FormatError(f"two elements print as the id {repeated!r}")
    return ids


def format_poset(p: Poset) -> str:
    """Serialize to the text format (full closed relation, index order)."""
    ids = _ids(p)
    lines = ["elements: " + " ".join(ids)]
    for x, mask in zip(ids, p.up_masks):
        if mask:
            head = f"rel: {x} "
            lines.append(head + ("\n" + head).join(at_set_bits(ids, mask)))
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> Poset:
    """Parse the text format; element labels come back as strings.

    Text in the layout :func:`format_poset` writes is read in chunks of
    about 64 KiB of whole ``rel:`` lines, each split at once and mapped
    straight to element indices.  Anything else, and any text whose ids
    repeat or are unknown, goes through the line loop, which gives the
    same poset and is the one source of error messages.
    """
    head = _ELEMENTS_LINE.match(text)
    if head is None:
        return _parse_lines(text)
    elements = head[1].split()
    index = {x: i for i, x in enumerate(elements)}
    if len(index) < len(elements):
        return _parse_lines(text)
    src: list[int] = []
    dst: list[int] = []
    start = head.end()
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        if _REL_LINES.fullmatch(chunk) is None:
            return _parse_lines(text)
        tokens = chunk.split()
        try:
            src += map(index.__getitem__, tokens[1::3])
            dst += map(index.__getitem__, tokens[2::3])
        except KeyError:
            return _parse_lines(text)
        start = end
    return _close(tuple(elements), index, src, dst)


def _parse_lines(text: str) -> Poset:
    """The general reader: one line at a time, every directive checked."""
    elements: list[str] | None = None
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "rel:":
            if elements is None:
                raise FormatError(f"line {lineno}: rel before elements line")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: rel wants exactly two ids")
            pairs.append((tokens[1], tokens[2]))
        elif tokens[0] == "elements:":
            if elements is not None:
                raise FormatError(f"line {lineno}: repeated elements line")
            elements = tokens[1:]
        else:
            raise FormatError(f"line {lineno}: unrecognized directive {tokens[0]!r}")
    if elements is None:
        raise FormatError("missing elements line")
    return build_poset(elements, pairs)


def poset_json(p: Poset) -> dict:
    """JSON-ready object {elements, relations} mirroring the text format."""
    ids = _ids(p)
    relations = []
    for x, mask in zip(ids, p.up_masks):
        relations.extend([x, y] for y in at_set_bits(ids, mask))
    return {"elements": ids, "relations": relations}


def poset_json_text(p: Poset) -> str:
    """``json.dumps(poset_json(p), sort_keys=True)``, written a row at a time."""
    enc = [json.dumps(x) for x in _ids(p)]
    rows = [
        "[" + x + ", " + ("], [" + x + ", ").join(at_set_bits(enc, mask)) + "]"
        for x, mask in zip(enc, p.up_masks)
        if mask
    ]
    elements = ", ".join(enc)
    return '{"elements": [' + elements + '], "relations": [' + ", ".join(rows) + "]}"
