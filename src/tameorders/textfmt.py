"""Plain-text poset format.

A file holds one ``elements:`` line with whitespace-separated identifiers,
then zero or more ``rel: A B`` lines meaning A < B.  Lines beginning with
``#`` and blank lines are ignored; the relation is closed transitively on
parse.  Serialization writes the full closed relation, so a round trip
reproduces the poset with identical labels.
"""

from __future__ import annotations

from .errors import FormatError
from .poset import Label, Poset, build_poset, iter_bits


def _id_of(label: Label) -> str:
    text = str(label)
    if not text or any(ch.isspace() for ch in text):
        raise FormatError(f"label {label!r} is not a printable identifier")
    return text


def format_poset(p: Poset) -> str:
    """Serialize to the text format (full closed relation, index order)."""
    ids = [_id_of(x) for x in p.elements]
    lines = ["elements: " + " ".join(ids)]
    for i, mask in enumerate(p.up_masks):
        head = f"rel: {ids[i]} "
        lines.extend(head + ids[j] for j in iter_bits(mask))
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> Poset:
    """Parse the text format; element labels come back as strings."""
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
    ids = [_id_of(x) for x in p.elements]
    relations = []
    for i, mask in enumerate(p.up_masks):
        relations.extend([ids[i], ids[j]] for j in iter_bits(mask))
    return {"elements": ids, "relations": relations}
