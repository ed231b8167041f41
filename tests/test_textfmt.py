import json

import pytest
from hypothesis import example, given, settings, strategies as st

from tameorders import (
    CycleDetected,
    DuplicateElement,
    FormatError,
    Poset,
    PosetError,
    UnknownElement,
    build_poset,
    cummings_blocks,
    format_poset,
    parse_poset,
    pattern_s_n2,
    poset_json,
    poset_json_text,
    r_lambda,
    realize,
)
from tameorders.textfmt import _parse_lines

from conftest import chain, posets


def test_round_trip_simple():
    p = chain(4)
    assert parse_poset(format_poset(p)) == p


def test_round_trip_template_labels():
    p = r_lambda(4)
    assert parse_poset(format_poset(p)) == p


def test_round_trip_inflated_labels():
    two_below_three = build_poset("abcde", [(x, y) for x in "ab" for y in "cde"])
    inflated = realize(two_below_three).inflated
    assert parse_poset(format_poset(inflated)) == inflated


def test_round_trip_infinity_token():
    p = cummings_blocks(3)
    assert "inf" in format_poset(p)
    assert parse_poset(format_poset(p)) == p


def test_comments_and_blank_lines():
    text = """
# heading comment
elements: a b c

rel: a b
# trailing comment
rel: b c
"""
    p = parse_poset(text)
    assert p.less("a", "c")


def test_closure_implied():
    p = parse_poset("elements: a b c\nrel: a b\nrel: b c\n")
    assert set(p.pairs()) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_empty_poset():
    p = parse_poset("elements:\n")
    assert len(p) == 0
    assert parse_poset(format_poset(p)) == p


def test_missing_elements_line():
    with pytest.raises(FormatError):
        parse_poset("rel: a b\n")


def test_rel_before_elements():
    with pytest.raises(FormatError):
        parse_poset("rel: a b\nelements: a b\n")


def test_bad_directive():
    with pytest.raises(FormatError):
        parse_poset("elements: a\nedge: a a\n")


def test_rel_arity():
    with pytest.raises(FormatError):
        parse_poset("elements: a b\nrel: a b c\n")


def test_repeated_elements_line():
    with pytest.raises(FormatError):
        parse_poset("elements: a\nelements: b\n")


def test_unknown_element_in_rel():
    with pytest.raises(UnknownElement):
        parse_poset("elements: a\nrel: a b\n")


def test_cycle_in_file():
    with pytest.raises(CycleDetected):
        parse_poset("elements: a b\nrel: a b\nrel: b a\n")


def test_json_object_shape():
    obj = poset_json(pattern_s_n2(2))
    assert obj["elements"] == ["x0", "x1", "y0", "y1"]
    assert ["x1", "y1"] in obj["relations"]


@pytest.mark.parametrize("emit", [format_poset, poset_json, poset_json_text])
@pytest.mark.parametrize(
    "elements, up_masks, bad",
    [
        (["a b"], [0], "a b"),
        ([""], [0], ""),
        (["a", "x\ty", "c d"], [0b110, 0, 0], "x\ty"),
        (["a", "b\n"], [0b10, 0], "b\n"),
    ],
)
def test_unprintable_label_rejected(emit, elements, up_masks, bad):
    with pytest.raises(FormatError) as info:
        emit(Poset(elements, up_masks))
    assert str(info.value) == f"label {bad!r} is not a printable identifier"


@pytest.mark.parametrize("emit", [format_poset, poset_json, poset_json_text])
@pytest.mark.parametrize(
    "elements, pairs, repeated",
    [
        ([1, "1"], [], "1"),
        (["a", 2, "b", "2"], [("a", "b"), (2, "b")], "2"),
        ([("a",), "b", "('a',)"], [("b", "('a',)")], "('a',)"),
    ],
)
def test_labels_printing_one_id_rejected(emit, elements, pairs, repeated):
    # the reader refuses a file that lists an id twice, so no writer emits one
    p = build_poset(elements, pairs)
    with pytest.raises(DuplicateElement):
        parse_poset("elements: " + " ".join(map(str, elements)) + "\n")
    with pytest.raises(FormatError) as info:
        emit(p)
    assert str(info.value) == f"two elements print as the id {repeated!r}"


# ids JSON must escape or sort apart from index order: quote, backslash,
# non-ASCII, control characters, and digit strings where "10" < "9"
AWKWARD_IDS = ['"', "\\", "é", "☃", "\x00", "\x7f", "10", "9", 'a"b\\c', "x\x00é☃"]


@st.composite
def labeled_posets(draw):
    """A random order on distinct ids: AWKWARD_IDS and short printable text."""
    ids = st.one_of(
        st.sampled_from(AWKWARD_IDS),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
    )
    labels = draw(
        st.lists(ids.filter(lambda t: t.split() == [t]), max_size=8, unique=True)
    )
    n = len(labels)
    order = draw(st.permutations(range(n)))
    pairs = [
        (labels[order[i]], labels[order[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_poset(labels, pairs)


@given(labeled_posets())
@example(Poset([], []))
@example(Poset(AWKWARD_IDS, [0] * len(AWKWARD_IDS)))  # antichain
@example(build_poset(AWKWARD_IDS, zip(AWKWARD_IDS, AWKWARD_IDS[1:])))  # chain
@example(r_lambda(12))  # 78 elements: dense rows take the bit-string kernel
def test_json_text_is_sorted_dumps(p):
    assert poset_json_text(p) == json.dumps(poset_json(p), sort_keys=True)


@given(posets())
def test_round_trip_generated(p):
    assert parse_poset(format_poset(p)) == p


def outcome(parse, text):
    """The masks ``parse`` builds from ``text``, or its error's type and message."""
    try:
        p = parse(text)
    except PosetError as exc:
        return type(exc), str(exc)
    return p.elements, p.up_masks, p.down_masks


# every str.splitlines boundary that is not "\n", "\r" or "\r\n"
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def perturbed_texts(draw):
    """format_poset output with one change that moves it off the written layout."""
    p = draw(posets())
    lines = format_poset(p).splitlines()
    ids = list(p.elements) or ["q"]
    kind = draw(
        st.sampled_from(
            [
                "comment", "blank", "tab", "crlf", "break in elements",
                "break in rel", "no final newline", "duplicate id", "unknown id",
                "short rel", "long rel", "cycle",
            ]
        )
    )
    at = draw(st.integers(0, len(lines)))
    if kind == "comment":
        lines.insert(at, "# " + draw(st.sampled_from(ids)))
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    elif kind in ("tab", "break in elements", "break in rel"):
        rows = {
            "tab": range(len(lines)),
            "break in elements": [0],
            "break in rel": range(1, len(lines)) or [0],
        }[kind]
        row = draw(st.sampled_from(rows))
        line = lines[row]
        char = "\t" if kind == "tab" else draw(st.sampled_from(LINE_BREAKS))
        k = draw(st.sampled_from([k for k, c in enumerate(line) if c == " "] or [len(line)]))
        # replace the space before an id, or put the character just after it
        if draw(st.booleans()) and k < len(line):
            lines[row] = line[:k] + char + line[k + 1 :]
        else:
            lines[row] = line[: k + 1] + char + line[k + 1 :]
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "no final newline":
        return "\n".join(lines)
    elif kind == "duplicate id":
        lines[0] += " " + draw(st.sampled_from(ids))
    elif kind == "unknown id":
        lines.insert(max(at, 1), f"rel: {draw(st.sampled_from(ids))} stranger")
    elif kind in ("short rel", "long rel"):
        tokens = [draw(st.sampled_from(ids))] * (1 if kind == "short rel" else 3)
        lines.insert(at, " ".join(["rel:", *tokens]))
    else:  # cycle
        x, y = draw(st.sampled_from(p.pairs() or [(ids[0], ids[0])]))
        if not p.elements:
            lines[0] = "elements: q"
        lines.insert(max(at, 1), f"rel: {y} {x}")
    return "\n".join(lines) + "\n"


@given(perturbed_texts())
@settings(max_examples=300)
def test_reader_agrees_with_line_loop(text):
    assert outcome(parse_poset, text) == outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        "elements: a\x0bb\n",
        "elements: a b\u2028rel: a b\n",
        "elements: a b\nrel: a b\x1c\n",
        "elements: a b\nrel: a\x85b\n",
        "elements: a b\nrel: a b",
        "elements:  a b\n",
        "elements: a b \nrel: a b\n",
        "elements: a b\nrel:  a b\n",
        "elements: a b\nrel: b a\nrel: a b\n",
        "elements: a b a\nrel: a b\n",
        "elements: a b\nrel: a c\n",
        "elements: a b\nrel: a b c\nrel: a\n",
        "elements: a\nelements: b\n",
        "\ufeffelements: a\n",
        "elements: #a b\nrel: #a b\n",
    ],
)
def test_reader_agrees_with_line_loop_on_edge_cases(text):
    assert outcome(parse_poset, text) == outcome(_parse_lines, text)


BIG_HEAD = "elements: " + " ".join(f"v{i}" for i in range(100)) + "\n"
BIG_RELS = "".join(f"rel: v{i % 99} v{i % 99 + 1}\n" for i in range(12000))


def test_many_chunks_read_as_one():
    assert len(BIG_RELS) > 2 * 65536
    text = BIG_HEAD + BIG_RELS
    assert parse_poset(text).num_relations == 100 * 99 // 2
    assert outcome(parse_poset, text) == outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "tail, error, message",
    [
        ("rel: v1\n", FormatError, "line 12002: rel wants exactly two ids"),
        ("rel: v1 v2\u2028x\n", FormatError, "line 12003: unrecognized directive 'x'"),
        ("rel: v1 w\n", UnknownElement, "pair mentions unknown element 'w'"),
        ("rel: v99 v0\n", CycleDetected, "closure relates 'v0' to itself"),
    ],
)
def test_error_after_64_kib_of_rel_lines(tail, error, message):
    with pytest.raises(error) as info:
        parse_poset(BIG_HEAD + BIG_RELS + tail + "rel: v0 v1\n")
    assert str(info.value) == message
