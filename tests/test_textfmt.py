import pytest
from hypothesis import given

from tameorders import (
    CycleDetected,
    FormatError,
    Poset,
    UnknownElement,
    cummings_blocks,
    format_poset,
    inflate,
    parse_poset,
    pattern_s_n2,
    poset_json,
    r_lambda,
)

from conftest import chain, posets


def test_round_trip_simple():
    p = chain(4)
    assert parse_poset(format_poset(p)) == p


def test_round_trip_template_labels():
    p = r_lambda(4)
    assert parse_poset(format_poset(p)) == p


def test_round_trip_inflated_labels():
    inflated, _ = inflate(r_lambda(2), {"0,0": 2, "1,1": 3})
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


@pytest.mark.parametrize("emit", [format_poset, poset_json])
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


@given(posets())
def test_round_trip_generated(p):
    assert parse_poset(format_poset(p)) == p
