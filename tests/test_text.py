"""Whitespace normalization + detokenization goldens (FIXTURES.md F7)."""

import sys

import pytest
from hypothesis import given, strategies as st

from post_ocr_corrector_ray.functions.text import (
    detokenize,
    normalize_whitespace,
    tokenize_ws,
)

GOLDENS = [
    ("", ""),
    ("abc", "abc"),
    ("  abc", "abc"),                      # leading run dropped
    ("abc  ", "abc "),                     # trailing run collapses to ONE space (not stripped)
    ("a  b", "a b"),
    ("a \t\n b", "a b"),
    ("\t\n  ", ""),                        # all-whitespace → empty
    ("a b", "a b"),                   # NBSP is str.isspace()
    ("a  b", "a b"),             # unicode line/para separators
    ("a　b", "a b"),                   # ideographic space
    ("ћирилица  и  латиница", "ћирилица и латиница"),
    ("x\ny\nz\n", "x y z "),
    (" ​ ", "​ "),               # ZWSP is NOT whitespace (isspace()==False); trailing run → one " "
]


@pytest.mark.parametrize("raw,expected", GOLDENS)
def test_normalize_goldens(raw, expected):
    assert normalize_whitespace(raw) == expected


def _reference_normalize(text: str) -> str:
    """The reference's ``get_line`` loop, one char at a time."""
    out = []
    prev_space = True  # a leading run is dropped
    for ch in text:
        if ch.isspace():
            if not prev_space:
                out.append(" ")
                prev_space = True
        else:
            out.append(ch)
            prev_space = False
    return "".join(out)


@pytest.mark.parametrize("raw,expected", GOLDENS)
def test_reference_loop_goldens(raw, expected):
    assert _reference_normalize(raw) == expected


@given(st.text(alphabet=st.characters(max_codepoint=sys.maxunicode), max_size=200))
def test_normalize_equals_reference_loop_property(s):
    assert normalize_whitespace(s) == _reference_normalize(s)


def test_every_codepoint_matches_reference_loop():
    """Each code point alone, between words, doubled at the start and at the
    end: ``str.split`` must treat exactly the ``str.isspace`` set as
    whitespace."""
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        for s in (c, f"a{c}b", f"{c}{c}a{c}{c}"):
            assert normalize_whitespace(s) == _reference_normalize(s), hex(cp)


@given(st.text(max_size=100))
def test_normalize_idempotent_after_strip(s):
    once = normalize_whitespace(s)
    assert normalize_whitespace(once) == once


def test_detokenize():
    # reference to_plain_text.py:16-28: <g/> glues the NEXT token to the previous
    assert detokenize(["Hello", "world"]) == "Hello world"
    assert detokenize(["Hello", "<g/>", ",", "world"]) == "Hello, world"
    assert detokenize(["a", "<g/>", "b", "<g/>", "c"]) == "abc"
    assert detokenize([]) == ""
    assert detokenize(["x", "<g/>"]) == "x"  # dangling joiner ignored


def test_tokenize_ws():
    assert tokenize_ws("  a  b\tc ") == ["a", "b", "c"]
    assert tokenize_ws("   ") == []
