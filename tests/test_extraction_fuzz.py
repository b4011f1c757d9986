"""Extractor robustness: arbitrary bytes must never raise — only statuses.

The differential properties hold the regex tokenizer to the ``html.parser``
one: on every page the fast path accepts, both give the same
``ExtractResult``, and ``extract_page`` always gives the ``html.parser``
result.
"""

from hypothesis import given, settings, strategies as st

from post_ocr_corrector_ray.functions.extraction import (
    _extract_html, _tokenize_fast, _tokenize_reference, extract_page)

VALID_STATUSES = {"ok", "empty", "no_content", "pdf_ok", "pdf_undecodable", "decode_error"}


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_random_bytes_never_raise(payload):
    res = extract_page(payload)
    assert res.status in VALID_STATUSES
    assert isinstance(res.text, str)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_random_text_as_html_never_raises(html):
    res = extract_page(html.encode("utf-8"))
    assert res.status in VALID_STATUSES


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300))
def test_pdf_prefixed_garbage(payload):
    res = extract_page(b"%PDF-" + payload)
    assert res.status in ("pdf_ok", "pdf_undecodable")


# --- fast path against html.parser --------------------------------------------

# script and style open raw text; they come from _raw_text_element.
_TAG_NAMES = st.sampled_from(
    "p div a li ul h1 h2 span b td title br img nav form select option "
    "article P DIV Li A H1 TITLE BR NaV".split())
_WS = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\f"])
_ENTITIES = st.sampled_from([
    "&amp;", "&amp", "&lt;", "&gt", "&#39;", "&#x41;", "&#65", "&nbsp;",
    "&copy", "&notit;", "&bogus;", "&", "&#;", "&#xZZ;"])
_WORDS = st.sampled_from([
    "river", "stone", "Caf\xe9", "брза", "日本語", "quiet\xa0banks", "a　b",
    "x>y", "'q'", '"dq"', "=", "/", "-->", "]]>", "\x00"])
_SENTENCE = st.just("Seven wizards brew strong coffee under ancient oak trees near the river.")


@st.composite
def _text(draw):
    parts = draw(st.lists(st.one_of(_WORDS, _ENTITIES, _WS, _SENTENCE), min_size=1, max_size=6))
    return "".join(parts)


@st.composite
def _attribute(draw):
    """(text, ends_in_bare_value)."""
    name = draw(st.sampled_from(["href", "class", "id", "data-x", "xml:lang", "aria.b", "_u", "DISABLED"]))
    style = draw(st.sampled_from(["bare-name", "double", "single", "bare"]))
    if style == "bare-name":
        return name, False
    eq = draw(st.sampled_from(["=", " = ", "\n=\t"]))
    if style == "double":
        value = draw(st.text(st.sampled_from("ab /'<>&;=x\n"), max_size=8))
        return f'{name}{eq}"{value}"', False
    if style == "single":
        value = draw(st.text(st.sampled_from('ab /"<>&;=x\n'), max_size=8))
        return f"{name}{eq}'{value}'", False
    value = draw(st.text(st.sampled_from("abz09.-_:&;#%"), min_size=1, max_size=8))
    return f"{name}{eq}{value}", True


@st.composite
def _start_tag(draw):
    name = draw(_TAG_NAMES)
    attrs = draw(st.lists(_attribute(), max_size=3))
    text = "".join(draw(_WS) + a for a, _ in attrs)
    ws = draw(st.sampled_from(["", " ", "\n"]))
    slash = draw(st.sampled_from(["", "", "/"]))
    if slash and not ws and attrs and attrs[-1][1]:
        ws = " "  # a bare value touching "/>" is outside the grammar
    return f"<{name}{text}{ws}{slash}>"


@st.composite
def _raw_text_element(draw):
    tag = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
    body = "".join(draw(st.lists(st.sampled_from([
        "var a = 1;", "if (a<b) {}", "</div>", "<p>not content</p>", "</scr", "</ſcript>",
        "</styl>", "&amp;", "<!--", "-->", "\n"]), max_size=5)))
    close = draw(st.sampled_from(["</{t}>", "</{t} >", "</ {t}>", "</{T}\n>"])).format(
        t=tag.lower(), T=tag.upper())
    return f"<{tag}>{body}{close}"


_MARKUP = st.one_of(
    _start_tag(),
    _TAG_NAMES.map(lambda t: f"</{t}>"),
    _TAG_NAMES.map(lambda t: f"</{t} \n>"),
    st.sampled_from(["<!-- note -->", "<!---->", "<!-- a -- b --\n>", "<!--<p>x</p>-->",
                     "<!DOCTYPE html>", "<!doctype HTML PUBLIC 'x'>", "<!DocType>",
                     "<script/>", "<style />", "</script>", "</STYLE>"]),
    _raw_text_element(),
)


@st.composite
def _in_grammar_page(draw):
    pieces = draw(st.lists(st.one_of(_MARKUP, _text()), max_size=40))
    if draw(st.booleans()):
        pieces.append("Trailing &amp")  # a reference cut at end of input
    return "".join(pieces)


_OUT_OF_GRAMMAR = st.sampled_from([
    "<![CDATA[x<y]]>", "<?php echo 1 ?>", "<!bogus>", "</>", "a < b", "<", "<p:x>",
    "<x-y>", "<p class=a/>", "<p class=a\"b>", "<p\vclass=a>", "<p\xa0>", "</p\xa0>",
    "<p a==b>", "<p / >", "</p foo>", "<a href=\"x\"title=\"y\">", "<script>", "<!--",
    "<p", "<!DOCTYPE"])


@st.composite
def _mixed_page(draw):
    pieces = draw(st.lists(st.one_of(_MARKUP, _text(), _OUT_OF_GRAMMAR), min_size=1, max_size=40))
    return "".join(pieces)


@settings(max_examples=400, deadline=None)
@given(_in_grammar_page())
def test_fast_path_accepts_and_matches_reference(html):
    fast = _extract_html(_tokenize_fast, html)
    assert fast is not None
    assert fast == _extract_html(_tokenize_reference, html)


@settings(max_examples=400, deadline=None)
@given(_mixed_page())
def test_extract_page_matches_reference_on_mixed_pages(html):
    ref = _extract_html(_tokenize_reference, html)
    fast = _extract_html(_tokenize_fast, html)
    assert fast is None or fast == ref
    assert extract_page(html.encode("utf-8")) == ref
