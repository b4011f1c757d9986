"""HTML/PDF extraction tests against constructive synthetic goldens."""

import signal
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from post_ocr_corrector_ray.functions.extraction import (
    _extract_html, _tokenize_fast, _tokenize_reference, extract_page, extract_pdf_text)
from post_ocr_corrector_ray.sources.synth import gen_page, pages_batch

PARA = "This paragraph has plenty of real sentence content to keep around here."


def _both_paths(html: str):
    """(fast-path result, or None when it refuses the page; html.parser result)."""
    return _extract_html(_tokenize_fast, html), _extract_html(_tokenize_reference, html)


@contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging: SIGALRM interrupts a regex scan too."""
    def _expire(*_):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestSynthGoldens:
    @pytest.mark.parametrize("i", list(range(0, 400, 7)))
    def test_extraction_recovers_known_main_content(self, i):
        p = gen_page(i)
        if p["kind"] in ("text_only", "ws_text"):
            pytest.skip("no html payload")
        res = extract_page(p["html"])
        assert res.text == p["expected_text"]

    def test_kind_mix_includes_edges(self):
        kinds = {gen_page(i)["kind"] for i in range(600)}
        assert {"html", "html_big", "html_boiler", "html_empty", "pdf",
                "text_only", "ws_text"} <= kinds

    def test_generation_is_order_independent(self):
        a = gen_page(123)
        b = gen_page(123)
        assert a == b
        t = pages_batch(np.array([123]))
        assert t.column("url")[0].as_py() == a["url"]


class TestHtmlHeuristics:
    def test_empty_and_none(self):
        assert extract_page(None).status == "empty"
        assert extract_page(b"").status == "empty"

    def test_boilerplate_stripped(self):
        html = b"""<html><body>
        <nav><ul><li><a href="/">Home</a></li><li><a href="/a">About</a></li></ul></nav>
        <p>This paragraph has plenty of real sentence content to keep around here.</p>
        <div class="sidebar"><a href="/x">link one</a> <a href="/y">link two</a></div>
        <footer><p>All rights reserved by somebody somewhere.</p></footer>
        </body></html>"""
        res = extract_page(html)
        assert res.text == "This paragraph has plenty of real sentence content to keep around here."
        assert res.status == "ok"

    def test_link_density_drops_nav_block(self):
        html = (b'<html><body><p><a href="/1">one long link text here</a> '
                b'<a href="/2">another long link text</a></p>'
                b"<p>Normal prose paragraph with enough characters and words to stay.</p>"
                b"</body></html>")
        assert extract_page(html).text == \
            "Normal prose paragraph with enough characters and words to stay."

    def test_script_style_pruned(self):
        html = (b"<html><body><script>var padding = 'not content at all here';</script>"
                b"<p>Visible paragraph content that is long enough to be kept today.</p>"
                b"</body></html>")
        assert "padding" not in extract_page(html).text

    def test_entities_decoded(self):
        html = (b"<html><body><p>Fish &amp; chips &lt;3 is a fairly good meal idea "
                b"for everyone involved.</p></body></html>")
        assert "Fish & chips <3" in extract_page(html).text

    def test_whitespace_normalized(self):
        html = (b"<html><body><p>spaced   out\n\n\ttext needing normalization "
                b"across multiple breaks here</p></body></html>")
        assert "  " not in extract_page(html).text

    def test_title_captured_not_in_text(self):
        p = gen_page(0)
        res = extract_page(p["html"])
        assert res.title == "synth page"
        assert "synth page" not in res.text

    def test_malformed_html_tolerated(self):
        html = b"<html><body><p>Unclosed paragraph with plenty of words to keep it around"
        res = extract_page(html)
        assert "Unclosed paragraph" in res.text

    def test_heading_kept_linky_heading_dropped(self):
        html = (b"<html><body><h1>Clean heading words</h1>"
                b'<h2><a href="/x">linked heading</a></h2>'
                b"<p>Body paragraph containing sufficient words to clear thresholds now.</p>"
                b"</body></html>")
        res = extract_page(html)
        assert res.text.startswith("Clean heading words")
        assert "linked heading" not in res.text


    @pytest.mark.parametrize("prefix", [
        "<nav><ul><li>Home<li>About</ul></nav>",
        "<form><select><option>A<option>B</select></form>",
        "<datalist id=c><option value=a><option value=b></datalist>",
        "<optgroup><option>A<option>B</optgroup>",
    ], ids=["nav-li", "select-option", "datalist-option", "optgroup-option"])
    def test_implicit_end_tag_in_pruned_subtree(self, prefix):
        """HTML lets </li> and </option> be left out; the pruned subtree
        still ends at its root's own end tag, and an <option> outside a
        <select> also at the next <option> or at its parent's end tag.
        Both tokenizers agree."""
        html = f"<html><body>{prefix}<p>{PARA}</p></body></html>"
        res = extract_page(html.encode())
        assert (res.status, res.text) == ("ok", PARA)
        fast, ref = _both_paths(html)
        assert fast == ref == res


class TestFastPath:
    """The regex tokenizer against the html.parser one, on the full result."""

    @pytest.mark.parametrize("seed", [1, 2, 42])
    def test_synthetic_pages_all_accepted_and_identical(self, seed):
        kinds = set()
        for i in range(600):
            p = gen_page(i, seed)
            if p["html"] is None or p["kind"] == "pdf":
                continue
            kinds.add(p["kind"])
            fast, ref = _both_paths(p["html"].decode("utf-8"))
            assert fast is not None, (seed, i, p["kind"])
            assert fast == ref, (seed, i, p["kind"])
        assert kinds == {"html", "html_big", "html_boiler", "html_empty"}

    @pytest.mark.parametrize("construct", [
        "<![CDATA[x < y]]>", "<?xml version='1.0'?>", "<!bogus>", "</>", "a < b",
        "<script>var unterminated = 1;", "<!-- unterminated comment", "<p class=\"x\"",
        "<p class=a/>", "<p:x>inside</p:x>", "<x-y>inside</x-y>",
    ], ids=["cdata", "pi", "bogus-decl", "empty-end-tag", "stray-lt", "open-script",
            "open-comment", "open-tag", "bare-value-slash", "colon-name", "dash-name"])
    def test_refused_pages_agree_after_fallback(self, construct):
        html = f"<html><body><p>{PARA}</p>{construct}<p>{PARA} Again.</p></body></html>"
        fast, ref = _both_paths(html)
        assert fast is None
        assert extract_page(html.encode("utf-8")) == ref

    @pytest.mark.parametrize("construct", [
        "<script>a</\u017fcript>b</SCRIPT ></script>", "<br/><p/><img src=x />",
        "<input disabled/>", "<!---->", "<!-- a -- b -- >", "<!--\nmulti\nline\n-->",
        "<P CLASS='a \"b\"'>x</P>", "<a href=\"/x\"/>", "<!DOCTYPE html PUBLIC \"-//W3C//DTD\">",
    ])
    def test_accepted_edges_identical(self, construct):
        html = f"<html><body><p>{PARA}</p>{construct}<p>{PARA} &amp Again.</p></body></html> &amp"
        fast, ref = _both_paths(html)
        assert fast is not None and fast == ref


class TestGiantAndAdversarial:
    def test_4mb_page_identical_on_both_paths(self):
        pages = [gen_page(7 + 499 * k)["html"] for k in range(120)]
        html = b"".join(pages).decode("utf-8")
        assert len(html.encode("utf-8")) >= 4_000_000
        with _deadline(60):
            fast, ref = _both_paths(html)
        assert fast is not None and fast.status == "ok"
        assert fast == ref

    @pytest.mark.parametrize("html", [
        "<p>" + PARA + "</p><a" + " x=1" * 200_000,
        "<p>" + PARA + "</p><!--" + "-- x -" * 175_000,
    ], ids=["open-tag-200k-attrs", "open-comment-1mb"])
    def test_adversarial_page_finishes(self, html):
        with _deadline(30):
            fast, ref = _both_paths(html)
            res = extract_page(html.encode("utf-8"))
        assert fast is None
        assert res == ref


class TestPdf:
    def test_simple_tj(self):
        pdf = b"%PDF-1.4\nstream\nBT (Hello) Tj (world) Tj ET\nendstream\n%%EOF"
        assert extract_page(pdf).text == "Hello world"

    def test_tj_array(self):
        pdf = b"%PDF-1.4\nstream\nBT [(Hel) (lo)] TJ ET\nendstream\n%%EOF"
        assert extract_page(pdf).text == "Hello"

    def test_escapes(self):
        pdf = rb"%PDF-1.4\nstream\nBT (a\(b\)c \\ d) Tj ET\nendstream\n%%EOF".replace(rb"\n", b"\n")
        assert extract_page(pdf).text == "a(b)c \\ d"

    def test_flate_stream(self):
        import zlib

        inner = b"BT (compressed text content) Tj ET"
        pdf = b"%PDF-1.4\nstream\n" + zlib.compress(inner) + b"\nendstream\n%%EOF"
        assert extract_page(pdf).text == "compressed text content"

    def test_undecodable(self):
        pdf = b"%PDF-1.4\nstream\n\x00\x01\x02\nendstream\n%%EOF"
        res = extract_page(pdf)
        assert res.status == "pdf_undecodable" and res.text == ""


class TestHostilePayloads:
    PARA = "Caf\xe9 owners brew strong coffee every morning near the river."

    @pytest.mark.parametrize("payload,status,text", [
        (f"<html><body><p>{PARA}</p></body></html>".encode("latin-1"), "ok", PARA),
        (b"%PDF-1.4\nstream\n" + zlib.compress(b"BT (Hello world) Tj ET")[:8]
         + b"\nendstream", "pdf_undecodable", ""),
        (b"%PDF-1.4\n%%EOF", "pdf_undecodable", ""),
        (b"\x00" * 64, "no_content", ""),
        (b"<html><body><nav><a href='/'>Home</a> <a href='/a'>About</a></nav>"
         b"</body></html>", "no_content", ""),
    ], ids=["invalid-utf8", "pdf-truncated-zlib", "pdf-no-stream", "nul-only", "nav-only"])
    def test_status_and_text(self, payload, status, text):
        res = extract_page(payload)
        assert (res.status, res.text) == (status, text)


class TestPartitionHash:
    def test_vectorized_polyhash_equals_scalar(self):
        import pyarrow as pa

        from post_ocr_corrector_ray.functions.hashing import (
            partition_of, partition_of_array, polyhash_u64, polyhash_u64_array)

        strs = ["", "a", "ab", "https://example.com/x?q=1", "ünïcødé-",
                "x" * 500, "\x00\x01", "https://synth.example/d7/page-7",
                "тест-кирилица", "日本語のページ"]
        arr = pa.array(strs, pa.string())
        vec = polyhash_u64_array(arr)
        for i, s in enumerate(strs):
            assert int(vec[i]) == polyhash_u64(s.encode("utf-8")), s
        parts = partition_of_array(arr, 16)
        assert [int(p) for p in parts] == [partition_of(s, 16) for s in strs]

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_partition_ids_agree_and_cover_range(self, n):
        """The resume unit: scalar and vectorized assignment agree at every
        partition count, stay in [0, n) and reach every partition."""
        import pyarrow as pa

        from post_ocr_corrector_ray.functions.hashing import (
            partition_of, partition_of_array)

        urls = [f"https://synth.example/d{i % 97}/page-{i}" for i in range(20_000)]
        parts = partition_of_array(pa.array(urls, pa.string()), n)
        assert parts.min() >= 0 and parts.max() < n
        assert len(np.unique(parts)) == n
        assert [int(p) for p in parts[:300]] == [partition_of(u, n) for u in urls[:300]]

    def test_sliced_array_hashes_identically(self):
        import pyarrow as pa

        from post_ocr_corrector_ray.functions.hashing import polyhash_u64_array

        arr = pa.array(["aa", "bb", "cc", "dd"], pa.string())
        assert polyhash_u64_array(arr.slice(1, 2)).tolist() == \
            polyhash_u64_array(pa.array(["bb", "cc"])).tolist()
