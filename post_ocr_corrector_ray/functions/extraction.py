"""Main-content extraction from HTML / PDF payloads — pure, deterministic.

The reference repo's "extraction" tier is its srWaC markup→sentence parser
(src/corpus/serbian/srwac.py + to_plain_text.py): markup in, clean text
records out.  The graft target (BASELINE.json north_star) generalizes that to
Common-Crawl-style pages: DOM-heuristic boilerplate stripping via text-density
and link-density block scoring (the published Boilerpipe / trafilatura family
of heuristics, reimplemented from the papers' ideas — no external parser
libraries exist in this container).

Determinism contract: ``extract_page(payload)`` is a pure function of the
payload bytes.  Output text is whitespace-normalized with the reference's
``get_line`` semantics (functions/text.py: collapse runs, drop leading run) so
the downstream corrector sees the same byte contract as the reference corpus.

HTML: two tokenizers, one block accumulator.  ``_Blocks`` owns the block,
link, title and prune logic; a tokenizer only reports start tags, end tags and
text to it.

- ``_tokenize_fast`` walks the page with one compiled regex, ``re.match`` at
  each position, and accepts a conservative grammar only: text runs without
  ``<`` (each run entity-decoded as a whole with ``html.unescape``); start tags
  with ASCII alphanumeric names, attributes separated by ASCII whitespace with
  quoted or bare values, and an optional ``/>``; end tags ``</name\\s*>``;
  comments ending at the first ``--\\s*>``; ``<!doctype …>``; and ``script``
  / ``style`` bodies up to the first ``</\\s*tag\\s*>`` (ASCII letters, any
  case).  At the first construct outside that grammar — CDATA sections,
  processing instructions, other ``<!`` declarations, a stray or
  unterminated ``<``, tag names like ``p:x``, a bare attribute value touching
  ``/>`` — it refuses the page.
- ``_tokenize_reference`` is the stdlib ``html.parser`` walk.  A refused page
  is re-parsed from scratch with it, the fast path's partial state thrown
  away.  It stays for two reasons: it is the only path for pages outside the
  grammar, and it is the reference the tests hold the fast path to (the same
  ``ExtractResult`` on every page the fast path accepts).  Within the grammar
  each construct is tokenized exactly as ``html.parser`` does it, and on
  synthetic pages the fast path takes about half the time.

The page alone decides which path runs; there is no switch.

PDF branch: payloads sniffing as ``%PDF`` go through a minimal text-operator
scanner that handles *uncompressed* content streams (``BT … (text) Tj … ET``).
Real-world compressed PDFs are out of scope in this container (no decompression
of arbitrary filters beyond zlib FlateDecode, which IS handled); pages whose
streams cannot be decoded yield ``status="pdf_undecodable"`` and empty text —
counted, never silently dropped.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from html import unescape
from html.parser import HTMLParser

from .text import normalize_whitespace

# Elements whose entire subtree is never content.
PRUNE_TAGS = frozenset(
    "script style noscript template svg canvas iframe object embed "
    "nav header footer aside form button select option label".split()
)
# Elements that delimit text blocks.
BLOCK_TAGS = frozenset(
    "p div article section main td th li h1 h2 h3 h4 h5 h6 blockquote pre "
    "figcaption summary dd dt".split()
)
# Elements an <option> outside a <select> closes with, its end tag left out.
_OPTION_PARENTS = frozenset(("datalist", "optgroup", "select"))
VOID_TAGS = frozenset("br hr img input meta link area base col wbr source track".split())

# Block-scoring thresholds (fixed constants — part of the engine's semantics).
MIN_BLOCK_CHARS = 40       # shorter blocks are boilerplate unless link-free headings
MAX_LINK_DENSITY = 0.33    # blocks with more than 1/3 link text are navigation
MIN_BLOCK_WORDS = 5


@dataclass(frozen=True)
class ExtractResult:
    text: str
    status: str          # "ok" | "empty" | "no_content" | "pdf_ok" | "pdf_undecodable" | "decode_error"
    n_blocks_kept: int
    n_blocks_total: int
    title: str


@dataclass
class _Block:
    tag: str
    text_parts: list[str]
    link_chars: int = 0   # non-whitespace chars inside <a>

    def text(self) -> str:
        return "".join(self.text_parts)


class _Blocks:
    """Single-pass DOM-ish walk: accumulate text into the nearest open block,
    tracking link-char counts, the title and pruned subtrees.  Both tokenizers
    drive it through ``start`` / ``end`` / ``data``."""

    def __init__(self) -> None:
        self.blocks: list[_Block] = []
        self.title_parts: list[str] = []
        self._stack: list[_Block] = []
        self._prune_tag = ""
        self._prune_depth = 0
        self._link_depth = 0
        self._title_depth = 0

    def start(self, tag: str) -> None:
        if self._prune_depth:
            # Only the prune root's own name nests.  HTML lets </li> and
            # </option> be left out, so counting every tag inside a pruned
            # subtree would never return to 0 and drop the rest of the page.
            # An <option> never holds another: the next <option> or
            # <optgroup> ends it, and an <option> opens the next pruned one.
            if self._prune_tag == "option" and tag in ("option", "optgroup"):
                self._prune_depth = 0
            else:
                if tag == self._prune_tag:
                    self._prune_depth += 1
                return
        if tag in VOID_TAGS:
            if tag == "br" and self._stack:
                self._stack[-1].text_parts.append(" ")
            return
        if tag in PRUNE_TAGS:
            self._prune_tag = tag
            self._prune_depth = 1
            return
        if tag == "title":
            self._title_depth += 1
            return
        if tag == "a":
            self._link_depth += 1
        if tag in BLOCK_TAGS:
            blk = _Block(tag, [])
            self._stack.append(blk)
            self.blocks.append(blk)

    def end(self, tag: str) -> None:
        if self._prune_depth:
            # an <option> root also ends when its parent closes
            if tag == self._prune_tag or (self._prune_tag == "option"
                                          and tag in _OPTION_PARENTS):
                self._prune_depth -= 1
            return
        if tag == "title":
            self._title_depth = max(0, self._title_depth - 1)
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
            return
        if tag in BLOCK_TAGS:
            # close the innermost open block of this tag (tolerates misnesting)
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i].tag == tag:
                    del self._stack[i:]
                    break

    def data(self, data: str) -> None:
        if self._prune_depth or not data:
            return
        if self._title_depth:
            self.title_parts.append(data)
            return
        if not self._stack:
            return  # text outside any block element (e.g. bare body) is ignored
        blk = self._stack[-1]
        blk.text_parts.append(data)
        if self._link_depth:
            blk.link_chars += len("".join(data.split()))

    def result(self) -> ExtractResult:
        text, n_kept, n_total = _score_and_join(self.blocks)
        title = normalize_whitespace("".join(self.title_parts)).strip()
        return ExtractResult(text, "ok" if text else "no_content", n_kept, n_total, title)


def _score_and_join(blocks: list[_Block]) -> tuple[str, int, int]:
    kept: list[str] = []
    n_total = 0
    for blk in blocks:
        words = blk.text().split()
        if not words:
            continue
        n_total += 1
        norm = " ".join(words)
        chars = len(norm) - len(words) + 1  # non-whitespace chars
        if blk.tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            # headings: keep if link-free (navigation headings are linky)
            if blk.link_chars == 0:
                kept.append(norm)
            continue
        if (chars >= MIN_BLOCK_CHARS and len(words) >= MIN_BLOCK_WORDS
                and blk.link_chars / chars <= MAX_LINK_DENSITY):
            kept.append(norm)
    return " ".join(kept), len(kept), n_total


# --- HTML tokenizers ----------------------------------------------------------

# Whitespace inside tags is ASCII only: ``html.parser`` ends a tag name at
# these characters but not at ``\v`` or non-ASCII spaces.
_WS = r"[ \t\n\r\f]"
# A bare value must end at whitespace or ``>``: ``html.parser`` reads
# ``<p class=a/>`` as the value ``a/`` and no self-closing slash.
_ATTR = (r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
         rf"""(?:{_WS}*={_WS}*(?:"[^"]*"|'[^']*'|[^\s"'=<>`/]+(?=[ \t\n\r\f>])))?""")
# Group 1 text run; 2 start-tag name, 3 its "/" (empty when absent); 4 end-tag
# name.  Comments and doctypes capture nothing.
_TOKEN_RE = re.compile(
    r"([^<]+)"
    rf"|<([a-zA-Z][a-zA-Z0-9]*)(?:{_WS}+{_ATTR})*{_WS}*(/?)>"
    rf"|</([a-zA-Z][a-zA-Z0-9]*){_WS}*>"
    r"|<!--(?s:.*?)--\s*>"
    r"|<![dD][oO][cC][tT][yY][pP][eE][^>]*>"
)
# Where a ``script`` / ``style`` body ends.  ``html.parser`` searches
# ``</\s*tag\s*>`` case-insensitively, but a match spelled with a non-ASCII
# letter (re.I folds "ſ" to "s") fails its end-tag check and it scans on, so
# the body ends at the first ASCII spelling.
_RAW_TEXT_END = {
    tag: re.compile(r"</\s*" + "".join(f"[{c}{c.upper()}]" for c in tag) + r"\s*>")
    for tag in HTMLParser.CDATA_CONTENT_ELEMENTS
}


def _tokenize_fast(html: str, blocks: _Blocks) -> bool:
    """Drive ``blocks`` with the one-regex scan; False refuses the page at its
    first construct outside the grammar, leaving ``blocks`` partly filled."""
    start, end, data = blocks.start, blocks.end, blocks.data
    match = _TOKEN_RE.match
    pos, n = 0, len(html)
    while pos < n:
        m = match(html, pos)
        if m is None:
            return False
        pos = m.end()
        group = m.lastindex
        if group == 1:
            data(unescape(m[1]))
        elif group == 3:
            tag = m[2].lower()
            start(tag)
            if m[3]:
                end(tag)
            elif tag in _RAW_TEXT_END:
                close = _RAW_TEXT_END[tag].search(html, pos)
                if close is None:
                    return False
                data(html[pos:close.start()])
                end(tag)
                pos = close.end()
        elif group == 4:
            end(m[4].lower())
    return True


class _ReferenceParser(HTMLParser):
    def __init__(self, blocks: _Blocks) -> None:
        super().__init__(convert_charrefs=True)
        self._blocks = blocks

    def handle_starttag(self, tag: str, attrs) -> None:
        self._blocks.start(tag)

    def handle_endtag(self, tag: str) -> None:
        self._blocks.end(tag)

    def handle_data(self, data: str) -> None:
        self._blocks.data(data)


def _tokenize_reference(html: str, blocks: _Blocks) -> bool:
    """Drive ``blocks`` with the stdlib ``html.parser``; accepts every page
    (``<tag/>`` reaches ``blocks`` as start then end, as on the fast path)."""
    parser = _ReferenceParser(blocks)
    parser.feed(html)
    parser.close()
    return True


def _extract_html(tokenize, html: str) -> ExtractResult | None:
    """One tokenizer into a fresh accumulator; None when it refuses the page."""
    blocks = _Blocks()
    return blocks.result() if tokenize(html, blocks) else None


# --- PDF ----------------------------------------------------------------------

_PDF_STREAM_RE = re.compile(rb"stream\r?\n(.*?)\r?\nendstream", re.DOTALL)
_PDF_TEXT_SEG_RE = re.compile(rb"BT(.*?)ET", re.DOTALL)
_PDF_STRING_RE = re.compile(
    rb"\(((?:\\.|[^\\()])*)\)\s*(Tj|'|\")|\[((?:\\.|[^\\\]])*)\]\s*TJ", re.DOTALL
)
_PDF_ARRAY_STRING_RE = re.compile(rb"\(((?:\\.|[^\\()])*)\)")
_PDF_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _pdf_unescape(raw: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(raw)
    while i < n:
        c = raw[i : i + 1]
        if c == b"\\" and i + 1 < n:
            nxt = raw[i + 1 : i + 2]
            if nxt.isdigit():  # octal escape, up to 3 digits
                j = i + 1
                while j < min(i + 4, n) and raw[j : j + 1].isdigit():
                    j += 1
                out.append(int(raw[i + 1 : j], 8) & 0xFF)
                i = j
                continue
            out += _PDF_ESCAPES.get(nxt, nxt)
            i += 2
        else:
            out += c
            i += 1
    return bytes(out)


def extract_pdf_text(payload: bytes) -> ExtractResult:
    """Scan uncompressed / FlateDecode content streams for Tj/TJ text."""
    pieces: list[str] = []
    decodable = False
    for m in _PDF_STREAM_RE.finditer(payload):
        data = m.group(1)
        if data[:2] in (b"\x78\x9c", b"\x78\xda", b"\x78\x01"):
            try:
                data = zlib.decompress(data)
            except zlib.error:
                continue
        if b"BT" not in data:
            continue
        decodable = True
        for seg in _PDF_TEXT_SEG_RE.finditer(data):
            for sm in _PDF_STRING_RE.finditer(seg.group(1)):
                if sm.group(1) is not None:
                    pieces.append(_pdf_unescape(sm.group(1)).decode("utf-8", "replace"))
                    pieces.append(" ")
                elif sm.group(3) is not None:
                    for am in _PDF_ARRAY_STRING_RE.finditer(sm.group(3)):
                        pieces.append(_pdf_unescape(am.group(1)).decode("utf-8", "replace"))
                    pieces.append(" ")
    text = normalize_whitespace("".join(pieces)).strip()
    if text:
        return ExtractResult(text, "pdf_ok", 1, 1, "")
    return ExtractResult("", "pdf_undecodable" if not decodable else "pdf_ok", 0, 0, "")


# --- entry point --------------------------------------------------------------


def extract_page(payload: bytes | None) -> ExtractResult:
    """Extract main-content text from a raw page payload (HTML or PDF)."""
    if payload is None or len(payload) == 0:
        return ExtractResult("", "empty", 0, 0, "")
    if payload[:5] == b"%PDF-":
        return extract_pdf_text(payload)
    try:
        html = payload.decode("utf-8")
    except UnicodeDecodeError:
        html = payload.decode("latin-1")
    res = _extract_html(_tokenize_fast, html)
    if res is None:
        try:
            res = _extract_html(_tokenize_reference, html)
        except Exception:
            return ExtractResult("", "decode_error", 0, 0, "")
    return res
