"""Main-content extraction from HTML / PDF payloads — pure, deterministic.

The reference repo's "extraction" tier is its srWaC markup→sentence parser
(src/corpus/serbian/srwac.py + to_plain_text.py): markup in, clean text
records out.  The graft target (BASELINE.json north_star) generalizes that to
Common-Crawl-style pages: DOM-heuristic boilerplate stripping via text-density
and link-density block scoring (the published Boilerpipe / trafilatura family
of heuristics, reimplemented from the papers' ideas — no external parser
libraries exist in this container, so the DOM walk uses stdlib
``html.parser``).

Determinism contract: ``extract_page(payload)`` is a pure function of the
payload bytes.  Output text is whitespace-normalized with the reference's
``get_line`` semantics (functions/text.py: collapse runs, drop leading run) so
the downstream corrector sees the same byte contract as the reference corpus.

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
VOID_TAGS = frozenset("br hr img input meta link area base col wbr source track".split())

# Block-scoring thresholds (fixed constants — part of the engine's semantics).
MIN_BLOCK_CHARS = 40       # shorter blocks are boilerplate unless link-free headings
MAX_LINK_DENSITY = 0.33    # blocks with more than 1/3 link text are navigation
MIN_BLOCK_WORDS = 5


@dataclass
class _Block:
    order: int
    tag: str
    text_parts: list[str]
    link_chars: int = 0
    total_chars: int = 0

    def text(self) -> str:
        return "".join(self.text_parts)


class _BlockParser(HTMLParser):
    """Single-pass DOM-ish walk: accumulate text into the nearest open block,
    tracking link-char counts and pruned subtrees."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._stack: list[_Block] = []
        self._prune_depth = 0
        self._link_depth = 0
        self._order = 0
        self._title_depth = 0
        self.title_parts: list[str] = []

    def _open_block(self, tag: str) -> None:
        blk = _Block(order=self._order, tag=tag, text_parts=[])
        self._order += 1
        self._stack.append(blk)
        self.blocks.append(blk)

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in VOID_TAGS:
            if tag == "br" and self._stack and not self._prune_depth:
                self._stack[-1].text_parts.append(" ")
            return
        if tag in PRUNE_TAGS or self._prune_depth:
            self._prune_depth += 1
            return
        if tag == "title":
            self._title_depth += 1
            return
        if tag == "a":
            self._link_depth += 1
        if tag in BLOCK_TAGS:
            self._open_block(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        if self._prune_depth:
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

    def handle_data(self, data: str) -> None:
        if self._prune_depth or not data:
            return
        if self._title_depth:
            self.title_parts.append(data)
            return
        if not self._stack:
            return  # text outside any block element (e.g. bare body) is ignored
        blk = self._stack[-1]
        blk.text_parts.append(data)
        n = len("".join(data.split()))  # non-whitespace chars
        blk.total_chars += n
        if self._link_depth:
            blk.link_chars += n


@dataclass(frozen=True)
class ExtractResult:
    text: str
    status: str          # "ok" | "empty" | "no_content" | "pdf_ok" | "pdf_undecodable" | "decode_error"
    n_blocks_kept: int
    n_blocks_total: int
    title: str


def _score_and_join(parser: _BlockParser) -> tuple[str, int, int]:
    kept: list[str] = []
    n_total = 0
    for blk in parser.blocks:
        raw = blk.text()
        norm = normalize_whitespace(raw).strip()
        if not norm:
            continue
        n_total += 1
        chars = blk.total_chars
        if chars == 0:
            continue
        link_density = blk.link_chars / chars
        words = len(norm.split())
        if blk.tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            # headings: keep if link-free (navigation headings are linky)
            if blk.link_chars == 0 and words >= 1:
                kept.append(norm)
            continue
        if chars >= MIN_BLOCK_CHARS and words >= MIN_BLOCK_WORDS and link_density <= MAX_LINK_DENSITY:
            kept.append(norm)
    return " ".join(kept), len(kept), n_total


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
        try:
            html = payload.decode("latin-1")
        except Exception:  # pragma: no cover - latin-1 never fails
            return ExtractResult("", "decode_error", 0, 0, "")
    parser = _BlockParser()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        return ExtractResult("", "decode_error", 0, 0, "")
    text, n_kept, n_total = _score_and_join(parser)
    title = normalize_whitespace("".join(parser.title_parts)).strip()
    status = "ok" if text else "no_content"
    return ExtractResult(text, status, n_kept, n_total, title)
