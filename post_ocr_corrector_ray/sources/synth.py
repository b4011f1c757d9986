"""Deterministic synthetic Common-Crawl-style pages (the input_hint table).

Schema (authoritative, from BASELINE.json input_hint):
    (url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string)

Every random value is keyed by ``stable_hash_u64(url)`` — page i is a pure
function of (i, seed), independent of generation order, process, or partition,
so the same table can be regenerated shard-by-shard inside Ray tasks at any
scale.  Each HTML payload wraps *known* main content in synthetic boilerplate
(nav/sidebar/footer/ads with high link density; main <p> blocks with high text
density), so the expected extraction per url is computable exactly and is
emitted alongside as the golden column ``expected_text``.

Row kinds (deterministic mix):
- "html"        — boilerplate-wrapped article (the common case)
- "html_big"    — multi-paragraph giant page (skew / size-bucketing tests)
- "html_boiler" — boilerplate only; expected extraction is ""
- "html_empty"  — zero-length payload
- "pdf"         — minimal uncompressed %PDF payload with Tj text operators
- "text_only"   — html NULL, pre-extracted noisy text in ``text`` (the
                  correction-only path); expected = normalized ``text``
- "ws_text"     — html NULL, all-whitespace ``text``; expected ""
"""

from __future__ import annotations

import datetime as _dt
import random

import numpy as np
import pyarrow as pa

from ..functions.hashing import stable_hash_u64
from ..functions.text import normalize_whitespace

_WORDS_LATIN = (
    "the quick brown fox jumps over lazy dog while seven wizards brew strong "
    "coffee under ancient oak trees near quiet river banks during early spring "
    "mornings when light rain falls gently upon stone paths"
).split()
_WORDS_CYRILLIC = (
    "брза смеђа лисица скаче преко лењог пса док седам чаробњака кува јаку "
    "кафу испод старог храста поред мирне реке током раних пролећних јутара"
).split()
_BOILER_LINKS = ["Home", "About", "Contact", "Login", "Register", "Sitemap", "Archive", "RSS"]
_ADS = ["Buy now!", "Click here", "Sale 50%", "Subscribe", "Ad"]

LANGS = ["sr", "en", "de", "fr"]
_BASE_TS = _dt.datetime(2024, 1, 1, 0, 0, 0)

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def url_of(i: int) -> str:
    return f"https://synth.example/d{i % 97:02d}/page-{i}"


def _sentence(rng: random.Random, words: list[str]) -> str:
    n = rng.randint(6, 14)
    toks = [rng.choice(words) for _ in range(n)]
    s = " ".join(toks)
    return s[0].upper() + s[1:] + "."


def _paragraph(rng: random.Random, words: list[str], n_sentences: int) -> str:
    return " ".join(_sentence(rng, words) for _ in range(n_sentences))


def _boilerplate_nav(rng: random.Random) -> str:
    items = "".join(
        f'<li><a href="/{w.lower()}">{w}</a></li>' for w in rng.sample(_BOILER_LINKS, 5)
    )
    return f"<nav><ul>{items}</ul></nav>"


def _boilerplate_sidebar(rng: random.Random) -> str:
    links = " ".join(
        f'<a href="/t/{i}">{rng.choice(_BOILER_LINKS)} {i}</a>' for i in range(rng.randint(4, 8))
    )
    return f'<div class="sidebar">{links}</div>'


def _boilerplate_ads(rng: random.Random) -> str:
    return "".join(f"<div class='ad'>{rng.choice(_ADS)}</div>" for _ in range(rng.randint(1, 3)))


def _article_html(rng: random.Random, lang: str, n_paragraphs: int) -> tuple[str, str]:
    """Returns (html, expected_extracted_text)."""
    words = _WORDS_CYRILLIC if lang == "sr" else _WORDS_LATIN
    heading = _sentence(rng, words)[:-1]  # no trailing period in headings
    paragraphs = [_paragraph(rng, words, rng.randint(2, 5)) for _ in range(n_paragraphs)]
    body_parts = [
        "<!DOCTYPE html><html><head><title>synth page</title>",
        "<script>var x = 1;</script><style>.a{color:red}</style></head><body>",
        _boilerplate_nav(rng),
        f"<h1>{heading}</h1>",
        '<div id="main"><article>',
    ]
    for p in paragraphs:
        body_parts.append(f"<p>{p}</p>")
        if rng.random() < 0.3:
            body_parts.append(_boilerplate_ads(rng))
    body_parts.append("</article></div>")
    body_parts.append(_boilerplate_sidebar(rng))
    body_parts.append("<footer><p>Copyright 2024 synth.example. All rights reserved.</p></footer>")
    body_parts.append("</body></html>")
    # extractor keeps: link-free heading + every main <p> (in document order)
    expected = " ".join([heading] + paragraphs)
    return "".join(body_parts), expected


def _boiler_only_html(rng: random.Random) -> str:
    return (
        "<html><head><title>nav only</title></head><body>"
        + _boilerplate_nav(rng)
        + _boilerplate_sidebar(rng)
        + "<footer><p>footer text</p></footer></body></html>"
    )


def _pdf_payload(rng: random.Random, lang: str) -> tuple[bytes, str]:
    words = _WORDS_CYRILLIC if lang == "sr" else _WORDS_LATIN
    lines = [_sentence(rng, words) for _ in range(rng.randint(2, 5))]
    # sentences contain no parens/backslashes, so no PDF string escaping needed
    stream = " ".join(f"BT ({ln}) Tj ET" for ln in lines)
    body = f"stream\n{stream}\nendstream"
    pdf = f"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\n{body}\n%%EOF"
    expected = normalize_whitespace(" ".join(lines)).strip()
    return pdf.encode("utf-8"), expected


def _noisy_text(rng: random.Random, lang: str) -> str:
    words = _WORDS_CYRILLIC if lang == "sr" else _WORDS_LATIN
    # pre-extracted but messy: stray whitespace runs that normalization collapses
    parts = []
    for _ in range(rng.randint(1, 4)):
        parts.append(_sentence(rng, words))
        parts.append(rng.choice(["  ", "\t", "\n\n", "   "]))
    return "".join(parts)


def kind_of(i: int, seed: int) -> str:
    h = stable_hash_u64(f"{seed}:kind:{url_of(i)}")
    if i % 499 == 7:
        return "html_big"
    r = h % 100
    if r < 82:
        return "html"
    if r < 87:
        return "pdf"
    if r < 93:
        return "text_only"
    if r < 96:
        return "html_boiler"
    if r < 98:
        return "html_empty"
    return "ws_text"


def gen_page(i: int, seed: int = 42) -> dict:
    """Generate page ``i`` — a pure function of (i, seed)."""
    url = url_of(i)
    rng = random.Random(stable_hash_u64(f"{seed}:page:{url}"))
    lang = LANGS[stable_hash_u64(f"{seed}:lang:{url}") % len(LANGS)]
    kind = kind_of(i, seed)
    ts = _BASE_TS + _dt.timedelta(seconds=i)
    html: bytes | None = None
    text: str | None = None
    expected = ""
    if kind == "html":
        h, expected = _article_html(rng, lang, rng.randint(1, 5))
        html = h.encode("utf-8")
    elif kind == "html_big":
        h, expected = _article_html(rng, lang, 120)
        html = h.encode("utf-8")
    elif kind == "html_boiler":
        html = _boiler_only_html(rng).encode("utf-8")
    elif kind == "html_empty":
        html = b""
    elif kind == "pdf":
        html, expected = _pdf_payload(rng, lang)
    elif kind == "text_only":
        text = _noisy_text(rng, lang)
        expected = normalize_whitespace(text).strip()
    else:  # ws_text
        text = " \t \n   "
    return {
        "url": url,
        "warc_ts": ts,
        "html": html,
        "text": text,
        "lang": lang,
        "expected_text": expected,
        "kind": kind,
    }


def pages_batch(indices: np.ndarray, seed: int = 42, with_golden: bool = False) -> pa.Table:
    """Arrow table of pages for the given row indices (Ray task unit)."""
    rows = [gen_page(int(i), seed) for i in indices]
    cols: dict[str, list] = {name: [r[name] for r in rows] for name in
                             ("url", "warc_ts", "html", "text", "lang")}
    arrays = [
        pa.array(cols["url"], pa.string()),
        pa.array(cols["warc_ts"], pa.timestamp("us")),
        pa.array(cols["html"], pa.binary()),
        pa.array(cols["text"], pa.string()),
        pa.array(cols["lang"], pa.string()),
    ]
    names = list(PAGES_SCHEMA.names)
    if with_golden:
        arrays.append(pa.array([r["expected_text"] for r in rows], pa.string()))
        arrays.append(pa.array([r["kind"] for r in rows], pa.string()))
        names += ["expected_text", "kind"]
    return pa.Table.from_arrays(arrays, names=names)


def write_pages_parquet(path: str, n: int, seed: int = 42, golden_path: str | None = None) -> None:
    """Single-process writer for test-scale fixtures (bench-scale generation
    goes through ray.data.range(n).map_batches(pages_batch) instead); each
    file is written atomically."""
    from ..state.lineage import write_atomic

    table = pages_batch(np.arange(n), seed=seed, with_golden=golden_path is not None)
    if golden_path is not None:
        write_atomic(golden_path, table.select(["url", "expected_text", "kind"]))
        table = table.select(list(PAGES_SCHEMA.names))
    write_atomic(path, table)
