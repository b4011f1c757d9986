"""Single-process oracle — the byte-identity golden for the Ray pipeline.

Implements the full extract→normalize→correct path per url sequentially in
one process with no Ray, using the same pure kernels the pipeline stages use.
Tests assert that the distributed pipeline's output bytes equal this oracle's
output per url at every parallelism level and batch size (FIXTURES.md F4).

Reference semantic citations live on the kernels themselves
(functions/extraction.py, functions/text.py, model/neural.py,
model/dictionary.py).
"""

from __future__ import annotations

import pyarrow as pa

from .functions.extraction import extract_page
from .functions.text import normalize_whitespace
from .model.dictionary import DictionaryCorrector
from .model.neural import NeuralCorrectorModel


def oracle_extract_row(html: bytes | None, text: str | None) -> tuple[str, str]:
    """Returns (extracted_text, status) — same contract as stages.extract."""
    if html is None:
        if text is None:
            return "", "no_payload"
        return normalize_whitespace(text).strip(), "text_passthrough"
    res = extract_page(html)
    return res.text, res.status


def oracle_extract(pages: pa.Table) -> dict[str, str]:
    """url → extracted_text over a pages table, sequentially."""
    out: dict[str, str] = {}
    urls = pages.column("url").to_pylist()
    htmls = pages.column("html").to_pylist()
    texts = pages.column("text").to_pylist()
    for url, html, text in zip(urls, htmls, texts):
        out[url], _ = oracle_extract_row(html, text)
    return out


def oracle_extract_correct(pages: pa.Table, corrector) -> dict[str, str]:
    """url → corrected extracted text; ``corrector`` is a NeuralCorrectorModel,
    DictionaryCorrector, or None (null corrector)."""
    extracted = oracle_extract(pages)
    if corrector is None:
        return extracted
    if isinstance(corrector, NeuralCorrectorModel):
        return {u: corrector.correct_document(t) for u, t in extracted.items()}
    if isinstance(corrector, DictionaryCorrector):
        return {u: corrector.correct_sentence(t) for u, t in extracted.items()}
    raise TypeError(type(corrector))
