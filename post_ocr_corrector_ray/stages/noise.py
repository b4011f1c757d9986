"""Noise stage: add a ``messy`` column with per-url keyed OCR noise.

Stateless task stage — the RNG is re-keyed per row from
``stable_hash_u64(url)`` (functions/noise.py), so output is independent of
batch composition and partitioning (unlike the reference's global-stream
``random`` usage, make_messy_dataset.py:30,57).

The reference strips each line before mutilating (make_messy_dataset.py:82);
this stage does the same to its input column.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.noise import mutilate_keyed


# the noise alphabet of the ``documents`` pipelines
GOOD_CHARS = "abcdefghijklmnopqrstuvwxyz "


def add_messy_column(batch: pa.Table, *, good_chars: str, text_col: str = "clean",
                     key_col: str = "url") -> pa.Table:
    # keyed by the key's text, so an int doc_id keys by its decimal form
    urls = batch.column(key_col).cast(pa.string()).to_pylist()
    texts = batch.column(text_col).to_pylist()
    messy = [mutilate_keyed(u, (t or "").strip(), good_chars)
             for u, t in zip(urls, texts)]
    return batch.append_column("messy", pa.array(messy, pa.string()))
