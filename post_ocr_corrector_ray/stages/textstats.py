"""Per-document text statistics and the composite quality score that the
``tiers`` command ranks by.  Vectorized over Arrow batches (pyarrow.compute
split/length) with NumPy reduceat for per-row ratios.

An engine extension for training-data pipelines (not in the reference repo);
the __ray_entry__ oracles pin parity with ANSI SQL (ASCII-whitespace inputs:
Python ``str.split()`` ≡ ``regexp_split_to_array(trim(x), '\\s+')``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

STOPWORDS_EN = ("the", "a", "of", "and", "to", "in", "is", "on", "for", "with")
_PUNCT = ".,!?;:"


def _split_words(texts: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Vectorized whitespace split → (flat word array, words-per-row counts).

    ``utf8_split_whitespace`` emits empty strings at leading/trailing runs
    (unlike Python ``str.split``); they are filtered here so the counts match
    ``len(text.split())`` exactly.
    """
    lists = pc.utf8_split_whitespace(texts)
    raw_counts = pc.list_value_length(lists).fill_null(0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat_all = pc.list_flatten(lists)
    nonempty = pc.greater(pc.utf8_length(flat_all), 0)
    ne = nonempty.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(raw_counts)))
    counts = (np.add.reduceat(np.concatenate((ne, [0])), offsets[:-1])
              if ne.size else np.zeros(len(raw_counts), dtype=np.int64))
    counts[raw_counts == 0] = 0  # reduceat repeats previous slice for empty rows
    flat = flat_all.filter(nonempty)
    return flat, counts.astype(np.int64)


def token_stats_batch(batch: pa.Table, *, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """(id, n_chars, n_words, n_punct, mean_word_len, stop_ratio) per row."""
    texts = batch.column(text_col).combine_chunks()
    if isinstance(texts, pa.ChunkedArray):  # pragma: no cover
        texts = texts.combine_chunks()
    n_chars = pc.utf8_length(texts).cast(pa.int64())
    flat, counts = _split_words(texts)
    word_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    stops = pc.is_in(flat, value_set=pa.array(list(STOPWORDS_EN))) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    sum_lens = np.add.reduceat(np.concatenate((word_lens, [0])), offsets[:-1]) \
        if word_lens.size else np.zeros(len(counts), dtype=np.int64)
    sum_stops = np.add.reduceat(np.concatenate((stops, [0])), offsets[:-1]) \
        if stops.size else np.zeros(len(counts), dtype=np.int64)
    # reduceat quirk: rows with 0 words at the tail — mask them explicitly
    empty = counts == 0
    sum_lens[empty] = 0
    sum_stops[empty] = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_wl = np.where(counts > 0, sum_lens / np.maximum(counts, 1), 0.0)
        stop_ratio = np.where(counts > 0, sum_stops / np.maximum(counts, 1), 0.0)
    # punct count: chars removed when stripping the punct set
    stripped = texts
    for ch in _PUNCT:
        stripped = pc.replace_substring(stripped, ch, "")
    n_punct = pc.subtract(n_chars, pc.utf8_length(stripped).cast(pa.int64()))
    return pa.table({
        id_col: batch.column(id_col),
        "n_chars": n_chars,
        "n_words": pa.array(counts, pa.int64()),
        "n_punct": n_punct,
        "mean_word_len": pa.array(mean_wl, pa.float64()),
        "stop_ratio": pa.array(stop_ratio, pa.float64()),
    })


def quality_score_batch(batch: pa.Table, *, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Composite quality score in [0,1]: length, word-length sanity, stopword
    presence (C4/Gopher-style published heuristics, simplified)."""
    stats = token_stats_batch(batch, text_col=text_col, id_col=id_col)
    n_chars = stats.column("n_chars").to_numpy()
    n_words = stats.column("n_words").to_numpy()
    mean_wl = stats.column("mean_word_len").to_numpy()
    stop_ratio = stats.column("stop_ratio").to_numpy()
    len_ok = np.clip(n_chars / 200.0, 0.0, 1.0)
    words_ok = np.clip(n_words / 30.0, 0.0, 1.0)
    wl_ok = np.where((mean_wl >= 2.0) & (mean_wl <= 12.0), 1.0, 0.5)
    stop_ok = np.where(stop_ratio > 0.0, 1.0, 0.6)
    score = 0.25 * (len_ok + words_ok + wl_ok + stop_ok)
    return stats.append_column("quality", pa.array(score, pa.float64()))
