"""Text-analysis stages: token counting, quality scoring, language ID,
document fingerprinting.  All vectorized over Arrow batches where kernels
exist (pyarrow.compute split/length) with NumPy reduceat for per-row ratios.

These are engine extensions for large-scale training-data pipelines (not in
the reference repo); where an exact ANSI-SQL equivalent exists the __ray_entry__
oracle pins parity (ASCII-whitespace inputs: Python ``str.split()`` ≡
``regexp_split_to_array(trim(x), '\\s+')``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import shingle_hashes, stable_hash_u64

STOPWORDS_EN = ("the", "a", "of", "and", "to", "in", "is", "on", "for", "with")
_PUNCT = ".,!?;:"

# tiny per-language stopword profiles for the n-gram/stopword language heuristic
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "den", "von"},
    "fr": {"le", "la", "les", "et", "est", "pas", "un", "une", "des", "dans"},
    "es": {"el", "la", "los", "y", "es", "no", "un", "una", "de", "que"},
}


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


def langid_batch(batch: pa.Table, *, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Heuristic language ID, fully vectorized: script counts via RE2
    codepoint-class kernels (``count_substring_regex``), stopword-profile
    votes via ``index_in`` → per-row OR-reduced bitmask → popcount.  Byte-
    equal to ``langid_batch_scalar`` (pinned in pytest); the scalar version
    was the round-1 per-char-Python hot loop."""
    texts = batch.column(text_col).combine_chunks()
    n = len(texts)
    empty = pc.or_kleene(pc.is_null(texts),
                         pc.equal(pc.utf8_length(texts), 0)) \
        .fill_null(True).to_numpy(zero_copy_only=False).astype(bool)

    def _count(pattern: str) -> np.ndarray:
        return pc.count_substring_regex(texts, pattern).fill_null(0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)

    n_cyr = _count(r"[\x{0400}-\x{04FF}]")
    n_cjk = _count(r"[\x{4E00}-\x{9FFF}]")
    n_alpha = np.maximum(_count(r"\pL"), 1)

    # distinct-stopword hits per language: per-row OR of word→bit, popcount
    flat, counts = _split_words(pc.utf8_lower(texts))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    langs = sorted(_LANG_PROFILES)
    hits = np.zeros((len(langs), n), dtype=np.int64)
    for li, lang in enumerate(langs):
        words = sorted(_LANG_PROFILES[lang])
        idx = pc.index_in(flat, value_set=pa.array(words)) \
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        bits = np.where(idx >= 0, np.left_shift(np.int64(1), idx), 0).astype(np.int64)
        if bits.size:
            mask = np.bitwise_or.reduceat(np.concatenate((bits, [0])), offsets[:-1])
        else:
            mask = np.zeros(n, dtype=np.int64)
        mask[counts == 0] = 0
        for b in range(len(words)):           # popcount over ≤10 bits
            hits[li] += (mask >> b) & 1
    best_i = np.argmax(hits, axis=0)          # first max → alphabetical tiebreak
    best_hits = hits[best_i, np.arange(n)]

    lang_arr = np.array(langs)
    preds = np.where(best_hits > 0, lang_arr[best_i], "und").astype(object)
    confs = best_hits / 10.0
    cyr = (n_cyr / n_alpha) > 0.5
    cjk = ~cyr & ((n_cjk / n_alpha) > 0.5)
    preds[cyr] = "sr"; confs[cyr] = (n_cyr / n_alpha)[cyr]
    preds[cjk] = "zh"; confs[cjk] = (n_cjk / n_alpha)[cjk]
    preds[empty] = "und"; confs[empty] = 0.0
    return pa.table({
        id_col: batch.column(id_col),
        "lang_pred": pa.array(preds.tolist(), pa.string()),
        "lang_conf": pa.array(confs, pa.float64()),
    })


def langid_batch_scalar(batch: pa.Table, *, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Per-row reference implementation of the language heuristic (kept as
    the semantic spec; ``langid_batch`` must match it exactly)."""
    texts = batch.column(text_col).to_pylist()
    preds: list[str] = []
    confs: list[float] = []
    for t in texts:
        t = t or ""
        if not t:
            preds.append("und"); confs.append(0.0); continue
        n_cyr = sum(1 for c in t if "Ѐ" <= c <= "ӿ")
        n_cjk = sum(1 for c in t if "一" <= c <= "鿿")
        n_alpha = sum(1 for c in t if c.isalpha()) or 1
        if n_cyr / n_alpha > 0.5:
            preds.append("sr"); confs.append(n_cyr / n_alpha); continue
        if n_cjk / n_alpha > 0.5:
            preds.append("zh"); confs.append(n_cjk / n_alpha); continue
        words = set(t.lower().split())
        best_lang, best_hits = "und", 0
        for lang in sorted(_LANG_PROFILES):
            hits = len(words & _LANG_PROFILES[lang])
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        preds.append(best_lang)
        confs.append(best_hits / 10.0)
    return pa.table({
        id_col: batch.column(id_col),
        "lang_pred": pa.array(preds, pa.string()),
        "lang_conf": pa.array(confs, pa.float64()),
    })


_PII_PATTERNS = (
    (r"[\w.+-]+@[\w-]+\.[\w.]+", "<EMAIL>"),
    (r"\pN{4,}", "<NUM>"),
)


def scrub_pii_batch(batch: pa.Table, *, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Deterministic PII scrubbing: emails and long digit runs replaced with
    typed placeholders (vectorized RE2 replace; patterns in _PII_PATTERNS,
    applied in order — same order as the SQL twin's nested regexp_replace)."""
    out = batch.column(text_col).combine_chunks()
    for pat, repl in _PII_PATTERNS:
        out = pc.replace_substring_regex(out, pat, replacement=repl)
    return pa.table({id_col: batch.column(id_col),
                     "scrubbed": out})


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text",
                      id_col: str = "doc_id", k: int = 8) -> pa.Table:
    """MD5 document fingerprint: full-content md5 + the minimum md5 over the
    document's distinct k-char grams (winnowing-style min-hash fingerprint).

    md5 is chosen so the result has an exact ANSI-SQL twin
    (``min(md5(substr(text, g, k)))`` — see __ray_entry__ ``doc_fingerprint``);
    a per-batch gram→digest cache keeps the cost ~one md5 per *distinct* gram.
    """
    import hashlib

    texts = batch.column(text_col).to_pylist()
    cache: dict[str, str] = {}
    content: list[str] = []
    mins: list[str] = []
    for t in texts:
        t = t or ""
        content.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        grams = ({t[i : i + k] for i in range(len(t) - k + 1)}
                 if len(t) >= k else {t})
        mn = None
        for g in grams:
            h = cache.get(g)
            if h is None:
                h = cache[g] = hashlib.md5(g.encode("utf-8")).hexdigest()
            if mn is None or h < mn:
                mn = h
        mins.append(mn)
    return pa.table({
        id_col: batch.column(id_col),
        "content_md5": pa.array(content, pa.string()),
        "fp_min": pa.array(mins, pa.string()),
    })


def fingerprint_rolling_batch(batch: pa.Table, *, text_col: str = "text",
                              id_col: str = "doc_id", k: int = 8) -> pa.Table:
    """Rolling-hash document fingerprint: min over k-gram rolling hashes
    (winnowing-style, deterministic) + a full-content stable hash.  The
    vectorized non-SQL sibling of ``fingerprint_batch`` (uint64 polynomial
    hashes — no SQL twin; pytest-pinned determinism)."""
    texts = batch.column(text_col).to_pylist()
    mins: list[int] = []
    fulls: list[int] = []
    for t in texts:
        t = t or ""
        sh = shingle_hashes(t, k=k)
        mins.append(int(sh.min()) if sh.size else 0)
        fulls.append(stable_hash_u64(t))
    return pa.table({
        id_col: batch.column(id_col),
        "fingerprint_min": pa.array([m & 0x7FFFFFFFFFFFFFFF for m in mins], pa.int64()),
        "content_hash": pa.array([f & 0x7FFFFFFFFFFFFFFF for f in fulls], pa.int64()),
    })


def _winnow_positions(h: np.ndarray, w: int) -> np.ndarray:
    """0-based positions selected by robust winnowing over the per-position
    hash array ``h``: every window of ``min(w, n)`` consecutive hashes
    contributes its minimum, RIGHTMOST occurrence on ties (Schleimer,
    Wilkerson & Aiken, "Winnowing: Local Algorithms for Document
    Fingerprinting", SIGMOD 2003).  Vectorized: one sliding-window view +
    one argmin over the reversed window axis (first-min of the reversal =
    rightmost-min of the window)."""
    n = h.size
    ww = min(w, n)
    win = np.lib.stride_tricks.sliding_window_view(h, ww)[:, ::-1]
    j = win.argmin(axis=1)
    pos = np.arange(n - ww + 1, dtype=np.int64) + (np.int64(ww - 1) - j)
    return np.unique(pos)


def winnowing_batch(batch: pa.Table, *, text_col: str = "text",
                    id_col: str = "doc_id", k: int = 8, w: int = 4
                    ) -> pa.Table:
    """MOSS winnowing fingerprints, md5 variant (exact ANSI-SQL twin).

    Per document: md5 hex digests of the k-char grams at every position
    (same gram convention as ``fingerprint_batch`` / its oracle: a document
    shorter than ``k`` contributes ONE whole-text gram), then robust
    winnowing selects one fingerprint per window of ``w`` consecutive grams
    — the lexicographic-min digest, rightmost on ties.  Output: DISTINCT
    (doc_id, pos, fp) with 1-based gram positions, matching the SQL twin's
    ``substr`` positions.  The hash loop is cached per *distinct* gram (the
    fingerprint_batch discipline); the vectorized uint64 sibling for the
    100-TB path is ``winnowing_fast_batch``."""
    import hashlib

    ids_in = batch.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    cache: dict[str, str] = {}
    out_ids: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    out_fp: list[np.ndarray] = []
    for did, t in zip(ids_in, texts):
        t = t or ""
        n = max(len(t) - k + 1, 1)
        hs = np.empty(n, dtype="<U32")
        for i in range(n):
            g = t[i : i + k]
            hv = cache.get(g)
            if hv is None:
                hv = cache[g] = hashlib.md5(g.encode("utf-8")).hexdigest()
            hs[i] = hv
        sel = _winnow_positions(hs, w)
        out_ids.append(np.full(sel.size, did, dtype=np.int64))
        out_pos.append(sel + 1)
        out_fp.append(hs[sel])
    return pa.table({
        id_col: pa.array(np.concatenate(out_ids) if out_ids
                         else np.zeros(0, np.int64), pa.int64()),
        "pos": pa.array(np.concatenate(out_pos) if out_pos
                        else np.zeros(0, np.int64), pa.int64()),
        "fp": pa.array(np.concatenate(out_fp).tolist() if out_fp else [],
                       pa.string()),
    })


def winnowing_fast_batch(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id", k: int = 8, w: int = 4
                         ) -> pa.Table:
    """uint64 rolling-hash winnowing — the vectorized scale sibling of
    ``winnowing_batch`` (no SQL twin; the winnowing coverage guarantee and
    determinism are pytest-pinned).  Same selection rule, same positional
    contract; hashes are the polynomial rolling scheme of
    functions/hashing.py (per-position, NOT deduplicated) mixed through
    ``hash_u64_array``, emitted masked to non-negative int64 like the other
    fast-hash columns."""
    from ..functions.hashing import hash_u64_array, stable_hash_u64

    ids_in = batch.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    p = np.uint64(1099511628211)
    out_ids: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    out_fp: list[np.ndarray] = []
    for did, t in zip(ids_in, texts):
        t = t or ""
        if len(t) < k:
            hs = np.array([stable_hash_u64(t)], dtype=np.uint64)
        else:
            cps = np.frombuffer(t.encode("utf-32-le"), dtype="<u4") \
                .astype(np.uint64)
            n = cps.size - k + 1
            acc = np.zeros(n, dtype=np.uint64)
            for off in range(k):  # k small; loop offsets, vector over rows
                acc = acc * p + cps[off : off + n]
            hs = hash_u64_array(acc, seed=0xC0FFEE)
        sel = _winnow_positions(hs, w)
        out_ids.append(np.full(sel.size, did, dtype=np.int64))
        out_pos.append(sel + 1)
        out_fp.append((hs[sel] & np.uint64(0x7FFFFFFFFFFFFFFF))
                      .astype(np.int64))
    return pa.table({
        id_col: pa.array(np.concatenate(out_ids) if out_ids
                         else np.zeros(0, np.int64), pa.int64()),
        "pos": pa.array(np.concatenate(out_pos) if out_pos
                        else np.zeros(0, np.int64), pa.int64()),
        "fp": pa.array(np.concatenate(out_fp) if out_fp
                       else np.zeros(0, np.int64), pa.int64()),
    })
