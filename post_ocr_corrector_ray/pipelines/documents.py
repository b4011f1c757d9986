"""Document-table pipelines: reference text semantics, dedup, quality and
text statistics over the ``documents`` test table (doc_id, text, lang, source,
n_chars).

Each function takes ``sf_dir`` and returns a Dataset / Arrow table; SQL
oracles (where expressible) live in __ray_entry__.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.edit_distance import levenshtein
from ..functions.noise import mutilate_keyed
from ..functions.text import normalize_whitespace
from ..sources.markup import markup_to_sentences_batch
from ..stages import dedup as dd
from ..stages import textstats as ts
from .corpus import pick_split, token_counts
from .evaluate import evaluate


def _docs(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_normalize_ws(sf_dir: str) -> ray.data.Dataset:
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        norm = [normalize_whitespace(t or "")
                for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "norm_text": pa.array(norm, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_all_chars(sf_dir: str) -> pa.Table:
    """Global distinct-char aggregate (A1) → one row per char."""
    ds = _docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # vectorized distinct chars: one utf-32 decode + np.unique per batch
        joined = "".join(t for t in batch.column("text").to_pylist() if t)
        cps = np.unique(np.frombuffer(joined.encode("utf-32-le"), dtype="<u4"))
        chars = "".join(chr(int(c)) for c in cps)
        return pa.table({"chars": pa.array([chars], pa.string())})

    merged: set[str] = set()
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged.update(row["chars"])
    return pa.table({"ch": pa.array(sorted(merged), pa.string())})


def doc_token_counts(sf_dir: str) -> ray.data.Dataset:
    # data-size-adaptive exchange: the token shuffle widens with the corpus
    # (parquet byte size known for free), never a fixed 64 at 100 TB
    from ..stages.shuffle import partitions_for

    p = partitions_for(size_bytes=os.path.getsize(f"{sf_dir}/documents.parquet"))
    return token_counts(_docs(sf_dir, ["text"]), text_col="text", split=None,
                        num_partitions=p)


_BPE_MERGES_CACHE: dict = {}


def _bpe_merges(sf_dir: str, n_merges: int = 30):
    """One BPE training pass per table, memoized (the _PQ_BOOKS_CACHE
    discipline): the word census is the corpus-sized exchange
    (``doc_token_counts``), merge learning runs on its aggregated output —
    deterministic in sf_dir, so the memo changes nothing observable."""
    key = (sf_dir, n_merges)
    got = _BPE_MERGES_CACHE.get(key)
    if got is None:
        from ..stages.bpe import bpe_learn

        got = bpe_learn(doc_token_counts(sf_dir), n_merges)
        _BPE_MERGES_CACHE[key] = got
    return got


def doc_bpe_merges(sf_dir: str, n_merges: int = 30):
    """BPE tokenizer TRAINING (stages/bpe.py; Sennrich et al. 2016):
    vocabulary induction from the corpus's own word census.  The only
    corpus-sized pass is the word-frequency exchange; merge learning is a
    deterministic driver-side pass over the aggregated (token, frequency)
    table.  Returns the merge table (rank, left, right, pair_count);
    training is iterative and not SQL-expressible, so correctness is
    pytest-pinned (golden Sennrich example + independent naive recount)
    while the APPLICATION twin below is oracle-backed."""
    return _bpe_merges(sf_dir, n_merges)


def doc_bpe_token_counts(sf_dir: str, n_merges: int = 30) -> ray.data.Dataset:
    """Distributed application of the learned BPE merges: per document,
    whitespace-word and BPE-token counts (stages/bpe.py::bpe_token_counts —
    merges broadcast once, per-batch distinct-word memoized encode).  The
    generated DuckDB twin re-applies the SAME learned merges (inlined
    constants, independently re-derived by a local non-Ray recount) through
    a recursive CTE that merges one leftmost lowest-rank pair per step —
    provably equivalent to the engine's all-occurrences merge (see
    stages/bpe.py module docstring)."""
    from ..stages.bpe import bpe_token_counts

    return bpe_token_counts(_docs(sf_dir, ["doc_id", "text"]),
                            _bpe_merges(sf_dir, n_merges))


def doc_split_assignment(sf_dir: str) -> ray.data.Dataset:
    """80/10/10 split keyed on the stable row id (doc_id % 10 — the direct
    analog of the reference's line-number modulo, make_split_csv.py:23-32)."""
    ds = _docs(sf_dir, ["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        rem = ids % 10
        splits = np.where(rem == 9, "validation", np.where(rem == 0, "test", "train"))
        assert pick_split(9) == "validation"  # keep mapping pinned to reference fn
        return pa.table({"doc_id": batch.column("doc_id"),
                         "split": pa.array(splits.tolist(), pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_lev_reverse(sf_dir: str) -> ray.data.Dataset:
    """Levenshtein(text, reverse(text)) — exercises the plain-lev kernel with
    an exact SQL twin (DuckDB ``levenshtein``)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        vals = [levenshtein(t or "", (t or "")[::-1])
                for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lev_rev": pa.array(vals, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup: min doc_id per md5(text) (SQL-twin groupby), via coarse
    hash partitions (content-hash cardinality ≈ row count)."""
    from ..stages.shuffle import grouped_agg

    ds = _docs(sf_dir, ["doc_id", "text"])
    hashed = ds.map_batches(dd.add_md5_column, batch_format="pyarrow") \
        .map_batches(lambda b: b.select(["doc_id", "content_md5"]),
                     batch_format="pyarrow")
    return grouped_agg(hashed, ["content_md5"], {"doc_id": ("doc_id", "min")})


def doc_token_stats(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.token_stats_batch, batch_format="pyarrow")


def doc_quality(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.quality_score_batch, batch_format="pyarrow")


def doc_langid(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.langid_batch, batch_format="pyarrow")


def doc_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """MD5 content + min-k-gram-md5 fingerprint (exact SQL twin)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.fingerprint_batch, batch_format="pyarrow")


def doc_fingerprint_rolling(sf_dir: str) -> ray.data.Dataset:
    """uint64 rolling-hash fingerprint (vectorized scale variant, no SQL twin)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.fingerprint_rolling_batch, batch_format="pyarrow")


def doc_winnowing(sf_dir: str) -> ray.data.Dataset:
    """MOSS winnowing fingerprints (Schleimer et al., SIGMOD 2003), md5
    variant: one fingerprint per window of w=4 consecutive k=8-char-gram
    digests — the min, rightmost on ties.  Exact SQL twin (window join +
    ROW_NUMBER).  Scale sibling: doc_winnowing_fast."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.winnowing_batch, batch_format="pyarrow")


def doc_winnowing_fast(sf_dir: str) -> ray.data.Dataset:
    """uint64 rolling-hash winnowing — the vectorized 100-TB default (no SQL
    twin; coverage guarantee + determinism pytest-pinned)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.winnowing_fast_batch, batch_format="pyarrow")


def doc_winnowing_dups(sf_dir: str) -> ray.data.Dataset:
    """MOSS near-dup pairs: exact Jaccard ≥ 0.5 over winnowing fingerprint
    sets (fp-keyed pair exchange + pair-keyed count sum + co-partitioned
    size joins — stages/dedup.py::winnowing_jaccard_pairs).  Exact SQL
    twin; the 3rd candidate-generation family next to MinHash bands and
    SimHash bands."""
    return dd.winnowing_jaccard_pairs(_docs(sf_dir, ["doc_id", "text"]))


def doc_token_count_bpe(sf_dir: str) -> ray.data.Dataset:
    """BPE-ish + whitespace token counts (training-budget pass; SQL twin)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.bpe_token_count_batch, batch_format="pyarrow")


def doc_scrub_pii(sf_dir: str) -> ray.data.Dataset:
    """Email/number scrubbing with typed placeholders (SQL twin)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ts.scrub_pii_batch, batch_format="pyarrow")


def doc_simhash(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        dd.simhash_batch, batch_format="pyarrow")


def doc_simhash_candidates(sf_dir: str) -> ray.data.Dataset:
    return dd.simhash_candidates(_docs(sf_dir, ["doc_id", "text"]),
                                 max_hamming=8, n_chunks=8)


def doc_minhash_pairs(sf_dir: str) -> ray.data.Dataset:
    """MinHash-LSH near-duplicate pairs verified by shingle Jaccard ≥ 0.5.

    Calibration: random same-vocabulary pairs sit at jaccard ≈ 0.17
    (p99 = 0.26) for k=5 char shingles.  The b=16/r=4 banding has its S-curve
    threshold at (1/16)^(1/4) ≈ 0.5 — background pairs become candidates at
    ~1.3% while genuinely overlapping documents pass; a b=32/r=2 profile
    admits ~60% of ALL pairs and melts at scale.

    Verification is fully distributed (signature join, stages/dedup.py) — no
    driver-side corpus dict.  With verify-exact semantics and the corpus's
    bimodal similarity (near-dups ≥ 0.9, background ≤ 0.31), LSH recall at
    the 0.5 threshold is 1 − (1 − 0.9⁴)¹⁶ ≈ 1 − 4e-8, so the result equals
    the exact-Jaccard SQL oracle (pinned in CORRECTNESS)."""
    return dd.minhash_duplicate_pairs(
        _docs(sf_dir, ["doc_id", "text"]), n_hashes=64, bands=16, k_shingle=5,
        jaccard_threshold=0.5)


def doc_length_extremes(sf_dir: str) -> pa.Table:
    """Global max/min text length (the reference's longest-sentence stat,
    to_plain_text.py:41,45 — A6) as a per-batch partial → tiny final reduce."""
    ds = _docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        lens = pc.utf8_length(batch.column("text")).cast(pa.int64())
        return pa.table({"mx": pa.array([pc.max(lens).as_py() or 0], pa.int64()),
                         "mn": pa.array([pc.min(lens).as_py() or 0], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return pa.table({"longest": pa.array([max(p["mx"] for p in parts)], pa.int64()),
                     "shortest": pa.array([min(p["mn"] for p in parts)], pa.int64())})


def doc_prefix_sample(sf_dir: str, n: int = 100) -> ray.data.Dataset:
    """Deterministic prefix sample by id (the reference's 100-row probe,
    corrector_dataset.py:74-79 — O4) with per-row char counts."""
    ds = _docs(sf_dir, ["doc_id", "text"]).sort("doc_id").limit(n)

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_chars": pc.utf8_length(batch.column("text")).cast(pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_ngram_jaccard_pairs(sf_dir: str) -> ray.data.Dataset:
    """Word-3-gram Jaccard near-dup pairs (token-level dedup variant);
    distributed signature-join verification, exact-Jaccard SQL oracle."""
    return dd.ngram_jaccard_pairs(_docs(sf_dir, ["doc_id", "text"]), n_gram=3,
                                  jaccard_threshold=0.3)


def doc_minhash_bucket_stats(sf_dir: str) -> pa.Table:
    """LSH bucket census for the minhash banding — makes the MAX_BUCKET
    oversized-bucket drop in candidate generation observable (no silent
    caps): bucket counts, dropped buckets, dropped candidate pairs."""
    bands_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        dd.minhash_bands_batch, batch_format="pyarrow",
        fn_kwargs=dict(n_hashes=64, bands=16, k_shingle=5))
    return dd.bucket_stats(bands_ds, ["band_id", "band_hash"])


def doc_mutilate(sf_dir: str, good_chars: str = "abcdefghijklmnopqrstuvwxyz ") -> ray.data.Dataset:
    """Keyed noise per doc (reference mutilate semantics, RNG keyed by doc_id)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        out = [mutilate_keyed(str(i), (t or "").strip(), good_chars)
               for i, t in zip(batch.column("doc_id").to_pylist(),
                               batch.column("text").to_pylist())]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "messy": pa.array(out, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_null_corrector_cer(sf_dir: str) -> pa.Table:
    """Null-corrector eval control (reference null_corrector.py:16-42): mean
    banded CER of keyed-noise messy text vs the clean original, + the exact
    perfect fraction.  Single-row result."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def noisy(batch: pa.Table) -> pa.Table:
        messy = [mutilate_keyed(str(i), (t or "").strip(), "abcdefghijklmnopqrstuvwxyz ")
                 for i, t in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("text").to_pylist())]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "clean": batch.column("text"),
                         "messy": pa.array(messy, pa.string())})

    res = evaluate(ds.map_batches(noisy, batch_format="pyarrow"),
                   out_col="messy", correct_col="clean", banded=True,
                   skip_empty_correct=True)
    return pa.table({"n": pa.array([res.n], pa.int64()),
                     "mean_cer": pa.array([res.mean_cer], pa.float64()),
                     "percent_perfect": pa.array([res.percent_perfect], pa.float64())})


def doc_markup_roundtrip(sf_dir: str) -> ray.data.Dataset:
    """S1/M1/M2 parity: render each doc as srWaC-style vertical markup
    (4-field token lines inside <s>…</s>), parse it back with the markup state
    machine, detokenize → must equal the single-space-joined tokens."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def render(batch: pa.Table) -> pa.Table:
        blobs = []
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            lines = ["<s>"]
            for w in toks:
                lines.append(f"{w}\t{w.upper()}\tX\t0")  # surface + 3 dummy fields
            lines.append("</s>")
            blobs.append("\n".join(lines))
        return pa.table({"path": pc.cast(batch.column("doc_id"), pa.string()),
                         "markup": pa.array(blobs, pa.string())})

    parsed = ds.map_batches(render, batch_format="pyarrow").map_batches(
        markup_to_sentences_batch, batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch.column("path"), pa.int64()),
                         "sentence": batch.column("sentence")})

    return parsed.map_batches(project, batch_format="pyarrow")


def _near_dup_pairs(sf_dir: str) -> ray.data.Dataset:
    """The calibrated MinHash-LSH verified pair set (doc_minhash_pairs) used
    as the edge list for clustering — exact-Jaccard-equal at the 0.5
    threshold (recall analysis in doc_minhash_pairs docstring)."""
    return dd.minhash_duplicate_pairs(
        _docs(sf_dir, ["doc_id", "text"]), n_hashes=64, bands=16, k_shingle=5,
        jaccard_threshold=0.5)


def doc_dup_components(sf_dir: str) -> ray.data.Dataset:
    """Near-dup clusters: verified pair edges contracted to (node, component)
    by alternating large-star/small-star rounds (stages/components.py);
    component = min doc_id.  DuckDB recursive-CTE oracle."""
    from ..stages.components import connected_components

    return connected_components(_near_dup_pairs(sf_dir))


def doc_dedup_near(sf_dir: str) -> ray.data.Dataset:
    """End-to-end near-duplicate dedup: keep the min-id representative of
    each cluster plus all unclustered docs — pairs → connected components →
    co-partitioned anti join (never collected on the driver)."""
    from ..stages.components import near_dedup

    return near_dedup(_docs(sf_dir, ["doc_id"]), _near_dup_pairs(sf_dir))


def doc_dedup_keep_best(sf_dir: str) -> ray.data.Dataset:
    """Near-duplicate dedup keeping each cluster's HIGHEST-QUALITY member
    (quality DESC, doc_id ASC on ties) — the curation variant of
    doc_dedup_near: real web pipelines keep the best page of a dup cluster,
    not the lowest id.  Pairs → components → co-partitioned score join →
    component-keyed winner exchange → anti join; the score table is joined,
    never broadcast."""
    from ..stages.components import near_dedup_by_score

    scores = doc_quality(sf_dir).map_batches(
        lambda b: b.select(["doc_id", "quality"]), batch_format="pyarrow")
    return near_dedup_by_score(_docs(sf_dir, ["doc_id"]),
                               _near_dup_pairs(sf_dir), scores)


def doc_simhash_md5(sf_dir: str) -> ray.data.Dataset:
    """SimHash with md5 shingle hashes — the SQL-oracle twin of doc_simhash,
    hash-verifying the bit-majority machinery (stages/dedup.py)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        dd.simhash_md5_batch, batch_format="pyarrow")


def doc_top_tokens(sf_dir: str, k: int = 50) -> pa.Table:
    """Global heavy hitters: exact token frequencies (pre-aggregated partials
    → coarse-hash exchange) then per-block local top-k so only ≤ blocks × k
    tiny rows reach the driver merge (the distributed-top-k pattern of
    per-block partials).  Deterministic tiebreak (frequency DESC, token ASC)."""
    import pandas as pd

    counts = token_counts(_docs(sf_dir, ["text"]), text_col="text", split=None)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["frequency", "token"],
                              ascending=[False, True]).head(k)

    parts = counts.map_batches(local_topk, batch_format="pandas").take_all()
    if not parts:  # every block empty: sort_values would KeyError on []
        return pa.table({"token": pa.array([], pa.string()),
                         "frequency": pa.array([], pa.int64())})
    top = pd.DataFrame(parts).sort_values(
        ["frequency", "token"], ascending=[False, True]).head(k)
    return pa.table({"token": pa.array(top["token"], pa.string()),
                     "frequency": pa.array(top["frequency"], pa.int64())})


def doc_token_distinct(sf_dir: str) -> pa.Table:
    """Exact global distinct-token count: the token exchange's output row
    count (no extra pass).  The HLL sketch below is its shuffle-free scale
    twin."""
    counts = token_counts(_docs(sf_dir, ["text"]), text_col="text", split=None)
    return pa.table({"n_tokens": pa.array([counts.count()], pa.int64())})


def doc_token_distinct_hll(sf_dir: str, p: int = 12) -> pa.Table:
    """Approximate distinct tokens via mergeable HyperLogLog registers
    (stages/sketches.py): per-block register arrays → driver max-merge; NO
    shuffle, fixed 2^p bytes per block.  Accuracy vs the exact twin is
    pytest-pinned (~1.6% at p=12)."""
    from ..stages.sketches import hll_distinct

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(
            batch.column("text").combine_chunks()))
        toks = toks.filter(pc.not_equal(toks, ""))
        return pa.table({"token": toks})

    tokens = _docs(sf_dir, ["text"]).map_batches(explode,
                                                 batch_format="pyarrow")
    return hll_distinct(tokens, "token", p=p)


def doc_simhash_candidates_md5(sf_dir: str) -> ray.data.Dataset:
    """SimHash banding + hamming verify over the md5 signature kernel — the
    SQL-oracle twin of doc_simhash_candidates, hash-verifying the chunk
    bucketing and vectorized hamming machinery end-to-end."""
    return dd.simhash_candidates(_docs(sf_dir, ["doc_id", "text"]),
                                 max_hamming=8, n_chunks=8,
                                 sig_batch_fn=dd.simhash_md5_batch)


def doc_chunk_windows(sf_dir: str, win: int = 64,
                      stride: int = 32) -> ray.data.Dataset:
    """Fixed-word-window document chunking with overlap (the training
    context-window shape: each doc → ceil(n_words/stride) windows of up to
    ``win`` words starting every ``stride`` words; the tail window is
    partial).  Pure flat-map — no shuffle; empty docs emit nothing.

    Vectorized end-to-end: one Arrow whitespace split per batch, window word
    indices built with repeat/cumsum arithmetic, chunk texts re-joined with
    ``binary_join`` over a take-gathered flat word array (windows overlap, so
    the flat array cannot be list-wrapped in place)."""
    from ..stages.textstats import _split_words

    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "chunk_idx": pa.array([], pa.int64()),
                          "chunk_start": pa.array([], pa.int64()),
                          "chunk_text": pa.array([], pa.string()),
                          "chunk_n_words": pa.array([], pa.int64())})
        texts = batch.column("text").combine_chunks()
        flat, counts = _split_words(texts)
        n_chunks = -(-counts // stride)            # ceil; 0 words → 0 chunks
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        doc_off = np.concatenate(([0], np.cumsum(counts)))[:-1]
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), n_chunks)
        chunk_off = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
        cidx = np.arange(total, dtype=np.int64) - np.repeat(chunk_off, n_chunks)
        start = cidx * stride
        length = np.minimum(win, counts[rows] - start)
        # gather every window's word indices into one flat take
        lens_off = np.concatenate(([0], np.cumsum(length)))[:-1]
        abs_start = doc_off[rows] + start
        idx = (np.arange(int(length.sum()), dtype=np.int64)
               - np.repeat(lens_off, length) + np.repeat(abs_start, length))
        words = flat.take(pa.array(idx))
        offsets = np.concatenate(([0], np.cumsum(length))).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), words), " ")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(ids[rows], pa.int64()),
                         "chunk_idx": pa.array(cidx, pa.int64()),
                         "chunk_start": pa.array(start, pa.int64()),
                         "chunk_text": joined,
                         "chunk_n_words": pa.array(length, pa.int64())})

    return ds.map_batches(explode, batch_format="pyarrow")


def doc_idf(sf_dir: str) -> ray.data.Dataset:
    """Per-token document frequency + inverse document frequency over the
    corpus (the rare-token signal quality filters weight by).

    Shape: per-batch DISTINCT (doc, token) pairs collapse to partial
    df counts (a doc never spans batches, so partials sum exactly), ONE
    coarse-hash token exchange sums them, idf = round(ln(N/df), 6) with N
    read from parquet metadata (no data pass)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.shuffle import grouped_agg
    from ..stages.textstats import _split_words

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = _docs(sf_dir, ["text"])

    def partial_df(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").combine_chunks()
        flat, counts = _split_words(texts)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        d = pd.DataFrame({"row": rows,
                          "token": flat.to_numpy(zero_copy_only=False)})
        cnt = d.drop_duplicates()["token"].value_counts().sort_index()
        return pa.table({"token": pa.array(cnt.index.to_numpy(dtype=object),
                                           pa.string()),
                         "df": pa.array(cnt.to_numpy(), pa.int64())})

    summed = grouped_agg(ds.map_batches(partial_df, batch_format="pyarrow"),
                         ["token"], {"df": ("df", "sum")})

    def add_idf(batch: pa.Table) -> pa.Table:
        df = batch.column("df").to_numpy().astype(np.float64)
        idf = np.round(np.log(float(n_docs) / df), 6)
        return batch.append_column("idf", pa.array(idf, pa.float64()))

    return summed.map_batches(add_idf, batch_format="pyarrow")


def _doc_token_pairs(batch: pa.Table, *, counted: bool) -> pa.Table:
    """(doc_id, token[, tf]) rows for the batch — distinct pairs when
    ``counted`` is False, with per-doc term frequency when True.  One Arrow
    whitespace split + one vectorized pandas groupby per batch."""
    import pandas as pd

    from ..stages.textstats import _split_words

    texts = batch.column("text").combine_chunks()
    flat, counts = _split_words(texts)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    rows = np.repeat(ids, counts)
    d = pd.DataFrame({"doc_id": rows,
                      "token": flat.to_numpy(zero_copy_only=False)})
    if counted:
        g = d.groupby(["doc_id", "token"], as_index=False, sort=True).size()
        return pa.table({"doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                         "token": pa.array(g["token"].to_numpy(dtype=object),
                                           pa.string()),
                         "tf": pa.array(g["size"].to_numpy(), pa.int64())})
    u = d.drop_duplicates().sort_values(["doc_id", "token"])
    return pa.table({"doc_id": pa.array(u["doc_id"].to_numpy(), pa.int64()),
                     "token": pa.array(u["token"].to_numpy(dtype=object),
                                       pa.string())})


def doc_tfidf_top_terms(sf_dir: str, top: int = 3) -> ray.data.Dataset:
    """Each document's ``top`` highest-tf·idf terms (ties → token ASC) — the
    classic keyword-extraction shape, composed from engine primitives: per-doc
    term frequencies (map_batches), the corpus idf table (doc_idf), a
    co-partitioned fact-fact hash join on token (stages/joins.py — both sides
    are token-cardinality, neither fits a broadcast), and a grouped per-doc
    top-k.  tfidf = round(tf · idf, 6) with idf pre-rounded, mirroring the
    SQL twin exactly."""
    import pandas as pd

    from ..stages.joins import hash_join
    from ..stages.shuffle import grouped_apply

    from ..stages.components import _pin

    tf = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: _doc_token_pairs(b, counted=True), batch_format="pyarrow")
    # idf is token-cardinality (small next to tf) and ends in a grouped
    # exchange — pin it so the join exchange doesn't chain onto a deep plan
    idf = _pin(doc_idf(sf_dir).map_batches(
        lambda t: t.select(["token", "idf"]), batch_format="pyarrow"), 16)
    joined = hash_join(tf, idf, on="token", how="inner")

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "term_rank": pd.Series([], dtype="int64"),
                                 "token": pd.Series([], dtype="object"),
                                 "tf": pd.Series([], dtype="int64"),
                                 "tfidf": pd.Series([], dtype="float64")})
        df = df.assign(tfidf=np.round(df["tf"].to_numpy() * df["idf"].to_numpy(), 6))
        df = df.sort_values(["doc_id", "tfidf", "token"],
                            ascending=[True, False, True], kind="mergesort")
        rnk = df.groupby("doc_id").cumcount().to_numpy() + 1
        df = df.assign(term_rank=rnk.astype(np.int64))
        df = df[df["term_rank"] <= top]
        return df[["doc_id", "term_rank", "token", "tf", "tfidf"]]

    return grouped_apply(joined, ["doc_id"], topk)


def doc_inverted_index(sf_dir: str) -> ray.data.Dataset:
    """Token → sorted posting list (comma-joined doc_ids) + document
    frequency — the search-index build shape.  Distinct (doc, token) pairs
    per batch, ONE coarse token exchange, per-partition sort + groupby join.
    The posting string is the op's output (the exchange inherently moves
    every pair once); at 100 TB postings would be chunked per token range and
    written columnar instead of strings."""
    import pandas as pd

    from ..stages.shuffle import grouped_apply

    pairs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: _doc_token_pairs(b, counted=False), batch_format="pyarrow")

    def build(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"token": pd.Series([], dtype="object"),
                                 "df": pd.Series([], dtype="int64"),
                                 "postings": pd.Series([], dtype="object")})
        df = df.drop_duplicates().sort_values(["token", "doc_id"])
        g = df.groupby("token", sort=True)
        out = g.agg(df_=("doc_id", "size"),
                    postings=("doc_id", lambda s: ",".join(map(str, s))))
        return pd.DataFrame({"token": out.index.to_numpy(dtype=object),
                             "df": out["df_"].to_numpy().astype(np.int64),
                             "postings": out["postings"].to_numpy(dtype=object)})

    return grouped_apply(pairs, ["token"], build)


def doc_source_cap(sf_dir: str, cap: int = 20) -> ray.data.Dataset:
    """Per-domain document cap (the C4/RefinedWeb "max N pages per host"
    composition rule): keep each source's ``cap`` lowest doc_ids.

    Grouped top-k shape (stages/shuffle.py::grouped_apply): ONE coarse
    hash-partitioned exchange on source, vectorized sort + cumcount inside
    each partition, ≤ cap rows per source survive — source cardinality never
    becomes Ray group count, and the deterministic rank order (doc_id ASC)
    matches the ROW_NUMBER oracle exactly."""
    import pandas as pd

    from ..stages.shuffle import grouped_apply

    docs = _docs(sf_dir, ["doc_id", "source"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "doc_id"], kind="mergesort")
        rnk = df.groupby("source").cumcount().to_numpy() + 1
        out = df.assign(source_rank=rnk.astype(np.int64))
        return out[out["source_rank"] <= cap]

    return grouped_apply(docs, ["source"], topk)


def doc_quality_tiers(sf_dir: str, n: int = 3) -> ray.data.Dataset:
    """Per-language quality tiers — NTILE(n) OVER (PARTITION BY lang ORDER BY
    quality, doc_id) over the composite quality score: the CCNet head/middle/
    tail corpus bucketing (Wenzek et al. 2020, with the repo's C4/Gopher
    composite from stages/textstats.py::quality_score_batch standing in for
    the LM-perplexity score this container can't train).

    Implementation (histogram-offset rank, no global or per-language sort —
    a language is a giant key at 100 TB) lives in stages/tiers.py::
    quality_tiers, shared with the flagship extraction-output tiering
    (flagship_tiered); this wrapper binds it to the documents table."""
    from ..stages.tiers import quality_tiers

    return quality_tiers(_docs(sf_dir, ["doc_id", "text", "lang"]),
                         id_col="doc_id", n=n)


def doc_bigram_pmi(sf_dir: str, min_count: int = 5) -> ray.data.Dataset:
    """Pointwise mutual information of adjacent word pairs (collocation
    mining — the phrase-detection shape from word2vec preprocessing), exact
    and fully distributed: bigram and unigram counts each pre-combine per
    batch and cross ONE coarse token-keyed exchange; the corpus totals are
    tiny sums over the two pinned count tables; marginals attach via two
    co-partitioned fact-fact hash joins (token cardinality on both sides —
    no broadcast); pmi evaluates vectorized per batch from broadcast scalar
    totals.  pmi = round(ln((c_xy/B) / ((c_x/T)·(c_y/T))), 6) with T = total
    tokens, B = total bigrams.
    """
    import pandas as pd

    from ..stages.components import _pin
    from ..stages.joins import hash_join
    from ..stages.shuffle import grouped_agg
    from ..stages.textstats import _split_words

    docs = _docs(sf_dir, ["text"])

    def bigram_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").combine_chunks()
        flat, counts = _split_words(texts)
        toks = flat.to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        if len(toks) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "c_xy": pa.array([], pa.int64())})
        same = rows[1:] == rows[:-1]  # adjacency never crosses documents
        d = pd.DataFrame({"w1": toks[:-1][same], "w2": toks[1:][same]})
        g = d.groupby(["w1", "w2"], as_index=False).size() \
             .rename(columns={"size": "c_xy"})
        return pa.Table.from_pandas(g, preserve_index=False)

    def unigram_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").combine_chunks()
        flat, _ = _split_words(texts)
        cnt = pd.Series(flat.to_numpy(zero_copy_only=False)) \
            .value_counts().sort_index()
        return pa.table({"token": pa.array(cnt.index.to_numpy(dtype=object),
                                           pa.string()),
                         "c": pa.array(cnt.to_numpy(), pa.int64())})

    bc = _pin(grouped_agg(docs.map_batches(bigram_partial, batch_format="pyarrow"),
                          ["w1", "w2"], {"c_xy": ("c_xy", "sum")}), 16)
    uc = _pin(grouped_agg(docs.map_batches(unigram_partial, batch_format="pyarrow"),
                          ["token"], {"c": ("c", "sum")}), 16)
    t_uni = float(uc.sum("c"))
    t_bi = float(bc.sum("c_xy"))

    # Arrow-kernel filter (filter(expr=…) can't type pandas object blocks
    # coming out of the pinned grouped exchange)
    import pyarrow.compute as pc

    bc_f = bc.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("c_xy"), min_count)),
        batch_format="pyarrow")
    u1 = uc.map_batches(lambda t: t.rename_columns(["w1", "c1"]),
                        batch_format="pyarrow")
    u2 = uc.map_batches(lambda t: t.rename_columns(["w2", "c2"]),
                        batch_format="pyarrow")
    j = hash_join(hash_join(bc_f, u1, on="w1"), u2, on="w2")

    def add_pmi(batch: pa.Table) -> pa.Table:
        c_xy = batch.column("c_xy").to_numpy().astype(np.float64)
        c1 = batch.column("c1").to_numpy().astype(np.float64)
        c2 = batch.column("c2").to_numpy().astype(np.float64)
        pmi = np.round(np.log((c_xy / t_bi)
                              / ((c1 / t_uni) * (c2 / t_uni))), 6)
        return pa.table({"w1": batch.column("w1"), "w2": batch.column("w2"),
                         "c_xy": batch.column("c_xy"),
                         "pmi": pa.array(pmi, pa.float64())})

    return j.map_batches(add_pmi, batch_format="pyarrow")


def doc_heavy_hitters(sf_dir: str, k: int = 256) -> pa.Table:
    """Misra–Gries heavy-hitter tokens (shuffle-free approximate twin of
    doc_top_tokens, as hll is to exact distinct): ≤ k-entry counter summary
    per block, tiny driver merge.  Guarantee pinned in pytest: every token
    with true frequency > N/k is present with estimate within N/k."""
    import pandas as pd  # noqa: F401  (sketch returns a DataFrame)

    from ..stages.sketches import mg_heavy_hitters
    from ..stages.textstats import _split_words

    def tokens_of(batch: pa.Table):
        flat, _ = _split_words(batch.column("text").combine_chunks())
        return flat.to_numpy(zero_copy_only=False)

    out = mg_heavy_hitters(_docs(sf_dir, ["text"]), tokens_of, k=k)
    return pa.Table.from_pandas(out, preserve_index=False)


def doc_token_entropy(sf_dir: str) -> ray.data.Dataset:
    """Shannon entropy of each document's token distribution (a
    diversity quality signal) — entirely
    batch-local, NO shuffle: one Arrow whitespace split, one vectorized
    (row, token) groupby, and a per-row -Σ p·ln p via np.add.reduceat.
    Zero-token documents are omitted (mirrors the SQL twin, where they never
    enter the unnest).  round-6 output absorbs summation-order ulps."""
    import pandas as pd

    from ..stages.textstats import _split_words

    ds = _docs(sf_dir, ["doc_id", "text"])

    def entropy(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").combine_chunks()
        flat, counts = _split_words(texts)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rows = np.repeat(ids, counts)
        if len(rows) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        d = pd.DataFrame({"doc_id": rows,
                          "token": flat.to_numpy(zero_copy_only=False)})
        g = d.groupby(["doc_id", "token"], sort=True, as_index=False).size()
        doc = g["doc_id"].to_numpy()
        c = g["size"].to_numpy(np.float64)
        # row totals per doc (g is sorted by doc_id)
        starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
        totals = np.add.reduceat(c, starts)
        n = np.repeat(totals, np.diff(np.r_[starts, len(c)]))
        p = c / n
        terms = p * np.log(p)
        h = -np.add.reduceat(terms, starts)
        return pa.table({"doc_id": pa.array(doc[starts], pa.int64()),
                         "entropy": pa.array(np.round(h, 6), pa.float64())})

    return ds.map_batches(entropy, batch_format="pyarrow")
