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


def doc_simhash_candidates_md5(sf_dir: str) -> ray.data.Dataset:
    """SimHash banding + hamming verify over the md5 signature kernel — the
    SQL-oracle twin of doc_simhash_candidates, hash-verifying the chunk
    bucketing and vectorized hamming machinery end-to-end."""
    return dd.simhash_candidates(_docs(sf_dir, ["doc_id", "text"]),
                                 max_hamming=8, n_chunks=8,
                                 sig_batch_fn=dd.simhash_md5_batch)


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
