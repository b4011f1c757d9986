"""Near-duplicate detection: MinHash + LSH over character shingles.

Engine extension for the ``dedup`` command (the reference's only dedup is the
distinct-char aggregate, SURVEY.md §2.7).  Each document becomes two
deterministic tables (``signature_store_tables``): ``bands`` rows
(band_id, band_hash, id) — b small ints per document, from shingle→minhash
signatures per batch (NumPy, no shuffle) — and ``sigs``, its exact
shingle-hash set as one binary payload.  ONE function turns (bands, sigs) into
verified pairs: a ``grouped_apply`` on the band key makes the candidate pairs
of each LSH bucket, and the id-partitioned verify join scores them by exact
Jaccard.  No all-pairs anywhere, and the corpus never reaches the driver.
``minhash_duplicate_pairs`` builds both tables from text;
``minhash_duplicate_pairs_incremental`` builds the new wave's and reuses a
persisted store's, as ``dedup --against`` does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import hash_u64_array, shingle_hashes


# --- MinHash + LSH ------------------------------------------------------------


def minhash_signatures(hash_sets: list[np.ndarray], n_hashes: int) -> np.ndarray:
    """(n_docs, n_hashes) minhash matrix, batch-vectorized: the docs' element
    sets are concatenated once and each permutation is ONE hash + ONE
    ``minimum.reduceat`` over the flat array (vs n_docs small ops per
    permutation in the per-doc form — same values, 64× fewer kernel calls)."""
    n = len(hash_sets)
    if n == 0:
        return np.empty((0, n_hashes), dtype=np.uint64)
    lens = np.fromiter((a.size for a in hash_sets), dtype=np.int64, count=n)
    assert (lens > 0).all()  # shingle_hashes always emits >= 1
    flat = np.concatenate(hash_sets)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    sig = np.empty((n, n_hashes), dtype=np.uint64)
    for h in range(n_hashes):
        sig[:, h] = np.minimum.reduceat(hash_u64_array(flat, seed=h), starts)
    return sig


def band_hashes(sig: np.ndarray, bands: int, *, seed_base: int) -> np.ndarray:
    """(n_docs, bands) int64 band-hash matrix from a minhash matrix —
    vectorized over docs; values identical to the per-doc segment-sum form."""
    n, n_hashes = sig.shape
    rows_per_band = n_hashes // bands
    out = np.empty((n, bands), dtype=np.int64)
    for b in range(bands):
        seg = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
        hb = hash_u64_array(seg, seed=seed_base + b).sum(axis=1, dtype=np.uint64)
        out[:, b] = (hb & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
    return out


def minhash_bands_batch(batch: pa.Table, *, text_col: str = "text",
                        id_col: str = "doc_id", n_hashes: int = 64,
                        bands: int = 16, k_shingle: int = 5) -> pa.Table:
    """Explode each row into `bands` (band_id, band_hash, id) rows."""
    texts = batch.column(text_col).to_pylist()
    ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
    sig = minhash_signatures([shingle_hashes(t or "", k=k_shingle)
                              for t in texts], n_hashes)
    bh = band_hashes(sig, bands, seed_base=1000)
    n = len(ids)
    return pa.table({"band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                     "band_hash": pa.array(bh.ravel(), pa.int64()),
                     id_col: pa.array(np.repeat(ids, bands), pa.int64())})


def _jaccard(a: str, b: str, k: int) -> float:
    sa = set(shingle_hashes(a, k=k).tolist())
    sb = set(shingle_hashes(b, k=k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


MAX_BUCKET = 64          # LSH buckets larger than this are boilerplate collisions


# --- distributed pair verification (no driver-side corpus) --------------------


def signature_bytes(arr: np.ndarray) -> bytes:
    """Serialize a sorted-unique uint64 hash set as little-endian bytes (the
    compact per-doc payload shipped through the verify join)."""
    return np.ascontiguousarray(np.sort(arr).astype("<u8")).tobytes()


def jaccard_from_signatures(a: bytes, b: bytes) -> float:
    """Exact Jaccard of two serialized sorted-unique uint64 sets."""
    sa = np.frombuffer(a, dtype="<u8")
    sb = np.frombuffer(b, dtype="<u8")
    if sa.size == 0 and sb.size == 0:
        return 1.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    return inter / (sa.size + sb.size - inter)


def shingle_signatures(ds: ray.data.Dataset, *, text_col: str = "text",
                       id_col: str = "doc_id", k_shingle: int = 5) -> ray.data.Dataset:
    """(id, sig) dataset: each row's exact shingle-hash set as binary."""

    def f(batch: pa.Table) -> pa.Table:
        sigs = [signature_bytes(shingle_hashes(t or "", k=k_shingle))
                for t in batch.column(text_col).to_pylist()]
        return pa.table({id_col: batch.column(id_col),
                         "sig": pa.array(sigs, pa.binary())})

    return ds.map_batches(f, batch_format="pyarrow")


def verify_pairs_payload(cand: ray.data.Dataset, payloads: ray.data.Dataset, *,
                         id_col: str, threshold: float) -> ray.data.Dataset:
    """Score candidate (id_a, id_b) pairs by the exact Jaccard of their
    per-id shingle-set payloads WITHOUT materializing anything on the driver;
    keep (id_a, id_b, jaccard) at or above ``threshold``.

    Shape (an id-partitioned verify join): each pair explodes into two
    (jid, id_a, id_b) side rows; side rows and payload rows shuffle together
    on a coarse hash of ``jid`` where each side picks up its payload; a
    second coarse shuffle on (id_a, id_b) brings both payloads of a pair
    together for exact scoring.  Only candidate-pair rows and their
    two payloads ever move — never the corpus to the driver.

    ``cand`` may contain cross-band duplicate pairs: the score step dedupes
    per (pair, jid), so callers skip the separate distinct shuffle.
    """
    import pandas as pd

    from .shuffle import grouped_apply

    def sides(batch: pa.Table) -> pa.Table:
        ia = batch.column("id_a").to_numpy(zero_copy_only=False).astype(np.int64)
        ib = batch.column("id_b").to_numpy(zero_copy_only=False).astype(np.int64)
        jid = np.concatenate((ia, ib))
        id_a = np.concatenate((ia, ia))
        id_b = np.concatenate((ib, ib))
        return pa.table({"jid": pa.array(jid, pa.int64()),
                         "id_a": pa.array(id_a, pa.int64()),
                         "id_b": pa.array(id_b, pa.int64()),
                         "sig": pa.array([None] * len(jid), pa.binary())})

    def payload_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        neg = np.full(n, -1, dtype=np.int64)
        return pa.table({"jid": batch.column(id_col).cast(pa.int64()),
                         "id_a": pa.array(neg, pa.int64()),
                         "id_b": pa.array(neg, pa.int64()),
                         "sig": batch.column("sig").cast(pa.binary())})

    unioned = cand.map_batches(sides, batch_format="pyarrow").union(
        payloads.map_batches(payload_rows, batch_format="pyarrow"))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        pay = df[df["id_a"] < 0]
        side = df[df["id_a"] >= 0]
        if side.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "jid": pd.Series([], dtype="int64"),
                                 "sig": pd.Series([], dtype="object")})
        # duplicate candidate pairs (cross-band) collapse here, per side
        side = side.drop_duplicates(subset=["id_a", "id_b", "jid"])
        lut = dict(zip(pay["jid"].to_numpy(), pay["sig"]))
        return pd.DataFrame({"id_a": side["id_a"].to_numpy(),
                             "id_b": side["id_b"].to_numpy(),
                             "jid": side["jid"].to_numpy(),
                             "sig": side["jid"].map(lut)})

    attached = grouped_apply(unioned, ["jid"], attach)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        g = df.groupby(["id_a", "id_b"], sort=False)["sig"].agg(list)
        for (a, b), sigs in g.items():
            if len(sigs) != 2 or any(s is None for s in sigs):
                continue  # payload missing — candidate from outside the corpus
            s = jaccard_from_signatures(sigs[0], sigs[1])
            if s >= threshold:
                out_a.append(a); out_b.append(b); out_s.append(s)
        return pd.DataFrame({"id_a": pd.Series(out_a, dtype="int64"),
                             "id_b": pd.Series(out_b, dtype="int64"),
                             "jaccard": pd.Series(out_s, dtype="float64")})

    return grouped_apply(attached.map_batches(
        lambda b: b.select(["id_a", "id_b", "sig"]), batch_format="pyarrow"),
        ["id_a", "id_b"], score)


def bucket_stats(rows_ds: ray.data.Dataset, key_cols: list[str], *,
                 max_bucket: int = MAX_BUCKET) -> pa.Table:
    """LSH bucket census — the no-silent-caps companion of the candidate
    step in ``_verified_pairs``: how many buckets exist, how many exceed
    ``max_bucket`` (and are therefore dropped from candidate generation), and
    how many candidate pairs that drop discards.  Tiny result (one row)."""
    import pandas as pd

    from .shuffle import grouped_apply

    def census(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby(key_cols).size()
        multi = sizes[sizes > 1]
        over = sizes[sizes > max_bucket]
        return pd.DataFrame({
            "n_buckets": pd.Series([int(len(sizes))], dtype="int64"),
            "n_multi_buckets": pd.Series([int(len(multi))], dtype="int64"),
            "n_dropped_buckets": pd.Series([int(len(over))], dtype="int64"),
            "n_dropped_pairs": pd.Series(
                [int((over * (over - 1) // 2).sum())], dtype="int64"),
        })

    parts = grouped_apply(rows_ds, key_cols, census).take_all()
    return pa.table({c: pa.array([sum(p[c] for p in parts)], pa.int64())
                     for c in ("n_buckets", "n_multi_buckets",
                               "n_dropped_buckets", "n_dropped_pairs")})


def _verified_pairs(bands: ray.data.Dataset, sigs: ray.data.Dataset, *,
                    id_col: str, jaccard_threshold: float,
                    min_new_id: int | None = None) -> ray.data.Dataset:
    """Verified (id_a, id_b, jaccard) pairs, id_a < id_b, from (bands, sigs)
    tables — the one pair path behind ``minhash_duplicate_pairs``,
    ``minhash_duplicate_pairs_incremental`` and the ``dedup`` command.

    Candidates: one ``grouped_apply`` on (band_id, band_hash), each call a
    vectorized self-merge over the thousands of buckets in its partition;
    buckets over ``MAX_BUCKET`` (boilerplate collisions) are dropped
    deterministically, and ``bucket_stats`` counts them.  Cross-band
    duplicate pairs are left to the verify join, which collapses them.

    ``min_new_id``: drop the pairs whose LARGER id is below it.  With every
    new id ≥ ``min_new_id``, only pairs of two store documents qualify, and
    incremental survivors never consult those (any store contact drops the
    new documents of its component) — whatever the store ids are, so the
    filter only saves volume and never changes survivors.
    """
    import pandas as pd

    from .shuffle import grouped_apply

    key = ["band_id", "band_hash"]
    a, b = f"{id_col}_a", f"{id_col}_b"

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby(key)[id_col].transform("size")
        df = df.loc[(sizes > 1) & (sizes <= MAX_BUCKET), key + [id_col]]
        m = df.merge(df, on=key, suffixes=("_a", "_b"))
        keep = m[a] < m[b]
        if min_new_id is not None:
            keep &= m[b] >= min_new_id
        return pd.DataFrame({"id_a": m.loc[keep, a].to_numpy(np.int64),
                             "id_b": m.loc[keep, b].to_numpy(np.int64)})

    cand = grouped_apply(bands, key, bucket_pairs)
    return verify_pairs_payload(cand, sigs, id_col=id_col,
                                threshold=jaccard_threshold)


def minhash_duplicate_pairs(ds: ray.data.Dataset, *, text_col: str = "text",
                            id_col: str = "doc_id", n_hashes: int = 64,
                            bands: int = 16, k_shingle: int = 5,
                            jaccard_threshold: float = 0.8
                            ) -> ray.data.Dataset:
    """Candidate pairs from LSH buckets, verified by exact shingle Jaccard.

    Verification is the distributed signature join (``verify_pairs_payload``):
    each doc's exact shingle-hash set travels as a compact binary payload
    through an id-partitioned shuffle to meet its candidate pairs — the corpus
    is never collected on the driver.  Emits (id_a, id_b, jaccard) with
    id_a < id_b, deduplicated across bands.
    """
    bands_ds, sigs_ds = signature_store_tables(
        ds, text_col=text_col, id_col=id_col, n_hashes=n_hashes, bands=bands,
        k_shingle=k_shingle)
    return _verified_pairs(bands_ds, sigs_ds, id_col=id_col,
                           jaccard_threshold=jaccard_threshold)


def signature_store_tables(ds: ray.data.Dataset, *, text_col: str = "text",
                           id_col: str = "doc_id", n_hashes: int = 64,
                           bands: int = 16, k_shingle: int = 5):
    """(bands_ds, sigs_ds): the deterministic per-document LSH state an
    append-only ingest loop PERSISTS next to its survivor store and reuses on
    the next wave — band rows for candidate generation, exact shingle-hash
    payloads for verification.  Recomputing these from store text on every
    wave is the cost ``minhash_duplicate_pairs_incremental`` eliminates."""
    bands_ds = ds.map_batches(
        minhash_bands_batch, batch_format="pyarrow",
        fn_kwargs=dict(text_col=text_col, id_col=id_col, n_hashes=n_hashes,
                       bands=bands, k_shingle=k_shingle))
    sigs_ds = shingle_signatures(ds, text_col=text_col, id_col=id_col,
                                 k_shingle=k_shingle)
    return bands_ds, sigs_ds


def minhash_duplicate_pairs_incremental(
        new_docs: ray.data.Dataset, store_bands: ray.data.Dataset,
        store_sigs: ray.data.Dataset, *, min_new_id: int,
        text_col: str = "text", id_col: str = "doc_id", n_hashes: int = 64,
        bands: int = 16, k_shingle: int = 5,
        jaccard_threshold: float = 0.8) -> ray.data.Dataset:
    """Verified near-dup pairs for append-only ingest WITHOUT touching store
    text: the new wave's bands/signatures are computed, the store side reads
    its persisted signature store (``signature_store_tables``).  Pairs of two
    store documents are dropped before verification (``_verified_pairs``'
    ``min_new_id``; pass the smallest new id), so verification payload
    volume drops to pairs that can matter.
    """
    new_bands, new_sigs = signature_store_tables(
        new_docs, text_col=text_col, id_col=id_col, n_hashes=n_hashes,
        bands=bands, k_shingle=k_shingle)
    return _verified_pairs(new_bands.union(store_bands),
                           new_sigs.union(store_sigs), id_col=id_col,
                           jaccard_threshold=jaccard_threshold,
                           min_new_id=min_new_id)
