"""Corpus-build pipeline — the Ray-native analog of the reference's
corpus scripts (SURVEY.md §3.1), plus the shuffle-shaped vocabulary build.

Reference chain: srWaC XML → plain text → all_chars → (curated good_chars) →
messy corpus → split.csv.  Here the corpus is ONE dataset with columns
``(url, clean, messy, split)`` — positional file alignment and the byte-offset
seek index are replaced by row-colocated columns (SURVEY.md §1.3).

Wide operations and their scale posture:
- **alphabet** (global distinct chars, reference all_chars.py:17-29): per-batch
  char-set partials (tiny) → driver union.  No shuffle: the partial per batch
  is ≤ a few hundred chars regardless of batch size.
- **token counts** (reference dictionary_corrector.py:54-62): per-batch partial
  Counters collapsed to (token, count) rows inside ``map_batches`` — the
  pre-aggregation — then ONE small ``groupby("token").sum()`` shuffle over
  partials, not raw tokens.
- **split** (reference make_split_csv.py:23-32): the reference keys 80/10/10 on
  the 1-based line number modulo 10 (9→validation, 0→test).  A parallel engine
  has no stable line number, so the split keys on a vectorized url hash
  (``polyhash_u64_array(url) % 10``) with the same remainder→split mapping —
  deterministic, partition-invariant, no per-row Python on the scan.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

import ray.data

from ..functions.alphabet import build_alphabet
from ..functions.text import tokenize_ws
from ..model.dictionary import DictionaryCorrector
from ..stages.extract import extract_batch
from ..stages.noise import add_messy_column

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = "train", "validation", "test"


def pick_split(remainder: int) -> str:
    """Reference mapping (make_split_csv.py:23-32)."""
    if remainder == 9:
        return SPLIT_VAL
    if remainder == 0:
        return SPLIT_TEST
    return SPLIT_TRAIN


def add_split_column(batch: pa.Table, *, key_col: str = "url",
                     out_col: str = "split",
                     hash_fn: str = "fast") -> pa.Table:
    """80/10/10 split keyed on a VECTORIZED url hash (polyhash_u64_array —
    the same scalar/vectorized-pinned hash the partition router uses; no
    per-row Python on the scan).  Remainder → split mapping is the
    reference's ``pick_split`` (make_split_csv.py:23-32), applied as two
    numpy selects.

    ``hash_fn``: ``"fast"`` (default, vectorized polyhash) or ``"blake2b"``
    — the pre-r4 per-row ``stable_hash_u64`` keying, kept so artifacts built
    on the old split membership (trained dictionaries, split manifests)
    remain reproducible; the r4 default migration is a split REASSIGNMENT
    relative to those (ADVICE r4)."""
    import numpy as np

    col = batch.column(key_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if hash_fn == "blake2b":
        from ..functions.hashing import stable_hash_u64

        rem = np.array([stable_hash_u64(u) % 10 for u in col.to_pylist()],
                       dtype=np.uint64)
    else:
        from ..functions.hashing import polyhash_u64_array

        rem = polyhash_u64_array(col) % np.uint64(10)
    assert pick_split(9) == SPLIT_VAL and pick_split(0) == SPLIT_TEST
    splits = np.where(rem == 9, SPLIT_VAL,
                      np.where(rem == 0, SPLIT_TEST, SPLIT_TRAIN))
    return batch.append_column(out_col, pa.array(splits.tolist(), pa.string()))


def compute_alphabet(ds: ray.data.Dataset, text_col: str = "clean") -> str:
    """Global distinct-char aggregate → sorted alphabet string.

    Streams per-batch char-set partials (strings of ≤ ~1k distinct chars) to
    the driver; the full dataset is never materialized.
    """

    def partial(batch: pa.Table) -> pa.Table:
        chars: set[str] = set()
        for t in batch.column(text_col).to_pylist():
            if t:
                chars.update(t)
        return pa.Table.from_pylist([{"chars": "".join(sorted(chars))}])

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged: set[str] = set()
    for row in parts:
        merged.update(row["chars"])
    return build_alphabet(merged)


def token_counts(ds: ray.data.Dataset, text_col: str = "clean",
                 split: str | None = SPLIT_TRAIN,
                 num_partitions: int | None = None) -> ray.data.Dataset:
    """(token, frequency) dataset — pre-aggregated groupby (A2).

    ``num_partitions=None`` → adaptive exchange width (cluster-scaled);
    callers that know the input size pass ``partitions_for(size_bytes=...)``
    so the token exchange widens with the corpus (stages/shuffle.py)."""
    if split is not None:
        # string expr → vectorized pyarrow predicate, not a per-row Python call
        ds = ds.filter(expr=f"split == '{split}'")

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter[str] = Counter()
        for t in batch.column(text_col).to_pylist():
            if t:
                c.update(tokenize_ws(t))
        if not c:
            return pa.table({"token": pa.array([], pa.string()),
                             "frequency": pa.array([], pa.int64())})
        toks, counts = zip(*sorted(c.items()))
        return pa.table({"token": pa.array(toks, pa.string()),
                         "frequency": pa.array(counts, pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # high-cardinality key (web-scale vocabularies reach 1e6+ tokens): coarse
    # hash-partitioned aggregate, NOT Ray's per-group groupby.aggregate
    from ..stages.shuffle import grouped_agg

    return grouped_agg(partials, ["token"], {"frequency": ("frequency", "sum")},
                       num_partitions=num_partitions)


def build_dictionary(ds: ray.data.Dataset, *, text_col: str = "clean",
                     split: str | None = SPLIT_TRAIN,
                     min_frequency: int = 2) -> DictionaryCorrector:
    """Distributed vocabulary build → small-side DictionaryCorrector.

    The aggregated (token, frequency) result is the broadcast small side (a
    natural-language vocabulary is ~1e5-1e6 rows even at web scale) — safe to
    collect on the driver and ``ray.put`` once.  Tokens below
    ``min_frequency`` are PRUNED INSIDE the distributed count pipeline before
    the driver collection: the corrector ignores them anyway (reference
    :80/:87-88), and a raw web-scale token census (typos, ids, hashes) is
    orders of magnitude larger than its ≥2-frequency core.
    """
    import pyarrow.compute as pc

    counts = token_counts(ds, text_col=text_col, split=split)
    if min_frequency > 1:
        counts = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("frequency"),
                                                min_frequency)),
            batch_format="pyarrow")
    vocab: dict[str, int] = {}
    for batch in counts.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for tok, freq in zip(batch.column("token").to_pylist(),
                             batch.column("frequency").to_pylist()):
            vocab[tok] = int(freq)
    return DictionaryCorrector(vocab, min_frequency=min_frequency)


def corpus_from_pages(pages: ray.data.Dataset, *, good_chars: str,
                      noise_salt: int = 0) -> ray.data.Dataset:
    """pages → (url, clean, messy, split) corpus dataset (reference §3.1 chain)."""
    ds = pages.map_batches(extract_batch, batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch.column("url"),
                         "clean": batch.column("extracted_text")})

    ds = ds.map_batches(project, batch_format="pyarrow")
    ds = ds.map_batches(add_messy_column, batch_format="pyarrow",
                        fn_kwargs=dict(good_chars=good_chars, salt=noise_salt))
    return ds.map_batches(add_split_column, batch_format="pyarrow")

