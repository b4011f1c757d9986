"""Training-data feed — the Ray-Data analog of the reference's
``CorrectorDataset`` + ``DataLoader`` chain (corrector_dataset.py:16-51 split
filter + pair access; neural_corrector.py:216-226 DataLoader with
``collate_sequences``; data_functions.py:57-60 pad-to-widest with INT_EMPTY).

Torch-free by container constraint: collated batches are NumPy/Arrow rows that
map 1:1 onto ``torch.from_numpy`` / ``iter_torch_batches`` at a real training
site.  Differences from the reference, by design:

- **Deterministic shuffle.** ``DataLoader(shuffle=True)`` draws from a global
  RNG; a distributed feed can't.  Epoch shuffling here orders rows by a seeded
  hash of the example key (``shuffle_key = hash(key, epoch)``) — a
  deterministic permutation that changes every epoch and is identical for any
  block layout / worker count (pytest-pinned).
- **Exact-size batches.** Ray's ``sort`` on (shuffle key, url) gives the
  permutation and zipping it with ``range(n)`` numbers each row by its
  position, so batch ``i`` contains exactly rows ``[i·B, (i+1)·B)`` of the
  permutation — byte-stable across parallelism, unlike block-aligned batching.

Scale posture: the sort is Ray's sampled range exchange (the engine picks
the boundaries); collation is one more coarse exchange on ``batch_id``; each
collated batch row is the padded id matrices flattened to int32 bytes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .. import INT_EMPTY
from ..functions.alphabet import Vocab
from ..functions.hashing import hash_u64_array, polyhash_u64_array

_SEED = 17  # of the epoch shuffle
# one collated batch per row; x and y are int32-LE bytes
FEED_SCHEMA = pa.schema([("batch_id", pa.int64()), ("size", pa.int64()),
                         ("width_x", pa.int64()), ("width_y", pa.int64()),
                         ("x", pa.binary()), ("y", pa.binary())])


def _shuffle_key(batch: pa.Table, epoch: int) -> np.ndarray:
    base = polyhash_u64_array(batch.column("url").cast(pa.string()))
    return hash_u64_array(base, seed=_SEED * 1000003 + epoch)


def epoch_feed(corpus: ray.data.Dataset, *, alphabet: str,
               split: str | None = "train", batch_size: int = 8,
               epoch: int = 0) -> ray.data.Dataset:
    """One epoch of collated (messy, clean) training batches of a
    (url, messy, clean[, split]) corpus, as a Dataset.

    Each output ROW is one training batch, typed as ``FEED_SCHEMA``, with
    ``x``/``y`` the seq-padded id matrices (INT_EMPTY padding, row-major
    ``size × width``, as int32-LE bytes) — exactly ``collate_sequences`` of
    the reference (which is seq-first; transpose at the consumer).  A corpus
    without rows in ``split`` gives a feed without rows, of the same type.
    """
    if split is not None:
        corpus = corpus.filter(expr=f"split == '{split}'")

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "skey": pa.array(_shuffle_key(batch, epoch), pa.uint64()),
            "ukey": batch.column("url").cast(pa.string()),  # hash-tie breaker
            "messy": batch.column("messy"),
            "clean": batch.column("clean")})

    # materialized once: the row count below is then block metadata, and the
    # upstream corpus pipeline (read + extraction + noise) runs once
    keyed_ds = corpus.map_batches(keyed, batch_format="pyarrow").materialize()
    n = keyed_ds.count()
    if n == 0:
        return ray.data.from_arrow(FEED_SCHEMA.empty_table())
    # zip pairs rows by position.  That is exact here because Ray 2.49
    # executes any plan holding a Sort or a Zip with preserve_order=True
    # (legacy_compat.py: "Enforce to preserve ordering if the plan has
    # operators required to do so, such as Zip and Sort") — pinned by
    # tests/test_training_feed.py::test_zip_pairs_rows_by_position
    ranked = keyed_ds.sort(["skey", "ukey"]).zip(
        ray.data.range(n)).map_batches(
            lambda df: df.assign(batch_id=df["id"] // batch_size),
            batch_format="pandas")

    def collate(df: pd.DataFrame) -> pd.DataFrame:
        v = Vocab(alphabet)
        rows = []
        for bid, g in df.groupby("batch_id", sort=True):
            g = g.sort_values("id")
            xs = [v.encode(t or "") for t in g["messy"]]
            ys = [v.encode(t or "") for t in g["clean"]]
            wx = max((len(a) for a in xs), default=0)
            wy = max((len(a) for a in ys), default=0)
            x = np.full((len(xs), wx), INT_EMPTY, dtype=np.int32)
            y = np.full((len(ys), wy), INT_EMPTY, dtype=np.int32)
            for i, a in enumerate(xs):
                x[i, : len(a)] = a
            for i, a in enumerate(ys):
                y[i, : len(a)] = a
            # int32-LE bytes, not lists: hashable/sortable for the driver's
            # canonical row compare, zero-copy back via np.frombuffer
            rows.append({"batch_id": int(bid), "size": len(xs),
                         "width_x": wx, "width_y": wy,
                         "x": np.ascontiguousarray(x.astype("<i4")).tobytes(),
                         "y": np.ascontiguousarray(y.astype("<i4")).tobytes()})
        if not rows:
            return FEED_SCHEMA.empty_table().to_pandas()
        return pd.DataFrame(rows)

    from ..stages.shuffle import grouped_apply

    return grouped_apply(ranked, ["batch_id"], collate)


def documents_corpus(sf_dir: str) -> ray.data.Dataset:
    """(url, clean, messy, split) corpus derived from the documents test table
    (keyed noise + reference split semantics — doc_id % 10)."""
    from ..stages.noise import GOOD_CHARS, add_messy_column
    from .corpus import split_of

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        clean = [(t or "").strip() for t in batch.column("text").to_pylist()]
        return add_messy_column(
            pa.table({"url": ids.cast(pa.string()),
                      "clean": pa.array(clean, pa.string())}),
            good_chars=GOOD_CHARS).append_column(
                "split", split_of(ids.to_numpy() % 10))

    return ds.map_batches(f, batch_format="pyarrow")


def training_feed(sf_dir: str) -> ray.data.Dataset:
    """queries() entry: epoch-0 collated train-split feed over documents."""
    from ..functions.alphabet import build_alphabet

    corpus = documents_corpus(sf_dir)
    alphabet = build_alphabet(set("abcdefghijklmnopqrstuvwxyz .,!?;:ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789'\"-"))
    return epoch_feed(corpus, alphabet=alphabet)
