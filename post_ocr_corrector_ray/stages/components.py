"""Distributed connected components + end-to-end near-duplicate dedup.

The near-dup stages (stages/dedup.py) emit verified *pairs*; a real corpus
dedup must contract those pairs into clusters and keep one canonical document
per cluster.  This module implements the alternating large-star / small-star
contraction of Kiveris et al., "Connected Components in MapReduce and Beyond"
(SoCC 2014) — the standard O(log^2 n)-round algorithm for web-scale dedup
graphs — on Ray Data:

* each round is ONE coarse hash-partitioned shuffle of the *edge set* (tiny
  relative to the corpus: only documents in duplicate clusters appear),
  with the per-partition star contraction fully vectorized in pandas;
* the driver sees only a (count, checksum) convergence aggregate per round,
  never edge data;
* each round's edge set is materialized so iteration k+1 does not re-execute
  rounds 1..k (Ray datasets are lazy; iterative algorithms must pin each
  round — this is the documented exception to "never materialize", and it
  materializes the dup-graph edges, not the corpus).

Near-dup graphs contract fast in practice (clusters are small and star-shaped
after one large+small round); ``max_rounds`` is a safety bound, not the
expected cost.

Output contract: ``connected_components`` returns (node, component) with
component = min node id of the component — deterministic, so the result is
hash-comparable against a DuckDB recursive-CTE oracle (__ray_entry__).

Partitioning assumptions (the ones a 256-node deployment must hold):

* star rounds key the exchange on the edge's node id — correctness needs all
  rows of one node id in one partition (grouped_apply guarantees it), and a
  single node's neighborhood must fit one worker's heap.  Near-dup graphs
  satisfy this by construction: LSH bucket caps bound per-node degree.  A
  true celebrity node would need degree-capped contraction (not needed for
  dedup graphs).
* the finalize pass never re-shuffles children (a giant cluster's children
  would all hash into the root's partition); only per-batch-distinct root
  ids move through the final exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .shuffle import DEFAULT_PARTITIONS, grouped_apply

def _empty_edges() -> pd.DataFrame:
    return pd.DataFrame({"u": pd.Series([], dtype=np.int64),
                         "v": pd.Series([], dtype=np.int64)})


def _symmetrize(batch: pa.Table) -> pa.Table:
    """(u,v) -> both directions, so a groupby on u sees the full
    neighborhood.  Runs pre-shuffle inside the same round's map stage."""
    u = batch.column("u")
    v = batch.column("v")
    return pa.table({"u": pa.concat_arrays([u.combine_chunks(), v.combine_chunks()]),
                     "v": pa.concat_arrays([v.combine_chunks(), u.combine_chunks()])})


def _large_star(df: pd.DataFrame) -> pd.DataFrame:
    """Connect every neighbor strictly larger than u to min(N(u) ∪ {u}).

    Receives all symmetric edges whose u hashes into this partition
    (grouped_apply guarantees key completeness), vectorized per-u min via
    groupby-transform.
    """
    if df.empty:
        return _empty_edges()
    m = np.minimum(df.groupby("u")["v"].transform("min"), df["u"])
    keep = df["v"] > df["u"]
    out = pd.DataFrame({"u": df.loc[keep, "v"].to_numpy(np.int64),
                        "v": m[keep].to_numpy(np.int64)})
    out = out[out["u"] != out["v"]].drop_duplicates()
    return out if not out.empty else _empty_edges()


def _orient_max_min(batch: pa.Table) -> pa.Table:
    """Orient every edge parent=max, child=min; drop self-loops."""
    a = batch.column("u").to_numpy(zero_copy_only=False)
    b = batch.column("v").to_numpy(zero_copy_only=False)
    keep = a != b
    a, b = a[keep], b[keep]
    return pa.table({"u": pa.array(np.maximum(a, b), pa.int64()),
                     "v": pa.array(np.minimum(a, b), pa.int64())})


def _small_star(df: pd.DataFrame) -> pd.DataFrame:
    """Connect u and all its (strictly smaller) neighbors to the minimum.

    Input is max→min oriented; emits (v, m) for each neighbor v ≠ m plus one
    (u, m) row per u.
    """
    if df.empty:
        return _empty_edges()
    m = df.groupby("u")["v"].transform("min").to_numpy(np.int64)
    v = df["v"].to_numpy(np.int64)
    neigh = pd.DataFrame({"u": v[v != m], "v": m[v != m]})
    heads = pd.DataFrame({"u": df["u"].to_numpy(np.int64), "v": m}) \
        .drop_duplicates("u")
    out = pd.concat([neigh, heads], ignore_index=True)
    out = out[out["u"] != out["v"]].drop_duplicates()
    return out if not out.empty else _empty_edges()


def _pin(ds: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """Materialize + coalesce a small intermediate.  Exchange cost in Ray is
    per-TASK (block), not per-row: a 150-row set fragmented into 140 blocks
    makes the next sort pay 140 map + 140 reduce task overheads.  Joins and
    grouped stages inflate block counts, so every pinned intermediate is
    coalesced back to ≤ num_partitions blocks before feeding the next
    exchange."""
    m = ds.materialize()
    try:
        blocks = m.num_blocks()
    except Exception:
        return m
    if blocks and blocks > num_partitions:
        m = m.repartition(num_partitions).materialize()
    return m


def _checksum(edges: ray.data.Dataset) -> tuple[int, int]:
    """(row count, order-independent 64-bit mix) of an edge set — the
    convergence fingerprint.  One tiny row per block reaches the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = u * np.uint64(0x9E3779B97F4A7C15) ^ (v + np.uint64(0x85EBCA6B))
        mix ^= mix >> np.uint64(33)
        s = int(mix.sum(dtype=np.uint64)) if len(mix) else 0
        return pa.table({"n": pa.array([len(mix)], pa.int64()),
                         "s": pa.array([s], pa.uint64())})

    parts = edges.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    s = 0
    for p in parts:
        s = (s + int(p["s"])) & 0xFFFFFFFFFFFFFFFF
    return n, s


def _is_star_forest(edges: ray.data.Dataset, *,
                    num_partitions: int) -> bool:
    """True iff no node appears both as child (u) and parent (v).

    A max→min oriented edge set that passes this check is a star forest whose
    roots are the minima of their components (parent < child by orientation),
    which with the star ops' connectivity preservation is exactly the
    converged state.  Fingerprint stability across one round is necessary but
    not provably sufficient, so convergence is accepted only when this also
    holds.  One shuffle of the edge set; the driver sees one count per
    partition.
    """

    def explode(batch: pa.Table) -> pa.Table:
        u = batch.column("u").combine_chunks()
        v = batch.column("v").combine_chunks()
        flags = pa.concat_arrays([
            pa.array(np.ones(len(u), dtype=np.int8)),
            pa.array(np.zeros(len(v), dtype=np.int8))])
        return pa.table({"node": pa.concat_arrays([u, v]), "is_child": flags})

    def violations(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"bad": pd.Series([0], dtype=np.int64)})
        g = df.groupby("node")["is_child"].agg(["min", "max"])
        return pd.DataFrame({"bad": pd.Series(
            [int(((g["min"] == 0) & (g["max"] == 1)).sum())], dtype=np.int64)})

    parts = grouped_apply(
        edges.map_batches(explode, batch_format="pyarrow"), ["node"],
        violations, num_partitions=num_partitions).take_all()
    return sum(p["bad"] for p in parts) == 0


def connected_components(edges: ray.data.Dataset, *,
                         u_col: str = "id_a", v_col: str = "id_b",
                         max_rounds: int = 25,
                         num_partitions: int = DEFAULT_PARTITIONS
                         ) -> ray.data.Dataset:
    """(node, component) for every node appearing in ``edges``; component =
    min node id of its connected component.

    Alternates large-star / small-star until the small-star output's
    (count, checksum) fingerprint is stable, then reads components off the
    resulting star graph.  Raises after ``max_rounds`` non-converged rounds
    (the algorithm's bound is O(log^2 n) w.h.p.; 25 covers any real graph).
    """
    # projection via map_batches, not select/rename_columns: Ray's Project
    # operator cannot fuse over the pandas blocks that grouped map_groups
    # stages (e.g. verified LSH pairs) emit
    def to_uv(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch.column(u_col).cast(pa.int64()),
                         "v": batch.column(v_col).cast(pa.int64())})

    cur = _pin(edges.map_batches(to_uv, batch_format="pyarrow")
               .map_batches(_orient_max_min, batch_format="pyarrow"),
               num_partitions)
    prev_fp = _checksum(cur)
    if prev_fp[0] == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "component": pa.array([], pa.int64())}))
    # exchange cost is per TASK: ~10 star-contraction exchanges at P
    # partitions each cost O(P) fixed task overheads regardless of rows.
    # Adapt P to the (now known) edge count so a toy graph doesn't pay a
    # 64-partition sort per round; results are P-independent (grouped_apply
    # is exact per key at any P).
    num_partitions = max(8, min(num_partitions, prev_fp[0] // 10_000 + 8))
    cur = _pin(cur, num_partitions)
    for _ in range(max_rounds):
        sym = cur.map_batches(_symmetrize, batch_format="pyarrow")
        large = grouped_apply(sym, ["u"], _large_star,
                              num_partitions=num_partitions)
        small = _pin(grouped_apply(
            large.map_batches(_orient_max_min, batch_format="pyarrow"),
            ["u"], _small_star, num_partitions=num_partitions),
            num_partitions)
        fp = _checksum(small)
        converged = (fp == prev_fp
                     and _is_star_forest(small, num_partitions=num_partitions))
        cur = small
        prev_fp = fp
        if converged:
            break
    else:
        raise RuntimeError(
            f"connected_components: no convergence in {max_rounds} rounds")

    # star graph: every edge is (child, root), globally unique — small-star
    # keys by u and dedups per partition, so children map with NO further
    # shuffle (a giant cluster's children would otherwise all hash into one
    # partition).  Only the root ids (one per component) go through a
    # distinct shuffle for their self-rows.
    def children(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("u").cast(pa.int64()),
                         "component": batch.column("v").cast(pa.int64())})

    def local_roots(batch: pa.Table) -> pa.Table:
        # per-batch distinct before the shuffle: the exchange moves at most
        # (#batches × distinct-per-batch) root ids, not one row per edge
        v = np.unique(batch.column("v").to_numpy(zero_copy_only=False))
        return pa.table({"v": pa.array(v, pa.int64())})

    def root_rows(df: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(df["v"].to_numpy(np.int64))
        return pd.DataFrame({"node": v, "component": v})

    def as_arrow(df: pd.DataFrame) -> pa.Table:
        # unify block type with child_rows: union() refuses mixed
        # pandas/arrow blocks
        return pa.table({"node": pa.array(df["node"], pa.int64()),
                         "component": pa.array(df["component"], pa.int64())})

    child_rows = cur.map_batches(children, batch_format="pyarrow")
    roots = grouped_apply(cur.map_batches(local_roots, batch_format="pyarrow"),
                          ["v"], root_rows, num_partitions=num_partitions) \
        .map_batches(as_arrow, batch_format="pandas")
    return child_rows.union(roots)


def near_dedup(docs: ray.data.Dataset, pairs: ray.data.Dataset, *,
               id_col: str = "doc_id", u_col: str = "id_a",
               v_col: str = "id_b",
               num_partitions: int = DEFAULT_PARTITIONS) -> ray.data.Dataset:
    """Drop every non-canonical member of each near-dup cluster; keep the
    min-id representative and all untouched documents.

    The discard set (cluster members ≠ root) flows through the co-partitioned
    anti join (stages/joins.py) — neither side is collected on the driver.
    Returns the surviving rows of ``docs`` (all input columns).
    """
    from .joins import hash_join

    # pin the (tiny relative to docs) pair set first: an UNPINNED pair
    # pipeline would otherwise run as one deep DAG under the contraction
    # loop's repeated exchanges — measured 3× slower at bench scale
    pairs = _pin(pairs, num_partitions)
    comp = connected_components(pairs, u_col=u_col, v_col=v_col,
                                num_partitions=num_partitions)

    def losers(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch.column("node"),
                                      batch.column("component")))
        return pa.table({id_col: t.column("node")})

    discard = _pin(comp.map_batches(losers, batch_format="pyarrow"),
                   num_partitions)
    return hash_join(docs, discard, on=id_col, how="anti",
                     num_partitions=num_partitions)


def near_dedup_incremental(new_docs: ray.data.Dataset,
                           store_ids: ray.data.Dataset,
                           pairs: ray.data.Dataset, *,
                           id_col: str = "doc_id", u_col: str = "id_a",
                           v_col: str = "id_b",
                           num_partitions: int = DEFAULT_PARTITIONS
                           ) -> ray.data.Dataset:
    """Append-only ingest dedup: keep the new documents that survive against
    an EXISTING deduped store.

    ``pairs`` must be the verified near-dup pairs over the UNION of store and
    new documents.  Ids must be globally unique across both sets AND
    append-only ordered: every store id strictly smaller than every new id
    (monotone ingest ids — the natural property of an append-only store).
    Semantics: a new document is dropped iff its connected component contains
    any store document (the store is authoritative and never modified), else
    the component's min-id new document survives and the rest drop.
    Transitive chains through new documents into the store therefore drop the
    whole chain — under the append-only id ordering this is exactly the
    closure the one-shot ``near_dedup`` would have produced had all documents
    arrived together.  Without that ordering the CLOSURE still matches but
    the chosen representative may differ: one-shot keeps the global min-id
    (possibly a new doc), incremental always keeps the store doc.

    All set logic runs through the co-partitioned exchanges over the tiny
    clustered-node rows; nothing is collected on the driver.  Scale note:
    ``pairs`` should come from the persisted-signature ingest path
    (``stages/dedup.py:minhash_duplicate_pairs_incremental`` over
    ``signature_store_tables`` written next to the survivor store — the CLI
    ``dedup`` command does this) so each wave's cost is O(new docs); this
    function's clustering and survivor logic is identical either way.
    """
    from .joins import hash_join
    from .shuffle import grouped_agg

    # every intermediate below is O(clustered nodes) — tiny next to the
    # corpus — and is pinned with materialize() so each co-partitioned
    # exchange runs as its own small plan instead of one deep union+sort DAG
    # (which the streaming executor schedules poorly under few CPUs); only
    # the final anti join over the full new_docs streams.
    comp = connected_components(pairs, u_col=u_col, v_col=v_col,
                                num_partitions=num_partitions)

    def _nodes(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch.column("node").cast(pa.int64()),
                         "component": batch.column("component").cast(pa.int64())})

    comp_rows = _pin(comp.map_batches(_nodes, batch_format="pyarrow"),
                     num_partitions)
    # components containing ≥1 store doc
    old_rows = _pin(hash_join(comp_rows, store_ids, on=id_col, how="semi",
                              num_partitions=num_partitions), num_partitions)

    def _flag(batch: pa.Table) -> pa.Table:
        return pa.table({"component": batch.column("component").cast(pa.int64()),
                         "n_old": pa.array(np.ones(batch.num_rows, np.int64))})

    flagged = grouped_agg(old_rows.map_batches(_flag, batch_format="pyarrow"),
                          ["component"], {"n_old": ("n_old", "sum")},
                          num_partitions=num_partitions)
    flagged = _pin(flagged, num_partitions)
    # clustered NEW nodes = comp rows minus store rows
    new_rows = _pin(hash_join(comp_rows, store_ids, on=id_col, how="anti",
                              num_partitions=num_partitions), num_partitions)
    # drop new nodes in store-flagged components
    unflagged = hash_join(new_rows, flagged, on="component", how="anti",
                          num_partitions=num_partitions)

    def _min_new(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("component", as_index=False)[id_col].min()
        return g[[id_col]]

    winners = _pin(grouped_apply(unflagged, ["component"], _min_new,
                                 num_partitions=num_partitions),
                   num_partitions)
    # losers = every clustered new node that is not a winner
    losers = _pin(hash_join(
        new_rows.map_batches(
            lambda t: t.select([id_col]), batch_format="pyarrow"),
        winners, on=id_col, how="anti",
        num_partitions=num_partitions), num_partitions)
    return hash_join(new_docs, losers, on=id_col, how="anti",
                     num_partitions=num_partitions)
