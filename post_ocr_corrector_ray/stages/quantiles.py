"""Exact distributed quantiles via a mergeable value-histogram.

Shape: per-batch ``value_counts`` partials (one row per distinct value per
batch) → coarse-partitioned exact sum per value (stages/shuffle.grouped_agg —
the shuffle moves (value, count) partials, never raw rows) → tiny driver
merge: sort the distinct values, cumulative-sum the counts, and read each
quantile off the cumulative histogram.

Exactness contract: the result is the *discrete* quantile (DuckDB
``quantile_disc`` semantics — the smallest value whose cumulative count
reaches ``ceil(q·n)``), computed exactly.  Driver memory is O(distinct
values), which is what makes this scale-safe for the integer/categorical
columns it targets (lengths, counts, scores in fixed grids).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .shuffle import DEFAULT_PARTITIONS, grouped_agg, grouped_apply


def exact_quantiles(ds: ray.data.Dataset, col: str, qs: list[float], *,
                    num_partitions: int = DEFAULT_PARTITIONS) -> pa.Table:
    """Exact discrete quantiles of ``ds[col]`` at each q in ``qs``.

    Returns a tiny arrow table (q: double, value: int64) — one row per
    requested quantile.  Nulls in ``col`` are ignored (SQL aggregate
    semantics)."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_pandas().dropna()
        g = v.value_counts().rename_axis("value").reset_index(name="n")
        g["value"] = g["value"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       ["value"], {"n": ("n", "sum")},
                       num_partitions=num_partitions)
    # driver merge: O(distinct values) rows
    parts = [b for b in hist.iter_batches(batch_size=65536, batch_format="pandas")]
    merged = (pd.concat(parts).groupby("value", as_index=False)["n"].sum()
              .sort_values("value"))
    values = merged["value"].to_numpy(np.int64)
    cum = np.cumsum(merged["n"].to_numpy(np.int64))
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        rank = max(1, math.ceil(q * n))          # 1-based, quantile_disc
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(float(q))
        out_v.append(int(values[idx]) if n else None)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


def grouped_exact_quantiles(ds: ray.data.Dataset, col: str, group_col: str,
                            qs: list[float], *,
                            num_partitions: int = DEFAULT_PARTITIONS) -> pa.Table:
    """Per-group exact discrete quantiles: same mergeable histogram shape,
    keyed (group, value); driver merge is O(groups × distinct values).
    Returns (group, q, value) — one row per group per quantile."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({group_col: batch.column(group_col).to_pandas(),
                           "value": batch.column(col).to_pandas()}).dropna()
        g = df.groupby([group_col, "value"], as_index=False).size() \
              .rename(columns={"size": "n"})
        g["value"] = g["value"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       [group_col, "value"], {"n": ("n", "sum")},
                       num_partitions=num_partitions)
    parts = [b for b in hist.iter_batches(batch_size=65536, batch_format="pandas")]
    merged = (pd.concat(parts).groupby([group_col, "value"], as_index=False)["n"]
              .sum().sort_values([group_col, "value"]))
    out_g, out_q, out_v = [], [], []
    for grp, sub in merged.groupby(group_col, sort=True):
        values = sub["value"].to_numpy(np.int64)
        cum = np.cumsum(sub["n"].to_numpy(np.int64))
        n = int(cum[-1])
        for q in qs:
            rank = max(1, math.ceil(q * n))
            out_g.append(grp)
            out_q.append(float(q))
            out_v.append(int(values[int(np.searchsorted(cum, rank))]))
    return pa.table({group_col: pa.array(out_g),
                     "q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


def global_rank(ds: ray.data.Dataset, col: str, id_col: str, *,
                rank_col: str = "rank", tie_cols: list[str] | None = None,
                num_partitions: int = DEFAULT_PARTITIONS) -> ray.data.Dataset:
    """Distributed ROW_NUMBER() OVER (ORDER BY col, *tie_cols, id_col) WITHOUT
    a global sort: the mergeable value-histogram gives each distinct ``col``
    value its base offset (tiny driver cumsum, broadcast once via ``ray.put``),
    then ONE value-keyed exchange ranks rows inside each value group by
    ``tie_cols + [id_col]`` (``tie_cols`` lets a coarse histogram value — e.g.
    a hash prefix — carry a finer in-group order).

    Scale posture: driver memory O(distinct values) — same bounded-domain
    contract as exact_quantiles (quantize first for continuous columns).  A
    heavily-dominant value funnels its rows into one partition (key-grouped
    skew); salt + a second offset pass would split it, not needed for
    length-like distributions.
    """
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_pandas().dropna()
        g = v.value_counts().rename_axis("value").reset_index(name="n")
        g["value"] = g["value"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       ["value"], {"n": ("n", "sum")},
                       num_partitions=num_partitions)
    parts = [b for b in hist.iter_batches(batch_size=65536,
                                          batch_format="pandas")]
    merged = (pd.concat(parts).groupby("value", as_index=False)["n"].sum()
              .sort_values("value")) if parts else pd.DataFrame(
                  {"value": pd.Series([], dtype=np.int64),
                   "n": pd.Series([], dtype=np.int64)})
    base = dict(zip(merged["value"].to_numpy(np.int64),
                    np.concatenate([[0], np.cumsum(
                        merged["n"].to_numpy(np.int64))[:-1]])
                    if len(merged) else np.array([], dtype=np.int64)))
    base_ref = ray.put(base)

    order_cols = [col] + list(tie_cols or []) + [id_col]

    def rank_part(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        df = df.sort_values(order_cols)
        pos = df.groupby(col).cumcount().to_numpy(np.int64)
        offs = df[col].map(b).to_numpy(np.int64)
        out = df[[id_col, col]].copy()
        out[rank_col] = offs + pos + 1
        return out

    # drop null keys HERE so both passes see the same row set: the histogram
    # pass ignores nulls (dropna above), and a null key reaching rank_part
    # would map to NaN offset and crash the int64 cast (ROW_NUMBER over a
    # null key is undefined for this operator — SQL aggregate semantics)
    proj = ds.map_batches(
        lambda t: t.select([id_col, col] + list(tie_cols or []))
                   .filter(pc.is_valid(t.column(col))),
        batch_format="pyarrow")
    return grouped_apply(proj, [col], rank_part,
                         num_partitions=num_partitions)

