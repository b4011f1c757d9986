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
columns it targets (lengths, counts, scores in fixed grids); an unbounded
continuous domain needs a mergeable sketch — ``KllSketch`` /
``sketch_quantiles`` below (accuracy pytest-pinned vs exact), with the exact
histogram path staying the SQL oracle for discrete columns.
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


# --- mergeable quantile sketch (continuous values) ---------------------------


class KllSketch:
    """Mergeable KLL-style quantile sketch (Karnin-Lang-Liberty 2016 family,
    deterministic compaction variant): the scale twin of ``exact_quantiles``
    for CONTINUOUS columns, where the exact path's O(distinct values) driver
    histogram is the wrong tool.

    Structure: level ``i`` holds items of weight ``2^i``; a level over
    capacity sorts and keeps alternating items (promoting them one level up).
    Compaction alternates even/odd offsets per level (deterministic — no coin
    flips; for a FIXED sequence of update/merge calls in one process the
    result is exactly reproducible).  Across serialization boundaries the
    guarantee is weaker: ``from_rows`` resets the per-level flip state (a
    merged sketch has no single well-defined flip history), so grouped
    estimates can vary with transport batching / block layout — always
    within the same pytest-pinned rank-error bound, which is the contract
    callers may rely on.  Rank error stays O(1/k)-ish with the same shape as
    the randomized bound (accuracy is pytest-pinned vs exact on the bench
    table).
    Size: O(k · log(n/k)) items however large n grows — safe to ship per
    block and merge on the driver.
    """

    def __init__(self, k: int = 256):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self._flips: list[bool] = [False]
        self.n = 0

    def _capacity(self, level: int) -> int:
        # geometrically decaying capacities, floor 8 (KLL's memory trick)
        c = int(self.k * (2.0 / 3.0) ** (len(self.levels) - 1 - level))
        return max(c, 8)

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self._capacity(i):
                srt = np.sort(self.levels[i])
                off = 1 if self._flips[i] else 0
                self._flips[i] = not self._flips[i]
                promoted = srt[off::2]
                self.levels[i] = np.empty(0, dtype=np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                    self._flips.append(False)
                self.levels[i + 1] = np.concatenate(
                    [self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KllSketch") -> None:
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
            self._flips.append(False)
        for i, items in enumerate(other.levels):
            if len(items):
                self.levels[i] = np.concatenate([self.levels[i], items])
        self.n += other.n
        self._compress()

    # -- transport ------------------------------------------------------------

    def to_table(self) -> pa.Table:
        lv = np.concatenate([np.full(len(x), i, dtype=np.int64)
                             for i, x in enumerate(self.levels)]) \
            if any(len(x) for x in self.levels) else np.empty(0, np.int64)
        vals = np.concatenate([x for x in self.levels]) \
            if any(len(x) for x in self.levels) else np.empty(0, np.float64)
        return pa.table({"level": pa.array(lv, pa.int64()),
                         "value": pa.array(vals, pa.float64()),
                         "n": pa.array(np.full(len(lv), self.n, np.int64)
                                       if len(lv) else [], pa.int64())})

    @classmethod
    def from_rows(cls, level: np.ndarray, value: np.ndarray, n: int,
                  k: int = 256) -> "KllSketch":
        s = cls(k)
        top = int(level.max()) if len(level) else 0
        s.levels = [value[level == i].astype(np.float64)
                    for i in range(top + 1)]
        s._flips = [False] * (top + 1)
        s.n = int(n)
        return s

    # -- estimation -----------------------------------------------------------

    def quantile(self, q: float) -> float:
        items, weights = [], []
        for i, x in enumerate(self.levels):
            if len(x):
                items.append(x)
                weights.append(np.full(len(x), 1 << i, dtype=np.int64))
        if not items:
            return float("nan")
        v = np.concatenate(items)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="mergesort")
        v, w = v[order], w[order]
        cum = np.cumsum(w)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(v[min(idx, len(v) - 1)])


def sketch_quantiles(ds: ray.data.Dataset, col: str, qs: list[float], *,
                     k: int = 256) -> pa.Table:
    """Approximate quantiles of a CONTINUOUS column via per-block KLL
    sketches merged on the driver — shuffle-free, O(k log n) driver memory
    regardless of cardinality (the mergeable-sketch twin of
    ``exact_quantiles``, which stays the oracle for discrete columns).
    Returns (q: double, value: double)."""

    def block_sketch(batch: pa.Table) -> pa.Table:
        s = KllSketch(k)
        s.update(batch.column(col).to_numpy(zero_copy_only=False))
        return s.to_table()

    merged = KllSketch(k)
    for b in ds.map_batches(block_sketch, batch_format="pyarrow") \
               .iter_batches(batch_size=65536, batch_format="pandas"):
        if len(b) == 0:
            continue
        for n_val, grp in b.groupby("n", sort=False):
            merged.merge(KllSketch.from_rows(grp["level"].to_numpy(np.int64),
                                             grp["value"].to_numpy(np.float64),
                                             int(n_val), k=k))
    return pa.table({"q": pa.array([float(q) for q in qs], pa.float64()),
                     "value": pa.array([merged.quantile(q) for q in qs],
                                       pa.float64())})


def grouped_sketch_quantiles_exchanged(ds: ray.data.Dataset, key_col: str,
                                       col: str, qs: list[float], *,
                                       k: int = 256,
                                       num_partitions: int | None = None
                                       ) -> ray.data.Dataset:
    """``grouped_sketch_quantiles`` for UNBOUNDED key cardinality: the same
    per-block per-key sketch rows go through ONE key-partitioned exchange
    instead of a driver merge, and each partition folds its resident keys'
    sketches locally — driver memory O(1), exchange volume O(blocks × keys ×
    k·log n) tiny rows (sketch rows, never raw values).  The driver-merge
    variant stays the default for dimension-sized keys (no exchange at all);
    this is its corpus-scale twin, the relationship ``grouped_agg`` has to a
    driver-side fold.  Compaction order differs from the driver variant, so
    estimates may differ within the same rank-error bound (pytest pins
    both, plus exact equality on inputs small enough to never compact).
    Returns a Dataset of (key, q, value)."""

    def block_sketch(batch: pa.Table) -> pa.Table:
        return _per_key_sketch_rows(batch, key_col, col, k)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out_k, out_q, out_v = [], [], []
        for kv, grp in df.groupby("key", sort=True):
            s = KllSketch.from_rows(grp["level"].to_numpy(np.int64),
                                    grp["value"].to_numpy(np.float64),
                                    int(grp["n"].sum()), k=k)
            s._compress()
            for q in qs:
                out_k.append(kv)
                out_q.append(float(q))
                out_v.append(s.quantile(q))
        return pd.DataFrame({key_col: out_k,
                             "q": pd.array(out_q, dtype="float64"),
                             "value": pd.array(out_v, dtype="float64")})

    rows = ds.map_batches(block_sketch, batch_format="pyarrow")
    return grouped_apply(rows, ["key"], fold, num_partitions=num_partitions)


def _per_key_sketch_rows(batch: pa.Table, key_col: str, col: str,
                         k: int) -> pa.Table:
    """One serialized KLL sketch per distinct key in the batch — (key,
    level, value, n) rows, ``n`` on the sketch's first row only (the
    Misra–Gries n_stream trick) so sketches concatenate safely downstream."""
    keys = batch.column(key_col).to_numpy(zero_copy_only=False)
    vals = batch.column(col).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
    out = []
    for kv in pd.unique(keys):
        s = KllSketch(k)
        s.update(vals[keys == kv])
        t = s.to_table()
        n_first = np.zeros(t.num_rows, np.int64)
        if t.num_rows:
            n_first[0] = s.n
        out.append(pa.table({
            "key": pa.array([kv] * t.num_rows),
            "level": t.column("level"),
            "value": t.column("value"),
            "n": pa.array(n_first, pa.int64())}))
    if not out:
        return pa.table({"key": batch.column(key_col).slice(0, 0),
                         "level": pa.array([], pa.int64()),
                         "value": pa.array([], pa.float64()),
                         "n": pa.array([], pa.int64())})
    return pa.concat_tables(out)


def grouped_sketch_quantiles(ds: ray.data.Dataset, key_col: str, col: str,
                             qs: list[float], *, k: int = 256) -> pa.Table:
    """Per-key mergeable KLL sketches — the continuous-value twin of
    ``grouped_exact_quantiles`` (whose driver histogram is O(groups ×
    DISTINCT VALUES) and breaks on continuous columns): each block emits one serialized
    sketch per distinct key it contains (key, level, value, n — ``n`` on the
    sketch's first row only, the Misra–Gries n_stream trick, so sketches
    concatenate safely inside a transport batch), the driver merges per key.

    Driver memory is O(keys · k·log(n/k)) — the group key is assumed
    dimension-sized (event types, languages, sources); at corpus-scale key
    cardinality the same merge runs as one coarse key-grouped aggregate over
    the sketch rows (identical level-concat + compress algebra), which is why
    the sketch travels as plain columns.  Returns (key, q, value), keys
    sorted.  Item weights live in the level index (2^level), so
    concatenating level arrays across block sketches of the same key is
    itself a valid merge; ``n`` is bookkeeping only."""

    def block_sketch(batch: pa.Table) -> pa.Table:
        return _per_key_sketch_rows(batch, key_col, col, k)

    merged: dict = {}
    for b in ds.map_batches(block_sketch, batch_format="pyarrow") \
               .iter_batches(batch_size=65536, batch_format="pandas"):
        for kv, grp in b.groupby("key", sort=False):
            part = KllSketch.from_rows(grp["level"].to_numpy(np.int64),
                                       grp["value"].to_numpy(np.float64),
                                       int(grp["n"].sum()), k=k)
            if kv in merged:
                merged[kv].merge(part)
            else:
                part._compress()
                merged[kv] = part
    out_k, out_q, out_v = [], [], []
    for kv in sorted(merged):
        for q in qs:
            out_k.append(kv)
            out_q.append(float(q))
            out_v.append(merged[kv].quantile(q))
    return pa.table({key_col: pa.array(out_k),
                     "q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})
