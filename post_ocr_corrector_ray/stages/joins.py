"""Co-partitioned semi / anti join: keep the rows of one fact table whose key
does (semi) or does not (anti) occur in another.

The filter is ONE co-partitioning shuffle: tag each side, pad both onto the
left schema (the right side ships only its key), ``union`` the datasets,
coarse-hash-partition on the key (stages/shuffle.py — a fixed number of Ray
groups regardless of key cardinality), and run a vectorized ``isin`` inside
each partition.  The ``dedup`` command's survivor logic
(stages/components.py) runs on it.

Partitioning assumption (document per the engine contract): every row of one
key lands in exactly one partition — guaranteed by the deterministic key
hash — so the per-partition filter is exact.  A pathologically hot key
bounds a single task's memory; ``num_partitions`` spreads distinct keys but
not one key's rows (the same skew contract as ``grouped_apply``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .shuffle import DEFAULT_PARTITIONS, grouped_apply

_SIDE = "_side"


def _as_arrow(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Ensure ``ds`` reports a pyarrow schema.

    A dataset coming out of a pandas ``map_groups`` (e.g. a previous
    hash_join or grouped_apply) carries a PandasBlockSchema whose types are
    numpy dtypes / ``object`` — the padding below needs pyarrow types.
    The identity conversion costs nothing extra: pandas blocks pay the
    to-arrow conversion at the pad stage anyway, and Ray fuses the map."""
    s = ds.schema()
    if s is None or all(isinstance(t, pa.DataType) for t in (s.types or [])):
        return ds
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


def _tagged(ds: ray.data.Dataset, schema: pa.Schema, side: int,
            keep: set[str]) -> ray.data.Dataset:
    """``ds`` projected onto ``schema`` and stamped with ``side``: columns in
    ``keep`` are cast over, every other one is null.  A plain batch
    projection, NOT ``select_columns``: Ray's Project operator cannot run
    over the pandas blocks that grouped map_groups stages emit."""

    def pad(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {_SIDE: pa.array(np.full(n, side, dtype=np.int8), pa.int8())}
        for f in schema:
            if f.name in keep:
                cols[f.name] = batch.column(f.name).cast(f.type)
            else:
                cols[f.name] = pa.nulls(n, f.type)
        return pa.table(cols)

    return ds.map_batches(pad, batch_format="pyarrow")


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
              on: str, how: str,
              num_partitions: int = DEFAULT_PARTITIONS) -> ray.data.Dataset:
    """Rows of ``left`` whose ``on`` value occurs ("semi") or does not occur
    ("anti") in ``right[on]`` — the shuffle filter for when NEITHER side
    fits a broadcast (a dimension-sized right side should stay a ``ray.put``
    set and ``pc.is_in``, as ``cli dedup`` does for its signature store).

    Returns the left columns only.  Constraint: the right rows carry the
    left columns as nulls through the tagged union, so non-key integer
    columns of ``left`` travel as float64 and are restored after the
    filter; their values must fit 53 bits — full-range hash columns fail
    LOUDLY at the pad cast.
    """
    if how not in ("semi", "anti"):
        raise ValueError(f"hash_join: unsupported how={how!r}")
    # a fully-empty upstream (e.g. a grouped aggregate over zero rows) has no
    # schema at all — or an empty zero-column block schema; resolve such joins
    # without an exchange.  A NON-empty schema that lacks the key column is a
    # caller error (typo'd/renamed key) and must raise, never silently return
    # the whole left side.
    left, right = _as_arrow(left), _as_arrow(right)
    ls, rs = left.schema(), right.schema()
    if ls is None or not ls.names:
        return left
    if on not in ls.names:
        raise ValueError(f"hash_join: key {on!r} not in left schema "
                         f"{list(ls.names)}")
    if rs is None or not rs.names:
        return left if how == "anti" else left.limit(0)
    if on not in rs.names:
        raise ValueError(f"hash_join: key {on!r} not in right schema "
                         f"{list(rs.names)}")
    left_cols = list(ls.names)
    # non-key ints are null on the right rows: pin them float64 in the union
    # so pandas blocks do not flip int64/float64 per block
    schema = pa.schema([
        pa.field(n, pa.float64() if n != on and pa.types.is_integer(t) else t)
        for n, t in zip(ls.names, ls.types)])
    both = _tagged(left, schema, 0, set(left_cols)).union(
        _tagged(right, schema, 1, {on}))
    left_int = {n: t.to_pandas_dtype() for n, t in zip(ls.names, ls.types)
                if pa.types.is_integer(t)}

    def keep_rows(df: pd.DataFrame) -> pd.DataFrame:
        is_left = df[_SIDE].to_numpy() == 0
        l = df.loc[is_left, left_cols].astype(left_int)
        hit = l[on].isin(df.loc[~is_left, on].unique())
        return l[hit if how == "semi" else ~hit]

    return grouped_apply(both, [on], keep_rows, num_partitions=num_partitions)
