"""Two-sided co-partitioned equality join of two fact tables.

The join is expressed as ONE co-partitioning shuffle: tag each side,
harmonize the two schemas (null-pad the other side's columns), ``union`` the
datasets, coarse-hash-partition on the equality key (stages/shuffle.py — a
fixed number of Ray groups regardless of key cardinality), and run the
vectorized merge inside each partition.

Partitioning assumption (document per the engine contract): every row of one
equality key lands in exactly one partition — guaranteed by the deterministic
key hash — so the per-partition merge is exact.  A pathologically hot key
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


def _pad_to(schema: pa.Schema, side: int, renames: dict[str, str] | None = None):
    """Batch fn: project/null-pad an input batch onto the harmonized union
    schema (applying ``renames`` source→target in place — NOT
    ``rename_columns``/``select_columns``: Ray's Project operator cannot run
    over the pandas blocks that grouped map_groups stages emit, so joins of
    join/aggregate outputs would die; a plain batch projection handles any
    block type) and stamp the side tag."""
    rev = {v: k for k, v in (renames or {}).items()}  # target → source

    def pad(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for f in schema:
            src = rev.get(f.name, f.name)
            if f.name == _SIDE:
                cols[f.name] = pa.array(np.full(n, side, dtype=np.int8), pa.int8())
            elif src in batch.column_names:
                cols[f.name] = batch.column(src).cast(f.type)
            else:
                cols[f.name] = pa.nulls(n, f.type)
        return pa.table(cols)

    return pad


def _renamed_schema(ds: ray.data.Dataset, renames: dict[str, str]) -> pa.Schema:
    """Schema of ``ds`` with ``renames`` applied — computed from metadata, no
    Project operator in the plan."""
    s = ds.schema()
    return pa.schema([pa.field(renames.get(n, n), t)
                      for n, t in zip(s.names, s.types)])


def _as_arrow(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Ensure ``ds`` reports a pyarrow schema.

    A dataset coming out of a pandas ``map_groups`` (e.g. a previous
    hash_join or grouped_apply) carries a PandasBlockSchema whose types are
    numpy dtypes / ``object`` — the harmonization below needs pyarrow types.
    The identity conversion costs nothing extra: pandas blocks pay the
    to-arrow conversion at the pad stage anyway, and Ray fuses the map."""
    s = ds.schema()
    if s is None or all(isinstance(t, pa.DataType) for t in (s.types or [])):
        return ds
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


def _union_tagged(left: ray.data.Dataset, right: ray.data.Dataset,
                  right_renames: dict[str, str],
                  right_keep: list[str] | None = None
                  ) -> tuple[ray.data.Dataset, list[str], list[str]]:
    """Harmonize schemas (with the right side's columns renamed, and
    optionally restricted to ``right_keep``) and union the two tagged
    datasets.  Returns (union_ds, left_cols, right_cols)."""
    left, right = _as_arrow(left), _as_arrow(right)
    ls = left.schema()
    rs = _renamed_schema(right, right_renames)
    if right_keep is not None:
        rs = pa.schema([pa.field(n, rs.types[rs.names.index(n)])
                        for n in right_keep])
    left_cols = list(ls.names)
    right_cols = [c for c in rs.names if c not in left_cols]
    # integer columns unique to one side are null on the other side's rows;
    # pandas blocks would then flip int64/float64 per block (mixed-schema
    # RefBundle warnings + dtype drift), so pin them float64 in the union —
    # consumers restore the int dtype after the merge (exact below 2**53)
    shared = set(ls.names) & set(rs.names)

    def _utype(name: str, t: pa.DataType) -> pa.DataType:
        return pa.float64() if (name not in shared
                                and pa.types.is_integer(t)) else t

    fields = [pa.field(_SIDE, pa.int8())]
    fields += [pa.field(n, _utype(n, t)) for n, t in zip(ls.names, ls.types)]
    fields += [pa.field(n, _utype(n, rs.types[rs.names.index(n)]))
               for n in right_cols]
    schema = pa.schema(fields)
    tagged_l = left.map_batches(_pad_to(schema, 0), batch_format="pyarrow")
    tagged_r = right.map_batches(_pad_to(schema, 1, right_renames),
                                 batch_format="pyarrow")
    return tagged_l.union(tagged_r), left_cols, right_cols


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
              on: str, right_on: str | None = None,
              how: str = "inner",
              num_partitions: int = DEFAULT_PARTITIONS) -> ray.data.Dataset:
    """Co-partitioned equality join of two fact tables ("inner", "semi",
    "anti") — the shuffle join for when NEITHER side fits a broadcast
    (dimension-sized sides should keep using a `ray.put` broadcast lookup,
    like the broadcast dictionary corrector; this operator moves BOTH inputs
    through the exchange).

    Tag sides, harmonize schemas, union, ONE coarse hash-partitioning shuffle
    on the key, vectorized pandas merge per partition.  "semi"/"anti" return left rows (filtered); "inner",
    "left", "right" and "full" return left+right columns (outer variants
    null-pad unmatched rows and keep the padded side's integer columns
    float64 — coalesce + cast downstream); non-key column names must not
    collide.  Constraint: non-key integer payload columns travel as float64
    through the tagged union, so values must fit 53 bits — full-range hash
    columns fail LOUDLY at the pad cast (store hashes as binary, or filter
    via a broadcast ``pc.is_in`` instead of a join).
    """
    if how not in ("inner", "left", "right", "full", "semi", "anti"):
        raise ValueError(f"hash_join: unsupported how={how!r}")
    # a fully-empty upstream (e.g. a grouped aggregate over zero rows) has no
    # schema at all — or an empty zero-column block schema; resolve such joins
    # without an exchange.  A NON-empty schema that lacks the key column is a
    # caller error (typo'd/renamed key) and must raise, never silently return
    # the whole left side.
    left, right = _as_arrow(left), _as_arrow(right)
    ls_raw, rs_raw = left.schema(), right.schema()
    if ls_raw is None or not ls_raw.names:
        if how in ("right", "full") and rs_raw is not None and rs_raw.names:
            # all-right-rows result; only the key rename can be applied (there
            # is no left schema to pad)
            key_src, key_dst = right_on or on, on

            def _rekey(batch: pa.Table) -> pa.Table:
                return batch.rename_columns(
                    [key_dst if n == key_src else n for n in batch.column_names])

            return right.map_batches(_rekey, batch_format="pyarrow")
        return left
    if on not in ls_raw.names:
        raise ValueError(f"hash_join: key {on!r} not in left schema "
                         f"{list(ls_raw.names)}")
    if rs_raw is None or not rs_raw.names:
        # degenerate empty right side: anti/left/full keep every left row (the
        # right columns are omitted — there is no schema to pad)
        return left if how in ("anti", "left", "full") else left.limit(0)
    if (right_on or on) not in rs_raw.names:
        raise ValueError(f"hash_join: key {right_on or on!r} not in right "
                         f"schema {list(rs_raw.names)}")
    renames = {right_on or on: on}
    right_keep = None
    if how in ("semi", "anti"):
        # existence checks only need the key — drop right payload before the
        # exchange (less shuffle traffic, and collisions become impossible);
        # restriction happens inside the pad stage, not via select_columns
        right_keep = [on]
    else:
        clash = (set(left.schema().names)
                 & {renames.get(n, n) for n in right.schema().names}) - {on}
        if clash:
            # a shared name would silently fuse both sides into one column in
            # the harmonized union — refuse instead
            raise ValueError(f"hash_join: column name collision {sorted(clash)}; "
                             f"rename before joining")
    both, left_cols, right_cols = _union_tagged(left, right, renames,
                                                right_keep=right_keep)
    left_int = {n: t.to_pandas_dtype() for n, t in
                zip(left.schema().names, left.schema().types)
                if pa.types.is_integer(t)}
    right_int = {}
    rs = _renamed_schema(right, renames)
    for n, t in zip(rs.names, rs.types):
        if n in right_cols and pa.types.is_integer(t):
            right_int[n] = t.to_pandas_dtype()
    if how in ("left", "full"):
        # unmatched left rows null-pad the right columns, so right ints must
        # STAY float64 (the union already promoted them) or block dtypes
        # would flip int/float per partition; callers coalesce + re-cast
        right_int = {}
    if how in ("right", "full"):
        # symmetric: unmatched right rows null-pad the left columns — but the
        # key itself is filled from whichever side matched, so it keeps its
        # exact dtype
        left_int = {k: v for k, v in left_int.items() if k == on}

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df[_SIDE] == 0][left_cols].astype(left_int)
        r = df[df[_SIDE] == 1][[on] + right_cols].astype(right_int)
        if how in ("inner", "left", "right"):
            return l.merge(r, on=on, how=how)
        if how == "full":
            return l.merge(r, on=on, how="outer")
        keep = l[on].isin(r[on].unique())
        return l[keep if how == "semi" else ~keep]

    return grouped_apply(both, [on], merge, num_partitions=num_partitions)
