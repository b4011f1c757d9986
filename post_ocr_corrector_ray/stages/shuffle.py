"""High-cardinality grouped operations via coarse hash partitioning.

Ray Data's ``groupby().aggregate()`` / ``map_groups()`` pays per-GROUP
overhead, about 0.1 ms.  Measured with Ray 2.49.2 on 4 CPUs, 120k rows in
38,002 groups, ``.count()`` as the sink: ``groupby("token").sum("frequency")``
takes 4.5–4.8 s with the sort shuffle and with the hash shuffle, and
``grouped_agg`` 0.61–0.62 s.  Fine for low-cardinality keys (languages,
statuses), costly for web-scale keys (tokens, content hashes, url buckets,
candidate pairs).

The pattern here keeps the number of Ray-level groups FIXED at the
exchange width regardless of key cardinality: a deterministic row hash of
the key columns assigns each row to one of P coarse partitions, Ray groups by
that single small-int key (P groups → P Python calls), and the real per-key
work happens INSIDE each partition with vectorized pandas.  All-key-equal rows
land in the same partition, so any per-key computation is exact.

Row hashing uses ``pd.util.hash_pandas_object`` (fixed default hash key —
deterministic across processes and machines, unlike builtin ``hash``).

``grouped_apply`` is the package's one keyed exchange for derived data: the
token counts (pipelines/corpus.py, through ``grouped_agg``) and the training
feed's collation (pipelines/training.py) run on it; the feed's shuffle is
Ray's own ``sort``.  The only other Ray-level ``groupby().map_groups()`` is
the store commit (state/lineage.py), whose polyhash partition id is the
resume contract.
Exchange width has one owner, ``partitions_for`` (the cluster's CPUs); no
caller passes one.
"""

from __future__ import annotations

import logging
import re
from typing import Callable

import numpy as np
import pandas as pd
import ray.data

_NO_SESSION_PARTITIONS = 64   # a plan built before any Ray session exists


def partitions_for() -> int:
    """The exchange width of derived data — the one place it is decided,
    from what the runtime observes: ~2 coarse partitions per cluster CPU
    (equal to a fixed 64 on a 32-CPU box), at least 8 and at most 256.
    ``grouped_apply`` calls it.  Exactness never depends on it (all-key-equal
    rows land together at any width — pinned by
    tests/test_layout_invariance.py::TestExchangeWidthInvariance)."""
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
            return max(8, min(2 * cpus, 256))
    except Exception:
        pass
    return _NO_SESSION_PARTITIONS


class _EmptySchemaDivergenceFilter(logging.Filter):
    """Drop the streaming executor's schema-divergence warning ONLY when the
    *new* schema is empty.

    Ray's ``map_groups`` yields nothing for the empty blocks a tiny sorted
    exchange produces, so the executor sees a schema-less RefBundle and warns
    (`streaming_executor_state.py` exempts an empty OLD schema but not an
    empty NEW one; the new schema prints as ``PandasBlockSchema(names=[],
    types=[])``, ``None`` or nothing).  Every grouped UDF in this package returns typed empty
    frames; the remaining noise is Ray-internal and key-partition-count
    dependent, so it is filtered at the logger.  Real drift — two NON-empty
    schemas disagreeing — still warns.
    """

    _EMPTY_NEW = re.compile(
        r"new schema: (PandasBlockSchema\(names=\[\], types=\[\]\)|None)?\.")

    def filter(self, record: logging.LogRecord) -> bool:
        msg = record.getMessage()
        if "produced a RefBundle with a different schema" not in msg:
            return True
        return self._EMPTY_NEW.search(msg) is None


class _EmptyBlockSizeEstimateFilter(logging.Filter):
    """Drop pandas_block's size-estimation warning for ZERO-LENGTH object
    columns only.

    Ray's ``PandasBlockAccessor.size_bytes`` estimates object-column width
    with ``np.vectorize``, which raises on size-0 input — so every empty
    string-typed block a sparse exchange produces (most key partitions of
    a small input are empty) logs a spurious warning.  Genuine estimation
    failures on non-empty columns still warn.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        msg = record.getMessage()
        return not ("Error calculating size for column" in msg
                    and "size 0 inputs" in msg)


def _install_empty_schema_filter() -> None:
    lg = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    if not any(isinstance(f, _EmptySchemaDivergenceFilter) for f in lg.filters):
        lg.addFilter(_EmptySchemaDivergenceFilter())
    pb = logging.getLogger("ray.data._internal.pandas_block")
    if not any(isinstance(f, _EmptyBlockSizeEstimateFilter) for f in pb.filters):
        pb.addFilter(_EmptyBlockSizeEstimateFilter())


_install_empty_schema_filter()


def grouped_apply(ds: ray.data.Dataset, key_cols: list[str],
                  fn: Callable[[pd.DataFrame], pd.DataFrame]) -> ray.data.Dataset:
    """Apply ``fn`` (vectorized pandas, sees every row of each key it
    receives) once per coarse partition.  ``fn`` must itself group by
    ``key_cols`` internally; it is called with all rows whose key hashes into
    one partition.  The width is ``partitions_for()``."""
    num_partitions = partitions_for()

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
        return df.assign(_kp=(h % np.uint64(num_partitions)).astype(np.int64))

    def run(df: pd.DataFrame) -> pd.DataFrame:
        # closures are cloudpickled by value, so WORKER processes never
        # import this module — install the log filters here (idempotent) or
        # empty partitions spam the worker log via pandas_block size
        # estimation
        _install_empty_schema_filter()
        return fn(df.drop(columns=["_kp"]))

    return ds.map_batches(bucketize, batch_format="pandas") \
        .groupby("_kp").map_groups(run, batch_format="pandas")


def grouped_agg(ds: ray.data.Dataset, key_cols: list[str],
                agg_spec: dict[str, tuple[str, str]]) -> ray.data.Dataset:
    """Exact high-cardinality groupby-aggregate.

    ``agg_spec``: output_col → (input_col, pandas agg name), e.g.
    ``{"frequency": ("frequency", "sum")}``.  Combine-safe aggs only
    (sum/min/max/count — callers pre-aggregate per batch first, making the
    shuffle move partials, not raw rows).
    """

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_cols, as_index=False, sort=True).agg(
            **{out: (src, how) for out, (src, how) in agg_spec.items()})
        return g

    return grouped_apply(ds, key_cols, agg)
