"""Per-partition atomic commits with lineage records (the resume unit).

Output layout (north_rule: "resumable from checkpoint with per-partition
lineage + metrics")::

    out_dir/
      part=00007/
        data.parquet       # the partition's rows (atomic: written to tmp, renamed)
        _SUCCESS.json      # commit marker + lineage + metrics (written LAST)

A partition is committed iff its ``_SUCCESS.json`` exists.  Partition
assignment is ``polyhash_u64(url) % num_partitions`` (functions/hashing.py —
vectorized polynomial hash) — a pure function of row content, so a resumed
run (any cluster size, any block layout) reproduces the identical partition
sets and can skip committed ones before doing any expensive work.  There is
no central manifest to corrupt: the marker files ARE the manifest, and the
tmp→rename protocol makes each commit atomic on POSIX.

The hash function IS the resume contract: every marker records
``partition_scheme`` and ``num_partitions``, and resume refuses (loudly) to
mix schemes or partition counts — a store written under a different layout
would otherwise silently drop/duplicate rows.  Resume also refuses a marker
written from a different input fingerprint, stage versions or data format:
the rerun must reproduce the store, not splice two runs into one.  A run with
``resume=False`` first deletes every ``part=*`` directory, for the same
reason.

Lineage recorded per partition: input fileset fingerprint, row/url counts,
url-hash range, stage versions, wall-clock, and arbitrary caller metrics.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__

SUCCESS_NAME = "_SUCCESS.json"

# Version tag of the url→partition hash.  Bump whenever partition_of changes;
# round-2 moved from blake2b ("blake2b-v1", implicit/absent in old markers)
# to the vectorized polynomial hash.
PARTITION_SCHEME = "polyhash-v2"


def check_partition_scheme(out_dir: str, *, num_partitions: int | None = None,
                           input_fingerprint: str | None = None,
                           stage_versions: dict | None = None,
                           data_format: str | None = None) -> None:
    """Refuse to resume over partitions committed under a different url-hash
    scheme or partition count (the partition ids would not correspond to the
    same url sets, so a 'resume' would silently drop some urls and duplicate
    others), from a different input or stage versions, or in another
    ``data_format`` (a store mixing parquet and csv partitions reads back
    neither whole).  An argument left ``None`` is not checked; a marker
    without a field predates it and is not checked against it."""
    current = {"partition_scheme": PARTITION_SCHEME,
               "num_partitions": num_partitions,
               "input_fingerprint": input_fingerprint,
               "stage_versions": stage_versions,
               "data_format": data_format}
    for rec in read_lineage(out_dir):
        rec = {"partition_scheme": "blake2b-v1", **rec}  # blake2b-era markers lack it
        for field, want in current.items():
            got = rec.get(field)
            if want is not None and got is not None and got != want:
                raise ValueError(
                    f"{out_dir} partition {rec['partition']} was committed "
                    f"with {field}={got!r} but this run uses {want!r}; "
                    f"resuming would corrupt the output. "
                    f"Re-run with resume=False (or a fresh out_dir).")


def fingerprint_inputs(paths: list[str] | str) -> str:
    """Deterministic fingerprint of the input fileset: sorted
    (basename, size) pairs hashed — identifies WHAT was processed without
    reading payloads, so a resumed run can detect input drift cheaply.
    Accepts file paths, directories (their parquet files), or glob results."""
    import glob as _glob
    import hashlib

    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(_glob.glob(os.path.join(p, "*.parquet"))))
        else:
            files.append(p)
    h = hashlib.blake2b(digest_size=12)
    for f in sorted(files):
        st = os.stat(f)
        h.update(os.path.basename(f).encode())
        h.update(st.st_size.to_bytes(8, "little"))
    return h.hexdigest()


def partition_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part={part_id:05d}")


def clear_partitions(out_dir: str) -> None:
    """Delete every ``part=NNNNN`` directory under ``out_dir``, committed or
    not; other entries are left alone.  A ``resume=False`` run calls this
    first, so partitions the new run does not rewrite cannot survive into
    its store."""
    import re
    import shutil

    if not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        if re.fullmatch(r"part=\d{5,}", name):
            shutil.rmtree(os.path.join(out_dir, name))


def committed_partitions(out_dir: str) -> frozenset[int]:
    """Scan the output dir for committed partition ids (driver-side, cheap)."""
    if not os.path.isdir(out_dir):
        return frozenset()
    out = set()
    for name in os.listdir(out_dir):
        if name.startswith("part=") and os.path.exists(os.path.join(out_dir, name, SUCCESS_NAME)):
            out.add(int(name.split("=", 1)[1]))
    return frozenset(out)


def commit_partition(table: pa.Table, out_dir: str, part_id: int, *,
                     input_fingerprint: str = "", stage_versions: dict | None = None,
                     metrics: dict | None = None,
                     data_format: str = "parquet",
                     num_partitions: int | None = None) -> dict:
    """Atomically write one partition + its lineage record; returns the record.

    ``data_format="csv"`` mirrors the reference eval sink (eval.py:39-42
    appends CSV rows); parquet is the engine default.  Same tmp→rename
    protocol, same ``_SUCCESS.json`` marker either way."""
    pdir = partition_dir(out_dir, part_id)
    os.makedirs(pdir, exist_ok=True)
    started = time.time()
    tmp = os.path.join(pdir, f".tmp-{uuid.uuid4().hex}.{data_format}")
    if data_format == "parquet":
        pq.write_table(table, tmp)
    elif data_format == "csv":
        from pyarrow import csv as pacsv

        pacsv.write_csv(table, tmp)
    else:
        raise ValueError(f"unknown data_format: {data_format}")
    os.replace(tmp, os.path.join(pdir, f"data.{data_format}"))
    record = {
        "partition": part_id,
        "partition_scheme": PARTITION_SCHEME,
        "num_partitions": num_partitions,
        "data_format": data_format,
        "n_rows": table.num_rows,
        "engine_version": __version__,
        "input_fingerprint": input_fingerprint,
        "stage_versions": stage_versions or {},
        "metrics": metrics or {},
        "write_seconds": round(time.time() - started, 4),
        "committed_at_unix": round(time.time(), 3),
    }
    tmp_marker = os.path.join(pdir, f".tmp-{uuid.uuid4().hex}.json")
    with open(tmp_marker, "w", encoding="utf-8") as f:
        json.dump(record, f, ensure_ascii=False)
    os.replace(tmp_marker, os.path.join(pdir, SUCCESS_NAME))
    return record


def commit_by_key(ds, out_dir: str, *, key_col: str,
                  num_partitions: int = 32, resume: bool = True,
                  input_fingerprint: str = "", data_format: str = "parquet",
                  stage_versions: dict | None = None):
    """Generic resumable committed sink for ANY dataset: rows are
    hash-partitioned on ``key_col`` (the same vectorized polynomial hash the
    flagship uses), already-committed partitions are filtered out BEFORE any
    shuffle work, and each partition commits atomically with a lineage
    record.  Returns the tiny per-partition summary dataset.

    This is the flagship's commit protocol lifted to a standalone operator so
    every pipeline output (dedup tables, stats, training feeds) can be a
    resumable partitioned store rather than one giant file."""
    import numpy as np
    import pyarrow as pa

    from ..functions.hashing import partition_of_array

    stage_versions = stage_versions or {}
    committed: frozenset[int] = frozenset()
    if resume:
        check_partition_scheme(out_dir, num_partitions=num_partitions,
                               input_fingerprint=input_fingerprint,
                               stage_versions=stage_versions,
                               data_format=data_format)
        committed = committed_partitions(out_dir)
    else:
        clear_partitions(out_dir)

    def add_part(batch: pa.Table) -> pa.Table:
        parts = partition_of_array(batch.column(key_col).cast(pa.string()),
                                   num_partitions)
        batch = batch.append_column("_part", pa.array(parts, pa.int64()))
        if committed:
            keep = ~np.isin(parts, np.fromiter(committed, dtype=np.int64))
            batch = batch.filter(pa.array(keep, pa.bool_()))
        return batch

    def _commit(group: pa.Table) -> pa.Table:
        part_id = int(group.column("_part")[0].as_py())
        rec = commit_partition(group.drop_columns(["_part"]), out_dir, part_id,
                               input_fingerprint=input_fingerprint,
                               stage_versions=stage_versions,
                               data_format=data_format,
                               num_partitions=num_partitions)
        return pa.Table.from_pylist([{"part": part_id, "n_rows": rec["n_rows"]}])

    return ds.map_batches(add_part, batch_format="pyarrow") \
        .groupby("_part").map_groups(_commit, batch_format="pyarrow")


def read_lineage(out_dir: str) -> list[dict]:
    out = []
    for part_id in sorted(committed_partitions(out_dir)):
        with open(os.path.join(partition_dir(out_dir, part_id), SUCCESS_NAME),
                  encoding="utf-8") as f:
            out.append(json.load(f))
    return out


def read_output(out_dir: str) -> pa.Table:
    """Concatenate committed partitions (test/driver-side convenience)."""
    tables = []
    for p in sorted(committed_partitions(out_dir)):
        pdir = partition_dir(out_dir, p)
        if os.path.exists(os.path.join(pdir, "data.parquet")):
            tables.append(pq.read_table(os.path.join(pdir, "data.parquet")))
        else:
            from pyarrow import csv as pacsv

            tables.append(pacsv.read_csv(os.path.join(pdir, "data.csv")))
    if not tables:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    return pa.concat_tables(tables)


def read_output_ds(out_dir: str):
    """Committed partitions as a streaming Dataset (parquet-format stores) —
    the scale-safe twin of ``read_output``: partitions are read lazily by Ray
    tasks, never concatenated on the driver.  Same columns as
    ``read_output``: the ``part=NNNNN`` directory names are not parsed into
    a hive partition column."""
    import ray.data

    paths = []
    for p in sorted(committed_partitions(out_dir)):
        fp = os.path.join(partition_dir(out_dir, p), "data.parquet")
        if os.path.exists(fp):
            paths.append(fp)
    if not paths:
        raise FileNotFoundError(f"no committed parquet partitions under {out_dir}")
    return ray.data.read_parquet(paths, partitioning=None)
