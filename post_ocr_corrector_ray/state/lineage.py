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
written from a different input fingerprint or stage versions, or in the
retired csv data format: the rerun must reproduce the store, not splice two
runs into one.  A run with ``resume=False`` first deletes every ``part=*``
directory, for the same reason.

Lineage recorded per partition: input fileset fingerprint, row/url counts,
url-hash range, stage versions, wall-clock, and arbitrary caller metrics.

Every file the package writes goes through ``write_atomic``, and every
input is listed by ``input_files``, for its reader and its fingerprint.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__
from ..functions.hashing import partition_of_array

SUCCESS_NAME = "_SUCCESS.json"

# Version tag of the url→partition hash.  Bump whenever partition_of changes;
# round-2 moved from blake2b ("blake2b-v1", implicit/absent in old markers)
# to the vectorized polynomial hash.
PARTITION_SCHEME = "polyhash-v2"
_PART_DIR = re.compile(r"part=\d{5,}")


def check_partition_scheme(out_dir: str, *, num_partitions: int | None = None,
                           input_fingerprint: str | None = None,
                           stage_versions: dict | None = None) -> None:
    """Refuse to resume over partitions committed under a different url-hash
    scheme or partition count (the partition ids would not correspond to the
    same url sets, so a 'resume' would silently drop some urls and duplicate
    others), from a different input or stage versions, or in a
    ``data_format`` other than parquet (older stores could hold csv
    partitions, which the readers refuse).  An argument left ``None`` is not
    checked; a marker without a field predates it and is not checked against
    it."""
    current = {"partition_scheme": PARTITION_SCHEME,
               "num_partitions": num_partitions,
               "input_fingerprint": input_fingerprint,
               "stage_versions": stage_versions,
               "data_format": "parquet"}
    for rec in read_lineage(out_dir):
        rec = {"partition_scheme": "blake2b-v1", **rec}  # blake2b-era markers lack it
        for field, want in current.items():
            got = rec.get(field)
            if want is not None and got is not None and got != want:
                raise ValueError(
                    f"{out_dir} partition {rec['partition']} was committed "
                    f"with {field}={got!r} but this run uses {want!r}; "
                    f"resuming would corrupt the output. "
                    f"Use a fresh out_dir (or, for `cli run`, --no-resume).")


def write_atomic(path: str, content) -> None:
    """Write ``path`` all or nothing: ``content`` goes to a ``.tmp-*`` name in
    the same directory, then ``os.replace`` moves it into place.  It is a
    pyarrow Table (parquet), a str (UTF-8 text), a callable that writes to
    the open binary file, or else JSON.  A process killed midway leaves only
    its temp file, which no listing reads."""
    tmp = os.path.join(os.path.dirname(path),
                       f".tmp-{uuid.uuid4().hex}{os.path.splitext(path)[1]}")
    if isinstance(content, pa.Table):
        pq.write_table(content, tmp)
    elif callable(content):
        with open(tmp, "wb") as f:
            content(f)
    else:
        with open(tmp, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f, ensure_ascii=False)
    os.replace(tmp, path)


def input_files(path: str, suffix: str = ".parquet") -> list[str]:
    """The files a command reads from ``path``, sorted: for a store (a
    directory with ``part=NNNNN`` subdirectories) each committed partition's
    ``data.parquet``, refusing a committed partition without one (the store
    would read back short); for another directory its files ending in
    ``suffix``, at any depth, but no dot names; for a file, itself.  An
    empty listing is refused."""
    if not os.path.isdir(path):
        return [path]
    files = []
    if any(_PART_DIR.fullmatch(n) for n in os.listdir(path)):
        for p in sorted(committed_partitions(path)):
            files.append(os.path.join(partition_dir(path, p), "data.parquet"))
            if not os.path.exists(files[-1]):
                raise FileNotFoundError(
                    f"{path} partition {p} is committed but has no "
                    f"data.parquet (a csv-format store is no longer readable); "
                    f"rewrite it into a fresh out_dir.")
    else:
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            files += [os.path.join(root, n) for n in names
                      if n.endswith(suffix) and not n.startswith(".")]
    if not files:
        raise FileNotFoundError(f"no committed partitions or input files under {path}")
    return sorted(files)


def fingerprint_inputs(paths: list[str] | str, suffix: str = ".parquet") -> str:
    """Deterministic fingerprint of the input fileset without reading
    payloads: the (name, size) pair of every file ``input_files`` lists,
    hashed in path order.  A name is relative to its input root (every file
    of a store is a ``data.parquet``), so a file or a flat directory's file
    is named by its basename."""
    import hashlib

    named = []
    for root in [paths] if isinstance(paths, str) else paths:
        named += [(f, os.path.relpath(f, root) if os.path.isdir(root)
                   else os.path.basename(f)) for f in input_files(root, suffix)]
    h = hashlib.blake2b(digest_size=12)
    for f, name in sorted(named):
        h.update(name.encode())
        h.update(os.stat(f).st_size.to_bytes(8, "little"))
    return h.hexdigest()


def partition_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part={part_id:05d}")


def clear_partitions(out_dir: str, keep: frozenset[int] = frozenset()) -> None:
    """Delete every ``part=NNNNN`` directory under ``out_dir`` whose id is
    not in ``keep``, committed or not; other entries are left alone.  A
    ``resume=False`` run calls this first, so partitions the new run does
    not rewrite cannot survive into its store."""
    import shutil

    if not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        if _PART_DIR.fullmatch(name) and int(name[5:]) not in keep:
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


def open_store(out_dir: str, *, resume: bool, num_partitions: int,
               input_fingerprint: str, stage_versions: dict) -> frozenset[int]:
    """The resume prologue both committed sinks share: with ``resume``,
    refuse a store written under another layout, input or stage versions
    (``check_partition_scheme``) and return its committed partition ids;
    without, delete its partitions (``clear_partitions``) and return none.

    A resume also deletes every partition without a marker: a commit that
    crashed left its temp files there, or a ``data.parquet`` renamed before
    the marker.  A partition the rerun does not write (its input changed)
    would otherwise keep them."""
    if not resume:
        clear_partitions(out_dir)
        return frozenset()
    check_partition_scheme(out_dir, num_partitions=num_partitions,
                           input_fingerprint=input_fingerprint,
                           stage_versions=stage_versions)
    committed = committed_partitions(out_dir)
    clear_partitions(out_dir, keep=committed)
    return committed


def _key_partitions(batch: pa.Table, key: str, num_partitions: int) -> np.ndarray:
    # hashed as a string, so an int key routes by its decimal text
    return partition_of_array(batch.column(key).cast(pa.string()), num_partitions)


def add_partition_column(batch: pa.Table, *, num_partitions: int,
                         key: str = "url", col: str = "part") -> pa.Table:
    """Deterministic key-hash partition id — the lineage/resume unit."""
    parts = _key_partitions(batch, key, num_partitions)
    return batch.append_column(col, pa.array(parts.astype("int32"), pa.int32()))


def make_committed_filter(committed: frozenset[int], num_partitions: int,
                          key: str = "url"):
    """Batch filter dropping rows whose output partition is already
    committed — run before any expensive stage, so a resumed run skips the
    work of finished partitions; ``committed`` is a small set captured in
    the task closure."""

    def _filter(batch: pa.Table) -> pa.Table:
        if not committed:
            return batch
        parts = _key_partitions(batch, key, num_partitions)
        keep = ~np.isin(parts, np.fromiter(committed, dtype=np.int64))
        return batch.filter(pa.array(keep, pa.bool_()))

    return _filter


def commit_partition(table: pa.Table, out_dir: str, part_id: int, *,
                     input_fingerprint: str = "", stage_versions: dict | None = None,
                     metrics: dict | None = None,
                     num_partitions: int | None = None) -> dict:
    """Atomically write one partition (``data.parquet``) + its lineage
    record; returns the record."""
    pdir = partition_dir(out_dir, part_id)
    os.makedirs(pdir, exist_ok=True)
    # a commit that crashed before its rename left its temp files behind;
    # the partition's one writer sweeps them so the store matches a clean run
    for name in os.listdir(pdir):
        if name.startswith(".tmp-"):
            os.remove(os.path.join(pdir, name))
    started = time.time()
    write_atomic(os.path.join(pdir, "data.parquet"), table)
    record = {
        "partition": part_id,
        "partition_scheme": PARTITION_SCHEME,
        "num_partitions": num_partitions,
        "data_format": "parquet",
        "n_rows": table.num_rows,
        "engine_version": __version__,
        "input_fingerprint": input_fingerprint,
        "stage_versions": stage_versions or {},
        "metrics": metrics or {},
        "write_seconds": round(time.time() - started, 4),
        "committed_at_unix": round(time.time(), 3),
    }
    write_atomic(os.path.join(pdir, SUCCESS_NAME), record)
    return record


def commit_by_key(ds, out_dir: str, *, key_col: str,
                  num_partitions: int = 32, input_fingerprint: str = "",
                  options: dict | None = None):
    """Generic resumable committed sink for ANY dataset, and the writer of
    every dataset the CLI produces but ``run``'s: rows are hash-partitioned
    on ``key_col`` (the same vectorized polynomial hash the flagship uses),
    already-committed partitions are filtered out BEFORE any shuffle work,
    and each partition commits atomically with a lineage record.  Returns
    the tiny per-partition summary dataset.  It always resumes; the markers'
    ``stage_versions`` record ``key_col`` and the caller's ``options`` (what
    decides the bytes besides the input), so a rerun under another key,
    options, partition count or input is refused (``check_partition_scheme``).

    It shares the exchange and commit with the flagship
    (``_exchange_and_commit``), so the summary runs without Ray Data's
    per-operator CPU reservation: the stages before the exchange use every
    free CPU instead of a fixed share, and ``ds`` keeps its own context."""
    stage_versions = {"key_col": key_col, **(options or {})}
    keep = make_committed_filter(
        open_store(out_dir, resume=True, num_partitions=num_partitions,
                   input_fingerprint=input_fingerprint,
                   stage_versions=stage_versions),
        num_partitions, key_col)

    def add_part(batch: pa.Table) -> pa.Table:
        return add_partition_column(keep(batch), num_partitions=num_partitions,
                                    key=key_col, col="_part")

    return _exchange_and_commit(ds.map_batches(add_part, batch_format="pyarrow"),
                                out_dir, part_col="_part",
                                input_fingerprint=input_fingerprint,
                                stage_versions=stage_versions,
                                num_partitions=num_partitions)


def commit_empty(schema, out_dir: str, *, key_col: str, num_partitions: int = 32,
                 input_fingerprint: str = "", options: dict | None = None) -> dict:
    """``commit_by_key``'s store of an output without rows: partition 0,
    empty, with ``schema``, so it reads back typed and a rerun resumes.  A
    plan that read no block has no schema: its partition has no columns."""
    cols = list(zip(schema.names, schema.types)) if schema is not None else []
    return commit_partition(pa.schema(cols).empty_table(), out_dir, 0,
                            input_fingerprint=input_fingerprint,
                            stage_versions={"key_col": key_col, **(options or {})},
                            num_partitions=num_partitions)


def _exchange_and_commit(ds, out_dir: str, *, part_col: str,
                         input_fingerprint: str, stage_versions: dict,
                         num_partitions: int, metrics=None):
    """The tail both committed sinks share (``commit_by_key`` and
    ``pipelines.extract_correct``): the url-hash exchange on ``part_col``
    (``groupby`` + ``map_groups``), then one atomic ``commit_partition`` per
    partition, without ``part_col``.  ``metrics(body)``, if given, returns
    the marker's caller metrics.  Returns the summary dataset (``part``,
    ``n_rows``).

    The summary runs on a private copy of its ``DataContext`` with
    ``op_resource_reservation_enabled = False``.  With reservation on, Ray
    Data 2.49's ``ReservationOpResourceAllocator`` reserves CPUs for the
    exchange's sort and for the commit for the whole job, though neither can
    run until every upstream row has arrived; on 3 logical CPUs the fused
    read→extract operator was left 1.17 CPUs, so its tasks ran one at a
    time.  Without it, every stage before the exchange gets the CPUs that are
    free.  Little is lost: the allocator already lifts object-store
    backpressure for an operator that feeds a materializing one, so before
    an exchange reservation only splits CPUs.  The one budget that goes is
    the neural path's read→actor memory budget, and that stage carries
    extracted text only: ``html`` is dropped inside the same fused operator.
    The copy is taken of the summary dataset alone, so neither the caller's
    input dataset (derived datasets share one context object) nor the
    process-global context changes.  Rows keep their input order within a
    partition: Ray runs a plan that sorts with ``preserve_order``."""
    import ray.data

    def _commit(group: pa.Table) -> pa.Table:
        part_id = int(group.column(part_col)[0].as_py())
        # without schema metadata: a pandas stage's (``feed``) is taken from
        # whichever block a conversion saw, so it varies with the layout
        body = group.drop_columns([part_col]).replace_schema_metadata()
        rec = commit_partition(body, out_dir, part_id,
                               input_fingerprint=input_fingerprint,
                               stage_versions=stage_versions,
                               num_partitions=num_partitions,
                               metrics=metrics(body) if metrics else None)
        return pa.Table.from_pylist([{"part": part_id, "n_rows": rec["n_rows"]}])

    summary = ds.groupby(part_col).map_groups(_commit, batch_format="pyarrow")
    summary = ray.data.Dataset.copy(summary, _deep_copy=True)
    summary.context.op_resource_reservation_enabled = False
    return summary


def read_lineage(out_dir: str) -> list[dict]:
    out = []
    for part_id in sorted(committed_partitions(out_dir)):
        with open(os.path.join(partition_dir(out_dir, part_id), SUCCESS_NAME),
                  encoding="utf-8") as f:
            out.append(json.load(f))
    return out


def read_output(out_dir: str) -> pa.Table:
    """Concatenate the files ``input_files`` lists for ``out_dir``: a
    store's committed partitions, in partition order."""
    return pa.concat_tables([pq.read_table(p) for p in input_files(out_dir)])
