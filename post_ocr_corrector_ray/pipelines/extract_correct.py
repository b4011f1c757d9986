"""Flagship pipeline: pages → extract → correct → partitioned committed output.

Stage graph (all lazy, streaming with backpressure)::

    read_parquet(pages)                        # column-pruned scan
      → filter committed partitions            # resume: cheap, before any work
      → map_batches(extract_batch)             # stateless tasks; drops `html`
      → map_batches(CorrectorStage, ...)       # actor pool, state per actor
      → map_batches(add_partition_column)
      → groupby("part").map_groups(commit)     # the ONE shuffle: url-hash exchange
                                               # → atomic per-partition commit

Skew note (SURVEY.md §7.4.4): correction cost scales superlinearly with
document length.  The actor pool pulls small batches dynamically, so giant
documents delay only their own batch; ``correct_batch_size`` should stay small
(16-64 docs) so a straggler batch holds few innocent rows.  At 100 TB the same
graph holds: the only all-to-all exchange is the final url-hash partitioning,
sized by ``num_partitions``, and it moves extracted text (small), never raw
HTML (projected away at extraction).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from typing import Literal

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.correct import (
    DictionaryCorrectorStage,
    NeuralCorrectorStage,
    NullCorrectorStage,
    OUT_COL,
    TEXT_COL,
)
from ..stages.extract import add_partition_column, extract_batch, make_committed_filter
from ..state import lineage as lin

CorrectorKind = Literal["null", "neural", "dictionary"]


def read_pages(sf_path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Column-pruned parquet scan of a pages table."""
    return ray.data.read_parquet(sf_path, columns=columns)


def extract_pipeline(pages: ray.data.Dataset) -> ray.data.Dataset:
    return pages.map_batches(extract_batch, batch_format="pyarrow")


def correct_stage(ds: ray.data.Dataset, *, corrector: CorrectorKind,
                  alphabet: str | None = None, model_path: str | None = None,
                  seed: int = 42, hparams: dict | None = None,
                  vocab_ref=None, min_frequency: int = 2,
                  concurrency: int | tuple[int, int] = 4,
                  batch_size: int = 32, num_cpus: float = 1,
                  num_gpus: float | None = None,
                  resources: dict | None = None) -> ray.data.Dataset:
    """Corrector actor-pool stage.

    ``num_gpus`` / ``resources`` pass straight to ``map_batches`` so the
    neural corrector deploys as the north-star "GPU-sized micro-batches"
    shape (reference eval.py:25-33 runs the model on whatever device torch
    finds; here the resource request is explicit per stage).  ``batch_size``
    is the micro-batch: size it to the device memory, not the block."""
    pool_kwargs: dict = dict(num_cpus=num_cpus)
    if num_gpus is not None:
        pool_kwargs["num_gpus"] = num_gpus
    if resources is not None:
        pool_kwargs["resources"] = resources
    if corrector == "null":
        # stateless identity — plain task stage, no actor pool needed
        return ds.map_batches(NullCorrectorStage(), batch_format="pyarrow")
    if corrector == "neural":
        assert alphabet is not None
        return ds.map_batches(
            NeuralCorrectorStage,
            fn_constructor_kwargs=dict(alphabet=alphabet, model_path=model_path,
                                       seed=seed, hparams=hparams),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, **pool_kwargs,
        )
    if corrector == "dictionary":
        return ds.map_batches(
            DictionaryCorrectorStage,
            fn_constructor_kwargs=dict(vocab_ref=vocab_ref, min_frequency=min_frequency),
            batch_format="pyarrow", batch_size=max(batch_size, 128),
            concurrency=concurrency, **pool_kwargs,
        )
    raise ValueError(f"unknown corrector: {corrector}")


def model_fingerprint(corrector: CorrectorKind, **correct_kwargs) -> str:
    """Identity of the model that ``correct_stage(corrector=..., **correct_kwargs)``
    runs, for the resume check: 16 hex digits of a sha256 over what decides
    the output bytes.

    - neural from a seed: the alphabet, the seed and the sorted hparams (the
      model itself is not built here);
    - neural from ``model_path``: the alphabet and every npz array's name,
      dtype, shape and bytes (the contents, not the zip container);
    - dictionary: ``min_frequency`` and the sorted vocabulary.
    """
    # bound through correct_stage's signature, so its defaults (seed,
    # min_frequency) are the ones hashed
    args = inspect.signature(correct_stage).bind(None, corrector=corrector, **correct_kwargs)
    args.apply_defaults()
    a = args.arguments
    h = hashlib.sha256()
    if corrector == "neural" and a["model_path"] is not None:
        h.update(json.dumps(a["alphabet"]).encode())
        with np.load(a["model_path"]) as npz:
            for name in sorted(npz.files):
                arr = np.ascontiguousarray(npz[name])
                h.update(json.dumps([name, arr.dtype.str, arr.shape]).encode())
                h.update(arr.tobytes())
    elif corrector == "neural":
        h.update(json.dumps([a["alphabet"], a["seed"],
                             sorted((a["hparams"] or {}).items())]).encode())
    elif corrector == "dictionary":
        vocab = a["vocab_ref"]
        if isinstance(vocab, ray.ObjectRef):
            vocab = ray.get(vocab)
        h.update(json.dumps([a["min_frequency"], sorted((vocab or {}).items())]).encode())
    else:
        raise ValueError(f"unknown corrector: {corrector}")
    return h.hexdigest()[:16]


def extract_correct(pages: ray.data.Dataset, *, corrector: CorrectorKind = "null",
                    out_dir: str | None = None, num_partitions: int = 32,
                    resume: bool = True, input_fingerprint: str = "",
                    data_format: str = "parquet",
                    **correct_kwargs) -> ray.data.Dataset:
    """Full pipeline.  With ``out_dir`` set, executes and commits partitioned
    output (returns the tiny per-partition summary dataset); without, returns
    the lazy corrected dataset for the caller to consume.  The committed
    ``stage_versions`` name the model (``model_fingerprint``), so a resume
    under other weights, hparams, seed, alphabet or vocabulary is refused.
    ``resume=False`` deletes the store's partitions before the run."""
    ds = pages
    stage_versions = {"extract": "1", "correct": f"{corrector}/1"}
    if out_dir is not None and corrector != "null":
        stage_versions["correct"] += "/" + model_fingerprint(corrector, **correct_kwargs)
    committed: frozenset[int] = frozenset()
    if out_dir is not None and resume:
        lin.check_partition_scheme(out_dir, num_partitions=num_partitions,
                                   input_fingerprint=input_fingerprint,
                                   stage_versions=stage_versions,
                                   data_format=data_format)
        committed = lin.committed_partitions(out_dir)
        if committed:
            ds = ds.map_batches(make_committed_filter(committed, num_partitions),
                                batch_format="pyarrow")
    elif out_dir is not None:
        lin.clear_partitions(out_dir)
    ds = extract_pipeline(ds)
    ds = correct_stage(ds, corrector=corrector, **correct_kwargs)
    if out_dir is None:
        return ds
    ds = ds.map_batches(add_partition_column, batch_format="pyarrow",
                        fn_kwargs=dict(num_partitions=num_partitions))

    def _commit(group: pa.Table) -> pa.Table:
        part_id = int(group.column("part")[0].as_py())
        t0 = time.time()
        body = group.drop_columns(["part"])
        # code-point lengths, like Python's len; a null output counts as empty
        out_len = pc.fill_null(pc.utf8_length(body.column(OUT_COL)), 0)
        rec = lin.commit_partition(
            body, out_dir, part_id, data_format=data_format,
            input_fingerprint=input_fingerprint, stage_versions=stage_versions,
            num_partitions=num_partitions,
            metrics={"n_empty_outputs": pc.sum(pc.equal(out_len, 0)).as_py(),
                     "total_out_chars": pc.sum(out_len).as_py(),
                     "commit_seconds": round(time.time() - t0, 4)},
        )
        return pa.Table.from_pylist([{"part": part_id, "n_rows": rec["n_rows"]}])

    return ds.groupby("part").map_groups(_commit, batch_format="pyarrow")


__all__ = ["read_pages", "extract_pipeline", "correct_stage", "extract_correct",
           "TEXT_COL", "OUT_COL"]
