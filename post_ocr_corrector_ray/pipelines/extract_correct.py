"""Flagship pipeline: pages → extract → correct → partitioned committed output.

Stage graph (all lazy, streaming with backpressure)::

    read_parquet(pages)                        # column-pruned scan
      → filter committed partitions            # resume: cheap, before any work
      → map_batches(extract_batch)             # drops `html`
      → map_batches(CorrectorStage, ...)       # actor pool, state per actor
      → map_batches(add_partition_column)
      → groupby("part").map_groups(commit)     # the ONE shuffle: url-hash exchange
                                               # → atomic per-partition commit

Ray Data 2.49 fuses ``extract_batch`` into the stage after it.  With an actor
corrector the plan runs
``ActorPoolMapOperator[MapBatches(extract_batch)->MapBatches(NeuralCorrectorStage)]``
(likewise ``DictionaryCorrectorStage``): extraction runs inside the corrector
actors, at the corrector's ``batch_size`` and ``concurrency``, not as
stateless tasks on every free CPU.  The null corrector is a task stage, so
read, extraction and the identity fuse into one task operator.

Skew note (SURVEY.md §7.4.4): correction cost scales superlinearly with
document length.  The actor pool pulls small batches dynamically, so giant
documents delay only their own batch; ``batch_size`` should stay small
(16-64 docs) so a straggler batch holds few innocent rows.  At 100 TB the same
graph holds: the only all-to-all exchange is the final url-hash partitioning,
sized by ``num_partitions``, and it moves extracted text (small), never raw
HTML (projected away at extraction).

Committed runs execute without Ray Data's per-operator CPU reservation
(``state.lineage._exchange_and_commit``).  With it, the exchange's sort and
the commit each held a CPU reservation for the whole job while they waited
for the last row, and the fused read→extract operator was left about one
CPU: on 3 logical CPUs, 16 extract tasks ran back to back in one worker.
Without it, extraction and correction use every free CPU.  The trade-off:
no stage before the exchange has a reserved memory budget, which costs
little because the exchange holds every row anyway and raw HTML is dropped
inside the extract operator.  ``out_dir=None`` runs have no exchange and
keep Ray's defaults.  The commit still waits for the exchange: no partition
commits before every page is corrected.
"""

from __future__ import annotations

import hashlib
import inspect
import json
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
from ..stages.extract import extract_batch
from ..state import lineage as lin

CorrectorKind = Literal["null", "neural", "dictionary"]


def extract_pipeline(pages: ray.data.Dataset) -> ray.data.Dataset:
    return pages.map_batches(extract_batch, batch_format="pyarrow")


def correct_stage(ds: ray.data.Dataset, *, corrector: CorrectorKind,
                  alphabet: str | None = None, model_path: str | None = None,
                  seed: int = 42, hparams: dict | None = None,
                  vocab_ref=None, min_frequency: int = 2,
                  concurrency: int | tuple[int, int] = 4,
                  batch_size: int = 32) -> ray.data.Dataset:
    """Corrector actor-pool stage: one CPU per actor (the NumPy model and the
    dictionary scan are CPU work).  ``batch_size`` is the micro-batch of both
    actor correctors (neural and dictionary).  The null corrector is a task
    stage that takes neither ``batch_size`` nor ``concurrency``, so it fuses
    with extraction into one operator."""
    if corrector == "null":
        # stateless identity — plain task stage, no actor pool needed
        return ds.map_batches(NullCorrectorStage(), batch_format="pyarrow")
    if corrector == "neural":
        if alphabet is None:
            raise ValueError("the neural corrector needs an alphabet")
        return ds.map_batches(
            NeuralCorrectorStage,
            fn_constructor_kwargs=dict(alphabet=alphabet, model_path=model_path,
                                       seed=seed, hparams=hparams),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1,
        )
    if corrector == "dictionary":
        return ds.map_batches(
            DictionaryCorrectorStage,
            fn_constructor_kwargs=dict(vocab_ref=vocab_ref, min_frequency=min_frequency),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1,
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
    if out_dir is not None:
        committed = lin.open_store(out_dir, resume=resume,
                                   num_partitions=num_partitions,
                                   input_fingerprint=input_fingerprint,
                                   stage_versions=stage_versions)
        if committed:
            ds = ds.map_batches(lin.make_committed_filter(committed, num_partitions),
                                batch_format="pyarrow")
    ds = extract_pipeline(ds)
    ds = correct_stage(ds, corrector=corrector, **correct_kwargs)
    if out_dir is None:
        return ds
    ds = ds.map_batches(lin.add_partition_column, batch_format="pyarrow",
                        fn_kwargs=dict(num_partitions=num_partitions))

    def marker_metrics(body: pa.Table) -> dict:
        # code-point lengths, like Python's len; a null output counts as empty
        out_len = pc.fill_null(pc.utf8_length(body.column(OUT_COL)), 0)
        return {"n_empty_outputs": pc.sum(pc.equal(out_len, 0)).as_py(),
                "total_out_chars": pc.sum(out_len).as_py()}

    return lin._exchange_and_commit(ds, out_dir, part_col="part",
                                    input_fingerprint=input_fingerprint,
                                    stage_versions=stage_versions,
                                    num_partitions=num_partitions,
                                    metrics=marker_metrics)


__all__ = ["extract_pipeline", "correct_stage", "extract_correct",
           "TEXT_COL", "OUT_COL"]
