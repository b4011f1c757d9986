"""Document-table pipelines over the ``documents`` test table (doc_id, text,
lang, source, n_chars): the reference's text semantics — whitespace
normalization, distinct chars, token counts, splits, keyed noise, the null
corrector's CER and the vertical-markup round trip.

Each function takes ``sf_dir`` and returns a Dataset / Arrow table; SQL
oracles (where expressible) live in __ray_entry__.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.text import normalize_whitespace
from ..sources.markup import markup_to_sentences_batch
from ..stages.noise import GOOD_CHARS, add_messy_column
from .corpus import distinct_chars, split_of, token_counts
from .evaluate import evaluate


def _docs(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_normalize_ws(sf_dir: str) -> ray.data.Dataset:
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        norm = [normalize_whitespace(t or "")
                for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "norm_text": pa.array(norm, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_all_chars(sf_dir: str) -> pa.Table:
    """Global distinct-char aggregate (A1) → one row per char, ``\\n``
    included (the alphabet drops it)."""
    chars = distinct_chars(_docs(sf_dir, ["text"]), "text")
    return pa.table({"ch": pa.array(sorted(chars), pa.string())})


def doc_token_counts(sf_dir: str) -> ray.data.Dataset:
    return token_counts(_docs(sf_dir, ["text"]), text_col="text", split=None)


def doc_split_assignment(sf_dir: str) -> ray.data.Dataset:
    """80/10/10 split keyed on the stable row id (doc_id % 10 — the direct
    analog of the reference's line-number modulo, make_split_csv.py:23-32)."""
    ds = _docs(sf_dir, ["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("doc_id"),
                         "split": split_of(batch.column("doc_id").to_numpy() % 10)})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_mutilate(sf_dir: str) -> ray.data.Dataset:
    """Keyed noise per doc (reference mutilate semantics, RNG keyed by doc_id)."""

    def f(batch: pa.Table) -> pa.Table:
        return add_messy_column(batch, good_chars=GOOD_CHARS, text_col="text",
                                key_col="doc_id").drop_columns(["text"])

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def doc_null_corrector_cer(sf_dir: str) -> pa.Table:
    """Null-corrector eval control (reference null_corrector.py:16-42): mean
    banded CER of keyed-noise messy text vs the clean original, + the exact
    perfect fraction.  Single-row result."""
    noisy = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_messy_column, batch_format="pyarrow",
        fn_kwargs=dict(good_chars=GOOD_CHARS, text_col="text", key_col="doc_id"))
    res = evaluate(noisy, out_col="messy", correct_col="text", banded=True)
    return pa.table({"n": pa.array([res.n], pa.int64()),
                     "mean_cer": pa.array([res.mean_cer], pa.float64()),
                     "percent_perfect": pa.array([res.percent_perfect], pa.float64())})


def doc_markup_roundtrip(sf_dir: str) -> ray.data.Dataset:
    """S1/M1/M2 parity: render each doc as srWaC-style vertical markup
    (4-field token lines inside <s>…</s>), parse it back with the markup state
    machine, detokenize → must equal the single-space-joined tokens."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def render(batch: pa.Table) -> pa.Table:
        blobs = []
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            lines = ["<s>"]
            for w in toks:
                lines.append(f"{w}\t{w.upper()}\tX\t0")  # surface + 3 dummy fields
            lines.append("</s>")
            blobs.append("\n".join(lines))
        return pa.table({"path": pc.cast(batch.column("doc_id"), pa.string()),
                         "markup": pa.array(blobs, pa.string())})

    parsed = ds.map_batches(render, batch_format="pyarrow").map_batches(
        markup_to_sentences_batch, batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch.column("path"), pa.int64()),
                         "sentence": batch.column("sentence")})

    return parsed.map_batches(project, batch_format="pyarrow")
