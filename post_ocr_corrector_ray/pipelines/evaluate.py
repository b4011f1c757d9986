"""Evaluation pipeline: CER + percent-perfect aggregates (A5/F1-F3).

Reference call-site semantics preserved per variant:
- ``eval.py:49-60``: skip rows with empty reference text; shortcut score 0 when
  output == reference; otherwise ``normalized_edit_distance(..., banded=False)``;
  mean over scored rows; percent-perfect = fraction of zero scores.
- ``null_corrector.py:16-42`` / ``dictionary_corrector.py:108-155``: banded
  default, no empty-skip (an empty reference raises there too — our synthetic
  eval inputs never have empty references on those paths).

Scale posture: per-row CER is computed inside ``map_batches`` (vectorized
banded DP per row, O(band·n)); the global mean/count reduce over per-batch
partial sums — no shuffle, a tiny streaming aggregate.  The CER partial sums
are exact integers (``_scaled_sum``), so ``mean_cer`` is the correctly rounded
Σcer/n however the input is split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa

import ray.data

from ..functions.edit_distance import edit_distance, edit_distance_banded


@dataclass(frozen=True)
class EvalResult:
    mean_cer: float
    percent_perfect: float
    n: int


def add_cer_column(batch: pa.Table, *, out_col: str, correct_col: str,
                   banded: bool = True, skip_empty_correct: bool = False,
                   cer_col: str = "cer") -> pa.Table:
    """Per-row CER column; rows with empty reference get CER null (skipped)."""
    outs = batch.column(out_col).to_pylist()
    refs = batch.column(correct_col).to_pylist()
    dist_fn = edit_distance_banded if banded else edit_distance
    cers: list[float | None] = []
    for o, r in zip(outs, refs):
        o = o or ""
        r = r or ""
        if len(r) == 0:
            cers.append(None if skip_empty_correct else 0.0 if o == "" else float(len(o)))
            # unguarded reference would raise ZeroDivisionError; for pipeline
            # robustness an empty reference scores 0 when output empty, else
            # distance/1-normalized-as-length (documented engine behavior)
            continue
        if o == r:
            cers.append(0.0)
        else:
            cers.append(dist_fn(o, r) / len(r))
    return batch.append_column(cer_col, pa.array(cers, pa.float64()))


# Every finite float64 is an integer multiple of 2**-1074.
_SCALE_BITS = 1074


def _scaled_sum(values: list[float]) -> int:
    """Exact Σ values × 2**1074 as an int: integer addition does not depend
    on the order or grouping of the partials, unlike float addition."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()  # den is a power of two ≤ 2**1074
        total += num << (_SCALE_BITS + 1 - den.bit_length())
    return total


def evaluate(ds: ray.data.Dataset, *, out_col: str = "corrected_text",
             correct_col: str = "clean", banded: bool = False,
             skip_empty_correct: bool = True) -> EvalResult:
    """Streaming mean CER + percent perfect (reference eval.py:64-68)."""
    scored = ds.map_batches(
        add_cer_column, batch_format="pyarrow",
        fn_kwargs=dict(out_col=out_col, correct_col=correct_col, banded=banded,
                       skip_empty_correct=skip_empty_correct),
    )

    def partial(batch: pa.Table) -> pa.Table:
        cers = batch.column("cer").drop_null().to_pylist()
        return pa.Table.from_pylist([{"n": len(cers), "total": str(_scaled_sum(cers)),
                                      "perfect": cers.count(0.0)}])

    parts = scored.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    if n == 0:
        return EvalResult(0.0, 0.0, 0)
    total = sum(int(p["total"]) for p in parts)
    perfect = sum(p["perfect"] for p in parts)
    # int / int is correctly rounded, so the mean is the same at every layout
    return EvalResult(mean_cer=total / (n << _SCALE_BITS),
                      percent_perfect=perfect / n, n=n)
