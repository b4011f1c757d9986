"""Evaluation pipeline: CER + percent-perfect aggregates (A5/F1-F3).

Reference call-site semantics preserved per variant:
- ``eval.py:49-60``: skip rows with empty reference text; shortcut score 0 when
  output == reference; otherwise ``normalized_edit_distance(..., banded=False)``;
  mean over scored rows; percent-perfect = fraction of zero scores.
- ``null_corrector.py:16-42`` / ``dictionary_corrector.py:108-155``: banded
  default, no empty-skip (an empty reference raises there).  This engine
  skips rows with an empty reference on every path, so no input raises.

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

from ..functions.edit_distance import normalized_edit_distance


@dataclass(frozen=True)
class EvalResult:
    mean_cer: float
    percent_perfect: float
    n: int


def add_cer_column(batch: pa.Table, *, out_col: str, correct_col: str,
                   banded: bool = True) -> pa.Table:
    """Per-row ``cer`` column; a row with an empty or null reference gets
    null, which the aggregate skips."""
    cers: list[float | None] = []
    for o, r in zip(batch.column(out_col).to_pylist(),
                    batch.column(correct_col).to_pylist()):
        if not r:
            cers.append(None)
        elif o == r:
            cers.append(0.0)  # the reference's shortcut: no DP for a perfect row
        else:
            cers.append(normalized_edit_distance(o or "", r, banded=banded))
    return batch.append_column("cer", pa.array(cers, pa.float64()))


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
             correct_col: str = "clean", banded: bool = False) -> EvalResult:
    """Streaming mean CER + percent perfect (reference eval.py:64-68)."""
    scored = ds.map_batches(
        add_cer_column, batch_format="pyarrow",
        fn_kwargs=dict(out_col=out_col, correct_col=correct_col, banded=banded),
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
