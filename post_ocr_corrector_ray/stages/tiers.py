"""Per-group quality-tier assignment without a global or per-group sort.

CCNet-style head/middle/tail corpus bucketing (Wenzek et al. 2020): every
document gets NTILE(n) OVER (PARTITION BY lang ORDER BY quality, id) of the
composite quality score (stages/textstats.py::quality_score_batch — the
C4/Gopher heuristic standing in for the LM-perplexity score this container
can't train).

A language is a giant key at 100 TB, so one-group-per-task sorting is the
wrong tool.  Instead: the float64 score maps to its IEEE-754 bit pattern
(order-isomorphic int64 for this formula's non-negative scores), a
(lang, value) histogram gives every score group its per-language base offset
(tiny driver cumsum over DISTINCT (lang, value) pairs, so the histogram
is only as large as the number of distinct scores; quantize the score first
if that count is unbounded), and ONE (lang, value)-keyed exchange finishes rank and
tier in closed form with the exact SQL NTILE size rule.  The broadcast side
is offsets + per-language totals, shipped once via ``ray.put``.

Generalized from the documents-table pipeline (pipelines/documents.py::
doc_quality_tiers, which now delegates here) so the flagship extraction
output — url-keyed pages, the graft's tier-extraction shape — can reuse it;
``id_col`` may be any orderable dtype (int64 doc ids, url strings).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


def quality_tiers(ds: ray.data.Dataset, *, id_col: str = "doc_id",
                  lang_col: str = "lang", text_col: str = "text",
                  n: int = 3) -> ray.data.Dataset:
    """(id, lang, text) dataset → (id, lang, quality, tier) with tier =
    NTILE(n) per lang ordered by (quality, id).  See module docstring."""
    import pandas as pd

    from . import textstats as ts
    from .shuffle import _pin, grouped_agg, grouped_apply

    def project(batch: pa.Table) -> pa.Table:
        q = ts.quality_score_batch(batch.select([id_col, text_col]),
                                   id_col=id_col, text_col=text_col)
        qual = q.column("quality").to_numpy()
        return pa.table({id_col: q.column(id_col),
                         lang_col: batch.column(lang_col),
                         "quality": q.column("quality"),
                         # IEEE bits: order-isomorphic int64 exchange key
                         "value": pa.array(qual.view(np.int64), pa.int64())})

    # pinned because it is consumed twice (histogram pass + rank pass) and
    # the text column is already projected away — 4 narrow columns spill fine
    docs = _pin(ds.map_batches(project, batch_format="pyarrow"))

    def partial(batch: pa.Table) -> pa.Table:
        g = (pd.DataFrame({lang_col: batch.column(lang_col).to_pandas(),
                           "value": batch.column("value").to_numpy()})
             .groupby([lang_col, "value"], as_index=False).size()
             .rename(columns={"size": "cnt"}))
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = grouped_agg(docs.map_batches(partial, batch_format="pyarrow"),
                       [lang_col, "value"], {"cnt": ("cnt", "sum")})
    parts = list(hist.iter_batches(batch_size=65536, batch_format="pandas"))
    merged = (pd.concat(parts).groupby([lang_col, "value"], as_index=False)
              ["cnt"].sum().sort_values([lang_col, "value"])) if parts else \
        pd.DataFrame({lang_col: pd.Series([], dtype=object),
                      "value": pd.Series([], dtype=np.int64),
                      "cnt": pd.Series([], dtype=np.int64)})
    merged["off"] = (merged.groupby(lang_col)["cnt"].cumsum()
                     - merged["cnt"]).to_numpy(np.int64)
    totals = (merged.groupby(lang_col, as_index=False)["cnt"].sum()
              .rename(columns={"cnt": "t"}))
    base_ref = ray.put(merged[[lang_col, "value", "off"]].merge(
        totals, on=lang_col))

    def tier_part(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        df = df.sort_values([lang_col, "value", id_col])
        pos = df.groupby([lang_col, "value"]).cumcount().to_numpy(np.int64)
        m = df.merge(b, on=[lang_col, "value"], how="left")  # keeps left order
        rank = m["off"].to_numpy(np.int64) + pos + 1
        t = m["t"].to_numpy(np.int64)
        q_, r_ = np.divmod(t, n)
        tier = np.where(rank <= r_ * (q_ + 1),
                        (rank - 1) // (q_ + 1),
                        r_ + (rank - 1 - r_ * (q_ + 1))
                        // np.maximum(q_, 1)) + 1
        out = df[[id_col, lang_col, "quality"]].copy()
        out["tier"] = tier.astype(np.int64)
        return out

    return grouped_apply(docs, [lang_col, "value"], tier_part)
