"""Extraction stage: pages (url, warc_ts, html, text, lang) → extracted text.

Stateless ``map_batches`` task over Arrow batches.  The parse itself is
per-row Python (an HTML parse cannot be expressed as an Arrow kernel); the
stage contract is Arrow-in/Arrow-out with the multi-MB ``html`` payload column
**projected away in the same stage** so downstream blocks carry only text
(SURVEY.md §7.4.6 — wide binary rows must not travel past extraction).

Rows with NULL ``html`` take the correction-only path: their pre-extracted
``text`` column is whitespace-normalized (reference get_line semantics) and
stripped, mirroring the reference eval input contract
(make_messy_dataset.py:82 strips before mutilation).

Validation counters (reference srwac.py warns and continues, :17-19,31-37):
failures are never silently dropped — every row keeps a status and the
pipeline can aggregate status counts as metrics.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.extraction import extract_page
from ..functions.text import normalize_whitespace
# the store-key routing lives with the commit protocol it serves
from ..state.lineage import add_partition_column, make_committed_filter

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("extracted_text", pa.string()),
        ("extract_status", pa.string()),
        ("title", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def extract_batch(batch: pa.Table) -> pa.Table:
    urls = batch.column("url")
    htmls = batch.column("html")
    texts = batch.column("text")
    out_text: list[str] = []
    out_status: list[str] = []
    out_title: list[str] = []
    for i in range(batch.num_rows):
        payload = htmls[i].as_py()
        if payload is None:
            raw = texts[i].as_py()
            if raw is None:
                out_text.append("")
                out_status.append("no_payload")
                out_title.append("")
            else:
                out_text.append(normalize_whitespace(raw).strip())
                out_status.append("text_passthrough")
                out_title.append("")
        else:
            res = extract_page(payload)
            out_text.append(res.text)
            out_status.append(res.status)
            out_title.append(res.title)
    text_arr = pa.array(out_text, pa.string())
    return pa.Table.from_arrays(
        [
            urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls,
            batch.column("warc_ts"),
            batch.column("lang"),
            text_arr,
            pa.array(out_status, pa.string()),
            pa.array(out_title, pa.string()),
            pa.compute.utf8_length(text_arr).cast(pa.int64()),
        ],
        schema=EXTRACTED_SCHEMA,
    )
