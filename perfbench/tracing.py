"""Traced single-process replay of a workload.

The replay calls the same public functions the Ray pipeline calls, in
pipeline order, in one process: read -> resume check and committed filter ->
``extract_batch`` -> corrector stage -> ``add_partition_column`` -> group by
partition -> ``commit_partition`` into its own store.  Replayed a second
time over that complete store, it is a resubmission: the resume check and
filter skip every url and nothing is committed.  Every span sits around
one call into a public function; the program itself is not changed.  Calls
made inside the corrector (``greedy_decode`` and the public ``Transformer``
methods) are timed by wrapping them on the replay's own model instance, and
``extract_page`` by rebinding the name ``stages.extract`` looks it up under,
for the length of the replay only.

Spans are kept in memory as (name, start, end, parent) and written out with
their self times when the replay ends.  The replay doubles as the
single-threaded baseline of the pipeline.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from post_ocr_corrector_ray.stages import extract as extract_mod
from post_ocr_corrector_ray.stages.correct import NeuralCorrectorStage, NullCorrectorStage
from post_ocr_corrector_ray.stages.extract import add_partition_column, make_committed_filter
from post_ocr_corrector_ray.state import lineage as lin
from workloads import NUM_PARTITIONS

EXTRACT_STATUSES = ("ok", "empty", "no_content", "pdf_ok", "pdf_undecodable",
                    "decode_error", "text_passthrough", "no_payload")
TRANSFORMER_METHODS = ("embed", "encode", "precompute_memory_kv", "decode_last_logits")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj, attr: str, name, on_call=None) -> None:
        """Replace ``obj.attr`` by a traced wrapper.  ``name`` is a span name
        or a function of the call's arguments; ``on_call(args, result)`` may
        record counts."""
        fn = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args)):
                out = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, out)
            return out

        setattr(obj, attr, traced)

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: summed duration, summed self time, call count."""
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for s, self_s in zip(self.spans, self.self_times()):
            busy[s[0]] += s[2] - s[1]
            own[s[0]] += self_s
            calls[s[0]] += 1
        return busy, own, calls

    def span_records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                 "parent": s[3], "self_s": own}
                for i, (s, own) in enumerate(zip(self.spans, self.self_times()))]

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, **extra, "spans": self.span_records()}, f)


def _extract_span_name(payload, *_):
    return "extract.pdf" if payload is not None and payload[:5] == b"%PDF-" else "extract.html"


def replay(workload, input_dir: str, store: str, run_id: str) -> tuple[Tracer, Counter]:
    """Run the workload once, traced, in this process; commits into
    ``store``.  Returns the tracer and the counts taken at span boundaries."""
    tr = Tracer(run_id)
    n: Counter = Counter()
    if workload.corrector == "neural":
        stage = NeuralCorrectorStage(**workload.correct_kwargs)
        model = stage.model

        def count_decode(args, _out):
            n["decode.rows"] += args[0].shape[0]

        tr.wrap(model, "greedy_decode", "decode", count_decode)
        for meth in TRANSFORMER_METHODS:
            tr.wrap(model.net, meth, f"transformer.{meth}")
    else:
        stage = NullCorrectorStage()
    page_fn = extract_mod.extract_page
    tr.wrap(extract_mod, "extract_page", _extract_span_name)
    try:
        with tr.span("replay"):
            with tr.span("resume.check"):
                lin.check_partition_scheme(store)
                committed = lin.committed_partitions(store)
            keep = make_committed_filter(committed, NUM_PARTITIONS)
            parts = []
            for path in sorted(glob.glob(os.path.join(input_dir, "*.parquet"))):
                with tr.span("read"):
                    pages = pq.read_table(path)
                n["read.bytes"] += pages.nbytes
                todo = pages
                if committed:
                    with tr.span("resume.filter"):
                        todo = keep(pages)
                n["resume.skipped_urls"] += pages.num_rows - todo.num_rows
                with tr.span("extract"):
                    extracted = extract_mod.extract_batch(todo)
                n["extract.pages"] += extracted.num_rows
                n["extract.chars_out"] += pc.sum(extracted.column("n_chars")).as_py() or 0
                for status in extracted.column("extract_status").to_pylist():
                    n[f"extract.status.{status}"] += 1
                for lo in range(0, max(extracted.num_rows, 1), workload.batch_size):
                    batch = extracted.slice(lo, workload.batch_size)
                    with tr.span("correct"):
                        corrected = stage(batch)
                    _count_correct(n, corrected)
                    n["exchange.rows"] += corrected.num_rows
                    n["exchange.bytes"] += corrected.nbytes
                    with tr.span("exchange.partition"):
                        parts.append(add_partition_column(
                            corrected, num_partitions=NUM_PARTITIONS))
            with tr.span("exchange.group"):
                table = pa.concat_tables(parts)
                part_col = table.column("part")
                groups = [(int(p), table.filter(pc.equal(part_col, p)))
                          for p in pc.unique(part_col).to_pylist()]
            for part_id, group in sorted(groups):
                if group.num_rows == 0:
                    continue
                body = group.drop_columns(["part"])
                with tr.span("commit"):
                    lin.commit_partition(body, store, part_id,
                                         stage_versions={"extract": "1",
                                                         "correct": f"{workload.corrector}/1"})
                n["commit.rows"] += body.num_rows
                pdir = lin.partition_dir(store, part_id)
                n["commit.bytes_written"] += sum(
                    os.path.getsize(os.path.join(pdir, f)) for f in os.listdir(pdir))
    finally:
        extract_mod.extract_page = page_fn
    return tr, n


def _count_correct(n: Counter, batch: pa.Table) -> None:
    n["correct.docs"] += batch.num_rows
    n["correct.chars_in"] += pc.sum(pc.utf8_length(batch.column("extracted_text"))).as_py() or 0
    out_len = pc.utf8_length(batch.column("corrected_text"))
    n["correct.chars_out"] += pc.sum(out_len).as_py() or 0
    n["correct.empty_out"] += pc.sum(pc.equal(out_len, 0)).as_py() or 0


def layer_metrics(tr: Tracer, n: Counter, rerun_tr: Tracer, rerun_n: Counter,
                  markers: list[dict], e2e_wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit), from one replay, one
    resubmission of it over its complete store (the resume metrics), and the
    commit markers and wall time of one untraced run of the same job."""
    busy, own, calls = tr.totals()
    replay_wall = busy["replay"]
    m: dict[str, tuple[float, str]] = {
        "read.busy_s": (busy["read"], "s"),
        "read.bytes": (n["read.bytes"], "bytes"),
        "extract.busy_s": (busy["extract"], "s"),
        "extract.pages": (n["extract.pages"], "count"),
        "extract.us_per_page": (1e6 * busy["extract"] / n["extract.pages"]
                                if n["extract.pages"] else 0.0, "us"),
        "extract.chars_out": (n["extract.chars_out"], "chars"),
        "extract.html_busy_s": (busy["extract.html"], "s"),
        "extract.pdf_busy_s": (busy["extract.pdf"], "s"),
    }
    for status in EXTRACT_STATUSES:
        m[f"extract.status.{status}"] = (n[f"extract.status.{status}"], "count")
    for key in ("docs", "chars_in", "chars_out", "empty_out"):
        m[f"correct.{key}"] = (n[f"correct.{key}"], "chars" if "chars" in key else "count")
    m["correct.busy_s"] = (busy["correct"], "s")
    m["decode.calls"] = (calls["decode"], "count")
    m["decode.rows"] = (n["decode.rows"], "count")
    m["decode.steps"] = (calls["transformer.decode_last_logits"], "count")
    m["decode.busy_s"] = (busy["decode"], "s")
    m["decode.self_s"] = (own["decode"], "s")
    for meth in TRANSFORMER_METHODS:
        m[f"transformer.{meth}.calls"] = (calls[f"transformer.{meth}"], "count")
        m[f"transformer.{meth}.busy_s"] = (busy[f"transformer.{meth}"], "s")
    rows = [rec["n_rows"] for rec in markers]
    stamps = [rec["committed_at_unix"] for rec in markers]
    m["exchange.rows"] = (n["exchange.rows"], "count")
    m["exchange.bytes"] = (n["exchange.bytes"], "bytes")
    m["exchange.partition_skew"] = (max(rows) * len(rows) / sum(rows) if rows else 0.0, "ratio")
    m["commit.calls"] = (calls["commit"], "count")
    m["commit.busy_s"] = (busy["commit"], "s")
    m["commit.rows"] = (n["commit.rows"], "count")
    m["commit.bytes_written"] = (n["commit.bytes_written"], "bytes")
    m["commit.spread_s"] = (max(stamps) - min(stamps) if stamps else 0.0, "s")
    m["resume.check_s"] = (rerun_tr.totals()[0]["resume.check"], "s")
    m["resume.skipped_urls"] = (rerun_n["resume.skipped_urls"], "count")
    m["engine.unattributed_s"] = (e2e_wall_s - replay_wall, "s")
    m["replay.wall_s"] = (replay_wall, "s")
    m["replay.untraced_s"] = (own["replay"], "s")
    return m
