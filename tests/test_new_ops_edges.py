"""Edge cases: the md5/fast hash twins, winnowing selection, keep-best
dedup and the tiered flagship."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

@pytest.mark.usefixtures("ray_session")
class TestFastHashTwins:
    """The split column keys on the vectorized polyhash; it must equal the
    scalar hash row by row."""

    def test_add_split_column_vectorized_matches_scalar(self):
        from post_ocr_corrector_ray.functions.hashing import polyhash_u64
        from post_ocr_corrector_ray.pipelines.corpus import (
            add_split_column, pick_split)

        urls = [f"https://ex.example/{i}" for i in range(257)] + ["", "x"]
        batch = pa.table({"url": pa.array(urls, pa.string())})
        got = add_split_column(batch).column("split").to_pylist()
        want = [pick_split(polyhash_u64(u.encode("utf-8")) % 10) for u in urls]
        assert got == want


class TestWinnowingSelection:
    """Pure selection-rule pins for stages/textstats.py::_winnow_positions."""

    def test_rightmost_min_on_ties(self):
        from post_ocr_corrector_ray.stages.textstats import _winnow_positions

        h = np.array(["bb", "aa", "aa", "cc", "aa"], dtype="<U32")
        # windows (w=3): [bb,aa,aa]->pos2  [aa,aa,cc]->pos2  [aa,cc,aa]->pos4
        assert _winnow_positions(h, 3).tolist() == [2, 4]

    def test_every_window_is_covered(self):
        from post_ocr_corrector_ray.stages.textstats import _winnow_positions

        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            w = int(rng.integers(1, 6))
            h = rng.integers(0, 10, n).astype(np.uint64)
            sel = _winnow_positions(h, w)
            ww = min(w, n)
            for start in range(n - ww + 1):
                assert ((sel >= start) & (sel < start + ww)).any()
            # every selected position is the minimum of at least one window
            # that contains it
            for p in sel:
                starts = range(max(0, p - ww + 1), min(p, n - ww) + 1)
                assert any(h[p] <= h[s : s + ww].min() for s in starts)

    def test_short_doc_single_fingerprint(self):
        from post_ocr_corrector_ray.stages.textstats import (
            winnowing_batch, winnowing_fast_batch)

        b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["abc", ""], pa.string())})
        for fn in (winnowing_batch, winnowing_fast_batch):
            out = fn(b)
            assert out.column("doc_id").to_pylist() == [1, 2]
            assert out.column("pos").to_pylist() == [1, 1]

    def test_fast_short_doc_hashes_its_text(self):
        """An empty text must not share its fingerprint with a text that is
        literally one NUL character."""
        from post_ocr_corrector_ray.stages.textstats import winnowing_fast_batch

        b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["", "\x00"], pa.string())})
        fp = winnowing_fast_batch(b).column("fp").to_pylist()
        assert len(fp) == 2 and fp[0] != fp[1]


@pytest.mark.usefixtures("ray_session")
class TestKeepBestAndNovelty:
    def test_keep_best_picks_max_score(self):
        import ray.data

        from post_ocr_corrector_ray.stages.components import near_dedup_by_score

        docs = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64())}))
        pairs = ray.data.from_arrow(pa.table(
            {"id_a": pa.array([1, 2, 4], pa.int64()),
             "id_b": pa.array([2, 3, 5], pa.int64())}))
        scores = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
             "quality": pa.array([0.1, 0.9, 0.5, 0.7, 0.7, 0.0],
                                 pa.float64())}))
        kept = sorted(near_dedup_by_score(docs, pairs, scores)
                      .to_pandas()["doc_id"].tolist())
        # cluster {1,2,3} -> 2 (max quality); {4,5} tie -> 4 (min id); 6 untouched
        assert kept == [2, 4, 6]

    def test_keep_best_unscored_member_ranks_last(self):
        import ray.data

        from post_ocr_corrector_ray.stages.components import near_dedup_by_score

        docs = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([1, 2, 3], pa.int64())}))
        pairs = ray.data.from_arrow(pa.table(
            {"id_a": pa.array([1], pa.int64()),
             "id_b": pa.array([2], pa.int64())}))
        scores = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([2, 3], pa.int64()),
             "quality": pa.array([0.1, 0.5], pa.float64())}))
        kept = sorted(near_dedup_by_score(docs, pairs, scores)
                      .to_pandas()["doc_id"].tolist())
        # doc 1 has no score row: it loses to the scored doc 2 despite its
        # smaller id, instead of silently surviving next to it
        assert kept == [2, 3]

@pytest.mark.usefixtures("ray_session")
class TestFlagshipTiered:
    def test_matches_single_process_ntile_recompute(self):
        """flagship_tiered == single-process extract + DuckDB NTILE(3) OVER
        (PARTITION BY lang ORDER BY quality, url) — an independent oracle
        for the url-keyed tier-extraction composition."""
        import duckdb

        import __ray_entry__ as entry
        from post_ocr_corrector_ray.sources.synth import pages_batch
        from post_ocr_corrector_ray.stages.extract import extract_batch
        from post_ocr_corrector_ray.stages.textstats import quality_score_batch

        got = entry.queries()["flagship_tiered"]("unused").to_pandas() \
            .sort_values("url").reset_index(drop=True)

        pages = pages_batch(np.arange(600), seed=42)
        ext = extract_batch(pages)
        df = ext.to_pandas()
        df = df[df["extracted_text"].notna() & (df["extracted_text"] != "")]
        q = quality_score_batch(
            pa.table({"url": pa.array(df["url"], pa.string()),
                      "text": pa.array(df["extracted_text"], pa.string())}),
            id_col="url").to_pandas()
        q["lang"] = df["lang"].to_numpy()
        want = duckdb.query(
            "SELECT url, lang, quality, CAST(NTILE(3) OVER (PARTITION BY "
            "lang ORDER BY quality, url) AS BIGINT) AS tier FROM q"
        ).fetchdf().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["url", "lang", "quality", "tier"]], want,
            check_dtype=False, check_exact=True)
        assert len(got) > 500  # most synthetic pages carry extractable text
