"""Edge cases: window chunking on empty/short docs, idf/inverted-index
consistency, empty-input top-k, the md5/fast hash twins, winnowing
selection, keep-best dedup and the tiered flagship."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, rows):
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array(["xx"] * len(rows), pa.string()),
        "source": pa.array(["s"] * len(rows), pa.string()),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    pq.write_table(t, f"{tmp_path}/documents.parquet")
    return str(tmp_path)


@pytest.mark.usefixtures("ray_session")
class TestChunkWindowsEdges:
    def test_empty_and_short_docs(self, tmp_path):
        from post_ocr_corrector_ray.pipelines.documents import doc_chunk_windows

        sf = _write_docs(tmp_path, [
            (1, ""),                      # no words → no chunks
            (2, "   "),                   # whitespace only → no chunks
            (3, "one two three"),         # < win → single partial window
            (4, " ".join(f"w{i}" for i in range(65))),  # win+1 words
        ])
        got = doc_chunk_windows(sf, win=64, stride=32).to_pandas() \
            .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        assert set(got.doc_id) == {3, 4}
        d3 = got[got.doc_id == 3]
        assert len(d3) == 1 and d3.iloc[0].chunk_text == "one two three"
        assert d3.iloc[0].chunk_n_words == 3
        d4 = got[got.doc_id == 4]
        # 65 words, stride 32 → starts 0, 32, 64
        assert d4.chunk_start.tolist() == [0, 32, 64]
        assert d4.chunk_n_words.tolist() == [64, 33, 1]
        assert d4.iloc[2].chunk_text == "w64"

    def test_windows_cover_all_words_once_per_stride(self, tmp_path):
        from post_ocr_corrector_ray.pipelines.documents import doc_chunk_windows

        words = [f"t{i}" for i in range(100)]
        sf = _write_docs(tmp_path, [(7, " ".join(words))])
        got = doc_chunk_windows(sf, win=64, stride=32).to_pandas()
        rebuilt = []
        for _, r in got.sort_values("chunk_idx").iterrows():
            rebuilt.extend(r.chunk_text.split()[: 32])  # first stride words
        # first-stride prefixes tile the document except the final tail
        assert rebuilt == words[: len(rebuilt)]


@pytest.mark.usefixtures("ray_session")
class TestIdfInvertedIndexEdges:
    def test_idf_and_index_consistent(self, tmp_path):
        from post_ocr_corrector_ray.pipelines.documents import (
            doc_idf,
            doc_inverted_index,
        )

        sf = _write_docs(tmp_path, [
            (1, "alpha beta beta"),
            (2, "beta gamma"),
            (3, ""),
        ])
        idf = doc_idf(sf).to_pandas().set_index("token")
        idx = doc_inverted_index(sf).to_pandas().set_index("token")
        assert idf.loc["beta", "df"] == 2 and idx.loc["beta", "postings"] == "1,2"
        assert idf.loc["alpha", "df"] == 1 and idx.loc["alpha", "postings"] == "1"
        # idf uses total doc count INCLUDING empty docs (N=3)
        assert idf.loc["gamma", "idf"] == np.round(np.log(3 / 1), 6)
        pd.testing.assert_series_equal(idf["df"].sort_index(),
                                       idx["df"].sort_index(),
                                       check_names=False)


@pytest.mark.usefixtures("ray_session")
class TestEmptyInputTopK:
    """Driver-side top-k merges must survive an all-empty partial set
    (pd.DataFrame([]) has no columns, so an unguarded sort_values raises)."""

    def test_empty_tables_yield_typed_empty_results(self, tmp_path):
        from post_ocr_corrector_ray.pipelines.documents import doc_top_tokens

        sf = _write_docs(tmp_path, [])
        d = doc_top_tokens(sf)
        assert d.num_rows == 0
        assert d.column_names == ["token", "frequency"]


@pytest.mark.usefixtures("ray_session")
class TestFastHashTwins:
    """The shuffle op defaults to a vectorized splitmix hash; the md5
    variant survives ONLY as the SQL-oracle twin.  Both paths must satisfy
    the same structural contract."""

    SF = "/root/testdata/sf0.001"

    def test_shuffle_order_both_paths_bijection(self):
        from post_ocr_corrector_ray.pipelines.documents import doc_shuffle_order

        for fn in ("fast", "md5"):
            a = doc_shuffle_order(self.SF, hash_fn=fn).to_pandas() \
                .sort_values("doc_id")
            n = len(a)
            assert sorted(a["shuffle_rank"]) == list(range(1, n + 1)), fn
            assert a["shuffle_rank"].tolist() != list(range(1, n + 1)), fn

    def test_shuffle_order_unknown_hash_fn_raises(self):
        from post_ocr_corrector_ray.pipelines.documents import doc_shuffle_order

        with pytest.raises(ValueError):
            doc_shuffle_order(self.SF, hash_fn="sha999")

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
