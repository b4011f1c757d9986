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
class TestRound3Edges:
    def test_mix_materialize_copy_semantics(self, tmp_path):
        """Every emitted doc's copy_ids are exactly 1..n; per-language totals
        land within 1 of r × count; deterministic across runs."""
        from post_ocr_corrector_ray.pipelines.documents import doc_mix_materialize

        import pyarrow.parquet as pq

        rows = [(i, f"text {i}", "aa" if i < 90 else "bb") for i in range(100)]
        t = pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array(["s"] * len(rows), pa.string()),
            "n_chars": pa.array([1] * len(rows), pa.int64())})
        pq.write_table(t, f"{tmp_path}/documents.parquet")
        out = doc_mix_materialize(str(tmp_path)).to_pandas()
        out2 = doc_mix_materialize(str(tmp_path)).to_pandas()
        pd.testing.assert_frame_equal(
            out.sort_values(["doc_id", "copy_id"]).reset_index(drop=True),
            out2.sort_values(["doc_id", "copy_id"]).reset_index(drop=True))
        per_doc = out.groupby("doc_id")["copy_id"].agg(["min", "max", "size"])
        assert (per_doc["min"] == 1).all()
        assert (per_doc["max"] == per_doc["size"]).all()
        # temperature α=0.5 upsamples the rare language, downsamples common
        n_aa = (out["lang"] == "aa").sum()
        n_bb = (out["lang"] == "bb").sum()
        assert n_bb > 10 and n_aa < 90        # bb upsampled, aa downsampled


@pytest.mark.usefixtures("ray_session")
class TestFastHashTwins:
    """The scan-shaped sampling/shuffle ops default to a vectorized splitmix
    hash; the md5 variants survive ONLY as SQL-oracle twins.  Both paths must
    satisfy the same structural contract, and the fast paths must equal a
    local scalar recompute (no hidden layout dependence)."""

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

    def test_weighted_sample_fast_matches_local_recompute(self):
        """The distributed local-top-k + driver merge must equal a single
        numpy recompute of the identical A-ES keys over the whole table."""
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.functions.hashing import hash_u64_array
        from post_ocr_corrector_ray.pipelines.documents import (
            _WSAMPLE_SEED, doc_weighted_sample)

        k = 16
        got = doc_weighted_sample(self.SF, k=k).to_pandas()
        t = pq.read_table(f"{self.SF}/documents.parquet",
                          columns=["doc_id", "n_chars"])
        ids = t.column("doc_id").to_numpy()
        w = t.column("n_chars").to_numpy().astype(np.float64)
        u = (hash_u64_array(ids.astype(np.uint64), seed=_WSAMPLE_SEED)
             >> np.uint64(16)).astype(np.float64) / float(1 << 48)
        key = u ** (1.0 / np.maximum(w, 1.0))
        order = np.lexsort((ids, -key))[:k]
        assert got["doc_id"].tolist() == ids[order].tolist()

    def test_mix_materialize_fast_copy_semantics(self, tmp_path):
        """Fast-hash mix keeps the copy contract (copy_ids exactly 1..n,
        per-lang totals within 1 of r x count is covered by the md5 test —
        here pin determinism and the residual-coin bound base<=n<=base+1)."""
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.pipelines.documents import doc_mix_materialize

        rows = [(i, "aa" if i < 90 else "bb") for i in range(100)]
        t = pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array(["x"] * 100, pa.string()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array(["s"] * 100, pa.string()),
            "n_chars": pa.array([1] * 100, pa.int64())})
        pq.write_table(t, f"{tmp_path}/documents.parquet")
        out = doc_mix_materialize(str(tmp_path), hash_fn="fast").to_pandas()
        out2 = doc_mix_materialize(str(tmp_path), hash_fn="fast").to_pandas()
        pd.testing.assert_frame_equal(
            out.sort_values(["doc_id", "copy_id"]).reset_index(drop=True),
            out2.sort_values(["doc_id", "copy_id"]).reset_index(drop=True))
        per_doc = out.groupby("doc_id")["copy_id"].agg(["min", "max", "size"])
        assert (per_doc["min"] == 1).all()
        assert (per_doc["max"] == per_doc["size"]).all()
        # copy counts per doc differ between docs of the SAME lang by <= 1
        # (floor vs ceil of the same r) — the residual-coin contract
        sizes = out.merge(
            pd.DataFrame({"doc_id": [r[0] for r in rows],
                          "lang0": [r[1] for r in rows]}), on="doc_id")
        spread = sizes.groupby(["lang0", "doc_id"]).size().groupby("lang0") \
                      .agg(["min", "max"])
        assert ((spread["max"] - spread["min"]) <= 1).all()

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

    def test_novelty_ownership_and_short_docs(self, tmp_path):
        from post_ocr_corrector_ray.pipelines.documents import doc_ngram_novelty

        sf = _write_docs(tmp_path, [
            (0, "a b c d e f"),   # grams "a b c d e","b c d e f" — both owned
            (1, "a b c d e"),     # exactly 5 words -> one gram, owned by doc 0
            (2, ""),              # empty -> one '' gram, owned
        ])
        got = doc_ngram_novelty(sf).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert got["n_grams"].tolist() == [2, 1, 1]
        assert got["n_novel"].tolist() == [2, 0, 1]
        assert got["novelty"].tolist() == [1.0, 0.0, 1.0]


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
