"""Input-layout invariance of the operators the CLI runs (``run``:
``extract_correct`` with the null and dictionary correctors; ``run`` and
``tiers``: ``extract_pipeline``; ``dedup``: ``minhash_duplicate_pairs``,
``bucket_stats``' census of its buckets, ``connected_components``,
``near_dedup``, ``signature_store_tables`` and, with ``--against``,
``minhash_duplicate_pairs_incremental``, ``near_dedup_incremental`` and the
``hash_join`` semi / anti filter under both; ``tiers``: ``quality_tiers`` and
the token stats and quality score it ranks by; ``commit``: ``commit_by_key``;
``feed``: ``epoch_feed``; ``parse-markup``: ``read_markup_dir``; ``corpus``:
``add_messy_column``; ``alphabet``, ``build-dictionary``, ``corpus`` and
``eval``: the corpus and eval aggregates): the same rows split into 1, 3, 7
or 16 input blocks (or files) give the same output, equal to a
single-process recompute."""

import os

import numpy as np
import pyarrow as pa
import pytest

BLOCKS = [1, 3, 7, 16]
_WORDS = ("river stone maple quiet lantern copper meadow orbit velvet harbor "
          "cinder pillar saffron thistle quarry fable nimbus walnut ember "
          "garnet hollow juniper kestrel lattice marble nectar obsidian "
          "pebble quill russet sorrel tundra umber vesper willow yarrow").split()


def _docs() -> pa.Table:
    """48 documents: 24 random-word bases, 12 one-word edits of a base
    (Jaccard well above 0.5), 4 exact copies, 8 further bases; ids shuffled
    so no block holds a cluster whole."""
    rng = np.random.default_rng(5)
    bases = [" ".join(rng.choice(_WORDS, size=24)) for _ in range(32)]
    texts = bases[:24]
    for i in range(12):
        words = bases[i].split()
        words[rng.integers(len(words))] = "zephyr"
        texts.append(" ".join(words))
    texts += bases[:4] + bases[24:]
    ids = rng.permutation(1000)[:len(texts)].astype(np.int64)
    langs = rng.choice(["en", "sr", "de"], size=len(texts))
    return pa.table({"doc_id": pa.array(ids), "text": pa.array(texts),
                     "lang": pa.array(langs)})


def _blocks(tbl: pa.Table, n: int):
    import ray.data

    bounds = np.linspace(0, tbl.num_rows, n + 1).astype(int)
    return ray.data.from_arrow([tbl.slice(a, b - a)
                                for a, b in zip(bounds[:-1], bounds[1:])])


def _spec_pairs(tbl: pa.Table) -> set:
    from post_ocr_corrector_ray.stages.dedup import _jaccard

    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if _jaccard(texts[i], texts[j], 5) >= 0.5:
                out.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    return out


# the CLI ``dedup`` LSH parameters
_LSH = dict(n_hashes=64, bands=16, k_shingle=5)


def _pairs(ds):
    from post_ocr_corrector_ray.stages.dedup import minhash_duplicate_pairs

    return minhash_duplicate_pairs(ds, jaccard_threshold=0.5, **_LSH)


def _roots(tbl: pa.Table) -> dict:
    """doc_id → the min id of its union-find cluster over the spec pairs."""
    parent = {i: i for i in tbl.column("doc_id").to_pylist()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in sorted(_spec_pairs(tbl)):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in parent}


def _waves(tbl: pa.Table):
    """(store, new, min_new_id): the lower half of the ids is the store
    wave, the upper half the new wave (the append-only id contract)."""
    import pyarrow.compute as pc

    cut = sorted(tbl.column("doc_id").to_pylist())[tbl.num_rows // 2]
    store = tbl.filter(pc.less(tbl.column("doc_id"), cut))
    new = tbl.filter(pc.greater_equal(tbl.column("doc_id"), cut))
    return store, new, cut


@pytest.mark.usefixtures("ray_session")
class TestCliOperatorsLayoutInvariance:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_minhash_duplicate_pairs(self, blocks):
        tbl = _docs()
        got = _pairs(_blocks(tbl, blocks)).to_pandas()
        want = _spec_pairs(tbl)
        assert len(want) >= 16
        assert sorted(zip(got["id_a"], got["id_b"])) == sorted(want)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_near_dedup(self, blocks):
        from post_ocr_corrector_ray.stages.components import near_dedup

        tbl = _docs()
        ds = _blocks(tbl, blocks)
        got = near_dedup(ds, _pairs(ds), num_partitions=4).to_pandas()
        # min-id representative per union-find cluster
        want = sorted(i for i, r in _roots(tbl).items() if i == r)
        assert sorted(got["doc_id"]) == want
        assert len(want) < tbl.num_rows
        assert sorted(got.columns) == sorted(tbl.column_names)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_quality_tiers(self, blocks):
        import duckdb
        import pandas as pd

        from post_ocr_corrector_ray.stages.textstats import quality_score_batch
        from post_ocr_corrector_ray.stages.tiers import quality_tiers

        tbl = _docs()
        got = quality_tiers(_blocks(tbl, blocks), n=3).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        q = quality_score_batch(tbl.select(["doc_id", "text"])).to_pandas()
        q["lang"] = tbl.column("lang").to_pylist()
        want = duckdb.query(
            "SELECT doc_id, lang, quality, CAST(NTILE(3) OVER (PARTITION BY "
            "lang ORDER BY quality, doc_id) AS BIGINT) AS tier FROM q"
        ).fetchdf().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_id", "lang", "quality", "tier"]], want,
            check_dtype=False, check_exact=True)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_signature_store_tables(self, blocks):
        from post_ocr_corrector_ray.functions.hashing import shingle_hashes
        from post_ocr_corrector_ray.stages.dedup import (
            minhash_bands_batch,
            signature_bytes,
            signature_store_tables,
        )

        tbl = _docs().select(["doc_id", "text"])
        bands, sigs = signature_store_tables(_blocks(tbl, blocks), **_LSH)
        got = bands.to_pandas()
        want = minhash_bands_batch(tbl, **_LSH).to_pandas()
        assert len(want) == tbl.num_rows * _LSH["bands"]
        assert sorted(zip(got["band_id"], got["band_hash"], got["doc_id"])) == \
            sorted(zip(want["band_id"], want["band_hash"], want["doc_id"]))
        got = sigs.to_pandas()
        assert dict(zip(got["doc_id"], got["sig"])) == {
            i: signature_bytes(shingle_hashes(t, k=_LSH["k_shingle"]))
            for i, t in zip(tbl.column("doc_id").to_pylist(),
                            tbl.column("text").to_pylist())}

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_minhash_duplicate_pairs_incremental(self, blocks):
        """The new wave against the store wave's persisted tables: every
        spec pair with a new member, and no store-store pair."""
        from post_ocr_corrector_ray.stages.dedup import (
            minhash_duplicate_pairs_incremental,
            signature_store_tables,
        )

        tbl = _docs().select(["doc_id", "text"])
        store, new, cut = _waves(tbl)
        bands, sigs = signature_store_tables(_blocks(store, blocks), **_LSH)
        got = minhash_duplicate_pairs_incremental(
            _blocks(new, blocks), bands, sigs, min_new_id=cut,
            jaccard_threshold=0.5, **_LSH).to_pandas()
        want = {p for p in _spec_pairs(tbl) if p[1] >= cut}
        assert any(a < cut for a, _ in want) and any(a >= cut for a, _ in want)
        assert sorted(zip(got["id_a"], got["id_b"])) == sorted(want)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_near_dedup_incremental(self, blocks):
        """A new document survives iff no store document shares its
        cluster and it is its cluster's min id."""
        from post_ocr_corrector_ray.stages.components import near_dedup_incremental
        from post_ocr_corrector_ray.stages.dedup import (
            minhash_duplicate_pairs_incremental,
            signature_store_tables,
        )

        tbl = _docs().select(["doc_id", "text"])
        store, new, cut = _waves(tbl)
        bands, sigs = signature_store_tables(_blocks(store, blocks), **_LSH)
        new_ds = _blocks(new, blocks)
        pairs = minhash_duplicate_pairs_incremental(
            new_ds, bands, sigs, min_new_id=cut, jaccard_threshold=0.5, **_LSH)
        got = near_dedup_incremental(new_ds, _blocks(store.select(["doc_id"]), blocks),
                                     pairs, num_partitions=4).to_pandas()
        roots = _roots(tbl)
        tainted = {roots[i] for i in store.column("doc_id").to_pylist()}
        want = sorted(i for i in new.column("doc_id").to_pylist()
                      if roots[i] == i and i not in tainted)
        assert sorted(got["doc_id"]) == want
        assert 0 < len(want) < new.num_rows

    @pytest.mark.parametrize("how", ["semi", "anti"])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_hash_join(self, blocks, how):
        """The survivor filter: the rows of ``docs`` whose id is (semi) or
        is not (anti) in a key set with repeats and strangers, with the int
        payload column restored to int64."""
        import pyarrow.compute as pc

        from post_ocr_corrector_ray.stages.joins import hash_join

        tbl = _docs()
        tbl = tbl.append_column("n", pc.utf8_length(tbl["text"]).cast(pa.int64()))
        rng = np.random.default_rng(9)
        keys = np.concatenate((rng.choice(tbl["doc_id"].to_numpy(), 40), [5000, 5001]))
        got = hash_join(_blocks(tbl, blocks),
                        _blocks(pa.table({"doc_id": pa.array(keys)}), blocks),
                        on="doc_id", how=how, num_partitions=4).to_pandas()
        df = tbl.to_pandas()
        hit = df["doc_id"].isin(keys)
        want = df[hit if how == "semi" else ~hit]
        assert 0 < len(want) < len(df)
        assert got.dtypes.to_dict() == want.dtypes.to_dict()
        assert sorted(got.itertuples(index=False)) == \
            sorted(want.itertuples(index=False))

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_connected_components(self, blocks):
        """Every clustered document maps to its union-find cluster's min
        id, and no unclustered document appears."""
        from post_ocr_corrector_ray.stages.components import connected_components

        tbl = _docs()
        got = connected_components(_pairs(_blocks(tbl, blocks)),
                                   num_partitions=4).to_pandas()
        roots = _roots(tbl)
        clustered = {i for pair in _spec_pairs(tbl) for i in pair}
        assert len(got) == len(clustered)
        assert dict(zip(got["node"], got["component"])) == \
            {i: roots[i] for i in clustered}
        assert len(set(roots[i] for i in clustered)) > 1

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_bucket_stats(self, blocks):
        """The census of the LSH buckets, at the ``dedup`` cap and at a cap
        of 2 that drops the near-dup clusters' shared buckets."""
        from post_ocr_corrector_ray.stages.dedup import (
            MAX_BUCKET,
            bucket_stats,
            minhash_bands_batch,
            signature_store_tables,
        )

        tbl = _docs().select(["doc_id", "text"])
        bands, _ = signature_store_tables(_blocks(tbl, blocks), **_LSH)
        sizes = minhash_bands_batch(tbl, **_LSH).to_pandas() \
            .groupby(["band_id", "band_hash"]).size()
        assert (sizes > 2).any()
        for cap in (MAX_BUCKET, 2):
            over = sizes[sizes > cap]
            got = bucket_stats(bands, ["band_id", "band_hash"], max_bucket=cap)
            assert got.to_pylist() == [{
                "n_buckets": len(sizes),
                "n_multi_buckets": int((sizes > 1).sum()),
                "n_dropped_buckets": len(over),
                "n_dropped_pairs": int((over * (over - 1) // 2).sum()),
            }]

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_token_stats_batch(self, blocks):
        from post_ocr_corrector_ray.stages.textstats import token_stats_batch

        got = _blocks(_stats_docs(), blocks).map_batches(
            token_stats_batch, batch_format="pyarrow").to_pandas()
        assert got.sort_values("doc_id").to_dict("records") == _spec_stats()

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_quality_score_batch(self, blocks):
        from post_ocr_corrector_ray.stages.textstats import quality_score_batch

        got = _blocks(_stats_docs(), blocks).map_batches(
            quality_score_batch, batch_format="pyarrow").to_pandas()
        want = []
        for r in _spec_stats():
            wl_ok = 1.0 if 2.0 <= r["mean_word_len"] <= 12.0 else 0.5
            stop_ok = 1.0 if r["stop_ratio"] > 0.0 else 0.6
            want.append({**r, "quality": 0.25 * (min(r["n_chars"] / 200.0, 1.0)
                                                 + min(r["n_words"] / 30.0, 1.0)
                                                 + wl_ok + stop_ok)})
        assert len({r["quality"] for r in want}) > 5
        assert got.sort_values("doc_id").to_dict("records") == want

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_commit_by_key_store_bytes(self, blocks, tmp_path):
        """Each partition's ``data.parquet`` is the bytes of its rows, in
        input order, written by one process."""
        import pathlib

        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.functions.hashing import partition_of_array
        from post_ocr_corrector_ray.state import lineage as lin

        tbl = _docs()
        out = str(tmp_path / "store")
        lin.commit_by_key(_blocks(tbl, blocks), out, key_col="doc_id",
                          num_partitions=5).to_pandas()
        assert sorted(lin.committed_partitions(out)) == [0, 1, 2, 3, 4]
        parts = partition_of_array(tbl.column("doc_id").cast(pa.string()), 5)
        for p in range(5):
            want = tmp_path / f"want{p}.parquet"
            pq.write_table(tbl.filter(pa.array(parts == p)), want)
            got = pathlib.Path(lin.partition_dir(out, p), "data.parquet")
            assert got.read_bytes() == want.read_bytes(), f"partition {p}"

    @pytest.mark.parametrize("corrector", ["null", "dictionary"])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_extract_correct_store_bytes(self, pages, corpus, blocks, corrector,
                                         tmp_path):
        """``run``: each partition's ``data.parquet`` is the bytes of its
        pages' extracted and corrected rows, in input order, written by one
        process."""
        import pathlib

        import pyarrow.parquet as pq
        import ray

        from post_ocr_corrector_ray.functions.hashing import partition_of_array
        from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector
        from post_ocr_corrector_ray.oracle import oracle_extract_correct
        from post_ocr_corrector_ray.pipelines.extract_correct import extract_correct
        from post_ocr_corrector_ray.stages.extract import extract_batch
        from post_ocr_corrector_ray.state import lineage as lin

        kwargs, model = {}, None
        if corrector == "dictionary":
            # the synthetic pages are clean: a high frequency floor makes the
            # rarer words corrections, so the stage rewrites most pages
            vocab = _train_counts(corpus)
            kwargs = dict(vocab_ref=ray.put(vocab), min_frequency=25, concurrency=1)
            model = DictionaryCorrector(vocab, min_frequency=25)
        out = str(tmp_path / "store")
        extract_correct(_blocks(pages, blocks), corrector=corrector, out_dir=out,
                        num_partitions=5, **kwargs).to_pandas()
        assert sorted(lin.committed_partitions(out)) == [0, 1, 2, 3, 4]
        corrected = oracle_extract_correct(pages, model)
        tbl = extract_batch(pages)
        urls = tbl.column("url").to_pylist()
        assert len(set(urls)) == len(urls)
        tbl = tbl.append_column("corrected_text",
                                pa.array([corrected[u] for u in urls], pa.string()))
        if model is not None:
            assert not tbl["corrected_text"].equals(tbl["extracted_text"])
        parts = partition_of_array(tbl.column("url"), 5)
        for p in range(5):
            want = tmp_path / f"want{p}.parquet"
            pq.write_table(tbl.filter(pa.array(parts == p)), want)
            got = pathlib.Path(lin.partition_dir(out, p), "data.parquet")
            assert got.read_bytes() == want.read_bytes(), f"partition {p}"

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_extract_pipeline(self, pages, blocks):
        from post_ocr_corrector_ray.oracle import oracle_extract_row
        from post_ocr_corrector_ray.pipelines.extract_correct import extract_pipeline

        got = extract_pipeline(_blocks(pages, blocks)).to_pandas()
        want = {u: oracle_extract_row(h, t) for u, h, t in
                zip(*(pages.column(k).to_pylist() for k in ("url", "html", "text")))}
        assert len(got) == pages.num_rows
        assert dict(zip(got["url"], zip(got["extracted_text"],
                                        got["extract_status"]))) == want
        assert "html" not in got.columns

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_read_markup_dir(self, blocks, tmp_path):
        """``parse-markup``: the same sentences spread over 1, 3, 7 or 16
        files give every file's sentences in order, detokenized, with the
        file's malformed-line count on its first sentence."""
        from post_ocr_corrector_ray.sources.markup import read_markup_dir

        sents = [t.split() for t in _docs().column("text").to_pylist()]
        bounds = np.linspace(0, len(sents), blocks + 1).astype(int)
        want = []
        for f, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            lines = []
            for i, toks in enumerate(sents[a:b]):
                lines.append("<s>")
                lines += [f"{w}\t{w.upper()}\tX\t0" for w in toks]
                if i == 0 and f % 2 == 0:
                    lines.append("malformed")  # even files: one bad line
                lines.append("</s>")
            path = tmp_path / f"f{f:02d}.vert"
            path.write_text("\n".join(lines), encoding="utf-8")
            want += [(path.name, i, " ".join(toks), int(i == 0 and f % 2 == 0))
                     for i, toks in enumerate(sents[a:b])]
        got = read_markup_dir(str(tmp_path)).to_pandas()
        assert sorted(zip(got["path"].map(os.path.basename), got["sentence_idx"],
                          got["sentence"], got["n_malformed"])) == sorted(want)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_epoch_feed(self, corpus, blocks):
        """Train rows ordered by (epoch shuffle key, url), cut into batches
        of 8 and collated to ``INT_EMPTY``-padded int32 id matrices."""
        from post_ocr_corrector_ray import INT_EMPTY
        from post_ocr_corrector_ray.functions.alphabet import Vocab, build_alphabet
        from post_ocr_corrector_ray.pipelines.training import _shuffle_key, epoch_feed

        alphabet = build_alphabet(set(_GOOD_CHARS + "."))
        got = epoch_feed(_blocks(corpus, blocks), alphabet=alphabet, epoch=1) \
            .to_pandas().sort_values("batch_id")
        train = corpus.filter(pa.array([s == "train" for s in
                                        corpus.column("split").to_pylist()]))
        keys = _shuffle_key(train, "url", 1, 17).tolist()
        urls = train.column("url").to_pylist()
        order = sorted(range(train.num_rows), key=lambda i: (keys[i], urls[i]))
        v = Vocab(alphabet)

        def collate(col, rows):
            seqs = [v.encode(train.column(col)[i].as_py()) for i in rows]
            width = max(len(s) for s in seqs)
            m = np.full((len(seqs), width), INT_EMPTY, dtype="<i4")
            for r, s in enumerate(seqs):
                m[r, :len(s)] = s
            return width, m.tobytes()

        want = []
        for b in range(0, len(order), 8):
            rows = order[b:b + 8]
            (wx, x), (wy, y) = collate("messy", rows), collate("clean", rows)
            want.append((b // 8, len(rows), wx, wy, x, y))
        assert len(want) > 8
        assert list(zip(got["batch_id"], got["size"], got["width_x"],
                        got["width_y"], got["x"], got["y"])) == want


_GOOD_CHARS = "abcdefghijklmnopqrstuvwxyz "


def _stats_docs() -> pa.Table:
    """The dedup documents plus texts with stopwords, every punctuation
    mark, runs of whitespace and empty rows spread over the block
    boundaries."""
    extra = ["", "the cat: and the dog.", "  a  b  ", "word.word, end!", "",
             "is it; on? for with", "\tof\nto in ", "x" * 250, "",
             " ".join(["the"] * 40), "one two three four"]
    tbl = _docs().select(["doc_id", "text"])
    ids = np.arange(2000, 2000 + len(extra), dtype=np.int64)
    return pa.concat_tables([tbl, pa.table({"doc_id": ids, "text": extra})]) \
        .take(np.random.default_rng(4).permutation(tbl.num_rows + len(extra)))


def _spec_stats() -> list:
    """Token stats of ``_stats_docs`` row by row over ``str.split``, in
    doc_id order."""
    from post_ocr_corrector_ray.stages.textstats import STOPWORDS_EN

    tbl = _stats_docs()
    out = []
    for i, t in sorted(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())):
        words = t.split()
        n = len(words)
        out.append({"doc_id": i, "n_chars": len(t), "n_words": n,
                    "n_punct": sum(t.count(c) for c in ".,!?;:"),
                    "mean_word_len": sum(map(len, words)) / n if n else 0.0,
                    "stop_ratio": sum(w in STOPWORDS_EN for w in words) / n
                    if n else 0.0})
    return out


@pytest.fixture(scope="module")
def pages() -> pa.Table:
    from post_ocr_corrector_ray.sources.synth import pages_batch

    return pages_batch(np.arange(120), seed=3)


@pytest.fixture(scope="module")
def corpus(pages) -> pa.Table:
    """The (url, clean, messy, split) corpus, built row by row in one
    process."""
    from post_ocr_corrector_ray.functions.hashing import polyhash_u64
    from post_ocr_corrector_ray.oracle import oracle_extract, oracle_messy
    from post_ocr_corrector_ray.pipelines.corpus import pick_split

    clean = oracle_extract(pages)
    urls = list(clean)
    return pa.table({
        "url": urls,
        "clean": [clean[u] for u in urls],
        "messy": [oracle_messy(u, clean[u].strip(), _GOOD_CHARS) for u in urls],
        "split": [pick_split(polyhash_u64(u.encode("utf-8")) % 10) for u in urls],
    })


def _train_counts(corpus: pa.Table) -> dict:
    from post_ocr_corrector_ray.oracle import oracle_token_counts

    return oracle_token_counts(
        [c for c, s in zip(corpus.column("clean").to_pylist(),
                           corpus.column("split").to_pylist()) if s == "train"])


@pytest.mark.usefixtures("ray_session")
class TestCorpusEvalLayoutInvariance:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_compute_alphabet(self, corpus, blocks):
        from post_ocr_corrector_ray.oracle import oracle_alphabet
        from post_ocr_corrector_ray.pipelines.corpus import compute_alphabet

        got = compute_alphabet(_blocks(corpus, blocks), text_col="clean")
        assert got == oracle_alphabet(corpus.column("clean").to_pylist())

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_token_counts_train(self, corpus, blocks):
        from post_ocr_corrector_ray.pipelines.corpus import token_counts

        df = token_counts(_blocks(corpus, blocks), text_col="clean",
                          split="train").to_pandas()
        want = _train_counts(corpus)
        assert len(want) > 100
        assert dict(zip(df["token"], df["frequency"].astype(int))) == want

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_build_dictionary(self, corpus, blocks):
        from post_ocr_corrector_ray.pipelines.corpus import build_dictionary

        got = build_dictionary(_blocks(corpus, blocks), min_frequency=2)
        want = {t: c for t, c in _train_counts(corpus).items() if c >= 2}
        assert got.vocabulary == want

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_corpus_from_pages(self, pages, corpus, blocks):
        from post_ocr_corrector_ray.pipelines.corpus import corpus_from_pages

        df = corpus_from_pages(_blocks(pages, blocks),
                               good_chars=_GOOD_CHARS).to_pandas()
        got = {u: (c, m, s) for u, c, m, s in
               zip(df["url"], df["clean"], df["messy"], df["split"])}
        want = {u: (c, m, s) for u, c, m, s in
                zip(*(corpus.column(k).to_pylist()
                      for k in ("url", "clean", "messy", "split")))}
        assert len(df) == corpus.num_rows
        assert got == want

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_add_messy_column(self, corpus, blocks):
        """``corpus``'s noise stage keys each row's RNG by its url, so a
        row's noise does not depend on the rows that share its block."""
        from post_ocr_corrector_ray.stages.noise import add_messy_column

        got = _blocks(corpus.select(["url", "clean"]), blocks).map_batches(
            add_messy_column, batch_format="pyarrow",
            fn_kwargs=dict(good_chars=_GOOD_CHARS)).to_pandas()
        want = dict(zip(corpus["url"].to_pylist(), corpus["messy"].to_pylist()))
        assert sum(m != c.strip() for m, c in zip(corpus["messy"].to_pylist(),
                                                    corpus["clean"].to_pylist())) > 50
        assert dict(zip(got["url"], got["messy"])) == want

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_evaluate(self, corpus, blocks):
        """Messy text scored against clean: ``mean_cer`` is Σcer/n rounded
        once, so every layout gives the same bits."""
        from fractions import Fraction

        from post_ocr_corrector_ray.functions.edit_distance import edit_distance_banded
        from post_ocr_corrector_ray.pipelines.evaluate import EvalResult, evaluate

        cers = [0.0 if m == c else edit_distance_banded(m, c) / len(c)
                for m, c in zip(corpus.column("messy").to_pylist(),
                                corpus.column("clean").to_pylist()) if c]
        n = len(cers)
        want = EvalResult(mean_cer=float(sum(map(Fraction, cers)) / n),
                          percent_perfect=cers.count(0.0) / n, n=n)
        got = evaluate(_blocks(corpus, blocks), out_col="messy",
                       correct_col="clean", banded=True)
        assert n > 100
        assert got == want
