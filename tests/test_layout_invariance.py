"""Input-layout invariance of the operators the CLI runs (``run``:
``extract_correct`` with the null and dictionary correctors, and
``extract_pipeline``; ``commit``: ``commit_by_key``; ``feed``:
``epoch_feed``; ``parse-markup``: ``read_markup_dir``; ``corpus``:
``add_messy_column``; ``alphabet``, ``build-dictionary``, ``corpus`` and
``eval``: the corpus and eval aggregates): the same rows split into 1, 3, 7
or 16 input blocks (or files) give the same output, equal to a
single-process recompute.  The exchanges of derived data give it at every
exchange width too (``TestExchangeWidthInvariance``)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from post_ocr_corrector_ray.functions.alphabet import build_alphabet

BLOCKS = [1, 3, 7, 16]
WIDTHS = [1, 3, 64, 256]
_WORDS = ("river stone maple quiet lantern copper meadow orbit velvet harbor "
          "cinder pillar saffron thistle quarry fable nimbus walnut ember "
          "garnet hollow juniper kestrel lattice marble nectar obsidian "
          "pebble quill russet sorrel tundra umber vesper willow yarrow").split()


def _docs() -> pa.Table:
    """48 documents: 24 random-word bases, 12 one-word edits of a base,
    4 exact copies, 8 further bases; ids shuffled, languages drawn at
    random."""
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


@pytest.mark.usefixtures("ray_session")
class TestCliOperatorsLayoutInvariance:
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
        from post_ocr_corrector_ray.pipelines.training import epoch_feed

        got = epoch_feed(_blocks(corpus, blocks), alphabet=_FEED_ALPHABET,
                         epoch=1).to_pandas()
        assert _feed_rows(got) == _want_feed(corpus, epoch=1)


_GOOD_CHARS = "abcdefghijklmnopqrstuvwxyz "
_FEED_ALPHABET = build_alphabet(set(_GOOD_CHARS + "."))


def _feed_rows(df) -> list:
    df = df.sort_values("batch_id")
    return list(zip(df["batch_id"], df["size"], df["width_x"], df["width_y"],
                    df["x"], df["y"]))


def _want_feed(corpus: pa.Table, epoch: int) -> list:
    """``epoch_feed`` rows in one process: train rows ordered by (epoch
    shuffle key, url), cut into batches of 8 and collated to
    ``INT_EMPTY``-padded int32 id matrices."""
    from post_ocr_corrector_ray import INT_EMPTY
    from post_ocr_corrector_ray.functions.alphabet import Vocab
    from post_ocr_corrector_ray.functions.hashing import hash_u64_array, polyhash_u64_array

    train = corpus.filter(pa.array([s == "train" for s in
                                    corpus.column("split").to_pylist()]))
    # the epoch shuffle key: url hash re-hashed under seed 17 and the epoch
    keys = hash_u64_array(polyhash_u64_array(train.column("url")),
                          seed=17 * 1000003 + epoch).tolist()
    urls = train.column("url").to_pylist()
    order = sorted(range(train.num_rows), key=lambda i: (keys[i], urls[i]))
    v = Vocab(_FEED_ALPHABET)

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
    return want


@pytest.fixture(scope="module")
def pages() -> pa.Table:
    from post_ocr_corrector_ray.sources.synth import pages_batch

    return pages_batch(np.arange(120), seed=3)


@pytest.fixture(scope="module")
def corpus(pages) -> pa.Table:
    """The (url, clean, messy, split) corpus, built row by row in one
    process."""
    from corpus_oracle import oracle_messy
    from post_ocr_corrector_ray.functions.hashing import polyhash_u64
    from post_ocr_corrector_ray.oracle import oracle_extract
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
    from corpus_oracle import oracle_token_counts

    return oracle_token_counts(
        [c for c, s in zip(corpus.column("clean").to_pylist(),
                           corpus.column("split").to_pylist()) if s == "train"])


@pytest.mark.usefixtures("ray_session")
class TestCorpusEvalLayoutInvariance:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_compute_alphabet(self, corpus, blocks):
        from corpus_oracle import oracle_alphabet
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


@pytest.mark.usefixtures("ray_session")
class TestExchangeWidthInvariance:
    """The three ``grouped_apply`` consumers at exchange widths 1 and 3
    (many keys in each partition), 64 (the width of a plan built with no
    Ray session) and 256 (the cap, where most partitions are empty), over
    1, 3, 7 or 16 input blocks: each output equals the single-process
    recompute."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_token_counts_train(self, corpus, blocks, width, exchange_width):
        from post_ocr_corrector_ray.pipelines.corpus import token_counts

        with exchange_width(width):
            df = token_counts(_blocks(corpus, blocks), text_col="clean",
                              split="train").to_pandas()
        assert dict(zip(df["token"], df["frequency"].astype(int))) == \
            _train_counts(corpus)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_build_dictionary(self, corpus, blocks, width, exchange_width):
        from post_ocr_corrector_ray.pipelines.corpus import build_dictionary

        with exchange_width(width):
            got = build_dictionary(_blocks(corpus, blocks), min_frequency=2)
        assert got.vocabulary == \
            {t: c for t, c in _train_counts(corpus).items() if c >= 2}

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_epoch_feed(self, corpus, blocks, width, exchange_width):
        from post_ocr_corrector_ray.pipelines.training import epoch_feed

        with exchange_width(width):
            got = epoch_feed(_blocks(corpus, blocks), alphabet=_FEED_ALPHABET,
                             epoch=1).to_pandas()
        assert _feed_rows(got) == _want_feed(corpus, epoch=1)
