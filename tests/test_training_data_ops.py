"""Training-data extensions: textstats, MinHash dedup, the markup parser."""

import pyarrow as pa
import pytest

from post_ocr_corrector_ray.stages import dedup as dd
from post_ocr_corrector_ray.stages import textstats as ts
from post_ocr_corrector_ray.sources.markup import parse_vertical_markup


def _doc_table(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


class TestTextStats:
    def test_token_stats_per_row_spec(self):
        texts = ["the quick fox", "  a  b  ", "", "word.word, end!"]
        out = ts.token_stats_batch(_doc_table(texts))
        for i, t in enumerate(texts):
            words = t.split()
            assert out.column("n_chars")[i].as_py() == len(t)
            assert out.column("n_words")[i].as_py() == len(words)
            assert out.column("n_punct")[i].as_py() == sum(t.count(c) for c in ".,!?;:")
            if words:
                assert out.column("mean_word_len")[i].as_py() == pytest.approx(
                    sum(len(w) for w in words) / len(words))
                stops = sum(w in ts.STOPWORDS_EN for w in words)
                assert out.column("stop_ratio")[i].as_py() == pytest.approx(stops / len(words))
            else:
                assert out.column("mean_word_len")[i].as_py() == 0.0

    def test_quality_bounds(self):
        out = ts.quality_score_batch(_doc_table(["the cat sat on the mat " * 20, "x"]))
        q = out.column("quality").to_pylist()
        assert all(0.0 <= v <= 1.0 for v in q)
        assert q[0] > q[1]


@pytest.mark.usefixtures("ray_session")
class TestDedup:
    def test_minhash_finds_near_dups(self):
        import ray

        base = "the quick brown fox jumps over the lazy dog and runs far away today"
        texts = [base, base.replace("lazy", "hazy"),           # near-dup pair
                 "completely different content about database engines and arrow",
                 "unrelated words regarding mountains rivers and weather patterns"]
        tbl = _doc_table(texts)
        out = dd.minhash_duplicate_pairs(
            ray.data.from_arrow(tbl), n_hashes=64, bands=32, k_shingle=5,
            jaccard_threshold=0.5).to_pandas()
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 1) in pairs
        assert all(p == (0, 1) for p in pairs)

    def test_incremental_pairs_match_recompute(self):
        """The persisted-signature ingest path (store text never re-read)
        yields exactly the recompute path's pairs, minus store-store pairs —
        the only ones incremental survivor logic provably never consults."""
        import ray.data

        base = "the quick brown fox jumps over the lazy dog and runs far away today"
        other = "completely different content about database engines and arrow"
        store_texts = [base, other,
                       "unrelated words regarding mountains rivers and weather"]
        new_texts = [base.replace("lazy", "hazy"),    # dup of store 0
                     other,                            # exact dup of store 1
                     base.replace("lazy", "hazy"),     # dup of new 100 too
                     "fresh novel text with nothing shared at all whatsoever"]
        store = ray.data.from_arrow(_doc_table(store_texts, ids=[0, 1, 2]))
        new = ray.data.from_arrow(_doc_table(new_texts, ids=[100, 101, 102, 103]))
        kw = dict(n_hashes=64, bands=32, k_shingle=5, jaccard_threshold=0.5)

        full = dd.minhash_duplicate_pairs(store.union(new), **kw).to_pandas()
        want = set(zip(full[full["id_b"] >= 100]["id_a"],
                       full[full["id_b"] >= 100]["id_b"]))
        assert want, "fixture must produce cross-wave pairs"

        bands_ds, sigs_ds = dd.signature_store_tables(
            store, n_hashes=64, bands=32, k_shingle=5)
        inc = dd.minhash_duplicate_pairs_incremental(
            new, bands_ds, sigs_ds, min_new_id=100, **kw).to_pandas()
        got = set(zip(inc["id_a"], inc["id_b"]))
        assert got == want
        assert (inc["id_b"] >= 100).all()  # no store-store pairs emitted

    def test_near_dup_wrappers_never_materialize_on_driver(self, monkeypatch):
        """The near-dup wrapper used to collect the whole corpus into a
        driver dict.  Pin the fix: building the pipeline must not call any
        driver-side materialization API."""
        import ray.data

        from post_ocr_corrector_ray.pipelines import documents as D

        def _boom(self, *a, **k):  # noqa: ANN001
            raise AssertionError("driver-side materialization in wrapper")

        for meth in ("take_all", "take", "to_pandas", "iter_batches",
                     "iter_rows", "materialize"):
            monkeypatch.setattr(ray.data.Dataset, meth, _boom)
        ds1 = D.doc_minhash_pairs("/root/testdata/sf0.001")
        assert isinstance(ds1, ray.data.Dataset)
        monkeypatch.undo()
        # and the lazy pipelines still execute
        assert {"id_a", "id_b", "jaccard"} <= set(ds1.to_pandas().columns)


class TestMarkupParser:
    def test_sentences_and_gluing(self):
        blob = "\n".join([
            "<s>", "Hello\tH\tX\t0", "<g/>", ",\t,\tX\t0", "world\tw\tX\t0", "</s>",
            "<s>", "Second\ts\tX\t0", "sentence\ts\tX\t0", "</s>",
        ])
        sentences, counters = parse_vertical_markup(blob)
        assert sentences == [["Hello", "<g/>", ",", "world"], ["Second", "sentence"]]
        assert counters == {"nested_open": 0, "orphan_close": 0, "bad_line": 0}

    def test_malformed_counted_not_dropped(self):
        blob = "\n".join([
            "</s>",                      # orphan close
            "<s>", "ok\to\tX\t0", "badline", "<s>",  # nested open resets
            "tok\tt\tX\t0", "</s>",
        ])
        sentences, counters = parse_vertical_markup(blob)
        assert counters["orphan_close"] == 1
        assert counters["bad_line"] == 1
        assert counters["nested_open"] == 1
        assert sentences[-1] == ["tok"]

    def test_token_re_first_of_four_fields(self):
        blob = "<s>\nsurface lemma pos extra\n</s>"
        sentences, _ = parse_vertical_markup(blob)
        assert sentences == [["surface"]]


class TestJaccardSpecEquivalence:
    def test_signature_jaccard_equals_text_jaccard(self):
        """The distributed verify scores serialized signatures; the text-based
        helper is the semantic spec — both must agree exactly."""
        from post_ocr_corrector_ray.functions.hashing import shingle_hashes

        pairs = [("the quick brown fox jumps", "the quick brown fox jumped"),
                 ("aaaa", "aaab"), ("", ""), ("x", ""), ("same", "same")]
        for a, b in pairs:
            assert dd.jaccard_from_signatures(
                dd.signature_bytes(shingle_hashes(a, k=5)),
                dd.signature_bytes(shingle_hashes(b, k=5))) == dd._jaccard(a, b, 5)
