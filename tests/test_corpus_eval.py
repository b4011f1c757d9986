"""Corpus-build pipeline (alphabet, vocab groupby, noise, split) + eval CER."""

import numpy as np
import pyarrow as pa
import pytest

from corpus_oracle import oracle_alphabet, oracle_messy, oracle_token_counts
from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.oracle import oracle_extract
from post_ocr_corrector_ray.pipelines.corpus import (
    build_dictionary,
    compute_alphabet,
    corpus_from_pages,
    pick_split,
    split_of,
    token_counts,
)
from post_ocr_corrector_ray.pipelines.evaluate import evaluate
from post_ocr_corrector_ray.sources.synth import pages_batch

N = 60


@pytest.fixture(scope="module")
def pages_table():
    return pages_batch(np.arange(N), seed=42)


@pytest.fixture(scope="module")
def corpus_ds(ray_session, pages_table):
    import ray.data

    good = "abcdefghijklmnopqrstuvwxyz "
    return corpus_from_pages(ray.data.from_arrow(pages_table), good_chars=good), good


@pytest.mark.usefixtures("ray_session")
class TestCorpusBuild:
    def test_pick_split_mapping(self):
        # reference make_split_csv.py:23-32
        assert pick_split(9) == "validation"
        assert pick_split(0) == "test"
        assert all(pick_split(r) == "train" for r in range(1, 9))
        rems = np.arange(10, dtype=np.uint64)
        assert split_of(rems).to_pylist() == [pick_split(int(r)) for r in rems]

    def test_corpus_columns_and_split_determinism(self, corpus_ds):
        ds, _ = corpus_ds
        df = ds.to_pandas()
        assert set(df.columns) == {"url", "clean", "messy", "split"}
        df2 = ds.to_pandas()
        assert df.sort_values("url").reset_index(drop=True).equals(
            df2.sort_values("url").reset_index(drop=True))

    def test_clean_matches_oracle_extract(self, corpus_ds, pages_table):
        ds, _ = corpus_ds
        df = ds.to_pandas()
        want = oracle_extract(pages_table)
        assert dict(zip(df["url"], df["clean"])) == want

    def test_messy_matches_keyed_oracle(self, corpus_ds):
        ds, good = corpus_ds
        df = ds.to_pandas()
        for _, row in df.head(20).iterrows():
            assert row["messy"] == oracle_messy(row["url"], row["clean"].strip(), good)

    def test_alphabet_matches_oracle(self, corpus_ds, pages_table):
        ds, _ = corpus_ds
        got = compute_alphabet(ds, text_col="clean")
        want = oracle_alphabet(list(oracle_extract(pages_table).values()))
        assert got == want
        assert got == build_alphabet(got)  # sorted distinct, no newline

    def test_token_counts_match_oracle(self, corpus_ds, pages_table):
        ds, _ = corpus_ds
        counts = token_counts(ds, text_col="clean", split=None).to_pandas()
        got = dict(zip(counts["token"], counts["frequency"].astype(int)))
        want = oracle_token_counts(list(oracle_extract(pages_table).values()))
        assert got == want

    def test_split_filtered_counts(self, corpus_ds):
        ds, _ = corpus_ds
        train = token_counts(ds, text_col="clean", split="train").to_pandas()
        full = token_counts(ds, text_col="clean", split=None).to_pandas()
        assert train["frequency"].sum() <= full["frequency"].sum()

    def test_build_dictionary(self, corpus_ds):
        ds, _ = corpus_ds
        corr = build_dictionary(ds, text_col="clean", split=None, min_frequency=2)
        assert len(corr.vocabulary) > 0
        tok = max(corr.vocabulary, key=corr.vocabulary.get)
        assert corr.correct_token(tok) == tok


@pytest.mark.usefixtures("ray_session")
class TestEvaluate:
    def test_null_corrector_perfect(self):
        import ray.data

        tbl = pa.table({"corrected_text": ["abc", "def"], "clean": ["abc", "def"]})
        res = evaluate(ray.data.from_arrow(tbl), banded=False)
        assert res.mean_cer == 0.0 and res.percent_perfect == 1.0 and res.n == 2

    def test_known_cer(self):
        import ray.data

        # "ab" vs "abcd": distance 2, len(correct)=4 → cer 0.5
        tbl = pa.table({"corrected_text": ["ab", "xyz"], "clean": ["abcd", "xyz"]})
        res = evaluate(ray.data.from_arrow(tbl), banded=False)
        assert res.mean_cer == pytest.approx(0.25)
        assert res.percent_perfect == pytest.approx(0.5)

    def test_empty_reference_skipped(self):
        import ray.data

        # eval.py:52-53 skips rows with empty reference
        tbl = pa.table({"corrected_text": ["x", "ab", "q"], "clean": ["", "ab", None]})
        res = evaluate(ray.data.from_arrow(tbl), banded=False)
        assert res.n == 1 and res.percent_perfect == 1.0
