"""Training feed: the CorrectorDataset+DataLoader analog
(reference corrector_dataset.py:16-51, neural_corrector.py:216-226,
data_functions.py:57-60) as a deterministic distributed epoch stream."""

import numpy as np
import pyarrow as pa
import pytest

from post_ocr_corrector_ray import INT_EMPTY
from post_ocr_corrector_ray.functions.alphabet import Vocab, build_alphabet
from post_ocr_corrector_ray.pipelines.training import FEED_SCHEMA, epoch_feed

ALPHABET = build_alphabet(set("abcdefghijklmnopqrstuvwxyz ."))


def _corpus_table(n=37):
    rng = np.random.default_rng(5)
    words = ["oak", "fox", "dog", "river", "stone", "brew"]
    clean = [" ".join(rng.choice(words, size=rng.integers(2, 7)).tolist())
             for _ in range(n)]
    messy = [c.replace("o", "0") if i % 3 == 0 else c
             for i, c in enumerate(clean)]
    return pa.table({
        "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
        "clean": pa.array(clean, pa.string()),
        "messy": pa.array(messy, pa.string()),
        "split": pa.array(["train"] * n, pa.string())})


def _feed_df(ds):
    return ds.to_pandas().sort_values("batch_id").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestEpochFeed:
    def test_exact_batch_sizes_and_coverage(self):
        import ray.data

        tbl = _corpus_table(37)
        out = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                  batch_size=8))
        assert out["size"].tolist() == [8, 8, 8, 8, 5]   # 37 = 4×8 + 5
        assert out["batch_id"].tolist() == [0, 1, 2, 3, 4]

    def test_parallelism_invariant(self):
        import ray.data

        tbl = _corpus_table(37)
        a = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                batch_size=8))
        b = _feed_df(epoch_feed(ray.data.from_arrow(tbl).repartition(11),
                                alphabet=ALPHABET, batch_size=8))
        assert a.equals(b)

    def test_collate_matches_reference_semantics(self):
        """Batch content == pad-to-widest INT_EMPTY collate of the permuted
        example list (data_functions.py collate_sequences, row-major here)."""
        import ray.data

        tbl = _corpus_table(19)
        out = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                  batch_size=4))
        v = Vocab(ALPHABET)
        row = out.iloc[0]
        x = np.frombuffer(row["x"], dtype="<i4").astype(np.int64).reshape(row["size"], row["width_x"])
        widths = (x != INT_EMPTY).argmin(axis=1)  # first pad position
        for i in range(row["size"]):
            seq = x[i][x[i] != INT_EMPTY]
            assert (x[i][len(seq):] == INT_EMPTY).all()
            assert len(v.decode(seq)) == len(seq)
        assert row["width_x"] == max((x[i] != INT_EMPTY).sum() for i in range(row["size"]))

    def test_epochs_reshuffle_deterministically(self):
        import ray.data

        tbl = _corpus_table(24)
        e0 = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                 batch_size=6, epoch=0))
        e0b = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                  batch_size=6, epoch=0))
        e1 = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                 batch_size=6, epoch=1))
        assert e0.equals(e0b)
        assert not e0.equals(e1)                  # different permutation
        # same example multiset across epochs (padding stripped)
        def multiset(df):
            seqs = []
            for _, r in df.iterrows():
                x = np.frombuffer(r["x"], dtype="<i4").astype(
                    np.int64).reshape(r["size"], r["width_x"])
                seqs += [tuple(row[row != INT_EMPTY]) for row in x]
            return sorted(seqs)
        assert multiset(e0) == multiset(e1)

    def test_split_filter(self):
        import ray.data

        tbl = _corpus_table(20)
        split = ["train" if i % 2 else "test" for i in range(20)]
        tbl = tbl.set_column(3, "split", pa.array(split, pa.string()))
        out = _feed_df(epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET,
                                  batch_size=4, split="train"))
        assert out["size"].sum() == 10

    def test_empty_split_gives_no_batches(self):
        import ray.data

        tbl = _corpus_table(6)
        tbl = tbl.set_column(3, "split", pa.array(["test"] * 6, pa.string()))
        ds = epoch_feed(ray.data.from_arrow(tbl), alphabet=ALPHABET, batch_size=4)
        assert ds.count() == 0
        assert len(ds.to_pandas()) == 0
        assert ds.schema().base_schema == FEED_SCHEMA

    def test_one_row_gives_one_batch(self):
        import ray.data

        out = _feed_df(epoch_feed(ray.data.from_arrow(_corpus_table(1)),
                                  alphabet=ALPHABET, batch_size=4))
        assert out["batch_id"].tolist() == [0]
        assert out["size"].tolist() == [1]

    def test_one_exchange_and_no_driver_pass(self, monkeypatch):
        """Sort, number and collate: one ``grouped_apply`` (the collation)
        and no ``take_all`` on the driver."""
        import ray.data

        from post_ocr_corrector_ray.stages import shuffle

        calls = {"grouped_apply": 0, "take_all": 0}
        real_apply, real_take_all = shuffle.grouped_apply, ray.data.Dataset.take_all

        def counting_apply(*a, **kw):
            calls["grouped_apply"] += 1
            return real_apply(*a, **kw)

        def counting_take_all(*a, **kw):
            calls["take_all"] += 1
            return real_take_all(*a, **kw)

        monkeypatch.setattr(shuffle, "grouped_apply", counting_apply)
        monkeypatch.setattr(ray.data.Dataset, "take_all", counting_take_all)
        out = _feed_df(epoch_feed(ray.data.from_arrow(_corpus_table(37)),
                                  alphabet=ALPHABET, batch_size=8))
        assert out["size"].tolist() == [8, 8, 8, 8, 5]
        assert calls == {"grouped_apply": 1, "take_all": 0}


@pytest.mark.usefixtures("ray_session")
def test_zip_pairs_rows_by_position():
    """``epoch_feed`` numbers its sorted rows by zipping them with
    ``range(n)``, which is exact only if Ray keeps block order in a plan
    holding a Zip.  Here the later blocks of one side finish first; the
    rows must still pair by position."""
    import time

    import ray.data

    def slow_early(batch):
        time.sleep(0.2 * (1 - batch["id"].min() / 4000))   # earliest ids last
        return {"rid": batch["id"]}

    left = ray.data.range(4000, override_num_blocks=1)
    right = ray.data.range(4000, override_num_blocks=16).map_batches(
        slow_early, batch_size=None)
    df = left.zip(right).to_pandas()
    assert len(df) == 4000
    assert (df["id"].to_numpy() == df["rid"].to_numpy()).all()
