"""Dictionary corrector semantics (reference dictionary_corrector.py:48-106)."""

import pyarrow as pa
import pytest

from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector


@pytest.fixture
def corr():
    return DictionaryCorrector(
        {"hello": 10, "world": 5, "help": 3, "word": 4, "rare": 1}, min_frequency=2
    )


class TestLookup:
    def test_in_vocab_passthrough(self, corr):
        assert corr.correct_token("hello") == "hello"

    def test_below_min_frequency_not_passthrough(self, corr):
        # 'rare' has freq 1 < min 2 → treated as unknown AND excluded as candidate
        assert corr.correct_token("rare") != "rare"

    def test_nearest_by_edit_distance(self, corr):
        assert corr.correct_token("helo") == "hello"  # distance 1
        assert corr.correct_token("wrld") == "world"

    def test_frequency_tiebreak(self):
        c = DictionaryCorrector({"cat": 2, "bat": 9}, min_frequency=1)
        # 'aat' is distance 1 from both; higher frequency wins (reference :92)
        assert c.correct_token("aat") == "bat"

    def test_deterministic_tie_order(self):
        # equal score AND equal frequency → canonical (lexicographic) winner
        c = DictionaryCorrector({"zat": 5, "aat": 5}, min_frequency=1)
        assert c.correct_token("bat") == "aat"

    def test_length_prune_correctness(self):
        # pruning must never change the result, only skip work
        vocab = {"a": 1, "abcd": 1, "abcdefgh": 1, "x": 1}
        c = DictionaryCorrector(vocab, min_frequency=1)
        assert c.correct_token("abce") == "abcd"

    def test_memo_consistency(self, corr):
        first = corr.correct_token("helo")
        assert corr.correct_token("helo") == first


class TestSentence:
    def test_correct_sentence(self, corr):
        assert corr.correct_sentence("  helo   wrld ") == "hello world"

    def test_single_space_join(self, corr):
        # output joins with single spaces regardless of input whitespace (reference :106)
        assert corr.correct_sentence("hello\t\tworld") == "hello world"

    def test_empty(self, corr):
        assert corr.correct_sentence("   ") == ""


class TestVocabMaintenance:
    def test_prune(self, corr):
        corr.prune(5)
        assert set(corr.vocabulary) == {"hello", "world"}

    def test_add_counts(self):
        c = DictionaryCorrector()
        c.add_counts({"a": 2})
        c.add_counts({"a": 3, "b": 1})
        assert c.vocabulary == {"a": 5, "b": 1}

    def test_save_load_round_trip(self, corr, tmp_path):
        p = str(tmp_path / "vocab.json")
        corr.save(p)
        loaded = DictionaryCorrector.load(p)
        assert loaded.vocabulary == corr.vocabulary
        assert loaded.min_frequency == corr.min_frequency

    def test_load_rejects_bad_keys(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vocabulary": {}}')
        with pytest.raises(AssertionError):
            DictionaryCorrector.load(str(p))


class TestSweepOptions:
    def test_prune_invalidates_buckets(self):
        from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector

        c = DictionaryCorrector({"aaa": 5, "bbb": 2}, min_frequency=1)
        assert c.correct_token("aab") == "aaa"
        c.prune(3)
        assert "bbb" not in c.vocabulary
        assert c.correct_token("bbb") == "aaa"  # stale memo/buckets would say 'bbb'


@pytest.mark.usefixtures("ray_session")
class TestDictionaryJoinTwin:
    """stages/dictjoin.py: the partitioned token-lookup path must be
    byte-identical to the broadcast DictionaryCorrector (osa metric), at any
    shard count, including empty docs / empty vocab edges."""

    def _corpus(self):
        texts = [
            "the quick brown fox jmps over the lazy dog",
            "teh quick dog jumps   over a brown fox",
            "the lazy dog sleeps",
            "",
            "   ",
            "quick quick fox jumps jmups oevr the dog",
            "zzzzqq the fox",
        ]
        return pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})

    def _expected(self, tbl, min_frequency):
        from collections import Counter

        from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector

        c = Counter()
        for t in tbl.column("text").to_pylist():
            c.update(t.strip().split())
        corr = DictionaryCorrector(dict(c), min_frequency=min_frequency)
        return {i: corr.correct_sentence(t)
                for i, t in zip(tbl.column("doc_id").to_pylist(),
                                tbl.column("text").to_pylist())}

    def test_byte_identity_vs_broadcast_across_shard_counts(self):
        import ray.data

        from post_ocr_corrector_ray.stages.dictjoin import (
            dictionary_correct_joined)
        from post_ocr_corrector_ray.stages.shuffle import grouped_agg

        tbl = self._corpus()
        corpus = ray.data.from_arrow(tbl)

        def tok_partial(batch):
            from collections import Counter
            c = Counter()
            for t in batch.column("text").to_pylist():
                c.update(t.strip().split())
            toks = sorted(c)
            return pa.table({"token": pa.array(toks, pa.string()),
                             "frequency": pa.array([c[t] for t in toks],
                                                   pa.int64())})

        vocab = grouped_agg(
            corpus.map_batches(tok_partial, batch_format="pyarrow"),
            ["token"], {"frequency": ("frequency", "sum")}, num_partitions=4)
        want = self._expected(tbl, min_frequency=2)
        for shards in (1, 3, 8):
            got = dictionary_correct_joined(
                corpus, vocab, id_col="doc_id", text_col="text",
                min_frequency=2, vocab_shards=shards, metric="osa",
                num_partitions=4).to_pandas()
            got_map = dict(zip(got["doc_id"], got["corrected"]))
            assert got_map == want, f"shards={shards}"

    def test_empty_vocab_passes_raw_through(self):
        import ray.data

        from post_ocr_corrector_ray.stages.dictjoin import (
            dictionary_correct_joined)

        tbl = self._corpus()
        corpus = ray.data.from_arrow(tbl)
        vocab = ray.data.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "frequency": pa.array([], pa.int64())}))
        got = dictionary_correct_joined(
            corpus, vocab, id_col="doc_id", text_col="text",
            min_frequency=2, num_partitions=4).to_pandas()
        got_map = dict(zip(got["doc_id"], got["corrected"]))
        want = {i: " ".join(t.strip().split())
                for i, t in zip(tbl.column("doc_id").to_pylist(),
                                tbl.column("text").to_pylist())}
        assert got_map == want

    def test_lev_vs_osa_swap_word(self):
        import ray.data

        from post_ocr_corrector_ray.stages.dictjoin import (
            dictionary_correct_joined)

        corpus = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(["ab"], pa.string())}))
        vocab = ray.data.from_arrow(pa.table({
            "token": pa.array(["ba", "abc"], pa.string()),
            "frequency": pa.array([2, 2], pa.int64())}))
        osa = dictionary_correct_joined(
            corpus, vocab, id_col="doc_id", text_col="text",
            metric="osa", num_partitions=2).to_pandas()
        lev = dictionary_correct_joined(
            corpus, vocab, id_col="doc_id", text_col="text",
            metric="lev", num_partitions=2).to_pandas()
        assert osa["corrected"].iloc[0] == "ba"    # swap: d(ab,ba)=1 < d=1 abc tie? no: d(ab,abc)=1 insert
        # osa: ba=1 (swap), abc=1 (insert) → tie, equal freq → |Δlen|: ba Δ0 < abc Δ1 → ba
        # lev: ba=2 (two subs), abc=1 → abc
        assert lev["corrected"].iloc[0] == "abc"
