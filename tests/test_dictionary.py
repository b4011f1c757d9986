"""Dictionary corrector semantics (reference dictionary_corrector.py:48-106)."""

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
    def test_save_load_round_trip(self, corr, tmp_path):
        p = str(tmp_path / "vocab.json")
        corr.save(p)
        loaded = DictionaryCorrector.load(p)
        assert loaded.vocabulary == corr.vocabulary
        assert loaded.min_frequency == corr.min_frequency

    def test_load_rejects_bad_keys(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vocabulary": {}}')
        with pytest.raises(ValueError):
            DictionaryCorrector.load(str(p))

    def test_load_rejects_non_object(self, tmp_path):
        p = tmp_path / "dictionary.json"
        p.write_text('[["fox", 3]]')
        with pytest.raises(ValueError, match="dictionary.json"):
            DictionaryCorrector.load(str(p))
