"""Noise model (keyed RNG) + alphabet/vocab round-trip tests."""

import random

import numpy as np
import pytest

from post_ocr_corrector_ray import INT_EMPTY, UNK
from post_ocr_corrector_ray.functions.alphabet import Vocab, build_alphabet
from post_ocr_corrector_ray.functions.noise import (
    EDIT_CHANCE,
    INSERT_CHANCE,
    mutilate_keyed,
    mutilate_string,
)

GOOD = "abcdefghijklmnopqrstuvwxyz "


class TestNoise:
    def test_keyed_determinism(self):
        a = mutilate_keyed("https://x/1", "hello world", GOOD)
        b = mutilate_keyed("https://x/1", "hello world", GOOD)
        assert a == b

    def test_different_keys_differ(self):
        outs = {mutilate_keyed(f"u{i}", "the quick brown fox jumps over the lazy dog", GOOD)
                for i in range(50)}
        assert len(outs) > 40  # overwhelmingly distinct noise per key

    def test_matches_reference_process(self):
        """Same seeded RNG ⇒ byte-identical output to the reference's
        mutilate_string decision sequence (re-run of the published process)."""

        def reference_process(text, good_chars, rng):
            # independent re-statement of make_messy_dataset.py:25-62
            n = len(text)
            out = []
            i = 0
            while i < n:
                if rng.uniform(0.0, 1.0) < 0.12:
                    k = rng.choice([0, 1, 2, 3])
                    if k == 0:
                        i += 1
                    elif k == 1:
                        out.append(rng.choice(good_chars)); i += 1
                    elif k == 2:
                        out.append(rng.choice(good_chars))
                    else:
                        out.append(text[i + 1] if i + 1 < n else " ")
                        out.append(text[i]); i += 2
                else:
                    out.append(text[i]); i += 1
            while rng.uniform(0.0, 1.0) < 0.03:
                out.append(rng.choice(good_chars))
            return "".join(out)

        text = "the quick brown fox jumps over the lazy dog" * 3
        for seed in (0, 1, 42, 999):
            assert mutilate_string(text, GOOD, random.Random(seed)) == \
                reference_process(text, GOOD, random.Random(seed))

    def test_edit_rate_statistics(self):
        # ~12% of chars edited; average length roughly preserved
        text = "abcdefghij " * 200
        outs = [mutilate_keyed(f"k{i}", text, GOOD) for i in range(30)]
        mean_len = sum(map(len, outs)) / len(outs)
        assert abs(mean_len - len(text)) / len(text) < 0.05
        assert EDIT_CHANCE == 0.12 and INSERT_CHANCE == 0.03


class TestAlphabet:
    def test_build_sorted_distinct(self):
        assert build_alphabet("banana\n") == "abn"
        assert build_alphabet({"b", "a", "\n"}) == "ab"

    def test_special_indices(self):
        v = Vocab("abc")
        assert (v.unk_index, v.bookend_index, v.pad_index, v.vocab_size) == (3, 4, 5, 6)

    def test_encode_matches_str_find(self):
        # text_to_tensor semantics: alphabet.find(char), -1 → unk
        alpha = build_alphabet("hello world ћирилица")
        v = Vocab(alpha)
        text = "hello ћао THERE"
        ids = v.encode(text)
        want = [alpha.find(c) if alpha.find(c) != -1 else v.unk_index for c in text]
        assert ids.tolist() == want

    def test_round_trip(self):
        alpha = build_alphabet("abcdef ")
        v = Vocab(alpha)
        assert v.decode(v.encode("fade cafe")) == "fade cafe"

    def test_unknown_decodes_to_replacement(self):
        v = Vocab("abc")
        ids = v.encode("axb")
        assert v.decode(ids) == "a" + UNK + "b"

    def test_decode_stops_at_int_empty(self):
        v = Vocab("abc")
        assert v.decode(np.array([0, 1, INT_EMPTY, 2])) == "ab"

    def test_decode_out_of_range_is_unk(self):
        v = Vocab("abc")
        # bookend/pad indices (4, 5) → UNK, like reference tensor_to_texts IndexError path
        assert v.decode(np.array([0, 4, 5])) == "a" + UNK + UNK

    def test_empty_alphabet(self):
        v = Vocab("")
        assert v.encode("xy").tolist() == [0, 0]
        assert v.decode(v.encode("xy")) == UNK + UNK
