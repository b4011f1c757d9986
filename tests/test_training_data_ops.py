"""Training-data extensions: textstats and the markup parser."""

import pyarrow as pa
import pytest

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
