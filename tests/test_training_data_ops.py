"""Training-data extensions: the markup parser."""

import pytest

from post_ocr_corrector_ray.sources.markup import parse_vertical_markup


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
