"""srWaC-style vertical-markup corpus parser — the reference's S1 source,
Ray-native.

Reference (src/corpus/serbian/srwac.py:6-49 + to_plain_text.py:16-28): files of
vertical markup where ``<s>``/``</s>`` delimit sentences, ``<g/>`` marks
"no space before next token", and each token line carries 4 whitespace-
separated fields of which the 1st is the surface form
(``TOKEN_RE = (\\S+)(?:\\s+\\S+){3}``).  Malformed nesting / lines warn and are
skipped, never fatal.

Ray mapping: one file (or one text blob) per task via
``ray.data.read_binary_files`` / ``from_items``; the sentence state machine
runs per blob inside ``map_batches`` (sentences never span files in the
reference either — file order only matters for line numbering, which this
engine replaces with content-keyed ids).  Emits one row per sentence with
validation counters instead of stderr warnings.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions.text import NO_SPACE_TAG, detokenize

SENTENCE_OPEN = "<s>"
SENTENCE_CLOSE = "</s>"
TOKEN_RE = re.compile(r"(\S+)(?:\s+\S+){3}")


def parse_vertical_markup(text: str) -> tuple[list[list[str]], dict[str, int]]:
    """State machine over one markup blob → (sentences as token lists, counters)."""
    sentences: list[list[str]] = []
    counters = {"nested_open": 0, "orphan_close": 0, "bad_line": 0}
    in_sentence = False
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line == SENTENCE_OPEN:
            if in_sentence:
                counters["nested_open"] += 1
            in_sentence = True
            current = []
        elif line == SENTENCE_CLOSE:
            if not in_sentence:
                counters["orphan_close"] += 1
            in_sentence = False
            sentences.append(current)
        elif in_sentence:
            if line == NO_SPACE_TAG:
                current.append(NO_SPACE_TAG)
            else:
                m = TOKEN_RE.fullmatch(line)
                if m is not None:
                    current.append(m.group(1))
                else:
                    counters["bad_line"] += 1
    return sentences, counters


def markup_to_sentences_batch(batch: pa.Table) -> pa.Table:
    """(path, markup) blob rows → sentence rows (path, sentence_idx,
    sentence, n_malformed)."""
    keys_out, idx_out, sent_out = [], [], []
    bad_out = []
    for key, blob in zip(batch.column("path").to_pylist(),
                         batch.column("markup").to_pylist()):
        if isinstance(blob, bytes):
            blob = blob.decode("utf-8")
        sentences, counters = parse_vertical_markup(blob or "")
        n_bad = counters["nested_open"] + counters["orphan_close"] + counters["bad_line"]
        for i, toks in enumerate(sentences):
            keys_out.append(key)
            idx_out.append(i)
            sent_out.append(detokenize(toks))
            bad_out.append(n_bad if i == 0 else 0)
    return pa.table({
        "path": pa.array(keys_out, pa.string()),
        "sentence_idx": pa.array(idx_out, pa.int64()),
        "sentence": pa.array(sent_out, pa.string()),
        "n_malformed": pa.array(bad_out, pa.int64()),
    })


def read_markup_dir(dir_path: str):
    """Dataset of sentences from a directory of vertical-markup files: every
    file that ``input_files`` lists, whatever its name ends in."""
    import ray.data

    from ..state.lineage import input_files

    files = ray.data.read_binary_files(input_files(dir_path, suffix=""),
                                       include_paths=True)

    def to_blob(batch: pa.Table) -> pa.Table:
        return pa.table({"path": batch.column("path"),
                         "markup": batch.column("bytes")})

    blobs = files.map_batches(to_blob, batch_format="pyarrow")
    return blobs.map_batches(markup_to_sentences_batch, batch_format="pyarrow")
