"""Neural corrector decode semantics + determinism (SURVEY.md §5)."""

import tracemalloc
from math import ceil

import numpy as np
import pytest

from post_ocr_corrector_ray import INT_EMPTY
from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel
from post_ocr_corrector_ray.model.transformer import (
    TransformerWeights, _layer_norm, _softmax, sinusoidal_pe)

ALPHA = build_alphabet("abcdefghijklmnopqrstuvwxyz .,!ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def reference_correct(model: NeuralCorrectorModel, texts: list[str],
                      batch_size: int) -> list[str]:
    """The reference's ``correct`` (neural_corrector.py:128-150) over
    ``greedy_decode``: cross-document micro-batches of ``batch_size`` texts,
    chunk i of every text in a batch decoded together, INT_EMPTY-padded.  The
    pipeline runs ``correct_document`` instead; this is its parity check."""
    out_all: list[str] = []
    L = model.max_len
    for lo in range(0, len(texts), batch_size):
        batch_texts = texts[lo : lo + batch_size]
        out_chunks: list[list[str]] = [[] for _ in batch_texts]
        for chunk_num in range(ceil(max(len(x) for x in batch_texts) / L)):
            in_chunks = [t[chunk_num * L : (chunk_num + 1) * L] for t in batch_texts]
            ids = np.full((len(in_chunks), max(len(c) for c in in_chunks)), INT_EMPTY,
                          dtype=np.int64)
            for i, c in enumerate(in_chunks):
                if c:
                    ids[i, : len(c)] = model.vocab.encode(c)
            decoded = model.greedy_decode(ids)
            for i, in_c in enumerate(in_chunks):
                if in_c != "":
                    out_chunks[i].append(model.vocab.decode(decoded[i]))
        out_all += ["".join(c) for c in out_chunks]
    return out_all


@pytest.fixture(scope="module")
def model(tiny_hparams):
    return NeuralCorrectorModel.from_seed(ALPHA, seed=7, **tiny_hparams)


class TestDeterminism:
    def test_same_input_same_bytes(self, model):
        text = "This is a thing. " * 5
        assert model.correct_document(text) == model.correct_document(text)

    def test_fresh_model_same_bytes(self, model, tiny_hparams):
        other = NeuralCorrectorModel.from_seed(ALPHA, seed=7, **tiny_hparams)
        text = "Deterministic output please."
        assert model.correct_document(text) == other.correct_document(text)

    def test_npz_round_trip(self, model, tmp_path):
        path = str(tmp_path / "m.npz")
        model.save(path)
        loaded = NeuralCorrectorModel.load(path, ALPHA)
        text = "Round trip me."
        assert loaded.correct_document(text) == model.correct_document(text)
        assert loaded.net.cfg == model.net.cfg

    def test_output_independent_of_neighbors(self, model):
        """Per-document batching: a doc's bytes don't change with co-batched docs."""
        doc = "The fox jumps."
        alone = model.correct_document(doc)
        for neighbors in (["aaa"], ["bbbb", "cc"], ["x" * 40]):
            outs = [model.correct_document(t) for t in [*neighbors, doc]]
            assert outs[-1] == alone


class TestDecodeSemantics:
    def test_chunking_concatenates(self, model):
        """A doc longer than max_len decodes as independent max_len chunks."""
        L = model.max_len
        text = "abcdef. " * 10  # 80 chars > max_len=16
        chunks = [text[i : i + L] for i in range(0, len(text), L)]
        want = "".join(model.correct_document(c) for c in chunks)
        assert model.correct_document(text) == want

    def test_empty_input(self, model):
        assert model.correct_document("") == ""

    def test_chunk_independence(self, model):
        """Basis of chunk-parallel skew handling: per-chunk correction
        concatenated equals whole-document correction byte-for-byte."""
        L = model.max_len
        text = "The quick brown fox jumps over the lazy dog. " * 6
        chunks = [text[i : i + L] for i in range(0, len(text), L)]
        assert "".join(model.correct_document(c) for c in chunks) == \
            model.correct_document(text)

    def test_decode_cap(self, model):
        # generated length ≤ 2 × input length (reference neural_corrector.py:85)
        for text in ("ab", "hello!", "x" * 16):
            out = model.correct_document(text)
            assert len(out) <= 2 * len(text)

    def test_greedy_decode_shapes(self, model):
        ids = model.vocab.encode("hello")[None, :]
        out = model.greedy_decode(ids)
        assert out.ndim == 2 and out.shape[0] == 1

    def test_truncation_over_max_len(self, model):
        # sequences beyond max_len are truncated inside greedy_decode
        ids = model.vocab.encode("a" * 50)[None, :]
        out = model.greedy_decode(ids)
        assert out.shape[1] <= 2 * model.max_len + 1

    def test_int_empty_padding_handled(self, model):
        v = model.vocab
        ids = np.full((2, 6), INT_EMPTY, dtype=np.int64)
        ids[0, :4] = v.encode("abcd")
        ids[1, :6] = v.encode("abcdef")
        out = model.greedy_decode(ids)
        texts = [v.decode(row) for row in out]
        assert len(texts) == 2

    def test_reference_batch_path_single_equals_per_doc(self, model):
        """The reference's correct([doc]) at batch_size=1 equals
        correct_document(doc): both run the doc's chunks at batch=1 with no
        padding."""
        for text in ("Short.", "Longer text that spans multiple chunks easily here."):
            assert reference_correct(model, [text], batch_size=1) == \
                [model.correct_document(text)]


class TestWeights:
    def test_create_deterministic(self, tiny_hparams):
        a = NeuralCorrectorModel.from_seed(ALPHA, seed=3, **tiny_hparams)
        b = NeuralCorrectorModel.from_seed(ALPHA, seed=3, **tiny_hparams)
        for k in a.net.w:
            np.testing.assert_array_equal(a.net.w[k], b.net.w[k])

    def test_pad_embedding_row_zero(self, model):
        v = model.vocab
        assert not model.net.w["emb_src"][v.pad_index].any()
        assert not model.net.w["emb_tgt"][v.pad_index].any()

    def test_positional_encoding_values(self):
        pe = sinusoidal_pe(8, 4)
        assert pe.shape == (8, 4)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1], atol=1e-6)
        np.testing.assert_allclose(pe[1, 0], np.sin(1.0), rtol=1e-5)


class TestInPlaceKernels:
    """``_layer_norm`` and ``_softmax`` work in place on their own temporaries;
    the bits must equal the plain NumPy expressions written out below, and
    the caller's array must be left alone."""

    SHAPES = [(3, 7, 256), (4, 1, 32), (4, 2, 1, 33)]  # (B,L,D), (B,1,D), (B,H,1,L)

    @pytest.mark.parametrize("shape", SHAPES, ids=["BLD", "B1D", "BH1L"])
    def test_layer_norm_bits(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(0.0, 2.0, size=shape).astype(np.float32)
        g = rng.normal(1.0, 0.1, size=shape[-1]).astype(np.float32)
        b = rng.normal(0.0, 0.1, size=shape[-1]).astype(np.float32)
        before = x.copy()
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 2e-5) * g + b
        got = _layer_norm(x, g, b, 2e-5)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=["BLD", "B1D", "BH1L"])
    def test_softmax_bits(self, shape):
        rng = np.random.default_rng(10 + len(shape))
        x = rng.normal(0.0, 3.0, size=shape).astype(np.float32)
        before = x.copy()
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=-1, keepdims=True)
        got = _softmax(x, axis=-1)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()


class TestDecodeGroupBound:
    """``correct_document`` decodes full chunks in groups of at most
    ``DECODE_GROUP`` rows and the tail alone, so one giant page never builds
    a decode problem bigger than ``DECODE_GROUP × max_len``."""

    @pytest.mark.parametrize("n_full", [0, 31, 32, 33, 65],
                             ids=["0", "G-1", "G", "G+1", "2G+1"])
    def test_calls_and_rows(self, monkeypatch, n_full):
        from __ray_entry__ import TINY_HPARAMS

        from post_ocr_corrector_ray.model.neural import DECODE_GROUP as G

        assert G == 32  # the ids above are written for it
        m = NeuralCorrectorModel.from_seed(ALPHA, seed=7, **TINY_HPARAMS)
        L = m.max_len
        rng = np.random.default_rng(n_full)
        text = "".join(rng.choice(list("abcdefgh ."), size=n_full * L + 5))
        rows = []
        real = m.greedy_decode

        def spy(ids):
            rows.append(ids.shape)
            return real(ids)

        monkeypatch.setattr(m, "greedy_decode", spy)
        m.correct_document(text)
        assert max(r for r, _ in rows) <= G
        assert len(rows) == -(-n_full // G) + 1
        assert rows[-1] == (1, 5)                      # the tail, alone
        assert sum(r for r, _ in rows[:-1]) == n_full
        assert all(w == L for _, w in rows[:-1])


class TestDecodeMemoryBound:
    """Decode memory is bounded by the group, not the page: a page of three
    full ``DECODE_GROUP``s peaks within 1.25x of a page of one."""

    def test_peak_does_not_grow_with_page_length(self):
        from __ray_entry__ import TINY_HPARAMS

        from post_ocr_corrector_ray.model.neural import DECODE_GROUP as G

        m = NeuralCorrectorModel.from_seed(ALPHA, seed=7, **TINY_HPARAMS)
        rng = np.random.default_rng(0)
        page = "".join(rng.choice(list("abcdefgh ."), size=3 * G * m.max_len))
        m.correct_document(page[: m.max_len])  # first-call allocations stay out

        def peak(n_groups: int) -> int:
            tracemalloc.start()
            try:
                m.correct_document(page[: n_groups * G * m.max_len])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(1), peak(3)
        assert three <= 1.25 * one, (one, three)
