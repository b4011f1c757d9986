"""Pins the neural corrector's arithmetic from outside the engine.

Two independent checks:

- **Golden digests.** sha256 of the float32 logits of a fixed
  ``decode_last_logits`` call (tiny and default hparams) and of the per-url
  corrected bytes of the flagship configuration.  An exact optimization keeps
  all three; a change that is not bit-exact must update them and say so.
  ``python tests/test_golden_digests.py`` prints the current values in the
  form of the constants below, ready to paste.  The constants hold for numpy
  1.26.4 with OpenBLAS 0.3.23 on x86-64 with one BLAS thread; another BLAS
  build or CPU kernel may round differently.
- **A test-only reference decoder.** A literal float64 NumPy transcription of
  ``nn.Transformer(d_model, n_head, n_layers, n_layers, d_linear,
  norm_first=True)`` encode and decode with the reference's embedding,
  sinusoidal positional encoding, two-layer ReLU head and greedy loop
  (reference ``neural_corrector.py:20-105``; see the ``model/transformer.py``
  and ``model/neural.py`` docstrings).  It projects q, k and v separately,
  recomputes every key and value each step and runs the head over every
  position; from the engine it reads only the weight arrays.
"""

from __future__ import annotations

if __name__ == "__main__":  # as a script: conftest's BLAS pinning, the repo root importable
    import os
    import sys

    for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_v, "1")
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from post_ocr_corrector_ray import INT_EMPTY
from post_ocr_corrector_ray.model.neural import DECODE_GROUP, NeuralCorrectorModel
from post_ocr_corrector_ray.oracle import oracle_extract, oracle_extract_correct
from post_ocr_corrector_ray.sources import synth

from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS

DEFAULT_HPARAMS: dict = {}  # d_model 256, n_head 4, 4 + 4 layers, max_len 512
SEED = 7

# Largest |engine float32 logit - reference float64 logit| over the
# agreement cases below: 4.6e-07 at the tiny-sized hparams (``tiny``,
# ``one-layer``, ``dh12``), 1.0e-06 at the default hparams, on logits of
# magnitude up to 2.3.  The tolerance leaves a 10x margin.
LOGIT_TOL = 1e-5

GOLDEN_LOGITS_TINY = "9562966256782b9984dda2f97c32c7dcf39bc85005c610aefc171126d9058db0"
GOLDEN_LOGITS_DEFAULT = "69f8497de3ffc53ef7f4172ccbaeff3fbedc8ec384b4916f0ccf8fd8a31746cc"
GOLDEN_FLAGSHIP_BYTES = "5b85989af8c76b05d1e939bedfd432ce8fdae49622a0d8d0a912345350d5102d"


def _models() -> dict[str, NeuralCorrectorModel]:
    return {
        "tiny": NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=SEED, **TINY_HPARAMS),
        "default": NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=SEED,
                                                  **DEFAULT_HPARAMS),
        # decoder layer 0 is also the last layer
        "one-layer": NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=SEED,
                                                    **dict(TINY_HPARAMS, n_layers=1)),
        # head width 12: sqrt(12) is not a power of two
        "dh12": NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=SEED,
                                               **dict(TINY_HPARAMS, d_model=24, n_head=2)),
    }


@pytest.fixture(scope="module")
def models():
    return _models()


def _flagship_pages():
    return synth.pages_batch(np.arange(24), seed=42)


def _ids(model: NeuralCorrectorModel, texts: list[str]) -> np.ndarray:
    """(B, L) ids; shorter rows padded with the model's pad index."""
    width = max(len(t) for t in texts)
    out = np.full((len(texts), width), model.vocab.pad_index, dtype=np.int64)
    for i, t in enumerate(texts):
        out[i, : len(t)] = model.vocab.encode(t)
    return out


def _target(model: NeuralCorrectorModel, prefixes: list[str]) -> np.ndarray:
    """Decoder input: the bookend start token followed by each prefix, cut to
    its last ``max_len`` ids like the greedy loop's window."""
    body = _ids(model, prefixes)
    start = np.full((body.shape[0], 1), model.vocab.bookend_index, dtype=np.int64)
    return np.concatenate([start, body], axis=1)[:, -model.max_len:]


def _engine_logits(model: NeuralCorrectorModel, src: np.ndarray,
                   tgt: np.ndarray) -> np.ndarray:
    memory = model.net.encode(src)
    return model.net.decode_last_logits(tgt, memory, model.net.precompute_memory_kv(memory))


# -- the reference decoder -----------------------------------------------------


class ReferenceTransformer:
    """float64, one sequence at a time, one head at a time."""

    def __init__(self, model: NeuralCorrectorModel):
        cfg = model.net.cfg
        self.p = {k: np.asarray(v, dtype=np.float64) for k, v in model.net.w.items()
                  if k != "pe"}
        self.d, self.n_head, self.n_layers = cfg.d_model, cfg.n_head, cfg.n_layers
        self.max_len, self.eps = cfg.max_len, cfg.layer_norm_eps
        # PositionalEncoding: pe[pos, 2i] = sin(pos / 10000^(2i/d)), cos at 2i+1
        pos = np.arange(self.max_len, dtype=np.float64)[:, None]
        freq = np.exp(np.arange(0, self.d, 2, dtype=np.float64) * (-math.log(10000.0) / self.d))
        self.pe = np.zeros((self.max_len, self.d))
        self.pe[:, 0::2] = np.sin(pos * freq)
        self.pe[:, 1::2] = np.cos(pos * freq)

    def _linear(self, x, w, b):
        return x @ self.p[w].T + self.p[b]

    def _norm(self, x, name):
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)  # biased, like torch
        return (x - mean) / np.sqrt(var + self.eps) * self.p[f"{name}.g"] + self.p[f"{name}.b"]

    def _attention(self, x, kv, name):
        """nn.MultiheadAttention: separate in-projections, head h owns columns
        [h*dh, (h+1)*dh), scaled dot product, concat, out-projection."""
        q = self._linear(x, f"{name}.wq", f"{name}.bq")
        k = self._linear(kv, f"{name}.wk", f"{name}.bk")
        v = self._linear(kv, f"{name}.wv", f"{name}.bv")
        dh = self.d // self.n_head
        heads = []
        for h in range(self.n_head):
            cols = slice(h * dh, (h + 1) * dh)
            scores = (q[:, cols] / math.sqrt(dh)) @ k[:, cols].T
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            heads.append(weights @ v[:, cols])
        return self._linear(np.concatenate(heads, axis=1), f"{name}.wo", f"{name}.bo")

    def _feed_forward(self, x, pre):
        return self._linear(np.maximum(self._linear(x, f"{pre}.ff.w1", f"{pre}.ff.b1"), 0.0),
                            f"{pre}.ff.w2", f"{pre}.ff.b2")

    def _embed(self, ids, which):
        return self.p[f"emb_{which}"][ids] + self.pe[: len(ids)]

    def encode(self, src: np.ndarray) -> np.ndarray:
        """One sequence (L,) → memory (L, d); no padding mask, like the reference."""
        x = self._embed(src, "src")
        for layer in range(self.n_layers):
            pre = f"enc{layer}"
            h = self._norm(x, f"{pre}.norm0")
            x = x + self._attention(h, h, f"{pre}.attn0")
            x = x + self._feed_forward(self._norm(x, f"{pre}.norm1"), pre)
        return self._norm(x, "enc_final_norm")

    def logits(self, tgt: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """One target prefix (Lt,) → (Lt, vocab) logits; no tgt mask."""
        x = self._embed(tgt, "tgt")
        for layer in range(self.n_layers):
            pre = f"dec{layer}"
            h = self._norm(x, f"{pre}.norm0")
            x = x + self._attention(h, h, f"{pre}.attn0")
            x = x + self._attention(self._norm(x, f"{pre}.norm1"), memory, f"{pre}.attn1")
            x = x + self._feed_forward(self._norm(x, f"{pre}.norm2"), pre)
        x = self._norm(x, "dec_final_norm")
        h = np.maximum(self._linear(x, "head.w1", "head.b1"), 0.0)
        return self._linear(h, "head.w2", "head.b2")

    def last_logits(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Batched (B, Ls), (B, Lt) → (B, vocab) logits of the last position."""
        return np.stack([self.logits(t, self.encode(s))[-1] for s, t in zip(src, tgt)])


# -- golden digests ------------------------------------------------------------


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f4").tobytes()).hexdigest()


def _texts_sha(by_url: dict[str, str]) -> str:
    h = hashlib.sha256()
    for url in sorted(by_url):
        h.update(url.encode() + b"\0" + by_url[url].encode() + b"\0")
    return h.hexdigest()


# (model, source texts, target prefixes) for the fixed logits calls
DIGEST_CALLS = {
    "tiny": ("tiny", ["The quick brown fox jumps over l", "Брза смеђа лисица скаче."],
             ["The quick brown fox", "Брза смеђа"]),
    "default": ("default", ["Seven wizards brew coffee."], ["Seven wiz"]),
}


def _digest_logits(models, case: str) -> np.ndarray:
    name, srcs, prefixes = DIGEST_CALLS[case]
    model = models[name]
    return _engine_logits(model, _ids(model, srcs), _target(model, prefixes))


def _flagship_corrected(models) -> dict[str, str]:
    return oracle_extract_correct(_flagship_pages(), models["tiny"])


@pytest.mark.parametrize("case,want", [("tiny", GOLDEN_LOGITS_TINY),
                                       ("default", GOLDEN_LOGITS_DEFAULT)],
                         ids=["tiny", "default"])
def test_logits_digest(models, case, want):
    logits = _digest_logits(models, case)
    assert logits.dtype == np.float32
    assert _sha(logits) == want


def test_flagship_bytes_digest(models):
    corrected = _flagship_corrected(models)
    assert len(corrected) == 24
    assert _texts_sha(corrected) == GOLDEN_FLAGSHIP_BYTES


# a child process with no BLAS variables set imports this module first, then
# computes the default-hparams digest: the package must pin BLAS to one
# thread before numpy loads, whichever of its modules comes first
_PIN_CHILD = """
import importlib, sys
importlib.import_module(sys.argv[1])
sys.path.insert(0, "tests")
from test_golden_digests import _digest_logits, _models, _sha
print(_sha(_digest_logits(_models(), "default")))
"""


@pytest.mark.parametrize("first", ["post_ocr_corrector_ray.stages.correct",
                                   "post_ocr_corrector_ray.oracle",
                                   "post_ocr_corrector_ray.model.neural",
                                   "post_ocr_corrector_ray.pipelines.extract_correct"])
def test_blas_pin_holds_for_any_import_order(first):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    r = subprocess.run([sys.executable, "-c", _PIN_CHILD, first], cwd=root, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.split()[-1] == GOLDEN_LOGITS_DEFAULT


# -- engine vs reference decoder -----------------------------------------------

AGREEMENT_CASES = {
    "tiny-short": ("tiny", ["The fox."], ["Th"]),
    "tiny-full-window": ("tiny", ["Seven wizards brew strong coffee"],
                         ["Seven wizards brew strong coffe"]),
    "tiny-padded-unknown": ("tiny", ["Lazy dog near oak trees.", "ÿ river"],
                            ["Lazy", "ÿ ri"]),
    "default-short": ("default", ["The quick brown fox."], ["The qu"]),
    "default-cyrillic": ("default", ["Брза смеђа лисица.", "мирне реке"],
                         ["Брза", "ми"]),
    # one decoder layer: the table's query rows are cut to the last position
    "one-layer": ("one-layer", ["Seven wizards brew coffee.", "Брза лисица."],
                  ["Seven wiz", "Брза л"]),
    # dh = 12: the folded 1/sqrt(dh) scale is not exact
    "dh12": ("dh12", ["Quiet river banks.", "мирне реке"], ["Quiet riv", "мир"]),
    # 40 target ids against max_len 32: the window has slid, so position 0
    # holds a text char and not the bookend
    "tiny-slid-window": ("tiny", ["Seven wizards brew strong coffee"],
                         ["Seven wizards brew strong coffee each da"]),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_logits_match_reference(models, case):
    name, srcs, prefixes = AGREEMENT_CASES[case]
    model = models[name]
    src, tgt = _ids(model, srcs), _target(model, prefixes)
    got = _engine_logits(model, src, tgt)
    want = ReferenceTransformer(model).last_logits(src, tgt)
    assert got.shape == want.shape == (len(srcs), model.vocab.vocab_size)
    assert np.abs(got - want).max() < LOGIT_TOL


def _reference_check_greedy(model: NeuralCorrectorModel, src_ids: np.ndarray) -> int:
    """Teacher-forced replay of the reference greedy loop over the engine's
    output: at every step the reference decoder sees the engine's prefix and
    the engine's next id must be the reference argmax wherever the reference's
    top-2 margin exceeds ``LOGIT_TOL``.  Returns the number of checked
    (row, step) pairs."""
    ref = ReferenceTransformer(model)
    v = model.vocab
    bookend, pad = v.bookend_index, v.pad_index
    out = model.greedy_decode(src_ids)
    B, in_length = src_ids.shape
    steps = out.shape[1]
    src = np.where(src_ids == INT_EMPTY, pad, src_ids)
    memories = [ref.encode(s) for s in src]
    seq = np.concatenate([np.full((B, 1), bookend, dtype=np.int64),
                          np.where(out == INT_EMPTY, pad, out)], axis=1)
    terminated = np.zeros(B, dtype=bool)
    unknown = np.zeros(B, dtype=bool)  # termination state no longer decidable
    checked = 0
    for t in range(min(steps + 1, 2 * in_length)):
        window = seq[:, : t + 1][:, -ref.max_len:]
        logits = np.stack([ref.logits(window[b], memories[b])[-1] for b in range(B)])
        top2 = np.sort(logits, axis=1)[:, -2:]
        sure = (top2[:, 1] - top2[:, 0] > LOGIT_TOL) & ~unknown
        want = logits.argmax(axis=1)
        if t == steps:  # the engine stopped early: every row must have ended
            assert np.all(terminated | (want == bookend) | ~sure)
            break
        # a finished row stores pad, and so does the step that emits bookend
        stored = np.where(terminated | (want == bookend), pad, want)
        rows = sure | terminated
        np.testing.assert_array_equal(seq[rows, t + 1], stored[rows])
        checked += int(rows.sum())
        terminated |= sure & (want == bookend)
        unknown |= ~sure & ~terminated & (seq[:, t + 1] == pad)
    return checked


def _flagship_group_rows() -> list[str]:
    """``DECODE_GROUP`` full ``max_len``-char chunks of the flagship pages'
    extracted text: the (32, L) batch shape the flagship decodes, where GEMM
    rounding depends on the row count M."""
    L = TINY_HPARAMS["max_len"]
    rows = [t[i : i + L] for t in oracle_extract(_flagship_pages()).values()
            for i in range(0, len(t) - L + 1, L)]
    assert len(rows) >= DECODE_GROUP
    return rows[:DECODE_GROUP]


GREEDY_CASES = {
    # a full window: 64 steps, so the target slides past max_len
    "tiny": ("tiny", ["Quiet river banks during early s", "Брза лисица."]),
    "tiny-flagship-group": ("tiny", _flagship_group_rows()),
    "default": ("default", ["Gentle rain."]),
}


@pytest.mark.parametrize("case", sorted(GREEDY_CASES))
def test_greedy_ids_match_reference(models, case):
    name, texts = GREEDY_CASES[case]
    model = models[name]
    width = max(len(t) for t in texts)
    src = np.full((len(texts), width), INT_EMPTY, dtype=np.int64)
    for i, t in enumerate(texts):
        src[i, : len(t)] = model.vocab.encode(t)
    checked = _reference_check_greedy(model, src)
    assert checked >= 0.9 * len(texts) * 2 * width


if __name__ == "__main__":
    _ms = _models()
    print(f'GOLDEN_LOGITS_TINY = "{_sha(_digest_logits(_ms, "tiny"))}"')
    print(f'GOLDEN_LOGITS_DEFAULT = "{_sha(_digest_logits(_ms, "default"))}"')
    print(f'GOLDEN_FLAGSHIP_BYTES = "{_texts_sha(_flagship_corrected(_ms))}"')
