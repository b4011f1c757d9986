"""Character-level neural corrector with the reference's decode semantics.

Reproduces ``NeuralCorrector.correct`` / ``forward`` (reference
src/model/neural_corrector.py:71-150) on the NumPy transformer:

- inputs chunked into ``max_len``-char windows per text (:138-141);
- each chunk batch greedy-decoded from a ``bookend`` start token, one argmax
  token at a time, with per-sequence termination on bookend, termination
  forcing pad thereafter, and a hard stop at ``2 × in_length`` generated
  context (:83-102);
- when the growing target exceeds ``max_len`` only the last ``max_len`` tokens
  feed the decoder (:87-88);
- decoder self-attention is UNMASKED during generation (no tgt_mask at :92) —
  so every decoder layer but the last re-runs the whole prefix every step,
  like the reference; the last layer computes only the final position's
  output, the one the argmax reads (``Transformer.decode_last_logits``);
- output ids map back to text with unk/out-of-range → U+FFFD and sequences
  stopping at the first INT_EMPTY (:107-126).

Determinism under parallelism (SURVEY.md §7.4.1): the reference encoder takes
no src padding mask, so with cross-document micro-batches the output bytes
depend on which documents share a batch.  This engine therefore pins
**per-document batching**: ``correct_document`` processes one document's
chunks with batch size 1 per chunk — output is a pure function of the document
text, invariant to partitioning, Ray batch size, and actor count.  The
reference's cross-document ``correct(texts)`` micro-batch path lives in the
tests, as a parity check on ``greedy_decode``.
"""

from __future__ import annotations

import numpy as np

from .. import INT_EMPTY
from ..functions.alphabet import Vocab
from .transformer import Transformer, TransformerConfig, TransformerWeights

# Fixed decode micro-batch: full max_len chunks decode in groups of exactly
# this many.  The group boundary is a pure function of the document (chunks
# [0, G), [G, 2G), ...), so the batch shapes fed to BLAS never depend on how
# documents are batched — float results (and therefore argmax/bytes) are
# reproducible bit-for-bit (GEMM results vary with M).
# Also bounds decode memory: one giant page never builds a (n_chunks × L)
# attention problem bigger than (G × L).
DECODE_GROUP = 32


class NeuralCorrectorModel:
    def __init__(self, alphabet: str, weights: TransformerWeights):
        self.vocab = Vocab(alphabet)
        cfg = weights.config
        if cfg.vocab_size != self.vocab.vocab_size:
            raise ValueError(f"weights vocab_size {cfg.vocab_size} != alphabet "
                             f"vocab {self.vocab.vocab_size}")
        self.alphabet = alphabet
        self.max_len = cfg.max_len
        self.net = Transformer(weights)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_seed(cls, alphabet: str, seed: int = 42, *, max_len: int = 512,
                  d_model: int = 256, n_head: int = 4, n_layers: int = 4,
                  d_linear: int = 256, layer_norm_eps: float = 2e-5) -> "NeuralCorrectorModel":
        vocab = Vocab(alphabet)
        cfg = TransformerConfig(
            vocab_size=vocab.vocab_size, max_len=max_len, d_model=d_model,
            n_head=n_head, n_layers=n_layers, d_linear=d_linear,
            layer_norm_eps=layer_norm_eps, pad_index=vocab.pad_index,
        )
        return cls(alphabet, TransformerWeights.create(cfg, seed=seed))

    @classmethod
    def load(cls, npz_path: str, alphabet: str) -> "NeuralCorrectorModel":
        return cls(alphabet, TransformerWeights.load_npz(npz_path))

    def save(self, npz_path: str) -> None:
        TransformerWeights(config=self.net.cfg, params=self.net.w).save_npz(npz_path)

    # -- decode ---------------------------------------------------------------

    def greedy_decode(self, src_ids: np.ndarray) -> np.ndarray:
        """(B, L) int64 with INT_EMPTY padding → (B, L') generated ids with
        INT_EMPTY padding; reference ``forward`` semantics."""
        v = self.vocab
        if src_ids.shape[1] > self.max_len:
            src_ids = src_ids[:, : self.max_len]
        B, in_length = src_ids.shape
        src = np.where(src_ids == INT_EMPTY, v.pad_index, src_ids)
        memory = self.net.encode(src)
        mem_kv = self.net.precompute_memory_kv(memory)
        sequence = np.full((B, 1), v.bookend_index, dtype=np.int64)
        terminated = np.zeros(B, dtype=bool)
        while sequence.shape[1] <= 2 * in_length:
            window = sequence[:, -self.max_len:] if sequence.shape[1] > self.max_len else sequence
            logits = self.net.decode_last_logits(window, memory, mem_kv)
            new = logits.argmax(axis=1).astype(np.int64)
            terminated = terminated | (new == v.bookend_index)
            if terminated.all():
                break
            new[terminated] = v.pad_index
            sequence = np.concatenate([sequence, new[:, None]], axis=1)
        out = sequence[:, 1:]  # drop the starting bookend
        return np.where(out == v.pad_index, INT_EMPTY, out)

    # -- correction -----------------------------------------------------------

    def correct_document(self, text: str) -> str:
        """Pinned per-document path: batch composition is a pure function of
        the document, so output bytes are invariant to Ray batch size,
        partitioning, and actor count (SURVEY.md §7.4.1 — the encoder takes no
        padding mask, so cross-document batches would leak neighbors' padding
        into the result).

        Full ``max_len`` chunks decode in fixed groups of ``DECODE_GROUP``
        (uniform length — no padding exists), the short tail chunk decodes
        alone."""
        if text == "":
            return ""
        L = self.max_len
        G = DECODE_GROUP
        n_full = len(text) // L
        outs: list[str] = [""] * ((n_full + 1) if len(text) % L else n_full)
        for g0 in range(0, n_full, G):
            g1 = min(g0 + G, n_full)
            ids = np.stack([self.vocab.encode(text[i * L : (i + 1) * L])
                            for i in range(g0, g1)])  # (<=G, L)
            decoded = self.greedy_decode(ids)
            for row, i in enumerate(range(g0, g1)):
                outs[i] = self.vocab.decode(decoded[row])
        tail = text[n_full * L :]
        if tail:
            out = self.greedy_decode(self.vocab.encode(tail)[None, :])
            outs[-1] = self.vocab.decode(out[0])
        return "".join(outs)

