"""Corrector stages — stateful actor-pool ``map_batches`` callables.

Mirrors the reference's implicit corrector interface (str→str /
List[str]→List[str]; SURVEY.md §2.10) as callable classes: model state is
loaded ONCE per actor in ``__init__`` (the Ray-Data-idiomatic replacement for
the reference's ``ray.put(self)`` broadcast + manual ``ray.wait`` window,
dictionary_corrector.py:126-145), work happens per Arrow batch in ``__call__``.

Use with::

    ds.map_batches(NeuralCorrectorStage, fn_constructor_kwargs=dict(...),
                   batch_format="pyarrow", batch_size=B, concurrency=(lo, hi))
"""

from __future__ import annotations

import pyarrow as pa

import ray

from ..model.dictionary import DictionaryCorrector
from ..model.neural import NeuralCorrectorModel

TEXT_COL = "extracted_text"
OUT_COL = "corrected_text"


def _append_str_column(batch: pa.Table, name: str, values: list[str]) -> pa.Table:
    return batch.append_column(name, pa.array(values, pa.string()))


class NullCorrectorStage:
    """Identity corrector — the eval control (reference null_corrector.py:16-42)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column(OUT_COL, batch.column(TEXT_COL))


class NeuralCorrectorStage:
    """Char-level seq2seq correction; weights loaded once per actor.

    Construct from an ``.npz`` artifact (preferred: every actor loads the same
    bytes) or deterministically from (alphabet, seed, hyperparameters).
    Per-document decode (``correct_document``) keeps output bytes invariant to
    batch composition — see model/neural.py docstring.
    """

    def __init__(self, *, alphabet: str, model_path: str | None = None,
                 seed: int = 42, hparams: dict | None = None):
        if model_path is not None:
            self.model = NeuralCorrectorModel.load(model_path, alphabet)
        else:
            self.model = NeuralCorrectorModel.from_seed(alphabet, seed=seed, **(hparams or {}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(TEXT_COL).to_pylist()
        corrected = [self.model.correct_document(t or "") for t in texts]
        return _append_str_column(batch, OUT_COL, corrected)


class DictionaryCorrectorStage:
    """Token-frequency correction; the vocab map is the broadcast small side.

    ``vocab_ref`` may be a ``ray.ObjectRef`` (``ray.put`` once on the driver —
    zero-copy shared across all actors on a node) or a plain dict for tests.
    The per-actor memo cache amortizes the nearest-word scan across repeated
    unknown tokens.
    """

    def __init__(self, *, vocab_ref=None, min_frequency: int = 2,
                 text_col: str = TEXT_COL):
        vocab = ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
        self.corrector = DictionaryCorrector(vocab or {}, min_frequency=min_frequency)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        corrected = [self.corrector.correct_sentence(t or "") for t in texts]
        return _append_str_column(batch, OUT_COL, corrected)
