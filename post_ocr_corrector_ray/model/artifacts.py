"""Model-directory artifacts mirroring the reference's conventions.

Reference layout (src/model/__init__.py:1-3, src/corpus/__init__.py:1-5):
``hyperparameters.json`` (read by the reference at src/util/data_functions.py:79-82),
char files whose newline is stripped on read (``get_alphabet``,
data_functions.py:63-67), and per-model checkpoint files.  This engine's
model dir::

    model_dir/
      alphabet.txt           # the char vocabulary string (newlines stripped on read)
      weights.npz            # TransformerWeights artifact, transformer config included
      dictionary.json        # optional DictionaryCorrector state

It has no ``hyperparameters.json``: the transformer config travels inside
``weights.npz`` (``TransformerWeights.save_npz``), and the reference's
``batch_size`` sizes a cross-document micro-batch this engine does not run.

``cli run`` reads ``alphabet.txt`` and hands ``weights.npz`` (neural) or the
dictionary's vocabulary (dictionary) to the corrector actors, which load it
once in ``__init__``.  ``cli convert-ckpt`` writes the neural files
(``save_model_dir``); ``DictionaryCorrector.save`` writes ``dictionary.json``.
"""

from __future__ import annotations

import os

from .dictionary import DictionaryCorrector
from .neural import NeuralCorrectorModel

ALPHABET_FILE = "alphabet.txt"
WEIGHTS_FILE = "weights.npz"
DICTIONARY_FILE = "dictionary.json"


def read_alphabet(model_dir: str) -> str:
    """``get_alphabet`` semantics: file content with every newline removed
    (data_functions.py:66 — \\n may appear if the file is wrapped, but is
    never part of the alphabet)."""
    with open(os.path.join(model_dir, ALPHABET_FILE), encoding="utf-8") as f:
        return f.read().replace("\n", "")


def save_model_dir(model_dir: str, model: NeuralCorrectorModel) -> None:
    """Write the neural files of a model dir, each atomically."""
    from ..state.lineage import write_atomic

    os.makedirs(model_dir, exist_ok=True)
    write_atomic(os.path.join(model_dir, ALPHABET_FILE), model.alphabet)
    model.save(os.path.join(model_dir, WEIGHTS_FILE))


def load_dictionary(model_dir: str) -> DictionaryCorrector:
    return DictionaryCorrector.load(os.path.join(model_dir, DICTIONARY_FILE))
