"""Model-directory artifacts mirroring the reference's conventions.

Reference layout (src/model/__init__.py:1-3, src/corpus/__init__.py:1-5):
``hyperparameters.json`` (read by the reference at src/util/data_functions.py:79-82),
char files whose newline is stripped on read (``get_alphabet``,
data_functions.py:63-67), and per-model checkpoint files.  This engine's
model dir::

    model_dir/
      hyperparameters.json   # transformer config + batch_size (reference layout)
      alphabet.txt           # the char vocabulary string (newlines stripped on read)
      weights.npz            # TransformerWeights artifact
      dictionary.json        # optional DictionaryCorrector state

``cli run`` reads ``alphabet.txt`` and hands ``weights.npz`` (neural) or the
dictionary's vocabulary (dictionary) to the corrector actors, which load it
once in ``__init__``.  ``cli convert-ckpt`` writes the neural files
(``save_model_dir``); ``DictionaryCorrector.save`` writes ``dictionary.json``.
"""

from __future__ import annotations

import json
import os

from .dictionary import DictionaryCorrector
from .neural import NeuralCorrectorModel

HYPERPARAMS_FILE = "hyperparameters.json"
ALPHABET_FILE = "alphabet.txt"
WEIGHTS_FILE = "weights.npz"
DICTIONARY_FILE = "dictionary.json"

_HPARAM_KEYS = ("max_len", "d_model", "n_head", "n_layers", "d_linear",
                "layer_norm_eps")


def read_alphabet(model_dir: str) -> str:
    """``get_alphabet`` semantics: file content with every newline removed
    (data_functions.py:66 — \\n may appear if the file is wrapped, but is
    never part of the alphabet)."""
    with open(os.path.join(model_dir, ALPHABET_FILE), encoding="utf-8") as f:
        return f.read().replace("\n", "")


def save_model_dir(model_dir: str, model: NeuralCorrectorModel) -> dict:
    """Write the neural files of a model dir; returns the written hparams."""
    os.makedirs(model_dir, exist_ok=True)
    cfg = model.net.cfg
    hparams = {k: getattr(cfg, k) for k in _HPARAM_KEYS}
    hparams["batch_size"] = model.batch_size
    with open(os.path.join(model_dir, HYPERPARAMS_FILE), "w", encoding="utf-8") as f:
        json.dump(hparams, f, indent=2)
    with open(os.path.join(model_dir, ALPHABET_FILE), "w", encoding="utf-8") as f:
        f.write(model.alphabet)
    model.save(os.path.join(model_dir, WEIGHTS_FILE))
    return hparams


def load_dictionary(model_dir: str) -> DictionaryCorrector:
    return DictionaryCorrector.load(os.path.join(model_dir, DICTIONARY_FILE))
