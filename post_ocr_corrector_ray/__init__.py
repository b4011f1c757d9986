"""post_ocr_corrector_ray — a Ray-Data-native web-text extraction + post-OCR correction engine.

A from-scratch engine with the data-processing capabilities of the reference
repo rkechols/post-OCR-corrector (surveyed in /root/repo/SURVEY.md), re-expressed
Ray-Data-first: ``ray.data.Dataset`` pipelines of zero-copy Arrow batches,
stateless ``map_batches`` task stages for parsing/extraction/normalization, and
actor-pool stages for the stateful correctors.

Layout
------
- ``functions/`` — pure, deterministic scalar/vector kernels (the byte-identical
  contract): whitespace normalization, detokenization, edit distances, the keyed
  noise model, char-vocabulary encoding, hashing, text statistics.
- ``model/``     — the NumPy character-level seq2seq corrector (the container has
  no torch; the reference architecture + decode semantics are reimplemented in
  NumPy, see ``model/transformer.py``).
- ``sources/``   — deterministic synthetic page generation, parquet IO helpers,
  the srWaC-style markup parser.
- ``stages/``    — Ray Data ``map_batches`` stage callables (tasks + actor pools).
- ``pipelines/`` — assembled Dataset pipelines (flagship extract+correct, corpus
  build, evaluation).
- ``state/``     — per-partition lineage records + checkpoint/resume manifests.

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions are owned
by the caller (tests, bench.py, the driver).
"""

import os

# Pin BLAS to one thread before any module of the package imports numpy.
# OpenBLAS reads these once, when it loads, and its thread count changes the
# float reductions (the default-hparams logits move by up to 8.9e-7 at two
# threads against one), so a pin set after ``import pyarrow`` comes too late.
for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_v, "1")

__version__ = "0.1.0"

# Sentinel used by the reference for "no token" padding outside the model
# (reference: src/util/__init__.py:2) and the replacement char for unknowns
# (reference: src/util/__init__.py:3).
INT_EMPTY = -1
UNK = "�"
