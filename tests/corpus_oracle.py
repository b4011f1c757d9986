"""Single-process oracles of the corpus-build steps, for the tests of
``pipelines.corpus``, the ``corpus``/``build-dictionary`` commands and the
dictionary stage: the alphabet, the word counts and the keyed noise, computed
text by text in one process."""

from __future__ import annotations

from collections import Counter

from post_ocr_corrector_ray.functions.noise import mutilate_keyed
from post_ocr_corrector_ray.functions.text import tokenize_ws


def oracle_alphabet(texts: list[str]) -> str:
    """Sorted distinct chars (reference all_chars.py:17-29; \\n excluded by
    construction since normalized text never contains it)."""
    chars: set[str] = set()
    for t in texts:
        chars.update(t)
    return "".join(sorted(chars - {"\n"}))


def oracle_token_counts(texts: list[str]) -> dict[str, int]:
    """Word-frequency vocabulary build (reference dictionary_corrector.py:54-62)."""
    c: Counter[str] = Counter()
    for t in texts:
        c.update(tokenize_ws(t))
    return dict(c)


def oracle_messy(url: str, clean: str, good_chars: str) -> str:
    """Keyed noise (reference mutilate semantics, per-url RNG)."""
    return mutilate_keyed(url, clean, good_chars)
