"""Text normalization semantics from the reference, as pure functions.

The three functions here define the exact bytes every downstream stage sees:

- ``normalize_whitespace`` — the ``get_line`` read-side contract
  (reference: src/util/data_functions.py:13-28): every run of whitespace
  collapses to a single ASCII space; a leading whitespace run is dropped
  entirely.  A *trailing* run still collapses to one ``" "`` (it is NOT
  stripped — callers that need stripping do it explicitly, exactly like the
  reference call sites).
- ``detokenize`` — ``sentence_to_string`` (reference:
  src/corpus/serbian/to_plain_text.py:16-28): join tokens with single spaces;
  a ``<g/>`` tag glues the next token onto the previous one with no separator.
- ``tokenize_ws`` — ``to_correct.strip().split()`` (reference:
  src/baselines/dictionary_corrector.py:101).

``str.isspace`` semantics (unicode whitespace incl. NBSP, ideographic space,
unicode line separators) are preserved: we normalize with the same predicate.
"""

from __future__ import annotations

import sys

import numpy as np

NO_SPACE_TAG = "<g/>"

# Precompute the full set of codepoints for which str.isspace() is True so the
# vectorized path (numpy over codepoints) agrees byte-for-byte with the
# char-at-a-time oracle path.  ~30 codepoints in all of Unicode.
_WHITESPACE_CODEPOINTS = np.array(
    sorted(cp for cp in range(sys.maxunicode + 1) if chr(cp).isspace()),
    dtype=np.uint32,
)


def normalize_whitespace(text: str) -> str:
    """Collapse every whitespace run to one " "; drop a leading run.

    Reference semantics: src/util/data_functions.py:21-25 (the in-loop branch
    of ``get_line``).  Newlines never survive (they are whitespace); a string
    of only whitespace normalizes to "".
    """
    out: list[str] = []
    prev_space = True  # True so a leading run is dropped (nothing to append after)
    for ch in text:
        if ch.isspace():
            if not prev_space:
                out.append(" ")
                prev_space = True
        else:
            out.append(ch)
            prev_space = False
    return "".join(out)


def str_to_codepoints(text: str) -> np.ndarray:
    """Zero-copy-ish conversion of a Python str to a uint32 codepoint array."""
    if not text:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.uint32, copy=False)


def codepoints_to_str(cps: np.ndarray) -> str:
    if cps.size == 0:
        return ""
    return cps.astype("<u4").tobytes().decode("utf-32-le")


def is_space_mask(cps: np.ndarray) -> np.ndarray:
    """Vectorized ``str.isspace`` over a codepoint array."""
    idx = np.searchsorted(_WHITESPACE_CODEPOINTS, cps)
    idx = np.clip(idx, 0, _WHITESPACE_CODEPOINTS.size - 1)
    return _WHITESPACE_CODEPOINTS[idx] == cps


def normalize_whitespace_vec(text: str) -> str:
    """Vectorized implementation of :func:`normalize_whitespace` (same bytes)."""
    cps = str_to_codepoints(text)
    if cps.size == 0:
        return ""
    space = is_space_mask(cps)
    # Replace every whitespace char with ' '; keep a space only when the
    # previous kept char is not a space; drop the leading run.
    cps = np.where(space, np.uint32(0x20), cps)
    prev_space = np.concatenate(([True], space[:-1]))
    keep = ~(space & prev_space)
    # Drop a leading space that survives because its predecessor was non-space
    # at position 0 — handled by seeding prev_space[0]=True above.
    return codepoints_to_str(cps[keep])


def detokenize(tokens: list[str]) -> str:
    """Join tokens with single spaces; ``<g/>`` glues the next token on.

    Reference semantics: src/corpus/serbian/to_plain_text.py:16-28.  Like the
    reference, a ``<g/>`` appearing before any real token raises IndexError —
    callers guarantee the stream starts with a token.
    """
    parts: list[str] = []
    glue_next = False
    for tok in tokens:
        if tok == NO_SPACE_TAG:
            glue_next = True
            continue
        if glue_next:
            parts[-1] += tok
            glue_next = False
        else:
            parts.append(tok)
    return " ".join(parts)


def tokenize_ws(text: str) -> list[str]:
    """``text.strip().split()`` — the dictionary corrector's tokenizer."""
    return text.strip().split()
