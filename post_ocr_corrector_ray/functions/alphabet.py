"""Char vocabulary (alphabet) semantics + vectorized encode/decode.

Reference contract:
- the alphabet is the string of distinct corpus chars in sorted order; a
  char's index within that string IS its token id (src/corpus/all_chars.py:17-29,
  src/util/data_functions.py:63-67 — ``\\n`` is stripped and never in the
  alphabet);
- three specials appended *after* the alphabet, in this order:
  ``unk = len(alphabet)``, ``bookend = +1``, ``pad = +2``;
  ``vocab_size = len(alphabet) + 3`` (src/model/neural_corrector.py:37-41);
- encoding maps unknown chars to ``unk`` (``text_to_tensor``,
  src/util/data_functions.py:31-39); decoding stops a sequence at the first
  ``INT_EMPTY`` and maps ``unk``/out-of-range ids to U+FFFD
  (``tensor_to_texts``, src/model/neural_corrector.py:107-126).

Because the alphabet is sorted-distinct, its codepoints are strictly
increasing, so ``str.find(char)`` equals a binary search — encoding is a
vectorized ``searchsorted`` over codepoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import INT_EMPTY, UNK


def build_alphabet(chars: set[str] | str) -> str:
    """Sorted distinct chars, with ``\\n`` excluded (it never survives
    whitespace normalization, and get_alphabet strips it on read)."""
    return "".join(sorted(set(chars) - {"\n"}))


@dataclass(frozen=True)
class Vocab:
    alphabet: str

    @property
    def unk_index(self) -> int:
        return len(self.alphabet)

    @property
    def bookend_index(self) -> int:
        return len(self.alphabet) + 1

    @property
    def pad_index(self) -> int:
        return len(self.alphabet) + 2

    @property
    def vocab_size(self) -> int:
        return len(self.alphabet) + 3

    def _codepoints(self) -> np.ndarray:
        return np.frombuffer(self.alphabet.encode("utf-32-le"), dtype="<u4").astype(np.uint32)

    def encode(self, text: str) -> np.ndarray:
        """``text_to_tensor`` semantics: char → id, unknown → unk_index."""
        if not text:
            return np.empty(0, dtype=np.int64)
        acps = self._codepoints()
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.uint32)
        idx = np.searchsorted(acps, cps).astype(np.int64)
        if acps.size:
            idx_c = np.clip(idx, 0, acps.size - 1)
            known = acps[idx_c] == cps
            idx = np.where(known, idx_c, np.int64(self.unk_index))
        else:
            idx = np.full(cps.size, self.unk_index, dtype=np.int64)
        return idx

    def decode(self, ids: np.ndarray) -> str:
        """``tensor_to_texts`` semantics for one sequence: stop at the first
        INT_EMPTY; unk and out-of-range ids become U+FFFD."""
        ids = np.asarray(ids)
        stops = np.nonzero(ids == INT_EMPTY)[0]
        if stops.size:
            ids = ids[: stops[0]]
        out: list[str] = []
        alpha = self.alphabet
        n = len(alpha)
        for i in ids.tolist():
            if 0 <= i < n:
                out.append(alpha[i])
            else:
                out.append(UNK)
        return "".join(out)
