"""Dictionary (word-frequency) corrector — reference semantics, vectorized scan.

Reference: src/baselines/dictionary_corrector.py:48-106.

- Vocabulary = ``{token: frequency}`` built from the train-split clean corpus
  by whitespace tokenization (``text.strip().split()``, :58) — in this engine
  the counting is a Ray ``groupby("token").sum`` (see pipelines/corpus.py);
  this class holds the resulting small-side map (broadcast once per actor).
- A token present with ``frequency >= min_frequency`` passes through (:80).
- Otherwise the nearest vocabulary word by OSA edit distance wins, with a
  length-difference lower-bound prune (``|len(a)-len(b)| > best`` skip, :89-90)
  and frequency as tiebreak (:92).

Deterministic tie order (documented deviation): the reference breaks
(score, frequency) ties by dict *insertion order* — an artifact of sequential
corpus order that no parallel build can reproduce.  This engine pins the
canonical order: ties broken by lexicographically smallest token.  The oracle
(oracle.py) applies the same rule, so per-url byte-identity holds.

The scan is vectorized: vocabulary tokens are bucketed by length; buckets are
visited in increasing ``|len - len(query)|`` (so the length prune becomes a
bucket-level early exit), and each bucket is scored in one batched NumPy DP
(``edit_distance_batch``).  Results are memoized per unknown token.
"""

from __future__ import annotations

import json

import numpy as np

from ..functions.edit_distance import edit_distance_batch
from ..functions.text import tokenize_ws


class DictionaryCorrector:
    def __init__(self, vocabulary: dict[str, int] | None = None, min_frequency: int = 2):
        self.min_frequency = min_frequency
        self.vocabulary: dict[str, int] = dict(vocabulary or {})
        self._buckets: dict[int, tuple[list[str], np.ndarray]] | None = None
        self._memo: dict[str, str] = {}

    def _build_buckets(self) -> dict[int, tuple[list[str], np.ndarray]]:
        if self._buckets is None:
            by_len: dict[int, list[tuple[str, int]]] = {}
            for tok, freq in self.vocabulary.items():
                if freq < self.min_frequency:
                    continue  # reference skips low-freq entries during the scan (:87-88)
                by_len.setdefault(len(tok), []).append((tok, freq))
            buckets: dict[int, tuple[list[str], np.ndarray]] = {}
            for ln, pairs in by_len.items():
                pairs.sort(key=lambda p: p[0])  # canonical token order
                buckets[ln] = ([t for t, _ in pairs],
                               np.array([f for _, f in pairs], dtype=np.int64))
            self._buckets = buckets
        return self._buckets

    # -- inference ------------------------------------------------------------

    def correct_token(self, raw_token: str) -> str | None:
        freq = self.vocabulary.get(raw_token)
        if freq is not None and freq >= self.min_frequency:
            return raw_token
        hit = self._memo.get(raw_token)
        if hit is not None:
            return hit
        buckets = self._build_buckets()
        if not buckets:
            return None  # empty vocab → reference returns best_token=None
        qlen = len(raw_token)
        best_tok: str | None = None
        best_score = np.int64(1 << 40)
        best_freq = np.int64(-1)
        # visit length buckets nearest-first; stop once |len diff| > best score
        for ln in sorted(buckets, key=lambda L: (abs(L - qlen), L)):
            if best_tok is not None and abs(ln - qlen) > best_score:
                break
            toks, freqs = buckets[ln]
            scores = edit_distance_batch(raw_token, toks)
            # candidate order within bucket is canonical (sorted tokens);
            # pick min (score, -freq, token) across everything seen so far
            i = int(np.lexsort((np.arange(len(toks)), -freqs, scores))[0])
            s, f = scores[i], freqs[i]
            if s < best_score or (s == best_score and f > best_freq):
                best_tok, best_score, best_freq = toks[i], s, f
        self._memo[raw_token] = best_tok
        return best_tok

    def correct_sentence(self, to_correct: str) -> str:
        """Reference ``__call__`` (:100-106): tokenize, correct each, join with
        single spaces.  With an empty vocabulary the reference returns None per
        token and then crashes in the join — this engine passes the raw token
        through instead (documented deviation; unreachable in real pipelines)."""
        out = []
        for tok in tokenize_ws(to_correct):
            corrected = self.correct_token(tok)
            out.append(tok if corrected is None else corrected)
        return " ".join(out)

    # -- artifacts ------------------------------------------------------------

    def save(self, file_path: str) -> None:
        from ..state.lineage import write_atomic

        write_atomic(file_path, {"min_frequency": self.min_frequency,
                                 "vocabulary": self.vocabulary})

    @classmethod
    def load(cls, file_path: str) -> "DictionaryCorrector":
        with open(file_path, "r", encoding="utf-8") as f:
            state = json.load(f)
        expected = {"min_frequency", "vocabulary"}
        if not isinstance(state, dict) or set(state) != expected:
            got = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(f"{file_path}: expected a JSON object with keys "
                             f"{sorted(expected)}, got {got}")
        return cls(vocabulary=state["vocabulary"], min_frequency=state["min_frequency"])

