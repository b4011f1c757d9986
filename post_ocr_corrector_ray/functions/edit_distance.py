"""Damerau-Levenshtein (OSA) edit distances — reference semantics, vectorized.

The reference (src/util/edit_distance.py) implements the *restricted* DL
distance (optimal string alignment: an adjacent transposition costs
``COST_SWAP`` and is taken from ``scores[i-2, j-2]``) with unit costs — NOT the
"true" DL with alphabet bookkeeping (DuckDB's ``damerau_levenshtein`` is the
true one; they differ on e.g. ("ca","abc"): OSA=3, true=2).  Both the full DP
(reference :9-58) and the banded DP (reference :61-123, band half-width
``min(|len diff| + 10, m)``) are reimplemented here with a NumPy-vectorized
inner loop: per DP row, the up/diag/swap candidates are computed as vectors and
the left-insertion dependency is resolved with the classic
``minimum.accumulate`` propagation (valid because indel cost is 1):

    row[j] = min(cand[j], min_{k<j}(cand[k] + (j - k)))
           = min(cand[j], (minimum.accumulate(cand - j))[j-1] + j)

Golden case (reference :134-136): OSA("xxabcdefghijklnmop","abcdefghijklmnop") == 3.
"""

from __future__ import annotations

import numpy as np

COST_INDEL = 1
COST_SUB = 1
COST_SWAP = 1

_BIG = np.int64(1 << 40)  # "infinity" that cannot overflow when + small ints


def _left_propagate(cand: np.ndarray) -> np.ndarray:
    """row[j] = min(cand[j], min_{k<j} cand[k] + (j-k)) for unit indel cost."""
    n = cand.shape[-1]
    j = np.arange(n, dtype=np.int64)
    shifted = np.minimum.accumulate(cand - j, axis=-1)
    out = cand.copy()
    out[..., 1:] = np.minimum(cand[..., 1:], shifted[..., :-1] + j[1:])
    return out


def edit_distance(s1: str, s2: str) -> int:
    """Full OSA DP, identical result to the reference's ``edit_distance``."""
    a = np.frombuffer(s1.encode("utf-32-le"), dtype="<u4") if s1 else np.empty(0, "<u4")
    b = np.frombuffer(s2.encode("utf-32-le"), dtype="<u4") if s2 else np.empty(0, "<u4")
    m, n = len(a), len(b)
    if m == 0:
        return n * COST_INDEL
    if n == 0:
        return m * COST_INDEL
    # rows indexed by chars of s1 (i), columns by chars of s2 (j)
    prev2 = None
    prev = np.arange(n + 1, dtype=np.int64)  # row i=0: all inserts
    for i in range(1, m + 1):
        sub = (a[i - 1] != b).astype(np.int64) * COST_SUB
        cand = np.empty(n + 1, dtype=np.int64)
        cand[0] = prev[0] + COST_INDEL  # only "up" available in column 0
        up = prev[1:] + COST_INDEL
        diag = prev[:-1] + sub
        cand[1:] = np.minimum(up, diag)
        if i >= 2:
            swap_ok = (a[i - 1] == b[:-1]) & (a[i - 2] == b[1:])
            if swap_ok.any():
                swap = prev2[:-2] + COST_SWAP
                cand[2:] = np.minimum(cand[2:], np.where(swap_ok, swap, _BIG))
        row = _left_propagate(cand)
        prev2, prev = prev, row
    return int(prev[-1])


def edit_distance_banded(s1: str, s2: str) -> int:
    """Banded OSA DP matching the reference's ``edit_distance_banded`` exactly.

    The longer string runs horizontally; band half-width
    ``d = min(|len(s1)-len(s2)| + 10, m)``; cells outside the band act as
    infinite walls; the answer is read at the band offset of the corner cell.
    Within the band the same left-propagation trick applies, restarted at the
    band's left wall each row.
    """
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    a = np.frombuffer(s1.encode("utf-32-le"), dtype="<u4") if s1 else np.empty(0, "<u4")
    b = np.frombuffer(s2.encode("utf-32-le"), dtype="<u4") if s2 else np.empty(0, "<u4")
    m, n = len(a), len(b)  # m >= n
    if n == 0:
        return m * COST_INDEL
    d = min((m - n) + 10, m)

    # Represent each DP row over true columns [row-d, row+d] (theoretical band).
    # prev/prev2 are stored over their own band windows; realign by shifting.
    # We materialize rows in *absolute* column space for clarity: a (m+1,) slice
    # window per row is small (width <= 2d+1), so keep full rows of size m+1
    # with _BIG outside the band — simple and still vectorized.
    full = np.full(m + 1, _BIG, dtype=np.int64)
    prev2 = None
    prev = full.copy()
    hi0 = min(d, m)
    prev[0 : hi0 + 1] = np.arange(hi0 + 1, dtype=np.int64) * COST_INDEL
    for row in range(1, n + 1):
        lo = max(row - d, 0)
        hi = min(row + d, m)
        cur = full.copy()
        sub = (a[lo:hi] != b[row - 1]).astype(np.int64) * COST_SUB if hi > lo else np.empty(0, np.int64)
        width = hi - lo + 1
        cand = np.full(width, _BIG, dtype=np.int64)
        # column lo: if lo == 0 only "up" (copy from above); else up/diag as usual
        # up candidate: prev[same abs col] + 1, but the reference bans "up" at
        # the band's right edge (col == width-1 → from_above = inf): absolute
        # col hi equals row-1+d+1 → prev[hi] is outside prev's band and is _BIG
        # already, so no special-casing is needed; same for "left" at the left
        # wall (cand[0] has no left neighbor by construction).
        up = prev[lo : hi + 1] + COST_INDEL
        cand = np.minimum(cand, up)
        if hi > lo:
            diag = prev[lo:hi] + sub
            cand[1:] = np.minimum(cand[1:], diag)
        if row >= 2:
            # swap into abs col c needs c>=2: a[c-1]==b[row-2] and a[c-2]==b[row-1]
            c_start = max(lo, 2)
            if hi >= c_start:
                cols = np.arange(c_start, hi + 1)
                swap_ok = (a[cols - 1] == b[row - 2]) & (a[cols - 2] == b[row - 1])
                swap = prev2[cols - 2] + COST_SWAP
                off = c_start - lo
                cand[off:] = np.minimum(cand[off:], np.where(swap_ok, swap, _BIG))
        cur[lo : hi + 1] = _left_propagate(cand)
        prev2, prev = prev, cur
    return int(prev[m])


def normalized_edit_distance(incorrect: str, correct: str, banded: bool = True) -> float:
    """CER = distance / len(correct); banded by default (reference :126-131).

    Reference call-site split preserved by callers: eval.py:58 passes
    ``banded=False``; the null/dictionary baselines use the banded default.
    Raises ZeroDivisionError on empty ``correct`` exactly like the reference.
    """
    if banded:
        dist = edit_distance_banded(incorrect, correct)
    else:
        dist = edit_distance(incorrect, correct)
    return dist / len(correct)


def edit_distance_batch(query: str, candidates: list[str]) -> np.ndarray:
    """OSA distance from ``query`` to each candidate, DP batched across candidates.

    All candidates are padded to the max candidate length with a sentinel that
    never matches; the DP runs once with an extra leading axis, so the per-cell
    work is NumPy-vectorized across the whole candidate set.  This is the hot
    kernel of the dictionary corrector's nearest-word scan (reference
    dictionary_corrector.py:86-98 does a Python-level scan per vocab entry).
    """
    if not candidates:
        return np.empty(0, dtype=np.int64)
    q = np.frombuffer(query.encode("utf-32-le"), dtype="<u4") if query else np.empty(0, "<u4")
    m = len(q)
    lens = np.array([len(c) for c in candidates], dtype=np.int64)
    n_max = int(lens.max())
    k = len(candidates)
    if n_max == 0:
        return np.full(k, m, dtype=np.int64)
    # pad with distinct impossible sentinels (beyond unicode) — use 0xFFFFFFFF
    cmat = np.full((k, n_max), np.uint32(0xFFFFFFFF), dtype=np.uint32)
    for idx, c in enumerate(candidates):
        if c:
            cmat[idx, : len(c)] = np.frombuffer(c.encode("utf-32-le"), dtype="<u4")
    prev = np.broadcast_to(np.arange(n_max + 1, dtype=np.int64), (k, n_max + 1)).copy()
    prev2 = None
    for i in range(1, m + 1):
        sub = (cmat != q[i - 1]).astype(np.int64)
        cand = np.empty((k, n_max + 1), dtype=np.int64)
        cand[:, 0] = prev[:, 0] + 1
        cand[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + sub)
        if i >= 2:
            swap_ok = (cmat[:, :-1] == q[i - 1]) & (cmat[:, 1:] == q[i - 2])
            swap = prev2[:, :-2] + COST_SWAP
            cand[:, 2:] = np.minimum(cand[:, 2:], np.where(swap_ok, swap, _BIG))
        prev2, prev = prev, _left_propagate(cand)
    return prev[np.arange(k), lens]
