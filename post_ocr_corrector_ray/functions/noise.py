"""The OCR-noise model ("mutilate") with a per-row keyed RNG.

Decision-for-decision the same stochastic process as the reference's
``mutilate_string`` (src/corpus/make_messy_dataset.py:25-62): per input char,
with probability ``EDIT_CHANCE`` pick uniformly among DELETE / CHANGE (random
good char) / INSERT (random good char, keep the original) / SWAP (adjacent
transpose; a space stands in when at the end); then a geometric tail of
INSERTs with probability ``INSERT_CHANCE``.

The reference draws from the *global* ``random`` stream, which makes output
depend on row processing order — unreproducible under parallelism.  Here every
row gets its own ``random.Random(seed)`` keyed by a stable 64-bit hash of its
key (url), so output is a pure function of (key, text, good_chars) and is
invariant to partitioning, batch size, and actor count.  For the same seeded
generator the draw sequence (uniform, choice, choice...) is identical to the
reference's, so a single-process run of the reference code seeded the same way
produces the same bytes.
"""

from __future__ import annotations

import random

from .hashing import stable_hash_u64

EDIT_CHANCE = 0.12
N_EDIT_TYPES = 4  # DELETE, CHANGE, INSERT, SWAP
INSERT_CHANCE = EDIT_CHANCE / N_EDIT_TYPES

# Order matters: random.choice over this list must pick with the same indices
# as the reference's ``random.choice(list(EditType))`` (auto() enum order).
_DELETE, _CHANGE, _INSERT, _SWAP = 0, 1, 2, 3
_EDIT_TYPES = [_DELETE, _CHANGE, _INSERT, _SWAP]


def mutilate_string(text: str, good_chars: str, rng: random.Random) -> str:
    """Apply the reference noise process using the supplied RNG."""
    n = len(text)
    out: list[str] = []
    i = 0
    while i < n:
        if rng.uniform(0.0, 1.0) < EDIT_CHANCE:
            edit = rng.choice(_EDIT_TYPES)
            if edit == _DELETE:
                i += 1
            elif edit == _CHANGE:
                out.append(rng.choice(good_chars))
                i += 1
            elif edit == _INSERT:
                out.append(rng.choice(good_chars))
                # i unchanged: the real char still gets copied next iteration
            else:  # _SWAP
                if i + 1 < n:
                    out.append(text[i + 1])
                else:
                    out.append(" ")
                out.append(text[i])
                i += 2
        else:
            out.append(text[i])
            i += 1
    while rng.uniform(0.0, 1.0) < INSERT_CHANCE:
        out.append(rng.choice(good_chars))
    return "".join(out)


def mutilate_keyed(key: str, text: str, good_chars: str) -> str:
    """Mutilate with an RNG seeded from ``stable_hash_u64(key)``."""
    rng = random.Random(stable_hash_u64(key))
    return mutilate_string(text, good_chars, rng)
