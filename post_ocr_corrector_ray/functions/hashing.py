"""Stable hashing utilities.

Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so nothing
here may use it: every hash must be identical across driver, workers, and
reruns.  All hashes are blake2b-based (stdlib, fast, keyed).
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_hash_u64(key: str) -> int:
    """Deterministic 64-bit hash of a string (process-independent)."""
    h = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


_POLY_P = 1099511628211  # FNV prime; uint64 wraparound polynomial base


def polyhash_u64(data: bytes) -> int:
    """Sequential (Horner) form of the vectorized polynomial string hash —
    ``polyhash_u64_array`` MUST produce exactly these values (pytest-pinned).
    """
    acc = 0
    for b in data:
        acc = (acc * _POLY_P + b) & 0xFFFFFFFFFFFFFFFF
    mixed = hash_u64_array(
        np.array([acc ^ len(data)], dtype=np.uint64), seed=0x9A97)
    return int(mixed[0])


def polyhash_u64_array(arr) -> np.ndarray:
    """Vectorized deterministic hash of a pyarrow string array (UTF-8 bytes,
    positional polynomial + splitmix finalizer; no per-row Python).

    Σ byte_j · p^(end−1−j) over each row's byte range equals the Horner chain
    in ``polyhash_u64``; computed with one power table + ``add.reduceat``.
    """
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_binary())
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset : arr.offset + n + 1]
    lens = np.diff(offsets)
    flat = np.frombuffer(bufs[2], dtype=np.uint8)[offsets[0] : offsets[-1]] \
        .astype(np.uint64)
    maxlen = int(lens.max()) if n else 0
    pows = np.ones(maxlen + 1, dtype=np.uint64)
    if maxlen:
        np.multiply.accumulate(
            np.full(maxlen, _POLY_P, dtype=np.uint64), out=pows[1:])
    acc = np.zeros(n, dtype=np.uint64)
    if flat.size:
        row_of = np.repeat(np.arange(n), lens)
        pos = np.arange(offsets[0], offsets[-1])
        exp = (offsets[1:][row_of] - 1 - pos).astype(np.int64)
        vals = flat * pows[exp]
        starts = (offsets[:-1] - offsets[0])
        acc = np.add.reduceat(np.concatenate((vals, np.zeros(1, np.uint64))),
                              starts)
        acc[lens == 0] = np.uint64(0)
    return hash_u64_array(acc ^ lens.astype(np.uint64), seed=0x9A97)


def partition_of(key: str, num_partitions: int) -> int:
    """Deterministic partition assignment — the resume/lineage unit.

    Polynomial string hash (identical scalar/vectorized values); the hot
    pipeline path uses ``partition_of_array`` on whole Arrow batches."""
    return polyhash_u64(key.encode("utf-8")) % num_partitions


def partition_of_array(arr, num_partitions: int) -> np.ndarray:
    """Vectorized ``partition_of`` over a pyarrow string array."""
    return (polyhash_u64_array(arr) % np.uint64(num_partitions)).astype(np.int64)


# --- vectorized multiply-shift hashing ---------------------------------------


def hash_u64_array(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized universal hash of a uint64 array for a given seed.

    Splitmix64-style mix with a seed-derived odd multiplier; fully
    deterministic.
    """
    mult = (0x9E3779B97F4A7C15 * (seed * 2 + 1)) & 0xFFFFFFFFFFFFFFFF  # wraparound in python int
    x = values.astype(np.uint64) + np.uint64(mult)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x

