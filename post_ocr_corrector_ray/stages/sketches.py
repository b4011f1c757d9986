"""Mergeable sketches for corpus-scale approximate aggregates.

HyperLogLog distinct-count: the scale twin of an exact COUNT(DISTINCT) —
at 10^12 documents the exact path's shuffle moves one row per distinct key,
while the sketch moves a fixed 2^p-byte register array per *block* and the
driver merges by elementwise max.  Estimation follows the published HLL
formula (Flajolet et al. 2007) with the standard small-range linear-counting
correction; no proprietary variants.

Accuracy contract: relative error ≈ 1.04/sqrt(2^p) (p=12 → ~1.6%), pinned in
tests/test_sketches.py against the exact count on the test corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import polyhash_u64_array


def _hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """uint8[2^p] register array for a batch of uint64 hashes: register
    index = top p bits, value = max leading-zero run (+1) of the rest."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if hashes.size == 0:
        return regs
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = (hashes << np.uint64(p)) | np.uint64((1 << p) - 1)  # sentinel ones
    # rank = leading zeros of `rest` + 1, vectorized via float64 exponent
    # trick being imprecise — use a bit-length loop over the 64-p positions?
    # No: log2 on uint64 loses precision past 2^53.  Shift-compare instead:
    rank = np.ones(len(hashes), dtype=np.uint8)
    cur = rest.copy()
    top = np.uint64(1 << 63)
    for _ in range(64 - p):
        zero_top = (cur & top) == 0
        if not zero_top.any():
            break
        rank = np.where(zero_top, rank + 1, rank).astype(np.uint8)
        cur = np.where(zero_top, cur << np.uint64(1), cur)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected harmonic-mean estimate + linear counting small-range."""
    m = regs.size
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def hll_distinct(ds: ray.data.Dataset, col: str, *, p: int = 12,
                 hash_fn=None) -> pa.Table:
    """Approximate global COUNT(DISTINCT ds[col]) — one register-array row
    per block reaches the driver (shuffle-free); returns a 1-row table
    (estimate: double, p: int64)."""
    hash_fn = hash_fn or (lambda arr: polyhash_u64_array(arr))

    def partial(batch: pa.Table) -> pa.Table:
        col_arr = batch.column(col)
        hashes = hash_fn(col_arr)
        return pa.table({"regs": pa.array([_hll_registers(hashes, p).tobytes()],
                                          pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged = np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8))
    return pa.table({"estimate": pa.array([_hll_estimate(merged)], pa.float64()),
                     "p": pa.array([p], pa.int64())})


def _mg_merge(counters: dict, tokens, counts, k: int) -> None:
    """Misra–Gries merge of (token, count) partials into ``counters``
    in place, keeping at most k entries: add, then decrement all by the
    smallest surplus when over capacity (the standard summary merge — the
    result keeps the MG guarantee: true_freq - N/k ≤ estimate ≤ true_freq)."""
    for t, c in zip(tokens, counts):
        counters[t] = counters.get(t, 0) + int(c)
    if len(counters) > k:
        # decrement by the (k+1)-th largest count so ≤ k survive
        vals = sorted(counters.values(), reverse=True)
        dec = vals[k]
        for t in list(counters):
            c = counters[t] - dec
            if c > 0:
                counters[t] = c
            else:
                del counters[t]


def mg_heavy_hitters(ds: "ray.data.Dataset", col_fn, *, k: int = 256
                     ) -> "pd.DataFrame":
    """Misra–Gries heavy-hitters sketch over the token stream: each block
    reduces to a ≤ k-entry counter summary (vectorized value_counts), the
    driver merges the tiny summaries.  Deterministic for a given block
    layout; the GUARANTEE (any token with true frequency > N/k appears in
    the output, estimates within N/k of truth) holds for every layout —
    the property the pytest pins against the exact counts.  The exact
    shuffled twin is doc_top_tokens; this is its shuffle-FREE approximate
    sibling (the same role hll_distinct plays for COUNT DISTINCT)."""
    import pandas as pd

    def block_summary(batch: pa.Table) -> pa.Table:
        tokens = col_fn(batch)
        cnt = pd.Series(tokens).value_counts()
        counters: dict = {}
        _mg_merge(counters, cnt.index.tolist(), cnt.to_numpy(), k)
        items = sorted(counters.items())
        toks = [t for t, _ in items]
        cs = [c for _, c in items]
        if not items:
            # a summary can empty out entirely after the decrement (> k
            # distinct tokens all with equal counts) — still emit the block's
            # stream total on a null-token sentinel row so n_total (and the
            # N/k guarantee bound) never undercounts
            toks, cs = [None], [0]
        return pa.table({"token": pa.array(toks, pa.string()),
                         "c": pa.array(cs, pa.int64()),
                         "n_stream": pa.array([int(cnt.sum())] + [0] * (len(toks) - 1),
                                              pa.int64())})

    counters: dict = {}
    n_total = 0
    for b in ds.map_batches(block_summary, batch_format="pyarrow") \
               .iter_batches(batch_size=65536, batch_format="pandas"):
        n_total += int(b["n_stream"].sum())
        b = b[b["token"].notna()]  # drop empty-summary sentinel rows
        _mg_merge(counters, b["token"].tolist(), b["c"].to_numpy(), k)
    out = pd.DataFrame(sorted(counters.items()), columns=["token", "est"])
    out["est"] = out["est"].astype("int64")
    out.attrs["n_total"] = n_total
    return out
