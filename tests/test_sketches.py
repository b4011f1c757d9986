"""HyperLogLog distinct-count sketch (stages/sketches.py)."""

import numpy as np
import pyarrow as pa

import pytest

from post_ocr_corrector_ray.stages.sketches import (
    _hll_estimate,
    _hll_registers,
    _mg_merge,
    hll_distinct,
)


def _naive_registers(hashes, p):
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    for h in hashes:
        h = int(h)
        idx = h >> (64 - p)
        rest = ((h << p) | ((1 << p) - 1)) & ((1 << 64) - 1)
        rank = 1
        for b in range(63, -1, -1):
            if rest & (1 << b):
                break
            rank += 1
        regs[idx] = max(regs[idx], rank)
    return regs


def test_registers_match_naive():
    rng = np.random.default_rng(3)
    hashes = rng.integers(0, 2 ** 64, size=500, dtype=np.uint64)
    for p in (4, 12):
        np.testing.assert_array_equal(_hll_registers(hashes, p),
                                      _naive_registers(hashes, p))


def test_register_merge_is_max():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2 ** 64, size=300, dtype=np.uint64)
    b = rng.integers(0, 2 ** 64, size=300, dtype=np.uint64)
    merged = np.maximum(_hll_registers(a, 10), _hll_registers(b, 10))
    np.testing.assert_array_equal(
        merged, _hll_registers(np.concatenate([a, b]), 10))


def test_estimate_accuracy_bound():
    # true uniform-hash model: error ≤ 5σ where σ = 1.04/sqrt(m)
    rng = np.random.default_rng(5)
    for n in (100, 5_000, 200_000):
        hashes = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        est = _hll_estimate(_hll_registers(hashes, 12))
        assert abs(est - n) / n < 5 * 1.04 / np.sqrt(4096), (n, est)


def test_hll_distinct_vs_exact_on_strings(ray_session):
    import ray.data

    vals = [f"token-{i % 7000}" for i in range(30_000)]
    ds = ray.data.from_arrow(pa.table({"token": pa.array(vals, pa.string())}))
    out = hll_distinct(ds, "token", p=12)
    est = out.column("estimate")[0].as_py()
    assert abs(est - 7000) / 7000 < 0.05, est


def test_hll_distinct_empty(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"token": pa.array([], pa.string())}))
    est = hll_distinct(ds, "token", p=8).column("estimate")[0].as_py()
    assert est == 0.0


def test_mg_empty_summary_still_counts_stream(ray_session):
    """A block whose Misra-Gries summary empties out after the decrement
    (> k distinct tokens, all equal counts) must still contribute its token
    count to n_total — the N/k guarantee bound depends on N being exact."""
    import ray.data

    from post_ocr_corrector_ray.stages.sketches import mg_heavy_hitters

    n = 3000
    toks = pa.table({"text": pa.array([f"tok{i:05d}" for i in range(n)],
                                      pa.string())})

    def col_fn(batch):
        return batch.column("text").to_pylist()

    out = mg_heavy_hitters(ray.data.from_arrow(toks), col_fn, k=16)
    assert out.attrs["n_total"] == n
    # no sentinel rows leak into the result
    assert out["token"].notna().all()


@pytest.mark.parametrize("p", [6, 8, 10, 14])
def test_estimate_accuracy_across_precisions(p):
    """Both estimator regimes at each width: linear counting (n ≪ m) and
    the harmonic mean (n ≫ m), each within 5σ, σ = 1.04/sqrt(m)."""
    m = 1 << p
    rng = np.random.default_rng(p)
    for n in (max(m // 10, 5), 20 * m):
        hashes = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        est = _hll_estimate(_hll_registers(hashes, p))
        assert abs(est - n) / n < 5 * 1.04 / np.sqrt(m), (p, n, est)


@pytest.mark.parametrize("blocks", [1, 7])
def test_hll_distinct_independent_of_block_layout(ray_session, blocks):
    """The driver merge is an elementwise max, so the estimate is the same
    number however the column is split into blocks."""
    import ray.data

    vals = [f"w{(i * 7919) % 5000}" for i in range(20_000)]
    t = pa.table({"token": pa.array(vals, pa.string())})
    one = hll_distinct(ray.data.from_arrow(t), "token", p=10)
    split = hll_distinct(ray.data.from_arrow(t).repartition(blocks), "token", p=10)
    assert split.column("estimate")[0].as_py() == one.column("estimate")[0].as_py()


@pytest.mark.parametrize("k", [1, 8, 64])
def test_mg_merged_summaries_keep_guarantee(k):
    """Summaries of separate chunks, merged, keep the Misra–Gries bound on
    a Zipf stream: true - N/k ≤ estimate ≤ true, at most k counters."""
    import pandas as pd

    rng = np.random.default_rng(k)
    stream = rng.zipf(1.3, size=20_000) % 500
    exact = pd.Series(stream).value_counts()
    merged: dict = {}
    for chunk in np.array_split(stream, 9):
        cnt = pd.Series(chunk).value_counts()
        part: dict = {}
        _mg_merge(part, cnt.index.tolist(), cnt.to_numpy(), k)
        _mg_merge(merged, list(part), list(part.values()), k)
    assert len(merged) <= k
    bound = len(stream) / k
    for t, true_c in exact.items():
        est = merged.get(t, 0)
        assert true_c - bound <= est <= true_c, (t, true_c, est)
