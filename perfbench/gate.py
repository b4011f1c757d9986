"""Oracle gate: the single-process oracle's bytes per url, and the check of
a committed store against them.

The oracle runs once per run, before any timed job, split over a few spawned
processes (each shard is an independent single-process oracle run; the
result is a per-url map, so sharding cannot change it).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
from typing import Callable

import pyarrow as pa

from post_ocr_corrector_ray.state import lineage as lin


def _oracle_shard(args) -> dict[str, tuple[str, str]]:
    from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel
    from post_ocr_corrector_ray.oracle import oracle_extract_correct, oracle_extract_row

    shard, correct_kwargs = args
    corrector = None
    if correct_kwargs:
        corrector = NeuralCorrectorModel.from_seed(
            correct_kwargs["alphabet"], seed=correct_kwargs["seed"],
            **correct_kwargs["hparams"])
    texts = oracle_extract_correct(shard, corrector)
    statuses = [oracle_extract_row(h, t)[1] for h, t in
                zip(shard.column("html").to_pylist(), shard.column("text").to_pylist())]
    return {u: (texts[u], s) for u, s in zip(shard.column("url").to_pylist(), statuses)}


def start_oracle(pages: pa.Table, correct_kwargs: dict,
                 processes: int) -> Callable[[], dict[str, tuple[str, str]]]:
    """Start computing url -> (corrected_text, extract_status) from
    ``oracle_extract_correct`` and ``oracle_extract_row`` in ``processes``
    spawned processes; the returned function waits for the result."""
    step = -(-pages.num_rows // processes)
    shards = [(pages.slice(lo, step), correct_kwargs)
              for lo in range(0, pages.num_rows, step)]
    pool = mp.get_context("spawn").Pool(len(shards))
    pending = pool.map_async(_oracle_shard, shards)

    def result() -> dict[str, tuple[str, str]]:
        parts = pending.get()
        pool.close()
        pool.join()
        out: dict[str, tuple[str, str]] = {}
        for p in parts:
            out.update(p)
        return out

    return result


def bad_urls(store: str, oracle: dict[str, tuple[str, str]]) -> set[str]:
    """Urls that are missing, duplicated, extra, byte-mismatched or
    status-mismatched in ``store`` against the oracle."""
    try:
        table = lin.read_output(store)
    except FileNotFoundError:
        return set(oracle)
    urls = table.column("url").to_pylist()
    texts = table.column("corrected_text").to_pylist()
    statuses = table.column("extract_status").to_pylist()
    bad: set[str] = set()
    seen: set[str] = set()
    for url, text, status in zip(urls, texts, statuses):
        want = oracle.get(url)
        if url in seen or want is None or want != (text, status):
            bad.add(url)
        seen.add(url)
    bad.update(set(oracle) - seen)
    return bad


def store_digest(store: str) -> dict[str, str]:
    """relative path -> sha256 of every file in the store."""
    out = {}
    for root, _, files in os.walk(store):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, store)] = hashlib.sha256(f.read()).hexdigest()
    return out


def changed_files(before: dict[str, str], after: dict[str, str]) -> int:
    return sum(1 for k in before.keys() | after.keys() if before.get(k) != after.get(k))
