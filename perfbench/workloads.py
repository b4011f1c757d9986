"""Workload definitions and seeded input staging.

Every workload reads a pages parquet staged here from ``sources.synth``; the
pipeline under test sees only the parquet.  The same seed always stages the
same bytes.

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``neural_flagship``: extract -> neural corrector -> committed store.
- ``extract_commit``: many more pages, null corrector -> committed store.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.sources import synth

# Every char the synthetic generator can put in main content: the two
# lexicons, their capitalized sentence initials, '.' and ' '.
FLAGSHIP_ALPHABET = build_alphabet(
    set("".join(synth._WORDS_LATIN) + "".join(synth._WORDS_CYRILLIC))
    | {w[0].upper() for w in synth._WORDS_LATIN}
    | {w[0].upper() for w in synth._WORDS_CYRILLIC}
    | set(". ")
)
TINY_HPARAMS = dict(max_len=32, d_model=32, n_head=2, n_layers=2, d_linear=32)
MODEL_SEED = 7
NUM_PARTITIONS = 16

# The neural input keeps the generator's kind mix at a fixed size: per kind, a
# fixed count of pages taken at evenly spaced quantiles of main-content
# length out of a seeded candidate pool.  Decode cost is proportional to
# content length, so a plain random draw of a few dozen pages moves docs/s by
# more than a regression bound from seed to seed; the quantile draw keeps the
# seed-to-seed work within a few percent while the text itself changes.  The
# 26k-char ``html_big`` page is left out: it alone costs ~15 s of decode on
# one core, longer than a whole run.  Size skew is still exercised by
# ``extract_commit``, whose page range holds one giant page per 499.
NEURAL_MIX = {"html": 19, "pdf": 1, "text_only": 2, "html_boiler": 1,
              "html_empty": 1}
NEURAL_CANDIDATES = 2048
EXTRACT_PAGES = 5_000


@dataclass(frozen=True)
class Workload:
    name: str
    corrector: str          # "neural" | "null"
    n_files: int
    batch_size: int         # corrector micro-batch (rows per actor call)
    n_pages: int = 0        # pages 0..n_pages-1, when ``mix`` is not set
    mix: dict | None = None  # pages per kind, drawn by ``_mixed_indices``
    correct_kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    "neural_flagship": Workload(
        "neural_flagship", "neural", n_files=12, batch_size=4, mix=NEURAL_MIX,
        correct_kwargs=dict(alphabet=FLAGSHIP_ALPHABET, seed=MODEL_SEED,
                            hparams=TINY_HPARAMS)),
    "extract_commit": Workload("extract_commit", "null", n_files=16, batch_size=8,
                               n_pages=EXTRACT_PAGES),
}


def _mixed_indices(mix: dict, seed: int) -> list[int]:
    by_kind: dict[str, list[tuple[int, int]]] = {k: [] for k in mix}
    for i in range(NEURAL_CANDIDATES):
        page = synth.gen_page(i, seed)
        if page["kind"] in by_kind:
            by_kind[page["kind"]].append((len(page["expected_text"]), i))
    picked: list[int] = []
    for kind, count in mix.items():
        pool = sorted(by_kind[kind])
        if len(pool) < count:
            raise RuntimeError(f"seed {seed}: only {len(pool)} {kind} candidates")
        picked += [pool[int((j + 0.5) * len(pool) / count)][1] for j in range(count)]
    random.Random(seed).shuffle(picked)
    return picked


def page_indices(workload: Workload, seed: int) -> list[int]:
    if workload.mix is not None:
        return _mixed_indices(workload.mix, seed)
    return list(range(workload.n_pages))


def stage_pages(workload: Workload, seed: int, out_dir: str) -> pa.Table:
    """Write the workload's pages as ``n_files`` parquet files under
    ``out_dir`` (several files, so the read and extract stages get several
    blocks); returns the staged table."""
    import numpy as np

    table = synth.pages_batch(np.asarray(page_indices(workload, seed)), seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // workload.n_files)
    for f, lo in enumerate(range(0, table.num_rows, step)):
        pq.write_table(table.slice(lo, step), os.path.join(out_dir, f"pages-{f:03d}.parquet"))
    return table
