"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extract+correct pipeline on synthetic pages
derived from sf0.001; ``queries()`` times or checks the operators that a CLI
command or the flagship runs (the README coverage map names the command or
stage behind each entry); ``oracle_sql()`` gives the DuckDB twin for every
SQL-expressible one.

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.pipelines import documents as D
from post_ocr_corrector_ray.pipelines import training as T
from post_ocr_corrector_ray.pipelines.extract_correct import extract_correct
from post_ocr_corrector_ray.sources import synth

# Alphabet covering every char the synthetic page generator can emit in main
# content (lexicon words, capitalized sentence-initials, '.', ' ').
FLAGSHIP_ALPHABET = build_alphabet(
    set("".join(synth._WORDS_LATIN) + "".join(synth._WORDS_CYRILLIC))
    | {w[0].upper() for w in synth._WORDS_LATIN}
    | {w[0].upper() for w in synth._WORDS_CYRILLIC}
    | set(". ")
)
TINY_HPARAMS = dict(max_len=32, d_model=32, n_head=2, n_layers=2, d_linear=32)


def _synthetic_pages(n: int):
    """Distributed deterministic page generation (no disk roundtrip).

    ``override_num_blocks`` matters: a single-block input would starve the
    downstream actor pool (one task = one actor); split so every worker gets
    work from the first batch on."""
    import pyarrow as pa

    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        return synth.pages_batch(batch.column("id").to_numpy(), seed=42)

    blocks = max(8, min(256, n // 8))
    return ray.data.range(n, override_num_blocks=blocks).map_batches(
        gen, batch_format="pyarrow")


def _flagship(n_pages: int, batch_size: int = 8, concurrency=(2, 8)):
    ds = extract_correct(
        _synthetic_pages(n_pages), corrector="neural",
        alphabet=FLAGSHIP_ALPHABET, seed=7, hparams=TINY_HPARAMS,
        batch_size=batch_size, concurrency=concurrency,
    )
    return ds.select_columns(["url", "lang", "extract_status", "extracted_text",
                              "corrected_text"])


def _flagship_dictionary(n_pages: int):
    """End-to-end dictionary-corrector story (reference §3.1+§3.3 in one
    graph): pages → extract → keyed noise → vocabulary groupby over the clean
    text → broadcast dictionary correction of the noisy text → per-url CER.
    The extracted (url, clean) corpus feeds both the vocabulary and the
    noise, so it is extracted once and materialized in the object store."""
    import ray

    from post_ocr_corrector_ray.pipelines.corpus import build_dictionary, extract_clean
    from post_ocr_corrector_ray.pipelines.evaluate import add_cer_column
    from post_ocr_corrector_ray.stages.correct import DictionaryCorrectorStage
    from post_ocr_corrector_ray.stages.noise import add_messy_column

    good_chars = "".join(c for c in FLAGSHIP_ALPHABET if not c.isupper())
    corpus = extract_clean(_synthetic_pages(n_pages)).materialize()
    corr = build_dictionary(corpus, text_col="clean", split=None, min_frequency=2)
    noisy = corpus.map_batches(add_messy_column, batch_format="pyarrow",
                               fn_kwargs=dict(good_chars=good_chars))
    corrected = noisy.map_batches(
        DictionaryCorrectorStage,
        fn_constructor_kwargs=dict(vocab_ref=ray.put(corr.vocabulary),
                                   min_frequency=2, text_col="messy"),
        batch_format="pyarrow", batch_size=64, concurrency=(2, 8), num_cpus=1)
    return corrected.map_batches(
        add_cer_column, batch_format="pyarrow",
        fn_kwargs=dict(out_col="corrected_text", correct_col="clean", banded=True))


def entry() -> Any:
    """Flagship pipeline smoke (sf0.001-scale synthetic pages)."""
    return _flagship(n_pages=60)


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry with the oracle-backed entries first, then the rest."""
    reg = _registry()
    with_oracle = set(oracle_sql())
    return {k: reg[k] for k in sorted(reg, key=lambda k: k not in with_oracle)}


def _registry() -> dict[str, Callable[[str], Any]]:
    return {
        # flagship + reference-semantics pipelines (rows-only where non-SQL)
        "flagship_extract_correct": lambda sf: _flagship(n_pages=120),
        "flagship_dictionary": lambda sf: _flagship_dictionary(n_pages=300),
        "doc_mutilate": D.doc_mutilate,
        "doc_null_corrector_cer": D.doc_null_corrector_cer,
        # reference text semantics with SQL twins
        "doc_normalize_ws": D.doc_normalize_ws,
        "doc_all_chars": D.doc_all_chars,
        "doc_token_counts": D.doc_token_counts,
        "doc_split_assignment": D.doc_split_assignment,
        "doc_markup_roundtrip": D.doc_markup_roundtrip,
        # training-data feed (CorrectorDataset+DataLoader analog: collated
        # INT_EMPTY-padded (messy, clean) id batches, deterministic epoch
        # shuffle — pipelines/training.py; batch-content determinism across
        # parallelism is pytest-pinned in tests/test_training_feed.py)
        "training_feed": T.training_feed,
    }


_ORACLE_SF_DIR = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")


def oracle_sql() -> dict[str, str]:
    return {
        "doc_normalize_ws": r"""
            SELECT doc_id,
                   regexp_replace(regexp_replace(text, '\s+', ' ', 'g'), '^ ', '') AS norm_text
            FROM documents""",
        "doc_all_chars": r"""
            SELECT DISTINCT unnest(regexp_extract_all(text, '(?s).')) AS ch FROM documents""",
        "doc_token_counts": r"""
            SELECT w AS token, CAST(count(*) AS BIGINT) AS frequency
            FROM (SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS w
                  FROM documents WHERE trim(text) <> '')
            GROUP BY w""",
        "doc_split_assignment": """
            SELECT doc_id,
                   CASE WHEN doc_id % 10 = 9 THEN 'validation'
                        WHEN doc_id % 10 = 0 THEN 'test'
                        ELSE 'train' END AS split
            FROM documents""",
        "doc_markup_roundtrip": r"""
            SELECT doc_id,
                   array_to_string(regexp_split_to_array(trim(text), '\s+'), ' ') AS sentence
            FROM documents""",
    }
