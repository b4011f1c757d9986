"""Edge cases: the split column's vectorized hash and the tiered flagship."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

@pytest.mark.usefixtures("ray_session")
class TestFastHashTwins:
    """The split column keys on the vectorized polyhash; it must equal the
    scalar hash row by row."""

    def test_add_split_column_vectorized_matches_scalar(self):
        from post_ocr_corrector_ray.functions.hashing import polyhash_u64
        from post_ocr_corrector_ray.pipelines.corpus import (
            add_split_column, pick_split)

        urls = [f"https://ex.example/{i}" for i in range(257)] + ["", "x"]
        batch = pa.table({"url": pa.array(urls, pa.string())})
        got = add_split_column(batch).column("split").to_pylist()
        want = [pick_split(polyhash_u64(u.encode("utf-8")) % 10) for u in urls]
        assert got == want


@pytest.mark.usefixtures("ray_session")
class TestFlagshipTiered:
    def test_matches_single_process_ntile_recompute(self):
        """flagship_tiered == single-process extract + DuckDB NTILE(3) OVER
        (PARTITION BY lang ORDER BY quality, url) — an independent oracle
        for the url-keyed tier-extraction composition."""
        import duckdb

        import __ray_entry__ as entry
        from post_ocr_corrector_ray.sources.synth import pages_batch
        from post_ocr_corrector_ray.stages.extract import extract_batch
        from post_ocr_corrector_ray.stages.textstats import quality_score_batch

        got = entry.queries()["flagship_tiered"]("unused").to_pandas() \
            .sort_values("url").reset_index(drop=True)

        pages = pages_batch(np.arange(600), seed=42)
        ext = extract_batch(pages)
        df = ext.to_pandas()
        df = df[df["extracted_text"].notna() & (df["extracted_text"] != "")]
        q = quality_score_batch(
            pa.table({"url": pa.array(df["url"], pa.string()),
                      "text": pa.array(df["extracted_text"], pa.string())}),
            id_col="url").to_pandas()
        q["lang"] = df["lang"].to_numpy()
        want = duckdb.query(
            "SELECT url, lang, quality, CAST(NTILE(3) OVER (PARTITION BY "
            "lang ORDER BY quality, url) AS BIGINT) AS tier FROM q"
        ).fetchdf().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["url", "lang", "quality", "tier"]], want,
            check_dtype=False, check_exact=True)
        assert len(got) > 500  # most synthetic pages carry extractable text
