"""Edge cases: the split column's vectorized hash."""

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
