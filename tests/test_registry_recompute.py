"""Registry entries that have no DuckDB oracle, each against a
single-process recompute on the oracle fixture: the same row kernel applied
to the whole table in one batch, or a brute-force statement of what the
operator promises."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry

GOOD = "abcdefghijklmnopqrstuvwxyz "


@pytest.fixture(scope="module")
def docs() -> pa.Table:
    return pq.read_table(f"{entry._ORACLE_SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])


def _run(name: str) -> pd.DataFrame:
    res = entry.queries()[name](entry._ORACLE_SF_DIR)
    return res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)


def _by_id(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("doc_id").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestRowKernelQueries:
    """Per-row queries equal their kernel run once over the whole table."""

    def test_doc_mutilate_keyed_by_doc_id(self, docs):
        from post_ocr_corrector_ray.functions.noise import mutilate_keyed

        got = _by_id(_run("doc_mutilate"))
        ids = docs.column("doc_id").to_pylist()
        want = _by_id(pd.DataFrame({
            "doc_id": ids,
            "messy": [mutilate_keyed(str(i), (t or "").strip(), GOOD)
                      for i, t in zip(ids, docs.column("text").to_pylist())]}))
        pd.testing.assert_frame_equal(got[["doc_id", "messy"]], want,
                                      check_dtype=False, check_exact=True)
        clean = dict(zip(ids, docs.column("text").to_pylist()))
        assert sum(m != (clean[i] or "").strip()
                   for i, m in zip(got["doc_id"], got["messy"])) > len(got) // 2


@pytest.mark.usefixtures("ray_session")
class TestAggregateQueries:
    def test_doc_null_corrector_cer(self, docs):
        from post_ocr_corrector_ray.functions.edit_distance import edit_distance_banded
        from post_ocr_corrector_ray.functions.noise import mutilate_keyed

        got = _run("doc_null_corrector_cer")
        cers = []
        for i, t in zip(docs.column("doc_id").to_pylist(),
                        docs.column("text").to_pylist()):
            ref = t or ""
            if not ref:
                continue
            messy = mutilate_keyed(str(i), ref.strip(), GOOD)
            cers.append(0.0 if messy == ref
                        else edit_distance_banded(messy, ref) / len(ref))
        assert len(got) == 1
        assert int(got["n"][0]) == len(cers)
        assert got["mean_cer"][0] == pytest.approx(sum(cers) / len(cers), rel=1e-12)
        assert got["percent_perfect"][0] == sum(c == 0.0 for c in cers) / len(cers)
        assert 0.0 < got["mean_cer"][0] < 1.0

    def test_doc_minhash_bucket_stats(self, docs):
        from post_ocr_corrector_ray.stages.dedup import MAX_BUCKET, minhash_bands_batch

        got = _run("doc_minhash_bucket_stats")
        bands = minhash_bands_batch(docs, n_hashes=64, bands=16,
                                    k_shingle=5).to_pandas()
        sizes = bands.groupby(["band_id", "band_hash"]).size()
        over = sizes[sizes > MAX_BUCKET]
        assert got.to_dict("records") == [{
            "n_buckets": len(sizes),
            "n_multi_buckets": int((sizes > 1).sum()),
            "n_dropped_buckets": len(over),
            "n_dropped_pairs": int((over * (over - 1) // 2).sum()),
        }]
        assert len(sizes) > docs.num_rows
