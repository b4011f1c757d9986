"""Input-layout invariance of the operators the CLI runs (``dedup``:
``minhash_duplicate_pairs`` and ``near_dedup``; ``tiers``:
``quality_tiers``): the same rows split into 1, 3, 7 or 16 input blocks give
the same output, equal to a single-process recompute."""

import numpy as np
import pyarrow as pa
import pytest

BLOCKS = [1, 3, 7, 16]
_WORDS = ("river stone maple quiet lantern copper meadow orbit velvet harbor "
          "cinder pillar saffron thistle quarry fable nimbus walnut ember "
          "garnet hollow juniper kestrel lattice marble nectar obsidian "
          "pebble quill russet sorrel tundra umber vesper willow yarrow").split()


def _docs() -> pa.Table:
    """48 documents: 24 random-word bases, 12 one-word edits of a base
    (Jaccard well above 0.5), 4 exact copies, 8 further bases; ids shuffled
    so no block holds a cluster whole."""
    rng = np.random.default_rng(5)
    bases = [" ".join(rng.choice(_WORDS, size=24)) for _ in range(32)]
    texts = bases[:24]
    for i in range(12):
        words = bases[i].split()
        words[rng.integers(len(words))] = "zephyr"
        texts.append(" ".join(words))
    texts += bases[:4] + bases[24:]
    ids = rng.permutation(1000)[:len(texts)].astype(np.int64)
    langs = rng.choice(["en", "sr", "de"], size=len(texts))
    return pa.table({"doc_id": pa.array(ids), "text": pa.array(texts),
                     "lang": pa.array(langs)})


def _blocks(tbl: pa.Table, n: int):
    import ray.data

    bounds = np.linspace(0, tbl.num_rows, n + 1).astype(int)
    return ray.data.from_arrow([tbl.slice(a, b - a)
                                for a, b in zip(bounds[:-1], bounds[1:])])


def _spec_pairs(tbl: pa.Table) -> set:
    from post_ocr_corrector_ray.stages.dedup import _jaccard

    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if _jaccard(texts[i], texts[j], 5) >= 0.5:
                out.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    return out


def _pairs(ds):
    from post_ocr_corrector_ray.stages.dedup import minhash_duplicate_pairs

    # the CLI ``dedup`` LSH parameters
    return minhash_duplicate_pairs(ds, n_hashes=64, bands=16, k_shingle=5,
                                   jaccard_threshold=0.5)


@pytest.mark.usefixtures("ray_session")
class TestCliOperatorsLayoutInvariance:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_minhash_duplicate_pairs(self, blocks):
        tbl = _docs()
        got = _pairs(_blocks(tbl, blocks)).to_pandas()
        want = _spec_pairs(tbl)
        assert len(want) >= 16
        assert sorted(zip(got["id_a"], got["id_b"])) == sorted(want)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_near_dedup(self, blocks):
        from post_ocr_corrector_ray.stages.components import near_dedup

        tbl = _docs()
        ds = _blocks(tbl, blocks)
        got = near_dedup(ds, _pairs(ds), num_partitions=4).to_pandas()
        # min-id representative per union-find cluster
        parent = {i: i for i in tbl.column("doc_id").to_pylist()}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in sorted(_spec_pairs(tbl)):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
        want = sorted(i for i in parent if find(i) == i)
        assert sorted(got["doc_id"]) == want
        assert len(want) < tbl.num_rows
        assert sorted(got.columns) == sorted(tbl.column_names)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_quality_tiers(self, blocks):
        import duckdb
        import pandas as pd

        from post_ocr_corrector_ray.stages.textstats import quality_score_batch
        from post_ocr_corrector_ray.stages.tiers import quality_tiers

        tbl = _docs()
        got = quality_tiers(_blocks(tbl, blocks), n=3).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        q = quality_score_batch(tbl.select(["doc_id", "text"])).to_pandas()
        q["lang"] = tbl.column("lang").to_pylist()
        want = duckdb.query(
            "SELECT doc_id, lang, quality, CAST(NTILE(3) OVER (PARTITION BY "
            "lang ORDER BY quality, doc_id) AS BIGINT) AS tier FROM q"
        ).fetchdf().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_id", "lang", "quality", "tier"]], want,
            check_dtype=False, check_exact=True)
