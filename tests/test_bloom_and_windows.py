"""Document-side window, join and sketch checks: bigram PMI, LEFT
hash-join semantics, Misra–Gries guarantee and token entropy.

DuckDB recomputes each expected result from the sf0.001 fixture.
"""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestPmiHistLatestRevenue:
    def test_doc_bigram_pmi(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.documents import doc_bigram_pmi

        got = doc_bigram_pmi(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW documents AS SELECT * FROM "
                  f"read_parquet('{SF}/documents.parquet')")
        want = c.execute(r"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'),
                                         x -> x <> '') AS l FROM documents),
            bi AS (SELECT l[i] AS w1, l[i + 1] AS w2
                   FROM toks, LATERAL (SELECT unnest(range(1, len(l))) AS i) r),
            uni AS (SELECT unnest(l) AS token FROM toks),
            uc AS (SELECT token, CAST(count(*) AS BIGINT) AS c
                   FROM uni GROUP BY token),
            bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
                   FROM bi GROUP BY w1, w2),
            tot AS (SELECT CAST((SELECT count(*) FROM uni) AS DOUBLE) AS t_uni,
                           CAST((SELECT count(*) FROM bi) AS DOUBLE) AS t_bi)
            SELECT bc.w1, bc.w2, bc.c_xy,
                   round(ln((CAST(bc.c_xy AS DOUBLE) / t_bi)
                            / ((CAST(u1.c AS DOUBLE) / t_uni)
                               * (CAST(u2.c AS DOUBLE) / t_uni))), 6) AS pmi
            FROM bc JOIN uc u1 ON bc.w1 = u1.token
            JOIN uc u2 ON bc.w2 = u2.token
            CROSS JOIN tot WHERE bc.c_xy >= 5""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestLeftJoin:
    def test_left_join_semantics(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = pd.DataFrame({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
        r = pd.DataFrame({"k": [2, 4, 5], "rv": [20, 40, 50]})
        got = hash_join(ray.data.from_pandas(l), ray.data.from_pandas(r),
                        on="k", how="left").to_pandas()
        want = l.merge(r, on="k", how="left")
        g = _canon(got)
        w = _canon(want)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
        # unmatched rows null-pad; right ints stay float64 (engine contract)
        assert got["rv"].isna().sum() == 2
        assert got["rv"].dtype == "float64"


@pytest.mark.usefixtures("ray_session")
class TestSaltedDistinctAndMG:
    def test_mg_guarantee_vs_exact(self):
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.pipelines.documents import doc_heavy_hitters

        k = 64
        got = doc_heavy_hitters(SF, k=k).to_pandas().set_index("token")["est"]
        texts = pq.read_table(f"{SF}/documents.parquet",
                              columns=["text"])["text"].to_pylist()
        exact = pd.Series(" ".join(t for t in texts if t).split()).value_counts()
        n = int(exact.sum())
        bound = n / k
        # every true heavy hitter survives, with estimate within N/k
        heavy = exact[exact > bound]
        assert set(heavy.index) <= set(got.index)
        for t, true_c in heavy.items():
            assert true_c - bound <= got[t] <= true_c
        # no estimate exceeds its true count
        assert all(got[t] <= exact.get(t, 0) for t in got.index)


@pytest.mark.usefixtures("ray_session")
class TestTokenEntropy:
    def test_doc_token_entropy(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.documents import doc_token_entropy

        got = doc_token_entropy(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW documents AS SELECT * FROM "
                  f"read_parquet('{SF}/documents.parquet')")
        want = c.execute(r"""
            WITH t AS (SELECT doc_id,
                              unnest(list_filter(
                                regexp_split_to_array(text, '\s+'),
                                x -> x <> '')) AS w FROM documents),
            c AS (SELECT doc_id, w, CAST(count(*) AS BIGINT) AS c
                  FROM t GROUP BY doc_id, w),
            n AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n
                  FROM c GROUP BY doc_id)
            SELECT c.doc_id,
                   round(-sum((CAST(c.c AS DOUBLE) / n.n)
                              * ln(CAST(c.c AS DOUBLE) / n.n)), 6) AS entropy
            FROM c JOIN n USING (doc_id) GROUP BY c.doc_id""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert (got["entropy"] >= 0).all()
